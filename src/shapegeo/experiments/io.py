"""Artifact plumbing: flat key=value configs, reproducible CSV tables, hand-emitted SVG.

Config readers return each value as its stripped text; the CLI gives it
the type of the subcommand's default for that key.

CSV dialect is fixed for bit-exact reproducibility: comma separators,
'.' decimal point, 17 significant digits, header row, LF line endings.
All files are written atomically (temp file + rename in the target
directory).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

__all__ = [
    "ConfigError",
    "parse_config_text",
    "load_config_file",
    "parse_overrides",
    "format_value",
    "atomic_write_text",
    "write_csv",
    "read_csv",
    "write_manifest",
    "svg_plot",
]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


# ---------------------------------------------------------------------------
# Flat key=value configs
# ---------------------------------------------------------------------------


def _parse_pair(text, where):
    """Split one ``key=value`` pair; ``where`` locates it in error messages."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    key, value = text.split("=", 1)
    if not key.strip():
        raise ConfigError(f"{where}: empty key in {text!r}")
    return key.strip(), value.strip()


def parse_config_text(text):
    """Parse flat ``key = value`` lines into {key: text}; '#' starts a comment."""
    lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    return dict(_parse_pair(line, f"line {n}") for n, line in enumerate(lines, start=1) if line)


def load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def parse_overrides(pairs):
    """Parse repeated --set key=value overrides into {key: text} (later wins)."""
    return dict(_parse_pair(pair, "--set") for pair in pairs)


def format_value(value):
    """Render a table/config entry: floats at 17 significant digits."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


# ---------------------------------------------------------------------------
# Atomic file output
# ---------------------------------------------------------------------------


def atomic_write_text(path, text):
    """Write text with LF endings via a temp file in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_csv(path, columns, rows):
    """Rectangular CSV with header; entries formatted via format_value.

    A table without rows is rejected before anything is written.
    """
    if len(rows) == 0:
        raise ValueError("table has no rows")
    n_cols = len(columns)
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != n_cols:
            raise ValueError("rows must match the number of columns")
        for entry in row:
            if isinstance(entry, (float, np.floating)) and not np.isfinite(entry):
                raise ValueError("table entries must be finite")
        lines.append(",".join(format_value(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_csv(path):
    """Read a CSV written by write_csv: (columns, rows of floats)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    columns = lines[0].split(",")
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    return columns, rows


def write_manifest(path, experiment, config, extras=None):
    """Manifest doubling as a re-runnable config file.

    Config keys are plain key=value; provenance (experiment name, library
    versions, derived quantities) is recorded in comments and in the
    'experiment' key that the CLI accepts back.
    """
    import scipy

    import shapegeo

    lines = [
        f"# shapegeo experiment manifest",
        f"# versions: shapegeo={shapegeo.__version__} numpy={np.__version__} "
        f"scipy={scipy.__version__}",
        f"experiment = {experiment}",
    ]
    for key in sorted(config):
        lines.append(f"{key} = {format_value(config[key])}")
    for key, value in (extras or {}).items():
        lines.append(f"# {key} = {format_value(value)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Hand-emitted SVG plots: polylines and text labels only
# ---------------------------------------------------------------------------

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 55
_COLORS = ["#1f5fa8", "#c23b22", "#2e7d32", "#7b1fa2", "#e09100"]


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def svg_plot(path, series, title="", xlabel="", ylabel="", hlines=(), logy=False):
    """Line plot of (label, x array, y array) series; hlines are
    (label, y) horizontal reference lines."""
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    ys = np.concatenate([ys, [float(y) for _, y in hlines]]) if hlines else ys
    if logy:
        if np.any(ys <= 0):
            raise ValueError("log-scale plot requires positive values")
        ys = np.log10(ys)
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    inner_w = _WIDTH - _MARGIN_L - _MARGIN_R
    inner_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def to_px(x, y):
        if logy:
            y = np.log10(y)
        px = _MARGIN_L + (np.asarray(x, dtype=float) - x_lo) / (x_hi - x_lo) * inner_w
        py = _MARGIN_T + (y_hi - np.asarray(y, dtype=float)) / (y_hi - y_lo) * inner_h
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        # axes
        f'<polyline fill="none" stroke="black" stroke-width="1" points="'
        f"{_MARGIN_L},{_MARGIN_T} {_MARGIN_L},{_HEIGHT - _MARGIN_B} "
        f'{_WIDTH - _MARGIN_R},{_HEIGHT - _MARGIN_B}"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>',
        f'<text x="16" y="{_HEIGHT / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {_HEIGHT / 2:.1f})">'
        f"{ylabel}{' (log10)' if logy else ''}</text>",
    ]
    for tx in _ticks(x_lo, x_hi):
        px, _ = to_px(tx, 10.0 ** y_lo if logy else y_lo)
        parts.append(
            f'<polyline stroke="black" stroke-width="1" fill="none" '
            f'points="{px:.1f},{_HEIGHT - _MARGIN_B} {px:.1f},{_HEIGHT - _MARGIN_B + 5}"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_HEIGHT - _MARGIN_B + 18}" '
            f'text-anchor="middle" font-size="11">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):  # on a log axis the labels are exponents
        py = _MARGIN_T + (y_hi - ty) / (y_hi - y_lo) * inner_h
        parts.append(
            f'<polyline stroke="black" stroke-width="1" fill="none" '
            f'points="{_MARGIN_L - 5},{py:.1f} {_MARGIN_L},{py:.1f}"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-size="11">{ty:.4g}</text>'
        )
    for label, y in hlines:
        _, py = to_px(x_lo, y)
        parts.append(
            f'<polyline fill="none" stroke="#888888" stroke-width="1" '
            f'stroke-dasharray="6,4" points="{_MARGIN_L},{py:.1f} '
            f'{_WIDTH - _MARGIN_R},{py:.1f}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_R - 4}" y="{py - 5:.1f}" '
            f'text-anchor="end" font-size="11" fill="#888888">{label}</text>'
        )
    for i, (label, x, y) in enumerate(series):
        px, py = to_px(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = _COLORS[i % len(_COLORS)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"/>'
        )
        if label:
            parts.append(
                f'<text x="{_WIDTH - _MARGIN_R - 6}" '
                f'y="{_MARGIN_T + 16 + 16 * i}" text-anchor="end" '
                f'font-size="12" fill="{color}">{label}</text>'
            )
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")

