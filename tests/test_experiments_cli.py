"""Experiment runner: configs, CSV/SVG artifacts, determinism, exit codes."""

import argparse
import ast
import contextlib
import os
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shapegeo
from shapegeo import diffeo_flows
from shapegeo import periodic_core as pc
from shapegeo.experiments import io
from shapegeo.experiments.cli import EXPERIMENTS, _assemble_config, main, run_experiment


class TestConfigParsing:
    def test_key_value_with_comments(self):
        cfg = io.parse_config_text("# header\n a = 3 \nb = 2.5\nc = text # trailing\n")
        assert cfg == {"a": "3", "b": "2.5", "c": "text"}

    def test_malformed_line_rejected(self):
        with pytest.raises(io.ConfigError):
            io.parse_config_text("just words\n")

    def test_override_parsing(self):
        assert io.parse_overrides(["a=1", "a=2"]) == {"a": "2"}
        with pytest.raises(io.ConfigError):
            io.parse_overrides(["novalue"])

    def test_empty_key_rejected_and_only_files_strip_comments(self):
        with pytest.raises(io.ConfigError):
            io.parse_config_text(" = 3\n")
        with pytest.raises(io.ConfigError):
            io.parse_overrides(["=3"])
        assert io.parse_overrides(["a = x # y"]) == {"a": "x # y"}


class TestCsv:
    def test_roundtrip_17_digits(self, tmp_path):
        path = str(tmp_path / "t.csv")
        value = 1.0 / 3.0
        io.write_csv(path, ["a", "b"], [[1, value]])
        columns, rows = io.read_csv(path)
        assert columns == ["a", "b"]
        assert rows[0][1] == value  # 17 significant digits round-trip floats

    def test_lf_line_endings(self, tmp_path):
        path = str(tmp_path / "t.csv")
        io.write_csv(path, ["a"], [[1.5], [2.5]])
        with open(path, "rb") as fh:
            data = fh.read()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_nonfinite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_csv(str(tmp_path / "t.csv"), ["a"], [[np.inf]])

    def test_ragged_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            io.write_csv(str(tmp_path / "t.csv"), ["a", "b"], [[1.0]])

    def test_table_without_rows_rejected_before_writing(self, tmp_path):
        with pytest.raises(ValueError, match="no rows"):
            io.write_csv(str(tmp_path / "t.csv"), ["a", "b"], [])
        assert os.listdir(tmp_path) == []


class TestSvg:
    def test_plot_is_polylines_and_text_only(self, tmp_path):
        path = str(tmp_path / "p.svg")
        x = np.linspace(0, 1, 20)
        io.svg_plot(path, [("s", x, np.sin(x))], title="t", xlabel="x", ylabel="y",
                    hlines=[("ref", 0.5)])
        tree = ET.parse(path)
        tags = {el.tag.split("}")[-1] for el in tree.iter()}
        assert tags <= {"svg", "rect", "polyline", "text"}
        assert "polyline" in tags and "text" in tags


# one quick --set config per subcommand
SMALL_CONFIGS = {
    "grossman": ["n_max=4"],
    "vanishing-l2": ["base_samples=16", "base_steps=4", "max_iter=5"],
    "sphere-bvp": ["n_pairs=2", "n_steps=16", "seed=7"],
    "exp-circle": ["n_samples=64"],
    "blowup": ["half_width=100.0"],
    "landmark-geodesic": ["n_steps=8"],
    "lddmm-flow": ["n_probe=5"],
    "sobolev-props": ["k_max=3"],
}


class _ReadRecorder(dict):
    """A config that records which keys are read from it."""

    def __init__(self, config):
        super().__init__(config)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(shapegeo.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TestRunner:
    def test_grossman_end_to_end(self, tmp_path):
        out = str(tmp_path / "g")
        code = main(["grossman", "--set", "n_max=4", "--out", out])
        assert code == 0
        for name in ("table.csv", "plot.svg", "manifest.txt"):
            assert os.path.exists(os.path.join(out, name))
        columns, rows = io.read_csv(os.path.join(out, "table.csv"))
        assert columns == ["n", "length", "bound"]
        for n, length, bound in rows:
            assert np.pi < length <= bound

    def test_determinism_bit_identical(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["sphere-bvp", "--set", "n_pairs=2", "--set", "n_steps=16"]
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        with open(os.path.join(out1, "table.csv"), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out2, "table.csv"), "rb") as fh:
            second = fh.read()
        assert first == second

    def test_sphere_bvp_manifest_reports_solver(self, tmp_path):
        # five iterations cannot converge, so both pairs run the full budget
        out = str(tmp_path / "s")
        args = ["sphere-bvp", "--set", "n_pairs=2", "--set", "n_steps=16", "--set", "max_iter=5"]
        assert main(args + ["--out", out]) == 0
        with open(os.path.join(out, "manifest.txt")) as fh:
            lines = fh.read().splitlines()
        assert "# unconverged_pairs = 2" in lines
        assert "# bvp_iterations = 10" in lines

    def test_sphere_bvp_defaults_converge(self, tmp_path):
        """All 20 default pairs converge, in at most 250 L-BFGS iterations together."""
        out = str(tmp_path / "s")
        assert main(["sphere-bvp", "--out", out]) == 0
        with open(os.path.join(out, "manifest.txt")) as fh:
            lines = fh.read().splitlines()
        assert "# unconverged_pairs = 0" in lines
        (iterations,) = [line for line in lines if line.startswith("# bvp_iterations = ")]
        assert int(iterations.split(" = ")[1]) <= 250

    def test_vanishing_l2_manifest_reports_levels(self, tmp_path):
        # five iterations leave every L^2 level at the budget; the flat
        # control's quadratic energy converges within them
        out = str(tmp_path / "v")
        args = ["vanishing-l2", "--set", "base_samples=16", "--set", "base_steps=4",
                "--set", "max_iter=5"]
        assert main(args + ["--out", out]) == 0
        with open(os.path.join(out, "manifest.txt")) as fh:
            lines = fh.read().splitlines()
        for label, converged, reason in (("l2", 0, "max_iter"), ("flat", 1, "tol")):
            for teeth in (1, 4, 16):
                assert f"# {label}_converged_teeth_{teeth} = {converged}" in lines
                assert f"# {label}_reason_teeth_{teeth} = {reason}" in lines

    @pytest.mark.parametrize("name", list(SMALL_CONFIGS))
    def test_manifest_roundtrip(self, tmp_path, name):
        """A manifest read back as the config reproduces the table byte for byte."""
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        sets = [arg for pair in SMALL_CONFIGS[name] for arg in ("--set", pair)]
        assert main([name, *sets, "--out", out1]) == 0
        manifest = os.path.join(out1, "manifest.txt")
        assert main([name, "--config", manifest, "--out", out2]) == 0
        with open(os.path.join(out1, "table.csv"), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out2, "table.csv"), "rb") as fh:
            second = fh.read()
        assert first == second

    def test_manifest_rerun_ignores_seed_environment(self, tmp_path, monkeypatch):
        """The seed comes from the config alone: no environment variable overrides it."""
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        sets = ["--set", "n_pairs=2", "--set", "n_steps=8"]
        assert main(["sphere-bvp", *sets, "--out", out1]) == 0
        monkeypatch.setenv("SHAPEGEO_SEED", "7")
        assert main(["sphere-bvp", "--config", os.path.join(out1, "manifest.txt"),
                     "--out", out2]) == 0
        for name in ("table.csv", "manifest.txt"):
            with open(os.path.join(out1, name), "rb") as fh:
                first = fh.read()
            with open(os.path.join(out2, name), "rb") as fh:
                assert fh.read() == first, name

    @pytest.mark.parametrize("name", list(SMALL_CONFIGS))
    def test_manifest_gives_back_the_default_types(self, tmp_path, name):
        """A config read back from a manifest has exactly its defaults' types."""
        out = tmp_path / "a"
        sets = [arg for pair in SMALL_CONFIGS[name] for arg in ("--set", pair)]
        assert main([name, *sets, "--out", str(out)]) == 0
        config = _assemble_config(name, argparse.Namespace(config=str(out / "manifest.txt"), set=[]))
        defaults = EXPERIMENTS[name][1]
        assert config.keys() == defaults.keys()
        for key in defaults:
            assert type(config[key]) is type(defaults[key]), key

    def test_unknown_key_is_config_error(self, tmp_path):
        assert main(["grossman", "--set", "bogus=1", "--out", str(tmp_path / "x")]) == 2

    def test_config_of_another_experiment_is_config_error(self, tmp_path):
        config = tmp_path / "sphere.txt"
        config.write_text("experiment = sphere-bvp\nn_steps = 8\n")
        args = ["landmark-geodesic", "--config", str(config), "--out", str(tmp_path / "x")]
        assert main(args) == 2

    def test_module_run_raises_no_runtime_warning(self, tmp_path):
        # runpy warns when the package has imported the module it is about to run
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "shapegeo.experiments.cli",
             "sobolev-props", "--set", "k_max=1", "--out", str(tmp_path / "s")],
            env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_bad_override_is_config_error(self, tmp_path):
        assert main(["grossman", "--set", "m", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("name, override", [
        ("sobolev-props", "n_samples=100"),  # the grid needs a power of two
        ("sobolev-props", "n_samples=abc"),
        ("sphere-bvp", "tol=fast"),
        ("grossman", "n_max=4.5"),
        ("grossman", "m=60 n_max=59"),  # past double precision
        # non-finite values
        ("sphere-bvp", "tol=inf n_pairs=2"),
        ("sphere-bvp", "tol=nan max_iter=50 n_pairs=2"),
        ("blowup", "x0=nan"),
        # tables without rows
        ("grossman", "n_max=0"),
        ("sphere-bvp", "n_pairs=0"),
        ("sobolev-props", "k_max=-1"),
        # no rotation of order zero
        ("exp-circle", "rotation_order=0 n_samples=64"),
    ])
    def test_rejected_value_is_config_error(self, tmp_path, name, override):
        out = tmp_path / "x"
        sets = [arg for pair in override.split() for arg in ("--set", pair)]
        assert main([name, *sets, "--out", str(out)]) == 2
        assert not (out / "table.csv").exists()

    @pytest.mark.parametrize("name, override, message", [
        # a path with no interior point has nothing for the BVP to move
        ("sphere-bvp", "n_steps=1 n_pairs=2", "n_steps = 1"),
        ("landmark-geodesic", "n_steps=1", "n_steps = 1"),
        ("landmark-geodesic", "n_steps=0", "n_steps = 0"),
        # a negative tolerance or budget is a config mistake, not an unconverged solve
        ("sphere-bvp", "tol=-1", "tol = -1.0"),
        ("sphere-bvp", "max_iter=-5", "max_iter = -5"),
        ("landmark-geodesic", "max_iter=-1", "max_iter = -1"),
        ("vanishing-l2", "max_iter=-1", "max_iter = -1"),
        ("sphere-bvp", "m=0 n_pairs=2", "m >= 2, got m = 0"),
        ("lddmm-flow", "n_probe=0", "n_probe = 0 for lddmm-flow: must be >= 1"),
        # a window needs a positive width
        ("lddmm-flow", "half_width=-5", "half_width = -5.0"),
        # a start outside the window, and a window whose field x^2 overflows: the runner
        # says so before TimeDependentField finds x^2 infinite at the window's ends
        ("blowup", "x0=20000", "x0 = 20000.0"),
        ("blowup", "half_width=1e200", "half_width = 1e+200"),
        # two coincident landmarks are no point of landmark space
        ("landmark-geodesic", "q1_start=2.0", "q1_start = 2.0, q2_start = 2.0"),
        ("landmark-geodesic", "q2_end=-1.0", "q1_end = -1.0, q2_end = -1.0"),
        # psi = x + a sin(n x) is no circle diffeomorphism once a * n >= 1
        ("exp-circle", "amplitude_1=0.5", "amplitude_1 = 0.5, rotation_order = 3"),
        ("exp-circle", "amplitude_2=0.34", "amplitude_2 = 0.34, rotation_order = 3"),
        # equal amplitudes give one psi twice: two equal fields show no non-injectivity
        ("exp-circle", "n_samples=64 amplitude_1=0.05 amplitude_2=0.05",
         "amplitude_1 = amplitude_2 = 0.05"),
        # a grid size that is no power of two
        ("sobolev-props", "n_samples=100", "n_samples = 100 for sobolev-props"),
        ("exp-circle", "n_samples=100", "n_samples = 100 for exp-circle"),
        # cos(2x) is nan at the ends of a window where 2x overflows
        ("lddmm-flow", "half_width=1e308", "half_width = 1e+308 for lddmm-flow"),
        # a mode at n_samples / 2 aliases: its rows would be false
        ("sobolev-props", "n_samples=8", "k_max = 8, n_samples = 8"),
        ("exp-circle", "n_samples=16 rotation_order=8", "rotation_order = 8, n_samples = 16"),
        # x0 / (1 - x0 t) leaves the window at 1/x0 - 1/half_width, never for x0 <= 0
        ("blowup", "x0=0.1", "x0 = 0.1, t_end = 1.0, half_width = 10000.0"),
        ("blowup", "x0=0", "x0 = 0.0, t_end = 1.0, half_width = 10000.0"),
        ("blowup", "x0=-2", "x0 = -2.0, t_end = 1.0, half_width = 10000.0"),
        # a sawtooth of more teeth than n // 4 has no harmonic on its grid,
        # and a path of one step no interior point
        ("vanishing-l2", "base_samples=8", "base_samples = 8, levels = 3"),
        ("vanishing-l2", "levels=5", "base_samples = 64, levels = 5"),
        ("vanishing-l2", "base_samples=2", "base_samples = 2, levels = 3"),
        ("vanishing-l2", "base_steps=1", "base_steps = 1"),
        # sizes and parameters the library rejects in its own words
        ("grossman", "m=0", "m = 0"),
        ("grossman", "n_min=0", "n_min = 0"),
        ("grossman", "n_max=0", "n_max = 0"),
        ("sphere-bvp", "n_pairs=0", "n_pairs = 0"),
        ("sphere-bvp", "seed=-1", "seed = -1"),
        ("exp-circle", "rotation_order=0", "rotation_order = 0"),
        ("landmark-geodesic", "sigma=0", "sigma = 0.0"),
        ("sobolev-props", "k_max=-1", "k_max = -1"),
    ])
    def test_degenerate_size_is_config_error_that_names_it(self, tmp_path, capsys, name,
                                                           override, message):
        out = tmp_path / "x"
        sets = [arg for pair in override.split() for arg in ("--set", pair)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([name, *sets, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "table.csv").exists()

    @pytest.mark.parametrize("name", list(SMALL_CONFIGS))
    def test_runner_returns_its_outputs_and_writes_nothing(self, tmp_path, monkeypatch, name):
        runner = EXPERIMENTS[name][0]
        config = _assemble_config(name, argparse.Namespace(config=None, set=SMALL_CONFIGS[name]))
        monkeypatch.chdir(tmp_path)
        result = runner(config)
        assert isinstance(result, tuple) and len(result) == 4
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("name", list(SMALL_CONFIGS))
    def test_runner_reads_every_config_key(self, name):
        """A default that the runner never reads would be a key whose setting changes nothing."""
        config = _ReadRecorder(
            _assemble_config(name, argparse.Namespace(config=None, set=SMALL_CONFIGS[name])))
        EXPERIMENTS[name][0](config)
        assert config.read == set(EXPERIMENTS[name][1])

    def test_out_dir_holds_only_the_last_run(self, tmp_path, monkeypatch):
        out = tmp_path / "b"
        args = ["blowup", "--set", "half_width=100.0", "--out", str(out)]
        assert main(args) == 0
        with monkeypatch.context() as patch:
            patch.setattr(diffeo_flows, "MAX_SUBSTEPS", 1)
            assert main(args) == 3  # the step budget runs out: a numerical failure
        assert os.listdir(out) == ["error.txt"]
        assert main(args) == 0
        assert sorted(os.listdir(out)) == ["manifest.txt", "plot.svg", "table.csv"]

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        # a one-step budget cannot reach the window exit
        monkeypatch.setattr(diffeo_flows, "MAX_SUBSTEPS", 1)
        out = str(tmp_path / "x")
        code = main(["blowup", "--out", out])
        assert code == 3
        assert os.path.exists(os.path.join(out, "error.txt"))
        with open(os.path.join(out, "error.txt")) as fh:
            assert "error_type" in fh.read()

    def test_blowup_default(self, tmp_path):
        out = str(tmp_path / "b")
        assert main(["blowup", "--out", out]) == 0
        _, rows = io.read_csv(os.path.join(out, "table.csv"))
        assert abs(rows[0][1] - 0.5) < 1e-3

    def test_blowup_solver_err_within_exit_tol(self, tmp_path):
        """solver_err measures the integrator against the exact window exit, not the window."""
        out = str(tmp_path / "b")
        assert main(["blowup", "--out", out]) == 0
        columns, rows = io.read_csv(os.path.join(out, "table.csv"))
        row = dict(zip(columns, rows[0]))
        assert row["window_exit"] == 1.0 / 2.0 - 1.0 / 10000.0
        assert row["solver_err"] == abs(row["blow_up_time"] - row["window_exit"])
        assert row["solver_err"] <= diffeo_flows.EXIT_TOL
        assert row["abs_err"] == abs(row["blow_up_time"] - row["exact"])

    @pytest.mark.parametrize("name, prefixes", [("blowup", [""]),
                                                ("lddmm-flow", ["forward_", "return_"])])
    def test_flow_manifest_reports_steps(self, tmp_path, name, prefixes):
        out = str(tmp_path / "f")
        sets = [arg for pair in SMALL_CONFIGS[name] for arg in ("--set", pair)]
        assert main([name, *sets, "--out", out]) == 0
        with open(os.path.join(out, "manifest.txt")) as fh:
            comments = dict(line[2:].split(" = ") for line in fh.read().splitlines()
                            if line.startswith("# ") and " = " in line)
        for prefix in prefixes:
            assert int(comments[f"{prefix}steps"]) > 0
            assert int(comments[f"{prefix}rejected"]) >= 0
            assert 0.0 < float(comments[f"{prefix}max_err"])

    def test_landmark_geodesic_against_hamiltonian_reference(self):
        """The length against solve_bvp on the two-landmark Hamiltonian system.

        In u = q1 + q2, r = q1 - q2 the metric is u'^2/(2(1 + k)) + r'^2/(2(1 - k)),
        k = exp(-r^2/2), so H = (1 + k) p_u^2 + (1 - k) p_r^2 and the length over
        t in [0, 1] is sqrt(2H).  The path's midpoint length is second order in n_steps.
        """
        from scipy.integrate import solve_bvp

        def hamilton(t, y):
            u, r, p_u, p_r = y
            k = np.exp(-0.5 * r**2)
            return np.vstack([2 * (1 + k) * p_u, 2 * (1 - k) * p_r, np.zeros_like(u),
                              r * k * (p_u**2 - p_r**2)])

        def ends(y0, y1):  # (q1, q2) from (-2, 2) to (-1, 3)
            return np.array([y0[0], y0[1] + 4.0, y1[0] - 2.0, y1[1] + 4.0])

        t = np.linspace(0.0, 1.0, 11)
        guess = np.vstack([2 * t, np.full_like(t, -4.0), np.ones_like(t), np.zeros_like(t)])
        sol = solve_bvp(hamilton, ends, t, guess, tol=1e-12)
        assert sol.success, sol.message
        u, r, p_u, p_r = sol.y[:, 0]
        k = np.exp(-0.5 * r**2)
        reference = np.sqrt(2 * ((1 + k) * p_u**2 + (1 - k) * p_r**2))

        runner = EXPERIMENTS["landmark-geodesic"][0]
        errors = []
        for n_steps in (16, 32):  # 16 is the default
            config = _assemble_config("landmark-geodesic", argparse.Namespace(
                config=None, set=[f"n_steps={n_steps}"]))
            extras = runner(config)[2]
            assert extras["converged"]
            errors.append(abs(extras["geodesic_length"] - reference))
        assert errors[0] <= 5e-10
        assert abs(errors[0] / errors[1] - 4.0) <= 0.05

    def test_exp_circle_default(self, tmp_path):
        out = str(tmp_path / "e")
        assert main(["exp-circle", "--out", out]) == 0
        columns, rows = io.read_csv(os.path.join(out, "table.csv"))
        row = dict(zip(columns, rows[0]))
        assert abs(row["c"] - np.sqrt(0.75)) < 1e-9
        assert row["conjugation_sup_err"] < 1e-6
        assert row["field_separation"] > 0.01

    def test_exp_circle_nearly_equal_amplitudes_pass_the_separation_gate(self, tmp_path):
        """Fields 6.3e-10 apart are still two fields: the flow errors are about 4e-12."""
        out = str(tmp_path / "e")
        assert main(["exp-circle", "--set", "amplitude_2=0.0500000001", "--out", out]) == 0
        columns, rows = io.read_csv(os.path.join(out, "table.csv"))
        row = dict(zip(columns, rows[0]))
        assert 1e-10 < row["field_separation"] < 1e-9
        assert row["field_separation"] > max(row["flow_err_1"], row["flow_err_2"])

    @pytest.mark.filterwarnings("ignore:At least one element of `rtol` is too small")
    def test_lddmm_flow_forward_map_against_dop853(self):
        """x_forward at the default config against scipy's DOP853 on the same closed-form
        fields, one solve per knot interval; scipy raises rtol 1e-14 to 2.2e-14."""
        from scipy.integrate import solve_ivp

        _, rows, _, _ = EXPERIMENTS["lddmm-flow"][0](dict(EXPERIMENTS["lddmm-flow"][1]))
        x = np.array([r[0] for r in rows])
        fields = [lambda t, y: np.sin(y) * np.exp(-0.1 * y**2),
                  lambda t, y: np.cos(2.0 * y) * np.exp(-0.1 * y**2)]
        for field, span in zip(fields, [(0.0, 0.5), (0.5, 1.0)]):
            x = solve_ivp(field, span, x, method="DOP853", rtol=1e-14, atol=1e-15).y[:, -1]
        assert np.max(np.abs(np.array([r[1] for r in rows]) - x)) <= 5e-11

    def test_lddmm_flow_default(self, tmp_path):
        out = str(tmp_path / "l")
        assert main(["lddmm-flow", "--out", out]) == 0
        columns, rows = io.read_csv(os.path.join(out, "table.csv"))
        errs = [r[columns.index("return_err")] for r in rows]
        assert max(errs) < 1e-6

    def test_lddmm_flow_wide_window_warns_nothing(self, tmp_path):
        """x^2 overflows at the ends of this window, where the fields are checked."""
        args = ["lddmm-flow", "--set", "half_width=1e200", "--set", "n_probe=3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*args, "--out", str(tmp_path / "l")]) == 0

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_sobolev_rows_hold_up_to_the_resolution_bound(self, n):
        # the benchmark's rule: the q <= 1 forms agree, and the q = 2 ratio is its weight
        runner = EXPERIMENTS["sobolev-props"][0]
        _, rows, _, _ = runner({"n_samples": n, "k_max": n // 2 - 1})
        assert len(rows) == 3 * (n // 2)
        for k, q, a, b, ratio, weight in rows:
            if q <= 1:
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (k, q)
            else:
                assert abs(ratio - weight) <= 1e-12 * max(1.0, weight), (k, q)
        # one mode more and the q = 1 forms part, so the runner refuses it
        f = pc.PeriodicFunction.from_callable(lambda th: np.cos(n // 2 * th), n)
        a, b = pc.sobolev_inner_product(f, f, 1), pc.sobolev_inner_product_integer(f, f, 1)
        assert abs(a - b) > 0.5 * abs(a)
        with pytest.raises(io.ConfigError, match="k_max = %d, n_samples = %d" % (n // 2, n)):
            runner({"n_samples": n, "k_max": n // 2})

    def test_run_experiment_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiment("nope", {}, "/tmp/never")


@st.composite
def exp_circle_configs(draw):
    """exp-circle keys from bounded ranges: n_samples 16 to 256, a nonzero
    rotation_order with |rotation_order| < n_samples / 2, amplitudes in [-0.3, 0.3]."""
    n = 2 ** draw(st.integers(4, 8))
    order = draw(st.integers(1, n // 2 - 1)) * draw(st.sampled_from([1, -1]))
    return {"n_samples": n, "rotation_order": order,
            "amplitude_1": draw(st.floats(-0.3, 0.3)), "amplitude_2": draw(st.floats(-0.3, 0.3))}


def _fuzz_run(name, config, check_rows):
    """Run name at config: exit 0 means check_rows holds on the table, exit 2 names a
    config key and exit 3 leaves error.txt."""
    sets = [arg for key, value in config.items() for arg in ("--set", f"{key}={value!r}")]
    stderr = StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(stderr):
        code = main([name, *sets, "--out", out])
        if code == 0:
            columns, rows = io.read_csv(os.path.join(out, "table.csv"))
            check_rows([dict(zip(columns, row)) for row in rows])
        elif code == 2:
            assert any(f"{key} = " in stderr.getvalue() for key in config), stderr.getvalue()
        else:
            assert code == 3 and os.path.exists(os.path.join(out, "error.txt"))


def _check_exp_circle_row(rows):
    (row,) = rows
    assert abs(row["c"] - np.sqrt(0.75)) < 1e-9
    assert max(row["conjugation_sup_err"], row["flow_err_1"], row["flow_err_2"]) < 1e-6
    assert row["field_separation"] > max(row["flow_err_1"], row["flow_err_2"])


def _check_grossman_rows(rows):
    lengths = [row["length"] for row in rows]
    assert all(np.pi < row["length"] <= row["bound"] for row in rows)
    assert all(a > b for a, b in zip(lengths, lengths[1:]))


def _check_sobolev_rows(rows):
    for row in rows:
        a, b, ratio, weight = row["mode_sum"], row["integer_form"], row["ratio"], row["weight"]
        if row["q"] <= 1:
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), row
        else:
            assert abs(ratio - weight) <= 1e-12 * max(1.0, weight), row


class TestConfigFuzz:
    @settings(max_examples=50, deadline=None)
    @given(exp_circle_configs())
    def test_exp_circle_exit_code_says_what_the_row_is(self, config):
        _fuzz_run("exp-circle", config, _check_exp_circle_row)

    @settings(max_examples=50, deadline=None)
    @given(st.fixed_dictionaries({key: st.integers(0, 60) for key in ("m", "n_min", "n_max")}))
    def test_grossman_exit_code_says_what_the_rows_are(self, config):
        _fuzz_run("grossman", config, _check_grossman_rows)

    @settings(max_examples=50, deadline=None)
    @given(st.fixed_dictionaries({"n_samples": st.integers(2, 300),
                                  "k_max": st.integers(-2, 150)}))
    def test_sobolev_props_exit_code_says_what_the_rows_are(self, config):
        _fuzz_run("sobolev-props", config, _check_sobolev_rows)


def _scipy_loaded_by(code):
    """The scipy modules a fresh interpreter holds after running code."""
    probe = "import sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{probe}"], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


class TestImportCost:
    @pytest.mark.parametrize("module", ["shapegeo", "shapegeo.experiments.cli"])
    def test_import_loads_no_scipy(self, module):
        assert _scipy_loaded_by(f"import {module}") == set()

    def _run(self, tmp_path, name):
        sets = [arg for pair in SMALL_CONFIGS[name] for arg in ("--set", pair)]
        argv = [name, *sets, "--out", str(tmp_path / name)]
        return _scipy_loaded_by(
            f"from shapegeo.experiments.cli import main\nassert main({argv!r}) == 0")

    @pytest.mark.parametrize("name", list(SMALL_CONFIGS))
    def test_run_loads_no_scipy(self, tmp_path, name):
        assert self._run(tmp_path, name) == set()
