"""Experiment runner: named subcommands, flat configs, CSV tables, SVG plots.

The submodules ``cli`` and ``io`` are not imported here, so that
``python -m shapegeo.experiments.cli`` runs ``cli`` once, as ``__main__``.
"""

__all__ = []
