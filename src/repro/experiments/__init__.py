"""Experiment harness regenerating every quantitative claim of the paper.

The paper (a theory paper) contains no numeric tables or figures; the
experiment set is derived from its theorems and claims — the mapping is
the :data:`~repro.experiments.registry.EXPERIMENTS` table (listed by
``python -m repro.experiments`` with no argument) and each
experiment's docstring cites the claim it reproduces.  Every
experiment returns an
:class:`~repro.experiments.report.ExperimentReport` with prediction and
measurement columns; :mod:`repro.experiments.export` generates an
EXPERIMENTS.md document of one full run on demand.

Run from the command line::

    python -m repro.experiments            # list experiments
    python -m repro.experiments T1         # run one (quick scale)
    python -m repro.experiments all --scale full
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import repeat_gaps, repeat_metric

__all__ = [
    "EXPERIMENTS",
    "ExperimentReport",
    "get_experiment",
    "repeat_gaps",
    "repeat_metric",
    "run_experiment",
]
