"""Shared helpers for the benchmark harness.

Each experiment benchmark (one file per ``repro.experiments.registry``
entry) does two things:

1. times the underlying computation with pytest-benchmark, and
2. regenerates the experiment's table (quick scale), logging it under
   the ``repro.benchmarks`` namespace so a
   ``pytest benchmarks/ --benchmark-only --log-cli-level=INFO`` run
   reproduces the paper's rows, and asserting the experiment's
   self-check.

Run ``python -m repro.experiments all --scale full`` for the archived
full-scale tables in EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.experiments import run_experiment
from repro.telemetry import get_logger

_log = get_logger("benchmarks.experiments")


def bench_experiment(benchmark, exp_id: str) -> None:
    """Benchmark an experiment at quick scale and assert its self-check."""
    report = benchmark.pedantic(
        run_experiment,
        args=(exp_id,),
        kwargs={"scale": "quick"},
        rounds=1,
        iterations=1,
    )
    _log.info("%s table:\n%s", exp_id, report.render())
    assert report.passed is True, f"{exp_id} self-check failed"
