"""Benchmark + table regeneration for experiment T9 (overload constant).

See the experiment registry (``python -m repro.experiments`` with no
argument) for the experiment's claim and parameters; the quick-scale
table is printed under -s, the full-scale run is archived in
EXPERIMENTS.md.
"""

from conftest import bench_experiment


def test_experiment_t9(benchmark):
    bench_experiment(benchmark, "T9")
