"""Checks of the benchmark itself, on tiny instances (a few seconds).

The workloads are built at small sizes and driven in-process; the
full-size runs belong to ``bench/run.py``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import repro
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SECONDS = 0.2

TINY = {
    "oneshot_perball": lambda: W.oneshot_perball(20_000, 64),
    "replicate_aggregate": lambda: W.replicate_aggregate(5_000, 32, 8),
    "churn_perball": lambda: W.churn_perball(5_000, 32, 4),
    "churn_adversarial": lambda: W.churn_adversarial(5_000, 32, 2),
    "service_stream": lambda: W.ServiceStream(
        n=200, fill=2_000, sat_ops=2_000, rate=2_000.0,
        warm_ops=200,
    ),
}
VALUE_METRICS = ("gap_mean", "rounds_mean", "messages_per_ball")


def _run(name: str, seed: int, trace: bool) -> dict:
    workload = TINY[name]()
    seeds = W.seed_stream(seed)
    state = workload.setup(seeds, traced=trace)
    if trace:
        return workload.traced(seeds, SECONDS, state)
    speed = W.SpeedProbe()
    speed.sample()
    return workload.measure(seeds, SECONDS, state, speed)


@pytest.fixture(scope="module")
def results():
    """Two untraced runs and one traced run per workload, seed 7."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(W, "QUALITY_CALLS", 4)
        for name in TINY:
            out[name] = {
                "plain": [_run(name, 7, False) for _ in range(2)],
                "traced": _run(name, 7, True),
            }
    return out


_INHERITED = object()


def _snapshot():
    return [
        (owner, attr, vars(owner).get(attr, _INHERITED))
        for _, owner, attr, _, _ in layers.targets()
    ]


def test_spec_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)
    assert set(TINY) == set(W.WORKLOADS)


def test_spec_names_and_units_are_valid():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [
        w["name"] for w in SPEC["workloads"]
    ]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_printed_with_its_unit(results, name):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    del units["setup_s"]  # measured by run.py, outside the worker
    del units["peak_rss_mb"]  # added by the worker's main()
    plain = results[name]["plain"][0]
    assert {k: v[1] for k, v in plain["metrics"].items()} == units
    for value, _, samples in plain["metrics"].values():
        assert math.isfinite(value) and value > 0 and samples >= 1
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] >= 1

    layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    traced = results[name]["traced"]
    assert {k: v[1] for k, v in traced["metrics"].items()} == layer_units
    assert all(math.isfinite(v[0]) for v in traced["metrics"].values())


@pytest.mark.parametrize("name", list(TINY))
def test_same_seed_gives_identical_values(results, name):
    first, second = (r["metrics"] for r in results[name]["plain"])
    for metric in VALUE_METRICS:
        assert first[metric] == second[metric]


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_matches_untraced_and_hits_its_layers(results, name):
    traced = results[name]["traced"]
    # ``correct`` includes the traced pass reproducing the untraced
    # pass's gaps, rounds and messages exactly.
    assert traced["correct"] and traced["failed"] == 0
    shares = {k: v[0] for k, v in traced["metrics"].items()}
    used = ["core.loop", "roundstate.sample", "backend.grouped_accept"]
    if name == "service_stream":
        used += ["service.submit", "service.flush", "dynamic.depart"]
    else:
        used += ["api"]
    for layer in used:
        assert shares[f"{layer}.share"] > 0, layer
    assert 0 < shares["bench.coverage"] <= 1


def test_installed_restores_every_attribute_and_keeps_values():
    before = _snapshot()
    plain = repro.allocate("heavy", 20_000, 64, mode="perball", seed=3)
    tracer = layers.Tracer()
    with layers.installed(tracer):
        assert _snapshot() != before
        traced = repro.allocate("heavy", 20_000, 64, mode="perball", seed=3)
    after = _snapshot()
    assert all(a[2] is b[2] for a, b in zip(before, after))
    assert (plain.loads == traced.loads).all()
    assert plain.total_messages == traced.total_messages
    assert {s[1] for s in tracer.spans} >= {"api", "core.loop",
                                           "roundstate.commit"}
    trace = tracer.chrome_trace()["traceEvents"]
    assert len(trace) == len(tracer.spans)


def test_installed_restores_attributes_after_an_error():
    before = _snapshot()
    with pytest.raises(ValueError):
        with layers.installed(layers.Tracer()):
            repro.allocate("heavy", 10, 100)  # m < n: rejected
    assert all(a[2] is b[2] for a, b in zip(before, _snapshot()))


def test_worker_main_writes_no_tracked_file(monkeypatch, capsys):
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("needs a git checkout")
    status = ["git", "status", "--porcelain", "--untracked-files=all"]
    before = subprocess.run(status, cwd=ROOT, capture_output=True,
                            text=True).stdout
    monkeypatch.setattr(W, "QUALITY_CALLS", 2)
    monkeypatch.setitem(W.WORKLOADS, "oneshot_perball",
                        TINY["oneshot_perball"])
    assert W.main(["--workload", "oneshot_perball", "--seed", "1",
                   "--seconds", "0.05"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and "peak_rss_mb" in result["metrics"]
    after = subprocess.run(status, cwd=ROOT, capture_output=True,
                           text=True).stdout
    assert after == before


def test_launcher_fails_without_the_package(tmp_path):
    """With only BENCHMARK.json and bench/, the run must fail, fast and
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    env = {"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oneshot_perball",
         "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
