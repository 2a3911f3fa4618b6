"""The artifact runner's case table: bars, in-run checks, and writes.

``benchmarks/run_benchmarks.py`` runs seven cases and checks their bars
after every case has run.  These tests pin each bar's bound, show that
each bar can fail, that one failing bar neither stops the run nor
hides the other bars, that the runner writes nothing without ``--out``,
and that every in-run correctness check raises on a mismatch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from repro.api import bench

REPO = Path(__file__).resolve().parent.parent

#: Every bar of the table with its bound.
BOUNDS = {
    ("kernels", "heavy[perball] speedup vs engine"): (">=", 5.0),
    ("kernels", "contended grouping fused vs reference"): (">=", 1.5),
    ("kernels", "sharding speedup at 4 workers"): (">=", 3.0),
    ("replication", "heavy trial-batched vs sequential"): (">=", 20.0),
    ("dynamic", "heavy incremental vs full_rerun messages"): (">=", 5.0),
    ("dynamic", "heavy incremental vs full_rerun wall"): (">=", 5.0),
    ("service", "heavy busy ops/s"): (">=", 250_000.0),
    ("service", "heavy worst gap within the SLO"): ("<=", 12.0),
    ("adversarial", "heavy worst-gap degradation"): ("<=", 3.0),
    ("adversarial", "worst baseline degradation"): (">", 10.0),
    ("telemetry", "allocate telemetry on/off"): ("<=", 1.10),
}


def _runner():
    spec = importlib.util.spec_from_file_location(
        "run_benchmarks", REPO / "benchmarks" / "run_benchmarks.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclass creation looks its module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_bar_bounds_and_scopes():
    rb = _runner()
    bars = {(c.name, b.name): b for c in rb.CASES for b in c.bars}
    assert {k: (b.op, b.bound) for k, b in bars.items()} == BOUNDS
    assert [c.name for c in rb.CASES] == [
        "kernels", "workloads", "replication", "dynamic", "service",
        "adversarial", "telemetry",
    ]
    # The engine bar holds at every scale; sharding needs 4 cores.
    every_scale = [k for k, b in bars.items() if b.every_scale]
    assert every_scale == [("kernels", "heavy[perball] speedup vs engine")]
    assert bars[("kernels", "sharding speedup at 4 workers")].min_cpus == 4


def test_judge_skips_with_a_reason():
    rb = _runner()
    bar = rb.Bar("b", lambda records: 2.0, ">=", 3.0, min_cpus=4)
    smoke = rb.judge(bar, [], "smoke", {"cpu_count": 8})
    assert not smoke["enforced"] and "full scale" in smoke["skip_reason"]
    small = rb.judge(bar, [], "full", {"cpu_count": 2})
    assert not small["enforced"] and "2 CPU(s)" in small["skip_reason"]
    big = rb.judge(bar, [], "full", {"cpu_count": 8})
    assert big["enforced"] and big["passed"] is False
    missing = rb.judge(rb.Bar("m", lambda r: None, "<=", 1.0), [], "full",
                       {"cpu_count": 1})
    assert missing["enforced"] and missing["passed"] is False


@pytest.fixture(scope="module")
def failing_run(tmp_path_factory):
    """One smoke run with the engine bar's bound moved out of reach."""
    rb = _runner()
    out = tmp_path_factory.mktemp("artifacts")
    kernels = rb.CASES[0]
    unreachable = dataclasses.replace(kernels.bars[0], bound=1e12)
    cases = (
        dataclasses.replace(kernels, bars=(unreachable,) + kernels.bars[1:]),
    ) + rb.CASES[1:]
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.setattr(rb, "CASES", cases)
        code = rb.main(["--scale", "smoke", "--out", str(out)])
    return rb, code, stdout.getvalue(), out


def test_failing_bar_fails_the_run_after_every_case(failing_run):
    rb, code, stdout, out = failing_run
    assert code == 1
    verdicts = [
        line for line in stdout.splitlines()
        if line.startswith(("PASS ", "FAIL ", "SKIP ("))
    ]
    assert len(verdicts) == len(BOUNDS)
    assert verdicts[0].startswith(
        "FAIL kernels: heavy[perball] speedup vs engine"
    )
    assert sorted(p.name for p in out.iterdir()) == sorted(
        f"BENCH_{c.name}.json" for c in rb.CASES
    )
    for case in rb.CASES:
        payload = json.loads((out / f"BENCH_{case.name}.json").read_text())
        assert set(payload) == {
            "schema", "case", "scale", "host", "records", "bars"
        }
        assert payload["schema"] == 2 and payload["scale"] == "smoke"
        assert set(payload["host"]) == {
            "python", "numpy", "machine", "cpu_count", "git"
        }
        assert all("leg" in r for r in payload["records"])
        for bar in payload["bars"]:
            assert set(bar) == {
                "name", "value", "op", "bound", "enforced",
                "skip_reason", "passed",
            }
    engine = json.loads((out / "BENCH_kernels.json").read_text())["bars"][0]
    assert engine["enforced"] and engine["passed"] is False
    assert engine["bound"] == 1e12


def test_every_bar_can_fail(failing_run):
    rb, _, _, out = failing_run
    for case in rb.CASES:
        records = json.loads(
            (out / f"BENCH_{case.name}.json").read_text()
        )["records"]
        for bar in case.bars:
            value = bar.value(records)
            assert value is not None, (case.name, bar.name)
            beyond = value + 1 if bar.op in (">=", ">") else value - 1
            verdict = rb.judge(
                dataclasses.replace(bar, bound=beyond), records, "full",
                {"cpu_count": 64},
            )
            assert verdict["enforced"], (case.name, bar.name)
            assert verdict["passed"] is False, (case.name, bar.name)


def test_without_out_nothing_is_written(tmp_path, monkeypatch, capsys):
    rb = _runner()
    tiny = rb.Case(
        "tiny",
        sizes={"smoke": dict(m=2_000, n=16, epochs=2)},
        legs=(
            ("service", bench.SERVICE_COLUMNS,
             lambda s: bench.benchmark_service(**s, algorithms=("heavy",))),
        ),
        bars=(
            rb.Bar("heavy worst gap", rb._pick("gap_worst"), "<=", 1e9,
                   every_scale=True),
        ),
    )
    monkeypatch.setattr(rb, "CASES", (tiny,))
    monkeypatch.chdir(tmp_path)
    before = {p: p.stat().st_mtime_ns for p in REPO.glob("BENCH_*.json")}
    assert rb.main(["--scale", "smoke"]) == 0
    assert list(tmp_path.iterdir()) == []
    after = {p: p.stat().st_mtime_ns for p in REPO.glob("BENCH_*.json")}
    assert after == before
    assert "PASS tiny: heavy worst gap" in capsys.readouterr().out


# -- in-run correctness checks raise instead of recording ---------------


def test_sharded_divergence_raises(monkeypatch):
    replicate_mod = importlib.import_module("repro.api.replicate")
    real = replicate_mod.replicate

    def skewed(*args, workers=None, **kwargs):
        rep = real(*args, workers=workers, **kwargs)
        if workers and workers > 1:
            rep.loads[0, 0] += 1
        return rep

    monkeypatch.setattr(replicate_mod, "replicate", skewed)
    with pytest.raises(RuntimeError, match="value-identity"):
        bench.benchmark_sharding(2_000, 16, 4)


def test_chunked_divergence_raises(monkeypatch):
    real = bench.allocate

    def skewed(*args, **kwargs):
        res = real(*args, **kwargs)
        if "chunk_size" in kwargs:
            res.loads[0] += 1
        return res

    monkeypatch.setattr(bench, "allocate", skewed)
    with pytest.raises(RuntimeError, match="unchunked"):
        bench.benchmark_chunked(20_000, 64, 4_096)


def test_telemetry_divergence_raises(monkeypatch):
    from repro.telemetry import current_telemetry

    real = bench.allocate

    def skewed(*args, **kwargs):
        res = real(*args, **kwargs)
        if current_telemetry() is not None:
            res.loads[0] += 1
        return res

    monkeypatch.setattr(bench, "allocate", skewed)
    with pytest.raises(RuntimeError, match="telemetry changed results"):
        bench.benchmark_telemetry(
            2_000, 16, dynamic=(1_000, 16, 1), service=(1_000, 16, 1),
            repeats=1,
        )


def test_span_roundtrip_failure_raises(monkeypatch):
    monkeypatch.setattr(bench, "_telemetry_roundtrip", lambda t: False)
    with pytest.raises(RuntimeError, match="round-trip"):
        bench.benchmark_telemetry(
            2_000, 16, dynamic=(1_000, 16, 1), service=(1_000, 16, 1),
            repeats=1,
        )
