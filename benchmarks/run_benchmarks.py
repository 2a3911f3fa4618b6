#!/usr/bin/env python
"""Artifact runner: the seven checked-in ``BENCH_*.json`` cases and their bars.

One table, :data:`CASES`, names every case: its legs (each a benchmark
function from :mod:`repro.api.bench` returning one row per leg run),
its instance sizes per scale, the correctness checks its legs make
in-run (a mismatch raises ``RuntimeError`` before any timing is
recorded) and its acceptance bars.  One loop runs every case, prints
its rows in the one table format, writes one schema-2 artifact per case
and, after every case has run, prints one ``PASS``/``FAIL``/``SKIP``
line per bar::

    python benchmarks/run_benchmarks.py --scale smoke             # seconds
    python benchmarks/run_benchmarks.py --scale full --out .      # refresh

Without ``--out`` nothing is written.  The exit status is 1 when any
enforced bar failed.  Most bars apply at full scale only: the smoke
instances are small enough that fixed per-call overheads, not the
measured axis, dominate the ratios.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import bench  # noqa: E402
from repro.fastpath.backend import use_backend  # noqa: E402

#: Pinned seeds of the one-shot allocation legs.
SEEDS = (0, 1)

_OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt}


@dataclass(frozen=True)
class Bar:
    """An acceptance bar: ``value(records) <op> bound``."""

    name: str
    value: Callable[[list], Optional[float]]
    op: str
    bound: float
    #: Enforced at smoke scale too (otherwise full scale only).
    every_scale: bool = False
    #: Hosts with fewer CPUs record the value but skip the bar.
    min_cpus: int = 1


@dataclass(frozen=True)
class Case:
    """One artifact: ``BENCH_<name>.json``.

    ``sizes`` maps each scale to the parameters the legs read; each leg
    is a ``(name, columns, run)`` triple where ``run(sizes)`` returns
    the leg's rows and ``columns`` is how :func:`repro.api.bench.render`
    prints them.  ``checks`` names the correctness checks the legs make
    in-run.
    """

    name: str
    sizes: dict
    legs: tuple
    checks: tuple = ()
    bars: tuple = ()


def _pick(key: str, **match) -> Callable[[list], Optional[float]]:
    """Bar value: ``key`` of the first row matching every ``match`` item."""

    def value(records):
        for row in records:
            if all(row.get(k) == v for k, v in match.items()):
                return row.get(key)
        return None

    return value


def _engine_speedup(records) -> Optional[float]:
    """heavy[perball] balls/s over the engine's: the per-ball speedup,
    extrapolated because the engine runs at a smaller ``m``."""
    kernel = _pick("balls_per_sec", leg="registry", algorithm="heavy",
                   mode="perball")(records)
    engine = _pick("balls_per_sec", leg="engine")(records)
    return kernel / engine if kernel and engine else None


def _worst_baseline(records) -> Optional[float]:
    return max(
        (r["degradation"] for r in records
         if "degradation" in r and r["algorithm"] != "heavy"),
        default=None,
    )


def _on_reference(benchmark):
    """Run a leg on the reference kernel backend.

    The replication and dynamic bars measure batching and incremental
    placement against the historical per-seed / full-rerun baselines;
    the fused backend speeds those baselines up more than the measured
    path (~2x on the perball loop, far more on the oracle's full-m
    grouping), which would shrink the ratios without the measured path
    getting slower.  Messages are identical under either backend.
    """

    def run(sizes):
        with use_backend("reference"):
            return benchmark(**sizes)

    return run


CASES = (
    Case(
        "kernels",
        sizes={
            "smoke": dict(
                chunked=(200_000, 256, 1 << 16), registry=(20_000, 64),
                engine=(5_000, 64), workers=(20_000, 64, 32),
                trials=(20_000, 64, 64), profile=(20_000, 64),
                profile_large=(100_000, 256), repeats=2,
            ),
            "full": dict(
                chunked=(100_000_000, 1024, 1 << 22),
                registry=(1_000_000, 1024), engine=(100_000, 1024),
                workers=(100_000, 256, 256), trials=(100_000, 256, 10_000),
                profile=(1_000_000, 1024), profile_large=(10_000_000, 1024),
                repeats=3,
            ),
        },
        legs=(
            # First, while the process heap is smallest: at full scale
            # this leg's peak is most of an 8 GiB host's memory.
            ("chunked", bench.SCALING_COLUMNS,
             lambda s: bench.benchmark_chunked(*s["chunked"])),
            ("registry", bench.ALLOCATE_COLUMNS,
             lambda s: bench.benchmark_registry(
                 *s["registry"], seeds=SEEDS, kernel_only=True)),
            # The object engine (O(m) Python objects) runs at a fixed
            # small m at every scale; the bar extrapolates per ball.
            ("engine", bench.ALLOCATE_COLUMNS,
             lambda s: [{
                 **bench.benchmark_allocate(
                     "heavy", "engine", *s["engine"], SEEDS[:1]),
                 "engine_extrapolated": s["engine"] != s["registry"],
             }]),
            ("workers", bench.SCALING_COLUMNS,
             lambda s: bench.benchmark_sharding(*s["workers"])),
            ("trials", bench.REPLICATION_COLUMNS,
             lambda s: bench.benchmark_replication(
                 *s["trials"][:2], trials=s["trials"][2],
                 algorithms=("heavy",), include_sequential=False)),
            ("profile", bench.KERNEL_COLUMNS,
             lambda s: bench.benchmark_kernels(
                 *s["profile"], repeats=s["repeats"],
                 end_to_end_m=s["profile"][0])),
            ("profile_large", bench.KERNEL_COLUMNS,
             lambda s: bench.benchmark_kernels(
                 *s["profile_large"], repeats=s["repeats"])),
        ),
        checks=("fused ≡ reference", "sharded ≡ workers=1",
                "chunked ≡ unchunked (m ≤ 10^6)"),
        bars=(
            Bar("heavy[perball] speedup vs engine", _engine_speedup,
                ">=", 5.0, every_scale=True),
            Bar("contended grouping fused vs reference",
                _pick("speedup", leg="profile_large",
                      kernel="grouped_accept", variant="contended"),
                ">=", 1.5),
            Bar("sharding speedup at 4 workers",
                _pick("speedup_vs_1", leg="workers", workers=4),
                ">=", 3.0, min_cpus=4),
        ),
    ),
    Case(
        "workloads",
        sizes={
            "smoke": dict(m=20_000, n=64),
            "full": dict(m=1_000_000, n=1024),
        },
        legs=(
            ("registry", bench.ALLOCATE_COLUMNS,
             lambda s: bench.benchmark_registry(
                 **s, seeds=SEEDS, algorithms=("heavy", "single", "stemann"),
                 workload="zipf:1.1+geomw:0.5+propcap")),
        ),
    ),
    Case(
        "replication",
        sizes={
            "smoke": dict(m=20_000, n=64, trials=32),
            "full": dict(m=100_000, n=256, trials=256),
        },
        legs=(
            ("replication", bench.REPLICATION_COLUMNS,
             _on_reference(bench.benchmark_replication)),
        ),
        bars=(
            Bar("heavy trial-batched vs sequential",
                _pick("speedup", algorithm="heavy"), ">=", 20.0),
        ),
    ),
    Case(
        "dynamic",
        sizes={
            "smoke": dict(m=20_000, n=64, epochs=8),
            "full": dict(m=100_000, n=256, epochs=32),
        },
        legs=(
            ("dynamic", bench.DYNAMIC_COLUMNS,
             _on_reference(bench.benchmark_dynamic)),
        ),
        bars=(
            Bar("heavy incremental vs full_rerun messages",
                _pick("message_speedup", algorithm="heavy",
                      rebalance="incremental"), ">=", 5.0),
            Bar("heavy incremental vs full_rerun wall",
                _pick("wall_speedup", algorithm="heavy",
                      rebalance="incremental"), ">=", 5.0),
        ),
    ),
    Case(
        "service",
        sizes={
            "smoke": dict(m=20_000, n=64, epochs=6),
            "full": dict(m=100_000, n=10_000, epochs=16),
        },
        legs=(
            ("service", bench.SERVICE_COLUMNS,
             lambda s: bench.benchmark_service(**s, gap_slo=12.0)),
        ),
        bars=(
            Bar("heavy busy ops/s",
                _pick("ops_per_sec_busy", algorithm="heavy"),
                ">=", 250_000.0),
            Bar("heavy worst gap within the SLO",
                _pick("gap_worst", algorithm="heavy"), "<=", 12.0),
        ),
    ),
    Case(
        "adversarial",
        sizes={
            "smoke": dict(m=20_000, n=64, epochs=8),
            "full": dict(m=100_000, n=256, epochs=32),
        },
        legs=(
            ("adversarial", bench.ADVERSARIAL_COLUMNS,
             lambda s: bench.benchmark_adversarial(**s)),
        ),
        bars=(
            Bar("heavy worst-gap degradation",
                _pick("degradation", algorithm="heavy",
                      regime="adversarial"), "<=", 3.0),
            Bar("worst baseline degradation", _worst_baseline, ">", 10.0),
        ),
    ),
    Case(
        "telemetry",
        sizes={
            "smoke": dict(m=20_000, n=64, dynamic=(10_000, 64, 4),
                          service=(10_000, 64, 4), repeats=2),
            "full": dict(m=1_000_000, n=1024, dynamic=(100_000, 256, 16),
                         service=(100_000, 1024, 16), repeats=3),
        },
        legs=(
            ("telemetry", bench.TELEMETRY_COLUMNS,
             lambda s: bench.benchmark_telemetry(**s)),
        ),
        checks=("telemetry on ≡ off", "span export round-trip"),
        bars=(
            Bar("allocate telemetry on/off",
                _pick("overhead", scenario="allocate"), "<=", 1.10),
        ),
    ),
)


def host_info() -> dict:
    """Interpreter, numpy, machine, CPU count and checkout revision."""
    import numpy

    try:
        git = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        git = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git": git,
    }


def judge(bar: Bar, records: list, scale: str, host: dict) -> dict:
    """One ``bars`` entry: the bar's value, and whether it is enforced
    here and passed."""
    value = bar.value(records)
    skip = None
    if not bar.every_scale and scale != "full":
        skip = f"bar applies at full scale only, this run is {scale}"
    elif (host["cpu_count"] or 1) < bar.min_cpus:
        skip = (
            f"host has {host['cpu_count']} CPU(s); process parallelism "
            f"cannot reach the bar below {bar.min_cpus} cores"
        )
    return {
        "name": bar.name,
        "value": value,
        "op": bar.op,
        "bound": bar.bound,
        "enforced": skip is None,
        "skip_reason": skip,
        "passed": value is not None and _OPS[bar.op](value, bar.bound),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("smoke", "full"), default="full")
    parser.add_argument(
        "--out", type=Path,
        help="directory to write BENCH_<case>.json into (default: none)",
    )
    args = parser.parse_args(argv)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    host = host_info()
    verdicts = []
    for case in CASES:
        sizes = case.sizes[args.scale]
        records = []
        for leg, columns, run in case.legs:
            rows = [{"leg": leg, **row} for row in run(sizes)]
            print(f"\n[{case.name}/{leg}]\n{bench.render(rows, columns)}")
            records += rows
        if case.checks:
            print(f"in-run checks passed: {', '.join(case.checks)}")
        bars = [judge(bar, records, args.scale, host) for bar in case.bars]
        verdicts += [(case.name, bar) for bar in bars]
        if args.out is not None:
            path = args.out / f"BENCH_{case.name}.json"
            payload = {
                "schema": 2,
                "case": case.name,
                "scale": args.scale,
                "host": host,
                "records": records,
                "bars": bars,
            }
            path.write_text(json.dumps(payload, indent=2) + "\n")
            print(f"wrote {path}")
    print()
    for case_name, bar in verdicts:
        status = (
            ("PASS" if bar["passed"] else "FAIL") if bar["enforced"]
            else f"SKIP ({bar['skip_reason']})"
        )
        value = "missing" if bar["value"] is None else f"{bar['value']:,.3f}"
        print(
            f"{status} {case_name}: {bar['name']} = {value} "
            f"{bar['op']} {bar['bound']:g}"
        )
    failed = any(bar["enforced"] and not bar["passed"] for _, bar in verdicts)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
