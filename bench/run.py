"""Run the repository benchmark, one fresh worker process per workload.

    python3 bench/run.py --seed S [--workload NAME] [--seconds T]
                         [--trace 0|1] [--trace-out PATH]

Without ``--workload`` every workload runs, one after another.  Each
metric is printed as ``<workload> <metric> <value> <unit> n=<samples>``,
and the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the traced
pass and reports its per-layer metrics (``--trace-out`` also writes the
Chrome trace).

``setup_s`` is measured from outside the worker: interpreter start,
imports, the warm-up call and the service fill, taken as the median of
``SETUP_RUNS`` separate processes.  The launcher itself imports neither
numpy nor the package, so it adds nothing to a worker's memory.

Times are reported at a reference host speed (``workloads.REF_S``):
each worker times a fixed numpy job through its run and scales its
timings by the ratio, which cancels the host's own speed drift.  The
job's raw median time is printed as a ``reference_kernel`` line.
Exit status is non-zero, with no result line, if any worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 3
#: Per-workload wall-clock budget for all of its worker processes.
WORKLOAD_DEADLINE_S = 170.0
_SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({name: "1" for name in _SINGLE_THREAD})
    started = time.monotonic()
    timeout = deadline - started
    if timeout <= 0:
        raise BenchError("workload deadline passed")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "workloads.py"), *args,
             "--started-at", repr(started)],
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_out: str | None) -> dict:
    """One workload's result; ``setup_s`` joins the end-to-end metrics."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    base = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(_worker(base + ["--setup-only"], deadline)["setup_s"])
    result = _worker(base + (["--trace-out", trace_out] if trace_out else []),
                     deadline)
    if not trace:
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = [statistics.median(setups), "s",
                                        len(setups)]
    return result


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="Chrome-trace JSON path "
                        "(with --trace 1 and one --workload)")
    args = parser.parse_args(argv)
    if args.trace_out and not (args.trace and args.workload):
        parser.error("--trace-out needs --trace 1 and --workload")

    expected = {m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [args.workload] if args.workload else names:
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.trace_out)
        except (BenchError, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        if set(result["metrics"]) != expected:
            print(f"{name}: metrics differ from BENCHMARK.json: "
                  f"{sorted(set(result['metrics']) ^ expected)}",
                  file=sys.stderr)
            return 1
        for metric, (value, unit, samples) in result["metrics"].items():
            print(f"{name} {metric} {value!r} {unit} n={samples}",
                  flush=True)
            key = metric if args.workload else f"{name}.{metric}"
            merged["metrics"][key] = {"value": value, "unit": unit}
        if "ref_s" in result:
            # The raw speed the timings were scaled from; not a metric.
            ref, samples = result["ref_s"]
            print(f"{name} reference_kernel {ref!r} s n={samples}")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
