"""Benchmark legs and the one table renderer.

Every ``benchmark_*`` function runs one family of timed legs through a
public entry point (``allocate``, ``replicate``, ``run_dynamic``,
``simulate_service``, the kernel backends) and returns one plain-dict
row per leg run, built where it is measured.  Each row carries its own
``peak_rss_bytes`` (:func:`leg_peak_rss`).  :func:`render` prints any
list of rows as a fixed-width table given its column triples.

The functions back two front ends:

* ``python -m repro bench`` — :func:`benchmark_registry` (and
  :func:`benchmark_replication` under ``--trials``) for any instance
  size, printed with :data:`ALLOCATE_COLUMNS` /
  :data:`REPLICATION_COLUMNS`;
* ``benchmarks/run_benchmarks.py`` — the case table that writes the
  seven checked-in ``BENCH_*.json`` artifacts and checks their bars.

Legs that carry a correctness proof check it in-run and raise
``RuntimeError`` on a mismatch instead of recording a timing: fused ≡
reference (:func:`benchmark_kernels`), telemetry on ≡ off plus the
span-export round-trip (:func:`benchmark_telemetry`), sharded ≡
``workers=1`` (:func:`benchmark_sharding`) and chunked ≡ unchunked
(:func:`benchmark_chunked`).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional, Sequence

from repro.api.dispatch import allocate
from repro.api.spec import (
    AllocatorSpec,
    capability_note,
    capable_allocators,
    get_spec,
    list_allocators,
    resolve_name,
)

__all__ = [
    "ADVERSARIAL_COLUMNS",
    "ALLOCATE_COLUMNS",
    "DYNAMIC_COLUMNS",
    "KERNEL_COLUMNS",
    "REPLICATION_COLUMNS",
    "SERVICE_COLUMNS",
    "SCALING_COLUMNS",
    "TELEMETRY_COLUMNS",
    "benchmark_adversarial",
    "benchmark_allocate",
    "benchmark_chunked",
    "benchmark_dynamic",
    "benchmark_kernels",
    "benchmark_registry",
    "benchmark_replication",
    "benchmark_service",
    "benchmark_sharding",
    "benchmark_telemetry",
    "leg_peak_rss",
    "render",
]


def leg_peak_rss() -> Callable[[], Optional[int]]:
    """Start measuring one leg's peak resident set size.

    Writes ``5`` to ``/proc/self/clear_refs``, which resets the
    process high-water mark ``VmHWM`` to the current RSS; the returned
    reader gives ``VmHWM`` in bytes — the peak since this call.  Where
    the reset is refused (non-Linux) the reader returns ``None``: the
    lifetime mark would report whichever earlier leg peaked highest.

    Freed heap is handed back to the OS first (glibc ``malloc_trim``):
    glibc keeps a finished leg's small-object heap mapped — 1.4 GB
    after the ``m = 10^5`` engine leg — and the reset would count it
    toward every later leg.
    """
    import ctypes

    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):
        pass
    try:
        with open("/proc/self/clear_refs", "w") as refs:
            refs.write("5")
    except OSError:
        return lambda: None
    return _vmhwm_bytes


def _vmhwm_bytes() -> Optional[int]:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    return None


def _best_of(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall seconds for ``fn()`` (min is the right
    statistic for a microbenchmark: noise only ever adds time)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den > 0 else None


def _names(algorithms: Optional[Iterable[str]], capability: str) -> list[str]:
    """The requested algorithms, or every spec with ``capability``."""
    if algorithms is None:
        return capable_allocators(capability)
    return [resolve_name(a) for a in algorithms]


# -- one-shot allocations ---------------------------------------------


def _instance_for(
    spec: AllocatorSpec, m: int, n: int
) -> tuple[int, int, Optional[str]]:
    """Fit the instance to the allocator's own regime, at full ``m``.

    ``light`` requires ``m <= capacity * n`` (Theorem 5); ``dchoice``
    issues one grant per bin per round, so heavy instances need ``~m/n``
    rounds (the point of the baseline, but quadratic wall time).  Both
    therefore benchmark at the requested ``m`` with ``n`` raised to the
    regime's natural ratio — the balls/sec column then compares
    like-with-like across rows instead of implying an orders-of-
    magnitude deficit that was really a toy workload size (the old
    behavior clamped ``m`` down to a few thousand).  The returned note
    records the adjustment; every other allocator takes the requested
    size as-is, note ``None``.
    """
    if spec.name == "light":
        n_run = max(n, -(-m // 2))
        if n_run != n:
            return m, n_run, (
                f"n raised {n}->{n_run}: light regime requires "
                f"m <= 2n, benchmarked at full m for comparable "
                f"balls/sec"
            )
        return m, n, None
    if spec.name == "dchoice":
        n_run = max(n, -(-m // 4))
        if n_run != n:
            return m, n_run, (
                f"n raised {n}->{n_run}: dchoice grants once per bin "
                f"per round (m >> n is quadratic), benchmarked at "
                f"m/n=4 for comparable balls/sec"
            )
        return m, n, None
    return m, n, None


def benchmark_allocate(
    name: str,
    mode: Optional[str],
    m: int,
    n: int,
    seeds: Sequence[int],
    *,
    workload=None,
    scale_note: Optional[str] = None,
) -> dict:
    """Time ``allocate(name, m, n, mode=mode)`` once per pinned seed.

    Wall-time stats aggregate over all seeds; the result stats
    (max_load, gap, rounds, total_messages) are those of the *first*
    seed, so extending the seed list refines the timing without
    changing the recorded outcome.  ``mode="engine"`` on ``heavy`` is
    the object-level reference the kernel speedups are measured
    against.
    """
    if not seeds:
        raise ValueError("need at least one seed to benchmark")
    peak = leg_peak_rss()
    times, first = [], None
    for seed in seeds:
        start = time.perf_counter()
        result = allocate(name, m, n, seed=seed, mode=mode, workload=workload)
        times.append(time.perf_counter() - start)
        if first is None:
            first = result
    mean = sum(times) / len(times)
    return {
        "algorithm": name,
        "mode": mode,
        "m": m,
        "n": n,
        "seeds": len(times),
        "seconds_mean": mean,
        "seconds_min": min(times),
        "balls_per_sec": _ratio(m, mean),
        "max_load": first.max_load,
        "gap": first.gap,
        "rounds": first.rounds,
        "total_messages": first.total_messages,
        "workload": first.extra.get("api", {}).get("workload"),
        "peak_rss_bytes": peak(),
        "scale_note": scale_note,
        "backend": first.extra.get("api", {}).get("backend"),
    }


def benchmark_registry(
    m: int,
    n: int,
    *,
    seeds: Sequence[int] = (0,),
    algorithms: Optional[Iterable[str]] = None,
    include_engine: bool = False,
    include_sequential: bool = False,
    kernel_only: bool = False,
    workload=None,
) -> list[dict]:
    """Time every registered allocator at ``(m, n)`` over pinned seeds.

    One :func:`benchmark_allocate` row per (allocator, mode).

    Parameters
    ----------
    m, n:
        Instance size (fitted per allocator where the algorithm's
        regime demands it, see :func:`_instance_for`).
    seeds:
        Pinned seeds; each (allocator, mode) runs once per seed.
    algorithms:
        Restrict to these registry names/aliases (default: all).
    include_engine:
        Also time ``mode="engine"`` where supported (O(m) Python
        objects — slow; the reference the kernels are measured
        against).
    include_sequential:
        Also time sequential baselines (greedy[d]); off by default
        because their Python-loop cost at large ``m`` dwarfs every
        vectorized path.
    kernel_only:
        Restrict to the specs on the shared round kernels: the
        ``workload_capable`` ones.
    workload:
        Optional workload spec string (or
        :class:`repro.workloads.Workload`) applied to every run.  A
        non-uniform workload restricts the sweep to workload-capable
        allocators and skips engine modes (which accept only the
        uniform workload).

    Every run executes on the resolved kernel backend
    (:func:`~repro.fastpath.backend.use_backend`), whose name lands in
    each row.
    """
    from repro.workloads import as_workload

    wl = as_workload(workload)
    wanted: Optional[set[str]] = None
    if algorithms is not None:
        wanted = {resolve_name(a) for a in algorithms}
    records: list[dict] = []
    for spec in list_allocators():
        if wanted is not None and spec.name not in wanted:
            continue
        if spec.sequential and not include_sequential and wanted is None:
            continue
        if kernel_only and not spec.workload_capable:
            continue
        if wl is not None and not spec.workload_capable:
            if wanted is not None:
                raise ValueError(
                    f"algorithm {spec.name!r} supports the uniform "
                    f"workload only; drop it from --algorithms or the "
                    f"--workload flag"
                )
            continue
        m_run, n_run, note = _instance_for(spec, m, n)
        engine = include_engine and wl is None
        modes = [
            mode for mode in spec.modes if mode != "engine" or engine
        ] if spec.modes else [None]
        for mode in modes:
            records.append(
                benchmark_allocate(
                    spec.name, mode, m_run, n_run, seeds, workload=wl,
                    scale_note=note,
                )
            )
    return records


def benchmark_chunked(m: int, n: int, chunk_size: int) -> list[dict]:
    """Time one chunked, narrowed ``heavy`` per-ball run (seed 0).

    Per-ball tracking is off and contact sampling streams in
    ``chunk_size`` tiles: the configuration that fits ``m = 10^8`` in
    memory.  Up to ``m = 10^6`` the leg also runs the unchunked path and
    raises ``RuntimeError`` unless loads and messages are identical;
    above that the equivalence suites own the claim
    (``equivalent_to_unchunked`` is ``None``).
    """
    from repro.core.heavy import HeavyConfig

    def run(**chunking):
        return allocate(
            "heavy", m, n, seed=0, mode="perball",
            config=HeavyConfig(track_per_ball=False), **chunking,
        )

    peak = leg_peak_rss()
    start = time.perf_counter()
    chunked = run(chunk_size=chunk_size)
    seconds = time.perf_counter() - start
    peak_rss = peak()
    equivalent = None
    if m <= 1_000_000:
        plain = run()
        equivalent = bool(
            (plain.loads == chunked.loads).all()
            and plain.total_messages == chunked.total_messages
        )
        if not equivalent:
            raise RuntimeError(
                "chunked perball run diverged from the unchunked path"
            )
    return [{
        "algorithm": "heavy",
        "mode": "perball",
        "m": m,
        "n": n,
        "chunk_size": chunk_size,
        "track_per_ball": False,
        "seconds": seconds,
        "balls_per_sec": _ratio(m, seconds),
        "gap": chunked.gap,
        "rounds": chunked.rounds,
        "peak_rss_bytes": peak_rss,
        "equivalent_to_unchunked": equivalent,
    }]


# -- trial replication ------------------------------------------------


def benchmark_replication(
    m: int,
    n: int,
    *,
    trials: int,
    seed: int = 0,
    algorithms: Optional[Iterable[str]] = None,
    include_sequential: bool = True,
    workload=None,
) -> list[dict]:
    """Time trial-batched replication against the sequential loop.

    For every ``trial_batched`` spec (or the requested subset), runs
    ``replicate(algorithm, m, n, trials=trials, seed=seed)`` on the
    batched engine and — when ``include_sequential`` — the same
    repetition through ``allocate_many(..., trial_batched=False,
    workers=1)`` at its default mode, the path every repeated-seed
    experiment took before the replication engine existed.  ``speedup``
    is sequential / batched wall time.
    """
    from repro.api.batch import allocate_many
    from repro.api.replicate import replicate
    from repro.fastpath.backend import resolve_backend

    names = _names(algorithms, "trial_batched")
    lacking = [a for a in names if not get_spec(a).trial_batched]
    if lacking:
        # A sequential-vs-sequential timing labelled as a batched
        # speedup would be meaningless; fail loudly instead.
        raise ValueError(
            f"algorithm(s) {', '.join(sorted(lacking))} have no "
            f"trial-batched engine; {capability_note('trial_batched')}"
        )
    backend_name = resolve_backend().name
    records = []
    for name in names:
        peak = leg_peak_rss()
        start = time.perf_counter()
        rep = replicate(
            name, m, n, trials=trials, seed=seed, workload=workload
        )
        batched_seconds = time.perf_counter() - start
        sequential_seconds = speedup = None
        if include_sequential:
            start = time.perf_counter()
            allocate_many(
                name, m, n, repeats=trials, seed=seed, workers=1,
                trial_batched=False, workload=workload,
            )
            sequential_seconds = time.perf_counter() - start
            speedup = _ratio(sequential_seconds, batched_seconds)
        records.append({
            "algorithm": name,
            "m": m,
            "n": n,
            "trials": trials,
            "seed": seed,
            "batched_seconds": batched_seconds,
            "sequential_seconds": sequential_seconds,
            "speedup": speedup,
            "gap_mean": float(rep.gaps.mean()),
            "gap_p99": rep.quantiles("gap", (0.99,))[0.99],
            "rounds_mean": float(rep.rounds.mean()),
            "workload": rep.workload,
            "peak_rss_bytes": peak(),
            "backend": backend_name,
        })
    return records


def benchmark_sharding(m: int, n: int, trials: int) -> list[dict]:
    """Time trial-sharded ``heavy`` replication at 1, 2, 4, 8 workers.

    Every worker count must reproduce the ``workers=1`` loads, gaps and
    messages exactly — ``RuntimeError`` otherwise.  ``peak_rss_bytes``
    is the parent process's; worker processes are not counted.
    """
    from repro.api.replicate import replicate

    records, base = [], None
    for workers in (1, 2, 4, 8):
        peak = leg_peak_rss()
        start = time.perf_counter()
        rep = replicate(
            "heavy", m, n, trials=trials, seed=0, workers=workers
        )
        seconds = time.perf_counter() - start
        if base is None:
            base = (rep, seconds)
        elif not (
            (rep.loads == base[0].loads).all()
            and (rep.gaps == base[0].gaps).all()
            and (rep.total_messages == base[0].total_messages).all()
        ):
            raise RuntimeError(
                f"sharded replication at workers={workers} diverged "
                f"from workers=1 — value-identity violation"
            )
        records.append({
            "algorithm": "heavy",
            "m": m,
            "n": n,
            "trials": trials,
            "workers": workers,
            "seconds": seconds,
            "speedup_vs_1": _ratio(base[1], seconds),
            "value_identical": True,
            "peak_rss_bytes": peak(),
        })
    return records


# -- kernel backends --------------------------------------------------


def benchmark_kernels(
    m: int,
    n: int,
    *,
    seed: int = 0,
    repeats: int = 3,
    end_to_end_m: Optional[int] = None,
) -> list[dict]:
    """Microbenchmark each backend primitive: reference vs fused.

    Generates one pinned-seed request stream of ``m`` draws over ``n``
    bins and runs every primitive on both kernel backends over the
    *identical* arrays:

    * ``grouped_accept`` — the accept grouping, in a *contended*
      regime (capacity below the mean request count, so the fused
      path does real ranking work) and an *uncontended* one (capacity
      above every count — the bincount classification prunes the sort
      entirely);
    * ``priority_commit`` — a degree-2 priority-commit phase
      (accept + segmented commit resolution);
    * ``scatter_counts`` — the dense integer load scatter;
    * ``end_to_end`` — optionally (``end_to_end_m``), a full
      ``allocate("heavy", ..., mode="perball")`` run per backend.

    Outputs are compared bitwise before timing; any divergence raises
    ``RuntimeError``, so a row never times a kernel that changed
    values.
    """
    import numpy as np

    from repro.fastpath.backend import BACKENDS, use_backend

    reference, fused = BACKENDS["reference"], BACKENDS["fused"]
    rng = np.random.default_rng(seed)
    records: list[dict] = []

    def record(kernel, variant, k, ref_fn, fus_fn, same=np.array_equal):
        peak = leg_peak_rss()
        if not same(ref_fn(), fus_fn()):
            raise RuntimeError(
                f"kernel backend mismatch: {kernel}/{variant} at "
                f"m={k}, n={n}, seed={seed} — the fused output is not "
                f"bitwise-identical to reference"
            )
        ref_s = _best_of(ref_fn, repeats)
        fus_s = _best_of(fus_fn, repeats)
        records.append({
            "kernel": kernel,
            "variant": variant,
            "m": k,
            "n": n,
            "repeats": repeats,
            "reference_seconds": ref_s,
            "fused_seconds": fus_s,
            "speedup": _ratio(ref_s, fus_s),
            "bitwise_equal": True,
            "peak_rss_bytes": peak(),
        })

    choices = rng.integers(0, n, size=m, dtype=np.int64)
    priorities = rng.random(m)
    for variant, cap in (
        ("contended", np.full(n, max(1, m // (2 * n)), dtype=np.int64)),
        ("uncontended", np.full(n, m, dtype=np.int64)),
    ):
        record(
            "grouped_accept", variant, m,
            lambda c=cap: reference.grouped_accept_with_priorities(
                choices, c, priorities
            ),
            lambda c=cap: fused.grouped_accept_with_priorities(
                choices, c, priorities
            ),
        )

    # Degree-2 priority-commit phase in the kernels' ball-major layout.
    u = max(1, m // 2)
    pc = (
        rng.integers(0, n, size=2 * u, dtype=np.int64),
        rng.random(2 * u),
        np.repeat(np.arange(u, dtype=np.int64), 2),
        u,
        np.full(n, max(1, u // n), dtype=np.int64),
    )
    record(
        "priority_commit", "degree-2", 2 * u,
        lambda: reference.priority_commit_accept(*pc),
        lambda: fused.priority_commit_accept(*pc),
        lambda a, b: np.array_equal(a[0], b[0])
        and np.array_equal(a[1], b[1]),
    )

    # The scatter mutates in place: each timed call owns a fresh target
    # (an O(n) allocation, negligible against the O(m) scatter).
    def scatter(backend):
        target = np.zeros(n, dtype=np.int64)
        backend.scatter_counts(target, choices)
        return target

    record(
        "scatter_counts", "dense", m,
        lambda: scatter(reference), lambda: scatter(fused),
    )

    if end_to_end_m is not None:
        def e2e(backend_name):
            with use_backend(backend_name):
                return allocate(
                    "heavy", end_to_end_m, n, seed=seed, mode="perball"
                )

        record(
            "end_to_end", "heavy perball", end_to_end_m,
            lambda: e2e("reference"), lambda: e2e("fused"),
            lambda a, b: np.array_equal(a.loads, b.loads)
            and a.max_load == b.max_load
            and a.total_messages == b.total_messages,
        )
    return records


# -- churn, adversaries and the service -------------------------------


def _churn_summary(res) -> dict:
    """Steady-state figures of one dynamic run: means over the churn
    epochs (the epoch-0 fill, paid identically by every regime, is
    reported separately as ``gap_fill``)."""
    churn = slice(1, None) if res.epochs else slice(None)
    return {
        "gap_fill": float(res.gaps[0]),
        "gap_steady_mean": float(res.gaps[churn].mean()),
        "gap_worst": float(res.gaps.max()),
        "messages_per_epoch": (
            float(res.messages[1:].mean()) if res.epochs else 0.0
        ),
        "churn_seconds": res.churn_seconds,
        "complete": res.complete,
    }


def benchmark_dynamic(
    m: int,
    n: int,
    *,
    epochs: int,
    churn: float = 0.1,
    algorithms: Optional[Iterable[str]] = None,
) -> list[dict]:
    """Time incremental rebalancing against the full-rerun oracle.

    For every ``dynamic_capable`` spec (or the requested subset), runs
    the same uniform-churn regime once per strategy on seed 0, so the
    comparison is like for like.  Per-ball granularity is where
    placement work scales with the balls actually moved — the regime
    the incremental-cost claim (churn, not ``m``) is stated in.  The
    incremental row carries ``message_speedup`` and ``wall_speedup``:
    the oracle's churn-epoch cost over its own.
    """
    from repro.dynamic import run_dynamic
    from repro.fastpath.backend import resolve_backend

    records = []
    for name in _names(algorithms, "dynamic_capable"):
        pair = {}
        for rebalance in ("incremental", "full_rerun"):
            peak = leg_peak_rss()
            res = run_dynamic(
                name, m, n, seed=0, epochs=epochs, churn=churn,
                rebalance=rebalance, mode="perball",
            )
            pair[rebalance] = {
                "algorithm": name,
                "rebalance": rebalance,
                "m": m,
                "n": n,
                "epochs": epochs,
                "churn": churn,
                "seed": 0,
                "mode": "perball",
                "backend": resolve_backend().name,
                **_churn_summary(res),
                "churn_messages": res.churn_messages,
                "moved_per_epoch": (
                    float(res.moved[1:].mean()) if epochs else 0.0
                ),
                "fill_messages": int(res.messages[0]),
                "fill_seconds": res.records[0].seconds,
                "peak_rss_bytes": peak(),
            }
        inc, full = pair["incremental"], pair["full_rerun"]
        inc["message_speedup"] = _ratio(
            full["churn_messages"], inc["churn_messages"]
        )
        inc["wall_speedup"] = _ratio(
            full["churn_seconds"], inc["churn_seconds"]
        )
        records += [inc, full]
    return records


def benchmark_adversarial(
    m: int,
    n: int,
    *,
    epochs: int,
    churn: float = 0.1,
    seed: int = 0,
    algorithms: Optional[Iterable[str]] = None,
    fault_model=None,
) -> list[dict]:
    """Run each algorithm benign vs attacked on the same root seed.

    For every ``dynamic_capable`` spec (or the requested subset), runs
    the churn regime twice at aggregate granularity: once with uniform
    departures (the benign control) and once with the gap-maximizing
    ``greedy_adversary``, everything else pinned identical.  An
    optional ``fault_model`` applies to the adversarial leg only, so
    the pair isolates what the degraded regime costs.  The adversarial
    row carries ``degradation``: its worst-epoch gap over the benign
    one (the benign gap floored at 1e-9, so a zero-gap control reads as
    a huge finite ratio).
    """
    from repro.dynamic import run_dynamic

    records = []
    for name in _names(algorithms, "dynamic_capable"):
        for regime, departures, faults in (
            ("benign", "uniform", None),
            ("adversarial", "greedy_adversary", fault_model),
        ):
            peak = leg_peak_rss()
            res = run_dynamic(
                name, m, n, seed=seed, epochs=epochs, churn=churn,
                departures=departures, mode="aggregate",
                fault_model=faults,
            )
            records.append({
                "algorithm": name,
                "regime": regime,
                "departures": departures,
                "m": m,
                "n": n,
                "epochs": epochs,
                "churn": churn,
                "seed": seed,
                "mode": "aggregate",
                **_churn_summary(res),
                "failed_bins_worst": int(res.failed_bins.max()),
                "lost_acks": res.lost_acks,
                "faults": faults.describe() if faults else None,
                "peak_rss_bytes": peak(),
            })
        benign, attacked = records[-2:]
        attacked["degradation"] = attacked["gap_worst"] / max(
            benign["gap_worst"], 1e-9
        )
    return records


def benchmark_service(
    m: int,
    n: int,
    *,
    epochs: int,
    churn: float = 0.1,
    algorithms: Optional[Iterable[str]] = None,
    gap_slo: Optional[float] = None,
) -> list[dict]:
    """Time the continuous service under a bursty open-loop stream.

    For every ``dynamic_capable`` spec (or the requested subset), runs
    :func:`repro.service.simulate_service` once on seed 0.  Two
    throughputs: ``ops_per_sec_busy`` (processed place+release ops per
    second of micro-batch processing — a property of the allocator)
    and ``ops_per_sec_wall`` (the same ops per wall second of the whole
    run, submit path included).  Latency percentiles are in simulated
    seconds; flush percentiles in wall seconds per batch.
    """
    from repro.service import AdmissionPolicy, simulate_service

    policy = None if gap_slo is None else AdmissionPolicy(gap_slo=gap_slo)
    records = []
    for name in _names(algorithms, "dynamic_capable"):
        peak = leg_peak_rss()
        report = simulate_service(
            name, m, n, seed=0, epochs=epochs, churn=churn,
            arrivals="bursty", policy=policy,
        )
        s = report.stats
        records.append({
            "algorithm": report.algorithm,
            "m": m,
            "n": n,
            "epochs": epochs,
            "churn": churn,
            "arrivals": "bursty",
            "seed": 0,
            "gap_slo": gap_slo,
            "batches": s.batches,
            "processed_ops": s.processed_ops,
            "busy_seconds": s.busy_seconds,
            "wall_seconds": report.wall_seconds,
            "ops_per_sec_busy": s.ops_per_sec,
            "ops_per_sec_wall": _ratio(s.processed_ops, report.wall_seconds),
            "latency_p50": s.latency["p50"],
            "latency_p95": s.latency["p95"],
            "latency_p99": s.latency["p99"],
            "shed": s.shed,
            "shed_rate": s.shed_rate,
            "deferred": s.deferred,
            "gap_final": s.gap,
            "gap_worst": s.gap_worst,
            "complete": s.complete,
            "queue_depth_hwm": s.queue_depth_hwm,
            "flush_p50": s.flush_latency["p50"],
            "flush_p95": s.flush_latency["p95"],
            "flush_p99": s.flush_latency["p99"],
            "peak_rss_bytes": peak(),
        })
    return records


# -- telemetry overhead -----------------------------------------------


def _telemetry_roundtrip(telemetry) -> bool:
    """Serialize → parse → structurally validate the span export."""
    import json

    from repro.telemetry import telemetry_to_dict

    payload = json.loads(json.dumps(telemetry_to_dict(telemetry)))
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return False
    for event in events:
        if event.get("ph") not in ("X", "i"):
            return False
        if not isinstance(event.get("name"), str):
            return False
        if not isinstance(event.get("ts"), (int, float)):
            return False
        if event["ph"] == "X" and not isinstance(
            event.get("dur"), (int, float)
        ):
            return False
    return isinstance(payload.get("metrics"), dict)


def benchmark_telemetry(
    m: int,
    n: int,
    *,
    dynamic: tuple[int, int, int],
    service: tuple[int, int, int],
    repeats: int = 3,
) -> list[dict]:
    """Time telemetry-on vs telemetry-off on the instrumented paths.

    Three scenarios on seed 0: a full ``allocate("heavy", m, n)``
    per-ball run (every kernel hook fires), a churn ``run_dynamic`` at
    ``dynamic=(m, n, epochs)`` and an open-loop service run at
    ``service=(m, n, epochs)``.  For each, the off- and on-leg results
    are compared bitwise and the on-leg's span export must round-trip
    through JSON *before* timing; either failure raises
    ``RuntimeError``.  The on-leg timing loop hands each run a fresh
    :class:`~repro.telemetry.Telemetry` so span buffers never amortize
    across repeats.
    """
    import numpy as np

    from repro.dynamic import run_dynamic
    from repro.service import simulate_service
    from repro.telemetry import Telemetry, use_telemetry

    records: list[dict] = []

    def record(scenario, sm, sn, run, same):
        peak = leg_peak_rss()
        off_result = run()
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            on_result = run()
        if not same(off_result, on_result):
            raise RuntimeError(
                f"telemetry changed results: {scenario} at m={sm}, "
                f"n={sn}, seed=0 — the instrumented run is not "
                f"bitwise-identical to the uninstrumented one"
            )
        if not _telemetry_roundtrip(telemetry):
            raise RuntimeError(
                f"telemetry span export of {scenario} did not "
                f"round-trip through JSON as valid trace events"
            )

        def run_on():
            with use_telemetry(Telemetry()):
                run()

        off_s = _best_of(run, repeats)
        on_s = _best_of(run_on, repeats)
        records.append({
            "scenario": scenario,
            "algorithm": "heavy",
            "m": sm,
            "n": sn,
            "seed": 0,
            "repeats": repeats,
            "off_seconds": off_s,
            "on_seconds": on_s,
            "overhead": _ratio(on_s, off_s),
            "bitwise_equal": True,
            "trace_events": len(telemetry.tracer.events),
            "metric_series": len(telemetry.metrics),
            "span_roundtrip": True,
            "peak_rss_bytes": peak(),
        })

    record(
        "allocate", m, n,
        lambda: allocate("heavy", m, n, seed=0, mode="perball"),
        lambda a, b: bool(
            np.array_equal(a.loads, b.loads)
            and a.max_load == b.max_load
            and a.total_messages == b.total_messages
            and a.rounds == b.rounds
        ),
    )
    dm, dn, d_epochs = dynamic
    record(
        "dynamic", dm, dn,
        lambda: run_dynamic(
            "heavy", dm, dn, seed=0, epochs=d_epochs, churn=0.1
        ),
        lambda a, b: bool(
            np.array_equal(a.loads, b.loads)
            and np.array_equal(a.loads_history, b.loads_history)
            and [(r.gap, r.messages, r.moved) for r in a.records]
            == [(r.gap, r.messages, r.moved) for r in b.records]
        ),
    )
    sm, sn, s_epochs = service
    record(
        "service", sm, sn,
        lambda: simulate_service("heavy", sm, sn, seed=0, epochs=s_epochs),
        lambda a, b: bool(
            a.stats.messages == b.stats.messages
            and a.stats.gap == b.stats.gap
            and a.stats.gap_worst == b.stats.gap_worst
            and a.stats.population == b.stats.population
            and a.stats.batches == b.stats.batches
            and [r.gap for r in a.records] == [r.gap for r in b.records]
        ),
    )
    return records


# -- the one table format ---------------------------------------------


def _mib(value: int) -> str:
    return f"{value / 2**20:,.0f}M"


#: ``(header, row key, format)`` triples for :func:`render`; the format
#: is a ``str.format`` template or a callable.
ALLOCATE_COLUMNS = (
    ("algorithm", "algorithm", "{}"),
    ("mode", "mode", "{}"),
    ("backend", "backend", "{}"),
    ("m", "m", "{:,d}"),
    ("n", "n", "{:,d}"),
    ("time", "seconds_mean", "{:.3f}s"),
    ("balls/s", "balls_per_sec", "{:,.0f}"),
    ("gap", "gap", "{:+.1f}"),
    ("rounds", "rounds", "{:d}"),
    ("peak rss", "peak_rss_bytes", _mib),
    ("workload", "workload", "{}"),
)
REPLICATION_COLUMNS = (
    ("algorithm", "algorithm", "{}"),
    ("m", "m", "{:,d}"),
    ("n", "n", "{:,d}"),
    ("trials", "trials", "{:,d}"),
    ("batched", "batched_seconds", "{:.3f}s"),
    ("sequential", "sequential_seconds", "{:.3f}s"),
    ("speedup", "speedup", "{:.1f}x"),
    ("gap mean", "gap_mean", "{:+.2f}"),
    ("peak rss", "peak_rss_bytes", _mib),
)
#: The sharding curve's and the chunked run's rows.
SCALING_COLUMNS = (
    ("algorithm", "algorithm", "{}"),
    ("m", "m", "{:,d}"),
    ("n", "n", "{:,d}"),
    ("trials", "trials", "{:,d}"),
    ("workers", "workers", "{:d}"),
    ("chunk", "chunk_size", "{:,d}"),
    ("time", "seconds", "{:.3f}s"),
    ("speedup", "speedup_vs_1", "{:.2f}x"),
    ("balls/s", "balls_per_sec", "{:,.0f}"),
    ("gap", "gap", "{:+.2f}"),
    ("peak rss", "peak_rss_bytes", _mib),
)
KERNEL_COLUMNS = (
    ("kernel", "kernel", "{}"),
    ("variant", "variant", "{}"),
    ("m", "m", "{:,d}"),
    ("n", "n", "{:,d}"),
    ("reference", "reference_seconds", "{:.4f}s"),
    ("fused", "fused_seconds", "{:.4f}s"),
    ("speedup", "speedup", "{:.1f}x"),
    ("peak rss", "peak_rss_bytes", _mib),
)
DYNAMIC_COLUMNS = (
    ("algorithm", "algorithm", "{}"),
    ("rebalance", "rebalance", "{}"),
    ("m", "m", "{:,d}"),
    ("n", "n", "{:,d}"),
    ("epochs", "epochs", "{:d}"),
    ("churn", "churn", "{:.2f}"),
    ("msg/epoch", "messages_per_epoch", "{:,.0f}"),
    ("moved/ep", "moved_per_epoch", "{:,.0f}"),
    ("churn wall", "churn_seconds", "{:.3f}s"),
    ("gap", "gap_steady_mean", "{:+.2f}"),
    ("msg speedup", "message_speedup", "{:.1f}x"),
    ("wall speedup", "wall_speedup", "{:.1f}x"),
    ("peak rss", "peak_rss_bytes", _mib),
)
ADVERSARIAL_COLUMNS = (
    ("algorithm", "algorithm", "{}"),
    ("regime", "regime", "{}"),
    ("departures", "departures", "{}"),
    ("m", "m", "{:,d}"),
    ("n", "n", "{:,d}"),
    ("fill gap", "gap_fill", "{:+.2f}"),
    ("worst gap", "gap_worst", "{:+.2f}"),
    ("degrade", "degradation", "{:.1f}x"),
    ("msg/epoch", "messages_per_epoch", "{:,.0f}"),
    ("peak rss", "peak_rss_bytes", _mib),
)
SERVICE_COLUMNS = (
    ("algorithm", "algorithm", "{}"),
    ("m", "m", "{:,d}"),
    ("n", "n", "{:,d}"),
    ("batches", "batches", "{:d}"),
    ("busy ops/s", "ops_per_sec_busy", "{:,.0f}"),
    ("wall ops/s", "ops_per_sec_wall", "{:,.0f}"),
    ("p50", "latency_p50", "{:.2f}"),
    ("p95", "latency_p95", "{:.2f}"),
    ("p99", "latency_p99", "{:.2f}"),
    ("q-hwm", "queue_depth_hwm", "{:,d}"),
    ("fl-p99", "flush_p99", lambda s: f"{s * 1e3:.1f}ms"),
    ("shed", "shed", "{:,d}"),
    ("gap", "gap_worst", "{:+.2f}"),
    ("peak rss", "peak_rss_bytes", _mib),
)
TELEMETRY_COLUMNS = (
    ("scenario", "scenario", "{}"),
    ("algorithm", "algorithm", "{}"),
    ("m", "m", "{:,d}"),
    ("n", "n", "{:,d}"),
    ("off", "off_seconds", "{:.4f}s"),
    ("on", "on_seconds", "{:.4f}s"),
    ("overhead", "overhead", "{:.3f}x"),
    ("events", "trace_events", "{:,d}"),
    ("series", "metric_series", "{:,d}"),
    ("peak rss", "peak_rss_bytes", _mib),
)


def render(rows: Sequence[dict], columns: Sequence[tuple]) -> str:
    """The one table format: a header, a rule, one line per row.

    A missing or ``None`` cell shows ``-``, and a column with no value
    in any row is left out.  Text columns (template ``"{}"``) are
    left-aligned, the rest right-aligned.  A row with a ``scale_note``
    is starred in its first column and the note listed under the table.
    """
    columns = [
        col for col in columns
        if not rows or any(r.get(col[1]) is not None for r in rows)
    ]
    table = [[header for header, _, _ in columns]]
    for r in rows:
        line = [
            "-" if r.get(key) is None
            else fmt(r[key]) if callable(fmt) else fmt.format(r[key])
            for _, key, fmt in columns
        ]
        if r.get("scale_note"):
            line[0] += "*"
        table.append(line)
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    lines = [
        " ".join(
            cell.ljust(width) if fmt == "{}" else cell.rjust(width)
            for cell, width, (_, _, fmt) in zip(line, widths, columns)
        ).rstrip()
        for line in table
    ]
    lines.insert(1, "-" * len(lines[0]))
    notes = dict.fromkeys(
        f"* {r[columns[0][1]]}: {r['scale_note']}"
        for r in rows
        if r.get("scale_note")
    )
    return "\n".join(lines + list(notes))
