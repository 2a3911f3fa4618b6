"""Stemann's collision protocol [Ste96] adapted to ``m > n``.

Footnote 2 of the paper: Stemann considered ``m > n`` but achieves load
``O(m/n)`` only (a multiplicative constant above the average, versus the
paper's additive ``O(1)``).  The protocol's signature move is the
*collision threshold*: a bin accepts **all** requests it receives in a
round iff their number (plus its load) stays below the collision bound,
else it rejects **all** of them.

Implementation, per round with collision bound ``L``:

* every unallocated ball contacts one uniformly random bin;
* a bin with load ``ℓ`` receiving ``X`` requests accepts all of them if
  ``ℓ + X <= L``, else none;
* accepted balls commit immediately.

With ``L = collision_factor * ceil(m/n)`` the protocol terminates in
``O(log n)`` rounds w.h.p. with max load ``<= L = O(m/n)`` — the
behaviour experiments T1/T2 contrast against ``A_heavy``'s
``m/n + O(1)`` in ``O(log log(m/n))`` rounds.

The round loop is the shared
:class:`~repro.fastpath.roundstate.RoundState` kernels with the
``all_or_nothing`` accept policy.  Because that rule depends only on
the per-bin request *count*, the protocol also has an exact
``"aggregate"`` mode (``O(n)`` per round, multinomial counts) —
identical in distribution to the per-ball run for every per-bin
statistic.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from repro.api.spec import (
    register_allocator,
    register_dynamic,
    register_replicator,
)
from repro.fastpath.roundstate import RoundState
from repro.result import AllocationResult
from repro.utils.seeding import RngFactory
from repro.utils.validation import check_mode, ensure_m_n
from repro.workloads import bind_workload

__all__ = ["dynamic_stemann", "replicate_stemann", "run_stemann"]


@register_allocator(
    "stemann",
    summary="collision protocol with a fixed load bound",
    paper_ref="baseline [Ste96]",
    modes=("perball", "aggregate"),
)
def run_stemann(
    m: int,
    n: int,
    *,
    seed=None,
    mode: Literal["perball", "aggregate"] = "perball",
    collision_factor: float = 2.0,
    max_rounds: int = 100_000,
    workload=None,
) -> AllocationResult:
    """Collision-threshold protocol with bound
    ``L = ceil(collision_factor * ceil(m/n))``.

    Parameters
    ----------
    m, n:
        Instance size.
    seed:
        Reproducibility seed.
    mode:
        ``"perball"`` (explicit choices) or ``"aggregate"`` (per-bin
        multinomial request counts, ``O(n)`` per round; the
        all-or-nothing rule is count-determined, so the two modes are
        identical in law).
    collision_factor:
        Multiplicative headroom above the average load; must be > 1 for
        termination (capacity must exceed ``m``).
    max_rounds:
        Abort bound; result marked incomplete if hit.
    workload:
        Optional :class:`repro.workloads.Workload` (or spec string):
        skewed choice distribution, per-bin collision bounds scaled by
        the capacity profile, weighted-load tracking.  Note that under
        heavy choice skew the all-or-nothing rule can strand balls at
        the hot bins — the measured pathology, not a bug; raise
        ``collision_factor`` or use a proportional capacity profile.
        Uniform workloads are bitwise-identical to the historical run.
    """
    m, n = ensure_m_n(m, n)
    check_mode(mode)
    if collision_factor <= 1.0:
        raise ValueError(
            f"collision_factor must be > 1, got {collision_factor}"
        )
    bound = math.ceil(collision_factor * math.ceil(m / n))
    factory = RngFactory(seed)
    wl = bind_workload(workload, m, n, factory, granularity=mode)
    bounds = wl.capacities(bound)
    rng = factory.stream("stemann", "choices")

    state = RoundState(
        m,
        n,
        granularity=mode,
        weights=wl.weights,
        weight_sum_sampler=wl.weight_sum_sampler,
    )
    while state.active_count > 0 and state.rounds < max_rounds:
        batch = state.sample_contacts(rng, pvals=wl.sampler)
        decision = state.group_and_accept(
            batch, bounds - state.loads, policy="all_or_nothing"
        )
        state.commit_and_revoke(batch, decision, threshold=bound)

    remaining = state.active_count
    extra: dict = {"collision_bound": bound}
    workload_record = wl.extra_record(state.weighted_loads)
    if workload_record is not None:
        extra["workload"] = workload_record
    return AllocationResult(
        algorithm="stemann",
        m=m,
        n=n,
        loads=state.loads,
        rounds=state.rounds,
        metrics=state.metrics,
        total_messages=state.total_messages,
        complete=remaining == 0,
        unallocated=remaining,
        seed_entropy=factory.root_entropy,
        extra=extra,
    )


@register_replicator("stemann")
def replicate_stemann(
    m: int,
    n: int,
    *,
    seed_seqs,
    workload=None,
    collision_factor: float = 2.0,
    max_rounds: int = 100_000,
) -> list[AllocationResult]:
    """Run one seeded collision-protocol replication per ``seed_seqs``
    entry, all in lock-step.

    The all-or-nothing rule is count-determined, so every round is one
    trial-batched kernel call over the ``(T, n)`` occupancy matrix;
    trial ``t`` is bitwise-identical to ``run_stemann(m, n,
    seed=seed_seqs[t], mode="aggregate", ...)``.
    """
    m, n = ensure_m_n(m, n)
    if collision_factor <= 1.0:
        raise ValueError(
            f"collision_factor must be > 1, got {collision_factor}"
        )
    bound = math.ceil(collision_factor * math.ceil(m / n))
    factories = [RngFactory(s) for s in seed_seqs]
    wls = [
        bind_workload(workload, m, n, f, granularity="aggregate")
        for f in factories
    ]
    bounds = wls[0].capacities(bound)
    rngs = [f.stream("stemann", "choices") for f in factories]
    samplers = [w.weight_sum_sampler for w in wls]
    weighted = any(s is not None for s in samplers)

    state = RoundState(
        m,
        n,
        granularity="aggregate",
        trials=len(factories),
        weight_sum_sampler=samplers if weighted else None,
    )
    while state.any_active and state.rounds < max_rounds:
        batch = state.sample_contacts(rngs, pvals=wls[0].sampler)
        decision = state.group_and_accept(
            batch, bounds - state.loads, policy="all_or_nothing"
        )
        state.commit_and_revoke(batch, decision, threshold=bound)

    results = []
    for t, (factory, wl) in enumerate(zip(factories, wls)):
        remaining = int(state.active_counts[t])
        extra: dict = {"collision_bound": bound}
        workload_record = wl.extra_record(
            state.weighted_loads[t]
            if state.weighted_loads is not None
            else None
        )
        if workload_record is not None:
            extra["workload"] = workload_record
        results.append(
            AllocationResult(
                algorithm="stemann",
                m=m,
                n=n,
                loads=state.loads[t],
                rounds=int(state.trial_rounds[t]),
                metrics=state.trial_metrics[t],
                total_messages=int(state.total_messages[t]),
                complete=remaining == 0,
                unallocated=remaining,
                seed_entropy=factory.root_entropy,
                extra=extra,
            )
        )
    return results


@register_dynamic("stemann")
def dynamic_stemann(
    m: int,
    n: int,
    *,
    initial_loads: np.ndarray,
    seed=None,
    workload=None,
    mode: Literal["perball", "aggregate"] = "aggregate",
    collision_factor: float = 2.0,
    max_rounds: int = 100_000,
) -> AllocationResult:
    """Place a cohort of ``m`` new balls under the collision rule.

    The collision bound is computed for the *population* (residents
    plus cohort) — ``L = ceil(collision_factor * ceil(total/n))`` —
    and the cohort runs the all-or-nothing rounds against the
    residents' loads.  A state whose bins are all at or above the
    bound terminates immediately, stranding the cohort, without
    drawing from the stream (the all-saturated guard).  Returns the
    cohort's :class:`~repro.result.AllocationResult` (``loads`` is
    where the cohort landed, ``unallocated`` the stranded balls);
    with all-zero ``initial_loads`` it is :func:`run_stemann` on the
    cohort, stream for stream.
    """
    initial = np.asarray(initial_loads, dtype=np.int64)
    if initial.shape != (n,):
        raise ValueError(
            f"initial_loads must have shape ({n},), got {initial.shape}"
        )
    check_mode(mode)
    if collision_factor <= 1.0:
        raise ValueError(
            f"collision_factor must be > 1, got {collision_factor}"
        )
    if m == 0:
        return AllocationResult("stemann", 0, n, np.zeros(n), rounds=0)
    m, n = ensure_m_n(m, n)
    total = m + int(initial.sum())
    bound = math.ceil(collision_factor * math.ceil(total / n))
    factory = RngFactory(seed)
    wl = bind_workload(workload, m, n, factory, granularity=mode)
    bounds = wl.capacities(bound)
    rng = factory.stream("stemann", "choices")
    state = RoundState(
        m,
        n,
        granularity=mode,
        weights=wl.weights,
        weight_sum_sampler=wl.weight_sum_sampler,
        initial_loads=initial,
    )
    while state.active_count > 0 and state.rounds < max_rounds:
        capacity = bounds - state.loads
        if not np.any(capacity > 0):
            break  # every bin saturated: no draw could ever land
        batch = state.sample_contacts(rng, pvals=wl.sampler)
        decision = state.group_and_accept(
            batch, capacity, policy="all_or_nothing"
        )
        state.commit_and_revoke(batch, decision, threshold=bound)
    remaining = state.active_count
    extra: dict = {"collision_bound": bound}
    workload_record = wl.extra_record(state.weighted_loads)
    if workload_record is not None:
        extra["workload"] = workload_record
    return AllocationResult(
        algorithm="stemann",
        m=m,
        n=n,
        loads=state.placed_loads,
        rounds=state.rounds,
        total_messages=state.total_messages,
        complete=remaining == 0,
        unallocated=remaining,
        seed_entropy=factory.root_entropy,
        extra=extra,
    )
