"""The naive single-choice process: every ball picks one uniform bin.

This is the paper's stated point of comparison: for ``m >= n log n``
the max load is ``m/n + Theta(sqrt((m/n) log n))`` w.h.p. — the
``sqrt``-excess that ``A_heavy`` eliminates.  One round, one message per
ball.

Modes mirror the main algorithm: ``"perball"`` samples explicit choices
(and can return the assignment); ``"aggregate"`` samples the occupancy
vector directly from the multinomial distribution — identical in law,
``O(n)`` memory.
"""

from __future__ import annotations

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

__all__ = [
    "dynamic_single_choice",
    "replicate_single_choice",
    "run_single_choice",
]


@register_allocator(
    "single",
    summary="naive one-shot uniform random allocation",
    paper_ref="baseline",
    aliases=("single_choice", "one_choice"),
    modes=("perball", "aggregate"),
)
def run_single_choice(
    m: int,
    n: int,
    *,
    seed=None,
    mode: Literal["perball", "aggregate"] = "perball",
    workload=None,
) -> AllocationResult:
    """One-shot random allocation.

    Parameters
    ----------
    m, n:
        Instance size (no heaviness requirement).
    seed:
        Reproducibility seed.
    mode:
        ``"perball"`` (explicit choices, per-ball accounting) or
        ``"aggregate"`` (multinomial occupancy, ``O(n)`` memory).
    workload:
        Optional :class:`repro.workloads.Workload` (or spec string):
        the choice distribution replaces the uniform draw and ball
        weights feed the weighted-load statistics.  The process has no
        admission control, so a capacity profile is structurally
        inapplicable (recorded in ``extra["workload"]``).  Uniform
        workloads are bitwise-identical to the historical run.
    """
    m, n = ensure_m_n(m, n)
    check_mode(mode)
    factory = RngFactory(seed)
    bound = bind_workload(workload, m, n, factory, granularity=mode)
    rng = factory.stream("single", "choices")

    # One kernel round with unbounded capacity: every request is
    # accepted, and accepts are implicit (the ball's single message is
    # the commitment), hence accept_cost=0 / no bin->ball records.
    state = RoundState(
        m,
        n,
        granularity=mode,
        track_messages=(mode == "perball"),
        weights=bound.weights,
        weight_sum_sampler=bound.weight_sum_sampler,
    )
    batch = state.sample_contacts(rng, pvals=bound.sampler)
    decision = state.group_and_accept(batch, None)
    state.commit_and_revoke(
        batch, decision, accept_cost=0, record_accepts=False
    )

    extra: dict = {}
    workload_record = bound.extra_record(
        state.weighted_loads,
        inapplicable=(
            ("capacity",) if bound.capacity_scale is not None else ()
        ),
    )
    if workload_record is not None:
        extra["workload"] = workload_record

    return AllocationResult(
        algorithm="single-choice",
        m=m,
        n=n,
        loads=state.loads,
        rounds=1,
        metrics=state.metrics,
        messages=state.counter,
        total_messages=state.total_messages,
        seed_entropy=factory.root_entropy,
        extra=extra,
    )


@register_replicator("single")
def replicate_single_choice(
    m: int,
    n: int,
    *,
    seed_seqs,
    workload=None,
) -> list[AllocationResult]:
    """Run one seeded one-shot allocation per ``seed_seqs`` entry in
    one batched round.

    One trial-batched kernel round — a ``(T, n)`` occupancy matrix
    drawn from per-trial generators — replaces ``T`` sequential runs;
    trial ``t`` is bitwise-identical to ``run_single_choice(m, n,
    seed=seed_seqs[t], mode="aggregate", ...)``.
    """
    m, n = ensure_m_n(m, n)
    factories = [RngFactory(s) for s in seed_seqs]
    bounds = [
        bind_workload(workload, m, n, f, granularity="aggregate")
        for f in factories
    ]
    rngs = [f.stream("single", "choices") for f in factories]
    samplers = [b.weight_sum_sampler for b in bounds]
    weighted = any(s is not None for s in samplers)

    state = RoundState(
        m,
        n,
        granularity="aggregate",
        trials=len(factories),
        weight_sum_sampler=samplers if weighted else None,
    )
    batch = state.sample_contacts(rngs, pvals=bounds[0].sampler)
    decision = state.group_and_accept(batch, None)
    state.commit_and_revoke(
        batch, decision, accept_cost=0, record_accepts=False
    )

    results = []
    for t, (factory, bound) in enumerate(zip(factories, bounds)):
        extra: dict = {}
        workload_record = bound.extra_record(
            state.weighted_loads[t] if state.weighted_loads is not None else None,
            inapplicable=(
                ("capacity",) if bound.capacity_scale is not None else ()
            ),
        )
        if workload_record is not None:
            extra["workload"] = workload_record
        results.append(
            AllocationResult(
                algorithm="single-choice",
                m=m,
                n=n,
                loads=state.loads[t],
                rounds=1,
                metrics=state.trial_metrics[t],
                messages=None,
                total_messages=int(state.total_messages[t]),
                seed_entropy=factory.root_entropy,
                extra=extra,
            )
        )
    return results


@register_dynamic("single")
def dynamic_single_choice(
    m: int,
    n: int,
    *,
    initial_loads: np.ndarray,
    seed=None,
    workload=None,
    mode: Literal["perball", "aggregate"] = "aggregate",
) -> AllocationResult:
    """Place a cohort of ``m`` new balls on top of residual bin loads.

    The one-shot process has no admission control, so residual loads
    only shift where the statistics land: the cohort's contacts are
    drawn exactly as in :func:`run_single_choice`.  Returns the
    cohort's :class:`~repro.result.AllocationResult` (``loads`` is
    where the cohort landed); with all-zero ``initial_loads`` it is
    that run, stream for stream.
    """
    initial = np.asarray(initial_loads, dtype=np.int64)
    if initial.shape != (n,):
        raise ValueError(
            f"initial_loads must have shape ({n},), got {initial.shape}"
        )
    check_mode(mode)
    if m == 0:
        return AllocationResult("single-choice", 0, n, np.zeros(n), rounds=0)
    m, n = ensure_m_n(m, n)
    factory = RngFactory(seed)
    bound = bind_workload(workload, m, n, factory, granularity=mode)
    rng = factory.stream("single", "choices")
    state = RoundState(
        m,
        n,
        granularity=mode,
        weights=bound.weights,
        weight_sum_sampler=bound.weight_sum_sampler,
        initial_loads=initial,
    )
    batch = state.sample_contacts(rng, pvals=bound.sampler)
    decision = state.group_and_accept(batch, None)
    state.commit_and_revoke(
        batch, decision, accept_cost=0, record_accepts=False
    )
    extra: dict = {}
    workload_record = bound.extra_record(
        state.weighted_loads,
        inapplicable=(
            ("capacity",) if bound.capacity_scale is not None else ()
        ),
    )
    if workload_record is not None:
        extra["workload"] = workload_record
    return AllocationResult(
        algorithm="single-choice",
        m=m,
        n=n,
        loads=state.placed_loads,
        rounds=1,
        total_messages=state.total_messages,
        seed_entropy=factory.root_entropy,
        extra=extra,
    )
