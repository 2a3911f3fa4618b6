"""The deterministic ``n``-round algorithm (Section 3, success-probability note).

"Balls try all bins one by one, in arbitrary order (which may be
different for each ball); bins use threshold ``ceil(m/n)`` in each
round."  Every ball is allocated within ``n`` rounds *deterministically*:
a bin's fullness is monotone, so a ball rejected by every bin would
imply all bins full — i.e. ``n * ceil(m/n) >= m`` balls placed while one
remains, a contradiction.

The paper invokes this algorithm for the regime ``n < log log(m/n)``
where the w.h.p. guarantees of ``A_heavy`` (stated in terms of ``n``)
are vacuous; see :mod:`repro.core.combined`.

Implementation: ball ``b`` visits bin ``(b + r) mod n`` in round ``r``
(staggered orders spread contention); fully vectorized per round.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.api.spec import register_allocator
from repro.fastpath.roundstate import RoundState
from repro.result import AllocationResult
from repro.utils.seeding import RngFactory
from repro.utils.validation import ensure_m_n
from repro.workloads import bind_workload

__all__ = ["run_trivial"]


@register_allocator(
    "trivial",
    summary="deterministic n-round algorithm, max load ceil(m/n)",
    paper_ref="Section 3",
)
def run_trivial(
    m: int,
    n: int,
    *,
    seed=None,
    threshold: Optional[int] = None,
    workload=None,
) -> AllocationResult:
    """Deterministically allocate with max load ``ceil(m/n)`` in <= n rounds.

    Parameters
    ----------
    m, n:
        Instance size (any ``m >= 1``, ``n >= 1``).
    seed:
        Only used for the bins' arbitrary accept tie-breaking; the
        round/load guarantees are deterministic regardless.
    threshold:
        Override the per-bin cap (default ``ceil(m/n)``).  Must satisfy
        ``threshold * n >= m`` or the run cannot complete.
    workload:
        Optional :class:`repro.workloads.Workload` (or spec string).
        The capacity profile scales the per-bin cap (total capacity
        must still cover ``m``) and ball weights feed the weighted-load
        statistics.  The contact rule is deterministic, so a choice
        distribution is structurally inapplicable (recorded in
        ``extra["workload"]``).  The ``n``-round completion argument
        survives heterogeneous caps: a ball rejected everywhere would
        imply every bin full, i.e. total capacity ``>= m`` balls placed
        while one remains.
    """
    m, n = ensure_m_n(m, n)
    cap = threshold if threshold is not None else math.ceil(m / n)
    factory = RngFactory(seed)
    wl = bind_workload(workload, m, n, factory)
    caps = wl.capacities(cap)
    total_capacity = int(caps.sum()) if isinstance(caps, np.ndarray) else cap * n
    if total_capacity < m:
        raise ValueError(
            f"threshold {cap} gives total capacity {total_capacity} < m={m}"
        )
    accept_rng = factory.stream("trivial", "accept")

    state = RoundState(m, n, weights=wl.weights)
    while state.active_count > 0:
        if state.rounds >= n:  # impossible by the monotonicity argument
            raise RuntimeError(
                "trivial algorithm exceeded n rounds; invariant violated"
            )
        # Protocol policy: ball b deterministically visits bin (b + r)
        # mod n; bins cap at the fixed threshold (workload-scaled).
        targets = (state.active + state.rounds) % n
        batch = state.sample_contacts(targets=targets)
        decision = state.group_and_accept(batch, caps - state.loads, accept_rng)
        state.commit_and_revoke(batch, decision, threshold=cap)

    extra: dict = {"threshold": cap}
    workload_record = wl.extra_record(
        state.weighted_loads,
        inapplicable=(("choice",) if wl.pvals is not None else ()),
    )
    if workload_record is not None:
        extra["workload"] = workload_record

    return AllocationResult(
        algorithm="trivial",
        m=m,
        n=n,
        loads=state.loads,
        rounds=state.rounds,
        metrics=state.metrics,
        total_messages=state.total_messages,
        seed_entropy=factory.root_entropy,
        extra=extra,
    )
