"""Degree-d symmetric threshold algorithm — probing the open problem.

The paper's conclusion asks: *"can we provide a faster symmetric
algorithm?"* — and Theorem 2 answers negatively for the uniform-contact
threshold family, even with ``d = O(1)`` contacts per round.  This
module makes the question executable: ``run_heavy_multicontact`` runs
the paper's schedule with each unallocated ball contacting ``d``
uniformly random bins per round (the degree-``d`` member of the
Section 4 family, executed phase-per-round via the shared
``priority_commit`` round kernel of
:mod:`repro.fastpath.roundstate` — the same kernel that powers the
Lemma 2/3 simulations in :mod:`repro.lowerbound.simulate_degree`).

Expected outcome (experiment A3): extra contacts do **not** reduce the
round count below ``Theta(log log(m/n))`` — they only shave lower-order
terms while multiplying message cost by ``d``, exactly the trade-off
the lower bound predicts.  Under tight thresholds the extra contacts
can even *hurt* (accepts consumed by multi-accepted balls), the
quantitative form of the paper's remark that collecting requests "is
not a good strategy for algorithms".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.api.spec import register_allocator
from repro.core.heavy import _fold_light, _light_phase
from repro.core.thresholds import PaperSchedule, ThresholdSchedule
from repro.fastpath.roundstate import RoundState
from repro.light.lw16 import LightConfig
from repro.result import AllocationResult
from repro.utils.seeding import RngFactory
from repro.utils.validation import check_positive_int, ensure_m_n
from repro.workloads import bind_workload

__all__ = ["run_heavy_multicontact"]


@register_allocator(
    "multicontact",
    summary="degree-d threshold algorithm on the paper's schedule",
    paper_ref="extension (experiment A3)",
    aliases=("heavy_multicontact",),
)
def run_heavy_multicontact(
    m: int,
    n: int,
    d: int = 2,
    *,
    seed=None,
    schedule: Optional[ThresholdSchedule] = None,
    stop_factor: float = 2.0,
    handoff: bool = True,
    max_rounds: int = 1024,
    workload=None,
) -> AllocationResult:
    """Run the degree-``d`` threshold algorithm on the paper's schedule.

    Per round: every unallocated ball contacts ``d`` uniform bins; each
    bin accepts up to ``T_i - load`` requests (smallest tie-break marks,
    i.e. a uniformized adversarial port order); balls with several
    accepts commit to one and the rest are revoked at round end.

    ``d = 1`` coincides in distribution with
    :func:`repro.core.heavy.run_heavy`'s phase 1.

    ``workload`` (optional :class:`repro.workloads.Workload` or spec
    string) skews the per-round contact draws, scales the per-bin
    thresholds by the capacity profile, and tracks weighted loads; the
    uniform default is bitwise-identical to the historical run.

    Returns
    -------
    AllocationResult
        ``extra`` carries ``d``, ``phase1_rounds``, ``phase1_remaining``
        and ``phase2_rounds`` (plus ``light_used_fallback`` and
        ``virtual_factor`` after a handoff).
    """
    m, n = ensure_m_n(m, n, require_heavy=True)
    d = check_positive_int(d, "d")
    factory = RngFactory(seed)
    wl = bind_workload(workload, m, n, factory)
    rng = factory.stream("multicontact", d)
    sched = schedule or PaperSchedule(m, n, stop_factor=stop_factor)
    planned = sched.phase1_rounds()
    rounds_budget = planned if planned is not None else max_rounds

    state = RoundState(m, n, weights=wl.weights)

    while state.rounds < rounds_budget and state.active_count > 0:
        threshold = sched.threshold(state.rounds)
        batch = state.sample_contacts(rng, d=d, pvals=wl.sampler)
        # Messages: u*d requests; accepts are bounded by capacity opened
        # this round — count commits plus revoked accepts conservatively
        # as <= u*d responses; we track requests + one accept + one
        # commit per allocated ball (the dominant terms): accept_cost=2.
        decision = state.group_and_accept(
            batch,
            np.maximum(wl.capacities(threshold) - state.loads, 0),
            rng,
            policy="priority_commit",
        )
        state.commit_and_revoke(
            batch, decision, threshold=threshold, accept_cost=2
        )

    rounds = state.rounds
    total_messages = state.total_messages
    unallocated = state.active_count
    extra = {
        "d": d,
        "phase1_rounds": rounds,
        "phase1_remaining": unallocated,
        "phase2_rounds": 0,
    }

    if handoff and unallocated > 0:
        (phase2,) = _light_phase(n, [unallocated], [factory], LightConfig())
        rounds, total_messages = _fold_light(
            phase2, state.loads, state.weighted_loads, bound=wl,
            straggler_ids=state.active, metrics=state.metrics,
            rounds=rounds, messages=total_messages, extra=extra,
        )
        unallocated = 0

    workload_record = wl.extra_record(state.weighted_loads)
    if workload_record is not None:
        extra["workload"] = workload_record

    return AllocationResult(
        algorithm=f"heavy-multicontact[{d}]",
        m=m,
        n=n,
        loads=state.loads,
        rounds=rounds,
        metrics=state.metrics,
        total_messages=total_messages,
        complete=unallocated == 0,
        unallocated=unallocated,
        seed_entropy=factory.root_entropy,
        extra=extra,
    )
