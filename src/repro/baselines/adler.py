"""Symmetric non-adaptive parallel d-choice in the spirit of [ACMR98].

Adler, Chakrabarti, Mitzenmacher and Rasmussen introduced the parallel
balls-into-bins framework for ``m = n``: each ball picks ``d`` bins up
front (*non-adaptive*), communicates only with those bins, and the
protocol resolves collisions over ``r`` rounds, achieving load
``Theta(log log n / log log log n)`` for constant rounds.

Implementation (the canonical collision protocol of that family):

* each ball samples its ``d`` candidate bins once, up front;
* per round, every unallocated ball requests all its candidates;
* every bin grants one accept per round among the requests it received
  (uniformly at random), provided its load is below ``capacity``;
* a ball with at least one grant commits to a uniformly random granter.

The paper cites this line of work to note that it does **not** extend to
the heavily loaded case: with ``m >> n`` every bin is contacted by many
balls each round, so one grant per bin per round leaves
``m - n`` balls unallocated per round — the protocol needs ``~ m/n``
rounds (experiment T1's "why naive parallelization fails" row).  For
``m = n`` it reproduces the classical behaviour.

``capacity`` defaults to ``ceil(m/n) + slack`` so the protocol remains
complete-able in the heavy regime; the round count then exposes the
linear-in-``m/n`` blowup.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.api.spec import register_allocator
from repro.fastpath.roundstate import RoundState
from repro.fastpath.sampling import sample_choices
from repro.result import AllocationResult
from repro.utils.seeding import RngFactory
from repro.utils.validation import check_positive_int, ensure_m_n
from repro.workloads import bind_workload

__all__ = ["run_parallel_dchoice"]


@register_allocator(
    "dchoice",
    summary="non-adaptive parallel d-choice collision protocol",
    paper_ref="baseline [ACMR98]",
    aliases=("parallel_dchoice", "adler"),
)
def run_parallel_dchoice(
    m: int,
    n: int,
    d: int = 2,
    *,
    seed=None,
    capacity: Optional[int] = None,
    grants_per_round: int = 1,
    max_rounds: int = 100_000,
    workload=None,
) -> AllocationResult:
    """Non-adaptive parallel d-choice collision protocol.

    Parameters
    ----------
    m, n:
        Instance size.
    d:
        Candidate bins per ball, fixed for the whole run (non-adaptive).
    capacity:
        Optional per-bin load cap.  The classical protocol has none (the
        final load *is* the measured quantity); a cap can strand balls
        whose fixed candidates all fill (non-adaptivity), so capped runs
        may return incomplete.
    grants_per_round:
        Accepts a bin may issue per round (1 in the classical protocol).
    max_rounds:
        Abort bound; the result is marked incomplete if hit.
    workload:
        Optional :class:`repro.workloads.Workload` (or spec string):
        candidate bins are drawn from the choice distribution, the
        capacity profile scales the per-bin cap, and ball weights feed
        the weighted-load statistics.  Skewed candidates concentrate
        requests on hot bins, so the one-grant-per-round rule needs
        proportionally more rounds — the measured behaviour.  Uniform
        workloads are bitwise-identical to the historical run.
    """
    m, n = ensure_m_n(m, n)
    d = check_positive_int(d, "d")
    grants_per_round = check_positive_int(grants_per_round, "grants_per_round")
    cap = capacity if capacity is not None else m  # m = effectively unbounded
    factory = RngFactory(seed)
    wl = bind_workload(workload, m, n, factory)
    caps = wl.capacities(cap)
    total_capacity = int(caps.sum()) if isinstance(caps, np.ndarray) else cap * n
    if total_capacity < m:
        raise ValueError(
            f"capacity {cap} cannot hold m={m} balls in n={n} bins"
        )
    rng = factory.stream("adler", "choices")
    grant_rng = factory.stream("adler", "grants")

    if wl.pvals is None:
        candidates = rng.integers(0, n, size=(m, d), dtype=np.int64)
    else:
        candidates = sample_choices(m * d, n, rng, wl.sampler).reshape(m, d)
    state = RoundState(m, n, weights=wl.weights)

    while state.active_count > 0 and state.rounds < max_rounds:
        # Non-adaptive: each ball re-requests its fixed candidate set;
        # each bin grants up to `grants_per_round` (uniformly among
        # requests), never beyond its residual capacity; a ball with
        # several grants commits to the first and the rest are revoked.
        batch = state.sample_contacts(targets=candidates[state.active], d=d)
        per_round_cap = np.minimum(grants_per_round, caps - state.loads)
        decision = state.group_and_accept(batch, per_round_cap, grant_rng)
        state.commit_and_revoke(batch, decision, count_commits=True)

    remaining = state.active_count
    extra: dict = {"capacity": cap, "d": d}
    workload_record = wl.extra_record(state.weighted_loads)
    if workload_record is not None:
        extra["workload"] = workload_record
    return AllocationResult(
        algorithm=f"parallel-dchoice[{d}]",
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
