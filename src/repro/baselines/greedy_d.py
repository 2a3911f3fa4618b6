"""The sequential multiple-choice (greedy[d]) process of [ABKU99].

Balls arrive **one at a time**; each samples ``d`` bins uniformly and
independently and joins the least loaded (ties broken uniformly).  For
the heavily loaded case [BCSV06] proved the max load is
``m/n + log log n / log d + O(1)`` w.h.p. — independent of ``m``.  The
paper's contribution is a *parallel* algorithm matching the ``m/n +
O(1)`` quality; this sequential process is the quality yardstick in
experiments T1 and F5.

The process is inherently sequential (each decision depends on all
earlier ones), so no full vectorization is possible.  The implementation
amortizes RNG cost by sampling all ``m x d`` choices up front and runs a
tight Python loop over balls (~1 µs/ball); benchmarks size accordingly.
``d = 1`` degenerates to single-choice and is dispatched to the
vectorized path.
"""

from __future__ import annotations

import numpy as np

from repro.api.spec import register_allocator
from repro.baselines.single_choice import run_single_choice
from repro.result import AllocationResult
from repro.simulation.metrics import RoundMetrics, RunMetrics
from repro.utils.seeding import RngFactory
from repro.utils.validation import check_positive_int, ensure_m_n

__all__ = ["run_greedy_d", "greedy_d_loads"]

#: Sampling block size: choices are drawn in blocks to bound memory at
#: large m without per-ball RNG calls.
_BLOCK = 1 << 18


def greedy_d_loads(
    m: int, n: int, d: int, rng: np.random.Generator
) -> np.ndarray:
    """Core sequential loop; returns the final load vector.

    Ties are broken uniformly among the minimum-loaded choices, as in
    [ABKU99] (the tie-break rule does not affect the asymptotics but
    uniform is the canonical choice).
    """
    loads = np.zeros(n, dtype=np.int64)
    loads_list = loads  # local alias for the loop
    for start in range(0, m, _BLOCK):
        count = min(_BLOCK, m - start)
        block = rng.integers(0, n, size=(count, d))
        tie_break = rng.random(size=(count, d))
        for row in range(count):
            choices = block[row]
            vals = loads_list[choices]
            min_val = vals.min()
            # Uniform tie-break: among minimum entries pick the one with
            # the smallest pre-drawn uniform mark.
            mask = vals == min_val
            if mask.sum() == 1:
                target = choices[int(np.argmax(mask))]
            else:
                marks = np.where(mask, tie_break[row], 2.0)
                target = choices[int(np.argmin(marks))]
            loads_list[target] += 1
    return loads


@register_allocator(
    "greedy",
    summary="sequential greedy[d]: least-loaded of d random bins",
    paper_ref="baseline [ABKU99/BCSV06]",
    aliases=("greedy_d",),
    sequential=True,
)
def run_greedy_d(
    m: int,
    n: int,
    d: int = 2,
    *,
    seed=None,
) -> AllocationResult:
    """Sequential greedy[d] allocation.

    Parameters
    ----------
    m, n:
        Instance size.
    d:
        Number of choices per ball (``d >= 1``; ``d = 1`` is the naive
        process).
    seed:
        Reproducibility seed.

    Notes
    -----
    The result sets ``sequential=True`` and ``rounds=0``: the process
    has no message-round structure comparable to the parallel
    algorithms.  ``total_messages`` counts ``d`` probes plus one commit
    per ball, the standard accounting for the two-choice paradigm.
    """
    m, n = ensure_m_n(m, n)
    d = check_positive_int(d, "d")
    if d == 1:
        result = run_single_choice(m, n, seed=seed, mode="perball")
        result.algorithm = "greedy[1]"
        result.sequential = True
        return result
    factory = RngFactory(seed)
    rng = factory.stream("greedy", d)
    loads = greedy_d_loads(m, n, d, rng)
    metrics = RunMetrics(m, n)
    metrics.add_round(
        RoundMetrics(
            round_no=0,
            unallocated_start=m,
            requests_sent=m * d,
            accepts_sent=m,
            rejects_sent=0,
            commits=m,
            unallocated_end=0,
            max_load=int(loads.max(initial=0)),
        )
    )
    return AllocationResult(
        algorithm=f"greedy[{d}]",
        m=m,
        n=n,
        loads=loads,
        rounds=0,
        metrics=metrics,
        total_messages=m * (d + 1),
        sequential=True,
        seed_entropy=factory.root_entropy,
    )
