"""The combined algorithm (Section 3, "A Note on Success Probability").

``A_heavy`` succeeds with probability ``1 - n^{-c}`` — vacuous when
``n`` is a small constant.  The paper's fix: when
``n < log log(m/n)``, run the deterministic trivial algorithm instead
(``n`` rounds, perfectly balanced), which is *within the round budget*
in exactly that regime.  The combination succeeds with probability
``1 - o(1)`` over the entire parameter range.

:func:`run_combined` implements the dispatch and records which branch
ran; experiment T8 exercises both sides of the boundary.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.api.spec import (
    register_allocator,
    register_dynamic,
    register_replicator,
)
from repro.core.heavy import (
    HeavyConfig,
    dynamic_heavy,
    replicate_heavy,
    run_heavy,
)
from repro.core.trivial import run_trivial
from repro.result import AllocationResult
from repro.utils.logstar import loglog2
from repro.utils.validation import check_mode, ensure_m_n

__all__ = [
    "dynamic_combined",
    "replicate_combined",
    "run_combined",
    "should_use_trivial",
]


def should_use_trivial(m: int, n: int) -> bool:
    """The paper's dispatch test: ``n < log log(m/n)``.

    In this regime ``n`` rounds fit inside the ``O(log log(m/n))``
    budget and the deterministic algorithm's perfect balance beats any
    probabilistic guarantee that degrades with small ``n``.
    """
    m, n = ensure_m_n(m, n, require_heavy=True)
    return n < loglog2(m / n)


@register_allocator(
    "combined",
    summary="Section 3 dispatcher: trivial for tiny n, else A_heavy",
    paper_ref="Section 3",
    modes=("perball", "aggregate", "engine"),
    config_type=HeavyConfig,
)
def run_combined(
    m: int,
    n: int,
    *,
    seed=None,
    config: Optional[HeavyConfig] = None,
    mode: str = "perball",
    workload=None,
) -> AllocationResult:
    """Run the combined algorithm of Section 3.

    Dispatches to :func:`~repro.core.trivial.run_trivial` when
    ``n < log log(m/n)`` and to :func:`~repro.core.heavy.run_heavy`
    otherwise.  The chosen branch is recorded in
    ``result.extra["branch"]``.  ``workload`` is forwarded to the
    chosen branch (see each branch's docstring for its workload
    semantics; engine mode supports the uniform workload only).
    """
    m, n = ensure_m_n(m, n, require_heavy=True)
    if should_use_trivial(m, n):
        result = run_trivial(m, n, seed=seed, workload=workload)
        result.extra["branch"] = "trivial"
    else:
        result = run_heavy(
            m,
            n,
            seed=seed,
            mode=mode,  # type: ignore[arg-type]
            config=config or HeavyConfig(),
            workload=workload,
        )
        result.extra["branch"] = "heavy"
    result.algorithm = "combined"
    return result


@register_replicator("combined")
def replicate_combined(
    m: int,
    n: int,
    *,
    seed_seqs,
    workload=None,
    config: Optional[HeavyConfig] = None,
) -> list[AllocationResult]:
    """Run one seeded replication of the combined algorithm per
    ``seed_seqs`` entry.

    The Section 3 dispatch test depends only on ``(m, n)``, so every
    trial takes the same branch: tiny ``n`` runs the deterministic
    trivial algorithm once per seed, otherwise the batch delegates
    wholesale to the heavy trial-batched engine.  Trial ``t`` is
    bitwise-identical to ``run_combined(m, n, seed=seed_seqs[t],
    mode="aggregate", ...)``.
    """
    m, n = ensure_m_n(m, n, require_heavy=True)
    if should_use_trivial(m, n):
        results = [
            run_trivial(m, n, seed=seed, workload=workload)
            for seed in seed_seqs
        ]
        branch = "trivial"
    else:
        results = replicate_heavy(
            m,
            n,
            seed_seqs=seed_seqs,
            workload=workload,
            config=config or HeavyConfig(),
        )
        branch = "heavy"
    for result in results:
        result.extra["branch"] = branch
        result.algorithm = "combined"
    return results


def _waterfill(
    initial: np.ndarray, k: int, cap: int
) -> tuple[np.ndarray, int]:
    """Deterministically fill ``k`` balls into the least-loaded bins.

    The dynamic analog of the trivial algorithm: every bin caps at
    ``cap`` and balls go to the lowest bins first (ties broken by bin
    index, so the fill is a pure function of the inputs).  Returns the
    new total loads and the number of balls that did not fit.
    """
    loads = initial.astype(np.int64, copy=True)
    free = np.maximum(cap - loads, 0)
    fits = int(min(k, free.sum()))
    unplaced = k - fits
    if fits == 0:
        return loads, unplaced

    def filled(level: int) -> int:
        # Balls absorbed when the water reaches ``level`` (<= cap, so
        # the per-bin cap never binds below it).
        return int(np.maximum(level - loads, 0).sum())

    # Smallest level whose fill covers the cohort (binary search), then
    # the partial top layer goes to the lowest-indexed bins at it.
    lo, hi = int(loads.min()) + 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if filled(mid) >= fits:
            hi = mid
        else:
            lo = mid + 1
    level = lo
    base = np.maximum(level - 1 - loads, 0)
    new = loads + base
    leftover = fits - int(base.sum())
    if leftover > 0:
        eligible = np.flatnonzero(new == level - 1)
        new[eligible[:leftover]] += 1
    return new, unplaced


@register_dynamic("combined")
def dynamic_combined(
    m: int,
    n: int,
    *,
    initial_loads: np.ndarray,
    seed=None,
    workload=None,
    mode: str = "aggregate",
    config: Optional[HeavyConfig] = None,
    drain_settle: bool = False,
) -> AllocationResult:
    """Place a cohort with the Section 3 dispatch under residual loads.

    The dispatch test runs on the *population* (residents plus
    cohort): for ``n < log log(total/n)`` the deterministic trivial
    analog places the cohort by water-filling the least-loaded bins up
    to ``ceil(total/n)`` (zero randomness, ``<= n`` rounds); otherwise
    the cohort runs the incremental ``A_heavy`` placement
    (:func:`~repro.core.heavy.dynamic_heavy`).  Returns the cohort's
    :class:`~repro.result.AllocationResult`, with the branch taken
    recorded in ``extra["branch"]``.
    """
    initial = np.asarray(initial_loads, dtype=np.int64)
    if initial.shape != (n,):
        raise ValueError(
            f"initial_loads must have shape ({n},), got {initial.shape}"
        )
    check_mode(mode)
    if m == 0:
        return AllocationResult("combined", 0, n, np.zeros(n), rounds=0)
    total = m + int(initial.sum())
    ensure_m_n(total, n, require_heavy=True)
    if should_use_trivial(total, n):
        cap = math.ceil(total / n)
        loads, unplaced = _waterfill(initial, m, cap)
        # Message model: the trivial algorithm is one request per ball
        # per visited bin; the deterministic fill charges the lower
        # bound of one commit message per placed ball.
        return AllocationResult(
            algorithm="combined",
            m=m,
            n=n,
            loads=loads - initial,
            rounds=min(n, m - unplaced),
            total_messages=m - unplaced,
            complete=unplaced == 0,
            unallocated=unplaced,
            extra={"branch": "trivial", "threshold": cap},
        )
    placement = dynamic_heavy(
        m,
        n,
        initial_loads=initial,
        seed=seed,
        workload=workload,
        mode=mode,  # type: ignore[arg-type]
        config=config or HeavyConfig(),
        drain_settle=drain_settle,
    )
    placement.extra["branch"] = "heavy"
    placement.algorithm = "combined"
    return placement
