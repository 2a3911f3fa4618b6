"""Batched multiple-choice allocation in the spirit of [BCE+12].

Berenbrink, Czumaj, Englert, Friedetzky and Nagel study the
*semi-parallel* setting: balls arrive in **batches** of size ``b``; all
balls of a batch run the d-choice rule simultaneously against the load
vector as of the **end of the previous batch** (stale information — no
coordination inside a batch).  One communication round per batch.

This interpolates between the sequential greedy[d] (``b = 1``) and the
fully parallel one-shot d-choice (``b = m``), and is the closest prior
work to a parallel heavy-load algorithm; experiment T1 includes it to
show the gap-vs-rounds trade-off the paper's algorithm escapes.

Vectorization: each batch is one gather (stale loads), one row-argmin
with uniform tie-breaking, and one ``bincount`` update — no per-ball
Python work.
"""

from __future__ import annotations

import numpy as np

from repro.api.spec import register_allocator
from repro.result import AllocationResult
from repro.simulation.metrics import RoundMetrics, RunMetrics
from repro.utils.seeding import RngFactory
from repro.utils.validation import check_positive_int, ensure_m_n

__all__ = ["run_batched_dchoice"]


@register_allocator(
    "batched",
    summary="batched d-choice on stale loads",
    paper_ref="baseline [BCE+12]",
    aliases=("batched_dchoice",),
)
def run_batched_dchoice(
    m: int,
    n: int,
    d: int = 2,
    *,
    batch_size: int | None = None,
    seed=None,
) -> AllocationResult:
    """Batched d-choice: batches of ``batch_size`` balls use stale loads.

    Parameters
    ----------
    m, n:
        Instance size.
    d:
        Choices per ball.
    batch_size:
        Balls per batch (default ``n``, the canonical [BCE+12] setting).
    seed:
        Reproducibility seed.
    """
    m, n = ensure_m_n(m, n)
    d = check_positive_int(d, "d")
    b = check_positive_int(batch_size if batch_size is not None else n, "batch_size")
    factory = RngFactory(seed)
    rng = factory.stream("batched", d)

    loads = np.zeros(n, dtype=np.int64)
    metrics = RunMetrics(m, n)
    total_messages = 0
    round_no = 0

    for start in range(0, m, b):
        count = min(b, m - start)
        choices = rng.integers(0, n, size=(count, d), dtype=np.int64)
        stale = loads[choices].astype(np.float64)
        # Uniform tie-breaking among minimum stale loads via random
        # jitter strictly smaller than 1 (loads are integers).
        jitter = rng.random(size=(count, d))
        pick = np.argmin(stale + jitter * 0.5, axis=1)
        targets = choices[np.arange(count), pick]
        loads += np.bincount(targets, minlength=n)
        total_messages += count * d + count
        metrics.add_round(
            RoundMetrics(
                round_no=round_no,
                unallocated_start=m - start,
                requests_sent=count * d,
                accepts_sent=count,
                rejects_sent=0,
                commits=count,
                unallocated_end=m - start - count,
                max_load=int(loads.max(initial=0)),
            )
        )
        round_no += 1

    return AllocationResult(
        algorithm=f"batched-dchoice[{d},b={b}]",
        m=m,
        n=n,
        loads=loads,
        rounds=round_no,
        metrics=metrics,
        total_messages=total_messages,
        seed_entropy=factory.root_entropy,
        extra={"batch_size": b, "d": d},
    )
