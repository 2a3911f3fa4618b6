"""Epoch-level fault injection for the dynamic/service stack.

:class:`repro.core.faulty.FaultModel` describes the regime; this
module executes it at epoch granularity for
:func:`repro.run_dynamic(fault_model=...)` and
:class:`repro.AllocatorService(fault_model=...)`:

* **bin failures** — at each epoch boundary every healthy bin fails
  with ``bin_fail_prob`` and every failed bin recovers with
  ``bin_recover_prob`` (:meth:`FaultState.step`).  A failed bin is
  *quarantined from placement*: the epoch's contact distribution gets
  its mass zeroed and renormalized over the survivors
  (:meth:`FaultState.quarantined`), so new cohorts route around it
  while its residents stay put — a cordoned bin still serves what it
  holds.  The survivors absorb the failed bins' traffic share, which
  inflates the gap; the service's admission controller reads that
  fault-inflated gap and widens/sheds exactly as it would under any
  other overload (graceful degradation, no special-casing).
* **ack loss** — after a cohort places, each placed ball's accept is
  lost with ``loss_prob`` (:func:`place_with_loss`).  The bin keeps
  the reserved slot as a **ghost** for the rest of the epoch (it
  cannot tell a lost ack from a silent ball — the
  :func:`repro.core.faulty.run_heavy_faulty` semantics at epoch
  granularity) while the lost balls retry against the ghost-inflated
  loads.  Ghost reservations expire at the epoch boundary; retries
  that still fail after ``max_retries`` rounds count as unallocated.
  The result is the acked cohort's
  :class:`~repro.result.AllocationResult`, like any placement's.

Determinism: every fault draw is gated on its probability being
strictly positive, and loss retries spawn sub-seeds from the epoch's
placement seed only when loss actually occurred — so the all-zero
:class:`FaultModel` is *bitwise-identical* to ``fault_model=None``
(no extra draw, no extra spawn; pinned by the adversarial
determinism tests).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace
from typing import Callable, Optional

import numpy as np

from repro.core.faulty import FaultModel
from repro.result import AllocationResult
from repro.workloads import Workload

__all__ = ["FaultState", "place_with_loss"]


class FaultState:
    """Mutable fault bookkeeping for one dynamic run or service."""

    def __init__(self, n: int, model: FaultModel) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if not isinstance(model, FaultModel):
            raise TypeError(
                f"fault_model must be a FaultModel, got {type(model).__name__}"
            )
        self.n = n
        self.model = model
        #: Per-bin failure mask (True = quarantined).
        self.failed = np.zeros(n, dtype=bool)
        #: Cumulative lost acks across the run.
        self.lost_acks = 0

    @property
    def failed_count(self) -> int:
        """Currently failed (quarantined) bins."""
        return int(self.failed.sum())

    @property
    def failed_limit(self) -> int:
        """Most bins allowed down at once (always leaves one alive)."""
        return min(self.n - 1, int(self.model.max_failed_frac * self.n))

    def step(self, rng: np.random.Generator) -> None:
        """One epoch boundary: recoveries first, then fresh failures.

        Draws are gated on the probabilities being positive (the
        zero-fault bitwise guarantee) and failures beyond
        :attr:`failed_limit` are suppressed in draw order, so at least
        ``n - failed_limit >= 1`` bins always accept placements.
        """
        model = self.model
        if model.bin_recover_prob > 0:
            down = np.flatnonzero(self.failed)
            if down.size:
                recovered = rng.random(down.size) < model.bin_recover_prob
                self.failed[down[recovered]] = False
        if model.bin_fail_prob > 0:
            up = np.flatnonzero(~self.failed)
            if up.size:
                fails = rng.random(up.size) < model.bin_fail_prob
                allow = max(0, self.failed_limit - self.failed_count)
                chosen = np.flatnonzero(fails)[:allow]
                self.failed[up[chosen]] = True

    def quarantined(
        self, workload: Optional[Workload], n: int
    ) -> Optional[Workload]:
        """The epoch's workload with failed bins' contact mass zeroed.

        With nothing failed this returns ``workload`` unchanged (the
        no-failures-yet path stays bitwise-benign).  Otherwise the
        choice distribution — uniform when ``workload`` is None —
        is masked and renormalized over the surviving bins; weight and
        capacity axes pass through untouched.
        """
        if not self.failed.any():
            return workload
        base = workload.pvals(n) if workload is not None else None
        p = np.full(n, 1.0 / n) if base is None else base.astype(np.float64)
        p = p.copy()
        p[self.failed] = 0.0
        total = p.sum()
        if total <= 0:
            raise RuntimeError(
                "every bin carrying contact mass has failed; nothing "
                "can accept placements"
            )
        p /= total
        if workload is None:
            return Workload.explicit(p)
        return dc_replace(
            workload, choice="explicit", choice_params=(), choice_pvals=p
        )

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "failed_bins": self.failed_count,
            "lost_acks": int(self.lost_acks),
        }


def place_with_loss(
    place_fn: Callable,
    count: int,
    initial: np.ndarray,
    place_seed,
    loss_prob: float,
    rng: Optional[np.random.Generator],
    *,
    max_retries: int = 16,
) -> AllocationResult:
    """Place ``count`` balls under per-ack loss with ghost reservations.

    ``place_fn(count, initial_loads, seed)`` is a dynamic adapter call:
    it returns the cohort's :class:`~repro.result.AllocationResult`.
    The first attempt uses ``place_seed`` verbatim — with
    ``loss_prob = 0`` (when ``rng`` is never drawn from and may be
    None), or a draw of zero losses, the outcome is bitwise the
    lossless placement — and each retry round places the lost balls
    against the ghost-inflated loads with a fresh child spawned from
    ``place_seed`` (spawned only when a retry actually happens).  Lost
    balls still unacked after ``max_retries`` retry rounds count as
    unallocated.

    Returns the *acked* cohort as an :class:`AllocationResult` of
    ``count`` balls: ``loads`` is what joins the resident state, and
    ``extra`` holds ``lost_acks`` and ``ghosts``, the per-bin lost-ack
    reservations (capacity the bins held this epoch for balls that
    never heard; they expire at the epoch boundary, so they never join
    the cohort).
    """
    initial = np.asarray(initial, dtype=np.int64)
    first = place_fn(count, initial, place_seed)
    # Every slot a placement reserved, acked or ghost.
    landed = first.loads.copy()
    delta = first.loads
    unplaced = first.unallocated
    rounds = first.rounds
    messages = first.total_messages
    ghosts = np.zeros_like(initial)
    attempt = 0
    while loss_prob > 0:
        lost_bins = rng.binomial(delta, loss_prob)
        lost = int(lost_bins.sum())
        if lost == 0:
            break
        ghosts += lost_bins
        attempt += 1
        if attempt > max_retries:
            # Give up: the last round's lost balls never hear an ack.
            unplaced += lost
            break
        (retry_seed,) = place_seed.spawn(1)
        nxt = place_fn(lost, initial + landed, retry_seed)
        delta = nxt.loads
        landed += delta
        unplaced += nxt.unallocated
        rounds += nxt.rounds
        messages += nxt.total_messages
    return AllocationResult(
        algorithm=first.algorithm,
        m=count,
        n=initial.size,
        loads=landed - ghosts,
        rounds=rounds,
        total_messages=messages,
        complete=unplaced == 0,
        unallocated=unplaced,
        seed_entropy=first.seed_entropy,
        extra={"lost_acks": int(ghosts.sum()), "ghosts": ghosts},
    )
