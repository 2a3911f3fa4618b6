"""Fault injection: the threshold algorithm under crashes and message loss.

The paper's model is reliable and synchronous.  A natural robustness
question for a downstream user — and a stress test of the *schedule's*
self-stabilizing structure — is what happens when

* **balls crash**: an unallocated ball vanishes with probability
  ``crash_prob`` at the start of each round (its job is gone; the
  allocation of the survivors should be unaffected), and
* **messages are lost**: each request is dropped with probability
  ``loss_prob`` (the ball just retries next round), and each accept is
  dropped with probability ``loss_prob`` — the insidious case, because
  the bin has *reserved capacity for a ball that never learns of it*
  (a "ghost" slot that is never revoked within the protocol).

Why the schedule tolerates this: thresholds ``T_i`` depend only on the
round index, and the estimate recursion m̃ is an *upper* bound on the
surviving ball count under faults, so capacity stays ahead of demand;
ghost slots waste at most a ``loss_prob`` fraction of each round's
capacity, which the next round's fresh capacity covers.  The measured
effect (tests + experiment) is a modest increase in rounds and a gap
that grows with ``loss_prob`` but stays far below the naive baseline.

This module is an extension beyond the paper (documented as such);
``crash_prob = loss_prob = 0`` reproduces ``run_heavy`` exactly in
distribution.

Beyond the one-shot ``run_heavy_faulty``, the module also owns
:class:`FaultModel` — the declarative fault description the *dynamic*
stack threads through ``repro.run_dynamic(fault_model=...)`` and
``repro.AllocatorService(fault_model=...)``: bins failing and
recovering between epochs (failed bins quarantined from new
placements) and per-ack message loss (the same ghost-slot semantics
as above, at epoch granularity).  See :mod:`repro.dynamic.faults` for
the epoch-level engine and ``docs/dynamic.md`` for semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api.spec import register_allocator
from repro.core.heavy import _fold_light, _light_phase
from repro.core.thresholds import PaperSchedule, ThresholdSchedule
from repro.fastpath.roundstate import AcceptDecision, RoundState
from repro.light.lw16 import LightConfig
from repro.result import AllocationResult
from repro.utils.seeding import RngFactory
from repro.utils.validation import check_probability, ensure_m_n
from repro.workloads import bind_workload

__all__ = ["FaultModel", "parse_faults", "run_heavy_faulty"]


@dataclass(frozen=True)
class FaultModel:
    """A declarative fault regime for the dynamic/service stack.

    Attributes
    ----------
    bin_fail_prob:
        Per-epoch probability that each currently healthy bin fails.
        A failed bin is *quarantined*: it receives no new placements
        (its residents survive — a cordoned bin still serves what it
        holds), so the survivors absorb its traffic share and the gap
        inflates accordingly.
    bin_recover_prob:
        Per-epoch probability that each currently failed bin recovers
        (re-enters the placement pool the same epoch).
    loss_prob:
        Per-ball probability that a placement *ack* is lost.  The bin
        keeps the reserved slot as a ghost for the rest of the epoch
        (it cannot distinguish a lost ack from a silent ball — the
        ``run_heavy_faulty`` semantics at epoch granularity) while the
        ball retries against the ghost-inflated loads.  Ghost
        reservations expire at the epoch boundary.
    max_failed_frac:
        Hard cap on the fraction of simultaneously failed bins; fail
        draws beyond it are suppressed (at least one bin always stays
        alive), so a placement target always exists.

    The all-zero model is *bitwise-identical* to ``fault_model=None``:
    every fault draw is gated on its probability being positive, so a
    zero-probability regime consumes no randomness (pinned by the
    adversarial determinism tests).
    """

    bin_fail_prob: float = 0.0
    bin_recover_prob: float = 0.0
    loss_prob: float = 0.0
    max_failed_frac: float = 0.5

    def __post_init__(self) -> None:
        check_probability(self.bin_fail_prob, "bin_fail_prob")
        check_probability(self.bin_recover_prob, "bin_recover_prob")
        check_probability(self.loss_prob, "loss_prob")
        if not (0.0 <= self.max_failed_frac < 1.0):
            raise ValueError(
                f"max_failed_frac must lie in [0, 1), got "
                f"{self.max_failed_frac}"
            )

    @property
    def is_null(self) -> bool:
        """True when the model injects nothing (≡ ``fault_model=None``)."""
        return (
            self.bin_fail_prob == 0.0
            and self.bin_recover_prob == 0.0
            and self.loss_prob == 0.0
        )

    def describe(self) -> str:
        parts = []
        if self.bin_fail_prob:
            parts.append(
                f"bin_fail={self.bin_fail_prob:g}"
                f"/recover={self.bin_recover_prob:g}"
            )
        if self.loss_prob:
            parts.append(f"loss={self.loss_prob:g}")
        return "+".join(parts) if parts else "none"

    def to_dict(self) -> dict:
        return {
            "bin_fail_prob": self.bin_fail_prob,
            "bin_recover_prob": self.bin_recover_prob,
            "loss_prob": self.loss_prob,
            "max_failed_frac": self.max_failed_frac,
        }


#: CLI spelling aliases for :func:`parse_faults` keys.
_FAULT_KEYS = {
    "bin_fail": "bin_fail_prob",
    "fail": "bin_fail_prob",
    "bin_fail_prob": "bin_fail_prob",
    "recover": "bin_recover_prob",
    "bin_recover": "bin_recover_prob",
    "bin_recover_prob": "bin_recover_prob",
    "loss": "loss_prob",
    "loss_prob": "loss_prob",
    "max_failed": "max_failed_frac",
    "max_failed_frac": "max_failed_frac",
}


def parse_faults(text: Optional[str]) -> Optional[FaultModel]:
    """Parse a ``key=value`` fault spec string into a :class:`FaultModel`.

    Grammar: comma-separated ``key=float`` pairs, e.g.
    ``"bin_fail=0.02,recover=0.5,loss=0.05"``.  Accepted keys:
    ``bin_fail``/``fail``, ``recover``, ``loss``, ``max_failed`` (plus
    their full field-name spellings).  ``None``, ``""`` and ``"none"``
    mean no fault injection.
    """
    if text is None:
        return None
    text = text.strip()
    if not text or text.lower() == "none":
        return None
    kwargs: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad fault spec part {part!r}: expected key=value "
                f"(keys: {', '.join(sorted(set(_FAULT_KEYS)))})"
            )
        key, _, value = part.partition("=")
        field = _FAULT_KEYS.get(key.strip().lower())
        if field is None:
            raise ValueError(
                f"unknown fault key {key.strip()!r}; expected one of "
                f"{', '.join(sorted(set(_FAULT_KEYS)))}"
            )
        try:
            kwargs[field] = float(value)
        except ValueError:
            raise ValueError(
                f"bad fault value {value!r} for key {key.strip()!r}"
            ) from None
    return FaultModel(**kwargs)


@register_allocator(
    "faulty",
    summary="A_heavy phase 1 under ball crashes and message loss",
    paper_ref="extension (experiment A4)",
    aliases=("heavy_faulty",),
    fault_tolerant=True,
)
def run_heavy_faulty(
    m: int,
    n: int,
    *,
    seed=None,
    crash_prob: float = 0.0,
    loss_prob: float = 0.0,
    schedule: Optional[ThresholdSchedule] = None,
    stop_factor: float = 2.0,
    handoff: bool = True,
    extra_rounds: int = 8,
    workload=None,
) -> AllocationResult:
    """Run phase 1 under fault injection, then a reliable handoff.

    Parameters
    ----------
    m, n:
        Instance size (``m >= n``).
    crash_prob:
        Per-round probability that an unallocated ball disappears.
        Crashed balls are reported via ``extra["crashed"]`` and excluded
        from the allocation (``result.m`` still reports the original
        ``m``; ``unallocated`` counts only surviving stragglers).
    loss_prob:
        Per-message drop probability, applied independently to requests
        and accepts.
    schedule:
        Threshold schedule (default: the paper's).
    extra_rounds:
        Additional threshold rounds granted beyond the schedule's phase
        1 (faults slow progress; the schedule is extended by holding the
        final threshold).
    handoff:
        Run the (reliable) ``A_light`` phase on the stragglers, as
        :func:`~repro.core.heavy.run_heavy` does (``extra`` then gains
        ``light_used_fallback`` and ``virtual_factor``).

    workload:
        Optional :class:`repro.workloads.Workload` (or spec string):
        skewed contact draws, per-bin thresholds scaled by the capacity
        profile, weighted-load tracking.  The fault machinery composes
        with it unchanged (crashes and losses act on balls/messages,
        not on the scenario).  Uniform workloads are
        bitwise-identical to the historical run.

    Notes
    -----
    Ghost slots: a lost accept leaves the bin's capacity consumed
    (``ghost_loads``) while the ball retries.  Final loads exclude
    ghosts — a ghost is an empty reservation, not a ball — but
    capacity checks use ``loads + ghosts``, exactly what a real bin
    (which cannot distinguish a lost accept from a silent ball) would
    enforce.
    """
    m, n = ensure_m_n(m, n, require_heavy=True)
    crash_prob = check_probability(crash_prob, "crash_prob")
    loss_prob = check_probability(loss_prob, "loss_prob")
    factory = RngFactory(seed)
    wl = bind_workload(workload, m, n, factory)
    rng = factory.stream("faulty", "choices")
    fault_rng = factory.stream("faulty", "faults")

    sched = schedule or PaperSchedule(m, n, stop_factor=stop_factor)
    planned = sched.phase1_rounds()
    base_rounds = planned if planned is not None else 64
    rounds_budget = base_rounds + extra_rounds

    state = RoundState(m, n, weights=wl.weights)
    ghosts = np.zeros(n, dtype=np.int64)
    crashed = 0

    while state.rounds < rounds_budget and state.active_count > 0:
        # Crashes: balls vanish before sending (protocol-level policy on
        # the shared state's public active set).
        if crash_prob > 0 and state.active_count:
            alive = fault_rng.random(state.active_count) >= crash_prob
            crashed += int(alive.size - alive.sum())
            state.active = state.active[alive]
        u = state.active_count
        if u == 0:
            break
        # Thresholds: schedule value, held at its last level past the
        # planned horizon (the bins keep their final capacity open).
        threshold = sched.threshold(min(state.rounds, base_rounds - 1))
        batch = state.sample_contacts(rng, pvals=wl.sampler)
        # Request loss: only delivered requests reach their bins (and
        # only they are charged as sent).
        if loss_prob > 0:
            delivered = fault_rng.random(u) >= loss_prob
        else:
            delivered = np.ones(u, dtype=bool)
        batch.requests_sent = int(delivered.sum())
        # Capacity: a real bin cannot distinguish a lost accept from a
        # silent ball, so its residual counts ghosts as occupied.
        capacity = np.maximum(wl.capacities(threshold) - state.loads - ghosts, 0)
        decision = state.group_and_accept(
            batch,
            capacity,
            factory.stream("faulty", "acc", state.rounds),
            delivered=delivered,
        )
        accepted = decision.accepted
        # Accept loss: the bin reserved the slot, the ball never hears.
        if loss_prob > 0 and accepted.any():
            heard = fault_rng.random(int(accepted.sum())) >= loss_prob
            acc_idx = np.flatnonzero(accepted)
            ghost_idx = acc_idx[~heard]
            np.add.at(ghosts, batch.choices[ghost_idx], 1)
            accepted[ghost_idx] = False
        state.commit_and_revoke(
            batch,
            AcceptDecision(accepts_sent=int(accepted.sum()), accepted=accepted),
            threshold=threshold,
        )

    rounds = state.rounds
    total_messages = state.total_messages
    unallocated = state.active_count
    extra = {
        "crash_prob": crash_prob,
        "loss_prob": loss_prob,
        "crashed": crashed,
        "ghost_slots": int(ghosts.sum()),
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

    # ``unallocated`` counts surviving stragglers plus crashed balls
    # (both are balls of the original m not present in any bin); a run
    # is complete only when every original ball landed.
    not_placed = unallocated + crashed
    return AllocationResult(
        algorithm=f"heavy-faulty[crash={crash_prob},loss={loss_prob}]",
        m=m,
        n=n,
        loads=state.loads,
        rounds=rounds,
        metrics=state.metrics,
        total_messages=total_messages,
        complete=not_placed == 0,
        unallocated=not_placed,
        seed_entropy=factory.root_entropy,
        extra=extra,
    )
