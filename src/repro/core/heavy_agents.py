"""Object-level (engine-mode) implementation of ``A_heavy``.

This is the reference semantics: explicit :class:`BallAgent` /
:class:`BinAgent` subclasses running on
:class:`repro.simulation.engine.SyncEngine` with symmetric routing and
adversarial port numbering, exactly as the model of Section 3 demands.
The vectorized paths in :mod:`repro.core.heavy` are validated against
this implementation in the test suite.

Engine mode is ``O(m)`` Python objects per round; use for ``m`` up to
~10^5.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.heavy import _append_rows
from repro.core.thresholds import PaperSchedule, ThresholdSchedule
from repro.light.lw16 import tower_schedule
from repro.light.virtual import VirtualBinMap
from repro.result import AllocationResult
from repro.simulation.agents import BallAgent, BinAgent
from repro.simulation.engine import EngineConfig, SyncEngine
from repro.simulation.messages import Message, MessageKind
from repro.utils.logstar import log_star
from repro.utils.seeding import RngFactory
from repro.utils.validation import ensure_m_n

__all__ = [
    "ThresholdBallAgent",
    "ThresholdBinAgent",
    "LightBallAgent",
    "LightBinAgent",
    "run_heavy_engine",
    "run_light_engine",
]


class ThresholdBallAgent(BallAgent):
    """Phase-1 ball: one uniform request per round; commit on accept."""

    def choose_requests(self, round_no: int, n_bins: int) -> Sequence[int]:
        return [int(self.rng.integers(0, n_bins))]

    def receive_replies(
        self, round_no: int, replies: Sequence[Message]
    ) -> Optional[int]:
        for msg in replies:
            if msg.kind is MessageKind.ACCEPT:
                return msg.bin
        return None


class ThresholdBinAgent(BinAgent):
    """Phase-1 bin: accepts up to ``T_i - load`` requests in port order.

    Port order is adversarially shuffled by the engine, so accepting a
    prefix is the paper's "chosen arbitrarily among all received
    requests".
    """

    def __init__(
        self, index: int, rng: np.random.Generator, schedule: ThresholdSchedule
    ) -> None:
        super().__init__(index, rng)
        self.schedule = schedule
        self._current_threshold = 0

    def on_round_start(self, round_no: int) -> None:
        self._current_threshold = self.schedule.threshold(round_no)

    def respond(
        self, round_no: int, requests: Sequence[Message]
    ) -> Sequence[int]:
        capacity = max(0, self._current_threshold - self.load)
        return list(range(min(capacity, len(requests))))


class LightBallAgent(BallAgent):
    """Phase-2 ball: contacts ``k_r`` bins on the tower schedule.

    The round counter is local to the phase (the agent counts its own
    active rounds), so the agent works regardless of the engine's global
    round numbering.
    """

    def __init__(
        self, index: int, rng: np.random.Generator, *, max_contacts: int = 64
    ) -> None:
        super().__init__(index, rng)
        self.max_contacts = max_contacts
        self._phase_round = 0

    def choose_requests(self, round_no: int, n_bins: int) -> Sequence[int]:
        k = tower_schedule(self._phase_round, min(self.max_contacts, n_bins))
        self._phase_round += 1
        return [int(b) for b in self.rng.integers(0, n_bins, size=k)]

    def receive_replies(
        self, round_no: int, replies: Sequence[Message]
    ) -> Optional[int]:
        accepts = [m.bin for m in replies if m.kind is MessageKind.ACCEPT]
        if accepts:
            return int(accepts[int(self.rng.integers(0, len(accepts)))])
        return None


class LightBinAgent(BinAgent):
    """Phase-2 bin: residual capacity ``cap - load`` accepts per round."""

    def __init__(
        self, index: int, rng: np.random.Generator, capacity: int = 2
    ) -> None:
        super().__init__(index, rng)
        self.capacity = capacity

    def respond(
        self, round_no: int, requests: Sequence[Message]
    ) -> Sequence[int]:
        residual = max(0, self.capacity - self.load)
        return list(range(min(residual, len(requests))))


def _make_engine(
    n_balls: int,
    n_bins: int,
    factory: RngFactory,
    ball_ctor,
    bin_ctor,
    *,
    max_rounds: int,
) -> SyncEngine:
    balls = [ball_ctor(i, factory.stream("ball", i)) for i in range(n_balls)]
    bins = [bin_ctor(j, factory.stream("bin", j)) for j in range(n_bins)]
    return SyncEngine(
        balls,
        bins,
        config=EngineConfig(symmetric=True, max_rounds=max_rounds),
        rng_factory=factory.child_factory("engine"),
    )


def run_light_engine(
    n_balls: int,
    n_bins: int,
    *,
    seed=None,
    capacity: int = 2,
    max_rounds: Optional[int] = None,
):
    """Engine-mode ``A_light`` on its own bin space; returns the raw
    :class:`~repro.simulation.engine.EngineOutcome`."""
    factory = RngFactory(seed)
    budget = max_rounds if max_rounds is not None else log_star(n_bins) + 10
    engine = _make_engine(
        n_balls,
        n_bins,
        factory,
        lambda i, rng: LightBallAgent(i, rng),
        lambda j, rng: LightBinAgent(j, rng, capacity=capacity),
        max_rounds=budget,
    )
    return engine.run()


def run_heavy_engine(
    m: int,
    n: int,
    *,
    seed=None,
    config=None,
    schedule: Optional[ThresholdSchedule] = None,
    handoff: bool = True,
) -> AllocationResult:
    """Engine-mode ``A_heavy``: phase 1 threshold agents, then phase 2
    light agents over virtual bins, each on a fresh engine.

    The phase split mirrors the vectorized implementation so the two can
    be compared round-for-round.
    """
    from repro.core.heavy import HeavyConfig  # local import to avoid cycle

    m, n = ensure_m_n(m, n, require_heavy=True)
    cfg = config or HeavyConfig()
    factory = RngFactory(seed)
    sched = schedule or PaperSchedule(m, n, stop_factor=cfg.stop_factor)
    planned = sched.phase1_rounds()
    phase1_budget = planned if planned is not None else cfg.max_rounds

    engine = _make_engine(
        m,
        n,
        factory.child_factory("phase1"),
        lambda i, rng: ThresholdBallAgent(i, rng),
        lambda j, rng: ThresholdBinAgent(j, rng, sched),
        max_rounds=phase1_budget,
    )
    outcome1 = engine.run()
    loads = outcome1.loads.copy()
    rounds = outcome1.rounds
    total_messages = outcome1.counter.total
    remaining = outcome1.unallocated
    extra = {
        "phase1_rounds": outcome1.rounds,
        "phase1_remaining": remaining,
        "phase2_rounds": 0,
        "light_used_fallback": False,
    }

    unallocated = remaining
    if handoff and remaining > 0:
        vmap = VirtualBinMap.for_balls(remaining, n, cfg.light.capacity)
        light_budget = log_star(vmap.n_virtual) + cfg.light.round_budget_slack
        engine2 = _make_engine(
            remaining,
            vmap.n_virtual,
            factory.child_factory("phase2"),
            lambda i, rng: LightBallAgent(
                i, rng, max_contacts=cfg.light.max_contacts
            ),
            lambda j, rng: LightBinAgent(j, rng, capacity=cfg.light.capacity),
            max_rounds=light_budget,
        )
        outcome2 = engine2.run()
        virtual_loads = outcome2.loads
        if not outcome2.complete:
            # Deterministic sweep fallback, as in the vectorized path.
            residual = cfg.light.capacity - virtual_loads
            slots = np.repeat(np.arange(vmap.n_virtual), residual)
            need = outcome2.unallocated
            virtual_loads = virtual_loads.copy()
            np.add.at(virtual_loads, slots[:need], 1)
            total_messages += need
            extra["light_used_fallback"] = True
        loads += vmap.fold_loads(virtual_loads)
        # Phase 2's rows after phase 1's, as the vectorized fold has them.
        _append_rows(outcome1.metrics, outcome2.metrics.rounds, rounds, loads)
        rounds += outcome2.rounds
        total_messages += outcome2.counter.total
        extra["phase2_rounds"] = outcome2.rounds
        extra["virtual_factor"] = vmap.factor
        unallocated = 0

    return AllocationResult(
        algorithm="heavy[engine]",
        m=m,
        n=n,
        loads=loads,
        rounds=rounds,
        metrics=outcome1.metrics,
        messages=outcome1.counter,
        total_messages=total_messages,
        complete=unallocated == 0,
        unallocated=unallocated,
        seed_entropy=factory.root_entropy,
        extra=extra,
    )
