"""Threshold schedules for the symmetric threshold protocol.

A *threshold schedule* produces the cumulative acceptance threshold
``T_i`` for each round ``i``; a bin with load ``ℓ`` accepts up to
``T_i - ℓ`` requests.  Schedules are **oblivious**: ``T_i`` may depend
only on ``(m, n, i)`` and the estimate recursion — never on the balls'
random choices — matching both the algorithm of Section 3 and the
obliviousness requirement of the lower-bound family (Section 4, step 1).

Provided schedules:

* :class:`PaperSchedule` — the paper's
  ``T_i = m/n - (m̃_i/n)^{2/3}``, ``m̃_{i+1} = m̃_i^{2/3} n^{1/3}``
  (Section 3, Algorithm ``A_heavy`` step 2b-2c);
* :class:`FixedSchedule` — the naive ``T_i = m/n + c`` for all ``i``
  (the Section 1.1 negative example, needing ``Ω(log n)`` rounds);
* :class:`ExponentSchedule` — the ablation family
  ``T_i = m/n - (m̃_i/n)^{alpha}`` with ``m̃_{i+1} = m̃_i^{alpha}
  n^{1-alpha}``; ``alpha = 2/3`` recovers :class:`PaperSchedule`
  (experiment A1 sweeps ``alpha``).

``T_i`` values are real; the protocol floors them (the paper assumes
integrality "as we aim for asymptotic bounds").  Schedules guarantee
monotone non-decreasing integer thresholds.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from repro.utils.validation import ensure_m_n

__all__ = [
    "ThresholdSchedule",
    "PaperSchedule",
    "FixedSchedule",
    "ExponentSchedule",
]


class ThresholdSchedule(abc.ABC):
    """Oblivious per-round cumulative thresholds.

    Subclasses implement :meth:`raw_threshold`; the public
    :meth:`threshold` floors and monotonizes.  :meth:`phase1_rounds`
    reports how many threshold rounds the schedule prescribes before the
    protocol should hand off to ``A_light`` (``None`` = run until the
    caller's own stopping rule, used by the fixed schedule which has no
    intrinsic endpoint).
    """

    def __init__(self, m: int, n: int) -> None:
        self.m, self.n = ensure_m_n(m, n, require_heavy=True)
        # _prefix_max[i] = max(0, raw_threshold(0..i)), extended lazily.
        self._prefix_max: list[float] = []

    @abc.abstractmethod
    def raw_threshold(self, round_index: int) -> float:
        """The schedule's real-valued ``T_i``."""

    @abc.abstractmethod
    def estimate(self, round_index: int) -> float:
        """The unallocated-ball estimate ``m̃_i`` at the start of round
        ``i`` (``m̃_0 = m``)."""

    def phase1_rounds(self) -> Optional[int]:
        """Number of threshold rounds before handing off, or ``None``."""
        return None

    def threshold(self, round_index: int) -> int:
        """Integral, monotone, non-negative ``T_i``."""
        if round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {round_index}")
        # Extend the prefix maximum only past what earlier calls built,
        # so a run of R rounds makes R raw_threshold calls in all.
        prefix = self._prefix_max
        best = prefix[-1] if prefix else 0.0
        for i in range(len(prefix), round_index + 1):
            best = max(best, self.raw_threshold(i))
            prefix.append(best)
        return max(0, math.floor(prefix[round_index]))

    def capacity(self, round_index: int) -> int:
        """Fresh capacity opened in round ``i``: ``T_i - T_{i-1}``."""
        if round_index == 0:
            return self.threshold(0)
        return self.threshold(round_index) - self.threshold(round_index - 1)


class PaperSchedule(ThresholdSchedule):
    """The schedule of Algorithm ``A_heavy`` (Section 3).

    ``T_i = m/n - (m̃_i/n)^{2/3}`` with ``m̃_0 = m`` and
    ``m̃_{i+1} = m̃_i^{2/3} n^{1/3}``; closed form
    ``m̃_i = m^{(2/3)^i} n^{1-(2/3)^i}``.  Phase 1 ends once
    ``m̃_i <= stop_factor * n`` (default 2, after which at most ``O(n)``
    balls remain w.h.p. — Claims 2-4).
    """

    def __init__(self, m: int, n: int, *, stop_factor: float = 2.0) -> None:
        super().__init__(m, n)
        if stop_factor < 1.0:
            raise ValueError(f"stop_factor must be >= 1, got {stop_factor}")
        self.stop_factor = stop_factor

    def estimate(self, round_index: int) -> float:
        if round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {round_index}")
        exponent = (2.0 / 3.0) ** round_index
        # m̃_i = m^{(2/3)^i} n^{1-(2/3)^i}; computed in log space for
        # numerical stability at extreme m.
        log_mt = exponent * math.log(self.m) + (1.0 - exponent) * math.log(self.n)
        return math.exp(log_mt)

    def raw_threshold(self, round_index: int) -> float:
        return self.m / self.n - (self.estimate(round_index) / self.n) ** (2.0 / 3.0)

    def phase1_rounds(self) -> int:
        limit = self.stop_factor * self.n
        i = 0
        while self.estimate(i) > limit and i < 512:
            i += 1
        return i


class FixedSchedule(ThresholdSchedule):
    """The naive constant threshold ``T = m/n + slack`` (Section 1.1).

    A bin accepts up to ``T`` balls in total from round 0.  The paper's
    intuition section shows this variant fills a constant fraction of
    bins after one round and then needs ``Ω(log n)`` rounds overall —
    experiment F2 measures exactly that.
    """

    def __init__(self, m: int, n: int, *, slack: int = 1) -> None:
        super().__init__(m, n)
        if slack < 0:
            raise ValueError(f"slack must be >= 0, got {slack}")
        self.slack = slack
        self._raw = math.ceil(self.m / self.n) + slack

    def raw_threshold(self, round_index: int) -> float:
        return self._raw

    def threshold(self, round_index: int) -> int:
        # A constant raw threshold >= 1 is its own prefix maximum.
        # Negative rounds, and subclasses that vary it, take the walk.
        if round_index < 0 or (
            type(self).raw_threshold is not FixedSchedule.raw_threshold
        ):
            return super().threshold(round_index)
        return math.floor(self._raw)

    def estimate(self, round_index: int) -> float:
        # No estimate recursion; the schedule is constant.  Report the
        # trivial bound (every ball may still be unallocated).
        return float(self.m)

    def phase1_rounds(self) -> None:
        return None


class ExponentSchedule(ThresholdSchedule):
    """Ablation family: ``T_i = m/n - (m̃_i/n)^{alpha}`` with
    ``m̃_{i+1} = m̃_i^{alpha} n^{1-alpha}``.

    ``alpha`` trades per-round progress against underload risk: larger
    ``alpha`` (closer to 1) keeps thresholds closer to the mean so fewer
    balls remain per round, but bins fail to fill more often (Claim 1's
    exponent ``(m̃_i/n)^{1-alpha}``... for the paper's analysis to give a
    w.h.p. bound one needs ``delta^2 * mu = (m̃_i/n)^{2(1-alpha)-...}``
    to diverge; ``alpha = 2/3`` balances ``delta = (m/n)^{-1/3}`` against
    the mean).  Experiment A1 sweeps ``alpha in {1/2, 2/3, 3/4, 0.9}``.
    """

    def __init__(
        self, m: int, n: int, *, alpha: float, stop_factor: float = 2.0
    ) -> None:
        super().__init__(m, n)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if stop_factor < 1.0:
            raise ValueError(f"stop_factor must be >= 1, got {stop_factor}")
        self.alpha = alpha
        self.stop_factor = stop_factor

    def estimate(self, round_index: int) -> float:
        if round_index < 0:
            raise ValueError(f"round_index must be >= 0, got {round_index}")
        exponent = self.alpha**round_index
        log_mt = exponent * math.log(self.m) + (1.0 - exponent) * math.log(self.n)
        return math.exp(log_mt)

    def raw_threshold(self, round_index: int) -> float:
        return self.m / self.n - (self.estimate(round_index) / self.n) ** self.alpha

    def phase1_rounds(self) -> int:
        limit = self.stop_factor * self.n
        i = 0
        while self.estimate(i) > limit and i < 2048:
            i += 1
        return i
