"""Resident-population bookkeeping for the dynamic epoch runner.

A :class:`ResidentState` is built for one departure policy and keeps
exactly the information that policy needs:

* ``uniform`` departures sample uniformly among all resident balls.
  Balls of one bin are exchangeable, so the per-bin loads are a
  sufficient statistic: a departure is one exact multivariate
  hypergeometric draw over them;
* ``hotset`` departures drain the currently hottest bins first —
  uniformly among the residents of the top ``hot_frac`` fraction of
  bins (one draw over the hot bins' loads), falling back to the cold
  bins (a second draw over theirs) only when the hot set runs out;
* ``greedy_adversary`` departures drain the *lightest* bins level by
  level — the gap-maximizing attack: the maximum load is never
  touched while the mean sinks, so each epoch of churn widens the gap
  by the full departure volume spread over the valley floor.  The
  drain is deterministic given the loads (ties at the boundary level
  split by :func:`repro.lowerbound.adversary.spread_budget`), so it
  draws nothing;
* ``fifo`` departures consume arrival cohorts oldest-first, splitting
  only the boundary cohort (hypergeometrically over its bins).  It is
  the one policy that reads ball ages, so only a ``fifo`` state keeps
  **cohorts** — one per arrival epoch.

The other three policies hold nothing but the ``(n,)`` per-bin loads,
so a long-lived service's departure cost and memory do not grow with
its age.

Every draw comes from the caller-supplied generator (one spawned
control stream per epoch), so a dynamic run replays bitwise from its
root seed regardless of policy.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.dynamic.spec import DEPARTURE_KINDS, check_hot_frac

__all__ = ["ResidentState", "hypergeometric_method"]

#: Per-unit costs of numpy's two exact multivariate-hypergeometric
#: samplers (2.1 GHz x86-64, numpy 2.4): ``count`` lays out one slot
#: per ball, then shuffles ``min(k, population - k)`` of them;
#: ``marginals`` makes one univariate draw per bin.
COUNT_NS_PER_BALL = 0.6
COUNT_NS_PER_DRAW = 25.0
MARGINALS_NS_PER_BIN = 200.0


def hypergeometric_method(population: int, k: int, bins: int) -> str:
    """The cheaper numpy method for drawing ``k`` of ``population``
    balls spread over ``bins`` bins.  Both are exact; they consume the
    generator differently."""
    count_ns = (
        COUNT_NS_PER_BALL * population
        + COUNT_NS_PER_DRAW * min(k, population - k)
    )
    if count_ns < MARGINALS_NS_PER_BIN * bins:
        return "count"
    return "marginals"


def _sample(
    rng: np.random.Generator, loads: np.ndarray, k: int
) -> np.ndarray:
    """Per-bin counts of ``k`` balls drawn uniformly without replacement."""
    method = hypergeometric_method(int(loads.sum()), k, loads.size)
    return rng.multivariate_hypergeometric(loads, k, method=method)


class ResidentState:
    """Per-bin resident counts under one departure policy (plus the
    arrival cohorts under ``fifo``)."""

    def __init__(
        self, n: int, policy: str = "uniform", *, hot_frac: float = 0.1
    ) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if policy not in DEPARTURE_KINDS:
            raise ValueError(
                f"unknown departure policy {policy!r}; expected one of "
                f"{', '.join(DEPARTURE_KINDS)}"
            )
        self.n = n
        self.policy = policy
        self.hot_frac = check_hot_frac(hot_frac)
        #: Oldest-first list of ``[epoch_id, (n,) counts]`` cohorts;
        #: empty unless the policy is ``fifo``.
        self.cohorts: list[list] = []
        self._loads = np.zeros(n, dtype=np.int64)

    @property
    def loads(self) -> np.ndarray:
        """Current per-bin resident counts (a defensive copy)."""
        return self._loads.copy()

    @property
    def population(self) -> int:
        """Total resident balls."""
        return int(self._loads.sum())

    def balance(self) -> tuple[int, int, float]:
        """``(population, max_load, gap)``, where the gap is the max load
        minus the mean (0 for an empty system)."""
        population = int(self._loads.sum())
        max_load = int(self._loads.max(initial=0))
        gap = max_load - population / self.n if population else 0.0
        return population, max_load, gap

    def add_cohort(self, epoch: int, counts: np.ndarray) -> None:
        """Admit one arrival cohort with the given per-bin placement."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self.n,):
            raise ValueError(
                f"cohort counts must have shape ({self.n},), "
                f"got {counts.shape}"
            )
        if np.any(counts < 0):
            raise ValueError("cohort counts must be non-negative")
        if counts.sum() == 0:
            return
        if self.policy == "fifo":
            self.cohorts.append([epoch, counts.copy()])
        self._loads += counts

    def depart(
        self, k: int, rng: Optional[np.random.Generator]
    ) -> np.ndarray:
        """Remove ``k`` residents under the state's policy; returns the
        per-bin departure counts.

        ``k = 0`` is a strict no-op: no generator draw, no state
        change (the zero-churn bitwise-stability guarantee).
        """
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k == 0:
            return np.zeros(self.n, dtype=np.int64)
        if k > self.population:
            raise ValueError(
                f"cannot depart {k} balls from a population of "
                f"{self.population}"
            )
        if self.policy == "fifo":
            departed = self._depart_fifo(k, rng)
        elif self.policy == "uniform":
            departed = _sample(rng, self._loads, k)
        elif self.policy == "hotset":
            departed = self._depart_hotset(k, rng)
        else:
            departed = self._depart_greedy(k)
        self._loads -= departed
        if np.any(self._loads < 0):  # pragma: no cover - internal guard
            raise AssertionError("departures exceeded resident counts")
        return departed

    def _depart_fifo(self, k: int, rng) -> np.ndarray:
        departed = np.zeros(self.n, dtype=np.int64)
        remaining = k
        for cohort in self.cohorts:
            counts = cohort[1]
            if int(counts.sum()) <= remaining:
                taken = counts
            else:
                taken = rng.multivariate_hypergeometric(counts, remaining)
            cohort[1] = counts - taken
            departed += taken
            remaining -= int(taken.sum())
            if remaining == 0:
                break
        self.cohorts = [c for c in self.cohorts if c[1].any()]
        return departed

    def _depart_hotset(self, k: int, rng) -> np.ndarray:
        n_hot = max(1, min(self.n - 1, math.ceil(self.hot_frac * self.n)))
        order = np.argsort(-self._loads, kind="stable")
        hot, cold = order[:n_hot], order[n_hot:]
        departed = np.zeros(self.n, dtype=np.int64)
        k_hot = min(k, int(self._loads[hot].sum()))
        if k_hot > 0:
            departed[hot] = _sample(rng, self._loads[hot], k_hot)
        if k > k_hot:
            departed[cold] = _sample(rng, self._loads[cold], k - k_hot)
        return departed

    def _depart_greedy(self, k: int) -> np.ndarray:
        # Gap-maximizing drain: empty the lightest bins level by level,
        # apportioning the boundary level's budget across its tied bins
        # with the adversaries' largest-remainder spreader.  The maximum
        # bin is never touched (unless the budget consumes the whole
        # population), so the mean falls while the max stands — the
        # worst case for the gap.
        from repro.lowerbound.adversary import spread_budget

        departed = np.zeros(self.n, dtype=np.int64)
        remaining = k
        for level in np.unique(self._loads[self._loads > 0]):
            bins = np.flatnonzero(self._loads == level)
            level_total = int(level) * bins.size
            if level_total <= remaining:
                departed[bins] = level
                remaining -= level_total
                if remaining == 0:
                    break
            else:
                departed[bins] = spread_budget(remaining, np.ones(bins.size))
                break
        return departed

    def reshuffle(
        self, new_loads: np.ndarray, rng: Optional[np.random.Generator]
    ) -> None:
        """Move the residents to ``new_loads`` after a full re-placement.

        ``new_loads`` may total *less* than the current population (a
        protocol that strands balls evicts them).  Only ``fifo`` draws:
        the re-placement changes where each cohort's balls sit without
        changing cohort membership, and placed balls of one run are
        exchangeable, so each cohort's new bin distribution is a
        hypergeometric split of the placement, drawn oldest-first from
        ``rng``; the shortfall is charged to the newest cohorts.
        """
        new_loads = np.asarray(new_loads, dtype=np.int64)
        if new_loads.shape != (self.n,):
            raise ValueError(
                f"new_loads must have shape ({self.n},), "
                f"got {new_loads.shape}"
            )
        shortfall = self.population - int(new_loads.sum())
        if shortfall < 0:
            raise ValueError(
                "reshuffle target exceeds the resident population"
            )
        if self.policy == "fifo":
            self._reshuffle_cohorts(new_loads, shortfall, rng)
        self._loads = new_loads.copy()

    def _reshuffle_cohorts(self, new_loads, shortfall: int, rng) -> None:
        sizes = [int(c[1].sum()) for c in self.cohorts]
        for i in range(len(sizes) - 1, -1, -1):
            if shortfall <= 0:
                break
            cut = min(sizes[i], shortfall)
            sizes[i] -= cut
            shortfall -= cut
        remaining = new_loads.copy()
        for size, cohort in zip(sizes, self.cohorts):
            if size == 0:
                part = np.zeros(self.n, dtype=np.int64)
            elif size == int(remaining.sum()):
                part = remaining.copy()
            else:
                part = rng.multivariate_hypergeometric(remaining, size)
            cohort[1] = part.astype(np.int64)
            remaining -= part
        self.cohorts = [c for c in self.cohorts if c[1].sum() > 0]
