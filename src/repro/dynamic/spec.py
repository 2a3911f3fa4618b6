"""Dynamic-scenario specifications: how churn arrives and departs.

A :class:`DynamicSpec` describes one churn regime the epoch runner
(:func:`repro.dynamic.runner.run_dynamic`) executes on top of any
``dynamic_capable`` allocator:

* **arrival process** — how many balls arrive per epoch: ``fixed``
  (exactly the churn rate's worth), ``poisson`` (a Poisson draw with
  that mean), ``bursty`` (a deterministic lull/burst cycle with the
  same long-run mean), or ``hotset_adversary`` (fixed-size cohorts
  whose *contact distributions* are concentrated on the currently
  hottest ``hot_frac`` fraction of bins — the adaptive-attacker
  arrival process; see ``docs/dynamic.md``);
* **departure policy** — which resident balls leave: ``uniform``
  (uniformly at random over all residents), ``fifo`` (oldest cohorts
  first — the age-ordered job-queue regime), ``hotset``
  (preferentially from the currently hottest bins — correlated
  departures, the cache-invalidation regime), or ``greedy_adversary``
  (the gap-maximizing attacker: drain the lightest bins level by
  level, never touching the maximum, so the mean sinks while the max
  stands);
* **epoch count and churn rate** — each epoch turns over
  ``churn * m`` balls (departures and arrivals are count-matched, so
  the population stays pinned at ``m`` and the per-epoch gap series is
  comparable across epochs);
* **rebalance strategy** — ``incremental`` (only the arriving cohort
  runs through the round kernels, against the residents' loads via
  ``RoundState(initial_loads=...)``) or ``full_rerun`` (the oracle:
  the entire population is re-placed from scratch every epoch).

The spec is a frozen value object; all randomness is drawn by the
runner from per-epoch spawned streams, so one spec replays bitwise
from one root seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = [
    "ARRIVAL_KINDS",
    "DEPARTURE_KINDS",
    "REBALANCE_KINDS",
    "DynamicSpec",
    "check_hot_frac",
]

#: Accepted arrival-process kinds (``hotset_adversary`` is the
#: adaptive attack: fixed cohort sizes, contacts aimed at the
#: currently hottest bins).
ARRIVAL_KINDS = ("fixed", "poisson", "bursty", "hotset_adversary")
#: Accepted departure-policy kinds (``greedy_adversary`` is the
#: gap-maximizing attack: drain the lightest bins first).
DEPARTURE_KINDS = ("uniform", "fifo", "hotset", "greedy_adversary")
#: Accepted rebalance strategies.
REBALANCE_KINDS = ("incremental", "full_rerun")


def check_hot_frac(hot_frac: float) -> float:
    """``hot_frac`` if it lies strictly in (0, 1), else ``ValueError``
    (``nan`` included)."""
    if not (0.0 < hot_frac < 1.0):
        raise ValueError(
            f"hot_frac must lie strictly in (0, 1), got {hot_frac}"
        )
    return hot_frac


@dataclass(frozen=True)
class DynamicSpec:
    """One churn regime: arrivals x departures x rebalance strategy.

    Attributes
    ----------
    epochs:
        Number of churn epochs after the initial fill (epoch 0).
    churn:
        Target per-epoch turnover as a fraction of the initial
        population ``m`` (0 <= churn <= 1; 0 makes every epoch a
        no-op, 1 replaces the entire population each epoch).
    arrivals:
        Arrival process (``fixed``/``poisson``/``bursty``/
        ``hotset_adversary``).  The adversarial process sizes cohorts
        like ``fixed``; the runner aims each cohort's contact
        distribution at the currently hottest ``hot_frac`` fraction of
        bins.
    burst_every:
        Bursty arrivals: cycle length — every ``burst_every``-th epoch
        is a burst.
    burst_factor:
        Bursty arrivals: burst epochs carry ``burst_factor`` times the
        lull rate; the lull rate is scaled so the long-run mean stays
        at ``churn * m`` per epoch.
    departures:
        Departure policy (``uniform``/``fifo``/``hotset``/
        ``greedy_adversary``).  The adversarial policy drains the
        lightest bins level by level (gap-maximizing, deterministic in
        the loads).
    hot_frac:
        Hotset departures and hotset-adversary arrivals: the fraction
        of currently hottest bins the policy targets (departures drawn
        from it, or attack contacts concentrated on it).
    rebalance:
        ``incremental`` or ``full_rerun`` (the all-moves oracle).
    """

    epochs: int = 16
    churn: float = 0.1
    arrivals: str = "fixed"
    burst_every: int = 4
    burst_factor: float = 4.0
    departures: str = "uniform"
    hot_frac: float = 0.1
    rebalance: str = "incremental"

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (0.0 <= self.churn <= 1.0):
            raise ValueError(
                f"churn must lie in [0, 1], got {self.churn}"
            )
        if self.arrivals not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival process {self.arrivals!r}; "
                f"expected one of {', '.join(ARRIVAL_KINDS)}"
            )
        if self.departures not in DEPARTURE_KINDS:
            raise ValueError(
                f"unknown departure policy {self.departures!r}; "
                f"expected one of {', '.join(DEPARTURE_KINDS)}"
            )
        if self.rebalance not in REBALANCE_KINDS:
            raise ValueError(
                f"unknown rebalance strategy {self.rebalance!r}; "
                f"expected one of {', '.join(REBALANCE_KINDS)}"
            )
        if self.burst_every < 2:
            raise ValueError(
                f"burst_every must be >= 2, got {self.burst_every}"
            )
        if self.burst_factor < 1.0:
            raise ValueError(
                f"burst_factor must be >= 1, got {self.burst_factor}"
            )
        check_hot_frac(self.hot_frac)

    def with_rebalance(self, rebalance: str) -> "DynamicSpec":
        """The same regime under another rebalance strategy (the
        incremental-vs-oracle comparisons pivot on this)."""
        return replace(self, rebalance=rebalance)

    def arrival_count(
        self, epoch: int, m: int, rng: Optional[object] = None
    ) -> int:
        """Cohort size for ``epoch`` (1-based) at population ``m``.

        ``fixed`` and ``bursty`` are deterministic; ``poisson`` draws
        from ``rng`` (the epoch's own control stream).  The long-run
        mean of every process is ``churn * m`` per epoch.
        """
        if epoch < 1:
            raise ValueError(f"epoch must be >= 1, got {epoch}")
        rate = self.churn * m
        if self.arrivals in ("fixed", "hotset_adversary"):
            # The adversary controls *where* contacts aim, not how
            # many balls arrive: cohort sizes stay deterministic so
            # attacked and benign runs are count-matched.
            return int(round(rate))
        if self.arrivals == "poisson":
            if rng is None:
                raise ValueError("poisson arrivals need the epoch rng")
            return int(rng.poisson(rate))
        # Bursty: every ``burst_every``-th epoch carries ``burst_factor``
        # times the lull rate; the lull rate is chosen so one full cycle
        # averages to ``rate``.
        lull = rate * self.burst_every / (
            self.burst_every - 1 + self.burst_factor
        )
        if epoch % self.burst_every == 0:
            return int(round(lull * self.burst_factor))
        return int(round(lull))

    def describe(self) -> str:
        """Compact human-readable regime string."""
        parts = [
            f"churn={self.churn:g}",
            f"epochs={self.epochs}",
            f"arrivals={self.arrivals}",
        ]
        if self.arrivals == "bursty":
            parts.append(
                f"burst={self.burst_factor:g}x/{self.burst_every}"
            )
        if self.arrivals == "hotset_adversary":
            parts.append(f"hot_frac={self.hot_frac:g}")
        parts.append(f"departures={self.departures}")
        if self.departures == "hotset":
            parts.append(f"hot_frac={self.hot_frac:g}")
        parts.append(self.rebalance)
        return "+".join(parts)

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "churn": self.churn,
            "arrivals": self.arrivals,
            "burst_every": self.burst_every,
            "burst_factor": self.burst_factor,
            "departures": self.departures,
            "hot_frac": self.hot_frac,
            "rebalance": self.rebalance,
        }
