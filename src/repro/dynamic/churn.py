"""The churn step: one epoch of the dynamic process.

A :func:`repro.run_dynamic` epoch and an
:class:`repro.AllocatorService` flush are the same step, and both run
it through one :class:`ChurnStep`:

1. **fault step** — bins fail and recover (:meth:`FaultState.step`);
2. **departures** — the departing balls leave under the policy
   (:meth:`ResidentState.depart`);
3. **placement** — the arriving cohort is placed against the
   residents' loads, contacts quarantined away from failed bins, lost
   acks retried against ghost reservations (:func:`place_with_loss`).
   The placement is the acked cohort's
   :class:`~repro.result.AllocationResult`, and its ``loads`` join the
   residents.

Randomness: the control factory's ``("dynamic", "faults")``,
``("dynamic", "departures")`` and ``("dynamic", "loss")`` streams
feed the three parts, and the placement seed goes to the adapter
verbatim (loss retries spawn their seeds from it).  A part that has
nothing to do draws nothing.
"""

from __future__ import annotations

import math
import time
from typing import Any, NamedTuple, Optional

import numpy as np

from repro.api.spec import capability_note, get_spec
from repro.dynamic.faults import FaultState, place_with_loss
from repro.dynamic.state import ResidentState
from repro.utils.seeding import RngFactory
from repro.workloads import Workload, WorkloadError, as_workload

__all__ = ["ChurnOutcome", "ChurnStep"]


def _check_options(adapter, algorithm: str, options: dict[str, Any]) -> None:
    unknown = sorted(set(options) - set(adapter.options))
    if unknown:
        valid = ", ".join(adapter.options) or "(none)"
        raise ValueError(
            f"unknown dynamic option(s) "
            f"{', '.join(repr(u) for u in unknown)} for algorithm "
            f"{algorithm!r}; valid options: {valid}"
        )


def _resolve_workload(workload):
    wl = as_workload(workload)
    if wl is not None and wl.weight != "unit":
        raise WorkloadError(
            "dynamic runs support unit ball weights only: departures "
            "remove specific resident balls, and aggregate-granularity "
            "bookkeeping has no per-ball weight identity to remove "
            f"(got workload {wl.describe()!r}); weighted workloads run "
            "one-shot via repro.allocate(); "
            + capability_note("workload_capable")
        )
    return wl


def _attack_workload(
    loads: np.ndarray, hot_frac: float, failed: Optional[np.ndarray] = None
) -> Workload:
    """The hotset adversary's contact distribution: the arriving
    cohort's contacts land uniformly on the currently hottest
    ``hot_frac`` fraction of bins (ties broken by bin index, so the
    target set is deterministic in the loads).  When every one of
    those bins is in the ``failed`` mask, the attack aims at the
    hottest *live* bins instead: quarantine would otherwise leave the
    cohort no bin to contact."""
    n = loads.size
    n_hot = max(1, min(n - 1, math.ceil(hot_frac * n))) if n > 1 else n
    order = np.argsort(-loads, kind="stable")
    if failed is not None and failed[order[:n_hot]].all():
        order = order[~failed[order]]
    p = np.zeros(n, dtype=np.float64)
    p[order[:n_hot]] = 1.0 / n_hot
    return Workload.explicit(p)


class ChurnOutcome(NamedTuple):
    """What one step's placement did; all zero when nothing arrived."""

    placed: int = 0
    unplaced: int = 0
    rounds: int = 0
    messages: int = 0
    lost_acks: int = 0
    #: ``perf_counter`` reading when the placement began.
    start: float = 0.0
    #: Wall seconds of the placement, ack-loss retries included.
    seconds: float = 0.0


class ChurnStep:
    """The resident state, fault state and placement setup of one
    dynamic run or service; :meth:`run` advances them by one epoch.

    ``options`` are the adapter keywords, validated against the
    registered adapter.  ``attack`` marks the arrivals as the hotset
    adversary: every cohort after the fill aims its contacts at the
    currently hottest ``hot_frac`` fraction of bins.
    """

    def __init__(
        self,
        algorithm: str,
        n: int,
        options: dict[str, Any],
        *,
        departures: str = "uniform",
        hot_frac: float = 0.1,
        workload=None,
        fault_model=None,
        attack: bool = False,
    ) -> None:
        self.residents = ResidentState(n, departures, hot_frac=hot_frac)
        spec = get_spec(algorithm)
        self.adapter = spec.dynamic
        if self.adapter is None:
            raise ValueError(
                f"algorithm {spec.name!r} has no dynamic-placement "
                f"adapter; " + capability_note("dynamic_capable")
            )
        _check_options(self.adapter, spec.name, options)
        self.algorithm = spec.name
        self.workload = _resolve_workload(workload)
        self.options = dict(options)
        self.fault = (
            FaultState(n, fault_model) if fault_model is not None else None
        )
        degraded = (
            attack
            or departures == "greedy_adversary"
            or (fault_model is not None and not fault_model.is_null)
        )
        if degraded and "drain_settle" in self.adapter.options:
            # Adversarially skewed residuals break the fresh-fill premise
            # of the load-oblivious phase-2 handoff: let the settle phase
            # drain the cohort below the population-average cap instead
            # of handing a large straggler mass to A_light (graceful
            # degradation; see dynamic_heavy).  Benign regimes never
            # reach here, so their draws are unchanged.
            self.options.setdefault("drain_settle", True)
        self.n = n
        self.attack = attack

    @property
    def failed_bins(self) -> int:
        """Currently quarantined bins (0 without fault injection)."""
        return self.fault.failed_count if self.fault is not None else 0

    def place(self, count: int, initial: np.ndarray, seed, workload):
        """One adapter call: place ``count`` balls against ``initial``;
        returns the cohort's :class:`~repro.result.AllocationResult`."""
        return self.adapter.runner(
            count, self.n, initial_loads=initial, seed=seed,
            workload=workload, **self.options,
        )

    def cohort_workload(self, epoch: int, workload=None):
        """The contact distribution of epoch ``epoch``'s cohort: the
        hotset attack's after the fill (aimed at the current loads),
        else ``workload``, else the static workload — with failed bins
        quarantined."""
        if self.attack and epoch > 0:
            # The fill is unattacked (every bin is equally cold); later
            # cohorts aim at the hottest bins after departures — the
            # adaptive adversary — or at the hottest live ones when
            # every target has failed.
            workload = _attack_workload(
                self.residents.loads,
                self.residents.hot_frac,
                self.fault.failed if self.fault is not None else None,
            )
        elif workload is None:
            workload = self.workload
        if self.fault is not None:
            workload = self.fault.quarantined(workload, self.n)
        return workload

    def run(
        self,
        epoch: int,
        ctrl: RngFactory,
        place_seed,
        departing: int,
        arriving: int,
        workload=None,
    ) -> ChurnOutcome:
        """Step the faults, remove ``departing`` residents, then place
        ``arriving`` balls as cohort ``epoch`` (``workload`` overrides
        the static cohort workload for this step)."""
        fault = self.fault
        if fault is not None:
            fault.step(ctrl.stream("dynamic", "faults"))
        if departing:
            self.residents.depart(
                departing, ctrl.stream("dynamic", "departures")
            )
        if not arriving:
            return ChurnOutcome()
        workload = self.cohort_workload(epoch, workload)
        loss = fault.model.loss_prob if fault is not None else 0.0
        start = time.perf_counter()
        out = place_with_loss(
            lambda c, i, s: self.place(c, i, s, workload),
            arriving,
            self.residents.loads,
            place_seed,
            loss,
            ctrl.stream("dynamic", "loss") if loss > 0 else None,
        )
        seconds = time.perf_counter() - start
        lost = out.extra["lost_acks"]
        if fault is not None:
            fault.lost_acks += lost
        self.residents.add_cohort(epoch, out.loads)
        return ChurnOutcome(
            out.m - out.unallocated, out.unallocated, out.rounds,
            out.total_messages, lost, start, seconds,
        )
