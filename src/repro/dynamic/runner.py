"""The dynamic epoch runner: allocation as a process, not a one-shot.

:func:`run_dynamic` executes a churn regime (:class:`DynamicSpec`) on
top of any ``dynamic_capable`` allocator:

* **epoch 0** fills the system — the allocator's one-shot placement of
  the initial ``m`` balls into empty bins;
* **each subsequent epoch** removes a departing cohort under the
  spec's departure policy, injects an arriving cohort drawn from the
  arrival process, and re-establishes the load guarantee under the
  rebalance strategy:

  - ``incremental`` — only the arriving cohort runs through the round
    kernels, placed against the residents' per-bin loads
    (``RoundState(initial_loads=...)``), so per-epoch cost scales with
    the churn, not the population;
  - ``full_rerun`` — the oracle: the entire population is re-placed
    from scratch, paying the one-shot cost every epoch.

Randomness: the root seed spawns two independent
:class:`~numpy.random.SeedSequence` children per epoch — a *control*
stream (arrival counts, departure draws, full-rerun reshuffles) and a
*placement* seed handed verbatim to the adapter.  An epoch's placement
is therefore bitwise-identical to calling the adapter directly with
that child seed and the same residual loads — the value-identity
contract the dynamic tests pin — and a 100%-churn epoch reproduces a
fresh one-shot run exactly.

>>> import repro
>>> res = repro.run_dynamic("heavy", 20_000, 64, seed=7, epochs=4)
>>> res.epochs, bool(res.populations[-1] == 20_000)
(4, True)
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.api.spec import (
    capability_note,
    get_dynamic,
    get_spec,
    list_allocators,
)
from repro.core.faulty import FaultModel
from repro.dynamic.faults import FaultState, place_with_loss
from repro.dynamic.spec import DynamicSpec
from repro.dynamic.state import ResidentState
from repro.fastpath.buffers import RoundBuffers
from repro.telemetry import current_telemetry
from repro.utils.seeding import RngFactory, as_seed_sequence
from repro.workloads import (
    Workload,
    WorkloadError,
    as_time_varying,
    as_workload,
)

__all__ = ["DynamicResult", "EpochRecord", "run_dynamic", "run_dynamic_many"]

#: The regime keywords of :func:`run_dynamic` — exactly the fields of
#: :class:`DynamicSpec`, derived so a new spec field is picked up here
#: automatically.
_REGIME_KEYS = tuple(f.name for f in dataclasses.fields(DynamicSpec))


@dataclass(frozen=True)
class EpochRecord:
    """What one epoch did: churn volumes, placement cost, and balance.

    ``epoch`` 0 is the initial fill (no departures); later epochs are
    churn epochs.  ``moved`` counts the balls the rebalance strategy
    actually re-placed this epoch — the arriving cohort under
    ``incremental``, the whole population under ``full_rerun`` — and is
    the quantity the amortization claim compares.
    """

    epoch: int
    arrivals: int
    departures: int
    placed: int
    unplaced: int
    moved: int
    rounds: int
    messages: int
    population: int
    max_load: int
    gap: float
    seconds: float
    #: Bins quarantined during this epoch (fault injection; 0 benign).
    failed_bins: int = 0
    #: Placement acks lost this epoch (fault injection; 0 benign).
    lost_acks: int = 0

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "placed": self.placed,
            "unplaced": self.unplaced,
            "moved": self.moved,
            "rounds": self.rounds,
            "messages": self.messages,
            "population": self.population,
            "max_load": self.max_load,
            "gap": self.gap,
            "seconds": self.seconds,
            "failed_bins": self.failed_bins,
            "lost_acks": self.lost_acks,
        }


@dataclass
class DynamicResult:
    """Outcome of a dynamic run: the per-epoch time series.

    Attributes
    ----------
    algorithm:
        Canonical spec name of the allocator the adapters belong to.
    m, n:
        Initial population and bin count (the population stays pinned
        near ``m`` because departures and arrivals are count-matched).
    spec:
        The executed :class:`DynamicSpec`.
    workload:
        Workload spec string of the arriving cohorts (None = uniform).
    records:
        One :class:`EpochRecord` per epoch, index 0 = initial fill.
    loads:
        Final per-bin resident counts.
    loads_history:
        ``(epochs + 1, n)`` matrix: per-bin loads after each epoch.
    seed_entropy:
        Root entropy, for exact reproduction.
    """

    algorithm: str
    m: int
    n: int
    spec: DynamicSpec
    workload: Optional[str]
    records: list[EpochRecord]
    loads: np.ndarray
    loads_history: np.ndarray
    seed_entropy: tuple = ()
    extra: dict = field(default_factory=dict)

    # -- per-epoch vectors ----------------------------------------------

    @property
    def epochs(self) -> int:
        """Churn epochs executed (excluding the epoch-0 fill)."""
        return len(self.records) - 1

    def _vector(self, name: str, dtype=np.int64) -> np.ndarray:
        return np.array(
            [getattr(r, name) for r in self.records], dtype=dtype
        )

    @property
    def gaps(self) -> np.ndarray:
        """Max-load gap after each epoch (float, index 0 = fill)."""
        return self._vector("gap", np.float64)

    @property
    def max_loads(self) -> np.ndarray:
        return self._vector("max_load")

    @property
    def messages(self) -> np.ndarray:
        """Placement messages per epoch."""
        return self._vector("messages")

    @property
    def moved(self) -> np.ndarray:
        """Balls re-placed per epoch (the rebalance volume)."""
        return self._vector("moved")

    @property
    def rounds(self) -> np.ndarray:
        return self._vector("rounds")

    @property
    def populations(self) -> np.ndarray:
        return self._vector("population")

    @property
    def arrivals(self) -> np.ndarray:
        return self._vector("arrivals")

    @property
    def departures(self) -> np.ndarray:
        return self._vector("departures")

    @property
    def failed_bins(self) -> np.ndarray:
        """Quarantined bins per epoch (all zero without fault injection)."""
        return self._vector("failed_bins")

    @property
    def lost_acks(self) -> int:
        """Total placement acks lost to fault injection across the run."""
        return int(self._vector("lost_acks").sum())

    @property
    def total_messages(self) -> int:
        """Messages across all epochs including the initial fill."""
        return int(self.messages.sum())

    @property
    def churn_messages(self) -> int:
        """Messages across the churn epochs only (fill excluded) —
        the steady-state cost the amortization experiment compares."""
        return int(self.messages[1:].sum())

    @property
    def churn_seconds(self) -> float:
        """Placement wall seconds across the churn epochs only."""
        return float(sum(r.seconds for r in self.records[1:]))

    @property
    def complete(self) -> bool:
        """True when no epoch stranded a ball."""
        return all(r.unplaced == 0 for r in self.records)

    def describe(self) -> str:
        """Multi-line human-readable report of the run."""
        gaps = self.gaps
        msgs = self.messages
        lines = [
            f"algorithm     : {self.algorithm} [dynamic]",
            f"instance      : m={self.m}, n={self.n} "
            f"(m/n={self.m / self.n:.4g})",
            f"regime        : {self.spec.describe()}",
            f"epochs        : {self.epochs} churn epochs + fill",
            f"population    : {int(self.populations[-1])} final "
            f"(fill {int(self.populations[0])})",
            f"gap           : fill {gaps[0]:+.2f}, "
            f"steady mean {gaps[1:].mean():+.2f}, "
            f"worst {gaps.max():+.2f}"
            if self.epochs
            else f"gap           : fill {gaps[0]:+.2f}",
            f"moved/epoch   : {self.moved[1:].mean():,.0f} mean"
            if self.epochs
            else "moved/epoch   : -",
            f"messages      : {self.total_messages:,} total "
            f"({int(msgs[0]):,} fill"
            + (
                f", {msgs[1:].mean():,.0f}/churn epoch)"
                if self.epochs
                else ")"
            ),
            f"complete      : {self.complete}",
        ]
        if self.workload:
            lines.insert(3, f"workload      : {self.workload}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe export of the full time series."""
        return {
            "schema": 1,
            "algorithm": self.algorithm,
            "m": int(self.m),
            "n": int(self.n),
            "spec": self.spec.to_dict(),
            "workload": self.workload,
            "records": [r.to_dict() for r in self.records],
            "loads": self.loads.tolist(),
            "loads_history": self.loads_history.tolist(),
            "seed_entropy": [int(e) for e in self.seed_entropy],
            "extra": dict(self.extra),
        }

    def __str__(self) -> str:
        steady = self.gaps[1:].mean() if self.epochs else float("nan")
        return (
            f"DynamicResult({self.algorithm}: m={self.m}, n={self.n}, "
            f"epochs={self.epochs}, steady gap={steady:+.2f})"
        )


def _resolve_entry(algorithm: str):
    """The (spec, dynamic adapter) pair, or a clear capability error."""
    spec = get_spec(algorithm)
    entry = get_dynamic(spec.name)
    if entry is None:
        raise ValueError(
            f"algorithm {spec.name!r} has no dynamic-placement adapter; "
            + capability_note("dynamic_capable")
        )
    return spec, entry


def _dynamic_workload_capable() -> list[str]:
    """Allocators whose *dynamic adapter* accepts non-uniform workloads."""
    return [
        s.name
        for s in list_allocators()
        if s.dynamic_capable and get_dynamic(s.name).workload_capable
    ]


def _check_options(entry, algorithm: str, options: dict[str, Any]) -> None:
    unknown = sorted(set(options) - set(entry.options))
    if unknown:
        valid = ", ".join(entry.options) or "(none)"
        raise ValueError(
            f"unknown dynamic option(s) "
            f"{', '.join(repr(u) for u in unknown)} for algorithm "
            f"{algorithm!r}; valid options: {valid}"
        )


def _resolve_workload(spec, entry, workload):
    wl = as_workload(workload)
    if wl is None:
        return None
    if not entry.workload_capable:
        raise ValueError(
            f"algorithm {spec.name!r} supports the uniform workload "
            f"only in dynamic runs (got workload {wl.describe()!r}); "
            + capability_note(
                "workload_capable", _dynamic_workload_capable()
            )
        )
    if wl.weight != "unit":
        raise WorkloadError(
            "dynamic runs support unit ball weights only: departures "
            "remove specific resident balls, and aggregate-granularity "
            "bookkeeping has no per-ball weight identity to remove "
            f"(got workload {wl.describe()!r}); weighted workloads run "
            "one-shot via repro.allocate(); "
            + capability_note("workload_capable")
        )
    return wl


def _attack_workload(loads: np.ndarray, hot_frac: float) -> Workload:
    """The hotset adversary's contact distribution: the arriving
    cohort's contacts land uniformly on the currently hottest
    ``hot_frac`` fraction of bins (ties broken by bin index, so the
    target set is deterministic in the loads)."""
    n = loads.size
    n_hot = max(1, min(n - 1, math.ceil(hot_frac * n))) if n > 1 else n
    order = np.argsort(-loads, kind="stable")
    p = np.zeros(n, dtype=np.float64)
    p[order[:n_hot]] = 1.0 / n_hot
    return Workload.explicit(p)


def run_dynamic(
    algorithm: str,
    m: int,
    n: int,
    *,
    seed=None,
    spec: Optional[DynamicSpec] = None,
    epochs: int = 16,
    churn: float = 0.1,
    arrivals: str = "fixed",
    departures: str = "uniform",
    rebalance: str = "incremental",
    burst_every: int = 4,
    burst_factor: float = 4.0,
    hot_frac: float = 0.1,
    workload=None,
    time_workload=None,
    fault_model=None,
    backend: Optional[str] = None,
    **options: Any,
) -> DynamicResult:
    """Run allocation under churn: epochs of departures and arrivals.

    Parameters
    ----------
    algorithm:
        Any ``dynamic_capable`` registry name or alias (heavy,
        combined, single, stemann; see ``python -m repro list``).
    m, n:
        Initial population and bin count.  Departures and arrivals are
        count-matched, so the population stays pinned at ``m`` (up to
        protocol-stranded balls).
    seed:
        Root seed; every epoch draws from its own spawned child
        streams, so the whole run replays bitwise.
    spec:
        A complete :class:`DynamicSpec`.  When given it wins over the
        individual regime keywords below.
    epochs, churn, arrivals, departures, rebalance, burst_every,
    burst_factor, hot_frac:
        Convenience construction of the :class:`DynamicSpec` (see its
        docstring for semantics).
    workload:
        Optional workload (spec string or
        :class:`repro.workloads.Workload`) the arriving cohorts are
        drawn from: choice skew and capacity profiles are honored by
        every adapter; weighted balls are rejected (departures are
        count-based).
    time_workload:
        Optional :class:`~repro.workloads.TimeVaryingWorkload` (or
        spec string, e.g. ``"drift:1:2"`` / ``"flash:4:100"``): the
        arriving cohorts' workload varies with the epoch index (skew
        drift, flash crowds).  Mutually exclusive with ``workload``
        and with ``arrivals="hotset_adversary"`` (each owns the
        contact distribution).
    fault_model:
        Optional :class:`~repro.core.faulty.FaultModel`: bins fail and
        recover at epoch boundaries (failed bins quarantined from new
        placements), and placement acks are lost with ghost-slot
        retries.  ``None`` (and the all-zero model, bitwise) keeps the
        benign path untouched.  Incremental rebalancing only.
    backend:
        Kernel backend name pinned for every epoch's placement
        (:mod:`repro.fastpath.backend`); ``None`` keeps the ambient
        selection.  Value-identical either way.
    options:
        Adapter-specific keywords (e.g. ``mode="perball"`` for the
        kernel-backed adapters, ``collision_factor=`` for stemann),
        validated against the registered adapter signature.

    Returns
    -------
    DynamicResult
        The per-epoch gap/max-load/messages/moved-balls time series.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    alloc_spec, entry = _resolve_entry(algorithm)
    _check_options(entry, alloc_spec.name, options)
    wl = _resolve_workload(alloc_spec, entry, workload)
    if "buffers" in entry.options and "buffers" not in options:
        # One scratch arena shared by every epoch's placement: the
        # kernel steps reuse its buffers instead of reallocating each
        # round.  Value-preserving (the adapter narrows/chunks without
        # changing any draw), so this is unconditional.
        options = dict(options)
        options["buffers"] = RoundBuffers()
    if spec is None:
        spec = DynamicSpec(
            epochs=epochs,
            churn=churn,
            arrivals=arrivals,
            departures=departures,
            rebalance=rebalance,
            burst_every=burst_every,
            burst_factor=burst_factor,
            hot_frac=hot_frac,
        )
    tv = as_time_varying(time_workload)
    if tv is not None and wl is not None:
        raise ValueError(
            "workload and time_workload are mutually exclusive: a "
            "time-varying workload replaces the static cohort workload "
            "epoch by epoch"
        )
    if spec.arrivals == "hotset_adversary" and (
        wl is not None or tv is not None
    ):
        raise ValueError(
            "hotset_adversary arrivals own the cohort contact "
            "distribution (aimed at the currently hottest bins every "
            "epoch); they cannot combine with workload= or "
            "time_workload="
        )
    if fault_model is not None and spec.rebalance != "incremental":
        raise ValueError(
            "fault injection supports incremental rebalancing only: "
            "the full_rerun oracle re-places the whole population, "
            "which has no per-epoch quarantine/ghost semantics "
            f"(got rebalance={spec.rebalance!r})"
        )
    fault = FaultState(n, fault_model) if fault_model is not None else None
    degraded = (
        spec.arrivals == "hotset_adversary"
        or spec.departures == "greedy_adversary"
        or (fault_model is not None and not fault_model.is_null)
    )
    if degraded and "drain_settle" in entry.options:
        # Adversarially skewed residuals break the fresh-fill premise
        # of the load-oblivious phase-2 handoff: let the settle phase
        # drain the cohort below the population-average cap instead of
        # handing a large straggler mass to A_light (graceful
        # degradation; see dynamic_heavy).  Benign specs never reach
        # here, so the default path stays bitwise-unchanged.
        options = dict(options)
        options.setdefault("drain_settle", True)
    # Telemetry: one sink captured for the whole run; every hook below
    # is a single ``is not None`` branch when off, and none of them
    # touches a seed or stream.
    tele = current_telemetry()
    root = as_seed_sequence(seed)
    entropy = tuple(RngFactory(root).root_entropy)
    # Two independent children per epoch: [control, placement].  The
    # placement child goes to the adapter verbatim, so an epoch's
    # placement can be reproduced by calling the adapter directly.
    children = root.spawn(2 * (spec.epochs + 1))
    residents = ResidentState(n, spec.departures, hot_frac=spec.hot_frac)
    records: list[EpochRecord] = []
    history = np.zeros((spec.epochs + 1, n), dtype=np.int64)

    def _place(cohort: int, initial: np.ndarray, place_seed, epoch_wl):
        from repro.fastpath.backend import use_backend

        kwargs = dict(options)
        if entry.workload_capable and epoch_wl is not None:
            kwargs["workload"] = epoch_wl
        # Every epoch's placement runs on the pinned kernel backend
        # (value-identical across backends; wall clock only).
        with use_backend(backend):
            return entry.runner(
                cohort, n, initial_loads=initial, seed=place_seed, **kwargs
            )

    def _epoch_workload(epoch: int):
        """The cohort workload for one epoch — static, time-varying,
        or the hotset attack — quarantined around failed bins."""
        if spec.arrivals == "hotset_adversary" and epoch > 0:
            # The fill is unattacked (every bin is equally cold); the
            # attack re-aims at the hottest bins each churn epoch,
            # post-departure — the adaptive adversary.
            epoch_wl = _attack_workload(residents.loads, spec.hot_frac)
        elif tv is not None:
            epoch_wl = tv.workload_at(epoch, spec.epochs, n)
        else:
            epoch_wl = wl
        if fault is not None:
            epoch_wl = fault.quarantined(epoch_wl, n)
        return epoch_wl

    def _execute(cohort: int, initial: np.ndarray, place_seed, ctrl):
        """One cohort placement, with ack-loss retries when modeled.
        Returns (per-bin acked counts, (placed, unplaced, rounds,
        messages, lost_acks), seconds)."""
        epoch_wl = _epoch_workload(len(records))
        start = time.perf_counter()
        if fault is not None and fault.model.loss_prob > 0:
            out = place_with_loss(
                lambda c, i, s: _place(c, i, s, epoch_wl),
                cohort,
                initial,
                place_seed,
                fault.model.loss_prob,
                ctrl.stream("dynamic", "loss"),
            )
            fault.lost_acks += out.lost_acks
            counts = out.cohort
            stats = (
                out.placed,
                out.unplaced,
                out.rounds,
                out.messages,
                out.lost_acks,
            )
        else:
            placement = _place(cohort, initial, place_seed, epoch_wl)
            counts = placement.loads.astype(np.int64) - initial
            stats = (
                placement.placed,
                placement.unplaced,
                placement.rounds,
                placement.total_messages,
                0,
            )
        elapsed = time.perf_counter() - start
        if tele is not None:
            tele.complete(
                "placement",
                start,
                cat="dynamic",
                epoch=len(records),
                cohort=cohort,
            )
        return counts, stats, elapsed

    def _record(
        epoch: int,
        arrived: int,
        departed: int,
        stats: tuple,
        moved: int,
        seconds: float,
    ) -> None:
        placed, unplaced, rounds, messages, lost = stats
        current = residents.loads
        population = int(current.sum())
        max_load = int(current.max(initial=0))
        if tele is not None:
            gap = max_load - population / n if population else 0.0
            failed = fault.failed_count if fault is not None else 0
            tele.count("dynamic.epochs")
            tele.count("dynamic.messages", messages)
            tele.count("dynamic.moved", moved)
            tele.observe("dynamic.epoch.gap", gap)
            tele.observe("dynamic.epoch.messages", messages)
            tele.observe("dynamic.epoch.moved", moved)
            tele.gauge("dynamic.failed_bins", failed)
            if lost:
                tele.count("dynamic.lost_acks", lost)
        records.append(
            EpochRecord(
                epoch=epoch,
                arrivals=arrived,
                departures=departed,
                placed=placed,
                unplaced=unplaced,
                moved=moved,
                rounds=rounds,
                messages=messages,
                population=population,
                max_load=max_load,
                gap=max_load - population / n if population else 0.0,
                seconds=seconds,
                failed_bins=fault.failed_count if fault is not None else 0,
                lost_acks=lost,
            )
        )
        history[epoch] = current

    # -- epoch 0: the initial fill --------------------------------------
    epoch_start = tele.begin() if tele is not None else 0.0
    fill_ctrl = RngFactory(children[0])
    if fault is not None:
        fault.step(fill_ctrl.stream("dynamic", "faults"))
    counts, stats, elapsed = _execute(
        m, np.zeros(n, dtype=np.int64), children[1], fill_ctrl
    )
    residents.add_cohort(0, counts)
    _record(0, m, 0, stats, stats[0], elapsed)
    if tele is not None:
        tele.complete("epoch", epoch_start, cat="dynamic", epoch=0, fill=True)

    # -- churn epochs ---------------------------------------------------
    for epoch in range(1, spec.epochs + 1):
        if tele is not None:
            epoch_start = tele.begin()
        ctrl = RngFactory(children[2 * epoch])
        place_seed = children[2 * epoch + 1]
        if fault is not None:
            # Fail/recover transitions at the epoch boundary, from the
            # control child's own "faults" stream (independent of the
            # arrival/departure streams by construction, so the benign
            # draws are unperturbed).
            fault.step(ctrl.stream("dynamic", "faults"))
        if spec.arrivals == "poisson":
            count = spec.arrival_count(
                epoch, m, ctrl.stream("dynamic", "arrivals")
            )
        else:
            count = spec.arrival_count(epoch, m)
        # Departures and arrivals are count-matched (the pinned-
        # population contract), so a draw exceeding the population —
        # possible only for Poisson arrivals near churn=1 — is clamped
        # for both sides rather than ratcheting the population up.
        count = min(count, residents.population)
        if count == 0:
            # A zero-churn epoch is a strict no-op: no departure draw,
            # no placement, bitwise-stable loads.
            _record(epoch, 0, 0, (0, 0, 0, 0, 0), 0, 0.0)
            if tele is not None:
                tele.complete(
                    "epoch", epoch_start, cat="dynamic", epoch=epoch
                )
            continue
        departing = count
        residents.depart(departing, ctrl.stream("dynamic", "departures"))
        base = residents.loads
        if spec.rebalance == "incremental":
            counts, stats, elapsed = _execute(count, base, place_seed, ctrl)
            residents.add_cohort(epoch, counts)
            moved = stats[0]
        else:  # full_rerun: the oracle re-places the whole population
            total = residents.population + count
            epoch_wl = _epoch_workload(epoch)
            start = time.perf_counter()
            placement = _place(
                total, np.zeros(n, dtype=np.int64), place_seed, epoch_wl
            )
            elapsed = time.perf_counter() - start
            # The arriving cohort joins before the reshuffle so its
            # balls get bin positions (and, under fifo, ages) like
            # everyone else's; its pre-reshuffle bin composition is a
            # placeholder.
            placeholder = np.zeros(n, dtype=np.int64)
            placeholder[0] = count
            residents.add_cohort(epoch, placeholder)
            residents.reshuffle(
                placement.loads, ctrl.stream("dynamic", "reshuffle")
            )
            moved = placement.placed
            stats = (
                placement.placed,
                placement.unplaced,
                placement.rounds,
                placement.total_messages,
                0,
            )
        _record(epoch, count, departing, stats, moved, elapsed)
        if tele is not None:
            tele.complete("epoch", epoch_start, cat="dynamic", epoch=epoch)

    extra: dict = {"options": sorted(options)}
    if fault is not None:
        extra["faults"] = fault.to_dict()
    if tv is not None:
        extra["time_workload"] = tv.to_dict()
    return DynamicResult(
        algorithm=alloc_spec.name,
        m=m,
        n=n,
        spec=spec,
        workload=(
            wl.describe()
            if wl is not None
            else (tv.describe() if tv is not None else None)
        ),
        records=records,
        loads=residents.loads,
        loads_history=history,
        seed_entropy=entropy,
        extra=extra,
    )


def _dynamic_task(args: tuple) -> DynamicResult:
    """Module-level worker entry (picklable for process pools)."""
    algorithm, m, n, child, spec, workload, time_workload, fault, options = (
        args
    )
    return run_dynamic(
        algorithm,
        m,
        n,
        seed=child,
        spec=spec,
        workload=workload,
        time_workload=time_workload,
        fault_model=fault,
        **options,
    )


def run_dynamic_many(
    algorithm: str,
    m: int,
    n: int,
    *,
    repeats: int,
    seed=None,
    workers: Optional[int] = None,
    spec: Optional[DynamicSpec] = None,
    workload=None,
    time_workload=None,
    fault_model=None,
    **kwargs: Any,
) -> list[DynamicResult]:
    """Repeat a dynamic run over independent seed-spawned streams.

    The repetition idiom of :func:`repro.api.allocate_many`: repeat
    ``r`` runs on the ``r``-th spawned child of the root seed, so the
    batch replays exactly and results are identical for any
    ``workers`` count (process fan-out never changes values, only
    wall clock — the property the dynamic reproducibility tests pin).

    ``kwargs`` are the regime keywords and adapter options of
    :func:`run_dynamic` (ignored regime keywords when ``spec`` is
    given, exactly as there).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if spec is None:
        regime = {
            k: kwargs.pop(k) for k in _REGIME_KEYS if k in kwargs
        }
        spec = DynamicSpec(**regime)
    else:
        for k in _REGIME_KEYS:
            kwargs.pop(k, None)
    children = as_seed_sequence(seed).spawn(repeats)
    tasks = [
        (
            algorithm,
            m,
            n,
            child,
            spec,
            workload,
            time_workload,
            fault_model,
            dict(kwargs),
        )
        for child in children
    ]
    if workers is not None and workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_dynamic_task, tasks))
    return [_dynamic_task(t) for t in tasks]
