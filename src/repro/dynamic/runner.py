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
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.dynamic.churn import ChurnOutcome, ChurnStep
from repro.dynamic.spec import DynamicSpec
from repro.telemetry import current_telemetry
from repro.utils.seeding import RngFactory, as_seed_sequence
from repro.workloads import as_time_varying

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
    step = ChurnStep(
        algorithm, n, options,
        departures=spec.departures, hot_frac=spec.hot_frac,
        workload=workload, fault_model=fault_model,
        attack=spec.arrivals == "hotset_adversary",
    )
    wl = step.workload
    if tv is not None and wl is not None:
        raise ValueError(
            "workload and time_workload are mutually exclusive: a "
            "time-varying workload replaces the static cohort workload "
            "epoch by epoch"
        )
    if step.attack and (wl is not None or tv is not None):
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
    residents = step.residents
    records: list[EpochRecord] = []
    history = np.zeros((spec.epochs + 1, n), dtype=np.int64)

    for epoch in range(spec.epochs + 1):
        epoch_start = tele.begin() if tele is not None else 0.0
        ctrl = RngFactory(children[2 * epoch])
        place_seed = children[2 * epoch + 1]
        if epoch == 0:
            # The initial fill: m balls into empty bins.
            arrived, departed = m, 0
        else:
            poisson = spec.arrivals == "poisson"
            rng = ctrl.stream("dynamic", "arrivals") if poisson else None
            count = spec.arrival_count(epoch, m, rng)
            # Departures and arrivals are count-matched (the pinned-
            # population contract), so a draw exceeding the population
            # — possible only for Poisson arrivals near churn=1 — is
            # clamped for both sides rather than ratcheting the
            # population up.  A zero-churn epoch only steps the faults:
            # no departure draw, no placement, bitwise-stable loads.
            arrived = departed = min(count, residents.population)
        rerun = epoch > 0 and spec.rebalance == "full_rerun"
        epoch_wl = (
            tv.workload_at(epoch, spec.epochs, n)
            if tv is not None and arrived
            else None
        )
        out = step.run(
            epoch, ctrl, place_seed, departed, 0 if rerun else arrived,
            epoch_wl,
        )
        if rerun and arrived:
            # full_rerun: the oracle re-places the whole population.
            total = residents.population + arrived
            epoch_wl = step.cohort_workload(epoch, epoch_wl)
            start = time.perf_counter()
            placement = step.place(
                total, np.zeros(n, dtype=np.int64), place_seed, epoch_wl
            )
            seconds = time.perf_counter() - start
            # The arriving cohort joins before the reshuffle so its
            # balls get bin positions (and, under fifo, ages) like
            # everyone else's; its pre-reshuffle bin composition is a
            # placeholder.
            placeholder = np.zeros(n, dtype=np.int64)
            placeholder[0] = arrived
            residents.add_cohort(epoch, placeholder)
            # Placed over empty bins, the cohort is the new total.
            residents.reshuffle(
                placement.loads, ctrl.stream("dynamic", "reshuffle")
            )
            out = ChurnOutcome(
                placement.m - placement.unallocated, placement.unallocated,
                placement.rounds, placement.total_messages, 0, start,
                seconds,
            )
        elif tele is not None and arrived:
            tele.complete(
                "placement", out.start, cat="dynamic", epoch=epoch,
                cohort=arrived,
            )
        population, max_load, gap = residents.balance()
        if tele is not None:
            tele.count("dynamic.epochs")
            tele.count("dynamic.messages", out.messages)
            tele.count("dynamic.moved", out.placed)
            tele.observe("dynamic.epoch.gap", gap)
            tele.observe("dynamic.epoch.messages", out.messages)
            tele.observe("dynamic.epoch.moved", out.placed)
            tele.gauge("dynamic.failed_bins", step.failed_bins)
            if out.lost_acks:
                tele.count("dynamic.lost_acks", out.lost_acks)
        # ``moved`` is what the rebalance strategy re-placed: the
        # cohort under incremental, the population under full_rerun.
        records.append(
            EpochRecord(
                epoch=epoch,
                arrivals=arrived,
                departures=departed,
                placed=out.placed,
                unplaced=out.unplaced,
                moved=out.placed,
                rounds=out.rounds,
                messages=out.messages,
                population=population,
                max_load=max_load,
                gap=gap,
                seconds=out.seconds,
                failed_bins=step.failed_bins,
                lost_acks=out.lost_acks,
            )
        )
        history[epoch] = residents.loads
        if tele is not None:
            tele.complete(
                "epoch", epoch_start, cat="dynamic", epoch=epoch,
                **({} if epoch else {"fill": True}),
            )

    extra: dict = {"options": sorted(step.options)}
    if step.fault is not None:
        extra["faults"] = step.fault.to_dict()
    if tv is not None:
        extra["time_workload"] = tv.to_dict()
    return DynamicResult(
        algorithm=step.algorithm,
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
    from repro.experiments.parallel import pool_map

    return pool_map(_dynamic_task, tasks, workers)
