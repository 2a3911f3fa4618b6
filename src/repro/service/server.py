"""The long-lived allocator service: micro-batched incremental epochs.

:class:`AllocatorService` turns the PR-5 dynamic engine into a
*server*: instead of a closed-loop epoch script
(:func:`repro.run_dynamic`), arrivals and departures stream in through
``place()``/``release()``, pool in a bounded :class:`EventQueue`, and
flush as **micro-batches**.  A flush runs the churn step a
``run_dynamic`` epoch runs (:class:`~repro.dynamic.churn.ChurnStep`:
fault step, departures, then the cohort placed against the residents'
loads), with the batch's releases departing and its places arriving.

Seed contract (the bitwise bridge to :func:`repro.run_dynamic`): the
root seed spawns **two SeedSequence children per flushed micro-batch**
— the step's control child and its placement child — in submission
order.  ``SeedSequence.spawn`` numbers children incrementally, so
batch ``b`` receives exactly the children ``run_dynamic`` gives epoch
``b``.  Hence when a driver feeds the service one count-matched cohort
per batch (the :func:`~repro.service.driver.simulate_service`
arrangement), **every micro-batch is bitwise-identical to the
corresponding ``run_dynamic`` epoch on the same root seed** — loads,
messages, rounds, departure draws, everything (pinned by
``tests/test_service.py``).  An idle tick flushes nothing, draws
nothing, and spawns nothing: a service that sits idle overnight
replays exactly like one that never idled.

Admission (:mod:`repro.service.admission`) runs in front of the
queue: accept, defer (batches widen while the gap SLO or message
budget is threatened), or shed (queue overflow / gap emergency).

Every public mutating call is appended to ``self.trace``, so a run
can be replayed bitwise with :func:`replay_trace` — the audit-log
property the replay-determinism tests pin.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

import numpy as np

from repro.analysis.stats import percentiles
from repro.dynamic.churn import ChurnStep
from repro.service.admission import (
    ACCEPT,
    DEFER,
    SHED,
    AdmissionPolicy,
    GapSloController,
)
from repro.service.events import EventQueue, SimulatedClock, WallClock
from repro.telemetry import current_telemetry
from repro.utils.seeding import RngFactory, as_seed_sequence
from repro.utils.validation import check_positive_int

__all__ = [
    "AllocatorService",
    "BatchRecord",
    "ServiceStats",
    "replay_trace",
    "serve_queue",
]


@dataclass(frozen=True)
class BatchRecord:
    """What one flushed micro-batch did — the service's epoch record.

    ``places``/``releases`` are the ball counts the batch carried;
    ``released`` is the departures actually executed (clamped to the
    resident population, overflow recorded service-wide).  The cost
    fields (``moved``, ``rounds``, ``messages``) mirror
    :class:`~repro.dynamic.runner.EpochRecord` — on a count-matched
    trace they are equal, term for term.
    """

    batch: int
    t: float
    events: int
    places: int
    releases: int
    released: int
    placed: int
    unplaced: int
    moved: int
    rounds: int
    messages: int
    population: int
    max_load: int
    gap: float
    queue_after: int
    widen: int
    latency_mean: float
    latency_max: float
    seconds: float
    #: Bins quarantined during this batch (fault injection; 0 benign).
    failed_bins: int = 0
    #: Placement acks lost this batch (fault injection; 0 benign).
    lost_acks: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time summary of the service (``stats()``)."""

    algorithm: str
    n: int
    population: int
    batches: int
    gap: float
    gap_worst: float
    queue_pending: int
    widen: int
    accepted: int
    deferred: int
    shed: int
    dropped_releases: int
    processed_places: int
    processed_releases: int
    messages: int
    rounds: int
    busy_seconds: float
    elapsed: float
    ops_per_sec: float
    latency: dict[str, float]
    latency_mean: float
    latency_max: float
    complete: bool
    #: Currently quarantined bins (fault injection; 0 benign).
    failed_bins: int = 0
    #: Total placement acks lost to fault injection.
    lost_acks: int = 0
    #: Most balls ever pending at once (queue-depth high-water mark).
    queue_depth_hwm: int = 0
    #: Per-flush wall-time percentiles (p50/p95/p99 over
    #: ``BatchRecord.seconds``; zeros before the first flush).
    flush_latency: dict[str, float] = field(
        default_factory=lambda: {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    )

    @property
    def processed_ops(self) -> int:
        return self.processed_places + self.processed_releases

    @property
    def shed_rate(self) -> float:
        submitted = self.accepted + self.shed
        return self.shed / submitted if submitted else 0.0

    def to_dict(self) -> dict:
        out = asdict(self)
        out["processed_ops"] = self.processed_ops
        out["shed_rate"] = self.shed_rate
        return out


class AllocatorService:
    """A continuously running allocator over one ``dynamic_capable``
    algorithm.

    Parameters
    ----------
    algorithm:
        Any ``dynamic_capable`` registry name or alias.
    n:
        Bin count (fixed for the service's lifetime).
    seed:
        Root seed; two children are spawned per flushed micro-batch
        (control + placement), so the whole service replays bitwise —
        and matches ``run_dynamic``'s epoch seeds batch for batch.
    max_batch:
        Count watermark: pending balls at or above
        ``max_batch * widen`` trigger a flush (``widen`` is the
        admission controller's multiplier, 1 while healthy).
    max_wait:
        Age watermark: on ``tick()``, a head event older than this
        flushes the queue even below the count watermark.
    max_queue:
        Queue capacity in balls; beyond it, admission sheds.
    policy:
        :class:`AdmissionPolicy` (default: no gap SLO — queue capacity
        is the only backpressure).
    clock:
        A :class:`SimulatedClock` for deterministic replay, or None
        for wall time.
    departures, hot_frac:
        Departure policy applied when a batch's releases are drawn
        (``uniform``/``fifo``/``hotset``/``greedy_adversary``) and its
        hot fraction, validated as in :class:`DynamicSpec`.
    workload:
        Optional workload for arriving cohorts (same rules as
        ``run_dynamic``: skew/capacities yes, weights no).
    fault_model:
        Optional :class:`~repro.core.faulty.FaultModel`: bins fail and
        recover at batch boundaries (failed bins quarantined from new
        placements — their residents stay, survivors absorb the
        traffic), and placement acks are lost with ghost-slot retries.
        The fault-inflated gap feeds the admission controller like any
        other gap, so the service widens/sheds instead of crashing —
        graceful degradation.  ``None`` (and the all-zero model,
        bitwise) keeps the benign path untouched, including the
        flush-for-flush match with ``run_dynamic``.
    auto_flush:
        When False, only ``tick()``/``flush()``/``drain()`` flush —
        submissions never trigger the count watermark (used to pin
        that deferred processing equals eager processing bitwise).
    options:
        Adapter-specific keywords, validated against the registered
        adapter signature exactly as in ``run_dynamic``.
    """

    def __init__(
        self,
        algorithm: str,
        n: int,
        *,
        seed=None,
        max_batch: int = 4096,
        max_wait: float = 1.0,
        max_queue: Optional[int] = None,
        policy: Optional[AdmissionPolicy] = None,
        clock=None,
        departures: str = "uniform",
        hot_frac: float = 0.1,
        workload=None,
        fault_model=None,
        auto_flush: bool = True,
        **options: Any,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self._step = ChurnStep(
            algorithm, n, options,
            departures=departures, hot_frac=hot_frac, workload=workload,
            fault_model=fault_model,
        )
        # An empty cohort draws nothing, but the adapter checks its
        # option values first: a bad value fails here, not at the first
        # flush after the queue has given up its batch.
        self._step.adapter.runner(
            0, n, initial_loads=np.zeros(n, dtype=np.int64),
            **self._step.options,
        )
        self.residents = self._step.residents
        self.fault = self._step.fault
        self.algorithm = self._step.algorithm
        self.n = n
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.auto_flush = auto_flush
        self.policy = policy if policy is not None else AdmissionPolicy()
        self.controller = GapSloController(self.policy)
        self.clock = clock if clock is not None else WallClock()
        self.queue = EventQueue(
            max_queue if max_queue is not None else 64 * max_batch
        )
        self._root = as_seed_sequence(seed)
        self.records: list[BatchRecord] = []
        #: Audit log of public mutating calls: (op, count, at) tuples.
        self.trace: list[tuple[str, int, float]] = []
        self._start = self.clock.now()
        #: Per flush, the (latencies, ball counts) arrays of its events.
        self._latencies: list[tuple[np.ndarray, np.ndarray]] = []
        self._accepted = 0
        self._deferred = 0
        self._shed = 0
        self._dropped_releases = 0
        self._processed_places = 0
        self._processed_releases = 0
        self._unplaced = 0
        self._busy_seconds = 0.0
        # Per-submission counter handles, keyed by the ambient Telemetry
        # instance: (telemetry, {label_value: Counter}).  The ingest
        # path runs once per submitted event — caching the handle turns
        # two labeled registry lookups per submit into dict hits.
        self._tele_counters: Optional[tuple] = None

    # -- ingest ---------------------------------------------------------

    @property
    def batch_limit(self) -> int:
        """Effective micro-batch size: the count watermark, widened
        while the admission controller sees SLO pressure."""
        return self.max_batch * self.controller.widen

    @property
    def population(self) -> int:
        return self.residents.population

    @property
    def gap(self) -> float:
        return self.residents.balance()[2]

    def _record_op(self, op: str, count: int, at: float, tele) -> None:
        """The one audit-log recording path: every public mutating call
        lands here, appending the historical ``(op, count, at)`` tuple
        (``at = -1.0`` is the no-timestamp sentinel for clock-free ops)
        and mirroring the op into ``tele``, the caller's ambient
        telemetry sink, when one is installed.  The tuple log — the
        :func:`replay_trace` input — is bitwise-unchanged by the mirror.
        Per-op *instant* trace events are emitted for batch-level ops
        only (tick/flush/drain): place/release arrive per submission on
        the ingest hot path, so they mirror as an aggregated counter,
        not one span event each.
        """
        self.trace.append((op, count, at))
        if tele is not None:
            self._hot_counter(tele, "service.ops", "op", op).inc()
            if op not in ("place", "release"):
                tele.event(
                    "service.op", cat="service", op=op, count=count, at=at
                )

    def _hot_counter(self, tele, name: str, label: str, value: str):
        """Cached labeled-counter handle for the per-submission path."""
        cache = self._tele_counters
        if cache is None or cache[0] is not tele:
            cache = (tele, {})
            self._tele_counters = cache
        counter = cache[1].get((name, value))
        if counter is None:
            counter = tele.metrics.counter(name, **{label: value})
            cache[1][(name, value)] = counter
        return counter

    def _submit(self, kind: str, count: int) -> str:
        if type(count) is not int or count < 1:
            # Rejected before the trace, admission, telemetry or the
            # queue see it; a plain positive int skips the helper.
            count = check_positive_int(count, "count")
        now = self.clock.now()
        tele = current_telemetry()
        self._record_op(kind, count, now, tele)
        decision = self.controller.decide(kind, count, self.queue)
        if tele is not None:
            self._hot_counter(
                tele, "service.admission", "decision", decision
            ).inc(count)
        if decision == SHED:
            self._shed += count
            return SHED
        # No per-submit depth gauge: the queue maintains its high-water
        # mark unconditionally and the flush hook gauges depth — one
        # fewer telemetry call on the ingest hot path.
        self.queue.push(kind, count, now)
        self._accepted += count
        if decision == DEFER:
            self._deferred += count
        # The count watermark applies to deferred events too — deferral
        # widens the watermark (batch_limit grows with the controller),
        # it does not suspend flushing.
        if self.auto_flush and self.queue.pending >= self.batch_limit:
            self.flush(_record_trace=False)
        return decision

    def place(self, count: int = 1) -> str:
        """Submit ``count`` arriving balls; returns the admission
        decision (``accept``/``defer``/``shed``).  ``count`` must be a
        positive integer: anything else raises (``TypeError`` /
        ``ValueError``) and leaves the service untouched."""
        return self._submit("place", count)

    def release(self, count: int = 1) -> str:
        """Submit ``count`` departures (policy-sampled at flush);
        ``count`` is validated as in :meth:`place`."""
        return self._submit("release", count)

    def query(self) -> dict:
        """Read-only snapshot: population, gap, queue depth.  Never
        flushes, never draws randomness."""
        return {
            "population": self.population,
            "gap": self.gap,
            "queue_pending": self.queue.pending,
            "widen": self.controller.widen,
            "batches": len(self.records),
        }

    def tick(self, now: Optional[float] = None) -> Optional[BatchRecord]:
        """Advance time and apply the age watermark.

        With a :class:`SimulatedClock`, ``now`` moves the clock (it
        must not run backward).  An idle tick — empty queue — is a
        strict no-op: no flush, no RNG draw, no seed spawn, no record.
        """
        self._record_op(
            "tick", 0, now if now is not None else -1.0, current_telemetry()
        )
        if now is not None and isinstance(self.clock, SimulatedClock):
            self.clock.advance_to(now)
        if (
            self.queue.pending
            and self.queue.oldest_age(self.clock.now()) >= self.max_wait
        ):
            return self.flush(_record_trace=False)
        return None

    # -- the micro-batch epoch ------------------------------------------

    def flush(
        self, *, all_pending: bool = False, _record_trace: bool = True
    ) -> Optional[BatchRecord]:
        """Process one micro-batch (up to ``batch_limit`` balls, FIFO;
        everything pending when ``all_pending``).  Returns the batch
        record, or None when the queue was empty.

        A batch is exactly one dynamic epoch: one churn step on the
        control and placement children spawned from the root seed at
        flush time.
        """
        tele = current_telemetry()
        if _record_trace:
            self._record_op("flush", int(all_pending), -1.0, tele)
        counts, ats, places, releases = self.queue.take(
            None if all_pending else self.batch_limit
        )
        if not counts:
            return None
        now = self.clock.now()
        ctrl_seed, place_seed = self._root.spawn(2)
        fault = self.fault
        failed_before = self._step.failed_bins
        start = time.perf_counter()
        released = min(releases, self.residents.population)
        self._dropped_releases += releases - released
        # Creating the factory draws nothing; the step pulls a stream
        # only when it draws (bitwise-stable benign path).
        out = self._step.run(
            len(self.records), RngFactory(ctrl_seed), place_seed,
            released, places,
        )
        elapsed = time.perf_counter() - start
        if tele is not None:
            if fault is not None:
                tele.gauge("service.failed_bins", fault.failed_count)
                if fault.failed_count != failed_before:
                    tele.event(
                        "fault.step",
                        cat="service",
                        failed=fault.failed_count,
                        was=failed_before,
                    )
            if places:
                tele.complete(
                    "placement",
                    out.start,
                    cat="service",
                    batch=len(self.records),
                    places=places,
                    lost_acks=out.lost_acks,
                )
        self._busy_seconds += elapsed
        self._processed_places += places
        self._processed_releases += released
        self._unplaced += out.unplaced
        lats = now - np.array(ats)
        weights = np.array(counts)
        self._latencies.append((lats, weights))
        # A left-to-right builtin sum, not numpy's pairwise one: the mean
        # stays bitwise-equal to summing event by event.
        lat_mean = sum((lats * weights).tolist()) / (places + releases)
        population, max_load, gap = self.residents.balance()
        self.controller.observe(gap, out.messages, places + released)
        record = BatchRecord(
            batch=len(self.records),
            t=now,
            events=len(counts),
            places=places,
            releases=releases,
            released=released,
            placed=out.placed,
            unplaced=out.unplaced,
            moved=out.placed,
            rounds=out.rounds,
            messages=out.messages,
            population=population,
            max_load=max_load,
            gap=gap,
            queue_after=self.queue.pending,
            widen=self.controller.widen,
            latency_mean=lat_mean,
            latency_max=float(lats.max()),
            seconds=elapsed,
            failed_bins=self._step.failed_bins,
            lost_acks=out.lost_acks,
        )
        self.records.append(record)
        if tele is not None:
            tele.count("service.flushes")
            tele.count("service.messages", out.messages)
            tele.observe("service.flush.seconds", elapsed)
            tele.observe("service.flush.gap", gap)
            tele.gauge("service.queue.depth", self.queue.pending)
            if out.lost_acks:
                tele.count("service.lost_acks", out.lost_acks)
            tele.complete(
                "flush",
                start,
                cat="service",
                batch=record.batch,
                events=len(counts),
                places=places,
                releases=releases,
                gap=gap,
            )
        return record

    def drain(self) -> list[BatchRecord]:
        """Flush everything pending, in ``batch_limit``-sized FIFO
        chunks — the same batch boundaries eager processing would have
        produced, so a deferred burst drains to bitwise-identical
        state (pinned by test)."""
        self._record_op("drain", 0, -1.0, current_telemetry())
        out = []
        while self.queue.pending:
            record = self.flush(_record_trace=False)
            if record is None:  # pragma: no cover - take() always pops
                break
            out.append(record)
        return out

    # -- reporting ------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Cumulative service statistics (latency percentiles over
        every processed ball, weighted by event count; per-flush wall
        time percentiles over every batch)."""
        if self.records:
            flush_lat = percentiles(
                np.array([r.seconds for r in self.records])
            )
        else:
            flush_lat = {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        if self._latencies:
            values = np.repeat(
                np.concatenate([lats for lats, _ in self._latencies]),
                np.concatenate([counts for _, counts in self._latencies]),
            )
            lat = percentiles(values)
            lat_mean = float(values.mean())
            lat_max = float(values.max())
        else:
            lat = {"p50": 0.0, "p95": 0.0, "p99": 0.0}
            lat_mean = lat_max = 0.0
        processed = self._processed_places + self._processed_releases
        return ServiceStats(
            algorithm=self.algorithm,
            n=self.n,
            population=self.population,
            batches=len(self.records),
            gap=self.gap,
            gap_worst=max((r.gap for r in self.records), default=0.0),
            queue_pending=self.queue.pending,
            widen=self.controller.widen,
            accepted=self._accepted,
            deferred=self._deferred,
            shed=self._shed,
            dropped_releases=self._dropped_releases,
            processed_places=self._processed_places,
            processed_releases=self._processed_releases,
            messages=sum(r.messages for r in self.records),
            rounds=sum(r.rounds for r in self.records),
            busy_seconds=self._busy_seconds,
            elapsed=self.clock.now() - self._start,
            ops_per_sec=(
                processed / self._busy_seconds
                if self._busy_seconds > 0
                else 0.0
            ),
            latency=lat,
            latency_mean=lat_mean,
            latency_max=lat_max,
            complete=self._unplaced == 0,
            failed_bins=self._step.failed_bins,
            lost_acks=(
                int(self.fault.lost_acks) if self.fault is not None else 0
            ),
            queue_depth_hwm=self.queue.high_water,
            flush_latency=flush_lat,
        )


def replay_trace(
    trace: list[tuple[str, int, float]],
    algorithm: str,
    n: int,
    **service_kwargs: Any,
) -> AllocatorService:
    """Re-execute a recorded service trace on a fresh service.

    ``trace`` is an ``AllocatorService.trace`` audit log (ops
    ``place``/``release``/``tick``/``flush``/``drain``).  With the
    same constructor arguments and a simulated clock, the replayed
    service reaches bitwise-identical state — loads, batch records,
    latencies (the replay-determinism contract).  The clock is driven
    from the recorded timestamps, so callers should not pass one.
    """
    if "clock" in service_kwargs:
        raise ValueError("replay_trace drives its own simulated clock")
    service = AllocatorService(
        algorithm, n, clock=SimulatedClock(), **service_kwargs
    )
    for op, count, at in trace:
        if op in ("place", "release"):
            service.clock.advance_to(at)
            (service.place if op == "place" else service.release)(count)
        elif op == "tick":
            service.tick(None if at < 0 else at)
        elif op == "flush":
            service.flush(all_pending=bool(count))
        elif op == "drain":
            service.drain()
        else:  # pragma: no cover - corrupt trace
            raise ValueError(f"unknown trace op {op!r}")
    return service


async def serve_queue(service: AllocatorService, queue, *, poll: float = 0.01):
    """Asyncio ingest front-end: feed the service from an
    ``asyncio.Queue`` until a ``None`` sentinel arrives.

    Items are ``("place" | "release", count)`` pairs; the service's
    own clock stamps arrival.  Between items the loop ticks the
    service so the age watermark keeps flushing during quiet spells.
    Returns the final :class:`ServiceStats` after a drain.
    """
    import asyncio

    while True:
        try:
            item = await asyncio.wait_for(queue.get(), timeout=poll)
        except asyncio.TimeoutError:
            service.tick()
            continue
        if item is None:
            service.drain()
            return service.stats()
        kind, count = item
        if kind == "place":
            service.place(count)
        elif kind == "release":
            service.release(count)
        else:
            raise ValueError(f"unknown event kind {kind!r}")
