"""Ingest layer of the allocator service: clock and bounded queue.

The service queues two kinds of event:

* ``place`` — ``count`` new balls ask to enter the system;
* ``release`` — ``count`` resident balls leave.  Releases are
  *anonymous*: the dynamic engine tracks residents at bin
  granularity (:class:`~repro.dynamic.state.ResidentState`), so which
  balls leave is decided by the service's departure policy when the
  batch flushes, exactly as in :func:`repro.run_dynamic`.

Queries (:meth:`~repro.service.AllocatorService.query`) are read-only
and never queue.  An event is not an object: the :class:`EventQueue`
keeps pending events as three columns — counts, timestamps and kinds
— and hands a flush its batch as columns, so queueing one costs a few
list appends.  The queue is bounded in *balls*, not events, so a
single 10,000-ball ``place`` burst and ten thousand unit places exert
the same backpressure.  The queue knows nothing about processing; the
service flushes it onto the incremental-rebalance path when a
**watermark** trips:

* **count watermark** — pending balls reach the micro-batch size;
* **age watermark** — the oldest pending event has waited longer than
  ``max_wait`` (checked on :meth:`~repro.service.AllocatorService.tick`).

Time comes from a :class:`Clock`: :class:`WallClock` for live use,
:class:`SimulatedClock` for deterministic replay — with a simulated
clock every latency figure, batch boundary, and placement replays
bitwise from the root seed (the guarantee the service tests pin).
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = [
    "Clock",
    "EventQueue",
    "SimulatedClock",
    "WallClock",
]


class Clock:
    """The service's time source; subclasses define ``now()``."""

    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError


class WallClock(Clock):
    """Monotonic wall time (``time.perf_counter``) for live service."""

    # Bound straight to the C function: the service reads the clock once
    # per submitted event.
    now = staticmethod(time.perf_counter)


class SimulatedClock(Clock):
    """A manually advanced clock: deterministic, replayable time.

    ``advance`` is monotone (time never goes backward), so a recorded
    event trace carries a consistent timeline and replays bitwise.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError(f"cannot advance time by {dt}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        if t < self._now:
            raise ValueError(
                f"cannot move the clock backward ({t} < {self._now})"
            )
        self._now = float(t)
        return self._now


class EventQueue:
    """Bounded FIFO of pending ``place``/``release`` events, in columns.

    Capacity is measured in balls (the sum of event counts): the
    backpressure signal the admission policy reads.  ``take(limit)``
    pops whole events FIFO until adding the next event would exceed
    ``limit`` balls — events are never split, so a ball's latency is
    always attributed to its own submission timestamp and a micro-batch
    is always a prefix of the arrival order.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counts: list[int] = []
        self._ats: list[float] = []
        self._kinds: list[str] = []
        self._pending = 0
        self._pending_places = 0
        self._pending_releases = 0
        #: Most balls ever pending at once — the queue-depth high-water
        #: mark ``ServiceStats`` reports.  Deterministic bookkeeping
        #: (no clock, no RNG), so it is maintained unconditionally.
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._counts)

    @property
    def pending(self) -> int:
        """Queued balls (places + releases)."""
        return self._pending

    @property
    def pending_places(self) -> int:
        return self._pending_places

    @property
    def pending_releases(self) -> int:
        return self._pending_releases

    @property
    def depth(self) -> float:
        """Queue fullness in [0, 1] — the admission policy's signal."""
        return self._pending / self.capacity

    def push(self, kind: str, count: int, at: float) -> None:
        """Enqueue ``count`` balls of ``kind`` submitted at ``at``.

        Raises ``TypeError`` for a kind other than ``place``/``release``
        and ``OverflowError`` when a **place** would exceed capacity (the
        admission policy sheds before this triggers).  **Releases spill
        past the bound**: a departure strictly reduces load, and
        shedding one would leak its balls' occupancy forever — the
        resident population would permanently exceed what the outside
        world believes is in the system.  The capacity is a backpressure
        bound on *work admitted*, not on bookkeeping that shrinks the
        system."""
        if kind == "place":
            if self._pending + count > self.capacity:
                raise OverflowError(
                    f"queue over capacity: {self._pending} pending + "
                    f"{count} > {self.capacity}"
                )
            self._pending_places += count
        elif kind == "release":
            self._pending_releases += count
        else:
            raise TypeError(f"only place/release events queue, got {kind!r}")
        self._counts.append(count)
        self._ats.append(at)
        self._kinds.append(kind)
        self._pending += count
        if self._pending > self.high_water:
            self.high_water = self._pending

    def oldest_age(self, now: float) -> float:
        """Seconds the head event has waited (0.0 when empty)."""
        if not self._ats:
            return 0.0
        return now - self._ats[0]

    def take(
        self, limit: Optional[int] = None
    ) -> tuple[list[int], list[float], int, int]:
        """Pop a FIFO prefix of up to ``limit`` balls (all, when None).

        Returns ``(counts, ats, places, releases)``: the prefix's event
        counts and submission times, in arrival order, and its place
        and release ball totals.  Always pops at least one event when
        non-empty, so a single event larger than ``limit`` still drains
        rather than wedging the queue.  When everything pending fits,
        the columns are handed over without copying.
        """
        counts, ats = self._counts, self._ats
        if limit is None or self._pending <= limit:
            taken = (counts, ats, self._pending_places, self._pending_releases)
            self._counts, self._ats, self._kinds = [], [], []
            self._pending = self._pending_places = self._pending_releases = 0
            return taken
        cut = balls = 0
        for count in counts:
            if cut and balls + count > limit:
                break
            balls += count
            cut += 1
        places = sum(
            count
            for count, kind in zip(counts[:cut], self._kinds[:cut])
            if kind == "place"
        )
        releases = balls - places
        batch = (counts[:cut], ats[:cut], places, releases)
        del counts[:cut], ats[:cut], self._kinds[:cut]
        self._pending -= balls
        self._pending_places -= places
        self._pending_releases -= releases
        return batch
