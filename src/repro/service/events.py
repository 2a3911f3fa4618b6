"""Ingest layer of the allocator service: events, clock, bounded queue.

The service speaks three event kinds:

* :class:`Place` — ``count`` new balls ask to enter the system;
* :class:`Release` — ``count`` resident balls leave.  Releases are
  *anonymous*: the dynamic engine tracks residents at bin
  granularity (:class:`~repro.dynamic.state.ResidentState`), so which
  balls leave is decided by the service's departure policy when the
  batch flushes, exactly as in :func:`repro.run_dynamic`;
* :class:`Query` — a read-only stats request; never queued, never
  draws randomness, never forces an epoch.

Pending ``Place``/``Release`` events accumulate in an
:class:`EventQueue` — bounded in *balls*, not event objects, so a
single ``Place(count=10_000)`` burst and ten thousand unit events
exert the same backpressure.  The queue knows nothing about
processing; the service flushes it onto the incremental-rebalance
path when a **watermark** trips:

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
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Optional

__all__ = [
    "Clock",
    "Event",
    "EventQueue",
    "Place",
    "Query",
    "Release",
    "SimulatedClock",
    "WallClock",
]


@dataclass(frozen=True)
class Event:
    """One timestamped ingest event.

    ``at`` is the submission time on the service's clock; latency of
    every ball the event carries is measured from it.
    """

    count: int
    at: float

    kind: str = field(init=False, default="event")

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"event count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class Place(Event):
    """``count`` new balls arriving."""

    kind: str = field(init=False, default="place")


@dataclass(frozen=True)
class Release(Event):
    """``count`` resident balls departing (policy-sampled at flush)."""

    kind: str = field(init=False, default="release")


@dataclass(frozen=True)
class Query(Event):
    """A read-only stats request (count is the conventional 1)."""

    kind: str = field(init=False, default="query")


class Clock:
    """The service's time source; subclasses define ``now()``."""

    def now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError


class WallClock(Clock):
    """Monotonic wall time (``time.perf_counter``) for live service."""

    def now(self) -> float:
        return time.perf_counter()


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
    """Bounded FIFO of pending ``Place``/``Release`` events.

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
        self._events: deque[Event] = deque()
        self._pending = 0
        self._pending_places = 0
        self._pending_releases = 0
        #: Most balls ever pending at once — the queue-depth high-water
        #: mark ``ServiceStats`` reports.  Deterministic bookkeeping
        #: (no clock, no RNG), so it is maintained unconditionally.
        self.high_water = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

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

    def fits(self, event: Event) -> bool:
        """True when the event's balls fit under the capacity."""
        return self._pending + event.count <= self.capacity

    def push(self, event: Event) -> None:
        """Enqueue; raises ``OverflowError`` when a **place** would
        exceed capacity (the admission policy sheds before this
        triggers).  **Releases spill past the bound**: a departure
        strictly reduces load, and shedding one would leak its balls'
        occupancy forever — the resident population would permanently
        exceed what the outside world believes is in the system.  The
        capacity is a backpressure bound on *work admitted*, not on
        bookkeeping that shrinks the system."""
        if event.kind != "release" and not self.fits(event):
            raise OverflowError(
                f"queue over capacity: {self._pending} pending + "
                f"{event.count} > {self.capacity}"
            )
        self._events.append(event)
        self._pending += event.count
        if self._pending > self.high_water:
            self.high_water = self._pending
        if event.kind == "place":
            self._pending_places += event.count
        elif event.kind == "release":
            self._pending_releases += event.count
        else:
            raise TypeError(
                f"only place/release events queue, got {event.kind!r}"
            )

    def oldest_age(self, now: float) -> float:
        """Seconds the head event has waited (0.0 when empty)."""
        if not self._events:
            return 0.0
        return now - self._events[0].at

    def take(self, limit: Optional[int] = None) -> list[Event]:
        """Pop a FIFO prefix of up to ``limit`` balls (all, when None).

        Always pops at least one event when non-empty, so a single
        event larger than ``limit`` still drains rather than wedging
        the queue.
        """
        batch: list[Event] = []
        taken = 0
        while self._events:
            head = self._events[0]
            if batch and limit is not None and taken + head.count > limit:
                break
            batch.append(self._events.popleft())
            taken += head.count
            self._pending -= head.count
            if head.kind == "place":
                self._pending_places -= head.count
            else:
                self._pending_releases -= head.count
        return batch
