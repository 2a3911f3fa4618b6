"""The continuous-time allocation service.

Where :mod:`repro.dynamic` runs churn as a closed-loop epoch script,
this subsystem runs it as a **server**: a long-lived
:class:`AllocatorService` ingests ``place``/``release`` events through
a bounded columnar queue (:class:`EventQueue`: counts, timestamps and
kinds, so an event costs a few list appends rather than an object),
micro-batches them by count/age watermarks, and flushes each batch
onto the incremental-rebalance path — one dynamic epoch per batch,
seeds spawned in ``run_dynamic`` order so a count-matched stream
reproduces ``run_dynamic`` bitwise, epoch for epoch.  An admission
policy (:class:`AdmissionPolicy`) guards the queue: accept, defer
(micro-batches widen while the gap SLO or per-epoch message budget is
threatened), or shed.

Entry points: :class:`AllocatorService` (programmatic, sync or via
:func:`serve_queue` asyncio ingest), :func:`simulate_service` /
``python -m repro serve --simulate`` (deterministic open-loop driver
over a :class:`~repro.dynamic.DynamicSpec` regime), and
``benchmark_service`` in :mod:`repro.api.bench` backing the
checked-in ``BENCH_service.json``.  ``docs/service.md`` documents the
architecture and the bitwise-replay guarantee.
"""

from repro.service.admission import (
    ACCEPT,
    DEFER,
    SHED,
    AdmissionPolicy,
    GapSloController,
)
from repro.service.driver import ServiceReport, simulate_service
from repro.service.events import (
    Clock,
    EventQueue,
    SimulatedClock,
    WallClock,
)
from repro.service.server import (
    AllocatorService,
    BatchRecord,
    ServiceStats,
    replay_trace,
    serve_queue,
)

__all__ = [
    "ACCEPT",
    "DEFER",
    "SHED",
    "AdmissionPolicy",
    "AllocatorService",
    "BatchRecord",
    "Clock",
    "EventQueue",
    "GapSloController",
    "ServiceReport",
    "ServiceStats",
    "SimulatedClock",
    "WallClock",
    "replay_trace",
    "serve_queue",
    "simulate_service",
]
