"""Per-layer tracing for the benchmark, installed from outside ``src/``.

A traced run wraps each layer's public functions at the attribute its
caller looks them up from (a module global, a class attribute, the
resolved kernel-backend instance, or the heavy dynamic adapter's
registry ``.runner``), keeps a span stack while they run, and restores
every attribute on exit.  A layer's self time is its span's duration
minus the time its child spans cover.

Per-op service calls (``place``/``release``, admission, queue pushes)
run hundreds of thousands of times per run, so they only add to
counters; every other call is also kept as a span for the Chrome trace.
The wrappers time their own bookkeeping after each call into the
``bench.tracer`` layer, and the interpreter's garbage collections into
``python.gc`` (out of whichever layer they interrupted), so both are
counted rather than left unexplained.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Self-time shares reported per layer, in report order.  A layer is
#: named after the module that owns the wrapped functions.
SHARE_LAYERS = (
    "api",
    "core.loop",
    "roundstate.sample",
    "roundstate.group",
    "roundstate.commit",
    "backend.grouped_accept",
    "backend.scatter_counts",
    "backend.sort_accepts",
    "light.handoff",
    "dynamic.depart",
    "service.submit",
    "service.admission",
    "service.queue",
    "service.flush",
)
#: The tracer's own bookkeeping, reported as ``bench.tracer.share``.
TRACER_LAYER = "bench.tracer"
#: Garbage-collection pauses, reported as ``python.gc.share``.
GC_LAYER = "python.gc"


def _contacts(counts, args):
    counts["contacts"] += args[0].size


def _stragglers(counts, args):
    counts["stragglers"] += args[0]


def _cohorts(counts, args):
    counts["cohorts"] += len(args[0].cohorts)


def targets():
    """``(layer, owner, attribute, keep_span, note)`` for every wrapped
    function.  ``note(counts, args)`` runs before the call."""
    import repro
    from repro.api.spec import get_dynamic
    from repro.core import heavy
    from repro.dynamic.state import ResidentState
    from repro.fastpath.backend import resolve_backend
    from repro.fastpath.roundstate import RoundState
    from repro.service.admission import GapSloController
    from repro.service.events import EventQueue
    from repro.service.server import AllocatorService

    backend = resolve_backend()
    return [
        ("api", repro, "allocate", True, None),
        ("api", repro, "replicate", True, None),
        ("api", repro, "run_dynamic", True, None),
        ("api", AllocatorService, "tick", False, None),
        ("api", AllocatorService, "drain", True, None),
        ("service.submit", AllocatorService, "place", False, None),
        ("service.submit", AllocatorService, "release", False, None),
        ("service.admission", GapSloController, "decide", False, None),
        ("service.queue", EventQueue, "push", False, None),
        ("service.queue", EventQueue, "take", False, None),
        ("service.flush", AllocatorService, "flush", True, None),
        ("dynamic.depart", ResidentState, "depart", True, _cohorts),
        ("core.loop", heavy, "run_threshold_protocol", True, None),
        ("core.loop", heavy, "run_threshold_protocol_batched", True, None),
        ("core.loop", get_dynamic("heavy"), "runner", True, None),
        ("light.handoff", heavy, "run_light_on_virtual_bins", True,
         _stragglers),
        ("roundstate.sample", RoundState, "sample_contacts", True, None),
        ("roundstate.group", RoundState, "group_and_accept", True, None),
        ("roundstate.commit", RoundState, "commit_and_revoke", True, None),
        ("backend.grouped_accept", backend,
         "grouped_accept_with_priorities", True, _contacts),
        ("backend.scatter_counts", backend, "scatter_counts", True, None),
        ("backend.sort_accepts", backend, "sort_accepts_by_position", True,
         None),
    ]


class Tracer:
    """Span stack with per-layer self time, call counts and counters."""

    def __init__(self) -> None:
        #: Per layer: ``[self seconds, calls]``.
        self._totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        self.counts: Counter = Counter()
        #: Kept spans: ``(id, name, start, end, parent_id)``, perf_counter
        #: seconds; ``parent_id`` is 0 under a counter-only call.
        self.spans: list[tuple] = []
        #: Open frames: ``[seconds covered by children, span id]``.
        self._stack: list[list] = []
        self._ids = itertools.count(1)

    def self_seconds(self, layer: str) -> float:
        return self._totals[layer][0]

    def calls(self, layer: str) -> int:
        return self._totals[layer][1]

    def attributed(self) -> float:
        return sum(total[0] for total in self._totals.values())

    def on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: a collection's pause is ``python.gc``
        time, taken out of the layer it interrupted."""
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        seconds = time.perf_counter() - self._gc_start
        self._totals[GC_LAYER][0] += seconds
        self._totals[GC_LAYER][1] += 1
        if self._stack:
            self._stack[-1][0] += seconds

    def wrap(self, fn, name: str, keep_span: bool, note):
        # Everything the wrapper touches is bound to a local: per-op
        # service calls pass through three wrappers.  The bookkeeping
        # after the call is timed into the ``bench.tracer`` layer rather
        # than left in the caller's self time.
        stack, ids, clock = self._stack, self._ids, time.perf_counter
        push, pop = stack.append, stack.pop
        total, counts, spans = self._totals[name], self.counts, self.spans
        tracer_total = self._totals[TRACER_LAYER]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            if note is not None:
                note(counts, args)
            frame = [0.0, next(ids) if keep_span else 0]
            push(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                total[0] += end - start - frame[0]
                total[1] += 1
                if keep_span:
                    spans.append((frame[1], name, start, end,
                                  stack[-1][1] if stack else 0))
                done = clock()
                tracer_total[0] += done - end
                if stack:
                    stack[-1][0] += done - start

        return wrapper

    def chrome_trace(self) -> dict:
        """The kept spans as a Chrome-trace object (microsecond times)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, name, start, end, parent in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:
        # Instances, including the frozen registry entries.
        object.__setattr__(owner, attr, value)


def _remove(owner, attr: str) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        delattr(owner, attr)
    else:
        object.__delattr__(owner, attr)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the ``with`` block, then restore each
    attribute exactly (an attribute that was inherited is deleted
    again rather than pinned)."""
    saved = []
    gc.callbacks.append(tracer.on_gc)
    try:
        for layer, owner, attr, keep_span, note in targets():
            own = vars(owner)
            original = own[attr] if attr in own else getattr(owner, attr)
            saved.append((owner, attr, attr in own, original))
            _assign(owner, attr, tracer.wrap(original, layer, keep_span, note))
        yield tracer
    finally:
        gc.callbacks.remove(tracer.on_gc)
        for owner, attr, was_own, original in reversed(saved):
            if was_own:
                _assign(owner, attr, original)
            else:
                _remove(owner, attr)


def report(tracer: Tracer, wall: float, units: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``wall`` is the traced wall time the shares divide; ``units`` is
    the number of entry-point calls (closed loops) or flushes (the
    service) that per-unit counts divide.
    """
    out = {f"{layer}.share": tracer.self_seconds(layer) / wall
           for layer in SHARE_LAYERS}
    contacts = tracer.counts["contacts"]
    out["backend.grouped_accept.ns_per_contact"] = (
        tracer.self_seconds("backend.grouped_accept") * 1e9 / contacts
        if contacts else 0.0
    )
    out["core.rounds"] = tracer.calls("roundstate.commit") / units
    out["light.stragglers"] = tracer.counts["stragglers"] / units
    departs = tracer.calls("dynamic.depart")
    out["dynamic.depart.cohorts_mean"] = (
        tracer.counts["cohorts"] / departs if departs else 0.0
    )
    out["python.gc.share"] = tracer.self_seconds(GC_LAYER) / wall
    out["bench.tracer.share"] = tracer.self_seconds(TRACER_LAYER) / wall
    out["bench.coverage"] = tracer.attributed() / wall
    return out
