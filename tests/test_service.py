"""Tests for the continuous-time allocation service (repro.service).

The acceptance pin lives in ``TestBitwisePin``: every service
micro-batch must be bitwise-identical to the corresponding
``run_dynamic`` epoch on the same root seed — the SeedSequence
children line up batch-for-epoch, so loads, messages, rounds, and the
departure draws all agree exactly.
"""

import asyncio
import json
import sys
import zlib
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Telemetry, use_telemetry
from repro.dynamic import DynamicSpec, run_dynamic
from repro.service import (
    ACCEPT,
    DEFER,
    SHED,
    AdmissionPolicy,
    AllocatorService,
    EventQueue,
    GapSloController,
    SimulatedClock,
    WallClock,
    replay_trace,
    serve_queue,
    simulate_service,
)


# ---------------------------------------------------------------------------
# ingest layer
# ---------------------------------------------------------------------------


class TestEvents:
    def test_kinds(self):
        q = EventQueue(10)
        q.push("place", 3, 0.0)
        q.push("release", 2, 1.0)
        assert (q.pending_places, q.pending_releases) == (3, 2)

    def test_count_validated(self):
        svc = AllocatorService("heavy", 16, seed=1, clock=SimulatedClock())
        with pytest.raises(ValueError, match="count"):
            svc.place(0)
        with pytest.raises(ValueError, match="count"):
            svc.release(-1)


class TestClocks:
    def test_wall_clock_monotone(self):
        clock = WallClock()
        assert clock.now() <= clock.now()

    def test_simulated_clock(self):
        clock = SimulatedClock()
        assert clock.now() == 0.0
        assert clock.advance(1.5) == 1.5
        assert clock.advance_to(4.0) == 4.0
        assert clock.now() == 4.0

    def test_simulated_clock_never_backward(self):
        clock = SimulatedClock(start=2.0)
        with pytest.raises(ValueError, match="advance"):
            clock.advance(-1.0)
        with pytest.raises(ValueError, match="backward"):
            clock.advance_to(1.0)


class TestEventQueue:
    def test_capacity_in_balls(self):
        q = EventQueue(10)
        q.push("place", 6, 0.0)
        assert q.pending == 6 and q.pending_places == 6
        with pytest.raises(OverflowError, match="capacity"):
            q.push("place", 5, 0.0)
        q.push("release", 4, 0.0)
        assert q.pending == 10 and q.pending_releases == 4
        assert q.depth == 1.0

    def test_query_events_never_queue(self):
        q = EventQueue(10)
        with pytest.raises(TypeError, match="place/release"):
            q.push("query", 1, 0.0)
        assert len(q) == 0 and q.pending == q.high_water == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            EventQueue(0)

    def test_take_fifo_prefix(self):
        q = EventQueue(100)
        for i in range(5):
            q.push("place" if i % 2 else "release", 2, float(i))
        counts, ats, places, releases = q.take(5)
        # 2 + 2 fit under 5; the third event would exceed it.
        assert ats == [0.0, 1.0]
        assert (counts, places, releases) == ([2, 2], 2, 2)
        assert q.pending == 6 and len(q) == 3
        assert (q.pending_places, q.pending_releases) == (2, 4)
        assert q.take(None)[0] and q.pending == 0

    def test_take_oversized_event_still_drains(self):
        q = EventQueue(100)
        q.push("place", 50, 0.0)
        counts, _, places, _ = q.take(10)
        assert counts == [50] and places == 50
        assert q.pending == 0

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(["place", "release"]), st.integers(1, 9)),
        st.none() | st.integers(0, 20),
    ), max_size=60))
    def test_take_matches_fifo_reference(self, ops):
        # The event-by-event rule as the reference: pop whole events
        # while they fit under ``limit``, and always at least one.
        q, ref = EventQueue(10**6), deque()
        for i, op in enumerate(ops):
            if isinstance(op, tuple):
                q.push(op[0], op[1], float(i))
                ref.append((*op, float(i)))
                continue
            batch = []
            while ref and not (
                batch and op is not None
                and sum(e[1] for e in batch) + ref[0][1] > op
            ):
                batch.append(ref.popleft())
            counts, ats, places, releases = q.take(op)
            assert counts == [e[1] for e in batch]
            assert ats == [e[2] for e in batch]
            assert places == sum(e[1] for e in batch if e[0] == "place")
            assert releases == sum(e[1] for e in batch if e[0] == "release")
            assert len(q) == len(ref)
            assert q.pending_places == sum(
                e[1] for e in ref if e[0] == "place"
            )
            assert q.pending_releases == sum(
                e[1] for e in ref if e[0] == "release"
            )

    def test_oldest_age(self):
        q = EventQueue(10)
        assert q.oldest_age(5.0) == 0.0
        q.push("place", 1, 2.0)
        q.push("place", 1, 4.0)
        assert q.oldest_age(5.0) == 3.0


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TestAdmissionPolicy:
    def test_defaults_valid(self):
        AdmissionPolicy()
        AdmissionPolicy(gap_slo=4.0, message_budget=50.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"gap_slo": 0.0},
            {"gap_slo": -1.0},
            {"shed_headroom": -0.1},
            {"defer_depth": 0.0},
            {"defer_depth": 1.5},
            {"message_budget": 0.0},
            {"max_widen": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionPolicy(**kwargs)


class TestGapSloController:
    def _queue(self, capacity=100, pending=0):
        q = EventQueue(capacity)
        if pending:
            q.push("place", pending, 0.0)
        return q

    def test_overflow_sheds_places_only(self):
        ctrl = GapSloController(AdmissionPolicy())
        q = self._queue(capacity=10, pending=8)
        assert ctrl.decide("place", 5, q) == SHED
        # Releases spill past the bound: shedding one would leak
        # occupancy forever (the PR-9 overflow fix).
        assert ctrl.decide("release", 5, q) == ACCEPT
        # Fits under capacity, but at 80% depth the policy defers.
        assert ctrl.decide("place", 2, q) == DEFER

    def test_releases_never_gap_shed(self):
        ctrl = GapSloController(AdmissionPolicy(gap_slo=2.0))
        ctrl.observe(gap=99.0, messages=0, processed=1)
        q = self._queue()
        assert ctrl.decide("place", 1, q) == SHED
        assert ctrl.decide("release", 1, q) == ACCEPT

    def test_gap_slo_defer_then_shed(self):
        ctrl = GapSloController(
            AdmissionPolicy(gap_slo=4.0, shed_headroom=4.0)
        )
        q = self._queue()
        assert ctrl.decide("place", 1, q) == ACCEPT  # no observation yet
        ctrl.observe(gap=5.0, messages=10, processed=10)
        assert ctrl.decide("place", 1, q) == DEFER
        ctrl.observe(gap=9.0, messages=10, processed=10)
        assert ctrl.decide("place", 1, q) == SHED

    def test_widen_doubles_and_decays(self):
        policy = AdmissionPolicy(gap_slo=4.0, max_widen=4)
        ctrl = GapSloController(policy)
        ctrl.observe(gap=5.0, messages=0, processed=1)
        assert ctrl.widen == 2
        ctrl.observe(gap=5.0, messages=0, processed=1)
        assert ctrl.widen == 4
        ctrl.observe(gap=5.0, messages=0, processed=1)
        assert ctrl.widen == 4  # capped
        ctrl.observe(gap=1.0, messages=0, processed=1)
        assert ctrl.widen == 2
        ctrl.observe(gap=1.0, messages=0, processed=1)
        assert ctrl.widen == 1

    def test_message_budget_widens(self):
        ctrl = GapSloController(AdmissionPolicy(message_budget=10.0))
        ctrl.observe(gap=0.0, messages=1000, processed=10)
        assert ctrl.widen == 2
        assert ctrl.last_cost == 100.0

    def test_queue_depth_defers(self):
        ctrl = GapSloController(AdmissionPolicy(defer_depth=0.5))
        assert ctrl.decide("place", 1, self._queue(100, 60)) == DEFER
        assert ctrl.decide("place", 1, self._queue(100, 10)) == ACCEPT


# ---------------------------------------------------------------------------
# the acceptance pin: micro-batches == run_dynamic epochs, bitwise
# ---------------------------------------------------------------------------


class TestBitwisePin:
    """Each flushed micro-batch is bitwise-identical to the matching
    ``run_dynamic`` epoch on the same root seed."""

    M, N, SEED = 6000, 32, 21
    SPEC = DynamicSpec(epochs=5, churn=0.1, arrivals="bursty")

    def _pin(self, algorithm, **service_kwargs):
        dyn = run_dynamic(
            algorithm, self.M, self.N, seed=self.SEED, spec=self.SPEC
        )
        svc = AllocatorService(
            algorithm,
            self.N,
            seed=self.SEED,
            max_batch=10**9,  # no count watermark: flush() sets bounds
            clock=SimulatedClock(),
            **service_kwargs,
        )
        svc.place(self.M)
        records = [svc.flush()]
        loads_ok = [
            np.array_equal(svc.residents.loads, dyn.loads_history[0])
        ]
        for epoch in range(1, self.SPEC.epochs + 1):
            count = min(
                self.SPEC.arrival_count(epoch, self.M), svc.population
            )
            svc.release(count)
            svc.place(count)
            records.append(svc.flush())
            loads_ok.append(
                np.array_equal(
                    svc.residents.loads, dyn.loads_history[epoch]
                )
            )
        assert all(loads_ok)
        assert np.array_equal(svc.residents.loads, dyn.loads)
        for batch, epoch in zip(records, dyn.records):
            assert batch.places == epoch.arrivals
            assert batch.released == epoch.departures
            assert batch.placed == epoch.placed
            assert batch.moved == epoch.moved
            assert batch.rounds == epoch.rounds
            assert batch.messages == epoch.messages
            assert batch.population == epoch.population
            assert batch.max_load == epoch.max_load
            assert batch.gap == epoch.gap

    def test_heavy_batches_match_epochs(self):
        self._pin("heavy")

    def test_single_batches_match_epochs(self):
        self._pin("single")

    def test_stemann_batches_match_epochs(self):
        self._pin("stemann")

    def test_workload_cohorts_match(self):
        dyn = run_dynamic(
            "heavy",
            4000,
            32,
            seed=3,
            spec=DynamicSpec(epochs=3, churn=0.1),
            workload="zipf:1.2",
        )
        svc = AllocatorService(
            "heavy",
            32,
            seed=3,
            max_batch=10**9,
            clock=SimulatedClock(),
            workload="zipf:1.2",
        )
        svc.place(4000)
        svc.flush()
        for epoch in range(1, 4):
            count = DynamicSpec(epochs=3, churn=0.1).arrival_count(
                epoch, 4000
            )
            svc.release(count)
            svc.place(count)
            svc.flush()
        assert np.array_equal(svc.residents.loads, dyn.loads)

    def test_driver_report_matches_run_dynamic(self):
        """The open-loop driver at default sizing converges on one
        batch per interval and reproduces run_dynamic exactly."""
        report = simulate_service(
            "heavy", 4000, 32, seed=7, spec=self.SPEC
        )
        dyn = run_dynamic("heavy", 4000, 32, seed=7, spec=self.SPEC)
        assert report.stats.batches == self.SPEC.epochs + 1
        assert [r.messages for r in report.records] == [
            e.messages for e in dyn.records
        ]
        assert report.gaps == [e.gap for e in dyn.records]
        assert [r.population for r in report.records] == [
            e.population for e in dyn.records
        ]


# ---------------------------------------------------------------------------
# service behavior and edge cases
# ---------------------------------------------------------------------------


class TestServiceEdgeCases:
    def _service(self, **kwargs):
        kwargs.setdefault("seed", 5)
        kwargs.setdefault("clock", SimulatedClock())
        return AllocatorService("heavy", 16, **kwargs)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="n >= 1"):
            AllocatorService("heavy", 0)
        with pytest.raises(ValueError, match="max_batch"):
            AllocatorService("heavy", 16, max_batch=0)
        with pytest.raises(ValueError, match="max_wait"):
            AllocatorService("heavy", 16, max_wait=-1.0)
        with pytest.raises(ValueError, match="departure"):
            AllocatorService("heavy", 16, departures="nope")
        with pytest.raises(ValueError, match="dynamic-capable"):
            AllocatorService("greedy", 16)

    @pytest.mark.parametrize("hot_frac", [0.0, 1.0, 1.5, -1.0, float("nan")])
    def test_hot_frac_rejected_at_construction(self, hot_frac):
        # Both entry points reject what DynamicSpec rejects, with its
        # message, before a seed is spawned: no service exists to queue
        # events, so no later flush can lose a taken batch.
        message = r"hot_frac must lie strictly in \(0, 1\)"
        root = np.random.SeedSequence(5)
        with pytest.raises(ValueError, match=message):
            AllocatorService(
                "heavy", 16, seed=root, departures="hotset",
                hot_frac=hot_frac,
            )
        with pytest.raises(ValueError, match=message):
            run_dynamic(
                "heavy", 1000, 16, seed=root, departures="hotset",
                hot_frac=hot_frac,
            )
        assert root.n_children_spawned == 0

    @pytest.mark.parametrize(
        "algorithm, options, name",
        [
            ("heavy", {"settle_rounds": -1}, "settle_rounds"),
            ("heavy", {"mode": "bogus"}, "mode"),
            ("combined", {"mode": "bogus"}, "mode"),
            ("single", {"mode": "bogus"}, "mode"),
            ("stemann", {"collision_factor": 1.0}, "collision_factor"),
        ],
    )
    def test_bad_option_value_rejected_at_construction(
        self, algorithm, options, name
    ):
        # The constructor places an empty cohort, and every adapter
        # checks its option values before its empty-cohort return: a
        # bad value fails here, not at the first flush after the queue
        # has given up its batch.
        root = np.random.SeedSequence(5)
        with pytest.raises(ValueError, match=name):
            AllocatorService(algorithm, 16, seed=root, **options)
        assert root.n_children_spawned == 0

    def test_queue_overflow_sheds(self):
        svc = self._service(max_batch=1000, max_queue=100, auto_flush=False)
        assert svc.place(80) == ACCEPT
        assert svc.place(50) == SHED
        assert svc.queue.pending == 80
        stats = svc.stats()
        assert stats.shed == 50 and stats.accepted == 80
        assert stats.shed_rate == pytest.approx(50 / 130)

    def test_idle_ticks_are_strict_noops(self):
        svc = self._service()
        before = svc._root.n_children_spawned
        for t in (1.0, 2.0, 3.0):
            assert svc.tick(t) is None
        assert svc._root.n_children_spawned == before == 0
        assert svc.records == []
        assert svc.queue.pending == 0

    def test_idle_ticks_do_not_perturb_results(self):
        def run(idle):
            svc = self._service(max_batch=10**9)
            svc.place(500)
            svc.flush()
            if idle:
                for t in (1.0, 2.0, 3.0):
                    svc.tick(t)
            svc.release(50)
            svc.place(50)
            svc.flush()
            return svc

        quiet, busy = run(idle=False), run(idle=True)
        assert np.array_equal(
            quiet.residents.loads, busy.residents.loads
        )
        assert [r.messages for r in quiet.records] == [
            r.messages for r in busy.records
        ]

    def test_age_watermark_flushes_on_tick(self):
        svc = self._service(max_batch=10**9, max_wait=1.0)
        svc.place(100)
        assert svc.tick(0.5) is None  # too young
        record = svc.tick(1.5)
        assert record is not None and record.places == 100

    def test_count_watermark_auto_flushes(self):
        svc = self._service(max_batch=50)
        svc.place(30)
        assert svc.records == []
        svc.place(30)
        # Pending hit the watermark; the batch is the FIFO prefix that
        # fits (events are never split), the rest stays queued.
        assert len(svc.records) == 1
        assert svc.records[0].places == 30
        assert svc.queue.pending == 30

    def test_drain_equals_eager_bitwise(self):
        def submit(svc):
            for _ in range(8):
                svc.place(25)

        eager = self._service(max_batch=50)
        submit(eager)  # auto-flush: one batch per 50 balls
        deferred = self._service(max_batch=50, auto_flush=False)
        submit(deferred)
        assert deferred.records == []
        deferred.drain()
        assert len(eager.records) == len(deferred.records) == 4
        assert np.array_equal(
            eager.residents.loads, deferred.residents.loads
        )
        for a, b in zip(eager.records, deferred.records):
            assert a.messages == b.messages
            assert a.places == b.places
            assert a.max_load == b.max_load

    def test_uniform_service_keeps_no_cohorts_as_it_ages(self):
        # Uniform departures never read ball ages, so the resident state
        # stays the (n,) loads however many flushes the service makes.
        svc = self._service(max_batch=32)
        svc.place(1600)
        for _ in range(200):
            svc.release(16)
            svc.place(16)  # the count watermark flushes every pair
        assert len(svc.records) == 201
        assert svc.residents.cohorts == []
        assert svc.population == 1600

    def test_release_clamped_to_population(self):
        svc = self._service(max_batch=10**9)
        svc.place(100)
        svc.flush()
        svc.release(500)
        record = svc.flush()
        assert record.released == 100 and record.population == 0
        assert svc.stats().dropped_releases == 400

    def test_flush_empty_queue_returns_none(self):
        svc = self._service()
        assert svc.flush() is None
        assert svc._root.n_children_spawned == 0

    def test_query_never_flushes(self):
        svc = self._service(max_batch=10**9)
        svc.place(10)
        snap = svc.query()
        assert snap["queue_pending"] == 10
        assert snap["population"] == 0 and snap["batches"] == 0
        assert svc._root.n_children_spawned == 0

    def test_latency_accounting(self):
        clock = SimulatedClock()
        svc = self._service(clock=clock, max_batch=10**9)
        svc.place(10)
        clock.advance_to(2.0)
        svc.place(10)
        clock.advance_to(3.0)
        record = svc.flush()
        assert record.latency_max == pytest.approx(3.0)
        assert record.latency_mean == pytest.approx(2.0)
        stats = svc.stats()
        assert stats.latency["p50"] <= stats.latency["p95"]
        assert stats.latency_max == pytest.approx(3.0)

    def test_gap_shedding_under_slo_pressure(self):
        # n=16, gap_slo tiny: after the fill the observed gap exceeds
        # slo + headroom, so subsequent places shed while releases pass.
        svc = self._service(
            max_batch=10**9,
            policy=AdmissionPolicy(gap_slo=0.01, shed_headroom=0.0),
        )
        svc.place(1000)
        svc.flush()
        assert svc.gap > 0.01
        assert svc.place(10) == SHED
        assert svc.release(10) == ACCEPT
        assert svc.stats().shed == 10

    def test_widened_batches_defer_and_amortize(self):
        svc = self._service(
            max_batch=20,
            policy=AdmissionPolicy(gap_slo=0.01, shed_headroom=100.0),
        )
        svc.place(20)  # fill; gap now exceeds the (absurd) SLO
        assert svc.controller.widen == 2
        assert svc.batch_limit == 40
        decision = svc.place(10)
        assert decision == DEFER
        assert svc.stats().deferred == 10


class TestCountValidation:
    """A bad ``count`` raises before the trace, admission, telemetry or
    the queue see the op, whatever admission would have decided."""

    @staticmethod
    def _service(decision):
        svc = AllocatorService(
            "heavy", 16, seed=5, clock=SimulatedClock(), max_batch=10**9,
            max_queue=100, auto_flush=False,
            policy=AdmissionPolicy(gap_slo=0.01, shed_headroom=0.0)
            if decision == SHED else None,
        )
        if decision == SHED:
            svc.place(81)
            svc.flush()  # the gap is now past the emergency line
        elif decision == DEFER:
            svc.place(60)  # the queue is past defer_depth
        assert svc.controller.decide("place", 1, svc.queue) == decision
        return svc

    @staticmethod
    def _snapshot(svc, tele):
        return (
            list(svc.trace),
            svc.stats().to_dict(),
            svc.queue.pending,
            [(m.name, m.labels, m.value) for m in tele.metrics
             if hasattr(m, "value")],
        )

    @pytest.mark.parametrize("decision", [ACCEPT, DEFER, SHED])
    @pytest.mark.parametrize("count", [0, -3, 2.5, True])
    def test_bad_count_leaves_service_untouched(self, decision, count):
        tele = Telemetry()
        with use_telemetry(tele):
            svc = self._service(decision)
            before = self._snapshot(svc, tele)
            for submit in (svc.place, svc.release):
                with pytest.raises((TypeError, ValueError), match="count"):
                    submit(count)
            assert self._snapshot(svc, tele) == before

    def test_stream_with_rejected_call_replays_bitwise(self):
        clock = SimulatedClock()
        svc = AllocatorService(
            "heavy", 16, seed=11, max_batch=64, clock=clock
        )
        svc.place(200)
        clock.advance(0.5)
        svc.release(3)
        with pytest.raises(ValueError, match="count"):
            svc.release(0)
        with pytest.raises(TypeError, match="count"):
            svc.place(2.5)
        svc.place(3)
        svc.drain()
        replay = replay_trace(svc.trace, "heavy", 16, seed=11, max_batch=64)
        assert replay.trace == svc.trace
        assert np.array_equal(replay.residents.loads, svc.residents.loads)
        assert [r.messages for r in replay.records] == [
            r.messages for r in svc.records
        ]

    def test_flush_after_rejected_call_places_every_valid_ball(self):
        svc = AllocatorService(
            "heavy", 16, seed=5, clock=SimulatedClock(), max_batch=10**9
        )
        svc.place(40)
        svc.flush()
        svc.release(5)
        svc.place(7)
        with pytest.raises(TypeError, match="count"):
            svc.place(2.5)
        svc.place(np.int64(3))
        assert svc.trace[-1][:2] == ("place", 3)
        assert type(svc.trace[-1][1]) is int
        record = svc.flush()
        assert (record.places, record.placed, record.released) == (10, 10, 5)
        assert svc.population == 45


class TestReplayDeterminism:
    def _drive(self):
        clock = SimulatedClock()
        svc = AllocatorService(
            "heavy", 16, seed=11, max_batch=64, clock=clock,
            max_wait=1.0,
        )
        svc.place(200)
        svc.tick(1.5)
        for i in range(10):
            clock.advance_to(2.0 + i * 0.1)
            svc.release(3)
            svc.place(3)
        svc.tick(4.0)
        svc.flush(all_pending=True)
        svc.place(40)
        svc.drain()
        return svc

    def test_replay_trace_bitwise(self):
        original = self._drive()
        replays = [
            replay_trace(
                original.trace, "heavy", 16, seed=11, max_batch=64,
                max_wait=1.0,
            )
            for _ in range(2)
        ]
        def comparable(service):
            # Everything but the wall-clock processing time replays
            # bitwise (``seconds`` measures this machine, not the run).
            return [
                {k: v for k, v in r.to_dict().items() if k != "seconds"}
                for r in service.records
            ]

        for replay in replays:
            assert np.array_equal(
                replay.residents.loads, original.residents.loads
            )
            assert comparable(replay) == comparable(original)
            assert _event_latencies(replay) == _event_latencies(original)
            assert replay.trace == original.trace

    def test_replay_rejects_caller_clock(self):
        with pytest.raises(ValueError, match="clock"):
            replay_trace([], "heavy", 16, clock=SimulatedClock())

    def test_replay_rejects_corrupt_trace(self):
        with pytest.raises(ValueError, match="unknown trace op"):
            replay_trace([("warp", 1, 0.0)], "heavy", 16, seed=1)


# ---------------------------------------------------------------------------
# stream pin: every deterministic output of one mixed stream, as literals
# ---------------------------------------------------------------------------


def _pinned_stream(auto_flush):
    """One simulated-clock stream covering the ingest paths: a bulk fill,
    unit release/place pairs, count-watermark flushes (a partial take
    when the watermark trips on a prefix), ticks on both sides of the
    age watermark, overflow and gap sheds, defers, explicit flushes and
    a release clamped to the population.  With ``auto_flush=False`` each
    ``drain()`` takes several ``batch_limit`` chunks."""
    clock = SimulatedClock()
    svc = AllocatorService(
        "heavy", 16, seed=29, max_batch=64, max_wait=0.75, max_queue=1024,
        clock=clock, auto_flush=auto_flush,
        policy=AdmissionPolicy(gap_slo=1.5, shed_headroom=0.5),
    )
    svc.place(500)
    for _ in range(40):
        clock.advance(0.013)
        svc.release(1)
        clock.advance(0.007)
        svc.place(1)
    for _ in range(3):
        clock.advance(0.1)
        svc.place(30)
    svc.tick(clock.now() + 0.3)
    svc.tick(clock.now() + 1.1)
    svc.place(2000)
    for i in range(60):
        clock.advance(0.011)
        svc.place(3)
        if i % 3 == 0:
            svc.release(2)
    svc.flush()
    clock.advance(0.25)
    svc.flush(all_pending=True)
    for i in range(50):
        clock.advance(0.017)
        svc.place(1 + i % 4)
    clock.advance(0.3)
    svc.release(5000)
    svc.tick(clock.now() + 0.2)
    svc.drain()
    for _ in range(20):
        clock.advance(0.009)
        svc.place(7)
    svc.drain()
    return svc


def _crc(obj) -> int:
    # json writes every float as its shortest round-trip repr, so equal
    # crc32s mean bitwise-equal values.
    return zlib.crc32(json.dumps(obj, sort_keys=True, default=int).encode())


def _event_latencies(svc):
    """``(latency, count)`` of every processed event, in flush order."""
    return [
        pair
        for lats, counts in svc._latencies
        for pair in zip(lats.tolist(), counts.tolist())
    ]


class TestStreamPin:
    """Records (all but the wall-time ``seconds``), ``stats()`` (all but
    its wall-time fields), the per-event latencies, the audit trace and
    the final loads of ``_pinned_stream`` are pinned as crc32 literals.

    ``latency_mean`` of a record is the left-to-right builtin ``sum`` of
    ``latency * count`` over its events, divided by its balls.  Python
    3.12 made ``sum`` of floats compensated, so its literal is pinned
    below 3.12 only; on every version it must equal that loop, run here
    over the pinned latencies.  numpy's pairwise ``.sum()`` differs from
    it in the last bits on this stream."""

    PIN = {
        True: {
            "records": 2008085939, "latency_mean": 3266239952,
            "latencies": 3314464824, "stats": 975998998,
            "trace": 1819248855, "loads": 4212156321,
        },
        False: {
            "records": 2297349932, "latency_mean": 1217489649,
            "latencies": 659861142, "stats": 1374947404,
            "trace": 1819248855, "loads": 612136220,
        },
    }
    WALL_STATS = ("busy_seconds", "ops_per_sec", "flush_latency")

    @pytest.mark.parametrize("auto_flush", [True, False])
    def test_stream_outputs_pinned(self, auto_flush):
        svc = _pinned_stream(auto_flush)
        pin = self.PIN[auto_flush]
        records = [
            {k: v for k, v in r.to_dict().items() if k != "seconds"}
            for r in svc.records
        ]
        means = [r.pop("latency_mean") for r in records]
        stats = {
            k: v for k, v in svc.stats().to_dict().items()
            if k not in self.WALL_STATS
        }
        latencies = _event_latencies(svc)
        assert _crc(records) == pin["records"]
        assert _crc(latencies) == pin["latencies"]
        assert _crc(stats) == pin["stats"]
        assert _crc(svc.trace) == pin["trace"]
        assert _crc(svc.residents.loads.tolist()) == pin["loads"]
        if sys.version_info < (3, 12):
            assert _crc(means) == pin["latency_mean"]
        start = 0
        for record, mean in zip(svc.records, means):
            events = latencies[start:start + record.events]
            start += record.events
            balls = sum(c for _, c in events)
            assert mean == sum(l * c for l, c in events) / balls
        assert start == len(latencies)


class TestServeQueue:
    def test_asyncio_ingest_matches_sync(self):
        async def drive():
            # max_batch=300: the fill flushes on arrival, so the later
            # releases depart from a populated system.
            svc = AllocatorService("heavy", 16, seed=9, max_batch=300)
            queue = asyncio.Queue()
            for item in [("place", 300), ("release", 30), ("place", 30)]:
                queue.put_nowait(item)
            queue.put_nowait(None)
            return svc, await serve_queue(svc, queue)

        svc, stats = asyncio.run(drive())
        assert stats.processed_places == 330
        assert stats.processed_releases == 30
        sync = AllocatorService("heavy", 16, seed=9, max_batch=300)
        sync.place(300)
        sync.release(30)
        sync.place(30)
        sync.drain()
        assert np.array_equal(svc.residents.loads, sync.residents.loads)

    def test_idle_polls_tick_then_sentinel_drains(self):
        async def drive():
            svc = AllocatorService("heavy", 16, seed=9, max_batch=10**9)
            queue = asyncio.Queue()
            svc.place(50)

            async def stop_later():
                await asyncio.sleep(0.05)
                queue.put_nowait(None)

            task = asyncio.ensure_future(stop_later())
            stats = await serve_queue(svc, queue, poll=0.005)
            await task
            return stats

        stats = asyncio.run(drive())
        assert stats.processed_places == 50
        assert stats.queue_pending == 0

    def test_unknown_item_kind_rejected(self):
        async def drive():
            svc = AllocatorService("heavy", 16, seed=9)
            queue = asyncio.Queue()
            queue.put_nowait(("teleport", 1))
            return await serve_queue(svc, queue)

        with pytest.raises(ValueError, match="unknown event kind"):
            asyncio.run(drive())


# ---------------------------------------------------------------------------
# open-loop driver + report
# ---------------------------------------------------------------------------


class TestSimulateService:
    def test_report_shape_and_stats(self):
        report = simulate_service(
            "heavy", 2000, 16, seed=4, epochs=3, churn=0.1
        )
        stats = report.stats
        assert stats.batches == 4
        assert stats.complete
        assert stats.population == 2000
        assert stats.ops_per_sec > 0
        assert stats.shed == 0
        assert report.ops_per_sec == stats.ops_per_sec
        assert len(report.gaps) == 4
        assert "m/n=" in report.describe()
        assert "ops/s" in str(report)

    def test_to_dict_round_trips_json(self):
        report = simulate_service(
            "single", 500, 8, seed=2, epochs=2, churn=0.2
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["schema"] == 1
        assert payload["algorithm"] == "single"
        assert len(payload["records"]) == 3
        assert payload["stats"]["processed_ops"] > 0
        assert payload["extra"]["service"]["queue_pending"] == 0

    def test_poisson_rejected(self):
        with pytest.raises(ValueError, match="deterministic"):
            simulate_service(
                "heavy", 1000, 16, seed=1, arrivals="poisson"
            )

    def test_full_rerun_rejected(self):
        spec = DynamicSpec(epochs=2, churn=0.1, rebalance="full_rerun")
        with pytest.raises(ValueError, match="incremental"):
            simulate_service("heavy", 1000, 16, seed=1, spec=spec)

    def test_instance_validated(self):
        with pytest.raises(ValueError, match="m >= 1"):
            simulate_service("heavy", 0, 16, seed=1)

    def test_deterministic_replay(self):
        kwargs = dict(seed=13, epochs=3, churn=0.2, arrivals="bursty")
        a = simulate_service("heavy", 1500, 16, **kwargs)
        b = simulate_service("heavy", 1500, 16, **kwargs)
        assert [r.messages for r in a.records] == [
            r.messages for r in b.records
        ]
        assert a.gaps == b.gaps
        assert a.stats.latency == b.stats.latency
        assert a.seed_entropy == b.seed_entropy


class TestServiceBenchmark:
    def test_records_and_table(self):
        from repro.api.bench import SERVICE_COLUMNS, benchmark_service, render

        records = benchmark_service(
            2000, 16, epochs=3, churn=0.2, algorithms=("heavy",),
            gap_slo=50.0,
        )
        assert len(records) == 1
        r = records[0]
        assert r["algorithm"] == "heavy"
        assert r["ops_per_sec_busy"] > 0
        assert 0 < r["ops_per_sec_wall"] <= r["ops_per_sec_busy"]
        assert r["complete"]
        assert r["latency_p50"] <= r["latency_p95"] <= r["latency_p99"]
        assert "ops/s" in render(records, SERVICE_COLUMNS)
        assert json.loads(json.dumps(r))["batches"] == r["batches"]

    def test_non_capable_algorithm_rejected(self):
        from repro.api.bench import benchmark_service

        with pytest.raises(ValueError, match="dynamic"):
            benchmark_service(1000, 16, epochs=2, algorithms=("greedy",))


class TestCli:
    def test_serve_subcommand(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                [
                    "serve", "heavy", "--m", "2000", "--n", "16",
                    "--seed", "1", "--epochs", "3", "--simulate",
                    "--gap-slo", "50",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "micro-batched incremental" in out
        assert "ops/s sustained" in out

    def test_serve_requires_simulate(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="--simulate"):
            main(
                ["serve", "heavy", "--m", "100", "--n", "8", "--seed", "1"]
            )

    def test_serve_json_export(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "serve.json"
        assert (
            main(
                [
                    "serve", "single", "--m", "500", "--n", "8",
                    "--seed", "1", "--epochs", "2", "--simulate",
                    "--json", str(path),
                ]
            )
            == 0
        )
        payload = json.loads(path.read_text())
        assert payload["algorithm"] == "single"
        assert payload["stats"]["batches"] == 3
