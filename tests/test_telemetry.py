"""Telemetry subsystem tests (ISSUE-10).

Pins the two hard guarantees of :mod:`repro.telemetry`:

1. **Bitwise invariance** — results with telemetry fully on (metrics,
   spans, kernel profiling) are bitwise-identical to telemetry off on
   every instrumented path: ``allocate`` (both granularities, both
   kernel backends), ``replicate`` (including multi-process sharding),
   ``run_dynamic`` (including the adversarial + fault-injection leg),
   and the continuous service.  The companion zero-RNG pin drives both
   legs from identically seeded Generators and compares the
   *post-run generator state* — telemetry that consumed a single draw
   would diverge the probe.
2. **Default-off is a no-op** — with no telemetry installed,
   ``current_telemetry()`` is None and hooks fall through.

Plus the unit contracts of the instruments, span tracer, exporters,
and logging setup, the audit-trace fold in the service (satellite 1),
and the ``ServiceStats`` queue-depth/flush-latency extensions
(satellite 2).
"""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

import repro
from repro import Telemetry, current_telemetry, use_telemetry
from repro.service import AllocatorService, replay_trace, simulate_service
from repro.service.events import SimulatedClock
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanTracer,
    configure_logging,
    get_logger,
    prometheus_text,
    stats_to_prometheus,
    telemetry_to_dict,
)


# -- instruments --------------------------------------------------------


class TestCounter:
    def test_monotone(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("x").inc(-1)


class TestGauge:
    def test_tracks_max(self):
        g = Gauge("depth")
        g.set(3.0)
        g.set(10.0)
        g.set(2.0)
        assert g.value == 2.0
        assert g.max_value == 10.0

    def test_max_of_negative_values(self):
        # The first write must seed the max — a gauge that only saw
        # negative values must not report the 0.0 initializer.
        g = Gauge("signed")
        g.set(-5.0)
        g.set(-9.0)
        assert g.max_value == -5.0


class TestHistogram:
    def test_bucket_edges(self):
        h = Histogram("t", base=2.0, scale=1e-9)
        assert h.bucket_index(0.0) == 0
        assert h.bucket_index(1e-9) == 0
        # Exactly on a boundary lands in that bucket (upper-inclusive).
        assert h.bucket_index(2e-9) == 1
        assert h.bucket_index(2.0000001e-9) == 2
        assert h.bucket_index(float("inf")) == h.NBUCKETS

    def test_overflow_bucket(self):
        h = Histogram("t")
        h.observe(1e30)
        assert h.bucket_counts[h.NBUCKETS] == 1
        assert h.bucket_upper_bound(h.NBUCKETS) == float("inf")

    def test_exact_stats_ride_along(self):
        h = Histogram("t")
        for v in (0.5, 1.5, 4.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(6.0)
        assert h.min == 0.5
        assert h.max == 4.0
        assert h.mean == pytest.approx(2.0)

    def test_to_dict_compresses_trailing_zeros(self):
        h = Histogram("t")
        h.observe(1e-9)  # bucket 0
        d = h.to_dict()
        assert d["buckets"] == [1]
        assert d["count"] == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="base"):
            Histogram("t", base=1.0)
        with pytest.raises(ValueError, match="scale"):
            Histogram("t", scale=0.0)


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", route="x")
        b = reg.counter("hits", route="x")
        assert a is b
        assert len(reg) == 1

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", a="1", b="2")
        b = reg.counter("hits", b="2", a="1")
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_get_returns_none_when_absent(self):
        reg = MetricsRegistry()
        assert reg.get("nope") is None
        reg.gauge("depth").set(1)
        assert reg.get("depth").value == 1.0

    def test_to_dict_shape(self):
        reg = MetricsRegistry()
        reg.counter("ops", op="place").inc(3)
        reg.counter("ops", op="release").inc()
        d = reg.to_dict()
        assert sorted(e["labels"]["op"] for e in d["ops"]) == [
            "place",
            "release",
        ]
        assert all(e["kind"] == "counter" for e in d["ops"])


# -- spans --------------------------------------------------------------


class TestSpanTracer:
    def test_complete_records_x_event_and_returns_seconds(self):
        tracer = SpanTracer()
        start = tracer.begin()
        seconds = tracer.complete("work", start, cat="test", k=1)
        assert seconds >= 0.0
        (event,) = tracer.events
        assert event["ph"] == "X"
        assert event["name"] == "work"
        assert event["cat"] == "test"
        assert event["dur"] >= 0.0
        assert event["args"] == {"k": 1}

    def test_instant_event(self):
        tracer = SpanTracer()
        tracer.instant("marker", cat="test")
        (event,) = tracer.events
        assert event["ph"] == "i"
        assert event["s"] == "t"

    def test_span_contextmanager(self):
        tracer = SpanTracer()
        with tracer.span("block"):
            pass
        assert tracer.events[0]["name"] == "block"

    def test_chrome_trace_object_form(self):
        tracer = SpanTracer()
        tracer.instant("m")
        out = tracer.to_chrome_trace()
        assert isinstance(out["traceEvents"], list)
        assert out["displayTimeUnit"] == "ms"
        json.dumps(out)  # serializable


# -- exporters ----------------------------------------------------------


class TestPrometheusText:
    def test_counter_gauge_histogram_shapes(self):
        tele = Telemetry()
        tele.count("kernel.rounds", 7)
        tele.gauge("queue.depth", 42, side="in")
        tele.observe("flush.seconds", 0.25)
        text = tele.prometheus()
        assert "# TYPE repro_kernel_rounds_total counter" in text
        assert "repro_kernel_rounds_total 7" in text
        assert 'repro_queue_depth{side="in"} 42' in text
        assert 'repro_queue_depth_max{side="in"} 42' in text
        assert "# TYPE repro_flush_seconds histogram" in text
        assert 'repro_flush_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_flush_seconds_sum 0.25" in text
        assert "repro_flush_seconds_count 1" in text

    def test_histogram_buckets_are_cumulative(self):
        tele = Telemetry()
        for v in (1e-9, 1e-9, 1.0):
            tele.observe("t", v)
        lines = [
            line
            for line in prometheus_text(tele.metrics).splitlines()
            if "_bucket" in line
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 3  # +Inf == total count

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestStatsToPrometheus:
    def test_service_snapshot_exposition(self):
        report = simulate_service("heavy", 5_000, 64, seed=0, epochs=3)
        text = stats_to_prometheus(report.stats)
        assert 'repro_service_info{algorithm="heavy",n="64"} 1' in text
        assert "# TYPE repro_service_batches_total counter" in text
        assert "repro_service_queue_depth_hwm" in text
        assert 'repro_service_latency_seconds{quantile="0.5"}' in text
        assert 'repro_service_flush_seconds{quantile="0.99"}' in text
        assert "repro_service_complete 1" in text


class TestTelemetryJson:
    def test_roundtrip_keeps_trace_event_contract(self):
        tele = Telemetry()
        with use_telemetry(tele):
            repro.allocate("heavy", 5_000, 64, seed=1)
        payload = json.loads(json.dumps(telemetry_to_dict(tele)))
        assert payload["schema"] == 1
        assert payload["displayTimeUnit"] == "ms"
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"allocate", "phase", "round"} <= names
        for event in payload["traceEvents"]:
            assert event["ph"] in ("X", "i")
            assert isinstance(event["ts"], (int, float))
        assert "kernel.rounds" in payload["metrics"]

    def test_write(self, tmp_path):
        tele = Telemetry()
        tele.count("x")
        path = tmp_path / "out.trace.json"
        tele.write(str(path))
        assert json.loads(path.read_text())["metrics"]["x"][0]["value"] == 1


# -- logging ------------------------------------------------------------


class TestLogging:
    def test_get_logger_anchors_namespace(self):
        assert get_logger("experiments").name == "repro.experiments"
        assert get_logger("repro.api").name == "repro.api"
        assert get_logger().name == "repro"

    def test_configure_logging_is_idempotent(self):
        root = logging.getLogger("repro")
        before = list(root.handlers)
        try:
            configure_logging(1)
            configure_logging(2)
            ours = [
                h
                for h in root.handlers
                if getattr(h, "_repro_cli", False)
            ]
            assert len(ours) == 1
            assert root.level == logging.DEBUG
            configure_logging(0)
            assert root.level == logging.WARNING
        finally:
            for h in list(root.handlers):
                if getattr(h, "_repro_cli", False):
                    root.removeHandler(h)
            root.handlers = before
            root.setLevel(logging.NOTSET)


# -- ambient selection --------------------------------------------------


class TestAmbientTelemetry:
    def test_default_is_off(self):
        assert current_telemetry() is None

    def test_use_telemetry_installs_and_restores(self):
        tele = Telemetry()
        with use_telemetry(tele):
            assert current_telemetry() is tele
            with use_telemetry(None):  # explicit disable nests
                assert current_telemetry() is None
            assert current_telemetry() is tele
        assert current_telemetry() is None

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_telemetry(Telemetry()):
                raise RuntimeError("boom")
        assert current_telemetry() is None


# -- kernel profiling ---------------------------------------------------


class TestProfilingBackend:
    def test_resolve_wraps_under_telemetry(self):
        from repro.fastpath.backend import (
            ProfilingBackend,
            resolve_backend,
            use_backend,
        )

        assert not isinstance(resolve_backend(), ProfilingBackend)
        with use_telemetry(Telemetry()), use_backend("fused") as backend:
            assert isinstance(backend, ProfilingBackend)
            assert backend.name == "fused"  # inner name preserved
            # The pin holds the bare backend, so wrappers never stack.
            again = resolve_backend()
            assert not isinstance(again.inner, ProfilingBackend)

    def test_profile_kernels_false_skips_wrap(self):
        from repro.fastpath.backend import ProfilingBackend, resolve_backend

        with use_telemetry(Telemetry(profile_kernels=False)):
            assert not isinstance(resolve_backend(), ProfilingBackend)

    def test_primitive_histogram_populated(self):
        # Pin the backend so the label matches even when the suite
        # runs under REPRO_KERNEL_BACKEND=reference.
        tele = Telemetry()
        with use_telemetry(tele), repro.use_backend("fused"):
            repro.allocate("heavy", 5_000, 64, seed=1)
        hist = tele.metrics.get(
            "kernel.primitive.seconds",
            primitive="grouped_accept",
            backend="fused",
        )
        assert hist is not None and hist.count > 0


# -- bitwise identity matrix --------------------------------------------


def _on_off(run):
    """Run once with telemetry off, once fully on; return both + tele."""
    off = run()
    tele = Telemetry()
    with use_telemetry(tele):
        on = run()
    return off, on, tele


def _assert_same_allocation(a, b):
    assert np.array_equal(a.loads, b.loads)
    assert a.max_load == b.max_load
    assert a.total_messages == b.total_messages
    assert a.rounds == b.rounds


class TestBitwiseIdentity:
    M, N = 20_000, 64

    @pytest.mark.parametrize("mode", ["perball", "aggregate"])
    def test_allocate(self, mode):
        off, on, tele = _on_off(
            lambda: repro.allocate(
                "heavy", self.M, self.N, seed=3, mode=mode
            )
        )
        _assert_same_allocation(off, on)
        assert any(e["name"] == "allocate" for e in tele.tracer.events)

    def test_allocate_reference_backend(self):
        def run():
            with repro.use_backend("reference"):
                return repro.allocate("heavy", self.M, self.N, seed=3)

        off, on, _ = _on_off(run)
        _assert_same_allocation(off, on)
        # The dispatch record reports the inner backend, not the wrapper.
        assert on.extra["api"]["backend"] == "reference"

    def test_replicate(self):
        off, on, _ = _on_off(
            lambda: repro.replicate(
                "heavy", 5_000, 64, trials=8, seed=5
            )
        )
        assert np.array_equal(off.loads, on.loads)
        assert np.array_equal(off.gaps, on.gaps)
        assert np.array_equal(off.total_messages, on.total_messages)

    def test_replicate_kernel_counters_match_sequential(self):
        """The lock-step phase 2 counts trial-rounds, commits and
        messages exactly as the per-seed loop does, and still emits a
        ``phase="light"`` span."""

        def counted(**opts):
            tele = Telemetry()
            with use_telemetry(tele):
                repro.replicate("heavy", 20_000, 64, trials=16, seed=3, **opts)
            values = tuple(
                tele.metrics.get(name).value
                for name in ("kernel.rounds", "kernel.commits",
                             "kernel.messages")
            )
            return values, tele

        batched, tele = counted()
        sequential, _ = counted(trial_batched=False)
        assert batched == sequential
        assert any(
            e["name"] == "phase" and e["args"].get("phase") == "light"
            for e in tele.tracer.events
        )

    def test_replicate_workers_sharded_under_telemetry(self):
        def run(workers):
            with use_telemetry(Telemetry()):
                return repro.replicate(
                    "heavy", 5_000, 64, trials=8, seed=5, workers=workers
                )

        one, two = run(1), run(2)
        assert np.array_equal(one.loads, two.loads)
        assert np.array_equal(one.gaps, two.gaps)

    def test_run_dynamic_adversarial_with_faults(self):
        fault_model = repro.parse_faults(
            "bin_fail=0.05,recover=0.2,loss=0.01"
        )
        off, on, tele = _on_off(
            lambda: repro.run_dynamic(
                "heavy",
                10_000,
                64,
                seed=2,
                epochs=4,
                arrivals="hotset_adversary",
                departures="greedy_adversary",
                fault_model=fault_model,
            )
        )
        assert np.array_equal(off.loads, on.loads)
        assert np.array_equal(off.loads_history, on.loads_history)
        assert [(r.gap, r.messages, r.moved) for r in off.records] == [
            (r.gap, r.messages, r.moved) for r in on.records
        ]
        assert any(e["name"] == "epoch" for e in tele.tracer.events)

    @pytest.mark.parametrize("mode", ["perball", "aggregate"])
    def test_dynamic_heavy_settle_and_handoff_spans(self, mode):
        """A drained settle is one ``settle`` phase span with a
        ``round`` span per settle round, and the handoff one ``light``
        span, next to the threshold phase's."""
        from repro.core.heavy import dynamic_heavy

        off, on, tele = _on_off(
            lambda: dynamic_heavy(
                800, 32, initial_loads=(np.arange(32) % 5) * 12, seed=7,
                mode=mode, drain_settle=True,
            )
        )
        assert np.array_equal(off.loads, on.loads)
        assert (off.rounds, off.total_messages, off.extra) == (
            on.rounds, on.total_messages, on.extra
        )
        assert on.extra["settle_rounds"] > 0 and on.extra["phase2_rounds"] > 0
        events = tele.tracer.events
        phases = [e["args"]["phase"] for e in events if e["name"] == "phase"]
        assert phases == ["threshold", "settle", "light"]
        rounds = sum(1 for e in events if e["name"] == "round")
        assert rounds == on.extra["phase1_rounds"] + on.extra["settle_rounds"]

    def test_simulate_service(self):
        off, on, tele = _on_off(
            lambda: simulate_service("heavy", 5_000, 64, seed=0, epochs=3)
        )
        assert off.stats.messages == on.stats.messages
        assert off.stats.gap == on.stats.gap
        assert off.stats.population == on.stats.population
        assert [r.gap for r in off.records] == [r.gap for r in on.records]
        assert any(e["name"] == "flush" for e in tele.tracer.events)

    def test_zero_rng_draws(self):
        """Telemetry must not consume randomness: run both legs from
        identically seeded Generators and compare the post-run state.
        A single extra draw anywhere would diverge the probe."""

        def probe(telemetry):
            rng = np.random.default_rng(42)
            if telemetry is None:
                result = repro.allocate(
                    "heavy", self.M, self.N, seed=rng, mode="perball"
                )
            else:
                with use_telemetry(telemetry):
                    result = repro.allocate(
                        "heavy", self.M, self.N, seed=rng, mode="perball"
                    )
            return result, int(rng.integers(2**62))

        res_off, probe_off = probe(None)
        res_on, probe_on = probe(Telemetry())
        _assert_same_allocation(res_off, res_on)
        assert probe_off == probe_on


# -- service audit-trace fold (satellite 1) -----------------------------


def _drive_service():
    clock = SimulatedClock()
    svc = AllocatorService(
        "heavy", 16, seed=11, max_batch=64, clock=clock, max_wait=1.0
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


class TestServiceTraceFold:
    def test_trace_bitwise_identical_on_vs_off(self):
        off = _drive_service()
        tele = Telemetry()
        with use_telemetry(tele):
            on = _drive_service()
        assert on.trace == off.trace
        assert np.array_equal(on.residents.loads, off.residents.loads)
        # The -1.0 no-timestamp sentinel survives the fold.
        assert any(at == -1.0 for (_, _, at) in on.trace)

    def test_replay_of_instrumented_trace(self):
        tele = Telemetry()
        with use_telemetry(tele):
            original = _drive_service()
        replay = replay_trace(
            original.trace, "heavy", 16, seed=11, max_batch=64,
            max_wait=1.0,
        )
        assert np.array_equal(
            replay.residents.loads, original.residents.loads
        )
        assert replay.trace == original.trace

    def test_ops_counter_mirrors_trace(self):
        tele = Telemetry()
        with use_telemetry(tele):
            svc = _drive_service()
        counted = sum(
            inst.value
            for inst in tele.metrics
            if inst.name == "service.ops"
        )
        assert counted == len(svc.trace)

    def test_per_op_instants_are_batch_level_only(self):
        tele = Telemetry()
        with use_telemetry(tele):
            _drive_service()
        ops = [
            e["args"]["op"]
            for e in tele.tracer.events
            if e["name"] == "service.op"
        ]
        assert ops  # tick/flush/drain mirrored as instants
        assert not {"place", "release"} & set(ops)


# -- ServiceStats extensions (satellite 2) ------------------------------


class TestServiceStatsExtensions:
    def test_queue_depth_high_water(self):
        svc = AllocatorService(
            "heavy", 16, seed=0, max_batch=1024,
            clock=SimulatedClock(), auto_flush=False,
        )
        svc.place(300)
        svc.flush(all_pending=True)
        svc.place(50)
        stats = svc.stats()
        assert stats.queue_depth_hwm == 300
        assert svc.queue.high_water == 300

    def test_flush_latency_percentiles(self):
        report = simulate_service("heavy", 5_000, 64, seed=0, epochs=3)
        lat = report.stats.flush_latency
        assert set(lat) == {"p50", "p95", "p99"}
        assert 0.0 < lat["p50"] <= lat["p95"] <= lat["p99"]

    def test_zero_batches_report_zero_percentiles(self):
        svc = AllocatorService(
            "heavy", 16, seed=0, clock=SimulatedClock(), auto_flush=False
        )
        stats = svc.stats()
        assert stats.flush_latency == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert stats.queue_depth_hwm == 0

    def test_rendered_in_service_table(self):
        from repro.api.bench import SERVICE_COLUMNS, benchmark_service, render

        records = benchmark_service(2_000, 64, epochs=3, algorithms=["heavy"])
        table = render(records, SERVICE_COLUMNS)
        assert "q-hwm" in table and "fl-p99" in table
        assert records[0]["queue_depth_hwm"] > 0
        assert records[0]["flush_p50"] <= records[0]["flush_p99"]


# -- telemetry benchmark harness ----------------------------------------


class TestBenchmarkTelemetry:
    def test_records_and_roundtrip(self):
        from repro.api.bench import (
            TELEMETRY_COLUMNS,
            benchmark_telemetry,
            render,
        )

        records = benchmark_telemetry(
            5_000, 64, repeats=1, dynamic=(2_000, 32, 2),
            service=(2_000, 32, 2),
        )
        assert [r["scenario"] for r in records] == [
            "allocate",
            "dynamic",
            "service",
        ]
        for r in records:
            assert r["bitwise_equal"] and r["span_roundtrip"]
            assert r["trace_events"] > 0 and r["metric_series"] > 0
        table = render(records, TELEMETRY_COLUMNS)
        assert "overhead" in table and "allocate" in table


# -- CLI threading ------------------------------------------------------


class TestCli:
    def test_telemetry_flag_writes_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "run.trace.json"
        assert (
            main(
                [
                    "heavy", "--m", "2000", "--n", "64", "--seed", "1",
                    "--telemetry", str(path),
                ]
            )
            == 0
        )
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert payload["traceEvents"]
        assert "wrote telemetry" in capsys.readouterr().out

    def test_serve_metrics_out(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "metrics.prom"
        code = main(
            [
                "serve", "heavy", "--m", "2000", "--n", "64",
                "--simulate", "--epochs", "2", "--metrics-out", str(path),
            ]
        )
        assert code == 0
        text = path.read_text()
        assert "repro_service_batches_total" in text
        assert "repro_service_queue_depth_hwm" in text

    def test_verbose_flag_configures_logging(self):
        from repro.__main__ import main

        root = logging.getLogger("repro")
        before = list(root.handlers)
        try:
            assert main(["-v", "list"]) == 0
            assert root.level == logging.INFO
        finally:
            for h in list(root.handlers):
                if getattr(h, "_repro_cli", False):
                    root.removeHandler(h)
            root.handlers = before
            root.setLevel(logging.NOTSET)
