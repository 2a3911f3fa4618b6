"""Tests for the workload subsystem: spec, binding, and end-to-end runs."""

import json
import zlib

import numpy as np
import pytest

import repro
from repro.utils.seeding import RngFactory
from repro.workloads import (
    BoundWorkload,
    Workload,
    WorkloadError,
    as_workload,
    bind_workload,
    parse_workload,
)


class TestWorkloadSpec:
    def test_default_is_uniform(self):
        assert Workload().is_uniform
        assert Workload.uniform().describe() == "uniform"

    def test_zipf_pvals_shape_and_skew(self):
        p = Workload.zipf(1.0).pvals(8)
        assert p.shape == (8,)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(np.diff(p) < 0)  # strictly decreasing
        assert p[0] / p[7] == pytest.approx(8.0)

    def test_hotset_pvals_mass_split(self):
        p = Workload.hotset(0.1, 0.5).pvals(100)
        assert p[:10].sum() == pytest.approx(0.5)
        assert p[10:].sum() == pytest.approx(0.5)

    def test_hotset_tiny_n(self):
        # hot-set count is clamped to [1, n-1] so both sides exist.
        p = Workload.hotset(0.01, 0.5).pvals(2)
        assert p.shape == (2,)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_explicit_pvals_validated_at_use(self):
        wl = Workload.explicit([0.25, 0.25, 0.5])
        assert wl.pvals(3)[2] == 0.5
        with pytest.raises(ValueError):
            wl.pvals(4)  # wrong length for this n

    def test_capacity_proportional_tracks_traffic(self):
        wl = Workload.zipf(1.0, capacity="proportional")
        scale = wl.capacity_scale(8)
        assert scale.mean() == pytest.approx(1.0)
        assert np.array_equal(np.argsort(scale), np.argsort(wl.pvals(8)))

    def test_capacity_proportional_to_uniform_is_homogeneous(self):
        assert Workload(capacity="proportional").capacity_scale(8) is None

    def test_explicit_capacity_normalized_to_mean_one(self):
        wl = Workload(capacity="explicit", capacity_values=[1, 1, 2])
        assert wl.capacity_scale(3).mean() == pytest.approx(1.0)
        with pytest.raises(WorkloadError):
            wl.capacity_scale(4)

    def test_bound_capacities_round_and_clip(self):
        wl = Workload(capacity="explicit", capacity_values=[0, 1, 3])
        bound = bind_workload(wl, 10, 3, RngFactory(0))
        caps = bound.capacities(10)
        assert caps.dtype == np.int64
        assert caps.min() >= 0
        assert caps.sum() == pytest.approx(30, abs=2)

    def test_geometric_weights_mean(self):
        wl = Workload(weight="geometric", weight_param=0.25)
        w = wl.sample_weights(200_000, np.random.default_rng(0))
        assert w.min() >= 1
        assert w.mean() == pytest.approx(4.0, rel=0.05)
        assert wl.mean_weight() == 4.0

    def test_weight_sum_sampler_matches_perball_sums_in_law(self):
        wl = Workload(weight="geometric", weight_param=0.5)
        rng = np.random.default_rng(1)
        sampler = wl.weight_sum_sampler(rng)
        counts = np.array([0, 1, 1000, 0])
        sums = sampler(counts)
        assert sums[0] == 0 and sums[3] == 0
        assert sums[1] >= 1
        assert sums[2] == pytest.approx(2000, rel=0.1)

    def test_explicit_weights_require_perball(self):
        wl = Workload(weight="explicit", weight_values=[1.0, 2.0])
        with pytest.raises(WorkloadError, match="perball"):
            wl.weight_sum_sampler(np.random.default_rng(0))
        with pytest.raises(WorkloadError):
            wl.sample_weights(3, np.random.default_rng(0))  # wrong m

    def test_invalid_specs_rejected(self):
        with pytest.raises(WorkloadError):
            Workload(choice="nope")
        with pytest.raises(WorkloadError):
            Workload.zipf(-1.0)
        with pytest.raises(WorkloadError):
            Workload.hotset(0.0, 0.5)
        with pytest.raises(WorkloadError):
            Workload(weight="geometric", weight_param=1.5)
        with pytest.raises(WorkloadError):
            Workload(weight="explicit", weight_values=[0.0, 1.0])
        with pytest.raises(WorkloadError):
            Workload(capacity="explicit", capacity_values=[0.0, 0.0])


class TestParseWorkload:
    def test_grammar_round_trips(self):
        for text in (
            "zipf:1.1",
            "hotset:0.1:0.5",
            "zipf:1.2+geomw:0.5",
            "zipf:1.1+geomw:0.25+propcap",
        ):
            assert parse_workload(text).describe() == text

    def test_noop_components(self):
        assert parse_workload("uniform").is_uniform
        assert parse_workload("unitw+homcap").is_uniform

    def test_axis_set_twice_rejected(self):
        with pytest.raises(WorkloadError, match="twice"):
            parse_workload("zipf:1.0+hotset:0.1:0.5")

    def test_unknown_component_rejected(self):
        with pytest.raises(WorkloadError, match="unknown workload component"):
            parse_workload("pareto:1.5")

    def test_malformed_number_rejected(self):
        with pytest.raises(WorkloadError, match="malformed"):
            parse_workload("zipf:abc")

    def test_as_workload_forms(self):
        assert as_workload(None) is None
        assert as_workload("uniform") is None
        assert as_workload(Workload()) is None
        wl = as_workload("zipf:1.1")
        assert isinstance(wl, Workload)
        assert as_workload(wl) is wl
        with pytest.raises(WorkloadError, match="Workload"):
            as_workload(42)


class TestBinding:
    def test_uniform_binding_is_inert(self):
        bound = bind_workload(None, 100, 8, RngFactory(0))
        assert not bound.active and not bound.weighted
        assert bound.pvals is None and bound.capacity_scale is None
        assert bound.capacities(7) == 7
        assert bound.extra_record() is None

    def test_bound_workload_passes_through(self):
        bound = bind_workload("zipf:1.1", 100, 8, RngFactory(0))
        assert bind_workload(bound, 100, 8, RngFactory(99)) is bound

    def test_weights_come_from_dedicated_stream(self):
        # Same root seed: the protocol streams are untouched by the
        # weight draw (dedicated ("workload", "weights") stream).
        f1, f2 = RngFactory(7), RngFactory(7)
        bound = bind_workload("geomw:0.5", 1000, 8, f1)
        assert bound.weights.shape == (1000,)
        a = f1.stream("threshold", "choices").integers(0, 1 << 30, 10)
        b = f2.stream("threshold", "choices").integers(0, 1 << 30, 10)
        assert np.array_equal(a, b)

    def test_aggregate_binding_uses_sampler(self):
        bound = bind_workload(
            "geomw:0.5", 1000, 8, RngFactory(7), granularity="aggregate"
        )
        assert bound.weights is None
        assert bound.weight_sum_sampler is not None

    def test_capacity_cache_returns_same_array(self):
        bound = bind_workload("zipf:1.0+propcap", 100, 8, RngFactory(0))
        assert bound.capacities(5) is bound.capacities(5)
        assert bound.capacities(5.0).sum() > 0

    def test_binding_prepares_the_choice_sampler(self):
        from repro.fastpath.sampling import ChoiceSampler, validate_pvals

        bound = bind_workload("zipf:1.1", 100, 8, RngFactory(0))
        assert isinstance(bound.sampler, ChoiceSampler)
        assert np.array_equal(bound.sampler.p, validate_pvals(bound.pvals, 8))
        assert bind_workload(None, 100, 8, RngFactory(0)).sampler is None
        # Weights-only workloads keep uniform contacts: nothing prepared.
        weights_only = bind_workload("geomw:0.5", 100, 8, RngFactory(0))
        assert weights_only.sampler is None

    def test_mutating_the_callers_vector_changes_no_draw(self):
        from repro.fastpath.sampling import sample_choices

        arr = np.array([0.5, 0.25, 0.125, 0.125])
        bound = bind_workload(Workload.explicit(arr), 100, 4, RngFactory(0))

        def draw():
            return sample_choices(
                4000, 4, np.random.default_rng(1), bound.sampler
            )

        before = draw()
        arr[:] = arr[::-1].copy()
        bound.pvals[:] = 0.25
        assert np.array_equal(before, draw())


class TestRoundStateWorkload:
    def test_weights_validate_shape_and_granularity(self):
        from repro.fastpath.roundstate import RoundState

        with pytest.raises(ValueError, match="shape"):
            RoundState(10, 4, weights=np.ones(5))
        with pytest.raises(ValueError, match="perball"):
            RoundState(10, 4, granularity="aggregate", weights=np.ones(10))
        with pytest.raises(ValueError, match="aggregate"):
            RoundState(10, 4, weight_sum_sampler=lambda c: c)

    def test_perball_weighted_loads_conserve_total(self):
        from repro.fastpath.roundstate import RoundState

        rng = np.random.default_rng(0)
        w = rng.geometric(0.5, size=500).astype(np.float64)
        state = RoundState(500, 16, weights=w)
        while state.active_count:
            batch = state.sample_contacts(rng)
            decision = state.group_and_accept(batch, None)
            state.commit_and_revoke(batch, decision)
        assert state.weighted_loads.sum() == pytest.approx(w.sum())
        assert state.loads.sum() == 500


class TestEndToEnd:
    """The acceptance scenarios: Zipf skew, weighted balls,
    heterogeneous capacities — through ``repro.allocate`` at both
    granularities."""

    M, N = 30_000, 64

    @pytest.mark.parametrize(
        "workload",
        ["zipf:1.1", "geomw:0.5", "hotset:0.1:0.5+propcap"],
    )
    @pytest.mark.parametrize("mode", ["perball", "aggregate"])
    def test_heavy_scenarios_complete(self, workload, mode):
        res = repro.allocate(
            "heavy", self.M, self.N, seed=11, mode=mode, workload=workload
        )
        assert res.complete
        assert res.loads.sum() == self.M
        assert res.extra["api"]["workload"] == workload
        record = res.extra["workload"]
        assert record["spec"] == workload
        if "geomw" in workload:
            # geometric mean weight 2: realized total within 5%.
            assert record["total_weight"] == pytest.approx(
                2 * self.M, rel=0.05
            )

    def test_perball_vs_aggregate_same_law_under_skew(self):
        p = repro.allocate(
            "heavy", self.M, self.N, seed=3, mode="perball",
            workload="zipf:1.1",
        )
        a = repro.allocate(
            "heavy", self.M, self.N, seed=3, mode="aggregate",
            workload="zipf:1.1",
        )
        assert p.complete and a.complete
        # Thresholds are oblivious: phase-1 structure matches exactly.
        assert p.extra["phase1_rounds"] == a.extra["phase1_rounds"]
        # Under skew a sizable straggler population rides the phase-2
        # handoff, so per-bin loads agree within its binomial noise
        # (straggler count / n balls per bin on average), not the
        # tight uniform-phase-1 tolerance.
        stragglers = max(
            p.extra["phase1_remaining"], a.extra["phase1_remaining"]
        )
        noise = 6 * np.sqrt(stragglers / self.N) + 6
        assert np.abs(np.sort(p.loads) - np.sort(a.loads)).max() <= noise
        assert (
            abs(p.extra["phase1_remaining"] - a.extra["phase1_remaining"])
            <= 0.1 * stragglers + 50
        )

    def test_weighted_totals_agree_across_granularities(self):
        wl = "zipf:1.1+geomw:0.5"
        p = repro.allocate(
            "heavy", self.M, self.N, seed=5, mode="perball", workload=wl
        )
        a = repro.allocate(
            "heavy", self.M, self.N, seed=5, mode="aggregate", workload=wl
        )
        tp = p.extra["workload"]["total_weight"]
        ta = a.extra["workload"]["total_weight"]
        assert tp == pytest.approx(2 * self.M, rel=0.05)
        assert ta == pytest.approx(tp, rel=0.05)

    def test_heterogeneous_capacities_shape_loads(self):
        # Proportional provisioning under a hot-set: hot bins must end
        # up holding more than cold bins, tracking their capacity.
        res = repro.allocate(
            "heavy", self.M, self.N, seed=9,
            workload="hotset:0.25:0.75+propcap",
        )
        hot = self.N // 4
        hot_mean = res.loads[:hot].mean()
        cold_mean = res.loads[hot:].mean()
        assert res.complete
        assert hot_mean > 2 * cold_mean

    def test_explicit_weights_perball_only(self):
        w = np.linspace(1, 3, self.M)
        wl = Workload(weight="explicit", weight_values=w)
        res = repro.allocate(
            "heavy", self.M, self.N, seed=2, mode="perball", workload=wl
        )
        assert res.extra["workload"]["total_weight"] == pytest.approx(w.sum())
        with pytest.raises(WorkloadError, match="perball"):
            repro.allocate(
                "heavy", self.M, self.N, seed=2, mode="aggregate", workload=wl
            )

    def test_single_and_stemann_skew_cross_granularity(self):
        for name, opts in (("single", {}), ("stemann", {"collision_factor": 3.0})):
            p = repro.allocate(
                name, self.M, self.N, seed=7, mode="perball",
                workload="zipf:1.1", **opts,
            )
            a = repro.allocate(
                name, self.M, self.N, seed=7, mode="aggregate",
                workload="zipf:1.1", **opts,
            )
            assert p.loads.sum() == a.loads.sum() == self.M
            scale = np.sqrt(self.M / self.N)
            assert abs(p.max_load - a.max_load) <= 8 * scale, name

    def test_inapplicable_axes_recorded(self):
        triv = repro.allocate(
            "trivial", 1000, 16, seed=1, workload="zipf:1.1"
        )
        assert triv.extra["workload"]["inapplicable"] == ["choice"]
        single = repro.allocate(
            "single", 1000, 16, seed=1, workload="zipf:1.0+propcap"
        )
        assert single.extra["workload"]["inapplicable"] == ["capacity"]

    def test_workload_capability_flags(self):
        capable = {
            s.name for s in repro.list_allocators() if s.workload_capable
        }
        assert capable == {
            "heavy", "combined", "asymmetric", "faulty", "multicontact",
            "trivial", "light", "single", "stemann", "dchoice",
        }
        for name in capable:
            assert "workload" in repro.get_spec(name).capabilities()

    def test_non_capable_allocators_reject_with_capable_list(self):
        with pytest.raises(ValueError, match="workload-capable"):
            repro.allocate("greedy", 1000, 16, seed=1, workload="zipf:1.1")
        with pytest.raises(ValueError, match="workload-capable"):
            repro.allocate("batched", 1000, 16, seed=1, workload="zipf:1.1")

    def test_engine_mode_rejects_non_uniform(self):
        with pytest.raises(ValueError, match="engine"):
            repro.allocate(
                "heavy", 1000, 16, seed=1, mode="engine", workload="zipf:1.1"
            )
        # ... but accepts the explicit uniform spec.
        res = repro.allocate(
            "heavy", 1000, 16, seed=1, mode="engine", workload="uniform"
        )
        assert res.complete

    def test_uniform_workload_never_forwarded(self):
        a = repro.allocate("greedy", 2000, 16, seed=4, workload="uniform")
        b = repro.allocate("greedy", 2000, 16, seed=4)
        assert np.array_equal(a.loads, b.loads)


class TestWorkloadBench:
    def test_bench_restricts_to_capable_and_records_spec(self):
        from repro.api import benchmark_registry

        records = benchmark_registry(
            4000, 16, seeds=(0,), workload="zipf:1.1"
        )
        assert records, "workload bench produced no records"
        names = {r["algorithm"] for r in records}
        assert "greedy" not in names and "batched" not in names
        assert {"heavy", "single"} <= names
        assert all(r["workload"] == "zipf:1.1" for r in records)
        assert all(r["mode"] != "engine" for r in records)

    def test_bench_explicit_non_capable_selection_errors(self):
        from repro.api import benchmark_registry

        with pytest.raises(ValueError, match="uniform workload only"):
            benchmark_registry(
                1000, 16, seeds=(0,), algorithms=("greedy",),
                workload="zipf:1.1",
            )

    def test_cli_workload_flag(self, capsys):
        from repro.__main__ import main

        assert main(
            ["heavy", "--m", "20000", "--n", "64", "--seed", "1",
             "--workload", "zipf:1.1"]
        ) == 0
        assert "heavy" in capsys.readouterr().out

    def test_cli_bench_workload_flag(self, capsys):
        from repro.__main__ import main

        assert main(
            ["bench", "--m", "4000", "--n", "16",
             "--algorithms", "heavy,single", "--workload", "zipf:1.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "zipf:1.1" in out

    def test_run_benchmarks_workload_payload(self, tmp_path):
        import json
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [
                sys.executable,
                str(repo / "benchmarks" / "run_benchmarks.py"),
                "--scale", "smoke",
                # The checked-in full-scale artifacts at the repo root
                # must never be clobbered by a smoke payload.
                "--out", str(tmp_path),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

        def artifact(case):
            payload = json.loads((tmp_path / f"BENCH_{case}.json").read_text())
            assert payload["schema"] == 2 and payload["case"] == case
            assert payload["scale"] == "smoke"
            return payload

        kernels = artifact("kernels")["records"]
        curve = [r for r in kernels if r["leg"] == "workers"]
        assert [r["workers"] for r in curve] == [1, 2, 4, 8]
        assert all(r["value_identical"] for r in curve)
        (chunked,) = [r for r in kernels if r["leg"] == "chunked"]
        assert chunked["equivalent_to_unchunked"] is True
        assert chunked["peak_rss_bytes"] > 0
        rows = artifact("workloads")["records"]
        assert {r["workload"] for r in rows} == {"zipf:1.1+geomw:0.5+propcap"}
        modes = {(r["algorithm"], r["mode"]) for r in rows}
        for algo in ("heavy", "single", "stemann"):
            assert {(algo, "perball"), (algo, "aggregate")} <= modes
        assert all(r["seconds_mean"] > 0 for r in rows)
        dynamic = artifact("dynamic")
        (message_bar,) = [
            b for b in dynamic["bars"] if b["name"].endswith("messages")
        ]
        assert "heavy" in message_bar["name"] and message_bar["value"] > 1.0
        assert {r["rebalance"] for r in dynamic["records"]} == {
            "incremental", "full_rerun"
        }
        artifact("adversarial")
        artifact("telemetry")


def _crc(values) -> int:
    return zlib.crc32(np.ascontiguousarray(values, dtype="<i8").tobytes())


def _dynamic_row(res):
    return [_crc(res.loads_history), int(res.total_messages),
            _crc(res.rounds), int(res.lost_acks)]


def _allocation_row(res):
    return [_crc(res.loads), int(res.total_messages), int(res.rounds)]


def _faulted_service_row():
    from repro.service import AllocatorService, SimulatedClock

    svc = AllocatorService(
        "heavy", 64, seed=31, max_batch=2000, auto_flush=False,
        clock=SimulatedClock(), fault_model=repro.FaultModel(0.1, 0.3, 0.05),
    )
    for _ in range(6):
        svc.place(3000)
        svc.release(600)
        svc.flush(all_pending=True)
    records = [
        {k: v for k, v in r.to_dict().items() if k != "seconds"}
        for r in svc.records
    ]
    blob = json.dumps(records, sort_keys=True, default=int).encode()
    return [zlib.crc32(blob), _crc(svc.residents.loads)]


_ADVERSARIAL = dict(
    churn=0.1, seed=0, departures="greedy_adversary",
    fault_model=repro.FaultModel(0.05, 0.25, 0.02),
)
_ZIPF = dict(seed=3, workload="zipf:1.1")

#: Whole runs whose contacts go through the prepared sampler, pinned as
#: crc32 literals recorded before it replaced the per-round validation,
#: cumsum and binary search.  Each row is checked on both backends.
PREPARED_SAMPLER_PINS = {
    "churn_adversarial_perball": (
        lambda: _dynamic_row(repro.run_dynamic(
            "heavy", 10**5, 256, epochs=8, mode="perball", **_ADVERSARIAL)),
        [3516241582, 1039089, 1997907410, 3653],
    ),
    "churn_adversarial_aggregate": (
        lambda: _dynamic_row(repro.run_dynamic(
            "heavy", 10**5, 256, epochs=4, mode="aggregate", **_ADVERSARIAL)),
        [2024304460, 728559, 3673516334, 2858],
    ),
    "heavy": (
        lambda: _allocation_row(repro.allocate(
            "heavy", 50_000, 256, mode="perball", **_ZIPF)),
        [1265867224, 265281, 11],
    ),
    "heavy_chunked": (
        lambda: _allocation_row(repro.allocate(
            "heavy", 50_000, 256, mode="perball", chunk_size=4096, **_ZIPF)),
        [1265867224, 265281, 11],
    ),
    "single": (
        lambda: _allocation_row(repro.allocate(
            "single", 50_000, 256, mode="perball", **_ZIPF)),
        [1263674159, 50000, 1],
    ),
    "stemann": (
        lambda: _allocation_row(repro.allocate(
            "stemann", 50_000, 256, mode="perball", **_ZIPF)),
        [3823844949, 196004, 15],
    ),
    "multicontact": (
        lambda: _allocation_row(repro.allocate(
            "multicontact", 50_000, 256, **_ZIPF)),
        [1155177223, 368437, 11],
    ),
    "adler": (
        lambda: _allocation_row(
            repro.allocate("dchoice", 5_000, 256, **_ZIPF)),
        [2576345753, 441162, 341],
    ),
    "light": (
        lambda: (lambda o: [_crc(o.loads), _crc(o.assignment), int(o.rounds)])(
            repro.run_light(3_000, 2_048, **_ZIPF)),
        [2464043484, 3719074829, 6],
    ),
    "replicate": (
        lambda: (lambda r: [_crc(r.loads), _crc(r.total_messages),
                            _crc(r.rounds)])(
            repro.replicate("heavy", 50_000, 256, trials=8, **_ZIPF)),
        [3144858818, 743881618, 3589319865],
    ),
    "faulted_service": (_faulted_service_row, [1362998315, 2901529897]),
}


class TestPreparedSamplerPins:
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    @pytest.mark.parametrize("case", sorted(PREPARED_SAMPLER_PINS))
    def test_pinned(self, case, backend):
        from repro.fastpath.backend import use_backend

        run, pin = PREPARED_SAMPLER_PINS[case]
        with use_backend(backend):
            assert run() == pin
