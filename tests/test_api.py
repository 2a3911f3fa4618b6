"""Tests for the unified allocator registry and dispatch API."""

import json

import numpy as np
import pytest

import repro
from repro.api import (
    AGGREGATE_THRESHOLD,
    allocate,
    allocate_many,
    allocator_names,
    get_spec,
    list_allocators,
    resolve_name,
    spawn_seeds,
    sweep,
)

M, N, SEED = 10_000, 64, 7

#: Every public ``run_*`` entry point that returns an AllocationResult
#: must be the registered runner of exactly this spec.
EXPECTED_RUNNERS = {
    "heavy": repro.run_heavy,
    "asymmetric": repro.run_asymmetric,
    "combined": repro.run_combined,
    "trivial": repro.run_trivial,
    "light": repro.run_light_allocation,
    "faulty": repro.run_heavy_faulty,
    "multicontact": repro.run_heavy_multicontact,
    "single": repro.run_single_choice,
    "greedy": repro.run_greedy_d,
    "dchoice": repro.run_parallel_dchoice,
    "stemann": repro.run_stemann,
    "batched": repro.run_batched_dchoice,
}


class TestRegistryCompleteness:
    def test_every_public_entry_point_registered(self):
        assert set(allocator_names()) == set(EXPECTED_RUNNERS)
        for name, runner in EXPECTED_RUNNERS.items():
            assert get_spec(name).runner is runner, name

    def test_every_public_run_function_covered(self):
        """No ``run_*`` in repro.__all__ may bypass the registry.

        ``run_light`` is covered via its ``run_light_allocation``
        wrapper; ``run_threshold_protocol`` is a phase subroutine (it
        returns a ThresholdPhaseOutcome, not an AllocationResult);
        ``run_dynamic``/``run_dynamic_many`` are the dynamic epoch
        runner (DynamicResult time series over registered adapters,
        not an allocator).
        """
        registered = {spec.runner for spec in list_allocators()}
        exempt = {
            "run_light",
            "run_threshold_protocol",
            "run_dynamic",
            "run_dynamic_many",
        }
        public = [
            name
            for name in repro.__all__
            if name.startswith("run_") and name not in exempt
        ]
        assert public, "sanity: repro exports run_* entry points"
        for name in public:
            assert getattr(repro, name) in registered, name

    def test_aliases_resolve(self):
        assert resolve_name("greedy_d") == "greedy"
        assert resolve_name("single_choice") == "single"
        assert resolve_name("batched_dchoice") == "batched"
        assert resolve_name("A_HEAVY") == "heavy"
        assert resolve_name("parallel-dchoice") == "dchoice"

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            resolve_name("quantum")

    def test_capability_flags(self):
        assert get_spec("greedy").sequential
        assert get_spec("faulty").fault_tolerant
        assert get_spec("multicontact").supports_multicontact
        assert not get_spec("heavy").sequential
        assert not get_spec("heavy").fault_tolerant

    def test_specs_expose_signature_options(self):
        spec = get_spec("faulty")
        assert "crash_prob" in spec.options
        assert "loss_prob" in spec.options
        heavy = get_spec("heavy")
        assert heavy.config_type is repro.HeavyConfig
        assert "stop_factor" in heavy.config_fields


@pytest.fixture
def scratch_registry(monkeypatch):
    """The registry module with its tables swapped for copies, so a
    throwaway registration never outlives its test."""
    import repro.api.spec as spec_mod

    monkeypatch.setattr(spec_mod, "_REGISTRY", dict(spec_mod._REGISTRY))
    monkeypatch.setattr(spec_mod, "_ALIASES", dict(spec_mod._ALIASES))
    return spec_mod


def _toy_runner(m, n, *, seed=None, mode="perball", workload=None, d=2):
    raise AssertionError("registration never calls the runner")


def _toy_replicator(m, n, *, seed_seqs, workload=None, extra=1):
    raise AssertionError("registration never calls the adapter")


def _toy_dynamic(m, n, *, initial_loads, seed=None, workload=None, knob=0):
    raise AssertionError("registration never calls the adapter")


class TestRegistrationRules:
    def test_capabilities_derived_from_signatures(self, scratch_registry):
        reg = scratch_registry
        reg.register_allocator(
            "toy", summary="toy", modes=("perball", "aggregate")
        )(_toy_runner)
        spec = reg.get_spec("toy")
        assert spec.workload_capable and spec.supports_multicontact
        assert not spec.trial_batched and not spec.dynamic_capable
        reg.register_replicator("toy")(_toy_replicator)
        reg.register_dynamic("toy")(_toy_dynamic)
        spec = reg.get_spec("toy")
        assert spec.trial_batched and spec.dynamic_capable
        assert spec.replicator.runner is _toy_replicator
        assert spec.replicator.options == ("extra",)
        assert reg.get_dynamic("toy") is spec.dynamic
        assert spec.dynamic.options == ("knob",)
        assert spec.capabilities() == (
            "workload", "trial_batched", "dynamic", "multicontact"
        )

        def plain(m, n, *, seed=None):
            raise AssertionError

        reg.register_allocator("toy_plain", summary="toy")(plain)
        spec = reg.get_spec("toy_plain")
        assert not spec.workload_capable and not spec.supports_multicontact

    def test_adapter_for_unknown_allocator(self, scratch_registry):
        with pytest.raises(ValueError, match="unknown allocator 'nope'"):
            scratch_registry.register_replicator("nope")(_toy_replicator)
        with pytest.raises(ValueError, match="unknown allocator 'nope'"):
            scratch_registry.register_dynamic("nope")(_toy_dynamic)

    def test_adapter_without_workload(self, scratch_registry):
        reg = scratch_registry
        reg.register_allocator(
            "toy", summary="toy", modes=("perball", "aggregate")
        )(_toy_runner)

        def no_workload(m, n, *, initial_loads, seed=None):
            raise AssertionError

        with pytest.raises(ValueError, match="must take 'workload'"):
            reg.register_dynamic("toy")(no_workload)
        assert not reg.get_spec("toy").dynamic_capable

    def test_replicator_requires_aggregate_mode(self, scratch_registry):
        reg = scratch_registry
        reg.register_allocator("toy", summary="toy", modes=("perball",))(
            _toy_runner
        )
        with pytest.raises(ValueError, match="'aggregate'"):
            reg.register_replicator("toy")(_toy_replicator)
        assert not reg.get_spec("toy").trial_batched

    def test_duplicate_name_with_different_runner(self, scratch_registry):
        def other(m, n, *, seed=None):
            raise AssertionError

        with pytest.raises(ValueError, match="already registered"):
            scratch_registry.register_allocator("heavy", summary="x")(other)
        assert get_spec("heavy").runner is repro.run_heavy

    def test_alias_collision(self, scratch_registry):
        with pytest.raises(ValueError, match="already claimed by 'heavy'"):
            scratch_registry.register_allocator(
                "toy", summary="toy", aliases=("a_heavy",)
            )(_toy_runner)


class TestOptionValidation:
    def test_unknown_option_rejected_with_valid_list(self):
        with pytest.raises(ValueError, match="bogus.*valid options"):
            allocate("heavy", M, N, seed=SEED, bogus=3)

    def test_option_for_other_algorithm_rejected(self):
        # d belongs to greedy/multicontact, not heavy.
        with pytest.raises(ValueError, match="unknown option"):
            allocate("heavy", M, N, seed=SEED, d=2)

    def test_mode_unsupported_by_algorithm(self):
        with pytest.raises(ValueError, match="supported: perball, aggregate"):
            allocate("asymmetric", M, N, seed=SEED, mode="engine")

    def test_mode_on_modeless_algorithm(self):
        with pytest.raises(ValueError, match="does not take an execution"):
            allocate("trivial", M, N, seed=SEED, mode="aggregate")

    def test_config_fields_passed_flat(self):
        via_api = allocate("heavy", M, N, seed=SEED, stop_factor=3.0)
        direct = repro.run_heavy(
            M, N, seed=SEED, config=repro.HeavyConfig(stop_factor=3.0)
        )
        assert np.array_equal(via_api.loads, direct.loads)

    def test_config_and_flat_fields_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            allocate(
                "heavy",
                M,
                N,
                seed=SEED,
                config=repro.HeavyConfig(),
                stop_factor=3.0,
            )

    def test_runner_kwargs_forwarded(self):
        res = allocate("greedy", M, N, seed=SEED, d=3)
        assert res.algorithm == "greedy[3]"


class TestModeAuto:
    def test_auto_picks_perball_for_small_instances(self):
        res = allocate("single", M, N, seed=SEED)
        assert res.extra["api"]["mode"] == "perball"

    def test_auto_picks_aggregate_above_threshold(self):
        res = allocate("single", AGGREGATE_THRESHOLD, N, seed=SEED)
        assert res.extra["api"]["mode"] == "aggregate"

    def test_auto_none_for_modeless_algorithms(self):
        res = allocate("trivial", M, N, seed=SEED)
        assert res.extra["api"]["mode"] is None

    def test_explicit_mode_respected(self):
        res = allocate("heavy", M, N, seed=SEED, mode="aggregate")
        assert res.extra["api"]["mode"] == "aggregate"

    def test_mode_none_never_upgrades(self):
        # None = the algorithm's own default, even above the threshold
        # — the behavior of calling run_* directly.
        res = allocate("single", AGGREGATE_THRESHOLD, N, seed=SEED, mode=None)
        assert res.extra["api"]["mode"] == "perball"



class TestShimEquivalence:
    """allocate(name, ...) must be bitwise-identical to run_*(...)."""

    CASES = [
        ("heavy", {}),
        ("asymmetric", {}),
        ("combined", {}),
        ("trivial", {}),
        ("single", {}),
        ("greedy", {"d": 2}),
        ("stemann", {}),
        ("batched", {"d": 2}),
        ("dchoice", {"d": 2}),
        ("faulty", {"crash_prob": 0.01, "loss_prob": 0.02}),
        ("multicontact", {"d": 2}),
    ]

    @pytest.mark.parametrize("name,options", CASES)
    def test_loads_bitwise_match(self, name, options):
        runner = EXPECTED_RUNNERS[name]
        via_api = allocate(name, M, N, seed=SEED, **options)
        direct = runner(M, N, seed=SEED, **options)
        assert np.array_equal(via_api.loads, direct.loads)
        assert via_api.rounds == direct.rounds
        assert via_api.total_messages == direct.total_messages

    def test_light_equivalence(self):
        # light requires m <= 2n; its registered runner IS the wrapper.
        via_api = allocate("light", 100, N, seed=SEED)
        direct = repro.run_light_allocation(100, N, seed=SEED)
        assert np.array_equal(via_api.loads, direct.loads)
        assert via_api.max_load <= 2


class TestBatchExecution:
    def test_spawn_seeds_independent_and_reproducible(self):
        a = spawn_seeds(5, 3)
        b = spawn_seeds(5, 3)
        states = [tuple(s.generate_state(4)) for s in a]
        assert len(set(states)) == 3
        assert states == [tuple(s.generate_state(4)) for s in b]

    def test_allocate_many_seed_independence(self):
        results = allocate_many("single", M, N, repeats=3, seed=5)
        assert len(results) == 3
        for i in range(3):
            assert results[i].extra["api"]["repeat"] == i
            for j in range(i + 1, 3):
                assert not np.array_equal(results[i].loads, results[j].loads)

    def test_allocate_many_reproducible_from_root_seed(self):
        first = allocate_many("single", M, N, repeats=3, seed=5)
        again = allocate_many("single", M, N, repeats=3, seed=5)
        for a, b in zip(first, again):
            assert np.array_equal(a.loads, b.loads)
            assert a.seed_entropy == b.seed_entropy

    def test_allocate_many_workers_match_serial(self):
        serial = allocate_many("single", M, N, repeats=4, seed=9)
        pooled = allocate_many("single", M, N, repeats=4, seed=9, workers=2)
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.loads, b.loads)

    def test_allocate_many_workers_match_serial_with_workload(self):
        """Workload runs must be independent of the workers count: the
        workload spec travels inside the pickled task and every cell's
        stream is spawned from the root seed."""
        wl = "zipf:1.1+geomw:0.5+propcap"
        serial = allocate_many(
            "heavy", M, N, repeats=3, seed=9, workload=wl
        )
        pooled = allocate_many(
            "heavy", M, N, repeats=3, seed=9, workload=wl, workers=2
        )
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.loads, b.loads)
            assert (
                a.extra["workload"]["total_weight"]
                == b.extra["workload"]["total_weight"]
            )
            assert a.extra["api"]["workload"] == wl

    def test_sweep_workers_match_serial_with_workload(self):
        points = [(M, 32), (M // 2, 16)]
        serial = sweep("single", points, repeats=2, seed=3, workload="zipf:1.1")
        pooled = sweep(
            "single", points, repeats=2, seed=3, workload="zipf:1.1", workers=2
        )
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.loads, b.loads)

    def test_allocate_many_accepts_generator_seed(self):
        # The package-wide SeedLike forms all work, Generator included.
        first = allocate_many(
            "single", M, N, repeats=2, seed=np.random.default_rng(5)
        )
        again = allocate_many(
            "single", M, N, repeats=2, seed=np.random.default_rng(5)
        )
        assert not np.array_equal(first[0].loads, first[1].loads)
        for a, b in zip(first, again):
            assert np.array_equal(a.loads, b.loads)

    def test_allocate_many_rejects_bad_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            allocate_many("single", M, N, repeats=0, seed=1)

    def test_sweep_grid_and_coordinates(self):
        results = sweep("single", [(M, 32), (2 * M, 64)], repeats=2, seed=3)
        assert [(r.m, r.n) for r in results] == [
            (M, 32),
            (M, 32),
            (2 * M, 64),
            (2 * M, 64),
        ]
        assert [
            (r.extra["api"]["point"], r.extra["api"]["repeat"])
            for r in results
        ] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_sweep_cells_independent(self):
        results = sweep("single", [(M, 32)], repeats=2, seed=3)
        assert not np.array_equal(results[0].loads, results[1].loads)

    def test_sweep_dict_points_override_options(self):
        results = sweep(
            "greedy", [{"m": M, "n": 32, "d": 3}, (M, 32)], seed=1, d=2
        )
        assert results[0].algorithm == "greedy[3]"
        assert results[1].algorithm == "greedy[2]"

    def test_sweep_point_requires_m_and_n(self):
        with pytest.raises(ValueError, match="must provide 'm' and 'n'"):
            sweep("single", [{"m": M}], seed=1)

    def test_sweep_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            sweep("single", [], seed=1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("trial_batched", [None, False])
    @pytest.mark.parametrize("batch", ["allocate_many", "sweep"])
    def test_backend_pinned_on_every_batch_path(
        self, batch, trial_batched, workers
    ):
        """A ``use_backend`` pin reaches the trial-batched engine (in
        process and in shard workers) as well as the per-seed loop."""

        def run():
            if batch == "allocate_many":
                return allocate_many(
                    "heavy", 1000, 16, repeats=2, seed=1, workers=workers,
                    trial_batched=trial_batched,
                )
            return sweep(
                "heavy", [(1000, 16)], repeats=2, seed=1, workers=workers,
                trial_batched=trial_batched,
            )

        with repro.use_backend("reference"):
            pinned = run()
        ambient = run()
        assert [r.extra["api"]["backend"] for r in pinned] == ["reference"] * 2
        batched = [r.extra["api"].get("trial_batched", False) for r in pinned]
        assert batched == [trial_batched is None] * 2
        for a, b in zip(pinned, ambient):
            assert np.array_equal(a.loads, b.loads)


@pytest.fixture
def spawned_pools(monkeypatch):
    """Every process pool starts its workers with ``spawn`` (the default
    on macOS and Windows): a worker inherits nothing of the parent's
    memory, its ``use_backend`` pin included."""
    import functools
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import repro.experiments.parallel as parallel

    monkeypatch.setattr(
        parallel, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("spawn"),
        ),
    )


class TestBackendPinInSpawnedWorkers:
    """A ``use_backend`` pin holds in worker processes whatever their
    start method; the reference backend is pinned because fused is the
    default a bare worker would fall back to."""

    @pytest.mark.parametrize("entry", ["replicate", "allocate_many", "sweep"])
    def test_entry_points_record_the_pin(self, spawned_pools, entry):
        with repro.use_backend("reference"):
            if entry == "replicate":
                results = repro.replicate(
                    "heavy", 20_000, 64, trials=4, seed=1, workers=2
                ).results
            elif entry == "allocate_many":
                results = allocate_many(
                    "heavy", 1000, 16, repeats=2, seed=1,
                    trial_batched=False, workers=2,
                )
            else:
                results = sweep(
                    "heavy", [(1000, 16)], repeats=2, seed=1, workers=2
                )
        assert [r.extra["api"]["backend"] for r in results] == (
            ["reference"] * len(results)
        )

    def test_pool_map_carries_the_pin(self, spawned_pools):
        from repro.api.batch import _allocate_task
        from repro.experiments.parallel import pool_map

        tasks = [("single", 1000, 16, seed, None, {}) for seed in (1, 2)]
        with repro.use_backend("reference"):
            results = pool_map(_allocate_task, tasks, 2)
        assert [r.extra["api"]["backend"] for r in results] == [
            "reference", "reference"
        ]
        serial = [_allocate_task(task) for task in tasks]
        for a, b in zip(results, serial):
            assert np.array_equal(a.loads, b.loads)


class TestSerialization:
    def test_round_trip_through_json(self):
        res = allocate("heavy", M, N, seed=SEED)
        data = res.to_dict()
        text = json.dumps(data)  # must be JSON-safe as-is
        back = repro.AllocationResult.from_dict(json.loads(text))
        assert np.array_equal(back.loads, res.loads)
        assert back.max_load == res.max_load
        assert back.metrics.rounds == res.metrics.rounds
        assert np.array_equal(
            back.messages.bin_received, res.messages.bin_received
        )
        assert back.to_dict() == data  # stable under re-serialization

    def test_sweep_results_persist_via_export(self):
        from repro.experiments.export import (
            results_from_json,
            results_to_json,
        )

        results = sweep("single", [(M, 32)], repeats=2, seed=3)
        text = results_to_json(results)
        back = results_from_json(text)
        assert len(back) == 2
        for orig, restored in zip(results, back):
            assert np.array_equal(orig.loads, restored.loads)
            assert restored.extra["api"]["repeat"] == orig.extra["api"]["repeat"]

    def test_incomplete_result_round_trips(self):
        res = allocate("heavy", M, N, seed=SEED, handoff=False)
        assert not res.complete
        back = repro.AllocationResult.from_dict(res.to_dict())
        assert back.unallocated == res.unallocated
        assert not back.complete


class TestCliRegistryDriven:
    def test_list_command(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in allocator_names():
            assert name in out
        assert "fault_tolerant" in out
        assert "Theorem 1" in out

    def test_every_spec_is_a_subcommand(self, capsys):
        from repro.__main__ import main

        assert main(["light", "--m", "50", "--n", "32", "--seed", "1"]) == 0
        assert "light" in capsys.readouterr().out
        assert main(["faulty", "--m", "2000", "--n", "32", "--seed", "1",
                     "--crash-prob", "0.01"]) == 0
        assert "faulty" in capsys.readouterr().out

    def test_mode_choices_derived_from_registry(self, capsys):
        from repro.__main__ import main

        # asymmetric does not support engine mode: argparse must reject
        # it (choices come from the spec, not a hand-written list).
        with pytest.raises(SystemExit) as excinfo:
            main(["asymmetric", "--m", "100", "--n", "10", "--mode", "engine"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        # trivial has no modes at all, so --mode is not even an option.
        with pytest.raises(SystemExit):
            main(["trivial", "--m", "100", "--n", "10", "--mode", "perball"])

    def test_api_doctests(self):
        import doctest

        import repro.api
        import repro.api.dispatch

        for module in (repro.api, repro.api.dispatch):
            results = doctest.testmod(module, verbose=False)
            assert results.failed == 0, module.__name__


class TestKernelCapability:
    def test_kernel_capability_listed(self, capsys):
        from repro.__main__ import main

        # The round-kernel protocols are the workload-capable ones, so
        # the listing's workload column is the kernel capability.
        assert main(["list"]) == 0
        assert "workload" in capsys.readouterr().out.splitlines()[0]

    def test_vectorized_specs_are_kernel_backed(self):
        # Every spec with an aggregate mode must run on the shared
        # RoundState kernels (the acceptance bar of ISSUE 2).
        for spec in repro.list_allocators():
            if "aggregate" in spec.modes:
                assert spec.workload_capable, spec.name
        # ... and so are the perball-only protocols refactored onto it.
        for name in ("light", "trivial", "faulty", "multicontact", "dchoice"):
            assert repro.get_spec(name).workload_capable, name

    def test_stemann_gained_aggregate_mode(self):
        res = allocate("stemann", AGGREGATE_THRESHOLD, 256, seed=SEED)
        assert res.extra["api"]["mode"] == "aggregate"
        assert res.complete


class TestCliBench:
    def test_bench_subcommand_times_registry(self, capsys):
        from repro.__main__ import main

        code = main(
            ["bench", "--m", "4000", "--n", "16", "--seeds", "1",
             "--algorithms", "heavy,single"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "balls/s" in out
        # both modes of each requested algorithm appear
        for token in ("heavy", "single", "perball", "aggregate"):
            assert token in out
        assert "stemann" not in out  # restricted to the requested set

    def test_bench_kernel_only_excludes_batched(self, capsys):
        from repro.__main__ import main

        assert main(
            ["bench", "--m", "2000", "--n", "16", "--kernel-only"]
        ) == 0
        out = capsys.readouterr().out
        assert "batched" not in out
        assert "heavy" in out

    def test_bench_honors_seed_flag(self):
        from repro.api import benchmark_registry

        # --seed S --seeds k benches seeds S..S+k-1; spot-check the
        # plumbing by reproducing the gap of an explicit seed-42 run.
        import repro

        records = benchmark_registry(4000, 16, seeds=(42,), algorithms=("single",))
        perball = next(r for r in records if r["mode"] == "perball")
        direct = repro.allocate("single", 4000, 16, seed=42, mode="perball")
        assert perball["max_load"] == direct.max_load

    def test_bench_json_output(self, tmp_path, capsys):
        import json

        from repro.__main__ import main

        path = tmp_path / "bench.json"
        assert main(
            ["bench", "--m", "2000", "--n", "16",
             "--algorithms", "single", "--json", str(path)]
        ) == 0
        records = json.loads(path.read_text())
        assert {r["algorithm"] for r in records} == {"single"}
        assert all(r["seconds_mean"] > 0 for r in records)

    def test_benchmark_registry_records(self):
        from repro.api import benchmark_registry

        records = benchmark_registry(
            2000, 16, seeds=(0, 1), algorithms=("heavy",)
        )
        modes = {r["mode"] for r in records}
        assert modes == {"perball", "aggregate"}
        for r in records:
            assert r["seeds"] == 2
            assert r["m"] == 2000 and r["n"] == 16
            assert r["balls_per_sec"] > 0

    def test_benchmark_engine_reference(self):
        from repro.api.bench import benchmark_allocate

        rec = benchmark_allocate("heavy", "engine", 500, 8, (0,))
        assert rec["mode"] == "engine"
        assert rec["seconds_mean"] > 0


class TestCapabilityNotes:
    """Error messages list capable algorithms through one shared
    helper, so dispatch and dynamic errors never drift apart."""

    def test_capable_allocators_matches_registry(self):
        from repro.api import capable_allocators, list_allocators

        assert capable_allocators("workload_capable") == [
            s.name for s in list_allocators() if s.workload_capable
        ]
        assert capable_allocators("dynamic_capable") == [
            s.name for s in list_allocators() if s.dynamic_capable
        ]

    def test_capability_note_format(self):
        from repro.api import capability_note, capable_allocators

        note = capability_note("workload_capable")
        assert note == "workload-capable allocators: " + ", ".join(
            capable_allocators("workload_capable")
        )
        assert capability_note("dynamic_capable") == (
            "dynamic-capable allocators: combined, heavy, single, stemann"
        )

    def test_dispatch_error_carries_note(self):
        from repro.api import capability_note

        with pytest.raises(ValueError) as err:
            allocate("greedy", 1000, 64, seed=1, workload="zipf:1.1")
        assert capability_note("workload_capable") in str(err.value)

    def test_dynamic_resolution_error_carries_note(self):
        from repro.api import capability_note
        from repro.dynamic import run_dynamic

        with pytest.raises(ValueError) as err:
            run_dynamic("greedy", 1000, 64, seed=1, epochs=1)
        assert capability_note("dynamic_capable") in str(err.value)

    def test_dynamic_weighted_rejection_lists_capable(self):
        from repro.api import capability_note
        from repro.dynamic import run_dynamic
        from repro.workloads import WorkloadError

        with pytest.raises(WorkloadError) as err:
            run_dynamic(
                "heavy", 1000, 64, seed=1, epochs=1, workload="geomw:0.5"
            )
        message = str(err.value)
        assert "repro.allocate()" in message
        assert capability_note("workload_capable") in message

    def test_dispatch_and_dynamic_use_identical_suffix(self):
        from repro.api import capability_note
        from repro.dynamic import run_dynamic
        from repro.workloads import WorkloadError

        with pytest.raises(ValueError) as dispatch_err:
            allocate("batched", 1000, 64, seed=1, workload="zipf:1.1")
        with pytest.raises(WorkloadError) as dynamic_err:
            run_dynamic(
                "heavy", 1000, 64, seed=1, epochs=1, workload="geomw:0.5"
            )
        suffix = capability_note("workload_capable")
        assert str(dispatch_err.value).endswith(suffix)
        assert str(dynamic_err.value).endswith(suffix)
