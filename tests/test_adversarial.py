"""Adversarial & degraded regimes: attack policies, fault injection,
graceful degradation — plus the edge-path bugfix pins.

Covers the PR-9 surface:

* the gap-maximizing greedy departure adversary and the hotset-
  targeting arrival adversary (``DynamicSpec`` extensions);
* ``FaultModel``/``parse_faults``/``FaultState``/``place_with_loss``
  — bin quarantine and ghost-slot ack loss under churn, through both
  ``run_dynamic`` and ``AllocatorService``;
* time-varying workloads (skew drift, flash crowds);
* the determinism matrix: every new policy/fault regime replays
  bitwise from the seed, ``workers=1`` ≡ ``workers=2``, and the
  all-zero ``FaultModel`` is bitwise-identical to ``None``;
* regression pins for the edge-path fixes: the Poisson churn=1
  population clamp, the release-spill queue-overflow fix, and the
  kernel-backend env validation reached through the dynamic/service
  call paths.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro import (
    AllocatorService,
    FaultModel,
    TimeVaryingWorkload,
    parse_faults,
    parse_time_varying,
    run_dynamic,
    run_dynamic_many,
    simulate_service,
)
from repro.api import get_dynamic
from repro.api.bench import ADVERSARIAL_COLUMNS, benchmark_adversarial, render
from repro.dynamic.churn import _attack_workload
from repro.dynamic.faults import FaultState, place_with_loss
from repro.dynamic.state import ResidentState
from repro.fastpath.backend import BACKEND_ENV_VAR
from repro.result import AllocationResult
from repro.service.events import EventQueue, SimulatedClock
from repro.workloads import Workload, WorkloadError

DYNAMIC_CAPABLE = ("heavy", "combined", "single", "stemann")

FAULTY = FaultModel(bin_fail_prob=0.1, bin_recover_prob=0.3, loss_prob=0.05)


def _result_key(res):
    """Everything bitwise-comparable about a DynamicResult (wall time
    excluded: ``seconds`` differs between identical runs)."""
    records = [
        {k: v for k, v in r.to_dict().items() if k != "seconds"}
        for r in res.records
    ]
    return records, res.loads_history.tolist()


def _fill(loads):
    state = ResidentState(len(loads), "greedy_adversary")
    state.add_cohort(0, np.asarray(loads, dtype=np.int64))
    return state


# ---------------------------------------------------------------------------
# The greedy departure adversary
# ---------------------------------------------------------------------------


class TestGreedyAdversaryDepartures:
    def test_drains_lightest_levels_first(self, rng):
        state = _fill([10, 1, 3, 3, 7])
        gone = state.depart(4, rng)
        # 1 from the level-1 bin, then 3 of the 6 balls at level 3 —
        # the heavy bins (7, 10) are untouched.
        assert int(gone.sum()) == 4
        assert gone[1] == 1
        assert gone[0] == 0 and gone[4] == 0
        assert state.loads[0] == 10 and state.loads[4] == 7

    def test_max_bin_survives_partial_drain(self, rng):
        state = _fill([20, 5, 5, 5])
        gone = state.depart(15, rng)
        # The three light bins are emptied; the maximum is untouched.
        assert gone[0] == 0 and int(gone.sum()) == 15
        assert state.loads[0] == 20
        assert state.population == 20

    def test_tied_boundary_level_spread(self, rng):
        # Four bins tied at load 6; budget 10 cannot empty the level,
        # so spread_budget apportions it across the tied bins.
        state = _fill([6, 6, 6, 6])
        gone = state.depart(10, rng)
        assert int(gone.sum()) == 10
        assert gone.max() - gone.min() <= 1

    def test_full_population_drain(self, rng):
        state = _fill([4, 2, 9])
        gone = state.depart(15, rng)
        assert int(gone.sum()) == 15
        assert state.population == 0

    def test_zero_is_noop_without_draw(self):
        state = _fill([1, 2, 3])
        gone = state.depart(0, None)
        assert not gone.any()
        assert state.population == 6

    def test_per_bin_drain_deterministic_in_loads(self):
        loads = [8, 1, 5, 5, 12, 0, 3]
        outs = []
        for seed in (0, 1):
            state = _fill(list(loads))
            rng = np.random.default_rng(seed)
            outs.append(state.depart(9, rng))
        # The per-bin drain is a pure function of the loads.
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("algo", DYNAMIC_CAPABLE)
    def test_run_dynamic_completes(self, algo):
        res = run_dynamic(
            algo, 2_000, 16, seed=3, epochs=3, churn=0.2,
            departures="greedy_adversary",
        )
        assert res.complete
        assert res.records[-1].population == 2_000


# ---------------------------------------------------------------------------
# The hotset-targeting arrival adversary
# ---------------------------------------------------------------------------


class TestHotsetAdversaryArrivals:
    def test_attack_workload_targets_hottest_bins(self):
        loads = np.array([5, 9, 1, 7, 3, 2, 0, 4], dtype=np.int64)
        wl = _attack_workload(loads, hot_frac=0.25)
        p = wl.pvals(8)
        hot = np.argsort(-loads, kind="stable")[:2]
        assert set(np.flatnonzero(p > 0)) == set(hot.tolist())
        np.testing.assert_allclose(p[hot], 0.5)

    def test_attack_workload_tie_break_stable(self):
        loads = np.zeros(6, dtype=np.int64)
        p = _attack_workload(loads, hot_frac=0.3).pvals(6)
        # All tied: the stable argsort picks the lowest indices.
        assert set(np.flatnonzero(p > 0)) == {0, 1}

    def test_attack_workload_keeps_live_targets(self):
        loads = np.array([5, 9, 1, 7, 3, 2, 0, 4], dtype=np.int64)
        failed = np.zeros(8, dtype=bool)
        failed[1] = True  # one of the two hottest bins is down
        p = _attack_workload(loads, 0.25, failed).pvals(8)
        np.testing.assert_array_equal(p, _attack_workload(loads, 0.25).pvals(8))

    def test_attack_workload_retargets_when_every_target_failed(self):
        loads = np.array([5, 9, 1, 7, 3, 2, 0, 4], dtype=np.int64)
        failed = np.zeros(8, dtype=bool)
        failed[[1, 3]] = True  # both hottest bins are down
        p = _attack_workload(loads, 0.25, failed).pvals(8)
        # The hottest live bins, 0 (load 5) and 7 (load 4), take over.
        assert set(np.flatnonzero(p > 0)) == {0, 7}
        np.testing.assert_allclose(p[[0, 7]], 0.5)

    def test_attack_with_every_target_failed_still_places(self):
        # Both ceil(0.1 * 12) = 2 attacked bins fail; the cohort aims
        # at the hottest live bins instead of having nowhere to go.
        res = run_dynamic(
            "heavy", 1_500, 12, seed=7, epochs=3, churn=0.3,
            arrivals="hotset_adversary",
            fault_model=FaultModel(0.05, 0.25, 0.02), mode="perball",
        )
        assert res.complete
        assert [r.unplaced for r in res.records] == [0] * 4
        assert res.records[-1].population == 1_500

    def test_run_dynamic_completes(self):
        res = run_dynamic(
            "heavy", 2_000, 16, seed=5, epochs=3, churn=0.2,
            arrivals="hotset_adversary", hot_frac=0.2,
        )
        assert res.complete
        assert res.spec.arrivals == "hotset_adversary"

    def test_rejects_explicit_workload(self):
        with pytest.raises(ValueError, match="hotset_adversary"):
            run_dynamic(
                "heavy", 1_000, 16, seed=0, epochs=2,
                arrivals="hotset_adversary",
                workload=Workload.zipf(1.2),
            )

    def test_rejects_time_workload(self):
        with pytest.raises(ValueError, match="hotset_adversary"):
            run_dynamic(
                "heavy", 1_000, 16, seed=0, epochs=2,
                arrivals="hotset_adversary",
                time_workload="drift:1.0:2.0",
            )

    def test_simulate_service_rejects(self):
        with pytest.raises(ValueError, match="hotset_adversary"):
            simulate_service(
                "heavy", 1_000, 16, seed=0, epochs=2,
                arrivals="hotset_adversary",
            )


# ---------------------------------------------------------------------------
# FaultModel / parse_faults
# ---------------------------------------------------------------------------


class TestFaultModel:
    def test_defaults_are_null(self):
        assert FaultModel().is_null
        assert FaultModel().describe() == "none"

    def test_nonzero_not_null(self):
        assert not FAULTY.is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bin_fail_prob": -0.1},
            {"bin_fail_prob": 1.5},
            {"loss_prob": 2.0},
            {"max_failed_frac": 1.0},
            {"max_failed_frac": -0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultModel(**kwargs)

    def test_to_dict_round_trip(self):
        assert FaultModel(**FAULTY.to_dict()) == FAULTY


class TestParseFaults:
    @pytest.mark.parametrize("text", [None, "", "  ", "none", "NONE"])
    def test_empty_means_none(self, text):
        assert parse_faults(text) is None

    def test_aliases(self):
        model = parse_faults("bin_fail=0.1,recover=0.3,loss=0.05")
        assert model == FAULTY
        assert parse_faults("fail=0.1,bin_recover=0.3,loss_prob=0.05") == (
            FAULTY
        )

    def test_max_failed(self):
        model = parse_faults("fail=0.2,max_failed=0.25")
        assert model.max_failed_frac == 0.25

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault key"):
            parse_faults("bogus=1")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_faults("loss")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="bad fault value"):
            parse_faults("loss=often")

    def test_out_of_range_propagates(self):
        with pytest.raises(ValueError, match="loss_prob"):
            parse_faults("loss=1.5")


# ---------------------------------------------------------------------------
# FaultState: quarantine bookkeeping
# ---------------------------------------------------------------------------


class TestFaultState:
    def test_requires_fault_model(self):
        with pytest.raises(TypeError, match="FaultModel"):
            FaultState(8, {"loss_prob": 0.1})

    def test_step_deterministic(self):
        masks = []
        for _ in range(2):
            state = FaultState(32, FAULTY)
            rng = np.random.default_rng(7)
            for _ in range(10):
                state.step(rng)
            masks.append(state.failed.copy())
        np.testing.assert_array_equal(masks[0], masks[1])

    def test_failed_limit_cap(self):
        model = FaultModel(bin_fail_prob=1.0, max_failed_frac=0.5)
        state = FaultState(8, model)
        rng = np.random.default_rng(0)
        for _ in range(20):
            state.step(rng)
        assert state.failed_count <= state.failed_limit == 4

    def test_at_least_one_bin_survives(self):
        model = FaultModel(bin_fail_prob=1.0, max_failed_frac=0.99)
        state = FaultState(4, model)
        rng = np.random.default_rng(1)
        for _ in range(10):
            state.step(rng)
        assert state.failed_count <= 3

    def test_null_step_consumes_no_randomness(self):
        state = FaultState(16, FaultModel())
        rng = np.random.default_rng(42)
        state.step(rng)
        assert rng.integers(0, 100) == np.random.default_rng(42).integers(
            0, 100
        )

    def test_quarantined_passthrough_when_healthy(self):
        state = FaultState(8, FAULTY)
        wl = Workload.zipf(1.3)
        assert state.quarantined(wl, 8) is wl
        assert state.quarantined(None, 8) is None

    def test_quarantined_zeros_and_renormalizes(self):
        state = FaultState(4, FAULTY)
        state.failed[1] = True
        wl = state.quarantined(None, 4)
        p = wl.pvals(4)
        assert p[1] == 0.0
        np.testing.assert_allclose(p.sum(), 1.0)
        np.testing.assert_allclose(p[[0, 2, 3]], 1.0 / 3.0)

    def test_quarantined_preserves_workload_shape(self):
        state = FaultState(4, FAULTY)
        state.failed[0] = True
        wl = Workload.explicit(np.array([0.4, 0.3, 0.2, 0.1]))
        p = state.quarantined(wl, 4).pvals(4)
        assert p[0] == 0.0
        np.testing.assert_allclose(p[1:], np.array([0.3, 0.2, 0.1]) / 0.6)

    def test_quarantined_rejects_mass_only_on_failed_bins(self):
        state = FaultState(4, FAULTY)
        state.failed[[0, 1]] = True
        wl = Workload.explicit(np.array([0.5, 0.5, 0.0, 0.0]))
        with pytest.raises(RuntimeError, match="every bin carrying"):
            state.quarantined(wl, 4)


# ---------------------------------------------------------------------------
# place_with_loss: ghost-slot ack loss
# ---------------------------------------------------------------------------


def _uniform_place_fn(n):
    """A deterministic stand-in placement: round-robin, one round."""

    def place(count, initial, seed):
        base, extra = divmod(count, n)
        cohort = np.full(n, base, dtype=np.int64)
        if extra:
            order = np.argsort(initial + cohort, kind="stable")[:extra]
            cohort[order] += 1
        return AllocationResult(
            "round-robin", count, n, cohort, rounds=1, total_messages=count
        )

    return place


class TestPlaceWithLoss:
    def test_zero_loss_is_verbatim(self):
        n = 8
        initial = np.zeros(n, dtype=np.int64)
        seed = np.random.SeedSequence(5)
        rng = np.random.default_rng(0)
        out = place_with_loss(
            _uniform_place_fn(n), 40, initial, seed, 0.0, rng
        )
        assert out.extra["lost_acks"] == 0
        assert not out.extra["ghosts"].any()
        assert int(out.loads.sum()) == 40
        # Zero loss draws nothing from the fault stream.
        assert rng.integers(0, 100) == np.random.default_rng(0).integers(
            0, 100
        )

    def test_loss_conserves_counts(self):
        n = 8
        initial = np.full(n, 3, dtype=np.int64)
        out = place_with_loss(
            _uniform_place_fn(n),
            100,
            initial,
            np.random.SeedSequence(9),
            0.2,
            np.random.default_rng(11),
        )
        ghosts = out.extra["ghosts"]
        assert out.extra["lost_acks"] > 0
        assert (ghosts >= 0).all() and (out.loads >= 0).all()
        assert int(ghosts.sum()) == out.extra["lost_acks"]
        assert int(out.loads.sum()) == 100 - out.unallocated

    def test_deterministic(self):
        n = 8
        args = (
            _uniform_place_fn(n),
            64,
            np.zeros(n, dtype=np.int64),
        )
        outs = [
            place_with_loss(
                *args,
                np.random.SeedSequence(3),
                0.3,
                np.random.default_rng(21),
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(outs[0].loads, outs[1].loads)
        np.testing.assert_array_equal(
            outs[0].extra["ghosts"], outs[1].extra["ghosts"]
        )
        assert outs[0].extra["lost_acks"] == outs[1].extra["lost_acks"]

    def test_adapter_cohort_under_loss(self):
        """Through a real adapter, the acked cohort is an
        ``AllocationResult`` of the whole count."""
        heavy = get_dynamic("heavy").runner
        initial = np.full(16, 40, dtype=np.int64)
        out = place_with_loss(
            lambda count, loads, seed: heavy(
                count, 16, initial_loads=loads, seed=seed
            ),
            320,
            initial,
            np.random.SeedSequence(4),
            0.1,
            np.random.default_rng(5),
        )
        assert isinstance(out, AllocationResult)
        assert (out.algorithm, out.m, out.unallocated) == ("heavy", 320, 0)
        assert out.extra["lost_acks"] > 0
        assert int(out.loads.sum()) == 320

    def test_max_retries_gives_up(self):
        n = 4
        out = place_with_loss(
            _uniform_place_fn(n),
            50,
            np.zeros(n, dtype=np.int64),
            np.random.SeedSequence(1),
            0.9,
            np.random.default_rng(2),
            max_retries=1,
        )
        assert out.unallocated > 0
        assert int(out.loads.sum()) + out.unallocated == 50


# ---------------------------------------------------------------------------
# Time-varying workloads
# ---------------------------------------------------------------------------


class TestTimeVarying:
    def test_parse_drift_round_trip(self):
        tv = parse_time_varying("drift:1.0:2.5")
        assert tv.kind == "drift"
        assert tv.start_skew == 1.0 and tv.end_skew == 2.5
        assert parse_time_varying(tv.describe()) == tv

    def test_parse_flash_round_trip(self):
        tv = parse_time_varying("flash:4:50:3")
        assert (tv.flash_every, tv.flash_factor, tv.flash_bin) == (4, 50, 3)
        assert parse_time_varying(tv.describe()) == tv

    def test_drift_endpoints(self):
        tv = TimeVaryingWorkload(
            kind="drift", start_skew=1.0, end_skew=3.0
        )
        assert tv.workload_at(0, 10, 16).choice_params == (1.0,)
        assert tv.workload_at(10, 10, 16).choice_params == (3.0,)
        assert tv.workload_at(5, 10, 16).choice_params == (2.0,)

    def test_flash_epochs_spike_one_bin(self):
        tv = TimeVaryingWorkload(
            kind="flash", flash_every=3, flash_factor=10.0, flash_bin=2
        )
        assert tv.workload_at(0, 9, 8) is None
        assert tv.workload_at(1, 9, 8) is None
        p = tv.workload_at(3, 9, 8).pvals(8)
        assert p[2] == pytest.approx(10.0 / 17.0)

    @pytest.mark.parametrize(
        "text", ["drift:0:2", "flash:1:10", "flash:3:0.5", "sawtooth:1:2"]
    )
    def test_bad_specs_raise(self, text):
        with pytest.raises(WorkloadError):
            parse_time_varying(text)

    def test_mutually_exclusive_with_workload(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_dynamic(
                "heavy", 1_000, 16, seed=0, epochs=2,
                workload=Workload.zipf(1.2),
                time_workload="drift:1.0:2.0",
            )

    @pytest.mark.parametrize(
        "tw", ["drift:1.0:2.0", "flash:2:40"]
    )
    def test_run_dynamic_completes(self, tw):
        res = run_dynamic(
            "heavy", 2_000, 16, seed=4, epochs=4, churn=0.2,
            time_workload=tw,
        )
        assert res.complete


# ---------------------------------------------------------------------------
# run_dynamic under faults
# ---------------------------------------------------------------------------


class TestDynamicFaults:
    def test_faulted_run_records_quarantine(self):
        res = run_dynamic(
            "heavy", 2_000, 16, seed=13, epochs=6, churn=0.2,
            fault_model=FAULTY,
        )
        assert res.complete
        assert res.records[-1].population == 2_000
        assert res.failed_bins.max() >= 1
        assert res.lost_acks > 0
        assert res.lost_acks == sum(r.lost_acks for r in res.records)

    def test_fault_model_requires_incremental(self):
        with pytest.raises(ValueError, match="incremental"):
            run_dynamic(
                "heavy", 1_000, 16, seed=0, epochs=2,
                rebalance="full_rerun", fault_model=FAULTY,
            )

    def test_adversary_plus_faults_completes(self):
        res = run_dynamic(
            "heavy", 2_000, 16, seed=8, epochs=5, churn=0.2,
            arrivals="hotset_adversary",
            departures="greedy_adversary",
            fault_model=FAULTY,
        )
        assert res.complete


# ---------------------------------------------------------------------------
# The determinism matrix (satellite: adversarial determinism tests)
# ---------------------------------------------------------------------------

REGIMES = {
    "hotset_arrivals": dict(arrivals="hotset_adversary", hot_frac=0.2),
    "greedy_departures": dict(departures="greedy_adversary"),
    "faults": dict(fault_model=FAULTY),
    "drift": dict(time_workload="drift:1.0:2.0"),
    "flash": dict(time_workload="flash:2:30"),
    "combined_attack": dict(
        arrivals="hotset_adversary",
        departures="greedy_adversary",
        fault_model=FAULTY,
    ),
}


class TestAdversarialDeterminism:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_same_seed_bitwise(self, regime):
        runs = [
            run_dynamic(
                "heavy", 2_000, 16, seed=17, epochs=4, churn=0.2,
                **REGIMES[regime],
            )
            for _ in range(2)
        ]
        assert _result_key(runs[0]) == _result_key(runs[1])

    def test_workers_do_not_change_values(self):
        kwargs = dict(
            repeats=3, seed=23, epochs=3, churn=0.2,
            departures="greedy_adversary", fault_model=FAULTY,
        )
        serial = run_dynamic_many("heavy", 2_000, 16, workers=1, **kwargs)
        fanned = run_dynamic_many("heavy", 2_000, 16, workers=2, **kwargs)
        assert [_result_key(r) for r in serial] == [
            _result_key(r) for r in fanned
        ]

    def test_null_fault_model_is_bitwise_none(self):
        base = run_dynamic(
            "heavy", 2_000, 16, seed=29, epochs=4, churn=0.2
        )
        nulled = run_dynamic(
            "heavy", 2_000, 16, seed=29, epochs=4, churn=0.2,
            fault_model=FaultModel(),
        )
        assert _result_key(base) == _result_key(nulled)

    def test_null_fault_model_is_bitwise_none_service(self):
        def drive(fault_model):
            svc = AllocatorService(
                "heavy", 16, seed=31, max_batch=500,
                auto_flush=False, clock=SimulatedClock(),
                fault_model=fault_model,
            )
            for _ in range(4):
                svc.place(400)
                svc.release(80)
                svc.flush(all_pending=True)
            return [
                {k: v for k, v in r.to_dict().items() if k != "seconds"}
                for r in svc.records
            ], svc.residents.loads.tolist()

        assert drive(None) == drive(FaultModel())

    def test_benign_unaffected_by_new_streams(self):
        # The spec round-trips through describe/to_dict with the new
        # fields without perturbing a benign run's draws.
        res = run_dynamic("heavy", 2_000, 16, seed=37, epochs=3, churn=0.1)
        assert res.spec.to_dict()["hot_frac"] == 0.1
        assert res.failed_bins.max() == 0
        assert res.lost_acks == 0


# ---------------------------------------------------------------------------
# Graceful degradation: the drain_settle escalation
# ---------------------------------------------------------------------------


class TestDrainSettle:
    def test_auto_enabled_under_attack(self):
        attacked = run_dynamic(
            "heavy", 10_000, 32, seed=41, epochs=6, churn=0.2,
            departures="greedy_adversary",
        )
        oblivious = run_dynamic(
            "heavy", 10_000, 32, seed=41, epochs=6, churn=0.2,
            departures="greedy_adversary", drain_settle=False,
        )
        assert attacked.complete
        # Without the escalation the load-oblivious phase-2 handoff
        # ratchets the maximum up every epoch; the escalation must do
        # no worse and (at this scale) strictly better.
        assert attacked.gaps.max() <= oblivious.gaps.max()

    def test_benign_default_off(self):
        benign = run_dynamic(
            "heavy", 2_000, 16, seed=43, epochs=3, churn=0.1
        )
        explicit = run_dynamic(
            "heavy", 2_000, 16, seed=43, epochs=3, churn=0.1,
            drain_settle=False,
        )
        assert _result_key(benign) == _result_key(explicit)


# ---------------------------------------------------------------------------
# Service under attack and faults
# ---------------------------------------------------------------------------


class TestServiceDegraded:
    def test_greedy_departures_complete(self):
        report = simulate_service(
            "heavy", 4_000, 16, seed=47, epochs=4, churn=0.2,
            arrivals="fixed", departures="greedy_adversary",
        )
        assert all(r.unplaced == 0 for r in report.records)

    def test_fault_stats_surface(self):
        svc = AllocatorService(
            "heavy", 16, seed=53, max_batch=2_000,
            auto_flush=False, fault_model=FAULTY,
        )
        for _ in range(6):
            svc.place(1_000)
            svc.release(200)
            svc.flush(all_pending=True)
        stats = svc.stats()
        assert stats.lost_acks > 0
        assert stats.lost_acks == sum(r.lost_acks for r in svc.records)
        assert max(r.failed_bins for r in svc.records) >= 1

    def test_service_matches_run_dynamic_under_attack(self):
        # The flush ≡ epoch bitwise pin must survive the greedy
        # departure policy (control stream alignment).
        m, n, epochs, churn = 2_000, 16, 3, 0.2
        dyn = run_dynamic(
            "heavy", m, n, seed=59, epochs=epochs, churn=churn,
            arrivals="fixed", departures="greedy_adversary",
        )
        svc = AllocatorService(
            "heavy", n, seed=59, max_batch=10**9,
            clock=SimulatedClock(), departures="greedy_adversary",
        )
        svc.place(m)
        svc.flush()
        np.testing.assert_array_equal(
            svc.residents.loads, dyn.loads_history[0]
        )
        count = round(churn * m)
        for epoch in range(1, epochs + 1):
            svc.release(count)
            svc.place(count)
            svc.flush()
            np.testing.assert_array_equal(
                svc.residents.loads, dyn.loads_history[epoch]
            )

    @pytest.mark.parametrize("mode", ["perball", "aggregate"])
    @pytest.mark.parametrize(
        "departures", ["uniform", "fifo", "greedy_adversary"]
    )
    @pytest.mark.parametrize(
        "fault_model",
        [
            None,
            FaultModel(0.05, 0.25, 0.02),
            FaultModel(0.1, 0.2),
            FaultModel(loss_prob=0.05),
        ],
        ids=["benign", "fail+recover+loss", "fail+recover", "loss"],
    )
    def test_service_matches_run_dynamic_under_faults(
        self, fault_model, departures, mode
    ):
        # Quarantine and ghost-slot retries draw from the same control
        # child in a flush as in an epoch: every batch record and every
        # post-flush load vector equals its run_dynamic counterpart.
        m, n, epochs, churn = 2_000, 16, 6, 0.2
        dyn = run_dynamic(
            "heavy", m, n, seed=61, epochs=epochs, churn=churn,
            arrivals="fixed", departures=departures,
            fault_model=fault_model, mode=mode,
        )
        svc = AllocatorService(
            "heavy", n, seed=61, max_batch=10**9,
            clock=SimulatedClock(), departures=departures,
            fault_model=fault_model, mode=mode,
        )
        shared = (
            "placed", "unplaced", "moved", "rounds", "messages",
            "population", "max_load", "gap", "failed_bins", "lost_acks",
        )
        count = round(churn * m)
        for epoch, expected in enumerate(dyn.records):
            if epoch:
                svc.release(count)
            svc.place(count if epoch else m)
            batch = svc.flush()
            np.testing.assert_array_equal(
                svc.residents.loads, dyn.loads_history[epoch]
            )
            assert batch.places == expected.arrivals
            assert batch.released == expected.departures
            assert [getattr(batch, f) for f in shared] == [
                getattr(expected, f) for f in shared
            ], epoch


# ---------------------------------------------------------------------------
# Edge-path regression pins
# ---------------------------------------------------------------------------


class TestPoissonFullChurnClamp:
    """Satellite pin: Poisson departures at churn=1 are clamped to the
    live population (``count = min(count, residents.population)``)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_population_never_negative(self, seed):
        res = run_dynamic(
            "heavy", 1_000, 16, seed=seed, epochs=6, churn=1.0,
            arrivals="poisson",
        )
        assert res.complete
        for rec in res.records:
            assert rec.population >= 0
            assert rec.departures <= 1_000
        assert (res.loads_history >= 0).all()

    def test_departures_clamped_consistent(self):
        res = run_dynamic(
            "heavy", 500, 8, seed=7, epochs=8, churn=1.0,
            arrivals="poisson",
        )
        pop = 0
        for rec in res.records:
            assert rec.departures <= pop
            pop = pop - rec.departures + rec.placed
            assert rec.population == pop


class TestReleaseSpillFix:
    """Satellite pin: releases spill past the queue bound (shedding a
    departure would leak its balls' occupancy forever)."""

    def test_queue_release_spills_place_overflows(self):
        q = EventQueue(10)
        q.push("place", 10, 0.0)
        with pytest.raises(OverflowError):
            q.push("place", 1, 0.0)
        q.push("release", 5, 0.0)
        assert q.pending == 15
        assert q.pending_releases == 5

    def test_service_never_drops_releases_at_capacity(self):
        svc = AllocatorService(
            "heavy", 16, seed=61, max_batch=100, max_queue=100,
            auto_flush=False,
        )
        svc.place(100)
        svc.flush(all_pending=True)
        assert svc.population == 100
        # Queue full of places; the release must still be admitted.
        svc.place(100)
        assert svc.queue.pending == 100
        assert svc.release(40) == "accept"
        assert svc.queue.pending == 140
        svc.flush(all_pending=True)
        assert svc.population == 160
        assert svc.stats().dropped_releases == 0


class TestBackendEnvThroughEdgePaths:
    """Satellite pin: garbage in REPRO_KERNEL_BACKEND is a clear
    ValueError through the dynamic and service call paths too (fixed
    upstream at backend resolution; these pin the integration)."""

    def test_run_dynamic_rejects_garbage_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            run_dynamic("heavy", 1_000, 16, seed=0, epochs=1)

    def test_service_rejects_garbage_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "warp-drive")
        svc = AllocatorService(
            "heavy", 16, seed=0, max_batch=100, auto_flush=False
        )
        svc.place(50)
        with pytest.raises(ValueError, match="unknown kernel backend"):
            svc.flush(all_pending=True)


# ---------------------------------------------------------------------------
# The adversarial benchmark harness
# ---------------------------------------------------------------------------


class TestBenchmarkAdversarial:
    def test_smoke(self):
        records = benchmark_adversarial(
            2_000, 16, epochs=3, churn=0.2, seed=0,
            algorithms=("heavy", "single"),
        )
        assert len(records) == 4
        assert {r["regime"] for r in records} == {"benign", "adversarial"}
        degraded = {
            r["algorithm"]: r["degradation"]
            for r in records
            if r["regime"] == "adversarial"
        }
        assert set(degraded) == {"heavy", "single"}
        assert all(v > 0 for v in degraded.values())

    def test_rejects_static_algorithm(self):
        with pytest.raises(ValueError):
            benchmark_adversarial(
                1_000, 16, epochs=2, algorithms=("always_go_left",)
            )

    def test_record_dict_and_table(self):
        records = benchmark_adversarial(
            1_000, 16, epochs=2, churn=0.2, seed=1, algorithms=("heavy",),
            fault_model=FAULTY,
        )
        payload = json.loads(json.dumps(records[0]))
        assert payload["algorithm"] == "heavy"
        assert "gap_worst" in payload
        table = render(records, ADVERSARIAL_COLUMNS)
        assert "degrade" in table
        assert "adversarial" in table
