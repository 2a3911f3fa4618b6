"""Tests of the dynamic allocation subsystem (churn + epochs).

Pins the subsystem's contracts:

* spec validation and the arrival processes' counts;
* resident bookkeeping: conservation under every departure policy,
  FIFO age order, hotset bin preference;
* the epoch runner's value anchors — a zero-churn epoch is a bitwise
  no-op, a 100%-departure epoch equals a fresh one-shot run, an
  incremental epoch equals the direct adapter call on the same child
  seed and residual loads;
* seed reproducibility across process fan-out (workers=1 vs 2);
* the adapters' placement semantics (capability flags, saturation,
  workload handling);
* the CLI subcommand and the dynamic benchmark harness.
"""

import json
import math
import zlib

import numpy as np
import pytest

import repro
from repro.api import get_dynamic, get_spec
from repro.core.combined import _waterfill, dynamic_combined
from repro.core.heavy import dynamic_heavy
from repro.dynamic import (
    DynamicSpec,
    ResidentState,
    run_dynamic,
    run_dynamic_many,
)
from repro.dynamic.spec import DEPARTURE_KINDS
from repro.dynamic.state import hypergeometric_method
from repro.result import AllocationResult
from repro.workloads import WorkloadError

DYNAMIC_CAPABLE = ("heavy", "combined", "single", "stemann")


class TestDynamicSpec:
    def test_defaults_valid(self):
        spec = DynamicSpec()
        assert spec.rebalance == "incremental"
        assert "incremental" in spec.describe()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": -1},
            {"churn": -0.1},
            {"churn": 1.5},
            {"arrivals": "storm"},
            {"departures": "lifo"},
            {"rebalance": "partial"},
            {"burst_every": 1},
            {"burst_factor": 0.5},
            {"hot_frac": 0.0},
            {"hot_frac": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DynamicSpec(**kwargs)

    def test_fixed_arrivals(self):
        spec = DynamicSpec(churn=0.1)
        assert spec.arrival_count(1, 1000) == 100
        assert spec.arrival_count(7, 1000) == 100

    def test_bursty_long_run_mean(self):
        spec = DynamicSpec(
            churn=0.1, arrivals="bursty", burst_every=4, burst_factor=4.0
        )
        counts = [spec.arrival_count(e, 10_000) for e in range(1, 9)]
        # Two full cycles: mean stays at churn * m up to rounding.
        assert abs(sum(counts) / len(counts) - 1000) <= 2
        # The burst epochs (multiples of burst_every) carry the factor.
        assert counts[3] > 2 * counts[0]

    def test_poisson_needs_rng(self):
        spec = DynamicSpec(arrivals="poisson")
        with pytest.raises(ValueError, match="rng"):
            spec.arrival_count(1, 1000)
        rng = np.random.default_rng(0)
        assert spec.arrival_count(1, 1000, rng) >= 0

    def test_with_rebalance(self):
        spec = DynamicSpec(churn=0.2)
        other = spec.with_rebalance("full_rerun")
        assert other.rebalance == "full_rerun"
        assert other.churn == 0.2

    def test_to_dict_round_trip(self):
        spec = DynamicSpec(departures="hotset", hot_frac=0.25)
        assert DynamicSpec(**spec.to_dict()) == spec


class TestResidentState:
    def _populated(self, n=8, sizes=(40, 30, 20), policy="fifo", **kwargs):
        state = ResidentState(n, policy, **kwargs)
        rng = np.random.default_rng(1)
        for epoch, size in enumerate(sizes):
            counts = rng.multinomial(size, np.full(n, 1 / n))
            state.add_cohort(epoch, counts)
        return state

    @pytest.mark.parametrize("policy", DEPARTURE_KINDS)
    def test_departure_conservation(self, policy):
        # 90 is the whole population: every resident leaves.
        for k in (25, 90):
            state = self._populated(policy=policy, hot_frac=0.25)
            # Only fifo reads ball ages, so only fifo keeps cohorts.
            assert len(state.cohorts) == (3 if policy == "fifo" else 0)
            before = state.loads
            departed = state.depart(k, np.random.default_rng(2))
            assert departed.sum() == k
            assert np.array_equal(state.loads, before - departed)
            assert np.all(state.loads >= 0)
        assert state.population == 0 and state.cohorts == []

    def test_zero_departures_no_rng(self):
        state = self._populated(policy="uniform")
        before = state.loads
        departed = state.depart(0, None)
        assert departed.sum() == 0
        assert np.array_equal(state.loads, before)

    def test_fifo_consumes_oldest_first(self):
        state = self._populated(sizes=(40, 30, 20))
        state.depart(45, np.random.default_rng(3))
        epochs = [epoch for epoch, _ in state.cohorts]
        # Cohort 0 (40 balls) fully gone, cohort 1 split, cohort 2 whole.
        assert 0 not in epochs
        sizes = {e: int(c.sum()) for e, c in state.cohorts}
        assert sizes[1] == 25 and sizes[2] == 20

    def test_hotset_prefers_hottest_bins(self):
        state = ResidentState(4, "hotset", hot_frac=0.25)
        state.add_cohort(0, np.array([100, 10, 10, 10], dtype=np.int64))
        departed = state.depart(50, np.random.default_rng(4))
        # The hottest bin holds 100 >= 50, so everything leaves there.
        assert departed[0] == 50
        assert departed[1:].sum() == 0

    def test_hotset_falls_back_to_cold(self):
        state = ResidentState(4, "hotset", hot_frac=0.25)
        state.add_cohort(0, np.array([5, 20, 20, 20], dtype=np.int64))
        departed = state.depart(30, np.random.default_rng(4))
        # Hot set is the single hottest bin (bin 1, 20 balls): drained
        # fully, remainder from the cold bins.
        assert departed[np.argmax([5, 20, 20, 20])] == 20
        assert departed.sum() == 30

    def test_overdraw_rejected(self):
        state = self._populated(policy="uniform")
        with pytest.raises(ValueError, match="population"):
            state.depart(1000, np.random.default_rng(0))

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            ResidentState(8, "lifo")

    def test_reshuffle_without_ages_only_moves_loads(self):
        state = self._populated(policy="uniform")
        new_loads = np.random.default_rng(5).multinomial(65, np.full(8, 1 / 8))
        state.reshuffle(new_loads, None)  # no cohorts to split: no draw
        assert np.array_equal(state.loads, new_loads)
        assert state.cohorts == []

    def test_reshuffle_preserves_cohort_sizes(self):
        state = self._populated(sizes=(40, 30, 20))
        rng = np.random.default_rng(5)
        new_loads = rng.multinomial(90, np.full(8, 1 / 8)).astype(np.int64)
        state.reshuffle(new_loads, rng)
        assert np.array_equal(state.loads, new_loads)
        assert [int(c.sum()) for _, c in state.cohorts] == [40, 30, 20]

    def test_reshuffle_shortfall_evicts_newest(self):
        state = self._populated(sizes=(40, 30, 20))
        rng = np.random.default_rng(5)
        new_loads = rng.multinomial(65, np.full(8, 1 / 8)).astype(np.int64)
        state.reshuffle(new_loads, rng)
        assert [int(c.sum()) for _, c in state.cohorts] == [40, 25]


class TestDepartureLaw:
    """Per-bin departures are exact multivariate-hypergeometric draws:
    over 2,000 seeds their per-bin means and variances match the closed
    form, on one instance each side of the count/marginals choice."""

    SEEDS = 2000
    HOT_FRAC = 0.25
    #: side -> (per-bin loads, departures, method of the uniform draw)
    INSTANCES = {
        "count": (5 + np.arange(64) % 7, 150, "count"),
        "marginals": (np.arange(900, 1700, 100), 4000, "marginals"),
    }

    @staticmethod
    def _moments(loads, k):
        """Per-bin mean and variance of MVHG(loads, k)."""
        total = loads.sum()
        p = loads / total
        mean = k * p
        return mean, mean * (1 - p) * (total - k) / (total - 1)

    def _expected(self, policy, loads, k):
        if policy == "uniform":
            return self._moments(loads, k)
        # hotset: one draw over the hottest bins, the rest from the cold.
        n = loads.size
        n_hot = max(1, min(n - 1, math.ceil(self.HOT_FRAC * n)))
        order = np.argsort(-loads, kind="stable")
        hot, cold = order[:n_hot], order[n_hot:]
        k_hot = min(k, loads[hot].sum())
        mean, var = np.zeros(n), np.zeros(n)
        mean[hot], var[hot] = self._moments(loads[hot], k_hot)
        mean[cold], var[cold] = self._moments(loads[cold], k - k_hot)
        return mean, var

    @pytest.mark.parametrize("policy", ["uniform", "hotset"])
    @pytest.mark.parametrize("side", sorted(INSTANCES))
    def test_moments_match_closed_form(self, policy, side):
        loads, k, method = self.INSTANCES[side]
        assert hypergeometric_method(int(loads.sum()), k, loads.size) == (
            method
        )
        draws = np.empty((self.SEEDS, loads.size))
        for seed in range(self.SEEDS):
            state = ResidentState(loads.size, policy, hot_frac=self.HOT_FRAC)
            state.add_cohort(0, loads)
            draws[seed] = state.depart(k, np.random.default_rng(seed))
        assert np.all(draws.sum(axis=1) == k)
        mean, var = self._expected(policy, loads, k)
        tolerance = 5 * np.sqrt(var / self.SEEDS) + 1e-12
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= tolerance)
        np.testing.assert_allclose(
            draws.var(axis=0, ddof=1), var, rtol=0.2, atol=1e-12
        )


class TestRunDynamicInvariants:
    @pytest.mark.parametrize("algorithm", DYNAMIC_CAPABLE)
    def test_population_conserved(self, algorithm):
        res = run_dynamic(algorithm, 4000, 32, seed=1, epochs=4)
        assert res.loads.sum() == res.populations[-1]
        for e, record in enumerate(res.records):
            assert res.loads_history[e].sum() == record.population
        assert res.populations[-1] == 4000 - sum(
            r.unplaced for r in res.records
        )

    @pytest.mark.parametrize(
        "departures", ["uniform", "fifo", "hotset"]
    )
    @pytest.mark.parametrize("arrivals", ["fixed", "poisson", "bursty"])
    def test_policy_matrix_runs(self, departures, arrivals):
        res = run_dynamic(
            "heavy",
            2000,
            16,
            seed=2,
            epochs=3,
            departures=departures,
            arrivals=arrivals,
        )
        assert res.epochs == 3
        assert res.loads.sum() == res.populations[-1]

    def test_replay_bitwise(self):
        a = run_dynamic("heavy", 4000, 32, seed=5, epochs=4)
        b = run_dynamic("heavy", 4000, 32, seed=5, epochs=4)
        assert np.array_equal(a.loads, b.loads)
        assert np.array_equal(a.loads_history, b.loads_history)
        assert np.array_equal(a.messages, b.messages)

    def test_zero_churn_epochs_are_bitwise_noops(self):
        res = run_dynamic("heavy", 4000, 32, seed=9, epochs=5, churn=0.0)
        for e in range(1, 6):
            assert np.array_equal(
                res.loads_history[e], res.loads_history[0]
            )
            record = res.records[e]
            assert record.messages == 0
            assert record.moved == 0
            assert record.rounds == 0
            assert record.arrivals == 0 and record.departures == 0

    def test_poisson_full_churn_keeps_population_pinned(self):
        # A Poisson draw above the population is clamped on BOTH sides
        # (departures and arrivals are count-matched), so the
        # population never ratchets past m.
        res = run_dynamic(
            "heavy", 2000, 8, seed=13, epochs=6, churn=1.0,
            arrivals="poisson",
        )
        assert np.all(res.populations <= 2000)
        assert res.populations[-1] == 2000

    def test_full_rerun_moves_whole_population(self):
        res = run_dynamic(
            "heavy", 4000, 32, seed=3, epochs=3, rebalance="full_rerun"
        )
        for record in res.records[1:]:
            assert record.moved == record.population

    def test_incremental_moves_cohort_only(self):
        res = run_dynamic("heavy", 4000, 32, seed=3, epochs=3, churn=0.1)
        for record in res.records[1:]:
            assert record.moved == record.arrivals

    def test_steady_state_gap_stays_bounded(self):
        res = run_dynamic("heavy", 20_000, 64, seed=7, epochs=8)
        assert res.complete
        assert res.gaps.max() <= 10.0

    def test_fifo_departures_hold_oneshot_gap(self):
        res = run_dynamic(
            "heavy", 20_000, 64, seed=7, epochs=8, departures="fifo"
        )
        assert res.gaps.max() <= 10.0

    def test_hotset_gap_premium_is_bounded_and_oracle_free(self):
        """The documented hotset trade-off: load-correlated departures
        concentrate capacity where uniform contacts rarely land, so
        incremental pays a bounded gap premium the full-rerun oracle
        (which re-levels everything) does not."""
        inc = run_dynamic(
            "heavy", 20_000, 64, seed=3, epochs=8, churn=0.15,
            departures="hotset",
        )
        full = run_dynamic(
            "heavy", 20_000, 64, seed=3, epochs=8, churn=0.15,
            departures="hotset", rebalance="full_rerun",
        )
        assert full.gaps[1:].mean() <= 8.0
        # Bounded creep: well under the per-epoch cohort scale ...
        assert inc.gaps.max() <= 0.15 * 20_000 / 64
        # ... but a real premium over the oracle (the measured
        # pathology the docs describe; if this starts failing because
        # the gap *improved*, capacity-aware contacts landed — update
        # docs/dynamic.md).
        assert inc.gaps[1:].mean() > full.gaps[1:].mean()


class TestValueAnchors:
    """The bitwise contracts between dynamic epochs and one-shot runs."""

    def _epoch_seeds(self, seed, epochs):
        return np.random.SeedSequence(seed).spawn(2 * (epochs + 1))

    def test_full_departure_epoch_equals_fresh_heavy_run(self):
        # settle_rounds=0 makes the adapter literally run_heavy.
        res = run_dynamic(
            "heavy", 8000, 32, seed=11, epochs=2, churn=1.0,
            settle_rounds=0,
        )
        children = self._epoch_seeds(11, 2)
        for epoch in (1, 2):
            fresh = repro.run_heavy(
                8000, 32, seed=children[2 * epoch + 1], mode="aggregate"
            )
            assert np.array_equal(res.loads_history[epoch], fresh.loads)
            assert res.records[epoch].messages == fresh.total_messages
            assert res.records[epoch].rounds == fresh.rounds

    def test_full_departure_epoch_equals_fresh_single_run(self):
        res = run_dynamic("single", 5000, 32, seed=13, epochs=1, churn=1.0)
        children = self._epoch_seeds(13, 1)
        fresh = repro.run_single_choice(
            5000, 32, seed=children[3], mode="aggregate"
        )
        assert np.array_equal(res.loads_history[1], fresh.loads)

    def test_fill_epoch_equals_fresh_run(self):
        res = run_dynamic(
            "heavy", 8000, 32, seed=17, epochs=0, settle_rounds=0
        )
        fresh = repro.run_heavy(
            8000, 32, seed=self._epoch_seeds(17, 0)[1], mode="aggregate"
        )
        assert np.array_equal(res.loads, fresh.loads)

    def test_incremental_epoch_equals_direct_adapter_call(self):
        """An epoch's placement is the adapter on the epoch's child
        seed and post-departure loads — the value-identity contract."""
        from repro.utils.seeding import RngFactory

        res = run_dynamic("heavy", 8000, 32, seed=19, epochs=1, churn=0.1)
        children = self._epoch_seeds(19, 1)
        fill = dynamic_heavy(
            8000,
            32,
            initial_loads=np.zeros(32, dtype=np.int64),
            seed=children[1],
        )
        residents = ResidentState(32)
        residents.add_cohort(0, fill.loads)
        ctrl = RngFactory(children[2])
        residents.depart(800, ctrl.stream("dynamic", "departures"))
        direct = dynamic_heavy(
            800, 32, initial_loads=residents.loads, seed=children[3]
        )
        assert np.array_equal(residents.loads + direct.loads, res.loads)
        assert direct.total_messages == res.records[1].messages

    def test_settle_zero_fresh_adapter_is_run_heavy_bitwise(self):
        for mode in ("perball", "aggregate"):
            p = dynamic_heavy(
                6000,
                32,
                initial_loads=np.zeros(32, dtype=np.int64),
                seed=123,
                mode=mode,
                settle_rounds=0,
            )
            h = repro.run_heavy(6000, 32, seed=123, mode=mode)
            assert np.array_equal(p.loads, h.loads), mode
            assert p.total_messages == h.total_messages
            assert p.rounds == h.rounds

    @pytest.mark.parametrize("mode", ["perball", "aggregate"])
    @pytest.mark.parametrize(
        "algorithm, adapter_options, options",
        [
            ("heavy", {"settle_rounds": 0}, {}),
            ("single", {}, {}),
            ("stemann", {}, {}),
            # A tight bound and one round strand balls, so
            # ``unallocated`` is compared too.
            ("stemann", {}, {"collision_factor": 1.05, "max_rounds": 1}),
        ],
        ids=["heavy", "single", "stemann", "stemann-stranded"],
    )
    def test_fresh_adapter_result_is_the_oneshot_result(
        self, algorithm, adapter_options, options, mode
    ):
        """On empty bins a placement is the one-shot run on the cohort,
        and both are an ``AllocationResult``."""
        p = get_dynamic(algorithm).runner(
            6000, 32, initial_loads=np.zeros(32, dtype=np.int64), seed=123,
            mode=mode, **adapter_options, **options,
        )
        fresh = get_spec(algorithm).runner(
            6000, 32, seed=123, mode=mode, **options
        )
        assert isinstance(p, AllocationResult)
        assert p.algorithm == fresh.algorithm
        assert np.array_equal(p.loads, fresh.loads)
        assert (p.rounds, p.total_messages, p.unallocated) == (
            fresh.rounds, fresh.total_messages, fresh.unallocated
        )
        assert p.complete == fresh.complete


class TestPinnedStreams:
    """The policies whose draws stayed put when uniform and hotset
    departures moved to per-bin sampling: crc32 of ``loads_history``
    and the per-epoch messages, computed with the cohort-by-bin
    departure draws they replaced."""

    @staticmethod
    def _fingerprint(res):
        history = np.ascontiguousarray(res.loads_history, dtype="<i8")
        return zlib.crc32(history.tobytes()), res.messages.tolist()

    def test_greedy_adversary_with_faults(self):
        res = run_dynamic(
            "heavy", 4000, 32, seed=11, epochs=6, churn=0.2,
            departures="greedy_adversary",
            fault_model=repro.FaultModel(
                bin_fail_prob=0.1, bin_recover_prob=0.3, loss_prob=0.05
            ),
        )
        assert self._fingerprint(res) == (
            395140298, [19712, 6638, 2951, 3243, 3272, 2994, 2860]
        )

    def test_fifo(self):
        res = run_dynamic(
            "heavy", 4000, 32, seed=13, epochs=6, churn=0.2,
            departures="fifo",
        )
        assert self._fingerprint(res) == (
            1330288242, [9463, 2266, 2259, 2271, 2259, 2268, 2251]
        )


#: ``(mode, drain_settle, handoff) -> (loads, placed, rounds, messages,
#: settle_rounds)`` of a settle that runs out of capacity with balls
#: left: the capacity profile scales the settle caps ``ceil(9/3) = 3``
#: to ``[2, 6, 0]``, 8 slots for 9 balls.
SATURATED_SETTLE_PINS = {
    ("perball", False, False): ([2, 5, 0], 5, 3, 20, 2),
    ("perball", False, True): ([2, 7, 0], 7, 4, 26, 2),
    ("perball", True, False): ([2, 6, 0], 6, 4, 23, 3),
    ("perball", True, True): ([2, 7, 0], 7, 5, 26, 3),
    ("aggregate", False, False): ([2, 5, 0], 5, 3, 21, 2),
    ("aggregate", False, True): ([2, 7, 0], 7, 4, 27, 2),
    ("aggregate", True, False): ([2, 6, 0], 6, 5, 26, 4),
    ("aggregate", True, True): ([2, 7, 0], 7, 6, 29, 4),
}

#: ``(mode, drain_settle) -> (crc32 of loads, placed, rounds, messages,
#: settle_rounds, weighted_max_load, weighted_gap, total_weight)`` of a
#: weighted cohort: the only path whose settle carries a per-ball
#: weight subset (``run_dynamic`` rejects weighted workloads).
WEIGHTED_SETTLE_PINS = {
    ("perball", False): (660633928, 800, 9, 3462, 2, 111.0, 59.78125, 1639.0),
    ("perball", True): (921931902, 800, 84, 6185, 79, 114.0, 62.78125, 1639.0),
    ("aggregate", False): (2396081555, 800, 9, 3550, 2, 116.0, 63.875, 1668.0),
    ("aggregate", True): (1857010378, 800, 110, 7319, 105, 109.0, 58.0, 1632.0),
}


class TestSettlePins:
    """Settle-round values recorded before the settle became a
    ``run_threshold_protocol`` call, on the two paths only the old
    settle loop's special cases reached."""

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    @pytest.mark.parametrize("case", sorted(SATURATED_SETTLE_PINS))
    def test_saturated_settle(self, case, backend):
        from repro.fastpath.backend import use_backend
        from repro.workloads import Workload

        mode, drain, handoff = case
        with use_backend(backend):
            p = dynamic_heavy(
                7, 3, initial_loads=[0, 2, 0], seed=1, mode=mode,
                workload=Workload(
                    capacity="explicit", capacity_values=[0.8, 2.05, 0.15]
                ),
                drain_settle=drain, handoff=handoff,
            )
        placed = p.m - p.unallocated
        got = ((np.array([0, 2, 0]) + p.loads).tolist(), placed, p.rounds,
               p.total_messages, p.extra["settle_rounds"])
        assert got == SATURATED_SETTLE_PINS[case]
        assert p.unallocated == (0 if handoff else 7 - placed)
        assert p.extra["workload"] == {"spec": "explicitcap[3 bins]"}

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    @pytest.mark.parametrize("case", sorted(WEIGHTED_SETTLE_PINS))
    def test_weighted_settle(self, case, backend):
        from repro.fastpath.backend import use_backend

        mode, drain = case
        initial = (np.arange(32) % 5) * 12
        with use_backend(backend):
            p = dynamic_heavy(
                800, 32, initial_loads=initial, seed=7,
                workload="zipf:1.1+geomw:0.5", mode=mode, drain_settle=drain,
            )
        record = p.extra["workload"]
        assert record["spec"] == "zipf:1.1+geomw:0.5"
        loads = np.ascontiguousarray(initial + p.loads, dtype="<i8")
        got = (
            zlib.crc32(loads.tobytes()), p.m - p.unallocated, p.rounds,
            p.total_messages, p.extra["settle_rounds"],
            record["weighted_max_load"], record["weighted_gap"],
            record["total_weight"],
        )
        assert got == WEIGHTED_SETTLE_PINS[case]
        assert p.extra["phase2_rounds"] > 0


class TestReproducibility:
    @pytest.mark.parametrize("departures", ["uniform", "fifo", "hotset"])
    def test_workers_never_change_values(self, departures):
        kwargs = dict(
            repeats=3, seed=4, epochs=3, churn=0.2, departures=departures
        )
        solo = run_dynamic_many("heavy", 2000, 16, workers=1, **kwargs)
        fan = run_dynamic_many("heavy", 2000, 16, workers=2, **kwargs)
        assert len(solo) == len(fan) == 3
        for a, b in zip(solo, fan):
            assert np.array_equal(a.loads, b.loads)
            assert np.array_equal(a.loads_history, b.loads_history)
            assert np.array_equal(a.messages, b.messages)
            assert np.array_equal(a.departures, b.departures)

    def test_repeats_are_independent(self):
        results = run_dynamic_many("heavy", 2000, 16, repeats=2, seed=4)
        assert not np.array_equal(results[0].loads, results[1].loads)

    def test_spec_object_wins_over_kwargs(self):
        spec = DynamicSpec(epochs=2, churn=0.5)
        res = run_dynamic_many(
            "heavy", 2000, 16, repeats=1, seed=0, spec=spec, epochs=9
        )[0]
        assert res.epochs == 2


class TestDispatchAndValidation:
    def test_capability_flags(self):
        for name in DYNAMIC_CAPABLE:
            spec = get_spec(name)
            assert spec.dynamic_capable, name
            assert "dynamic" in spec.capabilities(), name
            assert get_dynamic(name) is not None, name

    def test_non_capable_specs_unflagged(self):
        for name in ("light", "trivial", "greedy", "faulty", "dchoice"):
            assert not get_spec(name).dynamic_capable, name
            assert get_dynamic(name) is None, name

    def test_non_capable_rejected_with_capable_list(self):
        with pytest.raises(ValueError, match="dynamic-capable"):
            run_dynamic("greedy", 1000, 16, seed=0)

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="valid options"):
            run_dynamic("heavy", 1000, 16, seed=0, bogus=1)

    def test_adapter_options_forwarded(self):
        res = run_dynamic(
            "stemann", 2000, 16, seed=0, epochs=2, collision_factor=3.0
        )
        assert res.records[0].placed == 2000

    def test_weighted_workload_rejected(self):
        with pytest.raises(WorkloadError, match="unit ball weights"):
            run_dynamic("heavy", 1000, 16, seed=0, workload="geomw:0.5")

    def test_choice_skew_workload_supported(self):
        res = run_dynamic(
            "heavy", 4000, 32, seed=1, epochs=2,
            workload="zipf:1.1+propcap",
        )
        assert res.workload == "zipf:1.1+propcap"
        assert res.complete

    def test_uniform_workload_string_is_none(self):
        res = run_dynamic(
            "heavy", 2000, 16, seed=1, epochs=1, workload="uniform"
        )
        assert res.workload is None

    def test_adapter_runner_swap_reaches_both_entry_points(self):
        """The benchmark's layer tracer swaps the registered adapter's
        ``runner`` in place; both churn entry points must read it at
        call time, through the very object ``get_dynamic`` returns."""
        from repro.service import AllocatorService

        adapter = get_dynamic("heavy")
        original = vars(adapter)["runner"]
        cohorts = []

        def spy(m, *args, **kwargs):
            cohorts.append(m)
            return original(m, *args, **kwargs)

        # A service built before the swap must still see it.
        svc = AllocatorService("heavy", 16, seed=1, auto_flush=False)
        object.__setattr__(adapter, "runner", spy)
        try:
            run_dynamic("heavy", 2000, 16, seed=1, epochs=2, churn=0.25)
            svc.place(300)
            svc.flush()
        finally:
            object.__setattr__(adapter, "runner", original)
        assert get_dynamic("heavy").runner is original
        assert cohorts == [2000, 500, 500, 300]


class TestAdapters:
    def test_empty_cohort_is_noop(self):
        initial = np.array([4, 2, 0, 1], dtype=np.int64)
        for adapter in (dynamic_heavy, dynamic_combined):
            p = adapter(0, 4, initial_loads=initial, seed=0)
            assert not p.loads.any()
            assert p.m - p.unallocated == 0 and p.total_messages == 0

    @pytest.mark.parametrize("algorithm", DYNAMIC_CAPABLE)
    def test_placement_is_the_cohort(self, algorithm):
        """Against residents, a placement's loads are where the cohort
        landed; the result's own check holds them to ``m``."""
        initial = np.full(16, 50, dtype=np.int64)
        p = get_dynamic(algorithm).runner(
            400, 16, initial_loads=initial, seed=3
        )
        assert isinstance(p, AllocationResult)
        assert (p.m, p.n, p.unallocated) == (400, 16, 0)
        assert p.loads.sum() == 400 and (p.loads >= 0).all()

    def test_heavy_placements_keep_no_per_ball_tallies(self, monkeypatch):
        """A placement returns no message counter, so per-ball epochs
        and service flushes must not build one."""
        from repro.service import AllocatorService
        from repro.service.events import SimulatedClock
        from repro.simulation.metrics import MessageCounter

        built = []
        init = MessageCounter.__init__

        def counting_init(self, m, n):
            built.append((m, n))
            init(self, m, n)

        monkeypatch.setattr(MessageCounter, "__init__", counting_init)
        repro.run_dynamic(
            "heavy", 20_000, 64, epochs=3, churn=0.2, mode="perball", seed=1
        )
        svc = AllocatorService(
            "heavy", 64, seed=1, clock=SimulatedClock(), mode="perball",
            auto_flush=False,
        )
        svc.place(5_000)
        assert svc.flush(all_pending=True) is not None
        assert built == []
        repro.allocate("heavy", 2_000, 16, mode="perball", seed=1)
        assert built == [(2_000, 16)]

    def test_heavy_levels_imbalanced_residents(self):
        # Half the bins far above the population average: the cohort
        # must land in the cold bins (the hot ones are saturated at
        # every threshold and accept nothing).
        initial = np.zeros(16, dtype=np.int64)
        initial[:8] = 2000
        p = dynamic_heavy(4000, 16, initial_loads=initial, seed=0)
        assert p.unallocated == 0
        assert p.loads.sum() == 4000
        # Hot bins take at most the light handoff's +2g spillover; the
        # bulk of the cohort fills the valleys.
        assert p.loads[8:].sum() >= 3900

    def test_heavy_cohort_smaller_than_n_allowed(self):
        # Incremental cohorts may be tiny; the heavy-regime floor
        # applies to the population, not the cohort.
        initial = np.full(32, 100, dtype=np.int64)
        p = dynamic_heavy(5, 32, initial_loads=initial, seed=1)
        assert p.m - p.unallocated == 5
        assert p.loads.sum() == 5

    def test_stemann_respects_population_bound(self):
        from repro.baselines.stemann import dynamic_stemann

        initial = np.full(8, 100, dtype=np.int64)
        p = dynamic_stemann(160, 8, initial_loads=initial, seed=0)
        assert p.unallocated == 0
        assert (initial + p.loads).max() <= p.extra["collision_bound"]
        assert p.loads.sum() == 160

    def test_waterfill_levels_least_loaded(self):
        initial = np.array([5, 0, 2, 7], dtype=np.int64)
        loads, unplaced = _waterfill(initial, 8, cap=7)
        assert unplaced == 0
        assert loads.sum() == initial.sum() + 8
        assert loads.max() <= 7
        # The fill levels the valleys first.
        assert loads[1] >= 5

    def test_waterfill_overflow_reports_unplaced(self):
        initial = np.array([3, 3], dtype=np.int64)
        loads, unplaced = _waterfill(initial, 10, cap=4)
        assert unplaced == 8
        assert np.array_equal(loads, np.array([4, 4]))

    def test_waterfill_ignores_overfull_bins(self):
        initial = np.array([9, 0], dtype=np.int64)
        loads, unplaced = _waterfill(initial, 4, cap=4)
        assert np.array_equal(loads, np.array([9, 4]))
        assert unplaced == 0

    def test_combined_dispatches_trivial_for_tiny_n(self):
        p = dynamic_combined(
            100_000, 3,
            initial_loads=np.zeros(3, dtype=np.int64),
            seed=0,
        )
        assert p.extra["branch"] == "trivial"
        assert p.unallocated == 0
        assert p.loads.max() - p.loads.min() <= 1

    def test_combined_dispatches_heavy_otherwise(self):
        p = dynamic_combined(
            4000, 32, initial_loads=np.zeros(32, dtype=np.int64), seed=0
        )
        assert p.extra["branch"] == "heavy"

    def test_initial_loads_shape_validated(self):
        for adapter in (dynamic_heavy, dynamic_combined):
            with pytest.raises(ValueError, match="shape"):
                adapter(
                    10, 4, initial_loads=np.zeros(3, dtype=np.int64),
                    seed=0,
                )


class TestDynamicResult:
    def _result(self):
        return run_dynamic("heavy", 4000, 32, seed=21, epochs=4)

    def test_vectors_aligned(self):
        res = self._result()
        assert res.gaps.shape == (5,)
        assert res.messages.shape == (5,)
        assert res.total_messages == int(res.messages.sum())
        assert res.churn_messages == int(res.messages[1:].sum())

    def test_describe_mentions_regime(self):
        res = self._result()
        text = res.describe()
        assert "heavy [dynamic]" in text
        assert "churn=0.1" in text

    def test_to_dict_json_safe(self):
        res = self._result()
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["schema"] == 1
        assert payload["spec"]["rebalance"] == "incremental"
        assert len(payload["records"]) == 5
        assert payload["records"][0]["epoch"] == 0

    def test_str(self):
        assert "DynamicResult(heavy" in str(self._result())


class TestCli:
    def test_dynamic_subcommand(self, capsys):
        from repro.__main__ import main

        assert (
            main(
                [
                    "dynamic", "heavy", "--m", "4000", "--n", "32",
                    "--epochs", "3", "--seed", "1",
                    "--departures", "fifo",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "heavy [dynamic]" in out
        assert "departures=fifo" in out

    def test_dynamic_json_export(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "dyn.json"
        assert (
            main(
                [
                    "dynamic", "single", "--m", "1000", "--n", "16",
                    "--epochs", "2", "--seed", "1", "--json", str(path),
                ]
            )
            == 0
        )
        payload = json.loads(path.read_text())
        assert payload["algorithm"] == "single"
        assert len(payload["records"]) == 3

    def test_list_shows_dynamic_column(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "dynamic" in out
        assert "workload" in out
        assert "trials" in out


class TestBenchmarkDynamic:
    def test_records_and_speedups(self):
        from repro.api.bench import DYNAMIC_COLUMNS, benchmark_dynamic, render

        records = benchmark_dynamic(
            2000, 16, epochs=3, churn=0.2, algorithms=("heavy",)
        )
        assert {r["rebalance"] for r in records} == {
            "incremental", "full_rerun"
        }
        incremental = next(
            r for r in records
            if r["algorithm"] == "heavy" and r["rebalance"] == "incremental"
        )
        assert incremental["message_speedup"] > 1.0
        table = render(records, DYNAMIC_COLUMNS)
        assert "incremental" in table and "full_rerun" in table

    def test_non_capable_algorithm_rejected(self):
        from repro.api.bench import benchmark_dynamic

        with pytest.raises(ValueError, match="dynamic"):
            benchmark_dynamic(
                1000, 16, epochs=2, algorithms=("greedy",)
            )


class TestExperimentD1:
    def test_registered_with_docstring(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "D1" in EXPERIMENTS
        assert EXPERIMENTS["D1"].__doc__
