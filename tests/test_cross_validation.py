"""Cross-validation: engine (reference) vs per-ball vs aggregate paths.

The three execution paths implement the same protocols at different
granularity; they cannot be bitwise identical (different RNG consumption
patterns) but must agree (a) exactly on conserved/structural quantities
and (b) statistically on distributions.

Since the RoundState refactor, every vectorized protocol executes on
the shared kernels in :mod:`repro.fastpath.roundstate`; the
``TestKernelBackendsCrossValidation`` suite asserts each kernel-backed
protocol still matches the agent engine (where one exists) and its own
aggregate mode on load distributions and message counts at pinned
seeds.
"""

import numpy as np
import pytest

import repro
from repro.core import run_asymmetric, run_heavy
from repro.core.heavy_agents import run_heavy_engine, run_light_engine
from repro.light import run_light
from repro.utils.logstar import log_star


class TestHeavyEngineVsVectorized:
    """Engine-mode A_heavy against the vectorized path."""

    M, N = 6000, 32

    def test_both_complete_with_constant_gap(self):
        eng = run_heavy_engine(self.M, self.N, seed=1)
        vec = run_heavy(self.M, self.N, seed=1)
        assert eng.complete and vec.complete
        assert eng.gap <= 8 and vec.gap <= 8

    def test_same_phase1_round_count(self):
        """Phase-1 length is schedule-determined — must match exactly."""
        eng = run_heavy_engine(self.M, self.N, seed=2)
        vec = run_heavy(self.M, self.N, seed=2)
        assert eng.extra["phase1_rounds"] == vec.extra["phase1_rounds"]

    def test_phase1_loads_deterministic_whp(self):
        """Claim 2: after phase 1 every bin holds exactly T_{i0-1} w.h.p.
        — so engine and vectorized phase-1 loads match as vectors."""
        eng = run_heavy_engine(self.M, self.N, seed=3)
        vec = run_heavy(self.M, self.N, seed=3)
        # phase-1 leftovers within noise of each other
        assert (
            abs(eng.extra["phase1_remaining"] - vec.extra["phase1_remaining"])
            <= 0.2 * self.N + 50
        )

    def test_gap_distributions_close(self):
        gaps_e = [run_heavy_engine(3000, 16, seed=s).gap for s in range(6)]
        gaps_v = [run_heavy(3000, 16, seed=s + 50).gap for s in range(6)]
        assert abs(np.mean(gaps_e) - np.mean(gaps_v)) <= 2.5

    def test_message_totals_same_order(self):
        eng = run_heavy_engine(self.M, self.N, seed=4)
        vec = run_heavy(self.M, self.N, seed=4)
        assert 0.5 <= eng.total_messages / vec.total_messages <= 2.0


class TestLightEngineVsVectorized:
    def test_engine_light_meets_theorem5(self):
        out = run_light_engine(300, 300, seed=5)
        assert out.complete
        assert out.loads.max() <= 2
        assert out.rounds <= log_star(300) + 10

    def test_round_counts_comparable(self):
        eng = run_light_engine(400, 400, seed=6)
        vec = run_light(400, 400, seed=6)
        assert abs(eng.rounds - vec.rounds) <= 2

    def test_load_histograms_close(self):
        """Distribution of bin loads (0/1/2 counts) must agree between
        engine and vectorized implementations across seeds."""
        n = 256
        hist_e = np.zeros(3)
        hist_v = np.zeros(3)
        for s in range(5):
            le = run_light_engine(n, n, seed=s).loads
            lv = run_light(n, n, seed=s + 99).loads
            hist_e += np.bincount(le, minlength=3)[:3]
            hist_v += np.bincount(lv, minlength=3)[:3]
        hist_e /= hist_e.sum()
        hist_v /= hist_v.sum()
        assert np.abs(hist_e - hist_v).max() < 0.08


class TestPerballVsAggregate:
    def test_round_counts_match(self):
        m, n = 2**18, 512
        p = run_heavy(m, n, seed=7, mode="perball")
        a = run_heavy(m, n, seed=7, mode="aggregate")
        assert p.extra["phase1_rounds"] == a.extra["phase1_rounds"]
        assert abs(p.rounds - a.rounds) <= 2

    def test_phase1_load_vectors_agree_whp(self):
        """During the strong-concentration rounds nearly every bin fills
        to its threshold in both modes — sorted loads match up to the
        few bins touched by the final noisy rounds."""
        m, n = 2**18, 256
        p = run_heavy(m, n, seed=8, mode="perball", handoff=False)
        a = run_heavy(m, n, seed=8, mode="aggregate", handoff=False)
        sp, sa = np.sort(p.loads), np.sort(a.loads)
        assert np.abs(sp - sa).max() <= 3
        assert abs(p.unallocated - a.unallocated) <= 0.1 * n + 50

    def test_unallocated_histories_close(self):
        m, n = 2**18, 256
        p = run_heavy(m, n, seed=9, mode="perball")
        a = run_heavy(m, n, seed=9, mode="aggregate")
        hp, ha = p.unallocated_history, a.unallocated_history
        for x, y in zip(hp, ha):
            assert abs(x - y) <= 0.05 * max(x, y, 1) + 100


class TestKernelBackendsCrossValidation:
    """Every kernel-backed vectorized protocol vs its reference.

    Pinned seeds throughout: these runs are deterministic, so the
    tolerances encode genuine distributional agreement rather than
    retry luck.
    """

    def test_heavy_perball_vs_engine_messages_and_loads(self):
        m, n = 6000, 32
        eng = run_heavy_engine(m, n, seed=11)
        vec = run_heavy(m, n, seed=11)
        # Same protocol, same accounting rules: totals within 2x.
        assert 0.5 <= eng.total_messages / vec.total_messages <= 2.0
        # Claim 2 concentration: sorted load vectors nearly coincide.
        assert np.abs(np.sort(eng.loads) - np.sort(vec.loads)).max() <= 6

    def test_heavy_aggregate_vs_engine(self):
        m, n = 6000, 32
        eng = run_heavy_engine(m, n, seed=12)
        agg = run_heavy(m, n, seed=12, mode="aggregate")
        assert agg.complete
        assert abs(eng.gap - agg.gap) <= 6
        assert 0.5 <= eng.total_messages / agg.total_messages <= 2.0

    def test_light_vectorized_vs_engine_messages(self):
        n = 300
        eng = run_light_engine(n, n, seed=13)
        vec = run_light(n, n, seed=13)
        assert eng.counter.total > 0
        assert 0.4 <= eng.counter.total / vec.total_messages <= 2.5
        assert abs(int(eng.loads.max()) - vec.max_load) <= 1

    def test_asymmetric_perball_vs_aggregate(self):
        m, n = 60000, 128
        p = run_asymmetric(m, n, seed=14, mode="perball")
        a = run_asymmetric(m, n, seed=14, mode="aggregate")
        # The schedule is oblivious: scheduled round structure matches.
        assert p.extra["scheduled_rounds"] == a.extra["scheduled_rounds"]
        assert [row[0] for row in p.extra["schedule"]] == [
            row[0] for row in a.extra["schedule"]
        ]
        assert abs(p.rounds - a.rounds) <= 2
        assert np.abs(np.sort(p.loads) - np.sort(a.loads)).max() <= 4
        assert 0.9 <= p.total_messages / a.total_messages <= 1.1

    def test_asymmetric_perball_counter_matches_aggregate_bin_stats(self):
        m, n = 60000, 128
        p = run_asymmetric(m, n, seed=15, mode="perball")
        a = run_asymmetric(m, n, seed=15, mode="aggregate")
        assert p.messages is not None
        # Conservation at both granularities: every received message
        # was sent by a ball, and counts match total_messages exactly.
        assert (
            int(p.messages.bin_received.sum()) == int(p.messages.ball_sent.sum())
        )
        assert p.messages.total == p.total_messages
        # Theorem 3's per-bin receive bound: both modes report the same
        # order for the hottest bin.
        per_bin_max_p = p.messages.max_bin_received()
        per_bin_max_a = a.extra["bin_received_max"]
        assert 0.5 <= per_bin_max_p / per_bin_max_a <= 2.0

    def test_stemann_perball_vs_aggregate(self):
        from repro.baselines import run_stemann

        # collision_factor 1.1 keeps the bound tight enough that the
        # all-or-nothing rule actually rejects (multi-round behaviour)
        # without entering the heavy-tailed straggler regime where
        # round counts are high-variance by nature.
        m, n = 60000, 128
        p = run_stemann(m, n, seed=16, mode="perball", collision_factor=1.1)
        a = run_stemann(m, n, seed=16, mode="aggregate", collision_factor=1.1)
        assert p.complete and a.complete
        bound = p.extra["collision_bound"]
        assert bound == a.extra["collision_bound"]
        # The collision bound is a hard cap in both modes.
        assert p.max_load <= bound and a.max_load <= bound
        assert abs(p.rounds - a.rounds) <= 4
        # Load distributions agree within multinomial noise.
        scale = np.sqrt(m / n)
        assert abs(p.max_load - a.max_load) <= 6 * scale
        assert 0.8 <= p.total_messages / a.total_messages <= 1.25

    def test_single_perball_vs_aggregate_occupancy(self):
        from repro.baselines import run_single_choice

        m, n = 200000, 64
        p = run_single_choice(m, n, seed=17, mode="perball")
        a = run_single_choice(m, n, seed=17, mode="aggregate")
        assert p.loads.sum() == a.loads.sum() == m
        assert p.total_messages == a.total_messages == m
        # Multinomial occupancy: sorted loads agree within CLT noise.
        scale = np.sqrt(m / n)
        assert np.abs(np.sort(p.loads) - np.sort(a.loads)).max() <= 6 * scale

    def test_multicontact_d1_matches_heavy_phase1(self):
        from repro.core.multicontact import run_heavy_multicontact

        m, n = 60000, 128
        mc = run_heavy_multicontact(m, n, 1, seed=18, handoff=False)
        hv = run_heavy(m, n, seed=18, handoff=False)
        assert mc.extra["phase1_rounds"] == hv.extra["phase1_rounds"]
        assert (
            abs(mc.extra["phase1_remaining"] - hv.extra["phase1_remaining"])
            <= 0.2 * n + 50
        )
        assert np.abs(np.sort(mc.loads) - np.sort(hv.loads)).max() <= 4

    def test_faulty_zero_faults_matches_heavy_distribution(self):
        from repro.core.faulty import run_heavy_faulty

        m, n = 60000, 128
        f = run_heavy_faulty(m, n, seed=19, crash_prob=0.0, loss_prob=0.0)
        h = run_heavy(m, n, seed=19)
        assert f.complete and h.complete
        assert abs(f.gap - h.gap) <= 4
        assert 0.8 <= f.total_messages / h.total_messages <= 1.25

    @pytest.mark.parametrize(
        "name,options",
        [
            ("heavy", {}),
            ("asymmetric", {}),
            ("stemann", {}),
            ("single", {}),
        ],
    )
    def test_message_accounting_consistent_with_metrics(self, name, options):
        """For every kernel-backed mode: per-round metrics rows exist,
        conserve balls, and never exceed the declared message total."""
        import repro

        for mode in ("perball", "aggregate"):
            res = repro.allocate(name, 40000, 64, seed=20, mode=mode, **options)
            assert res.complete
            rows = res.metrics.rounds
            assert rows, f"{name}[{mode}] recorded no rounds"
            commits = sum(r.commits for r in rows)
            assert commits == 40000 - res.unallocated
            requests = sum(r.requests_sent for r in rows)
            assert requests <= res.total_messages


class TestWorkloadCompatibility:
    """Workload-refactor seed compatibility (ISSUE 3 acceptance bar).

    The uniform workload must be bitwise seed-compatible with the
    pre-workload implementations for every kernel-backed protocol —
    both when no workload is given (nothing changed on that path) and
    when the *explicit* uniform spec is passed (the workload machinery
    must recognize it and stay entirely out of the RNG streams).
    """

    #: (registry name, instance, options) for all ten kernel-backed
    #: protocols, at sizes where every code path (phase 2 handoffs,
    #: cleanup rounds, fallbacks) is reachable.
    KERNEL_CASES = [
        ("heavy", 20_000, 64, {}),
        ("heavy", 20_000, 64, {"mode": "aggregate"}),
        ("combined", 20_000, 64, {}),
        ("asymmetric", 20_000, 64, {}),
        ("asymmetric", 20_000, 64, {"mode": "aggregate"}),
        ("faulty", 20_000, 64, {"crash_prob": 0.01, "loss_prob": 0.02}),
        ("multicontact", 20_000, 64, {"d": 2}),
        ("trivial", 20_000, 64, {}),
        ("light", 100, 64, {}),
        ("single", 20_000, 64, {}),
        ("single", 20_000, 64, {"mode": "aggregate"}),
        ("stemann", 20_000, 64, {}),
        ("stemann", 20_000, 64, {"mode": "aggregate"}),
        ("dchoice", 256, 64, {"d": 2}),
    ]

    @pytest.mark.parametrize(
        "name,m,n,options",
        KERNEL_CASES,
        ids=[
            f"{c[0]}-{c[3].get('mode', 'default')}" for c in KERNEL_CASES
        ],
    )
    def test_uniform_workload_bitwise_identical(self, name, m, n, options):
        base = repro.allocate(name, m, n, seed=20190416, **options)
        explicit = repro.allocate(
            name, m, n, seed=20190416, workload="uniform", **options
        )
        spec_obj = repro.allocate(
            name, m, n, seed=20190416, workload=repro.Workload(), **options
        )
        for other in (explicit, spec_obj):
            assert np.array_equal(base.loads, other.loads), name
            assert base.rounds == other.rounds, name
            assert base.total_messages == other.total_messages, name
            assert base.unallocated == other.unallocated, name

    def test_all_ten_kernel_backed_protocols_covered(self):
        covered = {c[0] for c in self.KERNEL_CASES}
        kernel_backed = {
            s.name for s in repro.list_allocators() if s.workload_capable
        }
        assert covered == kernel_backed

    @pytest.mark.parametrize("name", ["heavy", "single", "stemann"])
    def test_zipf_perball_vs_aggregate_pinned(self, name):
        """Non-uniform cross-validation: the two granularities must
        agree on conserved quantities and within concentration noise
        on the load shape, at pinned seeds."""
        m, n = 40_000, 64
        options = {"collision_factor": 3.0} if name == "stemann" else {}
        wl = "zipf:1.1+geomw:0.5"
        p = repro.allocate(
            name, m, n, seed=21, mode="perball", workload=wl, **options
        )
        a = repro.allocate(
            name, m, n, seed=21, mode="aggregate", workload=wl, **options
        )
        assert p.complete and a.complete
        assert p.loads.sum() == a.loads.sum() == m
        # Weighted totals: both granularities draw i.i.d. geometric
        # weights (mean 2) for the same m balls.
        tp = p.extra["workload"]["total_weight"]
        ta = a.extra["workload"]["total_weight"]
        assert abs(tp - 2 * m) <= 0.05 * 2 * m
        assert abs(tp - ta) <= 0.05 * tp
        # Load shape within CLT noise of the skewed multinomial.
        scale = np.sqrt(m / n)
        assert abs(p.max_load - a.max_load) <= 8 * scale

    def test_heterogeneous_capacity_cross_granularity_pinned(self):
        m, n = 40_000, 64
        wl = "hotset:0.25:0.5+propcap"
        p = repro.allocate("heavy", m, n, seed=22, mode="perball", workload=wl)
        a = repro.allocate(
            "heavy", m, n, seed=22, mode="aggregate", workload=wl
        )
        assert p.complete and a.complete
        # The capacity profile is deterministic and shared: both modes
        # must shape loads the same way (hot quarter holds ~half).
        hot = n // 4
        for res in (p, a):
            hot_share = res.loads[:hot].sum() / m
            assert 0.35 <= hot_share <= 0.65
        assert p.extra["phase1_rounds"] == a.extra["phase1_rounds"]
