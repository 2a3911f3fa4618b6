"""Tests for the asymmetric superbin algorithm (Theorem 3)."""

import math

import numpy as np
import pytest

from repro.core.asymmetric import (
    AsymmetricConfig,
    run_asymmetric,
    superbin_blocks,
)


class TestSuperbinBlocks:
    def test_partition_covers_all_bins(self):
        blocks = superbin_blocks(100, 7)
        assert blocks[0] == 0 and blocks[-1] == 100
        sizes = np.diff(blocks)
        assert sizes.sum() == 100

    def test_sizes_within_one(self):
        sizes = np.diff(superbin_blocks(100, 7))
        assert sizes.max() - sizes.min() <= 1

    def test_divisible_case_equal(self):
        sizes = np.diff(superbin_blocks(100, 10))
        assert (sizes == 10).all()

    def test_single_superbin(self):
        blocks = superbin_blocks(10, 1)
        assert list(blocks) == [0, 10]

    def test_one_bin_per_superbin(self):
        blocks = superbin_blocks(5, 5)
        assert list(np.diff(blocks)) == [1, 1, 1, 1, 1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            superbin_blocks(10, 0)
        with pytest.raises(ValueError):
            superbin_blocks(10, 11)


class TestRunAsymmetric:
    @pytest.mark.parametrize(
        "m,n",
        [(10**5, 100), (10**6, 1000), (2**14, 2**10), (4096, 4096)],
    )
    def test_complete_and_conserves(self, m, n):
        res = run_asymmetric(m, n, seed=1)
        assert res.complete
        assert res.loads.sum() == m

    @pytest.mark.parametrize("m,n", [(10**6, 1000), (10**5, 256), (2**22, 64)])
    def test_gap_constant(self, m, n):
        """Theorem 3: max load m/n + O(1)."""
        res = run_asymmetric(m, n, seed=1)
        assert res.gap <= 8.0

    def test_constant_rounds_across_scales(self):
        """Theorem 3: O(1) rounds — the count must not grow with m."""
        n = 256
        rounds = [
            run_asymmetric(n * ratio, n, seed=2).rounds
            for ratio in (16, 256, 4096, 65536)
        ]
        assert max(rounds) <= 8
        # and no growth trend: largest instance within +2 of smallest
        assert rounds[-1] <= rounds[0] + 4

    def test_presymmetric_auto(self):
        n = 128
        heavy = run_asymmetric(n * n, n, seed=3)  # m >> n log n
        light = run_asymmetric(n * 2, n, seed=3)  # m < n log n
        assert heavy.extra["presymmetric_used"]
        assert not light.extra["presymmetric_used"]

    def test_presymmetric_forced_off(self):
        n = 128
        res = run_asymmetric(n * n, n, seed=3, presymmetric=False)
        assert not res.extra["presymmetric_used"]
        assert res.complete
        assert res.gap <= 10.0

    def test_per_bin_messages_scale(self):
        """Cor 2 (relaxed): max per-bin messages O((m/n) + log n) up to
        the moderate-regime leader factor (see experiment T4 in
        repro.experiments.registry)."""
        m, n = 10**6, 1000
        res = run_asymmetric(m, n, seed=1)
        s = res.messages.summary()
        assert s["per_bin_received_max"] <= 2.5 * (m / n) + 50 * math.log(n)

    def test_total_messages_linear(self):
        m, n = 10**6, 1000
        res = run_asymmetric(m, n, seed=1)
        # request + response + allocation notice per ball, geometric tail
        assert res.total_messages <= 5 * m

    def test_deterministic(self):
        a = run_asymmetric(10**5, 128, seed=11)
        b = run_asymmetric(10**5, 128, seed=11)
        assert np.array_equal(a.loads, b.loads)
        assert a.rounds == b.rounds

    def test_schedule_recorded(self):
        res = run_asymmetric(10**5, 128, seed=1)
        sched = res.extra["schedule"]
        assert len(sched) == res.rounds - int(res.extra["presymmetric_used"])
        for n_r, l_r in sched:
            assert 1 <= n_r <= 128
            assert l_r >= 1

    def test_cleanup_rare(self):
        cleanups = [
            run_asymmetric(10**5, 256, seed=s).extra["cleanup_rounds"]
            for s in range(10)
        ]
        assert np.mean(cleanups) <= 0.5

    def test_custom_c(self):
        res = run_asymmetric(10**5, 128, seed=1, config=AsymmetricConfig(c=2.5))
        assert res.complete
        assert res.gap <= 10.0

    def test_requires_heavy(self):
        with pytest.raises(ValueError):
            run_asymmetric(10, 100, seed=1)

    def test_track_per_ball_off(self):
        res = run_asymmetric(
            10**5, 128, seed=1, config=AsymmetricConfig(track_per_ball=False)
        )
        assert res.messages is None
        assert res.complete


class TestAggregateMode:
    def test_conserves_and_completes(self):
        res = run_asymmetric(2**22, 512, seed=1, mode="aggregate")
        assert res.complete
        assert res.loads.sum() == 2**22

    def test_huge_instance(self):
        res = run_asymmetric(10**10, 1024, seed=1, mode="aggregate")
        assert res.complete
        assert res.gap <= 8.0
        assert res.rounds <= 8

    def test_no_per_ball_counter(self):
        res = run_asymmetric(2**20, 256, seed=1, mode="aggregate")
        assert res.messages is None
        assert res.extra["bin_received_max"] > 0

    def test_statistically_matches_perball(self):
        import numpy as np

        m, n = 2**18, 256
        g_a = np.mean(
            [
                run_asymmetric(m, n, seed=s, mode="aggregate").gap
                for s in range(6)
            ]
        )
        g_p = np.mean(
            [run_asymmetric(m, n, seed=s + 60).gap for s in range(6)]
        )
        assert abs(g_a - g_p) <= 2.0

    def test_round_structure_matches_perball(self):
        m, n = 2**18, 256
        a = run_asymmetric(m, n, seed=4, mode="aggregate")
        p = run_asymmetric(m, n, seed=4)
        assert a.extra["scheduled_rounds"] == p.extra["scheduled_rounds"]
        assert [x for x, _ in a.extra["schedule"]] == [
            x for x, _ in p.extra["schedule"]
        ]

    def test_invalid_mode(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            run_asymmetric(1000, 10, mode="warp")
