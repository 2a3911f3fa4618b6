"""Tests for Algorithm A_heavy — Theorem 1/6 behaviour."""

import math

import numpy as np
import pytest

from repro.analysis.theory import predicted_rounds
from repro.core import (
    FixedSchedule,
    HeavyConfig,
    PaperSchedule,
    run_heavy,
    run_threshold_protocol,
)
from repro.utils.seeding import RngFactory


class TestRunHeavyCore:
    def test_complete_and_conserves(self, heavy_instance):
        m, n = heavy_instance
        res = run_heavy(m, n, seed=1)
        assert res.complete
        assert res.loads.sum() == m

    def test_gap_constant(self, heavy_instance):
        """Theorem 1's headline: max load m/n + O(1)."""
        m, n = heavy_instance
        res = run_heavy(m, n, seed=1)
        assert res.gap <= 8.0

    def test_rounds_within_prediction(self, heavy_instance):
        m, n = heavy_instance
        res = run_heavy(m, n, seed=1)
        assert res.rounds <= predicted_rounds(m, n) + 4

    def test_rounds_loglog_scaling(self):
        n = 512
        r_small = run_heavy(n * 2**4, n, seed=2).rounds
        r_large = run_heavy(n * 2**16, n, seed=2, mode="aggregate").rounds
        assert r_large <= r_small + 8  # doubly logarithmic, not linear

    def test_messages_linear(self, heavy_instance):
        """Theorem 6: O(m) messages total."""
        m, n = heavy_instance
        res = run_heavy(m, n, seed=1)
        assert res.total_messages <= 4 * m

    def test_per_ball_messages(self, heavy_instance):
        m, n = heavy_instance
        res = run_heavy(m, n, seed=1)
        s = res.messages.summary()
        assert s["per_ball_mean"] <= 8.0  # O(1) expected
        assert s["per_ball_max"] <= 12 * math.log(n)  # O(log n) w.h.p.

    def test_per_bin_messages(self, heavy_instance):
        m, n = heavy_instance
        res = run_heavy(m, n, seed=1)
        s = res.messages.summary()
        assert s["per_bin_received_max"] <= 2.0 * (m / n) + 30 * math.log(n)

    def test_deterministic_under_seed(self):
        a = run_heavy(50_000, 128, seed=77)
        b = run_heavy(50_000, 128, seed=77)
        assert np.array_equal(a.loads, b.loads)
        assert a.rounds == b.rounds
        assert a.total_messages == b.total_messages

    def test_seeds_vary(self):
        a = run_heavy(50_000, 128, seed=1)
        b = run_heavy(50_000, 128, seed=2)
        assert not np.array_equal(a.loads, b.loads)

    def test_m_equals_n_boundary(self):
        res = run_heavy(256, 256, seed=3)
        assert res.complete
        assert res.max_load <= 5

    def test_extra_fields(self):
        res = run_heavy(10_000, 64, seed=3)
        assert res.extra["phase1_rounds"] >= 1
        assert res.extra["phase2_rounds"] >= 1
        assert res.extra["phase1_remaining"] >= 0
        assert "virtual_factor" in res.extra

    def test_phase1_remaining_is_On(self, heavy_instance):
        """Claims 2-4: O(n) stragglers enter phase 2."""
        m, n = heavy_instance
        res = run_heavy(m, n, seed=1)
        assert res.extra["phase1_remaining"] <= 8 * n

    def test_invalid_instance(self):
        with pytest.raises(ValueError):
            run_heavy(10, 100, seed=1)  # m < n

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            run_heavy(1000, 10, seed=1, mode="warp")  # type: ignore[arg-type]


class TestAggregateMode:
    def test_complete_and_conserves(self):
        res = run_heavy(2**22, 1024, seed=5, mode="aggregate")
        assert res.complete
        assert res.loads.sum() == 2**22

    def test_gap_constant(self):
        res = run_heavy(2**22, 1024, seed=5, mode="aggregate")
        assert res.gap <= 8.0

    def test_no_per_ball_counter(self):
        res = run_heavy(2**18, 256, seed=5, mode="aggregate")
        assert res.messages is None
        assert res.total_messages > 0

    def test_huge_ratio(self):
        res = run_heavy(2**36, 64, seed=5, mode="aggregate")
        assert res.complete
        assert res.gap <= 8.0
        assert res.rounds <= predicted_rounds(2**36, 64) + 4

    def test_statistically_matches_perball(self):
        """Gap distributions of both modes must be indistinguishable
        (same law): compare means over seeds."""
        m, n = 2**16, 256
        gaps_p = [run_heavy(m, n, seed=s, mode="perball").gap for s in range(8)]
        gaps_a = [
            run_heavy(m, n, seed=s + 100, mode="aggregate").gap
            for s in range(8)
        ]
        assert abs(np.mean(gaps_p) - np.mean(gaps_a)) <= 2.0


class TestHandoffAndConfig:
    def test_no_handoff_incomplete(self):
        res = run_heavy(2**16, 256, seed=4, handoff=False)
        assert not res.complete
        assert res.unallocated > 0
        assert res.loads.sum() == 2**16 - res.unallocated

    def test_custom_stop_factor(self):
        cfg = HeavyConfig(stop_factor=8.0)
        res = run_heavy(2**16, 256, seed=4, config=cfg)
        assert res.complete
        # Larger stop factor: fewer phase-1 rounds.
        base = run_heavy(2**16, 256, seed=4)
        assert res.extra["phase1_rounds"] <= base.extra["phase1_rounds"]

    def test_track_per_ball_off(self):
        cfg = HeavyConfig(track_per_ball=False)
        res = run_heavy(2**14, 128, seed=4, config=cfg)
        assert res.messages is None
        assert res.complete


class TestThresholdProtocolGeneric:
    def test_fixed_schedule_completes_slowly(self):
        m, n = 64 * 64, 64
        fixed = FixedSchedule(m, n, slack=1)
        out = run_threshold_protocol(
            m, n, fixed, rng_factory=RngFactory(3), max_rounds=10_000
        )
        assert out.remaining == 0
        # Section 1.1: needs at least ~log n rounds.
        assert out.rounds >= 0.5 * math.log2(n)

    def test_paper_schedule_stops_at_phase1(self):
        m, n = 2**18, 256
        sched = PaperSchedule(m, n)
        out = run_threshold_protocol(m, n, sched, rng_factory=RngFactory(3))
        assert out.rounds == sched.phase1_rounds()
        assert out.remaining > 0

    def test_thresholds_recorded(self):
        m, n = 2**14, 128
        sched = PaperSchedule(m, n)
        out = run_threshold_protocol(m, n, sched, rng_factory=RngFactory(3))
        assert out.thresholds == [
            sched.threshold(i) for i in range(out.rounds)
        ]

    def test_loads_never_exceed_threshold(self):
        m, n = 2**16, 128
        sched = PaperSchedule(m, n)
        out = run_threshold_protocol(m, n, sched, rng_factory=RngFactory(9))
        assert out.loads.max() <= out.thresholds[-1]

    def test_counter_optional(self):
        m, n = 2**12, 64
        out = run_threshold_protocol(
            m,
            n,
            PaperSchedule(m, n),
            rng_factory=RngFactory(1),
            track_per_ball=False,
        )
        assert out.counter is None

    @pytest.mark.parametrize(
        "bad", [{"phase": "light"}, {"stall_rounds": 0}, {"start_round": -1}]
    )
    def test_rejects_bad_run_options(self, bad):
        m, n = 2**10, 32
        with pytest.raises(ValueError, match=next(iter(bad))):
            run_threshold_protocol(m, n, PaperSchedule(m, n), **bad)

    def test_aggregate_mode_counts(self):
        m, n = 2**20, 256
        out = run_threshold_protocol(
            m, n, PaperSchedule(m, n), rng_factory=RngFactory(1),
            mode="aggregate",
        )
        assert out.remaining_ids is None
        assert out.loads.sum() + out.remaining == m


class _OnePerRound(FixedSchedule):
    """Threshold ``i + 1`` in round ``i``: each bin takes at most one
    ball per round, so ``m`` balls in ``n`` bins need ``~m/n`` rounds."""

    def raw_threshold(self, round_index: int) -> float:
        return round_index + 1


def test_long_run_asks_each_raw_threshold_about_once():
    """``threshold(i)`` keeps a running prefix maximum, so a run of R
    rounds costs O(R) ``raw_threshold`` calls, not O(R^2)."""

    class Counting(_OnePerRound):
        calls = 0

        def raw_threshold(self, round_index: int) -> float:
            Counting.calls += 1
            return super().raw_threshold(round_index)

    m, n = 4000, 4
    out = run_threshold_protocol(
        m, n, Counting(m, n), rng_factory=RngFactory(3), max_rounds=401
    )
    assert out.rounds == 401 and out.remaining > 0
    assert Counting.calls <= 2 * out.rounds


class TestPerBallTallies:
    def test_more_than_255_rounds(self):
        """Past 255 recorded rounds the per-ball commit rounds widen;
        every tally still follows from the per-round metrics."""
        m, n = 1600, 4
        out = run_threshold_protocol(
            m, n, _OnePerRound(m, n), rng_factory=RngFactory(2)
        )
        assert out.remaining == 0 and out.rounds > 300
        c = out.counter
        rows = out.metrics.rounds
        for r, row in enumerate(rows):
            # The balls that committed in round r sent r + 1 requests.
            assert np.sum((c.ball_sent == r + 1) & (c.ball_received == 1)) == (
                row.commits
            )
        assert c.ball_sent.sum() == c.bin_received.sum() == sum(
            row.requests_sent for row in rows
        )
        np.testing.assert_array_equal(c.ball_received, np.ones(m))
        np.testing.assert_array_equal(c.bin_sent, out.loads)
        assert c.total == out.total_messages


class TestMessageTailGeometric:
    def test_per_ball_message_tail_decays_geometrically(self):
        """Theorem 6's proof: Pr[ball sends > l messages] <= 2^-l — the
        per-ball send counts must have an (at most) geometric tail."""
        import numpy as np

        res = run_heavy(2**18, 256, seed=13)
        sent = res.messages.ball_sent
        m = sent.size
        # fraction of balls with > l sends, vs 2^-(l-1) (one slack
        # factor for the phase-2 multi-contact rounds)
        for level in (2, 4, 6, 8):
            frac = float((sent > level).mean())
            assert frac <= 2.0 ** (-(level - 2)), (level, frac)

    def test_mean_sends_constant(self):
        res = run_heavy(2**18, 256, seed=13)
        assert res.messages.ball_sent.mean() <= 4.0
