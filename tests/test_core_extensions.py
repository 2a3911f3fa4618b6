"""Tests for the extension modules: multicontact and fault injection."""

import numpy as np
import pytest

import repro
from repro.core import run_heavy, run_heavy_faulty, run_heavy_multicontact
from repro.core.thresholds import PaperSchedule


class TestMulticontact:
    def test_completes_and_conserves(self):
        res = run_heavy_multicontact(2**16, 256, 2, seed=1)
        assert res.complete
        assert res.loads.sum() == 2**16

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_gap_constant(self, d):
        res = run_heavy_multicontact(2**16, 256, d, seed=1)
        assert res.gap <= 10.0

    def test_d1_matches_heavy_statistically(self):
        """d = 1 multicontact is the same protocol as run_heavy phase 1;
        round counts and leftovers must coincide up to noise."""
        m, n = 2**16, 256
        mc = run_heavy_multicontact(m, n, 1, seed=3)
        hv = run_heavy(m, n, seed=3)
        assert mc.extra["phase1_rounds"] == hv.extra["phase1_rounds"]
        assert (
            abs(mc.extra["phase1_remaining"] - hv.extra["phase1_remaining"])
            <= 0.5 * n + 50
        )

    def test_no_round_speedup_from_degree(self):
        """The Theorem 2 message: the schedule bounds the horizon, so
        d = 4 finishes in the same number of rounds as d = 1."""
        m, n = 2**16, 256
        r1 = run_heavy_multicontact(m, n, 1, seed=5).rounds
        r4 = run_heavy_multicontact(m, n, 4, seed=5).rounds
        assert abs(r1 - r4) <= 2

    def test_messages_scale_with_d(self):
        m, n = 2**14, 128
        m1 = run_heavy_multicontact(m, n, 1, seed=5).total_messages
        m4 = run_heavy_multicontact(m, n, 4, seed=5).total_messages
        assert m4 > 2.5 * m1

    def test_custom_schedule(self):
        m, n = 2**14, 128
        res = run_heavy_multicontact(
            m, n, 2, seed=1, schedule=PaperSchedule(m, n, stop_factor=4.0)
        )
        assert res.complete

    def test_no_handoff(self):
        res = run_heavy_multicontact(2**14, 128, 2, seed=1, handoff=False)
        assert not res.complete
        assert res.unallocated > 0

    def test_deterministic(self):
        a = run_heavy_multicontact(2**14, 128, 2, seed=9)
        b = run_heavy_multicontact(2**14, 128, 2, seed=9)
        assert np.array_equal(a.loads, b.loads)

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            run_heavy_multicontact(1000, 10, 0)


class TestFaulty:
    def test_faultfree_matches_heavy_in_law(self):
        m, n = 2**16, 256
        res = run_heavy_faulty(m, n, seed=1)
        assert res.complete
        assert res.loads.sum() == m
        assert res.gap <= 8.0
        assert res.extra["crashed"] == 0
        assert res.extra["ghost_slots"] == 0

    def test_crashes_accounted(self):
        m, n = 2**16, 256
        res = run_heavy_faulty(m, n, seed=1, crash_prob=0.05)
        crashed = res.extra["crashed"]
        assert crashed > 0
        assert res.loads.sum() == m - crashed
        assert res.unallocated == crashed
        assert not res.complete  # crashed balls never land

    def test_crash_rate_sane(self):
        m, n = 2**16, 256
        res = run_heavy_faulty(m, n, seed=1, crash_prob=0.05)
        # with geometric retry counts, total crashed ~ 5-15% of m
        assert res.extra["crashed"] < 0.3 * m

    def test_survivors_all_placed_under_loss(self):
        m, n = 2**16, 256
        res = run_heavy_faulty(m, n, seed=2, loss_prob=0.1)
        assert res.complete
        assert res.loads.sum() == m

    def test_ghost_slots_appear_with_loss(self):
        res = run_heavy_faulty(2**16, 256, seed=2, loss_prob=0.1)
        assert res.extra["ghost_slots"] > 0

    def test_loads_exclude_ghosts(self):
        """Ghost reservations must not count as balls."""
        m, n = 2**16, 256
        res = run_heavy_faulty(m, n, seed=2, loss_prob=0.2)
        assert res.loads.sum() == m  # every survivor placed exactly once

    def test_degradation_graceful(self):
        """Gap grows with loss but stays far below the naive baseline's
        sqrt((m/n) log n) ~ 60."""
        m, n = 2**16, 256
        res = run_heavy_faulty(m, n, seed=3, loss_prob=0.1)
        assert res.gap <= 25.0

    def test_combined_faults(self):
        m, n = 2**15, 128
        res = run_heavy_faulty(
            m, n, seed=4, crash_prob=0.02, loss_prob=0.05
        )
        survivors = m - res.extra["crashed"]
        assert res.loads.sum() == survivors
        assert res.unallocated == res.extra["crashed"]

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            run_heavy_faulty(1000, 10, crash_prob=1.5)
        with pytest.raises(ValueError):
            run_heavy_faulty(1000, 10, loss_prob=-0.1)

    def test_deterministic(self):
        a = run_heavy_faulty(2**14, 128, seed=7, loss_prob=0.05)
        b = run_heavy_faulty(2**14, 128, seed=7, loss_prob=0.05)
        assert np.array_equal(a.loads, b.loads)
        assert a.extra["ghost_slots"] == b.extra["ghost_slots"]


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_heavy(20_000, 64, seed=1),
        lambda: repro.allocate("combined", 20_000, 64, seed=1),
        lambda: run_heavy_faulty(20_000, 64, seed=1, loss_prob=0.05),
        lambda: run_heavy_multicontact(20_000, 64, 2, seed=1),
        lambda: run_heavy(2_000, 32, seed=1, mode="engine"),
    ],
    ids=["heavy", "combined", "faulty", "multicontact", "engine"],
)
def test_metrics_rows_cover_the_handoff(run):
    """Every reported round has one ``metrics`` row, ``A_light``'s
    included, numbered in order after the threshold rounds."""
    res = run()
    assert res.extra["phase2_rounds"] > 0
    assert len(res.metrics.rounds) == res.rounds
    assert [r.round_no for r in res.metrics.rounds] == list(range(res.rounds))
    assert res.metrics.rounds[-1].unallocated_end == 0
    assert {"light_used_fallback", "virtual_factor"} <= set(res.extra)
