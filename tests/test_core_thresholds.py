"""Tests for the threshold schedules."""

import math
import random

import pytest

from repro.core.thresholds import (
    ExponentSchedule,
    FixedSchedule,
    PaperSchedule,
    ThresholdSchedule,
)


class TestPaperSchedule:
    def test_estimate_recursion(self):
        s = PaperSchedule(10**6, 1000)
        assert s.estimate(0) == pytest.approx(10**6)
        assert s.estimate(1) == pytest.approx(
            (10**6) ** (2 / 3) * 1000 ** (1 / 3), rel=1e-9
        )

    def test_raw_threshold_formula(self):
        m, n = 10**6, 1000
        s = PaperSchedule(m, n)
        assert s.raw_threshold(0) == pytest.approx(
            m / n - (m / n) ** (2 / 3)
        )

    def test_thresholds_integral_and_monotone(self):
        s = PaperSchedule(2**26, 2**10)
        values = [s.threshold(i) for i in range(s.phase1_rounds())]
        assert all(isinstance(v, int) for v in values)
        assert values == sorted(values)
        assert all(v >= 0 for v in values)

    def test_capacity_sums_to_last_threshold(self):
        s = PaperSchedule(2**20, 2**8)
        rounds = s.phase1_rounds()
        total = sum(s.capacity(i) for i in range(rounds))
        assert total == s.threshold(rounds - 1)

    def test_phase1_rounds_endpoint(self):
        s = PaperSchedule(10**9, 1000)
        r = s.phase1_rounds()
        assert s.estimate(r) <= 2000
        assert s.estimate(r - 1) > 2000

    def test_phase1_rounds_loglog_growth(self):
        n = 1024
        r_small = PaperSchedule(n * 2**4, n).phase1_rounds()
        r_large = PaperSchedule(n * 2**32, n).phase1_rounds()
        assert r_small < r_large <= r_small + 10

    def test_thresholds_below_mean(self):
        m, n = 2**24, 2**8
        s = PaperSchedule(m, n)
        for i in range(s.phase1_rounds()):
            assert s.threshold(i) <= m // n

    def test_huge_m_numerically_stable(self):
        s = PaperSchedule(2**200, 1024)
        assert s.estimate(0) == pytest.approx(float(2**200), rel=1e-6)
        assert s.phase1_rounds() < 100

    def test_stop_factor_validation(self):
        with pytest.raises(ValueError):
            PaperSchedule(100, 10, stop_factor=0.5)

    def test_requires_heavy(self):
        with pytest.raises(ValueError):
            PaperSchedule(5, 10)

    def test_negative_round_raises(self):
        s = PaperSchedule(1000, 10)
        with pytest.raises(ValueError):
            s.estimate(-1)
        with pytest.raises(ValueError):
            s.threshold(-1)


class TestFixedSchedule:
    def test_constant(self):
        s = FixedSchedule(1000, 10, slack=2)
        assert s.threshold(0) == s.threshold(5) == 102

    def test_ceil_of_mean(self):
        s = FixedSchedule(1001, 10, slack=0)
        assert s.threshold(0) == 101

    def test_no_phase1_endpoint(self):
        assert FixedSchedule(1000, 10).phase1_rounds() is None

    def test_capacity_zero_after_first(self):
        s = FixedSchedule(1000, 10, slack=1)
        assert s.capacity(0) == 101
        assert s.capacity(1) == 0

    def test_negative_slack(self):
        with pytest.raises(ValueError):
            FixedSchedule(100, 10, slack=-1)


class TestFixedScheduleConstant:
    """``FixedSchedule.threshold`` returns its constant without walking
    the prefix maximum, and agrees with the walk everywhere."""

    TRIPLES = [(1000, 10, 2), (1001, 10, 0), (10**5, 256, 1)]

    @pytest.mark.parametrize("m, n, slack", TRIPLES)
    @pytest.mark.parametrize("order", ["increasing", "decreasing", "shuffled"])
    def test_equals_the_prefix_walk(self, m, n, slack, order):
        fast = FixedSchedule(m, n, slack=slack)
        walked = FixedSchedule(m, n, slack=slack)
        indices = list(range(5001))
        if order == "decreasing":
            indices.reverse()
        elif order == "shuffled":
            random.Random(11).shuffle(indices)
        for i in indices:
            assert fast.threshold(i) == ThresholdSchedule.threshold(walked, i)
        assert fast._prefix_max == [], "the constant path walked"

    @pytest.mark.parametrize("m, n, slack", TRIPLES)
    def test_capacity_unchanged(self, m, n, slack):
        s = FixedSchedule(m, n, slack=slack)
        walked = FixedSchedule(m, n, slack=slack)
        base = [ThresholdSchedule.threshold(walked, i) for i in range(50)]
        want = [base[0]] + [b - a for a, b in zip(base, base[1:])]
        assert [s.capacity(i) for i in range(50)] == want

    def test_negative_round_raises(self):
        with pytest.raises(ValueError):
            FixedSchedule(1000, 10).threshold(-1)


class TestExponentSchedule:
    def test_matches_paper_at_two_thirds(self):
        m, n = 2**22, 2**8
        paper = PaperSchedule(m, n)
        exp = ExponentSchedule(m, n, alpha=2.0 / 3.0)
        for i in range(paper.phase1_rounds()):
            assert exp.threshold(i) == paper.threshold(i)
        assert exp.phase1_rounds() == paper.phase1_rounds()

    def test_smaller_alpha_fewer_rounds(self):
        m, n = 2**24, 2**8
        r_half = ExponentSchedule(m, n, alpha=0.5).phase1_rounds()
        r_paper = ExponentSchedule(m, n, alpha=2 / 3).phase1_rounds()
        r_big = ExponentSchedule(m, n, alpha=0.9).phase1_rounds()
        assert r_half <= r_paper <= r_big

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_validation(self, alpha):
        with pytest.raises(ValueError):
            ExponentSchedule(100, 10, alpha=alpha)

    def test_estimate_recursion(self):
        s = ExponentSchedule(10**6, 100, alpha=0.5)
        assert s.estimate(1) == pytest.approx(
            math.sqrt(10**6) * math.sqrt(100), rel=1e-9
        )


class _Sawtooth(FixedSchedule):
    """Non-monotone raw thresholds, negative at first: ``threshold``
    must carry the running maximum, clamped at zero."""

    def raw_threshold(self, round_index: int) -> float:
        return (round_index % 7) * 1.5 - 4.0 + 0.01 * round_index


class TestPrefixMaximum:
    """``threshold(i)`` is ``max(0, floor(max(raw[0..i])))`` whatever
    order the rounds are asked in, from a prefix maximum kept on the
    instance."""

    LIMIT = 2000

    @staticmethod
    def _schedules():
        m, n = 2**20, 2**6
        return [
            PaperSchedule(m, n),
            FixedSchedule(m, n, slack=3),
            ExponentSchedule(m, n, alpha=0.75),
            _Sawtooth(m, n),
        ]

    def _naive(self, schedule):
        out, best = [], 0.0
        for i in range(self.LIMIT + 1):
            best = max(best, schedule.raw_threshold(i))
            out.append(max(0, math.floor(best)))
        return out

    @pytest.mark.parametrize("order", ["ascending", "descending", "random"])
    def test_matches_the_naive_prefix_maximum(self, order):
        indices = list(range(self.LIMIT + 1))
        if order == "descending":
            indices.reverse()
        elif order == "random":
            random.Random(5).shuffle(indices)
        for schedule in self._schedules():
            want = self._naive(schedule)
            for i in indices:
                assert schedule.threshold(i) == want[i], (schedule, i)
            # Monotone and non-negative, as the class promises.
            got = [schedule.threshold(i) for i in range(self.LIMIT + 1)]
            assert got[0] >= 0
            assert all(a <= b for a, b in zip(got, got[1:]))
