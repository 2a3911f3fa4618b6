"""Tests for repro.analysis.berry_esseen (Theorem 4 / Claim 5)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.berry_esseen import (
    berry_esseen_bound,
    binomial_upper_deviation_probability,
    overload_probability_lower_bound,
)


class TestBerryEsseenBound:
    def test_decays_like_inverse_sqrt(self):
        b1 = berry_esseen_bound(10_000, 0.001)
        b2 = berry_esseen_bound(40_000, 0.001)
        assert b2 == pytest.approx(b1 / 2, rel=1e-9)

    def test_positive(self):
        assert berry_esseen_bound(100, 0.5) > 0

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            berry_esseen_bound(10, 0.0)
        with pytest.raises(ValueError):
            berry_esseen_bound(10, 1.0)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            berry_esseen_bound(0, 0.5)

    def test_small_p_scaling(self):
        # For small p, bound ~ c / sqrt(M p): halves when M*p quadruples.
        b1 = berry_esseen_bound(10**6, 1e-4)
        b2 = berry_esseen_bound(4 * 10**6, 1e-4)
        assert b2 == pytest.approx(b1 / 2, rel=1e-3)


class TestOverloadLowerBound:
    def test_vacuous_when_m_small(self):
        # M/n too small: Berry-Esseen error swamps the normal tail.
        assert overload_probability_lower_bound(100, 50) == 0.0

    def test_positive_when_m_large(self):
        # The Claim 5 prerequisite M >= Cn with C large.
        p = overload_probability_lower_bound(10**7, 100)
        assert p > 0

    def test_is_a_valid_lower_bound(self):
        # Exact binomial tail must dominate the certified lower bound.
        for m_balls, n in [(10**6, 100), (10**7, 1000)]:
            lower = overload_probability_lower_bound(m_balls, n)
            exact = binomial_upper_deviation_probability(m_balls, n)
            assert exact >= lower

    def test_monotone_in_m(self):
        vals = [
            overload_probability_lower_bound(m, 100)
            for m in (10**5, 10**6, 10**7)
        ]
        assert vals == sorted(vals)

    def test_needs_two_bins(self):
        with pytest.raises(ValueError):
            overload_probability_lower_bound(100, 1)


class TestExactBinomialTail:
    def test_known_value(self):
        # X ~ Bin(M, 1/n), mu = 100, threshold = mu + 2 sqrt(mu) = 120:
        # survival there is ~2.6% (Poisson-like).
        p = binomial_upper_deviation_probability(10**5, 10**3, a=2.0)
        assert 0.015 < p < 0.04

    def test_a_zero_is_about_half(self):
        p = binomial_upper_deviation_probability(10**6, 100, a=0.0)
        assert 0.4 < p < 0.55

    def test_matches_monte_carlo(self, rng):
        m_balls, n = 50_000, 200
        mu = m_balls / n
        threshold = math.ceil(mu + 2 * math.sqrt(mu))
        samples = rng.binomial(m_balls, 1 / n, size=40_000)
        emp = float(np.mean(samples >= threshold))
        exact = binomial_upper_deviation_probability(m_balls, n)
        assert emp == pytest.approx(exact, abs=0.005)

    def test_claim5_constant_probability(self):
        # Claim 5: P[X >= mu + 2 sqrt(mu)] = Omega(1) — concretely the
        # normal tail at 2 is ~2.3%, so the exact value across a wide
        # sweep stays within [1%, 5%].
        for m_balls, n in [(10**5, 100), (10**6, 1000), (10**7, 128)]:
            p = binomial_upper_deviation_probability(m_balls, n)
            assert 0.01 < p < 0.05

    def test_invalid(self):
        with pytest.raises(ValueError):
            binomial_upper_deviation_probability(-1, 10)
        with pytest.raises(ValueError):
            binomial_upper_deviation_probability(10, 0)


#: One call of every user-facing entry point, then the scipy check.
_ENTRY_POINTS = """
import sys
import repro
repro.allocate("heavy", 2_000, 16, seed=1)
repro.replicate("heavy", 2_000, 16, trials=4, seed=1)
repro.run_dynamic("heavy", 2_000, 16, epochs=2, seed=1)
service = repro.AllocatorService("heavy", 16, seed=1)
service.place(300)
service.release(100)
service.drain()
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""


def test_entry_points_do_not_load_scipy():
    """Only the two scipy-backed functions here import scipy, when
    called: ``import repro`` and the allocation entry points never
    load it."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _ENTRY_POINTS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
