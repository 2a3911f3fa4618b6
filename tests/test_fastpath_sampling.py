"""Tests for the vectorized sampling kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.fastpath.sampling import (
    _WALK_MIN_KEYS,
    ChoiceSampler,
    fill_choices,
    grouped_accept,
    multinomial_occupancy,
    multinomial_occupancy_batched,
    prepare_choices,
    sample_choices,
    sample_uniform_choices,
    validate_pvals,
)


class TestSampleUniformChoices:
    def test_range_and_dtype(self, rng):
        out = sample_uniform_choices(1000, 7, rng)
        assert out.size == 1000
        assert out.dtype == np.int64
        assert out.min() >= 0 and out.max() < 7

    def test_zero_k(self, rng):
        assert sample_uniform_choices(0, 5, rng).size == 0

    def test_uniformity_chi2(self, rng):
        n = 16
        out = sample_uniform_choices(160_000, n, rng)
        counts = np.bincount(out, minlength=n)
        chi2 = ((counts - 10_000) ** 2 / 10_000).sum()
        # chi2 with 15 dof: 99.9th percentile ~ 37.7
        assert chi2 < 37.7

    def test_invalid(self, rng):
        with pytest.raises(ValueError):
            sample_uniform_choices(-1, 5, rng)
        with pytest.raises(ValueError):
            sample_uniform_choices(5, 0, rng)


class TestMultinomialOccupancy:
    def test_sums_to_k(self, rng):
        counts = multinomial_occupancy(12345, 77, rng)
        assert counts.sum() == 12345
        assert counts.dtype == np.int64

    def test_zero_k(self, rng):
        counts = multinomial_occupancy(0, 5, rng)
        assert counts.sum() == 0
        assert counts.shape == (5,)

    def test_large_k_supported(self, rng):
        counts = multinomial_occupancy(10**12, 64, rng)
        assert counts.sum() == 10**12

    def test_same_distribution_as_bincount(self, rng):
        """The aggregate path must match the per-ball path in law: KS
        test on single-bin counts across trials."""
        k, n, trials = 5000, 10, 300
        agg = np.array(
            [multinomial_occupancy(k, n, rng)[0] for _ in range(trials)]
        )
        per = np.array(
            [
                np.bincount(sample_uniform_choices(k, n, rng), minlength=n)[0]
                for _ in range(trials)
            ]
        )
        _, pvalue = sps.ks_2samp(agg, per)
        assert pvalue > 1e-4

    def test_invalid(self, rng):
        with pytest.raises(ValueError):
            multinomial_occupancy(-1, 5, rng)
        with pytest.raises(ValueError):
            multinomial_occupancy(5, 0, rng)


class TestValidatePvals:
    def test_normalizes_within_tolerance(self):
        p = validate_pvals(np.array([0.5, 0.5 + 1e-9]), 2)
        assert abs(p.sum() - 1.0) < 1e-15

    def test_accepts_integer_dtype(self):
        p = validate_pvals(np.array([1, 0]), 2)
        assert p.dtype == np.float64
        assert p[0] == 1.0

    def test_zero_probability_bin_allowed(self):
        p = validate_pvals(np.array([0.0, 1.0]), 2)
        assert p[0] == 0.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length n_bins"):
            validate_pvals(np.array([0.5, 0.5]), 3)

    def test_rejects_negative_nan_and_bad_sum(self):
        with pytest.raises(ValueError, match="non-negative"):
            validate_pvals(np.array([-0.1, 1.1]), 2)
        with pytest.raises(ValueError, match="finite"):
            validate_pvals(np.array([np.nan, 1.0]), 2)
        with pytest.raises(ValueError, match="sum to 1"):
            validate_pvals(np.array([0.3, 0.3]), 2)

    def test_rejects_non_numeric_dtype(self):
        with pytest.raises(ValueError, match="numeric"):
            validate_pvals(np.array(["a", "b"]), 2)

    def test_does_not_mutate_input(self):
        src = np.array([0.25, 0.75])
        out = validate_pvals(src, 2)
        out[0] = 9.0
        assert src[0] == 0.25


class TestSampleChoices:
    def test_uniform_path_bitwise_matches_sample_uniform_choices(self):
        a = sample_choices(5000, 17, np.random.default_rng(3))
        b = sample_uniform_choices(5000, 17, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_k_zero(self, rng):
        out = sample_choices(0, 5, rng, np.full(5, 0.2))
        assert out.size == 0 and out.dtype == np.int64

    def test_single_bin(self, rng):
        out = sample_choices(100, 1, rng, np.array([1.0]))
        assert np.array_equal(out, np.zeros(100, dtype=np.int64))

    def test_zero_probability_bin_never_drawn(self, rng):
        pvals = np.array([0.0, 0.5, 0.5])
        out = sample_choices(20_000, 3, rng, pvals)
        assert not (out == 0).any()

    def test_float_tolerance_sum_accepted(self, rng):
        pvals = np.full(3, 1.0 / 3.0)  # sums to 1 within float tolerance
        out = sample_choices(100, 3, rng, pvals)
        assert out.min() >= 0 and out.max() < 3

    def test_skew_matches_pvals_chi2(self, rng):
        pvals = np.array([0.6, 0.3, 0.1])
        k = 60_000
        counts = np.bincount(sample_choices(k, 3, rng, pvals), minlength=3)
        expected = pvals * k
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 13.8  # 99.9th percentile, 2 dof

    def test_invalid_args(self, rng):
        with pytest.raises(ValueError):
            sample_choices(-1, 5, rng, np.full(5, 0.2))
        with pytest.raises(ValueError):
            sample_choices(5, 0, rng, None)
        with pytest.raises(ValueError, match="sum to 1"):
            sample_choices(5, 2, rng, np.array([0.9, 0.3]))


class TestMultinomialOccupancyPvals:
    def test_k_zero_with_pvals(self, rng):
        counts = multinomial_occupancy(0, 4, rng, np.full(4, 0.25))
        assert counts.shape == (4,) and counts.sum() == 0

    def test_single_bin(self, rng):
        counts = multinomial_occupancy(123, 1, rng, np.array([1.0]))
        assert counts.tolist() == [123]

    def test_zero_probability_bin_gets_nothing(self, rng):
        pvals = np.array([0.0, 0.4, 0.6])
        counts = multinomial_occupancy(50_000, 3, rng, pvals)
        assert counts[0] == 0 and counts.sum() == 50_000

    def test_uniform_pvals_bitwise_matches_default(self):
        n = 8
        a = multinomial_occupancy(10_000, n, np.random.default_rng(5))
        b = multinomial_occupancy(
            10_000, n, np.random.default_rng(5), np.full(n, 1.0 / n)
        )
        assert np.array_equal(a, b)

    def test_same_law_as_perball_under_skew(self, rng):
        """Aggregate counts under pvals must match binned per-ball
        draws in law (KS on the hottest bin across trials)."""
        pvals = np.array([0.5, 0.3, 0.2])
        k, trials = 2000, 300
        agg = np.array(
            [multinomial_occupancy(k, 3, rng, pvals)[0] for _ in range(trials)]
        )
        per = np.array(
            [
                np.bincount(sample_choices(k, 3, rng, pvals), minlength=3)[0]
                for _ in range(trials)
            ]
        )
        _, pvalue = sps.ks_2samp(agg, per)
        assert pvalue > 1e-4

    def test_invalid_pvals_rejected(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            multinomial_occupancy(5, 2, rng, np.ones((2, 2)) / 4)


class TestGroupedAccept:
    def test_respects_capacity(self, rng):
        choices = rng.integers(0, 8, size=1000)
        capacity = rng.integers(0, 50, size=8)
        mask = grouped_accept(choices, capacity, rng)
        accepted_per_bin = np.bincount(choices[mask], minlength=8)
        assert np.all(accepted_per_bin <= capacity)

    def test_accepts_all_when_capacity_huge(self, rng):
        choices = rng.integers(0, 4, size=100)
        mask = grouped_accept(choices, np.full(4, 1000), rng)
        assert mask.all()

    def test_accepts_exactly_capacity_when_saturated(self, rng):
        choices = np.zeros(100, dtype=np.int64)
        mask = grouped_accept(choices, np.array([7]), rng)
        assert mask.sum() == 7

    def test_negative_capacity_treated_as_zero(self, rng):
        choices = np.zeros(10, dtype=np.int64)
        mask = grouped_accept(choices, np.array([-3]), rng)
        assert mask.sum() == 0

    def test_empty_input(self, rng):
        mask = grouped_accept(np.zeros(0, dtype=np.int64), np.array([1]), rng)
        assert mask.size == 0

    def test_out_of_range_target(self, rng):
        with pytest.raises(ValueError):
            grouped_accept(np.array([5]), np.array([1, 1]), rng)

    def test_uniform_selection_within_bin(self, rng):
        """Each requester of a saturated bin must win equally often."""
        trials = 3000
        wins = np.zeros(4)
        choices = np.zeros(4, dtype=np.int64)  # 4 requests to bin 0
        capacity = np.array([1])
        for _ in range(trials):
            mask = grouped_accept(choices, capacity, rng)
            wins[np.flatnonzero(mask)[0]] += 1
        expected = trials / 4
        chi2 = ((wins - expected) ** 2 / expected).sum()
        assert chi2 < 16.3  # 99.9th percentile, 3 dof

    def test_multiple_bins_independent(self, rng):
        choices = np.array([0, 0, 1, 1, 2])
        capacity = np.array([1, 2, 0])
        mask = grouped_accept(choices, capacity, rng)
        assert mask[:2].sum() == 1
        assert mask[2:4].sum() == 2
        assert not mask[4]


# ---------------------------------------------------------------------------
# The prepared sampler
# ---------------------------------------------------------------------------

FAMILIES = ("random", "zipf", "point", "decades", "zero_mass", "quarantined")


def _distribution(family: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A probability vector of one of the families the sampler must
    reproduce exactly: dense, power-law, a point mass, sixteen decades
    of dynamic range, and vectors with 30% zero-mass bins."""
    if family == "random":
        p = rng.random(n)
    elif family == "zipf":
        p = 1.0 / np.arange(1, n + 1) ** rng.uniform(0.5, 3.0)
    elif family == "point":
        p = np.zeros(n)
        p[rng.integers(n)] = 1.0
    elif family == "decades":
        p = 10.0 ** rng.uniform(-16.0, 0.0, size=n)
    else:
        p = rng.random(n) if family == "zero_mass" else np.ones(n)
        p[rng.random(n) < 0.3] = 0.0
        if not p.any():
            p[rng.integers(n)] = 1.0
    return p / p.sum()


def _historical(pvals, n: int, u: np.ndarray) -> np.ndarray:
    """The per-round inverse CDF the prepared sampler replaced."""
    cdf = np.cumsum(validate_pvals(pvals, n))
    cdf[-1] = 1.0
    return np.minimum(np.searchsorted(cdf, u, side="right"), n - 1)


def _edge_keys(cdf: np.ndarray, slots: int) -> np.ndarray:
    """Every CDF value and both its float neighbours, every guide slot
    edge ``j / G``, 0, and the largest double below 1 — the keys in
    ``[0, 1)`` where an off-by-one walk would show."""
    keys = np.concatenate([
        cdf,
        np.nextafter(cdf, 0.0),
        np.nextafter(cdf, 2.0),
        np.arange(slots) / slots,
        [0.0, np.nextafter(1.0, 0.0)],
    ])
    return keys[(keys >= 0.0) & (keys < 1.0)]


class TestChoiceSampler:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3, 7, 64, 256, 1000, 1024, 4097])
        | st.integers(1, 3000),
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 2**32 - 1),
        k=st.sampled_from(
            [0, 1, 100, _WALK_MIN_KEYS - 1, _WALK_MIN_KEYS, 4096]
        ),
    )
    def test_lookup_is_searchsorted_bit_for_bit(self, n, family, seed, k):
        rng = np.random.default_rng(seed)
        sampler = ChoiceSampler(_distribution(family, n, rng), n)
        cdf = sampler.cdf
        slots = 1 << (4 * n - 1).bit_length()
        edges = _edge_keys(cdf, slots)
        # Random keys at k (either side of the cut-over), the edge keys
        # below the cut-over, and the edge keys tiled past it (walked).
        for keys in (
            rng.random(k),
            edges[: _WALK_MIN_KEYS - 1],
            np.resize(edges, max(edges.size, _WALK_MIN_KEYS)),
        ):
            want = np.minimum(np.searchsorted(cdf, keys, side="right"), n - 1)
            got = sampler.lookup(keys)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [1, 3, 256, 4097])
    def test_guide_is_searchsorted_at_every_slot_edge(self, family, n):
        sampler = ChoiceSampler(
            _distribution(family, n, np.random.default_rng(n)), n
        )
        sampler.lookup(np.random.default_rng(0).random(_WALK_MIN_KEYS))
        guide = sampler._guide
        slots = guide.size
        assert slots >= 4 * n and slots & (slots - 1) == 0
        assert guide.dtype == np.int32
        want = np.searchsorted(sampler.cdf, np.arange(slots) / slots, "right")
        assert np.array_equal(guide, want)

    def test_guide_is_built_lazily_by_the_first_walk(self):
        sampler = ChoiceSampler(np.full(8, 0.125), 8)
        sampler.lookup(np.random.default_rng(0).random(_WALK_MIN_KEYS - 1))
        assert sampler._guide is None
        sampler.lookup(np.random.default_rng(0).random(_WALK_MIN_KEYS))
        assert sampler._guide is not None

    @pytest.mark.parametrize("k", [0, 7, _WALK_MIN_KEYS, 20_000])
    def test_draw_matches_the_historical_inverse_cdf(self, k):
        p = _distribution("zipf", 300, np.random.default_rng(1))
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        got = ChoiceSampler(p, 300).draw(k, a)
        assert got.dtype == np.int64
        assert np.array_equal(got, _historical(p, 300, b.random(k)))
        assert a.bit_generator.state == b.bit_generator.state

    def test_cumsum_overshoot_before_the_last_bin(self):
        """A cumsum can pass 1.0 before its last entry; ``cdf[-1]`` is
        then reset below its neighbour, and every key must still land on
        the first bin whose CDF exceeds it."""
        p = np.array([
            0.08518338021454445, 0.10645727032558917, 0.2390068211909096,
            0.13909794003535464, 0.06404392094806954, 0.05979133777598629,
            0.21972328785524944, 0.05588081259375994, 0.030815229060536818,
            0.0,
        ])
        sampler = ChoiceSampler(p, 10)
        assert sampler.cdf[-2] > sampler.cdf[-1] == 1.0
        keys = np.concatenate([
            np.resize(_edge_keys(sampler.cdf, 64), 4 * _WALK_MIN_KEYS),
            np.random.default_rng(0).random(10_000),
        ])
        want = np.minimum(
            np.searchsorted(sampler.cdf, keys, side="right"), 9
        )
        assert np.array_equal(sampler.lookup(keys), want)

    def test_owns_a_read_only_copy(self):
        src = _distribution("random", 64, np.random.default_rng(2))
        sampler = ChoiceSampler(src, 64)
        before = sampler.draw(5000, np.random.default_rng(3))
        src[:] = src[::-1].copy()
        after = sampler.draw(5000, np.random.default_rng(3))
        assert np.array_equal(before, after)
        with pytest.raises(ValueError, match="read-only"):
            sampler.p[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sampler.cdf[0] = 1.0

    def test_validates_like_validate_pvals(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ChoiceSampler(np.array([0.9, 0.3]), 2)
        with pytest.raises(ValueError, match="length"):
            ChoiceSampler(np.full(4, 0.25), 5)
        p = np.full(3, 1.0 / 3.0)
        assert np.array_equal(ChoiceSampler(p, 3).p, validate_pvals(p, 3))

    def test_prepare_choices(self):
        assert prepare_choices(None, 5) is None
        sampler = ChoiceSampler(np.full(5, 0.2), 5)
        assert prepare_choices(sampler, 5) is sampler
        with pytest.raises(ValueError, match="5 bins, expected 6"):
            prepare_choices(sampler, 6)
        fresh = prepare_choices(np.full(5, 0.2), 5)
        assert isinstance(fresh, ChoiceSampler) and fresh is not sampler


class TestPreparedEqualsRaw:
    """A raw vector and its prepared sampler give identical draws and
    leave the generator in the identical state, in every primitive."""

    N = 300
    P = _distribution("zipf", N, np.random.default_rng(11))

    def _both(self, call):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        raw = call(a, self.P)
        prepared = call(b, ChoiceSampler(self.P, self.N))
        assert np.array_equal(raw, prepared)
        assert a.bit_generator.state == b.bit_generator.state
        return raw

    @pytest.mark.parametrize("k", [0, 100, 5000])
    def test_sample_choices(self, k):
        self._both(lambda r, p: sample_choices(k, self.N, r, p))

    @pytest.mark.parametrize("chunk", [None, 700, 100])
    def test_fill_choices_chunked_narrow(self, chunk):
        out = self._both(
            lambda r, p: fill_choices(
                np.empty(5000, dtype=np.int16), self.N, r, p,
                chunk_size=chunk,
            )
        )
        whole = sample_choices(5000, self.N, np.random.default_rng(9), self.P)
        assert np.array_equal(out, whole)

    def test_multinomial_occupancy(self):
        self._both(lambda r, p: multinomial_occupancy(10**6, self.N, r, p))

    def test_multinomial_occupancy_batched(self):
        ks = np.array([1000, 0, 50_000, 7])
        active = np.array([True, True, True, False])
        pairs = [
            (np.random.default_rng(t), np.random.default_rng(t))
            for t in range(4)
        ]
        raw = multinomial_occupancy_batched(
            ks, self.N, [a for a, _ in pairs], self.P, active=active
        )
        prepared = multinomial_occupancy_batched(
            ks, self.N, [b for _, b in pairs],
            ChoiceSampler(self.P, self.N), active=active,
        )
        assert np.array_equal(raw, prepared)
        for a, b in pairs:
            assert a.bit_generator.state == b.bit_generator.state
