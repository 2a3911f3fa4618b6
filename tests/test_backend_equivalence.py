"""Backend equivalence gates (ISSUE-8): ``fused`` == ``reference``.

The pluggable kernel backend seam promises that the fused
counting-sort kernels are a pure reorganization of post-draw
computation: for any inputs, the ``fused`` backend returns
**bitwise-identical** results to the historical lexsort ``reference``
kernels.  These tests are that promise, at three levels:

* raw primitives (grouping, priority commit, scatters), pinned and
  hypothesis-randomized over instance size, capacity profile, and
  priority skew — including the adversarial edges the cutoff keys
  must survive (priorities at/above 1.0, the largest float below 1,
  duplicated priorities that split a bin at its cutoff, unsorted
  requester positions, zero capacity), sparse contention over large
  bin spaces, and the heavily loaded inputs that reach exact bucket
  selection (whole bins in one bucket, priorities on bucket edges,
  capacity at and just below the count, int32 choices);
* end-to-end runs: perball and aggregate granularities, trial-batched
  replication, residual ``initial_loads``, zipf+weighted workloads,
  dynamic churn, per-ball message counters;
* the selection machinery: ``use_backend`` context >
  ``REPRO_KERNEL_BACKEND`` env > the ``fused`` default, plus the CLI
  round-trip through the env var — and a pinned-seed regression
  proving the default flip changed no values.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.fastpath.backend as backend_module
from repro.fastpath.backend import (
    BACKEND_ENV_VAR,
    BACKENDS,
    DEFAULT_BACKEND,
    FusedBackend,
    ReferenceBackend,
    resolve_backend,
    scatter_counts,
    use_backend,
)
from repro.fastpath.roundstate import priority_commit_accept
from repro.fastpath.sampling import grouped_accept_with_priorities

REFERENCE = BACKENDS["reference"]
FUSED = BACKENDS["fused"]

COMMON = settings(
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)


def _instance(seed, k, n, cap_hi, skew, quantize):
    """One randomized grouping instance: skewed choices, a random
    capacity profile, and priorities with optional duplicate mass."""
    rng = np.random.default_rng(seed)
    if skew > 0:
        p = (1.0 + np.arange(n)) ** -skew
        p /= p.sum()
        choices = rng.choice(n, size=k, p=p)
    else:
        choices = rng.integers(0, n, size=k)
    capacity = rng.integers(0, cap_hi + 1, size=n)
    priorities = rng.random(k)
    if quantize:
        # Coarse quantization mass-produces exact duplicates — the
        # split repair must restore lexsort order.
        priorities = np.round(priorities, 2)
    return choices.astype(np.int64), capacity.astype(np.int64), priorities


class TestGroupingPrimitive:
    @COMMON
    @given(
        seed=st.integers(0, 2**31),
        k=st.integers(0, 3000),
        n=st.integers(1, 200),
        cap_hi=st.integers(0, 60),
        skew=st.floats(0.0, 2.0),
        quantize=st.booleans(),
    )
    def test_fused_matches_reference(self, seed, k, n, cap_hi, skew, quantize):
        choices, capacity, priorities = _instance(
            seed, k, n, cap_hi, skew, quantize
        )
        ref = REFERENCE.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        fus = FUSED.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        np.testing.assert_array_equal(ref, fus)

    @COMMON
    @given(
        seed=st.integers(0, 2**31),
        k=st.integers(0, 3000),
        n=st.integers(1, 200),
        cap_hi=st.integers(0, 60),
        skew=st.floats(0.0, 2.0),
    )
    def test_request_counts_are_handed_over(self, seed, k, n, cap_hi, skew):
        """``return_counts``: the fused grouping hands over the per-bin
        request counts it computed (also through the profiling
        wrapper); the reference has none.  The mask is unchanged, and
        each bin accepts ``min(count, capacity)``."""
        from repro import Telemetry
        from repro.fastpath.backend import ProfilingBackend

        choices, capacity, priorities = _instance(
            seed, k, n, cap_hi, skew, False
        )
        mask = REFERENCE.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        ref_mask, ref_counts = REFERENCE.grouped_accept_with_priorities(
            choices, capacity, priorities, return_counts=True
        )
        assert ref_counts is None
        np.testing.assert_array_equal(ref_mask, mask)
        profiled = ProfilingBackend(FUSED, Telemetry())
        for backend in (FUSED, profiled):
            fus_mask, counts = backend.grouped_accept_with_priorities(
                choices, capacity, priorities, return_counts=True
            )
            np.testing.assert_array_equal(fus_mask, mask)
            np.testing.assert_array_equal(
                counts, np.bincount(choices, minlength=n)
            )
        np.testing.assert_array_equal(
            np.bincount(choices[mask], minlength=n),
            np.minimum(counts, capacity),
        )

    def test_priorities_at_one_take_the_fallback(self):
        # Cutoff keys order priorities in [0, 1) only: p = 1.0 must
        # take the exact fallback and still match reference.
        choices = np.array([0, 0, 0, 1, 1], dtype=np.int64)
        capacity = np.array([1, 1], dtype=np.int64)
        priorities = np.array([1.0, 0.5, 0.0, 1.0, 1.0])
        ref = REFERENCE.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        fus = FUSED.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        np.testing.assert_array_equal(ref, fus)

    def test_rounds_up_to_2_32_edge_float(self):
        # 1 - 2**-53, the largest float in [0, 1), must sort last in
        # its bin, its two copies tied.
        edge = 1.0 - 2.0**-53
        choices = np.zeros(4, dtype=np.int64)
        capacity = np.array([2], dtype=np.int64)
        priorities = np.array([edge, 0.25, edge, 0.75])
        ref = REFERENCE.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        fus = FUSED.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        np.testing.assert_array_equal(ref, fus)

    def test_empty_and_zero_capacity(self):
        empty = np.array([], dtype=np.int64)
        cap = np.array([3, 0], dtype=np.int64)
        for backend in (REFERENCE, FUSED):
            out = backend.grouped_accept_with_priorities(
                empty, cap, np.array([])
            )
            assert out.size == 0
        choices = np.array([1, 1, 0], dtype=np.int64)
        zero_cap = np.zeros(2, dtype=np.int64)
        ref = REFERENCE.grouped_accept_with_priorities(
            choices, zero_cap, np.array([0.1, 0.2, 0.3])
        )
        fus = FUSED.grouped_accept_with_priorities(
            choices, zero_cap, np.array([0.1, 0.2, 0.3])
        )
        np.testing.assert_array_equal(ref, fus)
        assert not fus.any()

    def test_public_wrapper_dispatches_explicit_backend(self):
        choices, capacity, priorities = _instance(5, 500, 32, 20, 1.1, False)
        with use_backend("reference"):
            ref = grouped_accept_with_priorities(
                choices, capacity, priorities
            )
        np.testing.assert_array_equal(
            ref, REFERENCE.grouped_accept_with_priorities(
                choices, capacity, priorities
            ),
        )
        with use_backend("fused"):
            fus = grouped_accept_with_priorities(
                choices, capacity, priorities
            )
        np.testing.assert_array_equal(ref, fus)


def _expected_buckets(choices, capacity):
    """The bucket count the fused sizing rule picks: ``2**floor(log2(
    c / 4n))`` for ``c`` contended requests, 0 below 8 buckets."""
    n = capacity.size
    counts = np.bincount(choices, minlength=n)
    contended = (counts > capacity) & (capacity > 0)
    cells = int(counts[contended].sum()) // (4 * n)
    return 1 << (cells.bit_length() - 1) if cells >= 8 else 0


@pytest.fixture
def bucket_calls(monkeypatch):
    """The ``buckets`` argument of every exact bucket selection the
    fused backend runs."""
    calls = []
    original = FusedBackend._bucketed_accept

    def spy(self, choices, priorities, capacity, contended, buckets):
        calls.append(buckets)
        return original(
            self, choices, priorities, capacity, contended, buckets
        )

    monkeypatch.setattr(FusedBackend, "_bucketed_accept", spy)
    return calls


def _contended_capacity(rng, choices, n):
    """A capacity in ``[1, count - 1]`` for every bin with two or more
    requests: every such bin is contended."""
    counts = np.bincount(choices, minlength=n)
    return rng.integers(1, np.maximum(counts, 2)).astype(np.int64)


class TestBucketedSelection:
    """Exact bucket selection (many contended requests per bin) equals
    the reference lexsort bitwise, on the inputs that stress it."""

    def _check(self, calls, choices, capacity, priorities):
        buckets = _expected_buckets(choices, capacity)
        assert buckets >= 8, "instance must reach bucket selection"
        calls.clear()
        ref = REFERENCE.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        fus = FUSED.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        np.testing.assert_array_equal(ref, fus)
        assert calls == [buckets]

    def test_all_equal_priorities_rank_by_index(self, bucket_calls):
        # One bucket holds each whole bin: the boundary ranking decides
        # by original index alone.
        n, k = 4, 4096
        choices = np.arange(k, dtype=np.int64) % n
        capacity = np.array([1, 100, 512, 1023], dtype=np.int64)
        self._check(bucket_calls, choices, capacity, np.full(k, 0.375))

    def test_priorities_on_bucket_edges(self, bucket_calls):
        rng = np.random.default_rng(21)
        n, k = 8, 16_000
        choices = rng.integers(0, n, size=k)
        capacity = _contended_capacity(rng, choices, n)
        buckets = _expected_buckets(choices, capacity)
        for scale in (buckets // 4, buckets, 2 * buckets):
            priorities = rng.integers(0, scale, size=k) / scale
            self._check(bucket_calls, choices, capacity, priorities)

    def test_mass_at_one_minus_2_53(self, bucket_calls):
        # The float whose * 2**32 rounds up to 2**32 lands in the last
        # bucket; capacity close to the count puts the boundary there.
        rng = np.random.default_rng(22)
        n, k = 8, 8192
        choices = rng.integers(0, n, size=k)
        priorities = np.where(
            rng.random(k) < 0.5, 1.0 - 2.0**-53, rng.random(k)
        )
        counts = np.bincount(choices, minlength=n)
        capacity = counts - rng.integers(1, counts // 4)
        self._check(bucket_calls, choices, capacity, priorities)

    def test_capacity_equal_to_count_and_one_below(self, bucket_calls):
        rng = np.random.default_rng(23)
        n, k = 16, 10_000
        choices = rng.integers(0, n, size=k)
        counts = np.bincount(choices, minlength=n)
        capacity = np.where(np.arange(n) % 2 == 0, counts, counts - 1)
        self._check(bucket_calls, choices, capacity, rng.random(k))

    def test_capacity_one(self, bucket_calls):
        rng = np.random.default_rng(24)
        n, k = 8, 8192
        choices = rng.integers(0, n, size=k)
        capacity = np.ones(n, dtype=np.int64)
        self._check(bucket_calls, choices, capacity, rng.random(k))

    def test_one_hot_bin_among_empty_ones(self, bucket_calls):
        rng = np.random.default_rng(25)
        n, k = 1000, 40_000
        choices = np.full(k, 417, dtype=np.int64)
        capacity = rng.integers(0, 50, size=n)
        capacity[417] = 12_345
        self._check(bucket_calls, choices, capacity, rng.random(k))

    def test_int32_choices_under_narrow_policy(self, bucket_calls):
        from repro.fastpath import narrow_dtypes

        rng = np.random.default_rng(26)
        n, k = 64, 50_000
        index_dtype, load_dtype = narrow_dtypes(k, n)
        choices = rng.integers(0, n, size=k).astype(index_dtype)
        assert choices.dtype == np.int32
        capacity = _contended_capacity(rng, choices, n).astype(load_dtype)
        self._check(bucket_calls, choices, capacity, rng.random(k))

    def test_out_of_range_priority_skips_the_buckets(self, bucket_calls):
        # The bucket index only covers [0, 1): one priority at 1.0
        # routes the whole call through the exact fallbacks.
        rng = np.random.default_rng(27)
        n, k = 8, 8192
        choices = rng.integers(0, n, size=k)
        capacity = _contended_capacity(rng, choices, n)
        priorities = rng.random(k)
        priorities[17] = 1.0
        assert _expected_buckets(choices, capacity) >= 8
        ref = REFERENCE.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        fus = FUSED.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        np.testing.assert_array_equal(ref, fus)
        assert bucket_calls == []

    @settings(
        deadline=None,
        max_examples=12,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        seed=st.integers(0, 2**31),
        k=st.integers(2_000, 200_000),
        per_bin=st.integers(16, 512),
        skew=st.floats(0.0, 1.5),
        quantize=st.booleans(),
        narrow=st.booleans(),
    )
    def test_sweep_matches_reference(
        self, bucket_calls, seed, k, per_bin, skew, quantize, narrow
    ):
        n = max(1, k // per_bin)
        choices, _, priorities = _instance(seed, k, n, 0, skew, False)
        if quantize:
            # Duplicate mass that stays inside [0, 1).
            priorities = np.floor(priorities * 100) / 100
        rng = np.random.default_rng(seed + 1)
        capacity = _contended_capacity(rng, choices, n)
        # Some bins full, some at zero capacity.
        capacity[rng.random(n) < 0.1] = 0
        full = rng.random(n) < 0.1
        capacity[full] = np.bincount(choices, minlength=n)[full]
        if narrow:
            choices = choices.astype(np.int32)
            capacity = capacity.astype(np.int32)
        bucket_calls.clear()
        ref = REFERENCE.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        fus = FUSED.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        np.testing.assert_array_equal(ref, fus)
        buckets = _expected_buckets(choices, capacity)
        assert bucket_calls == ([buckets] if buckets else [])

    def test_heavy_first_round_ranks_only_boundary_buckets(
        self, monkeypatch
    ):
        # The equivalence tests would all still pass if grouping fell
        # back to ranking every contended request; this pins the work
        # bucket selection saves on heavy's first round, where each
        # of the m balls sends one request.
        ranked = []
        original = backend_module._cutoff_accept

        def spy(bins, *args):
            ranked.append(bins.size)
            return original(bins, *args)

        monkeypatch.setattr(backend_module, "_cutoff_accept", spy)
        m = 10**5
        with use_backend("fused"):
            repro.allocate("heavy", m, 256, mode="perball", seed=0)
        assert ranked and ranked[0] < 0.05 * m


@pytest.fixture
def cutoff_calls(monkeypatch):
    """``(entries, bin space, listed bins or None)`` of every cutoff
    selection the fused backend runs."""
    calls = []
    original = backend_module._cutoff_accept

    def spy(bins, priorities, take, counts, listed=None):
        calls.append((bins.size, take.size, listed))
        return original(bins, priorities, take, counts, listed)

    monkeypatch.setattr(backend_module, "_cutoff_accept", spy)
    return calls


@pytest.fixture
def repairs(monkeypatch):
    """The bins handed to every in-order ranking (the reference
    grouping's and the split repair's)."""
    calls = []
    original = backend_module._accept_in_order

    def spy(bins, order, capacity):
        calls.append(bins.copy())
        return original(bins, order, capacity)

    monkeypatch.setattr(backend_module, "_accept_in_order", spy)
    return calls


def _sub_bucket_instance(seed, k, n, sparse, zero_frac, contended_frac,
                         prio_kind, narrow):
    """A grouping below the bucket cut-over (``k < 32 n``): capacities
    mix zero, full and contended bins; ``sparse`` aims every request at
    one bin in 25, the shape of a trial-batched composite space."""
    rng = np.random.default_rng(seed)
    if sparse:
        hot = rng.choice(n, size=max(1, n // 25), replace=False)
        choices = hot[rng.integers(0, hot.size, size=k)]
    else:
        choices = rng.integers(0, n, size=k)
    counts = np.bincount(choices, minlength=n)
    capacity = counts.copy()
    contended = (rng.random(n) < contended_frac) & (counts >= 2)
    capacity[contended] = rng.integers(1, np.maximum(counts, 2))[contended]
    capacity[rng.random(n) < zero_frac] = 0
    priorities = rng.random(k)
    if prio_kind == "quantized":
        priorities = np.floor(priorities * 100) / 100
    elif prio_kind == "equal":
        priorities = np.full(k, 0.625)
    elif prio_kind == "edges":
        # The smallest and the largest priorities the key must order,
        # with duplicate mass at both.
        edge = rng.random(k)
        priorities[edge < 0.3] = -0.0
        priorities[edge > 0.7] = np.nextafter(1.0, 0.0)
    if narrow:
        choices = choices.astype(np.int32)
        capacity = capacity.astype(np.int32)
    return choices, capacity, priorities


class TestCutoffSelection:
    """Cutoff selection (contended bins below the bucket cut-over)
    equals the reference lexsort bitwise: one value sort, one cutoff
    key per bin, and the exact repair for split bins."""

    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        seed=st.integers(0, 2**31),
        k=st.integers(1, 20_000),
        n=st.integers(1, 40_000),
        sparse=st.booleans(),
        zero_frac=st.sampled_from([0.0, 0.05, 0.3]),
        contended_frac=st.sampled_from([0.02, 0.3, 1.0]),
        prio_kind=st.sampled_from(["random", "quantized", "equal", "edges"]),
        narrow=st.booleans(),
    )
    def test_sweep_matches_reference(
        self, cutoff_calls, bucket_calls, seed, k, n, sparse, zero_frac,
        contended_frac, prio_kind, narrow,
    ):
        k = min(k, 32 * n - 1)
        choices, capacity, priorities = _sub_bucket_instance(
            seed, k, n, sparse, zero_frac, contended_frac, prio_kind, narrow
        )
        ref = REFERENCE.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        cutoff_calls.clear()
        fus = FUSED.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        np.testing.assert_array_equal(ref, fus)
        assert bucket_calls == []
        counts = np.bincount(choices, minlength=n)
        contended = (counts > capacity) & (capacity > 0)
        assert len(cutoff_calls) == int(contended.any())

    @pytest.mark.parametrize("filler", [0, 40])
    def test_split_bin_is_repaired(self, repairs, filler):
        # Bin 1 takes 2 of priorities [0.5, 0.25, 0.5, 0.75]: its cutoff
        # key 2.5 is shared by the next key, so ``key <= cutoff`` alone
        # would accept three.  Bin 0 is contended but not split.  The
        # ``filler`` requests to a full bin 2 move the contended share
        # below half the round, onto the gathered subset.
        choices = np.array([1, 1, 0, 1, 0, 1, 0] + [2] * filler)
        priorities = np.concatenate((
            [0.5, 0.25, 0.9, 0.5, 0.1, 0.75, 0.3],
            np.linspace(0.0, 0.99, filler),
        ))
        capacity = np.array([2, 2, filler])
        ref = REFERENCE.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        repairs.clear()
        fus = FUSED.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        np.testing.assert_array_equal(ref, fus)
        np.testing.assert_array_equal(
            fus[:7], [True, True, False, False, True, False, True]
        )
        assert [b.tolist() for b in repairs] == [[1, 1, 1, 1]]

    def test_cutoff_is_the_last_accepted_key(self, repairs):
        # Distinct priorities: no bin is split and nothing is ranked.
        rng = np.random.default_rng(31)
        n, k = 64, 1500
        choices = rng.integers(0, n, size=k)
        capacity = _contended_capacity(rng, choices, n)
        priorities = rng.permutation(k) / k
        ref = REFERENCE.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        repairs.clear()
        fus = FUSED.grouped_accept_with_priorities(
            choices, capacity, priorities
        )
        np.testing.assert_array_equal(ref, fus)
        assert repairs == []
        np.testing.assert_array_equal(
            np.bincount(choices[fus], minlength=n),
            np.minimum(np.bincount(choices, minlength=n), capacity),
        )

    def test_trial_batched_light_shape(self, cutoff_calls):
        # Trial-batched A_light groups over one composite bin space for
        # all trials, in which a few percent of the bins are contended.
        kwargs = dict(trials=64, seed=5)
        with use_backend("reference"):
            ref = repro.replicate("heavy", 10**5, 256, **kwargs)
        cutoff_calls.clear()
        with use_backend("fused"):
            fus = repro.replicate("heavy", 10**5, 256, **kwargs)
        np.testing.assert_array_equal(ref.loads, fus.loads)
        np.testing.assert_array_equal(ref.rounds, fus.rounds)
        np.testing.assert_array_equal(ref.total_messages, fus.total_messages)
        sparse = [
            space for _, space, listed in cutoff_calls
            if space >= 64 * 256 and listed is not None
            and listed.size <= 0.1 * space
        ]
        assert sparse, "no sparse grouping over a composite space"


class TestCommitPrimitive:
    @COMMON
    @given(
        seed=st.integers(0, 2**31),
        u=st.integers(1, 800),
        d=st.integers(1, 4),
        n=st.integers(1, 100),
        cap_hi=st.integers(0, 40),
        quantize=st.booleans(),
    )
    def test_fused_matches_reference(self, seed, u, d, n, cap_hi, quantize):
        rng = np.random.default_rng(seed)
        k = u * d
        choices = rng.integers(0, n, size=k)
        marks = rng.random(k)
        if quantize:
            marks = np.round(marks, 2)
        requester_pos = np.repeat(np.arange(u, dtype=np.int64), d)
        capacity = rng.integers(0, cap_hi + 1, size=n)
        ref = REFERENCE.priority_commit_accept(
            choices, marks, requester_pos, u, capacity
        )
        fus = FUSED.priority_commit_accept(
            choices, marks, requester_pos, u, capacity
        )
        np.testing.assert_array_equal(ref[0], fus[0])
        np.testing.assert_array_equal(ref[1], fus[1])

    def test_unsorted_requesters_take_the_fallback(self):
        # The kernels always present ball-major requester positions,
        # but the primitive is public: a shuffled layout must still
        # match reference exactly (fused falls back to the lexsort).
        rng = np.random.default_rng(11)
        k, u, n = 600, 300, 16
        choices = rng.integers(0, n, size=k)
        marks = rng.random(k)
        requester_pos = rng.permutation(np.repeat(np.arange(u), 2))
        capacity = rng.integers(0, 30, size=n)
        ref = REFERENCE.priority_commit_accept(
            choices, marks, requester_pos, u, capacity
        )
        fus = FUSED.priority_commit_accept(
            choices, marks, requester_pos, u, capacity
        )
        np.testing.assert_array_equal(ref[0], fus[0])
        np.testing.assert_array_equal(ref[1], fus[1])

    def test_module_function_is_backend_dispatched(self):
        rng = np.random.default_rng(3)
        choices = rng.integers(0, 8, size=40)
        marks = rng.random(40)
        pos = np.repeat(np.arange(20, dtype=np.int64), 2)
        cap = np.full(8, 2, dtype=np.int64)
        with use_backend("reference"):
            ref = priority_commit_accept(choices, marks, pos, 20, cap)
        with use_backend("fused"):
            fus = priority_commit_accept(choices, marks, pos, 20, cap)
        expected = REFERENCE.priority_commit_accept(
            choices, marks, pos, 20, cap
        )
        np.testing.assert_array_equal(ref[0], expected[0])
        np.testing.assert_array_equal(ref[1], expected[1])
        np.testing.assert_array_equal(ref[0], fus[0])
        np.testing.assert_array_equal(ref[1], fus[1])


class TestScatterPrimitives:
    @pytest.mark.parametrize("k,n", [(0, 4), (3, 1000), (5000, 64), (512, 4096)])
    def test_scatter_counts_dense_and_sparse(self, k, n):
        # k >= n/8 takes the fused bincount path, below it add.at —
        # both must equal the reference exactly (integer associativity).
        rng = np.random.default_rng(k + n)
        indices = rng.integers(0, n, size=k)
        ref = np.zeros(n, dtype=np.int64)
        fus = np.zeros(n, dtype=np.int64)
        REFERENCE.scatter_counts(ref, indices)
        FUSED.scatter_counts(fus, indices)
        np.testing.assert_array_equal(ref, fus)

    def test_scatter_weights_keeps_add_at_order(self):
        # Float scatters are the documented exception: both backends
        # must produce the *identical float result*, which pins them to
        # the same accumulation order.
        rng = np.random.default_rng(0)
        indices = rng.integers(0, 32, size=4000)
        weights = rng.random(4000)
        ref = np.zeros(32)
        fus = np.zeros(32)
        REFERENCE.scatter_weights(ref, indices, weights)
        FUSED.scatter_weights(fus, indices, weights)
        np.testing.assert_array_equal(ref, fus)

    def test_module_level_helpers_dispatch(self):
        rng = np.random.default_rng(1)
        indices = rng.integers(0, 16, size=200)
        a = np.zeros(16, dtype=np.int64)
        b = np.zeros(16, dtype=np.int64)
        with use_backend("reference"):
            scatter_counts(a, indices)
        with use_backend("fused"):
            scatter_counts(b, indices)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, np.bincount(indices, minlength=16))


def _run_pair(name, m, n, **kwargs):
    with use_backend("reference"):
        ref = repro.allocate(name, m, n, **kwargs)
    with use_backend("fused"):
        fus = repro.allocate(name, m, n, **kwargs)
    return ref, fus


def _assert_identical(ref, fus):
    np.testing.assert_array_equal(ref.loads, fus.loads)
    assert ref.max_load == fus.max_load
    assert ref.gap == fus.gap
    assert ref.rounds == fus.rounds
    assert ref.total_messages == fus.total_messages
    assert ref.complete == fus.complete


class TestEndToEndEquivalence:
    @pytest.mark.parametrize(
        "name,mode",
        [
            ("heavy", "perball"),
            ("heavy", "aggregate"),
            ("combined", "perball"),
            ("combined", "aggregate"),
            ("asymmetric", "perball"),
            ("asymmetric", "aggregate"),
            ("single", "perball"),
            ("single", "aggregate"),
            ("stemann", "perball"),
            ("stemann", "aggregate"),
            ("trivial", None),
            ("batched", None),
        ],
    )
    def test_granularities(self, name, mode):
        kwargs = {"seed": 3}
        if mode is not None:
            kwargs["mode"] = mode
        ref, fus = _run_pair(name, 20_000, 64, **kwargs)
        _assert_identical(ref, fus)

    def test_zipf_weighted_workload(self):
        ref, fus = _run_pair(
            "heavy", 20_000, 64, seed=5,
            workload="zipf:1.1+geomw:0.5+propcap",
        )
        _assert_identical(ref, fus)
        # Weighted statistics are float accumulations — bitwise
        # equality here is what the scatter_weights exception buys.
        assert (
            ref.extra["workload"]["weighted_gap"]
            == fus.extra["workload"]["weighted_gap"]
        )
        assert (
            ref.extra["workload"]["weighted_max_load"]
            == fus.extra["workload"]["weighted_max_load"]
        )

    def test_initial_loads_residual_start(self):
        # Residual occupancy is the dynamic subsystem's entry point
        # (run_heavy(initial_loads=...), below the registry's option
        # surface).
        from repro.core.heavy import dynamic_heavy

        initial = np.random.default_rng(8).integers(
            0, 50, size=64
        ).astype(np.int64)
        with use_backend("reference"):
            ref = dynamic_heavy(
                10_000, 64, initial_loads=initial, seed=9, mode="perball"
            )
        with use_backend("fused"):
            fus = dynamic_heavy(
                10_000, 64, initial_loads=initial, seed=9, mode="perball"
            )
        np.testing.assert_array_equal(ref.loads, fus.loads)
        assert ref.unallocated == fus.unallocated
        assert ref.rounds == fus.rounds
        assert ref.total_messages == fus.total_messages

    def test_per_ball_message_counters(self):
        ref, fus = _run_pair("heavy", 10_000, 64, seed=4, mode="perball")
        np.testing.assert_array_equal(
            ref.messages.ball_sent, fus.messages.ball_sent
        )
        np.testing.assert_array_equal(
            ref.messages.ball_received, fus.messages.ball_received
        )
        np.testing.assert_array_equal(
            ref.messages.bin_received, fus.messages.bin_received
        )
        np.testing.assert_array_equal(
            ref.messages.bin_sent, fus.messages.bin_sent
        )

    def test_trial_batched_replication(self):
        with use_backend("reference"):
            ref = repro.replicate("heavy", 20_000, 64, trials=8, seed=0)
        with use_backend("fused"):
            fus = repro.replicate("heavy", 20_000, 64, trials=8, seed=0)
        np.testing.assert_array_equal(ref.loads, fus.loads)
        np.testing.assert_array_equal(ref.gaps, fus.gaps)
        np.testing.assert_array_equal(
            ref.total_messages, fus.total_messages
        )

    def test_replicate_backend_argument(self):
        # The pin rides the sequential process-pool path too, and
        # equals the default fused run.
        with use_backend("reference"):
            pinned = repro.replicate(
                "heavy", 10_000, 64, trials=4, seed=1, trial_batched=False,
                workers=2,
            )
        default = repro.replicate("heavy", 10_000, 64, trials=4, seed=1)
        np.testing.assert_array_equal(pinned.loads, default.loads)

    def test_dynamic_churn(self):
        with use_backend("reference"):
            ref = repro.run_dynamic("heavy", 10_000, 64, seed=2, epochs=3)
        with use_backend("fused"):
            fus = repro.run_dynamic("heavy", 10_000, 64, seed=2, epochs=3)
        np.testing.assert_array_equal(ref.gaps, fus.gaps)
        np.testing.assert_array_equal(ref.loads, fus.loads)
        assert ref.churn_messages == fus.churn_messages


class TestSelectionMachinery:
    def test_registry_lists_both(self):
        assert sorted(BACKENDS) == ["fused", "reference"]
        assert DEFAULT_BACKEND == "fused"
        for name, cls in (("fused", FusedBackend),
                          ("reference", ReferenceBackend)):
            with use_backend(name) as backend:
                assert type(backend) is cls and backend is BACKENDS[name]
        # fused inherits reference: the fallback *is* the specification.
        assert isinstance(FUSED, ReferenceBackend)

    def test_default_resolution(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend().name == DEFAULT_BACKEND

    def test_env_round_trip(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert resolve_backend().name == "reference"
        res = repro.allocate("heavy", 2_000, 16, seed=0)
        assert res.extra["api"]["backend"] == "reference"

    def test_context_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fused")
        with use_backend("reference"):
            assert resolve_backend().name == "reference"
            res = repro.allocate("heavy", 2_000, 16, seed=0)
            assert res.extra["api"]["backend"] == "reference"
        assert resolve_backend().name == "fused"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            with use_backend("turbo"):
                pass
        assert resolve_backend().name in BACKENDS

    @pytest.mark.parametrize("entry", [
        lambda: repro.allocate("heavy", 2_000, 16, backend="fused"),
        lambda: repro.replicate("heavy", 2_000, 16, trials=2,
                                backend="fused"),
        lambda: repro.run_dynamic("heavy", 2_000, 16, epochs=1,
                                  backend="fused"),
        lambda: repro.AllocatorService("heavy", 16, backend="fused"),
    ], ids=["allocate", "replicate", "run_dynamic", "service"])
    def test_backend_keyword_is_an_unknown_option(self, entry):
        # A use_backend pin is the one selector: the entry points
        # reject backend= like any other unknown option.
        with pytest.raises(ValueError, match="unknown .*option.*'backend'"):
            entry()

    def test_env_invalid_name_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend()

    def test_cli_backend_round_trip(self, capsys, monkeypatch):
        from repro.__main__ import main

        argv = ["heavy", "--m", "2000", "--n", "16", "--seed", "0"]
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert main(argv) == 0
        ref_out = capsys.readouterr().out
        monkeypatch.setenv(BACKEND_ENV_VAR, "fused")
        assert main(argv) == 0
        fus_out = capsys.readouterr().out

        def results(out):
            # The wall-time line is a measurement, not a result.
            return [
                line for line in out.splitlines()
                if not line.startswith("wall time")
            ]

        # Identical describe() blocks: the backend changes nothing
        # observable but wall clock.
        assert "wall time" in ref_out and "wall time" in fus_out
        assert results(ref_out) == results(fus_out)
        assert len(results(ref_out)) == len(ref_out.splitlines()) - 1

    def test_cli_rejects_unknown_backend(self, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv(BACKEND_ENV_VAR, "turbo")
        with pytest.raises(ValueError, match="unknown kernel backend"):
            main(["heavy", "--m", "100", "--n", "8"])


class TestKernelMicrobench:
    """The kernel_profile microbenchmark: timings carry a proof."""

    def test_records_cover_every_primitive(self):
        from repro.api.bench import KERNEL_COLUMNS, benchmark_kernels, render

        records = benchmark_kernels(
            4_000, 32, seed=0, repeats=1, end_to_end_m=2_000
        )
        kernels = {(r["kernel"], r["variant"]) for r in records}
        assert kernels == {
            ("grouped_accept", "contended"),
            ("grouped_accept", "uncontended"),
            ("priority_commit", "degree-2"),
            ("scatter_counts", "dense"),
            ("end_to_end", "heavy perball"),
        }
        for r in records:
            assert r["bitwise_equal"]
            assert r["reference_seconds"] >= 0 and r["fused_seconds"] >= 0
            assert r["speedup"] > 0
        table = render(records, KERNEL_COLUMNS)
        assert "grouped_accept" in table and "speedup" in table

    def test_end_to_end_leg_is_optional(self):
        from repro.api.bench import benchmark_kernels

        records = benchmark_kernels(2_000, 16, seed=1, repeats=1)
        assert not any(r["kernel"] == "end_to_end" for r in records)

    def test_mismatch_raises_instead_of_recording(self, monkeypatch):
        from repro.api.bench import benchmark_kernels
        from repro.fastpath import backend as backend_mod

        class Broken(FusedBackend):
            def grouped_accept_with_priorities(
                self, choices, capacity, priorities
            ):
                out = super().grouped_accept_with_priorities(
                    choices, capacity, priorities
                )
                if out.size:
                    out[0] = ~out[0]
                return out

        monkeypatch.setitem(backend_mod.BACKENDS, "fused", Broken())
        with pytest.raises(RuntimeError, match="kernel backend mismatch"):
            benchmark_kernels(1_000, 16, seed=0, repeats=1)


class TestPinnedRegression:
    """The default-backend flip changed no values: the fused default
    reproduces the exact pre-PR reference output on a pinned seed."""

    PIN = {
        "max_load": 394,
        "gap": 3.375,
        "rounds": 9,
        "total_messages": 222357,
        "loads_crc32": 1248431448,
    }

    def _check(self, res):
        assert res.max_load == self.PIN["max_load"]
        assert res.gap == self.PIN["gap"]
        assert res.rounds == self.PIN["rounds"]
        assert res.total_messages == self.PIN["total_messages"]
        crc = zlib.crc32(np.ascontiguousarray(res.loads).tobytes())
        assert crc == self.PIN["loads_crc32"]

    def test_fused_default_matches_historical_reference(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        res = repro.allocate("heavy", 100_000, 256, seed=7)
        assert res.extra["api"]["backend"] == "fused"
        self._check(res)

    def test_reference_backend_reproduces_the_same_pin(self):
        with use_backend("reference"):
            res = repro.allocate("heavy", 100_000, 256, seed=7)
        assert res.extra["api"]["backend"] == "reference"
        self._check(res)


def _crc(values) -> int:
    return zlib.crc32(np.ascontiguousarray(values, dtype="<i8").tobytes())


class TestMessageCounterPins:
    """Loads, total messages and every per-ball/per-bin message tally,
    pinned on both backends to the values recorded before the ball
    tallies became commit rounds and the fused grouping's per-bin
    counts began to feed loads and bin tallies.  ``dchoice`` (``d > 1``),
    ``faulty`` (a ``delivered`` mask, crashes) and ``asymmetric``
    (``target_bins``) are the rounds that must not take the handover.

    Rows: loads crc32, total messages, then (counted runs only) crc32 of
    ``ball_sent``, ``ball_received``, ``bin_sent``, ``bin_received``,
    the counter's ``total`` and the crc32 of its ``to_dict`` JSON.
    """

    HEAVY = [3995168292, 44937, 2516795114, 396494920, 1605886346,
             1653901530, 44937, 328005479]
    CASES = [
        ("heavy", 20_000, 64, dict(seed=0), HEAVY),
        ("heavy", 200_000, 256, dict(seed=2),
         [2453987744, 432166, 263436445, 1514113770, 2107860596,
          2027759318, 432166, 1752862205]),
        ("heavy", 20_000, 64, dict(seed=0, chunk_size=1000), HEAVY),
        ("heavy", 20_000, 64, dict(seed=1, workload="zipf:1.1+geomw:0.5"),
         [3111780844, 91017, 1044941362, 11849067, 3245988707, 3986674632,
          91017, 4201899827]),
        ("single", 20_000, 64, dict(seed=0),
         [1053087530, 20000, 2965932597, 670107693, 2997515640, 1053087530,
          20000, 1568454284]),
        ("asymmetric", 20_000, 64, dict(seed=0),
         [404030948, 48191, 683850821, 2965932597, 2532153715, 2666023970,
          48191, 3338752680]),
        ("combined", 20_000, 64, dict(seed=0), HEAVY),
        ("dchoice", 20_000, 64, dict(seed=0), [3355892822, 6320778]),
        ("faulty", 20_000, 64,
         dict(seed=0, crash_prob=0.05, loss_prob=0.05),
         [3731366069, 40762]),
    ]

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    @pytest.mark.parametrize(
        "name,m,n,kwargs,pin", CASES,
        ids=[f"{c[0]}-{c[1]}-{'-'.join(map(str, c[3].values()))}"
             for c in CASES],
    )
    def test_pinned(self, backend, name, m, n, kwargs, pin):
        import json

        mode = {} if name in ("dchoice", "faulty") else {"mode": "perball"}
        with use_backend(backend):
            res = repro.allocate(name, m, n, **mode, **kwargs)
        row = [_crc(res.loads), int(res.total_messages)]
        c = res.messages
        if c is not None:
            row += [
                _crc(c.ball_sent), _crc(c.ball_received), _crc(c.bin_sent),
                _crc(c.bin_received), int(c.total),
                zlib.crc32(json.dumps(res.to_dict()["messages"]).encode()),
            ]
        assert row == pin
