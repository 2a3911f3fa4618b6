"""Micro-benchmarks of the vectorized kernels and algorithm hot paths.

These time the primitives the HPC guides direct us to optimize:
whole-array sampling, the grouped-accept lexsort kernel, the multinomial
aggregate round, the shared :class:`RoundState` round-step kernels, and
end-to-end algorithm runs at the two granularities.  They guard against
performance regressions (the per-round kernels are what caps the
feasible ``m``), and ``TestKernelVsEngine`` pins the headline claim:
the kernel backends beat the object-level agent engine by far more than
the required 5x at ``m = 10^6``.

``python benchmarks/run_benchmarks.py --scale full --out .`` writes the
pinned-seed JSON trajectory (``BENCH_kernels.json``); without ``--out``
the runner only prints its tables and bars.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.baselines import run_single_choice
from repro.core import run_asymmetric, run_heavy
from repro.fastpath.roundstate import RoundState
from repro.fastpath.sampling import (
    grouped_accept,
    multinomial_occupancy,
    sample_uniform_choices,
)
from repro.light import run_light
from repro.telemetry import get_logger

_log = get_logger("benchmarks.kernels")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestSamplingKernels:
    def test_uniform_choices_1m(self, benchmark, rng):
        out = benchmark(sample_uniform_choices, 1_000_000, 4096, rng)
        assert out.size == 1_000_000

    def test_multinomial_occupancy_1m_balls(self, benchmark, rng):
        out = benchmark(multinomial_occupancy, 1_000_000, 4096, rng)
        assert out.sum() == 1_000_000

    def test_multinomial_occupancy_1t_balls(self, benchmark, rng):
        """The aggregate path's selling point: 10^12 balls in O(n)."""
        out = benchmark(multinomial_occupancy, 10**12, 4096, rng)
        assert out.sum() == 10**12

    def test_grouped_accept_1m_requests(self, benchmark, rng):
        choices = rng.integers(0, 4096, size=1_000_000)
        capacity = np.full(4096, 200)
        mask = benchmark(grouped_accept, choices, capacity, rng)
        assert mask.sum() <= 4096 * 200


class TestRoundStateKernels:
    """The shared round-step kernels every protocol now drives."""

    def test_roundstate_perball_round_1m(self, benchmark, rng):
        def one_round():
            state = RoundState(1_000_000, 4096)
            batch = state.sample_contacts(rng)
            decision = state.group_and_accept(
                batch, np.full(4096, 300, dtype=np.int64), rng
            )
            state.commit_and_revoke(batch, decision)
            return state

        state = benchmark(one_round)
        assert state.rounds == 1
        assert state.loads.sum() + state.active_count == 1_000_000

    def test_roundstate_aggregate_round_1t(self, benchmark, rng):
        """One aggregate kernel round at 10^12 balls is O(n)."""

        def one_round():
            state = RoundState(10**12, 4096, granularity="aggregate")
            batch = state.sample_contacts(rng)
            decision = state.group_and_accept(
                batch, np.full(4096, 10**8, dtype=np.int64)
            )
            state.commit_and_revoke(batch, decision)
            return state

        state = benchmark(one_round)
        assert state.loads.sum() + state.active_count == 10**12

    def test_priority_commit_round_1m_d2(self, benchmark, rng):
        def one_round():
            state = RoundState(1_000_000, 4096)
            batch = state.sample_contacts(rng, d=2)
            decision = state.group_and_accept(
                batch,
                np.full(4096, 300, dtype=np.int64),
                rng,
                policy="priority_commit",
            )
            state.commit_and_revoke(batch, decision, accept_cost=2)
            return state

        state = benchmark(one_round)
        assert state.loads.sum() + state.active_count == 1_000_000


class TestKernelVsEngine:
    """ISSUE-2 acceptance: >= 5x over the agent engine at m = 10^6.

    The engine is O(m) Python objects per round; the kernels are
    whole-array numpy.  Measured ratios are ~10^3 (per-ball) and ~10^5
    (aggregate) — asserted with generous slack so the test pins the
    architecture claim, not machine noise.

    Opt-in (set ``RUN_ENGINE_BENCH=1``): the engine at m = 10^6 takes
    several minutes, which would ambush a plain
    ``pytest benchmarks/bench_kernels.py`` run.  The same 5x bar is
    enforced unconditionally — engine-normalized per ball — by
    ``benchmarks/run_benchmarks.py`` (CI runs its smoke scale).
    """

    M, N = 1_000_000, 1024

    @pytest.mark.skipif(
        not os.environ.get("RUN_ENGINE_BENCH"),
        reason="multi-minute engine run; set RUN_ENGINE_BENCH=1",
    )
    def test_heavy_kernel_5x_faster_than_engine_1m(self):
        start = time.perf_counter()
        eng = run_heavy(self.M, self.N, seed=0, mode="engine")
        engine_s = time.perf_counter() - start

        start = time.perf_counter()
        vec = run_heavy(self.M, self.N, seed=0, mode="perball")
        perball_s = time.perf_counter() - start

        start = time.perf_counter()
        agg = run_heavy(self.M, self.N, seed=0, mode="aggregate")
        aggregate_s = time.perf_counter() - start

        assert eng.complete and vec.complete and agg.complete
        _log.info(
            "engine %.2fs | perball %.3fs (%.0fx) | aggregate "
            "%.4fs (%.0fx)",
            engine_s,
            perball_s,
            engine_s / perball_s,
            aggregate_s,
            engine_s / aggregate_s,
        )
        assert engine_s / perball_s >= 5
        assert engine_s / aggregate_s >= 5


class TestAlgorithmThroughput:
    def test_heavy_perball_1m(self, benchmark):
        res = benchmark.pedantic(
            run_heavy,
            args=(1_000_000, 1024),
            kwargs={"seed": 1},
            rounds=1,
            iterations=1,
        )
        assert res.complete

    def test_heavy_aggregate_1g(self, benchmark):
        """10^9 balls: only feasible on the aggregate path."""
        res = benchmark.pedantic(
            run_heavy,
            args=(10**9, 1024),
            kwargs={"seed": 1, "mode": "aggregate"},
            rounds=1,
            iterations=1,
        )
        assert res.complete
        assert res.gap <= 8

    def test_asymmetric_1m(self, benchmark):
        res = benchmark.pedantic(
            run_asymmetric,
            args=(1_000_000, 1024),
            kwargs={"seed": 1},
            rounds=1,
            iterations=1,
        )
        assert res.complete

    def test_light_64k(self, benchmark):
        out = benchmark.pedantic(
            run_light,
            args=(65536, 65536),
            kwargs={"seed": 1},
            rounds=1,
            iterations=1,
        )
        assert out.max_load <= 2

    def test_single_choice_aggregate_1g(self, benchmark):
        res = benchmark.pedantic(
            run_single_choice,
            args=(10**9, 4096),
            kwargs={"seed": 1, "mode": "aggregate"},
            rounds=1,
            iterations=1,
        )
        assert res.loads.sum() == 10**9
