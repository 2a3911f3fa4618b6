"""Equivalence gates for the hardware-limit scaling paths.

Two kernel-scaling axes — chunked per-ball sampling with int32
storage, and trial-axis process sharding — each promise *bitwise
identity* with the default path: the memory and parallelism wins must
change the wall clock and nothing else.  These tests are that promise,
pinned over seeds and workloads:

* ``fill_choices`` consumes the RNG stream exactly as the one-shot
  draw it replaces, for every tile size;
* ``narrow_dtypes`` narrows only where the population provably fits;
* chunked heavy runs (per-ball and aggregate, uniform and
  zipf+weighted) match the default path on loads, messages, rounds,
  per-round metrics, and weighted loads, and their loads surface as
  int64;
* ``chunk_size < 1`` is rejected on every entry point before any draw;
* sharded replication (``workers=4``) is per-trial identical to the
  single-process batch, through ``replicate``, ``allocate_many``, and
  ``sweep``;
* chunked dynamic placement — int32 storage against resident loads,
  settle rounds included — matches the default path through the
  adapter and through ``run_dynamic``, and the allocator service still
  matches ``run_dynamic``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api.replicate import replicate
from repro.core.heavy import HeavyConfig
from repro.experiments.parallel import _shard_bounds, replicate_sharded
from repro.core.heavy import dynamic_heavy
from repro.fastpath import fill_choices, narrow_dtypes
from repro.service import AllocatorService


# ---------------------------------------------------------------------------
# Sampling kernels: tiled draws consume the stream exactly like one shot
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk", [1, 7, 257, 4096, None])
@pytest.mark.parametrize("k", [0, 1, 1000, 4097])
def test_fill_choices_uniform_stream_equivalence(chunk, k):
    ref = np.random.default_rng(42).integers(0, 50, size=k, dtype=np.int64)
    out = np.empty(k, dtype=np.int32)
    fill_choices(out, 50, np.random.default_rng(42), chunk_size=chunk)
    np.testing.assert_array_equal(ref, out)


@pytest.mark.parametrize("chunk", [3, 1000, None])
def test_fill_choices_pvals_stream_equivalence(chunk):
    # The weighted path draws uniforms and inverts the cdf; tiling must
    # split the same rng.random stream at the same points.
    p = np.random.default_rng(0).random(64)
    p /= p.sum()
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    ref_draws = np.random.default_rng(9).random(2500)
    ref = np.minimum(np.searchsorted(cdf, ref_draws, side="right"), 63)
    out = np.empty(2500, dtype=np.int64)
    fill_choices(out, 64, np.random.default_rng(9), pvals=p, chunk_size=chunk)
    np.testing.assert_array_equal(ref, out)


def test_fill_choices_rejects_bad_output():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        fill_choices(np.empty((2, 2), dtype=np.int64), 4, rng)
    with pytest.raises(ValueError):
        fill_choices(np.empty(4, dtype=np.float64), 4, rng)
    with pytest.raises(ValueError):
        fill_choices(np.empty(4, dtype=np.int64), 0, rng)
    with pytest.raises(ValueError):
        # n_bins beyond the output dtype's range must fail loudly.
        fill_choices(np.empty(4, dtype=np.int32), 2**40, rng)


# ---------------------------------------------------------------------------
# Narrowing: int32 only where the population provably fits
# ---------------------------------------------------------------------------


def test_dtype_policy_narrow_fits():
    index_dtype, load_dtype = narrow_dtypes(10**6, 1024)
    assert index_dtype == np.dtype(np.int32)
    assert load_dtype == np.dtype(np.int32)


def test_dtype_policy_narrow_respects_int32_bounds():
    huge = 2**31
    assert narrow_dtypes(huge, 1024)[1] == np.dtype(np.int64)
    assert narrow_dtypes(huge, 1024)[0] == np.dtype(np.int64)
    assert narrow_dtypes(1000, huge)[0] == np.dtype(np.int64)
    # Bin count beyond int32 does not widen the load vector (loads are
    # bounded by the population).
    assert narrow_dtypes(1000, huge)[1] == np.dtype(np.int32)


# ---------------------------------------------------------------------------
# Chunked heavy runs == default path, bitwise
# ---------------------------------------------------------------------------

_WORKLOADS = [None, "zipf:1.1", "zipf:1.1+geomw:0.5+propcap"]


@pytest.mark.parametrize("workload", _WORKLOADS)
@pytest.mark.parametrize("seed", [0, 7])
def test_chunked_perball_bitwise_equivalent(workload, seed):
    base = repro.allocate(
        "heavy", 60_000, 128, seed=seed, mode="perball", workload=workload
    )
    chunked = repro.allocate(
        "heavy", 60_000, 128, seed=seed, mode="perball", workload=workload,
        chunk_size=4096,
    )
    np.testing.assert_array_equal(base.loads, chunked.loads)
    assert chunked.loads.dtype == np.int64
    assert base.total_messages == chunked.total_messages
    assert base.rounds == chunked.rounds
    assert base.max_load == chunked.max_load
    base_rounds = [
        (r.requests_sent, r.accepts_sent, r.commits, r.max_load)
        for r in base.metrics.rounds
    ]
    chunked_rounds = [
        (r.requests_sent, r.accepts_sent, r.commits, r.max_load)
        for r in chunked.metrics.rounds
    ]
    assert base_rounds == chunked_rounds
    if workload and "geomw" in workload:
        assert (
            base.extra["workload"]["weighted_gap"]
            == chunked.extra["workload"]["weighted_gap"]
        )


def test_chunked_aggregate_bitwise_equivalent():
    base = repro.allocate("heavy", 200_000, 256, seed=1, mode="aggregate")
    chunked = repro.allocate(
        "heavy", 200_000, 256, seed=1, mode="aggregate", chunk_size=1 << 12
    )
    np.testing.assert_array_equal(base.loads, chunked.loads)
    assert base.total_messages == chunked.total_messages


def test_tiny_chunk_size_still_equivalent():
    base = repro.allocate("heavy", 5_000, 16, seed=3)
    chunked = repro.allocate("heavy", 5_000, 16, seed=3, chunk_size=1)
    np.testing.assert_array_equal(base.loads, chunked.loads)


_CHUNKED_ENTRY_POINTS = {
    "allocate": lambda chunk: repro.allocate(
        "heavy", 20_000, 64, seed=1, chunk_size=chunk
    ),
    # An empty cohort: the check must come before the early return.
    "dynamic_heavy": lambda chunk: dynamic_heavy(
        0, 64, initial_loads=np.zeros(64, dtype=np.int64), seed=1,
        chunk_size=chunk,
    ),
    "run_dynamic": lambda chunk: repro.run_dynamic(
        "heavy", 20_000, 64, seed=1, epochs=2, chunk_size=chunk
    ),
    "AllocatorService": lambda chunk: AllocatorService(
        "heavy", 64, seed=1, chunk_size=chunk
    ),
}


@pytest.mark.parametrize("entry", sorted(_CHUNKED_ENTRY_POINTS))
@pytest.mark.parametrize("chunk_size", [0, -3])
def test_bad_chunk_size_rejected_on_every_entry_point(entry, chunk_size):
    with pytest.raises(ValueError, match="chunk_size must be >= 1"):
        _CHUNKED_ENTRY_POINTS[entry](chunk_size)


def test_per_ball_message_counters_survive_chunking():
    base = repro.allocate("heavy", 20_000, 64, seed=2, mode="perball")
    chunked = repro.allocate(
        "heavy", 20_000, 64, seed=2, mode="perball", chunk_size=1000
    )
    np.testing.assert_array_equal(
        base.messages.ball_sent, chunked.messages.ball_sent
    )
    np.testing.assert_array_equal(
        base.messages.bin_received, chunked.messages.bin_received
    )


def test_track_per_ball_off_chunked_matches_loads():
    cfg = HeavyConfig(track_per_ball=False)
    base = repro.allocate("heavy", 60_000, 128, seed=4, config=cfg)
    chunked = repro.allocate(
        "heavy", 60_000, 128, seed=4, config=cfg, chunk_size=1 << 14
    )
    np.testing.assert_array_equal(base.loads, chunked.loads)
    assert base.total_messages == chunked.total_messages


# ---------------------------------------------------------------------------
# Sharded replication: workers=k == workers=1, per trial
# ---------------------------------------------------------------------------


def test_shard_bounds_cover_contiguously():
    for total, shards in [(8, 4), (10, 3), (3, 8), (1, 1), (256, 4)]:
        bounds = _shard_bounds(total, shards)
        assert bounds[0][0] == 0 and bounds[-1][1] == total
        assert all(b[0] < b[1] for b in bounds)
        assert all(
            bounds[i][1] == bounds[i + 1][0] for i in range(len(bounds) - 1)
        )
        assert len(bounds) == min(shards, total)


@pytest.mark.parametrize("workload", [None, "zipf:1.1"])
def test_replicate_sharded_matches_single_process(workload):
    r1 = replicate(
        "heavy", 40_000, 64, trials=8, seed=13, workload=workload
    )
    r4 = replicate(
        "heavy", 40_000, 64, trials=8, seed=13, workload=workload, workers=4
    )
    assert r1.batched and r4.batched
    np.testing.assert_array_equal(r1.loads, r4.loads)
    np.testing.assert_array_equal(r1.gaps, r4.gaps)
    np.testing.assert_array_equal(r1.rounds, r4.rounds)
    np.testing.assert_array_equal(r1.total_messages, r4.total_messages)
    assert [x.extra["api"]["repeat"] for x in r4.results] == list(range(8))


def test_replicate_sharded_more_workers_than_trials():
    r1 = replicate("heavy", 20_000, 64, trials=3, seed=5)
    r8 = replicate("heavy", 20_000, 64, trials=3, seed=5, workers=8)
    np.testing.assert_array_equal(r1.loads, r8.loads)


def test_replicate_sharded_low_level_entry():
    from repro.utils.seeding import as_seed_sequence

    children = as_seed_sequence(21).spawn(6)
    direct = replicate_sharded(
        "heavy", 30_000, 64, children, None, {}, workers=3
    )
    rep = replicate("heavy", 30_000, 64, trials=6, seed=21)
    for d, r in zip(direct, rep.results):
        np.testing.assert_array_equal(d.loads, r.loads)
        assert d.total_messages == r.total_messages


def test_allocate_many_workers_shard_trial_axis():
    seq = repro.allocate_many("heavy", 30_000, 64, repeats=5, seed=17)
    par = repro.allocate_many(
        "heavy", 30_000, 64, repeats=5, seed=17, workers=4
    )
    assert all(r.extra["api"]["trial_batched"] for r in par)
    for a, b in zip(seq, par):
        np.testing.assert_array_equal(a.loads, b.loads)
        assert a.total_messages == b.total_messages


def test_sweep_workers_shard_each_point_block():
    points = [(20_000, 64), (30_000, 128)]
    seq = repro.sweep("heavy", points, repeats=4, seed=23)
    par = repro.sweep("heavy", points, repeats=4, seed=23, workers=2)
    for a, b in zip(seq, par):
        np.testing.assert_array_equal(a.loads, b.loads)
        assert a.extra["api"]["point"] == b.extra["api"]["point"]
        assert a.extra["api"]["repeat"] == b.extra["api"]["repeat"]


# ---------------------------------------------------------------------------
# Dynamic placement: chunked storage against residents changes no value
# ---------------------------------------------------------------------------


def test_run_dynamic_shared_arena_matches_unshared():
    shared = repro.run_dynamic("heavy", 30_000, 64, seed=9, epochs=4)
    unshared = repro.run_dynamic(
        "heavy", 30_000, 64, seed=9, epochs=4, chunk_size=512
    )
    np.testing.assert_array_equal(shared.loads, unshared.loads)
    assert [r.messages for r in shared.records] == [
        r.messages for r in unshared.records
    ]
    assert (shared.gaps == unshared.gaps).all()


def test_dynamic_adapter_chunked_matches_default():
    initial = np.full(64, 100, dtype=np.int64)
    from repro.core.heavy import dynamic_heavy

    base = dynamic_heavy(10_000, 64, initial_loads=initial, seed=3)
    chunked = dynamic_heavy(
        10_000, 64, initial_loads=initial, seed=3, chunk_size=512
    )
    np.testing.assert_array_equal(base.loads, chunked.loads)
    assert chunked.loads.dtype == np.int64
    assert base.total_messages == chunked.total_messages
    assert base.rounds == chunked.rounds


def test_service_shared_arena_matches_run_dynamic():
    from repro.service import simulate_service

    report = simulate_service(
        "heavy", 20_000, 64, seed=1, epochs=4, churn=0.1, arrivals="bursty"
    )
    dyn = repro.run_dynamic(
        "heavy", 20_000, 64, seed=1, epochs=4, churn=0.1, arrivals="bursty"
    )
    assert [r.messages for r in report.records] == [
        e.messages for e in dyn.records
    ]
    assert report.stats.complete


# ---------------------------------------------------------------------------
# Bench satellites: peak RSS and scale notes
# ---------------------------------------------------------------------------


def test_peak_rss_is_per_leg():
    # A small leg after a 200 MB one reports its own peak: neither the
    # process's lifetime high-water mark nor the freed heap the big
    # leg left mapped (its survivors pin a page every 64 blocks).
    from repro.api.bench import leg_peak_rss

    peak = leg_peak_rss()
    blocks = [bytes(1024) for _ in range(200_000)]
    survivors = blocks[::64]
    del blocks
    big_peak = peak()
    if big_peak is None:
        pytest.skip("the kernel refuses the peak-RSS reset")
    peak = leg_peak_rss()
    small = np.ones(1_000)
    small_peak = peak()
    del small, survivors
    assert 0 < small_peak < big_peak
    assert big_peak - small_peak > 100 * 2**20


def test_instance_for_scale_notes():
    from repro.api.bench import _instance_for
    from repro.api.spec import get_spec

    m, n, note = _instance_for(get_spec("light"), 100_000, 64)
    assert (m, n) == (100_000, 50_000) and "light" in note
    m, n, note = _instance_for(get_spec("dchoice"), 100_000, 64)
    assert (m, n) == (100_000, 25_000) and note is not None
    m, n, note = _instance_for(get_spec("heavy"), 100_000, 64)
    assert (m, n, note) == (100_000, 64, None)
    # Natural-regime requests are left alone, no note.
    m, n, note = _instance_for(get_spec("light"), 1_000, 4_000)
    assert (m, n, note) == (1_000, 4_000, None)


def test_bench_records_carry_rss_and_notes():
    from repro.api.bench import ALLOCATE_COLUMNS, benchmark_registry, render

    records = benchmark_registry(
        4_000, 32, seeds=(0,), algorithms=("heavy", "light")
    )
    assert all(
        r["peak_rss_bytes"] and r["peak_rss_bytes"] > 0 for r in records
    )
    light = [r for r in records if r["algorithm"] == "light"]
    assert light and light[0]["scale_note"] and light[0]["n"] == 2_000
    table = render(records, ALLOCATE_COLUMNS)
    assert "peak rss" in table and "* light:" in table
