"""Tests for repro.simulation.metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.metrics import MessageCounter, RoundMetrics, RunMetrics


class TestMessageCounter:
    def test_single_records(self):
        c = MessageCounter(3, 2)
        c.record_ball_to_bin(0, 1)
        c.record_bin_to_ball(1, 0)
        assert c.total == 2
        assert c.ball_sent[0] == 1
        assert c.ball_received[0] == 1
        assert c.bin_received[1] == 1
        assert c.bin_sent[1] == 1

    def test_counted_with_multiplicity(self):
        c = MessageCounter(1, 1)
        c.record_ball_to_bin(0, 0, count=5)
        assert c.total == 5
        assert c.bin_received[0] == 5

    def test_bulk_matches_loop(self):
        c1 = MessageCounter(10, 4)
        c2 = MessageCounter(10, 4)
        balls = np.array([0, 1, 2, 2, 5])
        bins = np.array([3, 0, 1, 1, 2])
        c1.record_bulk_ball_to_bin(bins, balls)
        for b, t in zip(balls, bins):
            c2.record_ball_to_bin(int(b), int(t))
        assert np.array_equal(c1.ball_sent, c2.ball_sent)
        assert np.array_equal(c1.bin_received, c2.bin_received)
        assert c1.total == c2.total

    def test_bulk_bin_to_ball(self):
        c = MessageCounter(5, 3)
        c.record_bulk_bin_to_ball(np.array([0, 0, 2]), np.array([1, 2, 3]))
        assert c.bin_sent[0] == 2
        assert c.ball_received[3] == 1
        assert c.total == 3

    def test_summary_keys(self):
        c = MessageCounter(2, 2)
        c.record_ball_to_bin(0, 0)
        s = c.summary()
        assert s["total"] == 1.0
        assert s["per_ball_max"] == 1.0
        assert s["per_bin_received_max"] == 1.0

    def test_ball_total_combines(self):
        c = MessageCounter(2, 2)
        c.record_ball_to_bin(1, 0)
        c.record_bin_to_ball(0, 1)
        assert c.ball_total[1] == 2
        assert c.max_ball_messages() == 2

    def test_empty_counter(self):
        c = MessageCounter(0, 1)
        assert c.mean_ball_messages() == 0.0
        assert c.max_ball_messages() == 0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            MessageCounter(-1, 1)
        with pytest.raises(ValueError):
            MessageCounter(1, 0)


class _Reference:
    """Plain int64 tallies updated with ``np.add.at``: the specification
    the compact counter must reproduce."""

    def __init__(self, m, n):
        self.ball_sent = np.zeros(m, dtype=np.int64)
        self.ball_received = np.zeros(m, dtype=np.int64)
        self.bin_sent = np.zeros(n, dtype=np.int64)
        self.bin_received = np.zeros(n, dtype=np.int64)
        self.total = 0

    def round(self, balls, committed, bins, commit_bins, accepts):
        np.add.at(self.ball_sent, balls, 1)
        np.add.at(self.bin_received, bins, 1)
        self.total += balls.size
        if accepts:
            np.add.at(self.ball_received, committed, 1)
            np.add.at(self.bin_sent, commit_bins, 1)
            self.total += committed.size


def _assert_same(counter, ref):
    np.testing.assert_array_equal(counter.ball_sent, ref.ball_sent)
    np.testing.assert_array_equal(counter.ball_received, ref.ball_received)
    np.testing.assert_array_equal(counter.bin_sent, ref.bin_sent)
    np.testing.assert_array_equal(counter.bin_received, ref.bin_received)
    assert counter.total == ref.total
    for arr in (counter.ball_sent, counter.ball_received):
        assert arr.dtype == np.int64


def _canonical_round(counter, ref, active, rng, *, commit_prob, accepts,
                     per_bin):
    """One round in which every ``active`` ball requests a random bin
    and a random subset commits; returns the balls still active."""
    n = counter.n
    bins = rng.integers(0, n, size=active.size)
    mask = rng.random(active.size) < commit_prob
    committed, commit_bins = active[mask], bins[mask]
    tallies = (
        (np.bincount(bins, minlength=n), np.bincount(commit_bins, minlength=n))
        if per_bin
        else None
    )
    counter.record_round(
        active, committed, bins, commit_bins, accepts=accepts,
        per_bin=tallies,
    )
    ref.round(active, committed, bins, commit_bins, accepts)
    return active[~mask]


class TestCompactBallTallies:
    """The commit-round form of the ball tallies against an explicit
    ``np.add.at`` reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(0, 40),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.sampled_from(
                ["round", "round", "round", "quiet", "burst", "shrink",
                 "generic", "add"]
            ),
            max_size=12,
        ),
    )
    def test_matches_add_at_reference(self, m, n, seed, steps):
        rng = np.random.default_rng(seed)
        counter, ref = MessageCounter(m, n), _Reference(m, n)
        active = np.arange(m)
        for step in steps:
            if step in ("round", "quiet"):
                active = _canonical_round(
                    counter, ref, active, rng,
                    commit_prob=0.5, accepts=step == "round",
                    per_bin=bool(rng.integers(2)),
                )
            elif step == "burst":
                # Past 255 rounds: the commit rounds need a wider type.
                for _ in range(300):
                    active = _canonical_round(
                        counter, ref, active, rng, commit_prob=0.01,
                        accepts=True, per_bin=False,
                    )
            elif step == "shrink":
                # A protocol drops balls between rounds (faulty's crashes):
                # the survivors are no longer every uncommitted ball.
                active = active[rng.random(active.size) < 0.7]
            elif step == "generic" and m:
                balls = rng.integers(0, m, size=5)
                bins = rng.integers(0, n, size=5)
                counter.record_bulk_ball_to_bin(bins, balls)
                counter.record_bulk_bin_to_ball(bins[:2], balls[:2])
                counter.record_ball_to_bin(int(balls[0]), int(bins[0]), 3)
                counter.record_bin_to_ball(int(bins[1]), int(balls[1]))
                np.add.at(ref.ball_sent, balls, 1)
                np.add.at(ref.bin_received, bins, 1)
                np.add.at(ref.bin_sent, bins[:2], 1)
                np.add.at(ref.ball_received, balls[:2], 1)
                ref.ball_sent[balls[0]] += 3
                ref.bin_received[bins[0]] += 3
                ref.bin_sent[bins[1]] += 1
                ref.ball_received[balls[1]] += 1
                ref.total += 5 + 2 + 3 + 1
            elif step == "add" and m:
                # Phase 2: messages charged to some balls after the rounds.
                ids = rng.choice(m, size=min(m, 4), replace=False)
                counts = rng.integers(0, 9, size=ids.size)
                counter.add_ball_sent(ids, counts)
                np.add.at(ref.ball_sent, ids, counts)
        _assert_same(counter, ref)
        rebuilt = MessageCounter.from_arrays(
            m, n, ball_sent=ref.ball_sent, ball_received=ref.ball_received,
            bin_sent=ref.bin_sent, bin_received=ref.bin_received,
            total=ref.total,
        )
        assert counter.summary() == rebuilt.summary()

    @pytest.mark.parametrize(
        "rounds, dtype", [(300, np.uint16), (70_000, np.uint32)]
    )
    def test_widens_past_255_rounds(self, rounds, dtype):
        """Balls 0, 1, 2 commit in rounds 200, 255 and ``rounds - 1``;
        the rest never do."""
        commit_at = {200: 0, 255: 1, rounds - 1: 2}
        counter = MessageCounter(6, 2)
        active = np.arange(6)
        requests = 0
        for r in range(1, rounds + 1):
            committed = active[active == commit_at.get(r, -1)]
            bins = np.zeros(active.size, dtype=np.int64)
            counter.record_round(active, committed, bins, bins[:committed.size])
            requests += active.size
            active = active[active != commit_at.get(r, -1)]
        assert counter._commit_round.dtype == dtype
        np.testing.assert_array_equal(
            counter.ball_sent, [200, 255, rounds - 1, rounds, rounds, rounds]
        )
        np.testing.assert_array_equal(counter.ball_received, [1, 1, 1, 0, 0, 0])
        np.testing.assert_array_equal(counter.bin_received, [requests, 0])
        np.testing.assert_array_equal(counter.bin_sent, [3, 0])
        assert counter.total == requests + 3

    def test_first_read_materializes_int64(self):
        counter = MessageCounter(4, 2)
        balls = np.arange(4)
        counter.record_round(
            balls, balls[:1], np.zeros(4, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )
        assert counter._ball_sent is None
        np.testing.assert_array_equal(counter.ball_sent, [1, 1, 1, 1])
        np.testing.assert_array_equal(counter.ball_received, [1, 0, 0, 0])
        assert counter._commit_round is None
        # Reads hand out the arrays themselves, as before.
        counter.ball_sent[0] += 1
        assert counter.ball_total[0] == 3


class TestFromArrays:
    def _arrays(self, m=3, n=2):
        return dict(
            ball_sent=[1, 2, 3][:m], ball_received=[0, 1, 1][:m],
            bin_sent=[1, 1][:n], bin_received=[3, 3][:n], total=8,
        )

    def test_adopts_explicit_tallies(self):
        c = MessageCounter.from_arrays(3, 2, **self._arrays())
        np.testing.assert_array_equal(c.ball_total, [1, 3, 4])
        assert c.bin_received.dtype == np.int64 and c.total == 8

    def test_empty_instance(self):
        c = MessageCounter.from_arrays(
            0, 1, ball_sent=[], ball_received=[], bin_sent=[0],
            bin_received=[0], total=0,
        )
        assert c.ball_sent.dtype == np.int64 and c.max_ball_messages() == 0

    @pytest.mark.parametrize(
        "field", ["ball_sent", "ball_received", "bin_sent", "bin_received"]
    )
    def test_wrong_length_names_the_field(self, field):
        arrays = self._arrays()
        arrays[field] = arrays[field][:-1]
        with pytest.raises(ValueError, match=field):
            MessageCounter.from_arrays(3, 2, **arrays)

    def test_non_integer_names_the_field(self):
        arrays = self._arrays()
        arrays["bin_sent"] = [1.0, 1.5]
        with pytest.raises(ValueError, match="bin_sent.*integer"):
            MessageCounter.from_arrays(3, 2, **arrays)


class TestRoundMetrics:
    def _mk(self, i=0):
        return RoundMetrics(
            round_no=i,
            unallocated_start=10,
            requests_sent=10,
            accepts_sent=8,
            rejects_sent=0,
            commits=8,
            unallocated_end=2,
            max_load=3,
        )

    def test_str_includes_progress(self):
        text = str(self._mk())
        assert "10 -> 2" in text

    def test_threshold_rendered(self):
        m = RoundMetrics(
            round_no=0,
            unallocated_start=1,
            requests_sent=1,
            accepts_sent=1,
            rejects_sent=0,
            commits=1,
            unallocated_end=0,
            max_load=1,
            threshold=7.0,
        )
        assert "T=7.00" in str(m)


class TestRunMetrics:
    def test_add_and_query(self):
        run = RunMetrics(10, 2)
        run.add_round(
            RoundMetrics(0, 10, 10, 7, 0, 7, 3, 4)
        )
        run.add_round(
            RoundMetrics(1, 3, 3, 3, 0, 3, 0, 5)
        )
        assert run.num_rounds == 2
        assert run.unallocated_history == [10, 3]
        assert run.total_requests == 13

    def test_rounds_must_increase(self):
        run = RunMetrics(10, 2)
        run.add_round(RoundMetrics(1, 10, 10, 7, 0, 7, 3, 4))
        with pytest.raises(ValueError):
            run.add_round(RoundMetrics(1, 3, 3, 3, 0, 3, 0, 5))
        with pytest.raises(ValueError):
            run.add_round(RoundMetrics(0, 3, 3, 3, 0, 3, 0, 5))
