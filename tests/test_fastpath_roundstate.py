"""Unit tests of the shared RoundState round-kernel layer.

The protocols' own suites (heavy, asymmetric, light, baselines) cover
the kernels end-to-end; these tests pin the kernel contracts directly:
granularity-specific state handling, the three accept policies, commit
resolution with and without fan-out, message/metrics accounting knobs,
and the ``grouped_accept`` edge cases surfaced by the refactor
(zero-capacity bins, empty request rounds).
"""

import numpy as np
import pytest

from repro.fastpath.roundstate import (
    AcceptDecision,
    ContactBatch,
    RoundState,
    priority_commit_accept,
)
from repro.fastpath.sampling import grouped_accept


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestGroupedAcceptEdgeCases:
    """Regression tests for satellite fix: edge cases in grouped_accept."""

    def test_empty_request_round(self, rng):
        mask = grouped_accept(np.zeros(0, dtype=np.int64), np.full(8, 3), rng)
        assert mask.shape == (0,)
        assert mask.dtype == bool

    def test_empty_requests_consume_no_rng(self):
        rng = np.random.default_rng(0)
        grouped_accept(np.zeros(0, dtype=np.int64), np.full(8, 3), rng)
        after = rng.random()
        assert after == np.random.default_rng(0).random()

    def test_all_zero_capacity_rejects_everything(self, rng):
        choices = rng.integers(0, 8, size=1000)
        mask = grouped_accept(choices, np.zeros(8, dtype=np.int64), rng)
        assert not mask.any()

    def test_all_zero_capacity_skips_priority_draws(self):
        """The saturated-round fast path must not consume the stream
        (the selection it skips is vacuous — nothing can be accepted)."""
        rng = np.random.default_rng(3)
        choices = np.random.default_rng(1).integers(0, 8, size=1000)
        grouped_accept(choices, np.zeros(8, dtype=np.int64), rng)
        assert rng.random() == np.random.default_rng(3).random()

    def test_negative_capacity_treated_as_zero(self, rng):
        choices = np.array([0, 0, 1, 1, 1])
        mask = grouped_accept(choices, np.array([-5, 2]), rng)
        assert not mask[:2].any()
        assert mask[2:].sum() == 2

    def test_mixed_zero_and_positive_capacity(self, rng):
        choices = np.array([0, 0, 0, 1, 1, 1])
        mask = grouped_accept(choices, np.array([0, 2]), rng)
        assert not mask[:3].any()
        assert mask[3:].sum() == 2

    def test_scalar_capacity_single_bin(self, rng):
        """0-d capacity arrays are promoted instead of crashing."""
        choices = np.zeros(5, dtype=np.int64)
        mask = grouped_accept(choices, np.asarray(3), rng)
        assert mask.sum() == 3

    def test_capacity_exceeding_requests_accepts_all(self, rng):
        choices = rng.integers(0, 4, size=50)
        mask = grouped_accept(choices, np.full(4, 1000), rng)
        assert mask.all()

    def test_non_integer_choices_rejected(self, rng):
        with pytest.raises(ValueError, match="integer"):
            grouped_accept(np.array([0.5, 1.5]), np.full(2, 1), rng)

    def test_out_of_range_choices_rejected(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            grouped_accept(np.array([0, 5]), np.full(2, 1), rng)


class TestRoundStateConstruction:
    def test_perball_state(self):
        state = RoundState(10, 4)
        assert state.active_count == 10
        assert np.array_equal(state.active, np.arange(10))
        assert state.counter is None

    def test_aggregate_state(self):
        state = RoundState(10**12, 4, granularity="aggregate")
        assert state.active_count == 10**12
        assert state.active is None

    def test_aggregate_rejects_per_ball_tracking(self):
        with pytest.raises(ValueError, match="per-ball accounting"):
            RoundState(10, 4, granularity="aggregate", track_messages=True)

    def test_unknown_granularity(self):
        with pytest.raises(ValueError, match="granularity"):
            RoundState(10, 4, granularity="bogus")


class TestSampleContacts:
    def test_uniform_d1(self, rng):
        state = RoundState(100, 8)
        batch = state.sample_contacts(rng)
        assert batch.choices.size == 100
        assert batch.requester_pos is None
        assert batch.requests_sent == 100
        assert np.array_equal(batch.positions(), np.arange(100))

    def test_fanout_d3(self, rng):
        state = RoundState(10, 8)
        batch = state.sample_contacts(rng, d=3)
        assert batch.choices.size == 30
        assert np.array_equal(batch.requester_pos, np.repeat(np.arange(10), 3))

    def test_explicit_targets_2d_flattened(self):
        state = RoundState(4, 8)
        targets = np.arange(8).reshape(4, 2)
        batch = state.sample_contacts(targets=targets, d=2)
        assert np.array_equal(batch.choices, np.arange(8))

    def test_targets_size_mismatch(self):
        state = RoundState(4, 8)
        with pytest.raises(ValueError, match="expected active_count"):
            state.sample_contacts(targets=np.arange(3))

    def test_out_of_range_targets_rejected(self):
        # The round's one range check: the grouping checks no target.
        state = RoundState(4, 8)
        with pytest.raises(ValueError, match="out of range"):
            state.sample_contacts(targets=np.array([0, 1, 8, 2]))
        with pytest.raises(ValueError, match="out of range"):
            state.sample_contacts(targets=np.array([0, -1, 2, 3]))
        with pytest.raises(ValueError, match="out of range"):
            state.sample_contacts(
                targets=np.array([0, 1, 2, 3]), n_targets=3
            )

    def test_aggregate_counts_sum_to_active(self, rng):
        state = RoundState(10**9, 64, granularity="aggregate")
        batch = state.sample_contacts(rng)
        assert batch.counts.sum() == 10**9

    def test_aggregate_pvals(self, rng):
        state = RoundState(10**6, 64, granularity="aggregate")
        pvals = np.full(4, 0.25)
        batch = state.sample_contacts(rng, n_targets=4, pvals=pvals)
        assert batch.counts.size == 4
        assert batch.counts.sum() == 10**6

    def test_aggregate_rejects_targets(self, rng):
        state = RoundState(100, 8, granularity="aggregate")
        with pytest.raises(ValueError, match="pvals"):
            state.sample_contacts(rng, targets=np.zeros(100, dtype=np.int64))


class TestAcceptPolicies:
    def test_unbounded_capacity_accepts_all(self, rng):
        state = RoundState(50, 8)
        batch = state.sample_contacts(rng)
        decision = state.group_and_accept(batch, None)
        assert decision.accepted.all()

    def test_uniform_respects_capacity(self, rng):
        state = RoundState(1000, 4)
        batch = state.sample_contacts(rng)
        decision = state.group_and_accept(batch, np.full(4, 10), rng)
        per_bin = np.bincount(batch.choices[decision.accepted], minlength=4)
        assert (per_bin <= 10).all()

    def test_all_or_nothing(self, rng):
        state = RoundState(6, 3)
        batch = state.sample_contacts(
            targets=np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        )
        decision = state.group_and_accept(
            batch, np.array([2, 2, 2]), policy="all_or_nothing"
        )
        # bin 0 got 3 > 2 requests: all rejected; bins 1 and 2 fit.
        assert not decision.accepted[:3].any()
        assert decision.accepted[3:].all()

    def test_all_or_nothing_aggregate_matches_rule(self, rng):
        state = RoundState(10**6, 16, granularity="aggregate")
        batch = state.sample_contacts(rng)
        cap = np.full(16, 70_000)
        decision = state.group_and_accept(batch, cap, policy="all_or_nothing")
        expect = np.where(batch.counts <= cap, batch.counts, 0)
        assert np.array_equal(decision.accepted_per_bin, expect)

    def test_priority_commit_one_commit_per_ball(self, rng):
        state = RoundState(500, 16)
        batch = state.sample_contacts(rng, d=3)
        decision = state.group_and_accept(
            batch, np.full(16, 20), rng, policy="priority_commit"
        )
        assert decision.resolved
        commits = decision.committed_pos.sum()
        assert decision.accepts_sent == commits
        assert (decision.committed_bin[decision.committed_pos] >= 0).all()
        per_bin = np.bincount(
            decision.committed_bin[decision.committed_pos], minlength=16
        )
        assert (per_bin <= 20).all()

    def test_priority_commit_kernel_capacity_consumed_by_commits(self):
        # 2 balls x 2 contacts, all to bin 0 with capacity 1: exactly
        # one ball commits (revoked accepts return capacity).
        choices = np.zeros(4, dtype=np.int64)
        marks = np.array([0.1, 0.2, 0.3, 0.4])
        pos = np.repeat(np.arange(2), 2)
        mask, bins = priority_commit_accept(
            choices, marks, pos, 2, np.array([1])
        )
        assert mask.sum() == 1 and bins[mask][0] == 0

    def test_delivered_mask_limits_acceptance(self, rng):
        state = RoundState(100, 4)
        batch = state.sample_contacts(rng)
        delivered = np.zeros(100, dtype=bool)
        delivered[:10] = True
        decision = state.group_and_accept(
            batch, np.full(4, 100), rng, delivered=delivered
        )
        assert decision.accepted[:10].all()
        assert not decision.accepted[10:].any()

    def test_capacity_shorter_than_target_space_rejected(self, rng):
        # Checked by size alone, whichever targets the round drew.
        state = RoundState(10, 4)
        batch = state.sample_contacts(targets=np.zeros(10, dtype=np.int64))
        with pytest.raises(ValueError, match="4 targets"):
            state.group_and_accept(batch, np.full(3, 5), rng)

    def test_unknown_policy(self, rng):
        state = RoundState(10, 4)
        batch = state.sample_contacts(rng)
        with pytest.raises(ValueError, match="unknown accept policy"):
            state.group_and_accept(batch, np.full(4, 1), rng, policy="bogus")


class TestCommitAndRevoke:
    def test_d1_commit_updates_everything(self, rng):
        state = RoundState(100, 4)
        batch = state.sample_contacts(rng)
        decision = state.group_and_accept(batch, np.full(4, 10), rng)
        state.commit_and_revoke(batch, decision, threshold=10)
        out = state.metrics.rounds[-1]
        assert out.commits == decision.accepts_sent
        assert state.loads.sum() == out.commits
        assert state.active_count == 100 - out.commits
        assert state.rounds == 1
        assert state.total_messages == 100 + out.commits
        row = state.metrics.rounds[0]
        assert row.requests_sent == 100
        assert row.commits == out.commits
        assert row.threshold == 10.0

    def test_fanout_first_accept_resolution(self, rng):
        w = rng.random(200)
        state = RoundState(200, 8, weights=w)
        batch = state.sample_contacts(rng, d=4)
        decision = state.group_and_accept(batch, np.full(8, 100), rng)
        state.commit_and_revoke(batch, decision)
        out = state.metrics.rounds[-1]
        # every ball had 4 chances at ample capacity: all commit
        assert out.commits == 200
        assert state.active_count == 0
        # each committed ball lands on its first accepted request; the
        # weighted loads sum each ball's weight where it landed, in ball
        # order, exactly as bincount does
        first = batch.choices.reshape(200, 4)[
            np.arange(200), decision.accepted.reshape(200, 4).argmax(axis=1)
        ]
        assert np.array_equal(state.loads, np.bincount(first, minlength=8))
        assert np.array_equal(
            state.weighted_loads, np.bincount(first, weights=w, minlength=8)
        )
        assert state.total_messages == 800 + decision.accepts_sent

    def test_ball_conservation_many_rounds(self, rng):
        state = RoundState(5000, 16)
        while state.active_count and state.rounds < 50:
            batch = state.sample_contacts(rng)
            decision = state.group_and_accept(
                batch, np.full(16, 400) - state.loads, rng
            )
            state.commit_and_revoke(batch, decision)
        assert state.loads.sum() + state.active_count == 5000

    def test_target_bins_redirection(self, rng):
        state = RoundState(10, 4)
        batch = state.sample_contacts(
            targets=np.zeros(10, dtype=np.int64), n_targets=2
        )
        decision = state.group_and_accept(batch, np.array([6, 6]), rng)
        member_bins = np.full(decision.accepts_sent, 3, dtype=np.int64)
        state.commit_and_revoke(batch, decision, target_bins=member_bins)
        assert state.loads[3] == decision.accepts_sent
        assert state.loads[:3].sum() == 0

    def test_aggregate_commit(self, rng):
        state = RoundState(10**8, 32, granularity="aggregate")
        batch = state.sample_contacts(rng)
        decision = state.group_and_accept(batch, np.full(32, 10**6))
        state.commit_and_revoke(batch, decision)
        out = state.metrics.rounds[-1]
        assert state.loads.sum() == out.commits == 32 * 10**6
        assert state.active_count == 10**8 - out.commits

    def test_aggregate_round_conserves_10_12_balls(self, rng):
        # An aggregate round costs O(n) whatever m is.
        state = RoundState(10**12, 4096, granularity="aggregate")
        batch = state.sample_contacts(rng)
        decision = state.group_and_accept(
            batch, np.full(4096, 10**8, dtype=np.int64)
        )
        state.commit_and_revoke(batch, decision)
        assert state.rounds == 1
        assert state.loads.sum() + state.active_count == 10**12

    def test_message_cost_knobs(self, rng):
        # accept_cost=0 (one-shot): requests only.
        state = RoundState(50, 4, track_messages=True)
        batch = state.sample_contacts(rng)
        decision = state.group_and_accept(batch, None)
        state.commit_and_revoke(
            batch, decision, accept_cost=0, record_accepts=False
        )
        assert state.total_messages == 50
        assert state.counter.total == 50
        assert state.counter.bin_sent.sum() == 0

    def test_count_commits_cost(self, rng):
        state = RoundState(100, 8)
        batch = state.sample_contacts(rng, d=2)
        decision = state.group_and_accept(batch, np.full(8, 3), rng)
        state.commit_and_revoke(batch, decision, count_commits=True)
        out = state.metrics.rounds[-1]
        assert state.total_messages == 200 + decision.accepts_sent + out.commits

    def test_counter_records_requests_and_accepts(self, rng):
        state = RoundState(100, 4, track_messages=True)
        batch = state.sample_contacts(rng)
        decision = state.group_and_accept(batch, np.full(4, 10), rng)
        state.commit_and_revoke(batch, decision)
        out = state.metrics.rounds[-1]
        assert state.counter.ball_sent.sum() == 100
        assert state.counter.ball_received.sum() == out.commits
        assert state.counter.bin_received.sum() == 100

    def test_empty_round_is_recorded(self, rng):
        """Empty request rounds (no active balls) flow through all
        three kernels without error."""
        state = RoundState(0, 4)
        batch = state.sample_contacts(rng)
        decision = state.group_and_accept(batch, np.full(4, 2), rng)
        state.commit_and_revoke(batch, decision)
        out = state.metrics.rounds[-1]
        assert out.commits == 0 and out.requests_sent == 0
        assert state.rounds == 1


class TestInitialLoads:
    """The residual-occupancy axis backing the dynamic subsystem."""

    def test_loads_start_at_residual(self):
        initial = np.array([3, 0, 7, 1], dtype=np.int64)
        state = RoundState(10, 4, initial_loads=initial)
        assert np.array_equal(state.loads, initial)
        assert np.array_equal(state.initial_loads, initial)
        assert state.active_count == 10

    def test_initial_loads_copied(self):
        initial = np.array([1, 2], dtype=np.int64)
        state = RoundState(5, 2, initial_loads=initial)
        initial[0] = 99
        assert state.loads[0] == 1
        assert state.initial_loads[0] == 1

    def test_placed_loads_is_delta(self, rng):
        initial = np.array([5, 5, 5, 5], dtype=np.int64)
        state = RoundState(20, 4, initial_loads=initial)
        batch = state.sample_contacts(rng)
        decision = state.group_and_accept(batch, np.full(4, 3), rng)
        state.commit_and_revoke(batch, decision)
        out = state.metrics.rounds[-1]
        assert state.placed_loads.sum() == out.commits
        assert np.array_equal(state.loads, initial + state.placed_loads)
        assert state.placed_loads.min() >= 0

    def test_placed_loads_alias_without_initial(self):
        state = RoundState(5, 2)
        assert state.placed_loads is state.loads

    def test_capacity_rule_respects_residents(self, rng):
        # A bin already at the cap never accepts.
        initial = np.array([4, 0], dtype=np.int64)
        state = RoundState(50, 2, initial_loads=initial)
        for _ in range(30):
            if state.active_count == 0:
                break
            cap = np.maximum(4 - state.loads, 0)
            batch = state.sample_contacts(rng)
            decision = state.group_and_accept(batch, cap, rng)
            state.commit_and_revoke(batch, decision)
        assert state.loads[0] == 4  # never exceeded its full start
        assert state.loads[1] <= 4

    def test_validation_shape(self):
        with pytest.raises(ValueError, match="shape"):
            RoundState(5, 4, initial_loads=np.zeros(3, dtype=np.int64))

    def test_validation_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            RoundState(5, 2, initial_loads=np.array([-1, 0]))

    def test_validation_dtype(self):
        with pytest.raises(ValueError, match="integer"):
            RoundState(5, 2, initial_loads=np.array([0.5, 1.0]))

    def test_trial_batched_broadcast(self):
        initial = np.array([2, 4, 6], dtype=np.int64)
        state = RoundState(
            9, 3, granularity="aggregate", trials=4, initial_loads=initial
        )
        assert state.loads.shape == (4, 3)
        for t in range(4):
            assert np.array_equal(state.loads[t], initial)

    def test_trial_batched_per_trial_matrix(self):
        initial = np.arange(6, dtype=np.int64).reshape(2, 3)
        state = RoundState(
            9, 3, granularity="aggregate", trials=2, initial_loads=initial
        )
        assert np.array_equal(state.loads, initial)
        with pytest.raises(ValueError, match="shape"):
            RoundState(
                9,
                3,
                granularity="aggregate",
                trials=2,
                initial_loads=np.zeros((3, 3), dtype=np.int64),
            )

    def test_trial_batched_rows_advance_from_residual(self):
        initial = np.array([[1, 0], [0, 5]], dtype=np.int64)
        state = RoundState(
            4, 2, granularity="aggregate", trials=2, initial_loads=initial
        )
        rngs = [np.random.default_rng(s) for s in (0, 1)]
        cap = np.full(2, 100, dtype=np.int64)
        while state.any_active and state.rounds < 10:
            batch = state.sample_contacts(rngs)
            decision = state.group_and_accept(batch, cap - state.loads)
            state.commit_and_revoke(batch, decision)
        assert np.array_equal(
            state.loads.sum(axis=1), initial.sum(axis=1) + 4
        )
