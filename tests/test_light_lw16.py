"""Tests for A_light (Theorem 5 guarantees)."""

import numpy as np
import pytest

from repro.fastpath.sampling import grouped_accept, sample_choices
from repro.light.lw16 import (
    LightConfig,
    run_light,
    run_light_batch,
    tower_schedule,
)
from repro.utils.logstar import log_star


class TestTowerSchedule:
    def test_growth(self):
        cap = 10**9
        assert tower_schedule(0, cap) == 1
        assert tower_schedule(1, cap) == 2
        assert tower_schedule(2, cap) == 4
        assert tower_schedule(3, cap) == 16
        assert tower_schedule(4, cap) == 65536

    def test_cap_respected(self):
        assert tower_schedule(4, 64) == 64
        assert tower_schedule(10, 64) == 64

    def test_negative_round(self):
        with pytest.raises(ValueError):
            tower_schedule(-1, 10)


class TestRunLight:
    @pytest.mark.parametrize("n", [64, 512, 4096])
    def test_theorem5_load_bound(self, n):
        out = run_light(n, n, seed=42)
        assert out.max_load <= 2
        assert out.loads.sum() == n

    @pytest.mark.parametrize("n", [256, 2048])
    def test_theorem5_round_bound(self, n):
        out = run_light(n, n, seed=7)
        assert out.rounds <= log_star(n) + 6
        assert not out.used_fallback

    @pytest.mark.parametrize("n", [256, 2048])
    def test_theorem5_message_bound(self, n):
        out = run_light(n, n, seed=7)
        # O(n) messages with a modest constant.
        assert out.total_messages <= 12 * n

    def test_assignment_consistent_with_loads(self):
        out = run_light(500, 500, seed=3)
        assert (out.assignment >= 0).all()
        recomputed = np.bincount(out.assignment, minlength=500)
        assert np.array_equal(recomputed, out.loads)

    def test_fewer_balls_than_bins(self):
        out = run_light(100, 1000, seed=1)
        assert out.loads.sum() == 100
        assert out.max_load <= 2

    def test_capacity_one(self):
        out = run_light(50, 200, seed=1, config=LightConfig(capacity=1))
        assert out.max_load <= 1
        assert out.loads.sum() == 50

    def test_over_capacity_rejected(self):
        with pytest.raises(ValueError, match="exceed total capacity"):
            run_light(1000, 100, seed=1)  # capacity 2*100 < 1000

    def test_exact_capacity_completes(self):
        # n_balls == capacity * n_bins forces the tightest packing; the
        # sweep fallback guarantees completion.
        out = run_light(64, 32, seed=5)
        assert out.loads.sum() == 64
        assert out.max_load <= 2

    def test_zero_balls(self):
        out = run_light(0, 10, seed=1)
        assert out.loads.sum() == 0
        assert out.rounds == 0

    def test_deterministic(self):
        a = run_light(1000, 1000, seed=11)
        b = run_light(1000, 1000, seed=11)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.total_messages == b.total_messages

    def test_ball_messages_tracked(self):
        out = run_light(800, 800, seed=2)
        assert out.ball_messages.shape == (800,)
        # every ball sends >= 1 request and receives >= 1 accept (+1
        # commit per accept): minimum 3 interactions on the happy path.
        assert out.ball_messages.min() >= 3
        assert out.ball_messages.sum() == out.total_messages

    def test_metrics_round_progression(self):
        out = run_light(2000, 2000, seed=8)
        hist = out.metrics.unallocated_history
        assert hist[0] == 2000
        assert all(a > b for a, b in zip(hist, hist[1:]))

    def test_round_budget_decay(self):
        """The unallocated count must collapse super-geometrically: by
        round 3 fewer than 2% of balls remain."""
        out = run_light(10_000, 10_000, seed=4)
        hist = out.metrics.unallocated_history + [0]
        if len(hist) > 3:
            assert hist[3] < 200


class TestLightConfig:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            run_light(10, 10, seed=1, config=LightConfig(capacity=0))

    @pytest.mark.parametrize(
        "field,value",
        [("max_contacts", 0), ("max_contacts", -3), ("capacity", 0)],
    )
    def test_invalid_values_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            LightConfig(**{field: value})

    def test_max_contacts_respected(self):
        """Per-round request count never exceeds max_contacts * active."""
        cfg = LightConfig(max_contacts=4)
        out = run_light(2000, 2000, seed=3, config=cfg)
        for r in out.metrics.rounds:
            assert r.requests_sent <= 4 * r.unallocated_start
        assert out.max_load <= 2

    def test_round_budget_slack_zero_falls_back_fast(self):
        """With no randomized budget the sweep fallback must engage and
        still satisfy the load cap."""
        cfg = LightConfig(round_budget_slack=-10)  # budget <= 0
        out = run_light(100, 100, seed=3, config=cfg)
        assert out.used_fallback
        assert out.max_load <= 2
        assert out.loads.sum() == 100


def reference_light(n_balls, n_bins, rng, config=LightConfig()):
    """``A_light`` as a plain one-trial loop over the public sampling
    primitives: the specification the lock-step kernel must reproduce
    bitwise, draw for draw."""
    caps = np.full(n_bins, config.capacity, dtype=np.int64)
    loads = np.zeros(n_bins, dtype=np.int64)
    assignment = np.full(n_balls, -1, dtype=np.int64)
    ball_messages = np.zeros(n_balls, dtype=np.int64)
    active = np.arange(n_balls)
    rows, messages, swept = [], 0, False
    budget = log_star(n_bins) + config.round_budget_slack
    while active.size and len(rows) < budget:
        k = tower_schedule(len(rows), min(config.max_contacts, n_bins))
        choices = sample_choices(active.size * k, n_bins, rng)
        accepted = grouped_accept(choices, caps - loads, rng).reshape(-1, k)
        won = accepted.any(axis=1)
        # First accepted request of each committing ball.
        bins = choices.reshape(-1, k)[won, accepted[won].argmax(axis=1)]
        np.add.at(loads, bins, 1)
        assignment[active[won]] = bins
        accepts = accepted.sum(axis=1)
        # k requests, then one accept and one commit/revoke notice per
        # accepted request.
        ball_messages[active] += k + 2 * accepts
        messages += active.size * k + 2 * int(accepts.sum())
        rows.append((len(rows), active.size, active.size * k,
                     int(accepts.sum()), int(won.sum()),
                     active.size - int(won.sum()), int(loads.max())))
        active = active[~won]
    if active.size:  # the sweep: fill residual capacity in bin order
        swept = True
        chosen = np.repeat(np.arange(n_bins), caps - loads)[: active.size]
        np.add.at(loads, chosen, 1)
        assignment[active] = chosen
        ball_messages[active] += 2
        messages += active.size
        rows.append((len(rows), active.size, active.size, active.size,
                     active.size, 0, int(loads.max())))
    return loads, assignment, ball_messages, len(rows), messages, rows, swept


def light_rows(outcome):
    return [
        (r.round_no, r.unallocated_start, r.requests_sent, r.accepts_sent,
         r.commits, r.unallocated_end, r.max_load)
        for r in outcome.metrics.rounds
    ]


def assert_same_outcome(a, b):
    assert np.array_equal(a.loads, b.loads)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.ball_messages, b.ball_messages)
    assert (a.rounds, a.total_messages) == (b.rounds, b.total_messages)
    assert light_rows(a) == light_rows(b)
    assert a.used_fallback == b.used_fallback


class TestRunLightBatch:
    """The lock-step kernel against the per-trial loop."""

    #: Ball and bin counts per trial.  Bins below ``max_contacts`` clamp
    #: a trial's ``k_r`` below its neighbours'; bin counts 3, 9, 20 and
    #: 300 sit on different ``log*`` steps, so budgets differ; trials at
    #: exact capacity (``balls == 2 * bins``) run out of budget.
    BALLS = [0, 6, 5, 18, 40, 100, 600, 2]
    BINS = [4, 3, 9, 9, 20, 64, 300, 1]

    @pytest.mark.parametrize("slack", [0, 1, 6])
    def test_matches_reference_loop(self, slack):
        config = LightConfig(max_contacts=8, round_budget_slack=slack)
        rngs = [np.random.default_rng(s) for s in range(len(self.BALLS))]
        batch = run_light_batch(self.BALLS, self.BINS, rngs, config=config)
        for t, out in enumerate(batch):
            loads, assignment, ball_messages, rounds, messages, rows, swept = (
                reference_light(
                    self.BALLS[t], self.BINS[t], np.random.default_rng(t),
                    config,
                )
            )
            assert np.array_equal(out.loads, loads), t
            assert np.array_equal(out.assignment, assignment), t
            assert np.array_equal(out.ball_messages, ball_messages), t
            assert (out.rounds, out.total_messages) == (rounds, messages), t
            assert light_rows(out) == rows, t
            assert out.used_fallback == swept, t
            assert_same_outcome(
                out,
                run_light(
                    self.BALLS[t], self.BINS[t], seed=t, config=config
                ),
            )

    def test_mixes_fallback_and_contact_counts(self):
        config = LightConfig(max_contacts=8, round_budget_slack=0)
        rngs = [np.random.default_rng(s) for s in range(len(self.BALLS))]
        batch = run_light_batch(self.BALLS, self.BINS, rngs, config=config)
        swept = [out.used_fallback for out in batch]
        assert any(swept) and not all(swept)
        budgets = {log_star(b) for b in self.BINS}
        assert len(budgets) > 2
        for out, n_bins in zip(batch, self.BINS):
            assert (out.assignment >= 0).all()
            assert np.array_equal(
                np.bincount(out.assignment, minlength=n_bins), out.loads
            )
            if not out.used_fallback:
                # One accept and one commit/revoke notice per accepted
                # request, on both sides of the ledger.
                assert out.ball_messages.sum() == out.total_messages

    def test_workload_matches_per_trial_calls(self):
        wl = "zipf:1.1+geomw:0.5+propcap"
        balls, bins = [300, 0, 45, 120], [200, 7, 30, 64]
        rngs = [np.random.default_rng(s) for s in range(4)]
        batch = run_light_batch(balls, bins, rngs, workload=wl)
        for t, out in enumerate(batch):
            alone = run_light(balls[t], bins[t], seed=t, workload=wl)
            assert_same_outcome(out, alone)
            assert np.array_equal(out.weighted_loads, alone.weighted_loads)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="per trial"):
            run_light_batch([1, 2], [4], [np.random.default_rng(0)] * 2)
