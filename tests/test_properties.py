"""Property-based tests (hypothesis) on the core invariants.

Each property is an invariant the paper's model demands of *any*
allocation, checked over randomly drawn instances:

* conservation: loads sum to the number of allocated balls;
* cap-respect: accept kernels never exceed capacity;
* schedule monotonicity and integrality;
* determinism: equal seeds produce equal outcomes;
* simulation faithfulness (Lemma 2) over random thresholds.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import PaperSchedule, run_heavy, run_trivial
from repro.core.asymmetric import superbin_blocks
from repro.fastpath.sampling import grouped_accept, multinomial_occupancy
from repro.light import run_light
from repro.lowerbound.adversary import uniform_adversary
from repro.lowerbound.simulate_degree import (
    run_degree_d_direct,
    run_degree_d_simulated,
)

COMMON = settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


@COMMON
@given(
    n=st.integers(2, 128),
    ratio=st.integers(1, 64),
    seed=st.integers(0, 2**31),
)
def test_heavy_conservation_and_cap(n, ratio, seed):
    m = n * ratio
    res = run_heavy(m, n, seed=seed)
    assert res.complete
    assert res.loads.sum() == m
    assert res.loads.min() >= 0
    # O(1) gap with a generous constant (small-n instances are noisier;
    # the virtual-bin factor contributes up to 2g).
    assert res.gap <= 14.0


@COMMON
@given(
    n=st.integers(1, 64),
    m=st.integers(1, 4000),
    seed=st.integers(0, 2**31),
)
def test_trivial_always_perfect(n, m, seed):
    res = run_trivial(m, n, seed=seed)
    assert res.complete
    assert res.max_load == -(-m // n)  # ceil
    assert res.rounds <= n


@COMMON
@given(
    n_balls=st.integers(0, 500),
    n_bins=st.integers(1, 500),
    seed=st.integers(0, 2**31),
)
def test_light_never_exceeds_capacity(n_balls, n_bins, seed):
    if n_balls > 2 * n_bins:
        return  # outside the protocol's contract
    out = run_light(n_balls, n_bins, seed=seed)
    assert out.loads.max(initial=0) <= 2
    assert out.loads.sum() == n_balls


@COMMON
@given(
    k=st.integers(0, 2000),
    n=st.integers(1, 50),
    cap=st.integers(0, 100),
    seed=st.integers(0, 2**31),
)
def test_grouped_accept_cap_invariant(k, n, cap, seed):
    rng = np.random.default_rng(seed)
    choices = rng.integers(0, n, size=k)
    capacity = rng.integers(0, cap + 1, size=n)
    mask = grouped_accept(choices, capacity, rng)
    per_bin = np.bincount(choices[mask], minlength=n)
    assert (per_bin <= capacity).all()
    # accepted count is maximal: a bin with requests and spare capacity
    # must accept min(requests, capacity).
    req = np.bincount(choices, minlength=n)
    assert (per_bin == np.minimum(req, capacity)).all()


@COMMON
@given(
    k=st.integers(0, 10**6),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**31),
)
def test_multinomial_occupancy_conserves(k, n, seed):
    rng = np.random.default_rng(seed)
    counts = multinomial_occupancy(k, n, rng)
    assert counts.sum() == k
    assert counts.min() >= 0


@COMMON
@given(
    n=st.integers(2, 256),
    exponent=st.integers(1, 40),
)
def test_paper_schedule_invariants(n, exponent):
    m = n * 2**exponent
    sched = PaperSchedule(m, n)
    rounds = sched.phase1_rounds()
    prev = -1
    for i in range(rounds):
        t = sched.threshold(i)
        assert isinstance(t, int)
        assert t >= prev  # monotone
        assert t <= m // n  # never above the mean
        prev = t
    # estimates decrease to the stop region
    assert sched.estimate(rounds) <= 2 * n


@COMMON
@given(
    n=st.integers(1, 200),
    n_r=st.integers(1, 200),
)
def test_superbin_blocks_partition(n, n_r):
    if n_r > n:
        return
    blocks = superbin_blocks(n, n_r)
    sizes = np.diff(blocks)
    assert sizes.sum() == n
    assert sizes.min() >= 1
    assert sizes.max() - sizes.min() <= 1


@COMMON
@given(
    seed=st.integers(0, 2**31),
    d=st.integers(1, 3),
)
def test_lemma2_simulation_property(seed, d):
    """Random-seeded Lemma 2 equivalence over a fixed schedule."""
    thresholds = [4, 6, 7, 9]
    direct = run_degree_d_direct(512, 64, d, thresholds, seed=seed)
    sim = run_degree_d_simulated(512, 64, d, thresholds, seed=seed)
    assert np.array_equal(direct.loads, sim.loads)
    assert sim.rounds == d * direct.rounds


@COMMON
@given(
    m_balls=st.integers(100, 10**5),
    n=st.integers(2, 128),
    extra=st.integers(0, 500),
    seed=st.integers(0, 2**31),
)
def test_adversary_budget_property(m_balls, n, extra, seed):
    rng = np.random.default_rng(seed)
    thresholds = uniform_adversary.thresholds(m_balls, n, extra, rng)
    assert thresholds.sum() == m_balls + extra
    assert thresholds.min() >= 0


@COMMON
@given(seed=st.integers(0, 2**31))
def test_determinism_property(seed):
    a = run_heavy(20_000, 64, seed=seed)
    b = run_heavy(20_000, 64, seed=seed)
    assert np.array_equal(a.loads, b.loads)
    assert a.total_messages == b.total_messages
    assert a.rounds == b.rounds


@COMMON
@given(
    n=st.integers(4, 128),
    ratio=st.integers(2, 256),
    seed=st.integers(0, 2**31),
)
def test_asymmetric_invariants(n, ratio, seed):
    from repro.core import run_asymmetric

    m = n * ratio
    res = run_asymmetric(m, n, seed=seed)
    assert res.complete
    assert res.loads.sum() == m
    # O(1) rounds with an absolute ceiling, O(1)-ish gap with slack for
    # tiny instances where log n terms dominate.
    assert res.rounds <= 10
    assert res.gap <= 6 + 2 * np.log(n)


@COMMON
@given(
    seed=st.integers(0, 2**31),
    crash=st.floats(0.0, 0.2),
    loss=st.floats(0.0, 0.3),
)
def test_faulty_conservation_property(seed, crash, loss):
    from repro.core import run_heavy_faulty

    m, n = 10_000, 64
    res = run_heavy_faulty(
        m, n, seed=seed, crash_prob=crash, loss_prob=loss
    )
    # Conservation under faults: placed + crashed + stragglers == m,
    # and every surviving ball is placed at most once.
    assert res.loads.sum() + res.unallocated == m
    assert res.loads.min() >= 0
    assert res.extra["crashed"] <= res.unallocated


@COMMON
@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**31),
)
def test_multicontact_invariants(d, seed):
    from repro.core import run_heavy_multicontact

    m, n = 8192, 64
    res = run_heavy_multicontact(m, n, d, seed=seed)
    assert res.complete
    assert res.loads.sum() == m
    assert res.gap <= 14.0


# -- trial-batched kernel invariants ------------------------------------


def _aggregate_loop(state, rng_or_rngs, cap, max_rounds=60):
    """Drive an aggregate RoundState (scalar or batched) to completion."""
    while state.any_active and state.rounds < max_rounds:
        batch = state.sample_contacts(rng_or_rngs)
        decision = state.group_and_accept(batch, cap - state.loads)
        state.commit_and_revoke(batch, decision, threshold=None)
    return state


@COMMON
@given(
    n=st.integers(2, 96),
    ratio=st.integers(1, 40),
    slack=st.integers(1, 8),
    seed=st.integers(0, 2**31),
)
def test_trial_axis_t1_batched_is_bitwise_unbatched(n, ratio, slack, seed):
    """A trials=1 batched state is the scalar aggregate state, bitwise."""
    from repro.fastpath.roundstate import RoundState

    m = n * ratio
    cap = np.full(n, ratio + slack, dtype=np.int64)
    root = np.random.SeedSequence(seed)
    scalar = _aggregate_loop(
        RoundState(m, n, granularity="aggregate"),
        np.random.default_rng(root),
        cap,
    )
    batched = _aggregate_loop(
        RoundState(m, n, granularity="aggregate", trials=1),
        [np.random.default_rng(root)],
        cap,
    )
    assert np.array_equal(batched.loads[0], scalar.loads)
    assert batched.trial_rounds[0] == scalar.rounds
    assert batched.total_messages[0] == scalar.total_messages
    assert len(batched.trial_metrics[0].rounds) == len(scalar.metrics.rounds)


@COMMON
@given(
    n=st.integers(2, 64),
    ratio=st.integers(1, 30),
    seed=st.integers(0, 2**31),
)
def test_trial_permutation_invariance(n, ratio, seed):
    """Permuting the per-trial generators permutes the result rows."""
    from repro.fastpath.roundstate import RoundState

    m = n * ratio
    trials = 5
    cap = np.full(n, ratio + 1, dtype=np.int64)
    children = np.random.SeedSequence(seed).spawn(trials)
    perm = np.random.default_rng(seed).permutation(trials)

    direct = _aggregate_loop(
        RoundState(m, n, granularity="aggregate", trials=trials),
        [np.random.default_rng(c) for c in children],
        cap,
    )
    permuted = _aggregate_loop(
        RoundState(m, n, granularity="aggregate", trials=trials),
        [np.random.default_rng(children[p]) for p in perm],
        cap,
    )
    assert np.array_equal(permuted.loads, direct.loads[perm])
    assert np.array_equal(permuted.trial_rounds, direct.trial_rounds[perm])
    assert np.array_equal(
        permuted.total_messages, direct.total_messages[perm]
    )


@COMMON
@given(
    n=st.integers(2, 48),
    ratio=st.integers(2, 24),
    seed=st.integers(0, 2**31),
)
def test_masked_trial_isolation(n, ratio, seed):
    """A finished trial's state never changes again, and its generator
    is never consumed again."""
    from repro.fastpath.roundstate import RoundState

    m = n * ratio
    trials = 4
    cap = np.full(n, ratio + 1, dtype=np.int64)
    children = np.random.SeedSequence(seed).spawn(trials)
    rngs = [np.random.default_rng(c) for c in children]
    state = RoundState(m, n, granularity="aggregate", trials=trials)
    frozen: dict[int, tuple] = {}
    while state.any_active and state.rounds < 60:
        batch = state.sample_contacts(rngs)
        decision = state.group_and_accept(batch, cap - state.loads)
        state.commit_and_revoke(batch, decision, threshold=None)
        for t in range(trials):
            if t in frozen:
                loads, msgs, rounds, n_rows = frozen[t]
                assert np.array_equal(state.loads[t], loads), t
                assert state.total_messages[t] == msgs
                assert state.trial_rounds[t] == rounds
                assert len(state.trial_metrics[t].rounds) == n_rows
            elif state.active_counts[t] == 0:
                frozen[t] = (
                    state.loads[t].copy(),
                    int(state.total_messages[t]),
                    int(state.trial_rounds[t]),
                    len(state.trial_metrics[t].rounds),
                )
    # Generator isolation: each trial's stream advanced exactly as far
    # as a solo run of that trial would have — the next draw matches.
    for t in range(trials):
        solo_rng = np.random.default_rng(children[t])
        solo = _aggregate_loop(
            RoundState(m, n, granularity="aggregate"), solo_rng, cap
        )
        assert np.array_equal(state.loads[t], solo.loads)
        assert rngs[t].integers(1 << 30) == solo_rng.integers(1 << 30), t


@COMMON
@given(
    k=st.integers(0, 3000),
    n=st.integers(1, 128),
    trials=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
def test_multinomial_occupancy_batched_rowwise_bitwise(k, n, trials, seed):
    from repro.fastpath.sampling import (
        multinomial_occupancy,
        multinomial_occupancy_batched,
    )

    children = np.random.SeedSequence(seed).spawn(trials)
    ks = np.full(trials, k, dtype=np.int64)
    counts = multinomial_occupancy_batched(
        ks, n, [np.random.default_rng(c) for c in children]
    )
    assert counts.shape == (trials, n)
    assert np.all(counts.sum(axis=1) == k)
    for t in range(trials):
        solo = multinomial_occupancy(k, n, np.random.default_rng(children[t]))
        assert np.array_equal(counts[t], solo)


@COMMON
@given(
    k=st.integers(1, 2000),
    n=st.integers(1, 64),
    cap=st.integers(1, 50),
    seed=st.integers(0, 2**31),
)
def test_grouped_accept_with_priorities_matches_grouped_accept(
    k, n, cap, seed
):
    from repro.fastpath.sampling import (
        grouped_accept,
        grouped_accept_with_priorities,
    )

    rng = np.random.default_rng(seed)
    choices = rng.integers(0, n, size=k, dtype=np.int64)
    capacity = rng.integers(0, cap, size=n, dtype=np.int64)
    if capacity.max(initial=0) == 0:
        capacity[0] = 1
    draw_rng = np.random.default_rng(seed + 1)
    expected = grouped_accept(choices, capacity, draw_rng)
    priorities = np.random.default_rng(seed + 1).random(k)
    got = grouped_accept_with_priorities(choices, capacity, priorities)
    assert np.array_equal(got, expected)


# -- residual-load (dynamic) kernel invariants ---------------------------
#
# These sit alongside the masked-trial isolation tests because they pin
# the same kind of contract: state the kernels must NOT touch (finished
# trials there, saturated schedules here) consumes no randomness.


class _TwoPhaseSchedule:
    """Test schedule: ``prefix`` rounds at ``low``, then ``high``."""

    def __init__(self, prefix: int, low: int, high: int, rounds: int):
        self.prefix, self.low, self.high = prefix, low, high
        self._rounds = rounds

    def threshold(self, i: int) -> int:
        return self.low if i < self.prefix else self.high

    def phase1_rounds(self) -> int:
        return self._rounds


@COMMON
@given(
    n=st.integers(2, 48),
    ratio=st.integers(1, 16),
    seed=st.integers(0, 2**31),
)
def test_saturated_initial_loads_terminate_with_zero_draws(n, ratio, seed):
    """All bins pre-saturated via initial_loads: the threshold protocol
    must terminate immediately — zero executed rounds, zero messages,
    zero RNG draws (regression for the dynamic incremental loop)."""
    from repro.core.heavy import run_threshold_protocol
    from repro.utils.seeding import RngFactory

    m = n * ratio
    threshold = 5
    saturated = np.full(n, threshold + 3, dtype=np.int64)
    outcome = run_threshold_protocol(
        m,
        n,
        _TwoPhaseSchedule(4, threshold, threshold, 4),
        rng_factory=RngFactory(seed),
        mode="aggregate",
        initial_loads=saturated,
    )
    assert outcome.rounds == 0
    assert outcome.total_messages == 0
    assert outcome.remaining == m
    assert outcome.thresholds == []
    assert len(outcome.metrics.rounds) == 0
    assert np.array_equal(outcome.loads, saturated)


@COMMON
@given(
    n=st.integers(2, 48),
    ratio=st.integers(1, 16),
    prefix=st.integers(1, 5),
    seed=st.integers(0, 2**31),
)
def test_saturated_prefix_consumes_no_stream(n, ratio, prefix, seed):
    """Skipped saturated rounds draw nothing: a schedule with a
    saturated prefix is bitwise-identical to one without it."""
    from repro.core.heavy import run_threshold_protocol
    from repro.utils.seeding import RngFactory

    m = n * ratio
    base = np.full(n, 3, dtype=np.int64)
    high = 3 + 2 * ratio + 4
    with_prefix = run_threshold_protocol(
        m,
        n,
        _TwoPhaseSchedule(prefix, 2, high, prefix + 6),
        rng_factory=RngFactory(seed),
        mode="aggregate",
        initial_loads=base,
    )
    without = run_threshold_protocol(
        m,
        n,
        _TwoPhaseSchedule(0, 2, high, 6),
        rng_factory=RngFactory(seed),
        mode="aggregate",
        initial_loads=base,
    )
    assert np.array_equal(with_prefix.loads, without.loads)
    assert with_prefix.rounds == without.rounds
    assert with_prefix.total_messages == without.total_messages


@COMMON
@given(
    n=st.integers(2, 64),
    ratio=st.integers(1, 30),
    residual=st.integers(0, 20),
    seed=st.integers(0, 2**31),
)
def test_initial_loads_trial_batched_matches_scalar(n, ratio, residual, seed):
    """initial_loads composes with trials=T: a batched trial with a
    residual occupancy is bitwise the scalar run with that residual."""
    from repro.fastpath.roundstate import RoundState

    m = n * ratio
    rng = np.random.default_rng(seed)
    initial = rng.integers(0, residual + 1, size=n).astype(np.int64)
    cap = np.full(n, int(initial.max()) + ratio + 1, dtype=np.int64)
    root = np.random.SeedSequence(seed)
    scalar = _aggregate_loop(
        RoundState(
            m, n, granularity="aggregate", initial_loads=initial
        ),
        np.random.default_rng(root),
        cap,
    )
    batched = _aggregate_loop(
        RoundState(
            m,
            n,
            granularity="aggregate",
            trials=1,
            initial_loads=initial,
        ),
        [np.random.default_rng(root)],
        cap,
    )
    assert np.array_equal(batched.loads[0], scalar.loads)
    assert batched.total_messages[0] == scalar.total_messages
    assert scalar.loads.sum() == initial.sum() + m
