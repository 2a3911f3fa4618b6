"""The asymmetric superbin algorithm (Section 5, Theorem 3).

With globally known bin IDs, the algorithm groups bins into *superbins*
controlled by leader bins and allocates round-robin inside each
superbin, achieving max load ``m/n + O(1)`` within a **constant** number
of rounds w.h.p. while every bin receives only
``(1+o(1)) m/n + O(log n)`` messages.

Per round ``r`` (Section 5's numbered steps):

1. ``n_r = m_r * min(n/m, 1/log n)`` superbins, each with a leader;
   ``delta_r = c * sqrt((m_r/n_r) * log n)``;
   ``L_r = ceil(m_r/n_r - delta_r)`` if that exceeds ``2 c^2 log n``,
   else ``L_r = 4 c^2 log n`` (the terminal round).
2. Each active ball contacts the leader of a uniformly random superbin.
3. Leaders accept up to ``L_r`` requests and reply round-robin with
   member offsets ``j``.
4. A ball answered ``j`` by leader ``i`` informs member bin ``i - j``
   that it is allocated there.
5. If the terminal branch was taken, stop; else
   ``m_{r+1} = m_r - L_r n_r``.

Divisibility: the paper assumes ``n_r | n`` w.l.o.g. (footnote 6: one
superbin may be up to a factor 2 larger).  We partition the bins into
``n_r`` contiguous blocks whose sizes differ by at most one, which
realizes the same relaxation.

The parameters use the *scheduled* ``m_r`` (bins cannot observe the true
count), exactly as in the paper.  On the ``n^{-c}``-probability event
that balls remain after the terminal round, the implementation repeats
the terminal round until done (counted in ``rounds`` and reported via
``extra["cleanup_rounds"]``); Claim 10 guarantees this path is w.h.p.
never taken, and experiment T4 reports its observed frequency.

When ``m > n log n``, Theorem 3 prepends **one round of the symmetric
algorithm** to cut the active count to ``o(m)`` so that leader bins stay
within the message bound; ``run_asymmetric`` does this automatically
(disable with ``presymmetric=False``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api.spec import register_allocator
from repro.fastpath.roundstate import RoundState
from repro.result import AllocationResult
from repro.utils.seeding import RngFactory
from repro.utils.validation import check_mode, ensure_m_n
from repro.workloads import bind_workload

__all__ = ["AsymmetricConfig", "run_asymmetric", "superbin_blocks"]


@dataclass(frozen=True)
class AsymmetricConfig:
    """Tunables of the asymmetric algorithm.

    Attributes
    ----------
    c:
        The "sufficiently large constant" of Section 5.  It controls the
        concentration slack ``delta_r`` and the terminal threshold
        ``4 c^2 log n``.  The default 1.5 keeps terminal-round loads
        modest while making cleanup rounds (< 1 in 10^4 runs) rare.
    max_rounds:
        Safety cap (Claim 9 proves termination within 3 scheduled
        rounds; cleanup repeats add at most a few more).
    track_per_ball:
        Maintain the full per-ball/per-bin message counter.
    """

    c: float = 1.5
    max_rounds: int = 64
    track_per_ball: bool = True


def superbin_blocks(n: int, n_r: int) -> np.ndarray:
    """Block boundaries: ``n_r + 1`` offsets splitting ``n`` bins into
    ``n_r`` contiguous superbins with sizes differing by at most 1.

    ``blocks[s]`` is the leader (first bin) of superbin ``s``.
    """
    if not 1 <= n_r <= n:
        raise ValueError(f"need 1 <= n_r <= n, got n_r={n_r}, n={n}")
    return np.linspace(0, n, n_r + 1, dtype=np.int64)


def _schedule_params(
    m_sched: int, m_invoked: int, n: int, c: float
) -> tuple[int, float, int, bool]:
    """Round parameters ``(n_r, delta_r, L_r, terminal)`` from the
    scheduled ball count ``m_sched`` (paper step 2).

    Superbin count: ``n_r = m_r * min(n/m, 1/log n)`` with ``m`` the
    count at invocation — Section 5's design invariant that every leader
    expects ``~m/n`` messages in each non-terminal round.  The terminal
    branch triggers when either

    * ``ceil(m_r/n_r - delta_r) <= 2 c^2 log n`` (Claim 8's test), or
    * ``m_r <= n log n`` — the point where ``n/m_r = 1/log n`` makes the
      two branches of the ``min`` coincide; Claim 9's proof terminates
      exactly here (``m_3 = n log n``, ``m_3/n_3 = log n``).  Without
      this trigger the constant-mean recursion would test Claim 8
      against a round-independent mean and run ``omega(1)`` tail rounds.

    In the terminal round ``n_r = m_r / log n`` (each leader expects
    ``log n`` requests) and ``L_r = 4 c^2 log n``, whose slack absorbs
    the upper deviation (Claim 10).
    """
    log_n = math.log(max(n, 2))
    two_c2_logn = 2 * c * c * log_n
    ratio = min(n / m_invoked, 1.0 / log_n)
    n_r = max(1, min(n, int(round(m_sched * ratio))))
    mean = m_sched / n_r
    delta = c * math.sqrt(max(mean, 1.0) * log_n)
    candidate = math.ceil(mean - delta)
    if candidate > two_c2_logn and m_sched > n:
        return n_r, delta, candidate, False
    # Terminal round: superbins of ~log n expected requests each, with
    # block size clamped to >= log n so the per-member intake cap
    # L_r / block_size = 4 c^2 stays O(1) (the premise Claim 10 needs).
    n_term_cap = max(1, int(n // max(1.0, math.ceil(log_n))))
    n_term = max(1, min(n_term_cap, int(round(m_sched / log_n))))
    mean_term = m_sched / n_term
    delta_term = c * math.sqrt(max(mean_term, 1.0) * log_n)
    # The terminal intake bound must absorb the whole remainder in one
    # round w.h.p.: mean + 2 delta covers the upper deviation (Claim 10
    # uses 4 c^2 log n for the paper's mean of log n; the max() keeps
    # that form when m_sched/n_term ~ log n and scales it when the
    # estimate is still above n, where the paper's analysis is loose).
    l_term = max(
        math.ceil(4 * c * c * log_n),
        math.ceil(mean_term + 2 * delta_term),
    )
    return n_term, delta_term, l_term, True


def _waterfill_members(
    loads: np.ndarray,
    accepted_per_super: np.ndarray,
    blocks: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Distribute each superbin's accepted count over its members:
    ``floor(a_s / b_s)`` each plus the remainder to the lowest-loaded
    members (random tie-break).  Returns the per-bin intake vector.

    This water-filling is the paper's round-robin relaxed to unequal
    block sizes and loads (the equal-size round-robin is the special
    case of equal loads and equal blocks); it is the one protocol
    policy the asymmetric algorithm layers on top of the shared round
    kernels, used identically by the per-ball and aggregate modes.
    """
    n = loads.size
    n_r = len(blocks) - 1
    block_sizes = np.diff(blocks)
    base = accepted_per_super // block_sizes
    remainder = accepted_per_super % block_sizes
    block_of_bin = np.repeat(np.arange(n_r), block_sizes)
    # Bins grouped by block, lowest current load first (random
    # tie-break); contiguous blocks keep the grouping exact.
    sorted_bins = np.lexsort((rng.random(n), loads, block_of_bin))
    starts_b = np.concatenate(([0], np.cumsum(block_sizes)[:-1]))
    rank_in_block = np.arange(n) - np.repeat(starts_b, block_sizes)
    intake_sorted = base[block_of_bin] + (
        rank_in_block < remainder[block_of_bin]
    ).astype(np.int64)
    intake = np.zeros(n, dtype=np.int64)
    intake[sorted_bins] = intake_sorted
    return intake


@register_allocator(
    "asymmetric",
    summary="constant-round superbin algorithm for labelled bins",
    paper_ref="Theorem 3",
    aliases=("superbin", "asym"),
    modes=("perball", "aggregate"),
    config_type=AsymmetricConfig,
)
def run_asymmetric(
    m: int,
    n: int,
    *,
    seed=None,
    config: AsymmetricConfig = AsymmetricConfig(),
    presymmetric: Optional[bool] = None,
    mode: str = "perball",
    workload=None,
) -> AllocationResult:
    """Allocate ``m`` balls into ``n`` labelled bins (Theorem 3).

    Parameters
    ----------
    m, n:
        Instance size, ``m >= n`` (use ``run_light`` below that).
    seed:
        Reproducibility seed.
    config:
        Algorithm constants.
    presymmetric:
        Prepend one symmetric threshold round when ``m > n log n``
        (default: auto per Theorem 3's proof).
    mode:
        ``"perball"`` (exact per-ball accounting, ``m`` up to ~10^7) or
        ``"aggregate"`` (``O(n)`` per round via multinomial request
        counts — identical in distribution for loads/rounds/per-bin
        statistics; no per-ball counters).

    Both modes drive the same loop over the shared
    :class:`~repro.fastpath.roundstate.RoundState` kernels; the only
    protocol policies are the superbin schedule
    (:func:`_schedule_params`) and the member water-filling
    (:func:`_waterfill_members`).

    ``workload`` (optional :class:`repro.workloads.Workload` or spec
    string): balls pick a *bin* from the choice distribution and
    contact its superbin's leader, so skew concentrates requests on the
    superbins owning hot bins; the capacity profile scales each
    superbin's leader cap by its members' mean capacity factor; ball
    weights feed the weighted-load statistics (water-filling still
    balances ball *counts* — the leader's round-robin rule).  Uniform
    workloads are bitwise-identical to the historical run.

    Returns
    -------
    AllocationResult
        ``extra`` records ``scheduled_rounds``, ``cleanup_rounds``,
        ``presymmetric_used`` and the per-round ``(n_r, L_r)`` schedule
        (plus ``bin_received_max`` in aggregate mode).
    """
    check_mode(mode)
    m, n = ensure_m_n(m, n, require_heavy=True)
    perball = mode == "perball"
    factory = RngFactory(seed)
    wl = bind_workload(workload, m, n, factory, granularity=mode)
    label = "asym" if perball else "asym-agg"
    rng = factory.stream(label, "choices")
    accept_rng = factory.stream(label, "accept")

    state = RoundState(
        m,
        n,
        granularity=mode,
        track_messages=perball and config.track_per_ball,
        weights=wl.weights,
        weight_sum_sampler=wl.weight_sum_sampler,
    )
    # Aggregate mode has no per-ball counter; per-bin receives are the
    # statistic Theorem 3 bounds, so track them directly.
    bin_received = None if perball else np.zeros(n, dtype=np.int64)
    schedule_log: list[tuple[int, int]] = []

    log_n = math.log(max(n, 2))
    use_pre = presymmetric if presymmetric is not None else (m > n * log_n)
    presym_t0 = 0

    if use_pre and m > n:
        # One round of the symmetric algorithm: threshold
        # T_0 = m/n - (m/n)^(2/3); w.h.p. every bin fills to exactly T_0.
        t0 = max(0, math.floor(m / n - (m / n) ** (2.0 / 3.0)))
        presym_t0 = t0
        batch = state.sample_contacts(rng, pvals=wl.sampler)
        if wl.capacity_scale is None:
            presym_caps = np.full(n, t0, dtype=np.int64)
        else:
            presym_caps = wl.capacities(t0)
        decision = state.group_and_accept(batch, presym_caps, accept_rng)
        if bin_received is not None:
            bin_received += batch.counts
        state.commit_and_revoke(batch, decision, threshold=t0)

    # Scheduled superbin rounds.  m_sched follows the paper's recursion —
    # bins cannot observe the true active count.  After the presymmetric
    # round the schedule value is m - T_0 * n (= m̃_1, exact w.h.p. by
    # Claim 2); the true count may deviate on low-probability events,
    # which the terminal round's delta-margin absorbs.
    if use_pre and m > n:
        m_sched = max(state.active_count, m - presym_t0 * n)
    else:
        m_sched = state.active_count
    m_invoked = max(m_sched, 1)  # the asymmetric instance's own "m"
    scheduled_rounds = 0
    cleanup_rounds = 0
    terminal_seen = False

    while state.active_count > 0 and state.rounds < config.max_rounds:
        n_r, _delta, l_r, terminal = _schedule_params(
            max(m_sched, 1), m_invoked, n, config.c
        )
        if terminal_seen:
            # Cleanup repeat of the terminal round (off-schedule).
            cleanup_rounds += 1
        else:
            scheduled_rounds += 1
        schedule_log.append((n_r, l_r))
        blocks = superbin_blocks(n, n_r)
        leaders = blocks[:-1]
        block_sizes = np.diff(blocks)
        # Step 4: leaders accept up to L_r scaled by block size (the
        # factor-2 relaxation of footnote 6: per-member intake stays
        # uniform when blocks differ in size) and, under a workload
        # capacity profile, by the block's mean capacity factor.
        avg_block = n / n_r
        if wl.capacity_scale is None:
            caps = np.ceil(l_r * block_sizes / avg_block).astype(np.int64)
        else:
            block_scale = (
                np.add.reduceat(wl.capacity_scale, blocks[:-1]) / block_sizes
            )
            caps = np.ceil(
                l_r * block_sizes / avg_block * block_scale
            ).astype(np.int64)

        if perball:
            # Step 3: each active ball samples a *bin* (uniform, or the
            # workload's choice distribution) and contacts the leader of
            # that bin's superbin.  With bin IDs globally known
            # (asymmetric model) this is computable locally, makes the
            # per-superbin request rate proportional to block size (or
            # traffic share), and degenerates to the paper's
            # uniform-superbin choice in the divisible case n_r | n.
            bin_pick = state.sample_contacts(rng, pvals=wl.sampler)
            superbin_choice = (
                np.searchsorted(blocks, bin_pick.choices, side="right") - 1
            )
            batch = state.sample_contacts(targets=superbin_choice, n_targets=n_r)
            decision = state.group_and_accept(batch, caps, accept_rng)
            accepted = decision.accepted
            k = decision.accepts_sent
            if k:
                acc_super = superbin_choice[accepted]
                a_per_super = np.bincount(acc_super, minlength=n_r)
                intake = _waterfill_members(
                    state.loads, a_per_super, blocks, accept_rng
                )
                # Member slots sorted by bin index are also grouped by
                # superbin (blocks are contiguous); hand each accepted
                # ball a slot of *its own* superbin by grouping the
                # accepted balls the same way, then restoring ball
                # order — commit_and_revoke pairs ``target_bins``
                # positionally with the committed balls (weighted-load
                # and assignment accounting rely on that alignment).
                slots = np.repeat(np.arange(n), intake)
                by_super = np.argsort(acc_super, kind="stable")
                member_bins = np.empty(k, dtype=np.int64)
                member_bins[by_super] = slots
            else:
                member_bins = np.zeros(0, dtype=np.int64)
            if state.counter is not None:
                # Messages: request (ball->leader), response
                # (leader->ball), allocation notice (ball->member bin;
                # sent even when member is the leader itself, matching
                # step 5's unconditional inform).  Contacts live in
                # superbin space, so the protocol records these itself.
                balls = state.active
                leader_of_ball = leaders[superbin_choice]
                accepted_ball_ids = balls[accepted]
                state.counter.record_bulk_ball_to_bin(leader_of_ball, balls)
                state.counter.record_bulk_bin_to_ball(
                    leader_of_ball[accepted], accepted_ball_ids
                )
                state.counter.record_bulk_ball_to_bin(
                    member_bins, accepted_ball_ids
                )
            state.commit_and_revoke(
                batch,
                decision,
                threshold=l_r,
                target_bins=member_bins,
                accept_cost=2,
                record_counter=False,
            )
        else:
            # Requests per superbin: balls pick a bin (uniform or
            # workload-skewed), hence a superbin with probability equal
            # to its members' total traffic share (block_size/n when
            # uniform).
            if wl.pvals is None:
                super_pvals = block_sizes / n
            else:
                super_pvals = np.add.reduceat(wl.pvals, blocks[:-1])
            batch = state.sample_contacts(rng, n_targets=n_r, pvals=super_pvals)
            decision = state.group_and_accept(batch, caps)
            intake = _waterfill_members(
                state.loads, decision.accepted_per_bin, blocks, accept_rng
            )
            # Message accounting: requests land at leaders; responses
            # and allocation notices at members.
            np.add.at(bin_received, leaders, batch.counts)
            bin_received += intake
            state.commit_and_revoke(
                batch,
                decision,
                threshold=l_r,
                target_counts=intake,
                accept_cost=2,
            )

        if terminal:
            terminal_seen = True
            # Scheduled recursion ends here; leftover balls trigger
            # cleanup repeats.  The schedule keeps decrementing so the
            # cleanup superbin count tracks the shrinking estimate; if
            # the estimate bottoms out while balls remain (probability
            # n^{-c} events), fall back to the true count — modeled as
            # leaders reporting their rejection totals upward, one extra
            # round already counted in the loop.
            m_sched = max(0, m_sched - l_r * n_r)
            if m_sched == 0 and state.active_count > 0:
                m_sched = state.active_count
        else:
            m_sched = max(0, m_sched - l_r * n_r)

    if state.active_count > 0:
        raise RuntimeError(
            f"asymmetric algorithm exceeded max_rounds={config.max_rounds} "
            f"with {state.active_count} balls left"
        )

    extra: dict = {
        "scheduled_rounds": scheduled_rounds,
        "cleanup_rounds": cleanup_rounds,
        "presymmetric_used": bool(use_pre),
        "schedule": schedule_log,
    }
    if bin_received is not None:
        extra["bin_received_max"] = int(bin_received.max(initial=0))
    workload_record = wl.extra_record(state.weighted_loads)
    if workload_record is not None:
        extra["workload"] = workload_record

    return AllocationResult(
        algorithm="asymmetric",
        m=m,
        n=n,
        loads=state.loads,
        rounds=state.rounds,
        metrics=state.metrics,
        messages=state.counter,
        total_messages=state.total_messages,
        seed_entropy=factory.root_entropy,
        extra=extra,
    )
