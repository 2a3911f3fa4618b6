"""Vectorized collision protocol implementing Theorem 5's guarantees.

Protocol (per synchronous round ``r``, with tower schedule
``k_1 = 1, k_{r+1} = min(2^{k_r}, cap)``):

1. every unallocated ball sends requests to ``k_r`` bins chosen
   uniformly and independently at random;
2. every bin with residual capacity ``c > 0`` accepts up to ``c`` of the
   requests it received, chosen uniformly at random (adversarial port
   order is immaterial for a uniformly random choice);
3. every ball that received at least one accept commits to one acceptor
   (uniformly among them) and revokes the rest, freeing that capacity
   for the next round.

Why this meets Theorem 5's bounds (empirically verified in experiment
T7): the number of unallocated balls after a round with contact count
``k`` drops from ``u`` to roughly ``u * (u k / n)^k`` — iterating with a
tower-growing ``k`` empties the system in ``log* n + O(1)`` rounds, and
the total number of requests is dominated by the first round's ``n``
plus a geometrically decaying tail, i.e. ``O(n)``.

A deterministic *sweep* fallback guards liveness: if the randomized
rounds exceed their budget (probability ``n^{-c}``), remaining balls are
allocated by scanning bins in index order — the trivial ``n``-round
algorithm of Section 3's success-probability note.  The fallback
preserves the load cap whenever total residual capacity suffices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from repro.api.spec import register_allocator
from repro.fastpath.backend import resolve_backend
from repro.fastpath.sampling import sample_choices
from repro.simulation.metrics import RoundMetrics, RunMetrics
from repro.telemetry import current_telemetry
from repro.utils.logstar import log_star
from repro.utils.seeding import RngFactory, as_generator
from repro.utils.validation import check_positive_int
from repro.workloads import BoundWorkload, as_workload

__all__ = [
    "LightConfig",
    "LightOutcome",
    "run_light",
    "run_light_allocation",
    "run_light_batch",
    "tower_schedule",
]


@dataclass(frozen=True)
class LightConfig:
    """Tunables of the light-load protocol.

    Attributes
    ----------
    capacity:
        Per-bin load cap (Theorem 5 guarantees 2); at least 1.
    max_contacts:
        Upper clamp on the per-round contact count ``k_r`` (memory
        guard; the tower schedule reaches it only in the final round);
        at least 1.
    round_budget_slack:
        Extra randomized rounds beyond ``log* n`` before the
        deterministic sweep fallback engages.  May be negative: a
        budget of zero or less sends every ball to the sweep.

    Invalid values raise :class:`ValueError` at construction.
    """

    capacity: int = 2
    max_contacts: int = 64
    round_budget_slack: int = 6

    def __post_init__(self) -> None:
        check_positive_int(self.capacity, "capacity")
        check_positive_int(self.max_contacts, "max_contacts")


@dataclass
class LightOutcome:
    """Result of a light-protocol run on its own bin space."""

    loads: np.ndarray
    assignment: np.ndarray  # ball -> bin
    rounds: int
    total_messages: int
    metrics: RunMetrics
    used_fallback: bool
    ball_messages: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Per-bin weighted intake (None for unit-weight workloads).
    weighted_loads: Optional[np.ndarray] = None

    @property
    def max_load(self) -> int:
        return int(self.loads.max(initial=0))


def tower_schedule(round_index: int, cap: int) -> int:
    """Contact count ``k_r`` for 0-based round ``r``:
    ``k_0 = 1`` and ``k_{r+1} = min(2^{k_r}, cap)``."""
    if round_index < 0:
        raise ValueError(f"round_index must be >= 0, got {round_index}")
    k = 1
    for _ in range(round_index):
        if k >= 30:  # 2**30 exceeds any practical cap
            return cap
        k = min(2**k, cap)
    return min(k, cap)


def run_light(
    n_balls: int,
    n_bins: int,
    *,
    seed=None,
    config: LightConfig = LightConfig(),
    workload=None,
) -> LightOutcome:
    """Allocate ``n_balls`` balls into ``n_bins`` bins, load <= capacity.

    The one-trial call of :func:`run_light_batch`.

    Parameters
    ----------
    n_balls, n_bins:
        Instance size; requires ``n_balls <= total capacity`` (the
        protocol cannot exceed total capacity).
    seed:
        Anything accepted by :func:`numpy.random.default_rng`, or an
        existing Generator.
    config:
        Protocol tunables.
    workload:
        Optional :class:`repro.workloads.Workload` (or spec string):
        skewed contact distribution, per-bin capacities scaled by the
        capacity profile (total must still cover ``n_balls``), and
        weighted-load tracking.  ``run_light`` takes a single
        Generator, so workload weights draw from it up front — uniform
        workloads draw nothing and stay bitwise-identical.

    Returns
    -------
    LightOutcome
        Final loads over the ``n_bins`` bins, the ball-to-bin
        assignment, and accounting.
    """
    (outcome,) = run_light_batch(
        [n_balls],
        [n_bins],
        [as_generator(seed)],
        config=config,
        workload=workload,
    )
    return outcome


def run_light_batch(
    n_balls: Sequence[int],
    n_bins: Sequence[int],
    rngs: Sequence[np.random.Generator],
    *,
    config: LightConfig = LightConfig(),
    workload=None,
) -> list[LightOutcome]:
    """Run ``A_light`` for ``T`` independent trials in one lock-step pass.

    Trial ``t`` places ``n_balls[t]`` balls into its own ``n_bins[t]``
    bins and draws only from ``rngs[t]``, in :func:`run_light`'s order:
    workload weights (if any) before its first round, then contacts and
    priorities each round, then nothing once it empties or spends its
    ``log*(n_bins[t]) + round_budget_slack`` budget.  Outcome ``t`` is
    therefore bitwise-identical to ``run_light(n_balls[t], n_bins[t],
    seed=rngs[t], ...)``.

    The trials share one composite bin space: trial ``t``'s bin ``v`` is
    composite bin ``offset_t + v``.  Bins of different trials never
    meet, and concatenating the trials' requests in trial order keeps
    each trial's request order, so a single grouping call per round
    resolves every trial exactly as its own call would (ties break by
    request index).  Per-trial commits, messages and metrics rows are
    segment reductions over that space.

    ``workload`` is one spec shared by the trials; each trial binds its
    choice distribution and capacity profile at its own bin count.
    """
    sizes = [check_positive_int(b, "n_balls", minimum=0) for b in n_balls]
    spaces = [check_positive_int(b, "n_bins") for b in n_bins]
    trials = len(sizes)
    if len(spaces) != trials or len(rngs) != trials:
        raise ValueError(
            f"need one bin count and one generator per trial: got "
            f"{trials} ball counts, {len(spaces)} bin counts and "
            f"{len(rngs)} generators"
        )
    bin_offsets = np.array([0, *accumulate(spaces)], dtype=np.int64)
    ball_offsets = np.array([0, *accumulate(sizes)], dtype=np.int64)
    caps = np.full(int(bin_offsets[-1]), config.capacity, dtype=np.int64)
    totals = [config.capacity * b for b in spaces]
    choice_samplers: list = [None] * trials
    weights = None
    wl_spec = as_workload(workload)
    if wl_spec is not None:
        weight_parts = []
        for t in range(trials):
            wl = BoundWorkload(
                spec=wl_spec,
                pvals=wl_spec.pvals(spaces[t]),
                capacity_scale=wl_spec.capacity_scale(spaces[t]),
            )
            choice_samplers[t] = wl.sampler
            if wl.capacity_scale is not None:
                part = wl.capacities(config.capacity)
                caps[bin_offsets[t] : bin_offsets[t + 1]] = part
                totals[t] = int(part.sum())
            if wl_spec.weight != "unit":
                weight_parts.append(
                    wl_spec.sample_weights(sizes[t], rngs[t])
                )
        if weight_parts:
            weights = np.concatenate(weight_parts)
    for t in range(trials):
        if sizes[t] > totals[t]:
            raise ValueError(
                f"{sizes[t]} balls exceed total capacity {totals[t]} "
                f"(capacity {config.capacity} over {spaces[t]} bins)"
            )

    loads = np.zeros(caps.size, dtype=np.int64)
    weighted_loads = None if weights is None else np.zeros(caps.size)
    total_balls = int(ball_offsets[-1])
    assignment = np.full(total_balls, -1, dtype=np.int64)
    ball_messages = np.zeros(total_balls, dtype=np.int64)
    # Unallocated composite balls, ascending — so grouped by trial, and
    # each trial's in its own ball order — with their trials, and the
    # per-trial unallocated counts.
    active = np.arange(total_balls, dtype=np.int64)
    active_trial = np.repeat(np.arange(trials), sizes)
    counts = np.array(sizes, dtype=np.int64)
    rounds = np.zeros(trials, dtype=np.int64)
    messages = np.zeros(trials, dtype=np.int64)
    used_fallback = [False] * trials
    metrics = [RunMetrics(sizes[t], spaces[t]) for t in range(trials)]
    budgets = np.array(
        [log_star(b) + config.round_budget_slack for b in spaces],
        dtype=np.int64,
    )
    contact_caps = [min(config.max_contacts, b) for b in spaces]
    backend = resolve_backend()
    tele = current_telemetry()

    def sweep(t: int, left: np.ndarray) -> None:
        """Deterministic sweep fallback (probability n^{-c} path): scan
        trial ``t``'s bins in index order, filling residual capacity.
        Each sweep round lets a ball contact one bin, exactly the
        trivial algorithm of Section 3."""
        lo, hi = bin_offsets[t], bin_offsets[t + 1]
        residual = np.maximum(caps[lo:hi] - loads[lo:hi], 0)
        slots = np.repeat(np.arange(lo, hi), residual)
        if slots.size < left.size:  # unreachable given capacity check
            raise RuntimeError("fallback found insufficient capacity")
        chosen = slots[: left.size]
        assignment[left] = chosen
        np.add.at(loads, chosen, 1)
        if weighted_loads is not None:
            np.add.at(weighted_loads, chosen, weights[left])
        # Message cost of the sweep: ball b finds a free bin after at
        # most (chosen position + 1) contacts; we charge 1 per ball per
        # sweep round and fold the sweep into one reported round per
        # paper's trivial algorithm (n rounds worst case — recorded via
        # the metrics entry below).
        messages[t] += left.size
        ball_messages[left] += 2  # request + accept
        metrics[t].add_round(
            RoundMetrics(
                round_no=int(rounds[t]),
                unallocated_start=int(left.size),
                requests_sent=int(left.size),
                accepts_sent=int(left.size),
                rejects_sent=0,
                commits=int(left.size),
                unallocated_end=0,
                max_load=int(loads[lo:hi].max(initial=0)),
            )
        )
        rounds[t] += 1
        used_fallback[t] = True

    # Trials run every round from the first until they empty or spend
    # their budget, so every trial with balls left is at round ``r``.
    r = 0
    while active.size:
        # A trial that spent its budget with balls left sweeps them now;
        # the sweep draws nothing, so when it runs relative to the other
        # trials' rounds is immaterial.
        spent = (counts > 0) & (budgets <= r)
        if spent.any():
            for t in np.flatnonzero(spent).tolist():
                sweep(t, active[active_trial == t])
            keep = ~spent[active_trial]
            active, active_trial = active[keep], active_trial[keep]
            counts[spent] = 0
            continue
        live_idx = np.flatnonzero(counts)
        live_list = live_idx.tolist()
        live_counts = counts[live_idx]
        ks = np.array(
            [tower_schedule(r, contact_caps[t]) for t in live_list],
            dtype=np.int64,
        )
        requests = live_counts * ks
        # Step 1 (requests) and step 2's priorities, trial by trial from
        # each trial's own stream.  A live trial's residual capacity is
        # never all zero (its balls fit its total capacity), so it
        # always draws the priorities ``grouped_accept`` would draw.
        choice_parts = []
        priority_parts = []
        for t, size in zip(live_list, requests.tolist()):
            choice_parts.append(
                sample_choices(size, spaces[t], rngs[t], choice_samplers[t])
                + bin_offsets[t]
            )
            priority_parts.append(rngs[t].random(size))
        choices = np.concatenate(choice_parts)
        # Step 2: every bin accepts up to its residual capacity, the
        # lowest-priority requests first — one grouping for all trials.
        accepted = backend.grouped_accept_with_priorities(
            choices,
            np.maximum(caps - loads, 0),
            np.concatenate(priority_parts),
        )
        # Step 3: each accepted ball commits to its first accepted
        # request (uniform among acceptors: the priorities already
        # randomized which requests were accepted) and notifies every
        # bin that accepted it.  Requests are ball-major.
        ball_ks = np.repeat(ks, live_counts)
        acc_pos = np.repeat(np.arange(active.size), ball_ks)[accepted]
        first = np.ones(acc_pos.size, dtype=bool)
        first[1:] = acc_pos[1:] != acc_pos[:-1]
        winners = acc_pos[first]
        commit_bins = choices[accepted][first]
        committed = active[winners]
        backend.scatter_counts(loads, commit_bins)
        if weighted_loads is not None:
            backend.scatter_weights(
                weighted_loads, commit_bins, weights[committed]
            )
        assignment[committed] = commit_bins
        # Per-ball accounting: k sends, one receive per accept, one
        # commit/revoke notice per accept.
        ball_messages[active] += ball_ks + 2 * np.bincount(
            acc_pos, minlength=active.size
        )
        accepts = np.bincount(active_trial[acc_pos], minlength=trials)
        commits = np.bincount(active_trial[winners], minlength=trials)
        accepts, commits = accepts[live_idx], commits[live_idx]
        sent = requests + 2 * accepts
        messages[live_idx] += sent
        if tele is not None:
            tele.count("kernel.rounds", len(live_list))
            tele.count("kernel.commits", int(commits.sum()))
            tele.count("kernel.messages", int(sent.sum()))
        row_max = np.maximum.reduceat(loads, bin_offsets[:-1])[live_idx]
        for t, start, req, acc, com, peak in zip(
            live_list,
            live_counts.tolist(),
            requests.tolist(),
            accepts.tolist(),
            commits.tolist(),
            row_max.tolist(),
        ):
            metrics[t].add_round(
                RoundMetrics(
                    round_no=r,
                    unallocated_start=start,
                    requests_sent=req,
                    accepts_sent=acc,
                    rejects_sent=0,
                    commits=com,
                    unallocated_end=start - com,
                    max_load=peak,
                )
            )
        counts[live_idx] -= commits
        rounds[live_idx] += 1
        keep = np.ones(active.size, dtype=bool)
        keep[winners] = False
        active, active_trial = active[keep], active_trial[keep]
        r += 1

    return [
        LightOutcome(
            loads=loads[bin_offsets[t] : bin_offsets[t + 1]],
            assignment=(
                assignment[ball_offsets[t] : ball_offsets[t + 1]]
                - bin_offsets[t]
            ),
            rounds=int(rounds[t]),
            total_messages=int(messages[t]),
            metrics=metrics[t],
            used_fallback=used_fallback[t],
            ball_messages=ball_messages[ball_offsets[t] : ball_offsets[t + 1]],
            weighted_loads=(
                None
                if weighted_loads is None
                else weighted_loads[bin_offsets[t] : bin_offsets[t + 1]]
            ),
        )
        for t in range(trials)
    ]


@register_allocator(
    "light",
    summary="A_light collision protocol (lightly loaded, cap 2)",
    paper_ref="Theorem 5",
    aliases=("a_light", "lw16"),
    config_type=LightConfig,
)
def run_light_allocation(
    m: int,
    n: int,
    *,
    seed=None,
    config: LightConfig = LightConfig(),
    workload=None,
):
    """Run ``A_light`` standalone and return an ``AllocationResult``.

    The registry-facing wrapper around :func:`run_light`: same
    protocol, but the outcome is packaged in the package-wide result
    type so the light subroutine is comparable to every other
    allocator.  Requires ``m <=`` the workload-scaled total capacity
    (``config.capacity * n`` for the homogeneous profile).
    ``workload`` is forwarded to :func:`run_light`.

    The ball-to-bin assignment and the fallback flag are preserved in
    ``extra`` (keys ``assignment`` is omitted — loads carry the
    distributional content — and ``used_fallback``).
    """
    from repro.result import AllocationResult

    factory = RngFactory(seed)
    wl_spec = as_workload(workload)
    outcome = run_light(
        m, n, seed=factory.stream("light"), config=config, workload=wl_spec
    )
    extra: dict = {"used_fallback": outcome.used_fallback}
    workload_record = BoundWorkload(spec=wl_spec).extra_record(
        outcome.weighted_loads
    )
    if workload_record is not None:
        extra["workload"] = workload_record
    return AllocationResult(
        algorithm="light",
        m=m,
        n=n,
        loads=outcome.loads,
        rounds=outcome.rounds,
        metrics=outcome.metrics,
        total_messages=outcome.total_messages,
        seed_entropy=factory.root_entropy,
        extra=extra,
    )
