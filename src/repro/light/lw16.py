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
from typing import Optional

import numpy as np

from repro.api.spec import register_allocator
from repro.fastpath.roundstate import RoundState
from repro.simulation.metrics import RoundMetrics, RunMetrics
from repro.utils.logstar import log_star
from repro.utils.seeding import RngFactory, as_generator
from repro.utils.validation import check_positive_int
from repro.workloads import BoundWorkload, as_workload

__all__ = [
    "LightConfig",
    "LightOutcome",
    "run_light",
    "run_light_allocation",
    "tower_schedule",
]


@dataclass(frozen=True)
class LightConfig:
    """Tunables of the light-load protocol.

    Attributes
    ----------
    capacity:
        Per-bin load cap (Theorem 5 guarantees 2).
    max_contacts:
        Upper clamp on the per-round contact count ``k_r`` (memory
        guard; the tower schedule reaches it only in the final round).
    round_budget_slack:
        Extra randomized rounds beyond ``log* n`` before the
        deterministic sweep fallback engages.
    """

    capacity: int = 2
    max_contacts: int = 64
    round_budget_slack: int = 6


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
    ball_ids: Optional[np.ndarray] = None,
    workload=None,
) -> LightOutcome:
    """Allocate ``n_balls`` balls into ``n_bins`` bins, load <= capacity.

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
    ball_ids:
        Optional global ball identifiers of length ``n_balls``; accepted
        for validation symmetry with callers that maintain a global ball
        index space (``A_heavy`` phase 2).  The returned
        ``ball_messages`` is always indexed by local position
        ``0..n_balls-1``; callers map through their own ID arrays.
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
    n_balls = check_positive_int(n_balls, "n_balls", minimum=0)
    n_bins = check_positive_int(n_bins, "n_bins")
    if config.capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {config.capacity}")
    rng = as_generator(seed)
    wl_spec = as_workload(workload)
    if wl_spec is None:
        wl = BoundWorkload()
    else:
        wl = BoundWorkload(
            spec=wl_spec,
            pvals=wl_spec.pvals(n_bins),
            capacity_scale=wl_spec.capacity_scale(n_bins),
        )
        if wl_spec.weight != "unit":
            wl.weights = wl_spec.sample_weights(n_balls, rng)
    caps = wl.capacities(config.capacity)
    caps_arr = (
        caps
        if isinstance(caps, np.ndarray)
        else np.full(n_bins, config.capacity, dtype=np.int64)
    )
    total_capacity = int(caps_arr.sum())
    if n_balls > total_capacity:
        raise ValueError(
            f"{n_balls} balls exceed total capacity {total_capacity} "
            f"(capacity {config.capacity} over {n_bins} bins)"
        )
    state = RoundState(
        n_balls, n_bins, track_assignment=True, weights=wl.weights
    )
    ball_messages = np.zeros(n_balls, dtype=np.int64)
    used_fallback = False
    budget = log_star(n_bins) + config.round_budget_slack

    while state.active_count > 0 and state.rounds < budget:
        k_r = tower_schedule(state.rounds, min(config.max_contacts, n_bins))
        balls = state.active
        # Step 1: requests — ``k_r`` contacts per active ball, drawn
        # from the workload's choice distribution (flat layout: request
        # j belongs to ball active[j // k_r]).
        batch = state.sample_contacts(rng, d=k_r, pvals=wl.pvals)
        # Step 2: bins accept up to residual capacity, uniformly among
        # requesters.
        decision = state.group_and_accept(
            batch, (caps_arr - state.loads).astype(np.int64), rng
        )
        # Step 3: each accepted ball commits to one acceptor (uniform:
        # the accept pass already applied random priorities, so the
        # first accepted request per ball is uniform among acceptors)
        # and notifies every bin that accepted it (commit/revoke).
        out = state.commit_and_revoke(
            batch, decision, commit_notifications=True
        )
        # Per-ball accounting: k_r sends, one receive per accept, one
        # send per commit/revoke notice.
        ball_messages[balls] += k_r
        np.add.at(ball_messages, balls[out.accepted_positions], 1)
        np.add.at(ball_messages, balls[out.commit_notice_positions], 1)

    # Deterministic sweep fallback (probability n^{-c} path): scan bins
    # in index order, filling residual capacity.  Each sweep round lets a
    # ball contact one bin, exactly the trivial algorithm of Section 3.
    if state.active_count > 0:
        used_fallback = True
        active = state.active
        residual = np.maximum(caps_arr - state.loads, 0)
        slots = np.repeat(np.arange(n_bins), residual)
        if slots.size < active.size:  # unreachable given capacity check
            raise RuntimeError("fallback found insufficient capacity")
        chosen = slots[: active.size]
        state.assignment[active] = chosen
        np.add.at(state.loads, chosen, 1)
        if state.weighted_loads is not None:
            np.add.at(state.weighted_loads, chosen, state.weights[active])
        # Message cost of the sweep: ball b finds a free bin after at
        # most (chosen position + 1) contacts; we charge 1 per ball per
        # sweep round and fold the sweep into one reported round per
        # paper's trivial algorithm (n rounds worst case — recorded via
        # the metrics entry below).
        state.total_messages += int(active.size)
        ball_messages[active] += 2  # request + accept
        state.metrics.add_round(
            RoundMetrics(
                round_no=state.rounds,
                unallocated_start=int(active.size),
                requests_sent=int(active.size),
                accepts_sent=int(active.size),
                rejects_sent=0,
                commits=int(active.size),
                unallocated_end=0,
                max_load=int(state.loads.max(initial=0)),
            )
        )
        state.rounds += 1
        state.active = active[:0]

    if ball_ids is not None:
        if len(ball_ids) != n_balls:
            raise ValueError("ball_ids must have length n_balls")
    return LightOutcome(
        loads=state.loads,
        assignment=state.assignment,
        rounds=state.rounds,
        total_messages=state.total_messages,
        metrics=state.metrics,
        used_fallback=used_fallback,
        ball_messages=ball_messages,
        weighted_loads=state.weighted_loads,
    )


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
