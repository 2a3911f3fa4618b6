"""Algorithm ``A_heavy`` — the paper's main contribution (Theorem 1/6).

Structure (Section 3):

* **Phase 1** (threshold rounds): every unallocated ball contacts one
  uniformly random bin; bins accept up to ``T_i - ℓ`` requests with the
  oblivious schedule ``T_i = m/n - (m̃_i/n)^{2/3}``,
  ``m̃_{i+1} = m̃_i^{2/3} n^{1/3}``.  The phase runs until the estimate
  drops to ``m̃ <= stop_factor * n`` — ``O(log log(m/n))`` rounds —
  after which ``O(n)`` balls remain w.h.p. (Claims 1-4).
* **Phase 2** (handoff): remaining balls run ``A_light`` over ``g``
  virtual bins per real bin (Theorem 5), adding at most ``2 g = O(1)``
  load per real bin in ``log* n + O(1)`` rounds.

Execution modes:

* ``"perball"`` — exact vectorized semantics with full per-ball message
  accounting (default; ``m`` up to ~10^7);
* ``"aggregate"`` — per-bin multinomial request counts, ``O(n)``/round;
  identical in distribution for loads/rounds/per-bin messages, but
  per-ball counters are not tracked (``m`` up to ~10^12).  Phase 2
  always runs per-ball (only ``O(n)`` balls remain).
* ``"engine"`` — the object-level reference engine
  (:mod:`repro.core.heavy_agents`); small instances only.

The generic :func:`run_threshold_protocol` underlies both ``A_heavy``
(paper schedule) and the Section 1.1 negative example (fixed schedule,
experiment F2) and the ablation schedules (experiment A1).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Literal, Optional

import numpy as np

from repro.api.spec import (
    register_allocator,
    register_dynamic,
    register_replicator,
)
from repro.core.thresholds import (
    FixedSchedule,
    PaperSchedule,
    ThresholdSchedule,
)
from repro.fastpath.roundstate import RoundState
from repro.light.lw16 import LightConfig
from repro.light.virtual import (
    run_light_on_virtual_bins,
    run_light_on_virtual_bins_batch,
)
from repro.result import AllocationResult
from repro.simulation.metrics import MessageCounter, RunMetrics
from repro.telemetry import current_telemetry
from repro.utils.seeding import RngFactory
from repro.utils.validation import check_mode, ensure_m_n
from repro.workloads import Workload, as_workload, bind_workload

__all__ = [
    "HeavyConfig",
    "dynamic_heavy",
    "replicate_heavy",
    "run_heavy",
    "run_threshold_protocol",
    "run_threshold_protocol_batched",
    "ThresholdPhaseOutcome",
]

Mode = Literal["perball", "aggregate", "engine"]


@dataclass(frozen=True)
class HeavyConfig:
    """Tunables for ``A_heavy``.

    Attributes
    ----------
    stop_factor:
        Phase 1 ends when ``m̃_i <= stop_factor * n`` (paper: the loop
        exits once the estimate is ``O(n)``; 2 matches Claim 3's ``i_1``).
    light:
        Configuration of the phase-2 ``A_light`` run.
    max_rounds:
        Safety cap on total rounds.
    track_per_ball:
        Maintain per-ball message counters in per-ball mode.  They cost
        1 byte per ball while the run lasts (each ball's commit round),
        and 16 bytes per ball once read (int64 sent/received arrays, see
        :class:`~repro.simulation.metrics.MessageCounter`); disable to
        save even that at very large ``m``.
    """

    stop_factor: float = 2.0
    light: LightConfig = LightConfig()
    max_rounds: int = 100_000
    track_per_ball: bool = True


@dataclass
class ThresholdPhaseOutcome:
    """Result of one :func:`run_threshold_protocol` run: ``A_heavy``'s
    phase 1, or the settle rounds of a dynamic placement."""

    loads: np.ndarray
    remaining: int
    remaining_ids: Optional[np.ndarray]  # None in aggregate mode
    rounds: int
    metrics: RunMetrics
    counter: Optional[MessageCounter]
    total_messages: int
    thresholds: list[int]
    #: Per-bin weighted intake (None for unit-weight workloads).
    weighted_loads: Optional[np.ndarray] = None


#: The draw streams of each kind of threshold run: ``(choices, accept)``.
_PHASE_STREAMS = {
    "threshold": (("threshold", "choices"), ("threshold", "accept")),
    "settle": (("dynamic", "settle"), ("dynamic", "settle", "accept")),
}


def run_threshold_protocol(
    m: int,
    n: int,
    schedule: ThresholdSchedule,
    *,
    rng_factory: Optional[RngFactory] = None,
    mode: Mode = "perball",
    max_rounds: Optional[int] = None,
    track_per_ball: bool = True,
    workload=None,
    initial_loads: Optional[np.ndarray] = None,
    start_round: int = 0,
    stall_rounds: Optional[int] = None,
    phase: Literal["threshold", "settle"] = "threshold",
    chunk_size: Optional[int] = None,
) -> ThresholdPhaseOutcome:
    """Run the symmetric threshold protocol under any oblivious schedule.

    Each round: active balls contact one bin drawn from the workload's
    choice distribution (uniform by default); bins accept up to
    ``schedule.threshold(i) - load`` (per-bin thresholds scaled by the
    workload's capacity profile).  The run ends when the schedule's
    :meth:`~repro.core.thresholds.ThresholdSchedule.phase1_rounds` are
    exhausted, all balls are allocated, ``max_rounds`` scheduled rounds
    have passed, or ``stall_rounds`` consecutive rounds placed nothing
    — whichever comes first.

    Message accounting counts one request per active ball per round plus
    one accept per allocated ball; rejections are silent, matching the
    paper's protocol (Theorem 6 counts only sent messages).

    The round body is three calls into the shared
    :class:`~repro.fastpath.roundstate.RoundState` kernels; the only
    protocol policies are the oblivious threshold schedule and the
    workload (a :class:`repro.workloads.Workload`, spec string, or an
    already-bound workload from a composing caller; the default uniform
    workload leaves the run bitwise-identical to the pre-workload code).

    Dynamic placement (the incremental-rebalance backend):
    ``initial_loads`` starts the bins at a residual occupancy, with
    only the ``m`` new balls active — the heavy-regime requirement then
    applies to the *population*, not the cohort, so ``m < n`` cohorts
    are legal.  Such a run also skips any scheduled round whose total
    residual capacity is zero *without sampling anything*: no request
    messages, no RNG draws, no metrics row — such a round would reject
    every request, and an incremental epoch whose early thresholds sit
    below the residents' loads would otherwise burn rounds and messages
    on them.  A schedule that stays saturated throughout therefore
    terminates with zero draws (the regression the saturation tests
    pin).  ``start_round`` enters the schedule at a later index (the
    incremental fast-forward: early rounds exist to whittle a huge
    unallocated estimate that a small cohort never had).
    ``stall_rounds`` stops the run after that many consecutive rounds
    left the active count unchanged, skipped rounds included (the
    settle drain of :func:`dynamic_heavy`).

    ``phase`` names the run: ``"threshold"`` (``A_heavy``'s phase 1)
    draws from the ``("threshold", "choices"/"accept")`` streams,
    ``"settle"`` (the settle rounds of :func:`dynamic_heavy`) from
    ``("dynamic", "settle")`` and ``("dynamic", "settle", "accept")``.
    Under telemetry the run is one ``phase`` span of that label, with a
    ``round`` child span per executed round.

    Memory path: ``chunk_size`` streams per-ball choice draws through
    bounded tiles and stores indices and loads as int32 where the
    population fits (``RoundState(chunk_size=...)``).  Loads returned
    in the outcome are widened back to int64 so every downstream
    consumer sees the historical dtype; the values are
    bitwise-identical either way.
    """
    m, n = ensure_m_n(m, n, require_heavy=initial_loads is None)
    check_mode(mode)
    if phase not in _PHASE_STREAMS:
        raise ValueError(
            f"phase must be one of {sorted(_PHASE_STREAMS)}, got {phase!r}"
        )
    factory = rng_factory or RngFactory()
    bound = bind_workload(workload, m, n, factory, granularity=mode)
    choice_key, accept_key = _PHASE_STREAMS[phase]
    rng = factory.stream(*choice_key)
    accept_rng = factory.stream(*accept_key)

    planned = schedule.phase1_rounds()
    cap_rounds = max_rounds if max_rounds is not None else 100_000
    if planned is not None:
        cap_rounds = min(cap_rounds, planned)

    state = RoundState(
        m,
        n,
        granularity=mode,
        track_messages=(mode == "perball" and track_per_ball),
        weights=bound.weights,
        weight_sum_sampler=bound.weight_sum_sampler,
        initial_loads=initial_loads,
        chunk_size=chunk_size,
    )
    thresholds: list[int] = []

    # ``round_index`` walks the schedule; ``state.rounds`` counts only
    # executed rounds.  They coincide unless saturated rounds are
    # skipped or the schedule is entered late.
    if start_round < 0:
        raise ValueError(f"start_round must be >= 0, got {start_round}")
    if stall_rounds is not None and stall_rounds < 1:
        raise ValueError(f"stall_rounds must be >= 1, got {stall_rounds}")
    skip_saturated = initial_loads is not None
    stalled, last_active = 0, state.active_count
    # Telemetry: the run is one span, each executed round a child span
    # feeding the round-duration histogram.  Off is one ``is not None``
    # branch per round; nothing here touches the RNG.
    tele = current_telemetry()
    phase_start = tele.begin() if tele is not None else 0.0
    round_index = start_round
    while round_index < cap_rounds and state.active_count > 0:
        threshold = schedule.threshold(round_index)
        capacity = bound.capacities(threshold) - state.loads
        np.maximum(capacity, 0, out=capacity)
        if not skip_saturated or capacity.max() > 0:
            thresholds.append(threshold)
            if tele is not None:
                round_start = tele.begin()
            batch = state.sample_contacts(rng, pvals=bound.sampler)
            decision = state.group_and_accept(batch, capacity, accept_rng)
            state.commit_and_revoke(batch, decision, threshold=threshold)
            if tele is not None:
                seconds = tele.complete(
                    "round",
                    round_start,
                    cat="kernel",
                    round=round_index,
                    threshold=threshold,
                )
                tele.observe("kernel.round.seconds", seconds)
        if stall_rounds is not None:
            if state.active_count < last_active:
                stalled, last_active = 0, state.active_count
            else:
                stalled += 1
                if stalled >= stall_rounds:
                    break
        round_index += 1
    if tele is not None:
        tele.complete(
            "phase",
            phase_start,
            cat="kernel",
            phase=phase,
            rounds=state.rounds,
            remaining=state.active_count,
        )

    return ThresholdPhaseOutcome(
        # Widen chunked-run int32 loads back to the historical int64 at
        # the boundary (no copy on the default path).
        loads=state.loads.astype(np.int64, copy=False),
        remaining=state.active_count,
        remaining_ids=state.active,
        rounds=state.rounds,
        metrics=state.metrics,
        counter=state.counter,
        total_messages=state.total_messages,
        thresholds=thresholds,
        weighted_loads=state.weighted_loads,
    )


@register_allocator(
    "heavy",
    summary="A_heavy: adaptive thresholds, then A_light on stragglers",
    paper_ref="Theorem 1",
    aliases=("a_heavy",),
    modes=("perball", "aggregate", "engine"),
    config_type=HeavyConfig,
)
def run_heavy(
    m: int,
    n: int,
    *,
    seed=None,
    mode: Mode = "perball",
    config: HeavyConfig = HeavyConfig(),
    schedule: Optional[ThresholdSchedule] = None,
    handoff: bool = True,
    workload: Optional[Workload] = None,
    chunk_size: Optional[int] = None,
) -> AllocationResult:
    """Allocate ``m`` balls into ``n`` bins with Algorithm ``A_heavy``.

    Parameters
    ----------
    m, n:
        Instance size; requires ``m >= n`` (heavily loaded regime; for
        ``m < n`` use :func:`repro.light.run_light` directly).
    seed:
        Reproducibility seed (int, SeedSequence, Generator, or None).
    mode:
        ``"perball"`` (exact, default), ``"aggregate"`` (``O(n)``/round,
        no per-ball counters), or ``"engine"`` (object-level reference).
    config:
        Algorithm tunables (stop factor, light-phase config, caps).
    schedule:
        Override the threshold schedule (default: the paper's
        :class:`~repro.core.thresholds.PaperSchedule`).  Used by the
        ablation experiments.
    handoff:
        Run phase 2 (``A_light``) on the leftover balls.  Disabling it
        (experiment A2) leaves stragglers unallocated and sets
        ``complete=False`` on the result.
    workload:
        Optional :class:`repro.workloads.Workload` (or spec string,
        e.g. ``"zipf:1.1+geomw:0.5"``): skewed choice distribution for
        the phase-1 contacts, per-bin threshold scaling from the
        capacity profile, and weighted-load tracking.  Phase 2 always
        rebalances the stragglers uniformly over virtual bins (its
        correctness relies on the symmetric contact pattern); straggler
        weights still land in the weighted-load accounting.  The
        default (uniform) workload leaves the run bitwise-identical to
        the pre-workload implementation.  Engine mode supports the
        uniform workload only.
    chunk_size:
        Per-ball memory path: stream phase-1 choice draws through
        tiles of this many elements into a fresh array, with int32
        storage where the instance fits (see
        :func:`repro.fastpath.narrow_dtypes`).  Values are
        bitwise-identical to the default path; this is what makes
        one-shot ``m = 10**8`` per-ball runs fit in a few GB (see
        ``docs/performance.md``).  The per-ball message tallies add
        1 byte per ball (``m`` bytes, 100 MB at ``10**8``), and 16
        bytes per ball once read; ``config=HeavyConfig(
        track_per_ball=False)`` drops them.  Ignored by
        aggregate/engine kernels (they never allocate per-ball
        arrays).

    Returns
    -------
    AllocationResult
        With ``extra`` keys ``phase1_rounds``, ``phase2_rounds``,
        ``phase1_remaining`` (balls left for ``A_light``) and
        ``light_used_fallback`` (plus ``workload`` for non-uniform
        workloads).
    """
    m, n = ensure_m_n(m, n, require_heavy=True)
    if mode == "engine":
        if as_workload(workload) is not None:
            raise ValueError(
                "engine mode supports the uniform workload only; "
                "use mode='perball' or 'aggregate' for non-uniform "
                "workloads"
            )
        from repro.core.heavy_agents import run_heavy_engine

        return run_heavy_engine(
            m, n, seed=seed, config=config, schedule=schedule, handoff=handoff
        )
    factory = RngFactory(seed)
    bound = bind_workload(workload, m, n, factory, granularity=mode)
    sched = schedule or PaperSchedule(m, n, stop_factor=config.stop_factor)
    phase1 = run_threshold_protocol(
        m,
        n,
        sched,
        rng_factory=factory,
        mode=mode,
        max_rounds=config.max_rounds,
        track_per_ball=config.track_per_ball,
        workload=bound,
        chunk_size=chunk_size,
    )
    algorithm = (
        "heavy" if schedule is None else f"threshold[{type(sched).__name__}]"
    )
    phase2 = None
    if handoff and phase1.remaining > 0:
        (phase2,) = _light_phase(
            n, [phase1.remaining], [factory], config.light
        )
    return _finish_heavy_run(
        m,
        n,
        phase1=phase1,
        factory=factory,
        bound=bound,
        phase2=phase2,
        algorithm=algorithm,
    )


#: Straggler budget of one trial-batched phase-2 block: ``replicate_heavy``
#: hands consecutive trials to one lock-step ``A_light`` pass while their
#: straggler total stays within it, and finishes those trials before the
#: next block is drawn, so phase 2's peak memory stays bounded however
#: many trials a call has (a trial with more stragglers is a block alone).
_LIGHT_BLOCK_STRAGGLERS = 2**15


def _light_phase(
    n: int,
    stragglers: list[int],
    factories: list[RngFactory],
    config: LightConfig,
) -> list[tuple]:
    """Phase 2 for one run or one block of trials, as one ``phase`` span.

    Trial ``t`` hands ``stragglers[t]`` balls to ``A_light`` over its
    own virtual bins, drawing from its ``("light",)`` stream.  A single
    run goes through :func:`run_light_on_virtual_bins`; a block runs
    all its trials in one lock-step pass
    (:func:`~repro.light.virtual.run_light_on_virtual_bins_batch`).
    Both are the same kernel, so the values do not depend on the
    grouping.  Returns one ``(real_loads, light_outcome, vmap)`` per
    trial.
    """
    tele = current_telemetry()
    light_start = tele.begin() if tele is not None else 0.0
    seeds = [factory.stream("light") for factory in factories]
    if len(seeds) == 1:
        runs = [
            run_light_on_virtual_bins(
                stragglers[0], n, seed=seeds[0], config=config
            )
        ]
    else:
        runs = run_light_on_virtual_bins_batch(
            stragglers, n, seeds=seeds, config=config
        )
    if tele is not None:
        tele.complete(
            "phase",
            light_start,
            cat="kernel",
            phase="light",
            stragglers=sum(stragglers),
            trials=len(runs),
            rounds=max(light.rounds for _, light, _ in runs),
        )
    return runs


def _append_rows(
    metrics: RunMetrics, rows, rounds: int, loads: np.ndarray
) -> None:
    """Append phase 2's metric ``rows`` after the ``rounds`` already
    run, each with the run's final maximum of ``loads``."""
    max_load = int(loads.max(initial=0))
    for row in rows:
        metrics.add_round(
            replace(row, round_no=rounds + row.round_no, max_load=max_load)
        )


def _fold_light(
    phase2: tuple,
    loads: np.ndarray,
    weighted_loads: Optional[np.ndarray],
    *,
    bound,
    straggler_ids: Optional[np.ndarray],
    metrics: Optional[RunMetrics],
    rounds: int,
    messages: int,
    extra: dict,
) -> tuple[int, int]:
    """Fold one run's phase 2 into its totals, in place.

    ``phase2`` is the run's ``(real_loads, light_outcome, vmap)`` from
    :func:`_light_phase`.  ``loads`` gains the stragglers' real bins.
    ``weighted_loads`` (if tracked) gains their weights: a per-ball run
    keeps each straggler's own weight (``bound.weights[straggler_ids]``,
    folded through the virtual map); an aggregate run draws fresh
    per-bin weight sums (i.i.d. weights are exchangeable, so this is
    identical in law).  ``metrics`` (if kept) gains the ``A_light`` rows
    numbered after the ``rounds`` already run, and ``extra`` gains
    ``phase2_rounds``, ``light_used_fallback`` and ``virtual_factor``.
    Returns the run's new ``(rounds, messages)``.
    """
    real_loads, light, vmap = phase2
    loads += real_loads
    if weighted_loads is not None:
        if bound.weights is not None:
            np.add.at(
                weighted_loads,
                vmap.to_real(light.assignment),
                bound.weights[straggler_ids],
            )
        else:
            weighted_loads += bound.weight_sum_sampler(real_loads)
    if metrics is not None:
        _append_rows(metrics, light.metrics.rounds, rounds, loads)
    extra["phase2_rounds"] = light.rounds
    extra["light_used_fallback"] = light.used_fallback
    extra["virtual_factor"] = vmap.factor
    return rounds + light.rounds, messages + light.total_messages


def _finish_heavy_run(
    m: int,
    n: int,
    *,
    phase1: ThresholdPhaseOutcome,
    factory: RngFactory,
    bound,
    phase2: Optional[tuple],
    algorithm: str,
) -> AllocationResult:
    """Fold the phase-2 run into phase 1 and assemble the result.

    ``phase2`` is this trial's ``(real_loads, light_outcome, vmap)``
    from :func:`_light_phase`, or ``None`` when there was no handoff
    (its stragglers then stay unallocated).  Shared verbatim by the
    sequential :func:`run_heavy` and the trial-batched
    :func:`replicate_heavy` — one implementation is what keeps the two
    paths bitwise-identical.
    """
    loads = phase1.loads.copy()
    total_messages = phase1.total_messages
    rounds = phase1.rounds
    extra: dict = {
        "phase1_rounds": phase1.rounds,
        "phase1_remaining": phase1.remaining,
        "thresholds": phase1.thresholds,
        "light_used_fallback": False,
        "phase2_rounds": 0,
    }
    counter = phase1.counter
    metrics = phase1.metrics
    weighted_loads = (
        phase1.weighted_loads.copy()
        if phase1.weighted_loads is not None
        else None
    )

    unallocated = phase1.remaining
    if phase2 is not None:
        rounds, total_messages = _fold_light(
            phase2, loads, weighted_loads, bound=bound,
            straggler_ids=phase1.remaining_ids, metrics=metrics,
            rounds=rounds, messages=total_messages, extra=extra,
        )
        if counter is not None and phase1.remaining_ids is not None:
            # Phase-2 messages by global ball id; bin receives are folded
            # through the virtual map (uniform over virtual bins means
            # uniform over real bins).
            _, light, vmap = phase2
            counter.add_ball_sent(  # sends+receives folded
                phase1.remaining_ids, light.ball_messages
            )
            counter.total += light.total_messages
            assigned_real = vmap.to_real(light.assignment)
            np.add.at(counter.bin_received, assigned_real, 1)
        unallocated = 0

    workload_record = bound.extra_record(weighted_loads)
    if workload_record is not None:
        extra["workload"] = workload_record

    return AllocationResult(
        algorithm=algorithm,
        m=m,
        n=n,
        loads=loads,
        rounds=rounds,
        metrics=metrics,
        messages=counter,
        total_messages=total_messages,
        complete=unallocated == 0,
        unallocated=unallocated,
        seed_entropy=factory.root_entropy,
        extra=extra,
    )


def run_threshold_protocol_batched(
    m: int,
    n: int,
    schedule: ThresholdSchedule,
    *,
    factories: list[RngFactory],
    bounds: list,
    max_rounds: Optional[int] = None,
) -> list[ThresholdPhaseOutcome]:
    """Phase 1 for ``T`` seeded replications in one lock-step pass.

    Trial ``t`` draws from its own ``("threshold", "choices")`` stream
    of ``factories[t]`` (and its own workload weights stream through
    ``bounds[t]``), so its outcome is bitwise-identical to
    :func:`run_threshold_protocol` in aggregate mode with that factory
    — lock-stepping is possible because the schedule is *oblivious*:
    round ``i``'s threshold depends only on ``i``, never on a trial's
    state.  Trials whose active set empties drop out of the batch mask
    and stop consuming their streams, exactly where their sequential
    loop would have exited.
    """
    trials = len(factories)
    if len(bounds) != trials:
        raise ValueError("need one bound workload per factory")
    rngs = [f.stream("threshold", "choices") for f in factories]
    # The sequential path also creates the accept stream up front; the
    # aggregate kernels never draw from it, so creation is skipped here.
    samplers = [b.weight_sum_sampler for b in bounds]
    weighted = any(s is not None for s in samplers)

    planned = schedule.phase1_rounds()
    cap_rounds = max_rounds if max_rounds is not None else 100_000
    if planned is not None:
        cap_rounds = min(cap_rounds, planned)

    state = RoundState(
        m,
        n,
        granularity="aggregate",
        trials=trials,
        weight_sum_sampler=samplers if weighted else None,
    )
    thresholds: list[int] = []
    while state.rounds < cap_rounds and state.any_active:
        threshold = schedule.threshold(state.rounds)
        thresholds.append(threshold)
        capacity = np.maximum(bounds[0].capacities(threshold) - state.loads, 0)
        batch = state.sample_contacts(rngs, pvals=bounds[0].sampler)
        decision = state.group_and_accept(batch, capacity)
        state.commit_and_revoke(batch, decision, threshold=threshold)

    outcomes = []
    for t in range(trials):
        executed = int(state.trial_rounds[t])
        outcomes.append(
            ThresholdPhaseOutcome(
                loads=state.loads[t],
                remaining=int(state.active_counts[t]),
                remaining_ids=None,
                rounds=executed,
                metrics=state.trial_metrics[t],
                counter=None,
                total_messages=int(state.total_messages[t]),
                thresholds=thresholds[:executed],
                weighted_loads=(
                    state.weighted_loads[t]
                    if state.weighted_loads is not None
                    else None
                ),
            )
        )
    return outcomes


@register_replicator("heavy")
def replicate_heavy(
    m: int,
    n: int,
    *,
    seed_seqs,
    workload: Optional[Workload] = None,
    config: HeavyConfig = HeavyConfig(),
    schedule: Optional[ThresholdSchedule] = None,
    handoff: bool = True,
) -> list[AllocationResult]:
    """Run one seeded replication of ``A_heavy`` per ``seed_seqs``
    entry, all in one batch.

    Phase 1 (threshold rounds) advances all trials in lock-step on the
    trial-batched aggregate kernels.  Phase 2 hands each trial's
    ``O(n)`` stragglers to ``A_light`` over its own virtual bins, in
    blocks of consecutive trials whose straggler total stays within
    ``_LIGHT_BLOCK_STRAGGLERS``: each block runs in one lock-step pass
    (every trial drawing from its own ``("light",)`` stream) and its
    trials are finished before the next block starts.  Trial ``t`` is
    bitwise-identical to ``run_heavy(m, n, seed=seed_seqs[t],
    mode="aggregate", ...)``.
    """
    m, n = ensure_m_n(m, n, require_heavy=True)
    factories = [RngFactory(s) for s in seed_seqs]
    bounds = [
        bind_workload(workload, m, n, f, granularity="aggregate")
        for f in factories
    ]
    sched = schedule or PaperSchedule(m, n, stop_factor=config.stop_factor)
    phase1s = run_threshold_protocol_batched(
        m, n, sched, factories=factories, bounds=bounds,
        max_rounds=config.max_rounds,
    )
    algorithm = (
        "heavy" if schedule is None else f"threshold[{type(sched).__name__}]"
    )
    stragglers = [p.remaining if handoff else 0 for p in phase1s]
    results = []
    for block in _blocks(stragglers, _LIGHT_BLOCK_STRAGGLERS):
        handed = [t for t in block if stragglers[t] > 0]
        runs = (
            _light_phase(
                n,
                [stragglers[t] for t in handed],
                [factories[t] for t in handed],
                config.light,
            )
            if handed
            else []
        )
        phase2 = dict(zip(handed, runs))
        results.extend(
            _finish_heavy_run(
                m,
                n,
                phase1=phase1s[t],
                factory=factories[t],
                bound=bounds[t],
                phase2=phase2.get(t),
                algorithm=algorithm,
            )
            for t in block
        )
    return results


def _blocks(sizes: list[int], bound: int):
    """Consecutive index ranges whose ``sizes`` sum stays within
    ``bound``; an index whose size alone exceeds it is its own range."""
    start, total = 0, 0
    for i, size in enumerate(sizes):
        if i > start and total + size > bound:
            yield range(start, i)
            start, total = i, 0
        total += size
    if sizes:
        yield range(start, len(sizes))


@register_dynamic("heavy")
def dynamic_heavy(
    m: int,
    n: int,
    *,
    initial_loads: np.ndarray,
    seed=None,
    workload: Optional[Workload] = None,
    mode: Mode = "aggregate",
    config: HeavyConfig = HeavyConfig(),
    handoff: bool = True,
    settle_rounds: int = 2,
    drain_settle: bool = False,
    chunk_size: Optional[int] = None,
) -> AllocationResult:
    """Place a cohort of ``m`` new balls against residual bin loads.

    The incremental form of ``A_heavy``: the paper's oblivious
    threshold schedule is computed for the *population* (residents
    plus cohort) and the cohort runs the threshold rounds against the
    residents' loads (``RoundState(initial_loads=...)``).  Thresholds
    that sit below the residents' current loads yield zero capacity
    and are skipped without sampling (see
    :func:`run_threshold_protocol`), so the cost of an epoch —
    messages and draws — scales with the cohort, not the population.

    After the schedule, up to ``settle_rounds`` extra threshold rounds
    run at the population average ``ceil(total/n)`` — the paper's own
    load cap — before stragglers ride the usual phase-2 ``A_light``
    handoff.  The settle is the same round loop on the constant
    schedule ``FixedSchedule(total, n, slack=0)``, run with
    ``phase="settle"``: it draws from its own ``("dynamic",
    "settle")`` streams, carries the stragglers' weights, and is
    traced as one ``settle`` phase span.  A settle round costs one
    message per remaining ball against nearly-full-cohort capacity, so
    it drains almost everyone for a fraction of the light protocol's
    per-ball cost; the load guarantee is untouched (the cap never
    exceeds the average, and ``A_light`` still bounds whatever remains
    by ``+2g``).  Under a constant threshold, a round with no capacity
    left stays so for the rest of the settle, so no round runs after
    it.

    ``drain_settle`` lifts the settle-round cap to ``max(settle_rounds,
    4n)`` with an early exit after 8 consecutive no-progress rounds.
    The phase-2 handoff is load-*oblivious* (correct on a fresh fill,
    where the threshold rounds leave the bins level by construction),
    so when an adversary has skewed the residual loads — drained a few
    bins far below the average — a fixed two-round settle hands a large
    straggler mass to ``A_light``, which then ratchets the maximum up
    every epoch.  Draining the settle phase keeps every cohort ball
    below the population-average cap whenever capacity for it exists;
    the dynamic runner turns this on automatically for adversarial and
    fault-injected regimes.

    Returns the cohort's :class:`~repro.result.AllocationResult`:
    ``loads`` is where the cohort's balls landed (the residents are
    not in it) and ``unallocated`` counts the balls left over when
    ``handoff`` is off.  With ``settle_rounds=0``, all-zero
    ``initial_loads``, and ``m >= n`` it equals ``run_heavy(m, n,
    seed=seed, mode=mode)`` on loads, rounds and messages: same
    streams, same schedule, same values (the fresh-fill anchor the
    100%-churn tests pin; settle rounds draw from their own stream,
    so enabling them perturbs no phase-1 or light draw).  The phase-2
    handoff and its fold are :func:`run_heavy`'s own; ``extra``
    records ``phase1_rounds``, ``settle_rounds`` and ``phase2_rounds``
    (plus ``light_used_fallback`` and ``virtual_factor`` after a
    handoff).

    ``chunk_size`` engages the value-preserving memory path (see
    :func:`run_heavy`) for the threshold and settle rounds alike; both
    budget their int32 storage for the whole population.
    """
    initial = np.asarray(initial_loads, dtype=np.int64)
    if initial.shape != (n,):
        raise ValueError(
            f"initial_loads must have shape ({n},), got {initial.shape}"
        )
    if settle_rounds < 0:
        raise ValueError(
            f"settle_rounds must be >= 0, got {settle_rounds}"
        )
    check_mode(mode)
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if m == 0:
        return AllocationResult("heavy", 0, n, np.zeros(n), rounds=0)
    total = m + int(initial.sum())
    ensure_m_n(total, n, require_heavy=True)
    factory = RngFactory(seed)
    bound = bind_workload(workload, m, n, factory, granularity=mode)
    sched = PaperSchedule(total, n, stop_factor=config.stop_factor)
    # Fast-forward: the schedule's early rounds whittle an unallocated
    # estimate m̃_i the cohort never had — enter at the first round
    # whose estimate is at or below the cohort size.  A fresh fill has
    # m̃_0 = m = cohort, so this reduces to the paper schedule exactly.
    planned = sched.phase1_rounds()
    start = 0
    # The relative tolerance absorbs the log-space float noise of the
    # estimate (a fresh fill has estimate(0) == m only up to rounding).
    while start < planned - 1 and sched.estimate(start) > m * (1 + 1e-9):
        start += 1
    common = dict(
        rng_factory=factory,
        mode=mode,
        # A placement returns no per-ball tallies, so keep none.
        track_per_ball=False,
        chunk_size=chunk_size,
    )
    phase1 = run_threshold_protocol(
        m,
        n,
        sched,
        max_rounds=config.max_rounds,
        workload=bound,
        initial_loads=initial,
        start_round=start,
        **common,
    )
    loads = phase1.loads
    rounds = phase1.rounds
    messages = phase1.total_messages
    unplaced = phase1.remaining
    straggler_ids = phase1.remaining_ids
    weighted_loads = phase1.weighted_loads
    extra: dict = {
        "phase1_rounds": phase1.rounds,
        "phase1_remaining": phase1.remaining,
        "thresholds": phase1.thresholds,
        "settle_rounds": 0,
        "phase2_rounds": 0,
    }

    if unplaced > 0 and (settle_rounds > 0 or drain_settle):
        settle_bound = bound
        if bound.weights is not None:
            # The settle's balls are the stragglers: carry their weights.
            settle_bound = copy.copy(bound)
            settle_bound.weights = bound.weights[straggler_ids]
        settle = run_threshold_protocol(
            unplaced,
            n,
            FixedSchedule(total, n, slack=0),
            max_rounds=(
                max(settle_rounds, 4 * n) if drain_settle else settle_rounds
            ),
            workload=settle_bound,
            initial_loads=loads,
            # Skewed contact distributions can aim every draw at
            # capacity-less bins; a drain stops paying messages once it
            # stops making progress.
            stall_rounds=8 if drain_settle else None,
            phase="settle",
            **common,
        )
        loads = settle.loads
        rounds += settle.rounds
        messages += settle.total_messages
        if weighted_loads is not None:
            weighted_loads = weighted_loads + settle.weighted_loads
        if straggler_ids is not None:
            straggler_ids = straggler_ids[settle.remaining_ids]
        unplaced = settle.remaining
        extra["settle_rounds"] = settle.rounds

    if handoff and unplaced > 0:
        (phase2,) = _light_phase(n, [unplaced], [factory], config.light)
        rounds, messages = _fold_light(
            phase2, loads, weighted_loads, bound=bound,
            straggler_ids=straggler_ids, metrics=None,
            rounds=rounds, messages=messages, extra=extra,
        )
        unplaced = 0
    workload_record = bound.extra_record(weighted_loads)
    if workload_record is not None:
        extra["workload"] = workload_record
    return AllocationResult(
        algorithm="heavy",
        m=m,
        n=n,
        loads=loads - initial,
        rounds=rounds,
        total_messages=messages,
        complete=unplaced == 0,
        unallocated=unplaced,
        seed_entropy=factory.root_entropy,
        extra=extra,
    )
