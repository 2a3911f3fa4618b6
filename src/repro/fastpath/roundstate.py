"""The shared vectorized round-kernel layer: one backend for all protocols.

Every allocation protocol in the package — the paper's algorithms in
:mod:`repro.core` and the baselines in :mod:`repro.baselines` —
executes the same round skeleton (the light-load subroutine in
:mod:`repro.light` runs it too, over a composite bin space of many
trials, in :func:`repro.light.lw16.run_light_batch`):

1. **sample contacts** — active balls pick target bins (uniformly, with
   fan-out ``d``, or by a protocol-supplied deterministic rule);
2. **group and accept** — bins group the requests addressed to them and
   accept a subset under a capacity rule;
3. **commit and revoke** — accepted balls commit (resolving multiple
   accepts to one), loads/active sets/metrics/message tallies update.

Historically each protocol carried its own copy of that loop; this
module centralizes it.  :class:`RoundState` owns the flat numpy state
(per-bin loads, active-ball ids or the aggregate active count, the
round metrics, and message accounting) and exposes the three kernel
steps as methods.  A protocol is reduced to a *policy*: a per-round
choice of targets, capacities, accept rule, and message-cost shape.

Two granularities share the API:

* ``"perball"`` — exact per-ball semantics over arrays of ball choices
  (``O(m_i log m_i)`` work per round; practical to ``m ≈ 10^7``);
* ``"aggregate"`` — per-bin request *counts* drawn directly from the
  multinomial distribution (``O(n)`` per round, ``m ≈ 10^12``),
  identical in law for every per-bin and global statistic because the
  balls of a uniform-contact round are exchangeable.

Accept policies (the ``policy`` argument of :meth:`RoundState.group_and_accept`):

``"uniform"``
    Each bin accepts up to its capacity, chosen uniformly among its
    requesters (:func:`repro.fastpath.sampling.grouped_accept`); the
    aggregate form is ``min(counts, capacity)``.
``"all_or_nothing"``
    Stemann's collision rule: a bin accepts its entire request batch
    iff it fits within capacity, else none of it.
``"priority_commit"``
    The degree-``d`` phase rule of Lemmas 2/3: bins accept the
    smallest-mark requests up to capacity, balls commit to their
    smallest-mark accept, and revoked accepts return capacity within
    the same resolution (capacity is consumed by *commits* only).

The RNG draw order of each kernel deliberately matches the historical
per-protocol loops, so refactored protocols remain seed-for-seed
reproducible with their pre-kernel implementations — with one scoped
exception: a round whose bins are all saturated (zero residual
capacity everywhere) now skips its vacuous priority draws entirely
(see :func:`repro.fastpath.sampling.grouped_accept`), which offsets
the accept stream relative to pre-kernel code from that round on.
Such rounds reject everything in both versions; only the stream
offset differs, never the distribution.

Per-round fixed cost: past the draw, the steps check only what a
protocol supplies (its ``targets``, and that a capacity covers the
target space), never values the round drew itself, since the dynamic
settle runs about a thousand rounds of a few dozen balls per call;
``commit_and_revoke`` returns nothing, the ``RoundMetrics`` row it
appends being the round's record.

Trial batching (the replication engine's backend): constructing the
aggregate-granularity state with ``trials=T`` gives every owned array a
leading trial axis — ``loads`` becomes ``(T, n)``, the active count a
``(T,)`` vector, messages and round counters per-trial — and the three
kernel steps advance all ``T`` independent replications of the same
``(m, n)`` instance in lock-step.  Each trial draws from its *own*
generator (``sample_contacts`` takes a sequence of ``T`` generators),
and trials that saturate early drop out of the active mask: their rows
stop changing and their generators stop being consumed.  Together
those two properties make a batched trial bitwise-identical to running
that trial alone through the scalar aggregate state — the invariant
the property tests (T=1 equivalence, permutation invariance, masked
isolation) and the ``replicate``-vs-``allocate_many`` equivalence
suite pin down.

Residual loads (the dynamic subsystem's backend): constructing a state
with ``initial_loads=`` starts the per-bin load vector at a residual
occupancy instead of zero — the bins already hold balls from earlier
epochs, and only the ``m`` *new* (arriving or displaced) balls run
through the kernel steps.  Every capacity rule a protocol computes
from ``state.loads`` then respects the residents automatically, which
is what makes incremental rebalancing (see :mod:`repro.dynamic`) a
policy over the unchanged kernels rather than a new engine.  The axis
composes with ``trials=T``: a ``(n,)`` residual broadcasts across
trials and a ``(T, n)`` matrix gives each trial its own, so dynamic
epochs are trial-batchable like everything else.  ``initial_loads``
never consumes randomness; a state whose bins are all saturated
relative to a protocol's thresholds simply yields zero capacity
everywhere, and protocol loops are expected to terminate without
drawing from their streams (the zero-draw regression pinned by the
saturation tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Literal, Optional, Sequence, Union

import numpy as np

from repro.fastpath.backend import resolve_backend
from repro.telemetry import current_telemetry
from repro.fastpath.sampling import (
    ChoiceSampler,
    fill_choices,
    multinomial_occupancy,
    multinomial_occupancy_batched,
    sample_choices,
)
from repro.simulation.metrics import MessageCounter, RoundMetrics, RunMetrics

__all__ = [
    "AcceptDecision",
    "ContactBatch",
    "Granularity",
    "RoundState",
    "narrow_dtypes",
    "priority_commit_accept",
]

Granularity = Literal["perball", "aggregate"]

#: Largest exclusive value an int32 index/count can represent.
_INT32_LIMIT = 2**31


def narrow_dtypes(population: int, n: int) -> tuple[np.dtype, np.dtype]:
    """Storage dtypes ``(index_dtype, load_dtype)`` of a chunked run.

    Bin indices need ``n < 2**31``; ball ids and per-bin loads are
    bounded by the ``population`` (the run's balls plus the residents
    already in the bins), so ``population < 2**31`` covers both.  An
    axis beyond its bound keeps int64 — narrowing is per-axis, never
    all-or-nothing.  Draws always happen at int64/float64 width, so
    narrowing changes storage only, never a value.
    """
    fits_ids = 0 <= population < _INT32_LIMIT
    fits_bins = 0 < n < _INT32_LIMIT
    index_dtype = np.dtype(np.int32 if fits_ids and fits_bins else np.int64)
    load_dtype = np.dtype(np.int32 if fits_ids else np.int64)
    return index_dtype, load_dtype


@dataclass
class ContactBatch:
    """One round's worth of requests, at either granularity.

    Attributes
    ----------
    n_targets:
        Size of the target space.  Usually the bin count, but protocols
        may group requests over a coarser space (the asymmetric
        algorithm's superbins).
    d:
        Contacts per active ball.
    requests_sent:
        Request messages charged for this batch (an ``(T,)`` int64
        vector for trial-batched states).  Protocols that model
        message loss lower this to the delivered count before the
        commit step.
    choices:
        Per-ball granularity: flat int64 array of request targets
        (``u * d`` entries, ball-major).
    requester_pos:
        Flat-request index -> position into the active-ball array.
        ``None`` means the identity (``d == 1``).
    counts:
        Aggregate granularity: per-target request counts (``(T, n)``
        for trial-batched states).
    trial_mask:
        Trial-batched states only: boolean mask of the trials that were
        live when this batch was sampled — the rows this round is
        allowed to touch.
    """

    n_targets: int
    d: int
    requests_sent: Any
    choices: Optional[np.ndarray] = None
    requester_pos: Optional[np.ndarray] = None
    counts: Optional[np.ndarray] = None
    trial_mask: Optional[np.ndarray] = None

    def positions(self) -> np.ndarray:
        """Requester position of every flat request (identity for d=1)."""
        if self.requester_pos is not None:
            return self.requester_pos
        if self.choices is None:
            raise ValueError("aggregate batches have no per-request positions")
        return np.arange(self.choices.size, dtype=np.int64)


@dataclass
class AcceptDecision:
    """Outcome of the group-and-accept step.

    Exactly one representation is populated:

    * ``accepted`` — per-ball granularity, boolean over flat requests
      (``uniform`` / ``all_or_nothing`` policies);
    * ``accepted_per_bin`` — aggregate granularity, per-target counts;
    * ``committed_pos``/``committed_bin`` — ``priority_commit`` policy,
      where accept and commit resolve in one pass (``resolved=True``).

    ``accepts_sent`` is the number of accept messages the bins sent
    (for ``priority_commit`` that equals the commits: revoked accepts
    return capacity and are modeled as not consuming a message, the
    accounting used by the degree-d family).  Trial-batched states
    report it as a ``(T,)`` vector and populate ``accepted_per_bin``
    with the ``(T, n)`` accepted-count matrix.

    ``bin_requests``/``bin_accepts`` ride along with ``accepted`` in a
    per-ball ``uniform`` round with one contact per ball over the bins,
    when the backend's grouping counted the requests per bin: those
    counts, and ``min(counts, capacity)``, the balls each bin accepted
    — which, every accept being a commit, is also its load increment.
    The commit step uses them instead of scattering again, so a
    protocol that edits ``accepted`` must pass a new decision (as
    ``faulty`` does), not the edited one.
    """

    accepts_sent: Any
    accepted: Optional[np.ndarray] = None
    accepted_per_bin: Optional[np.ndarray] = None
    committed_pos: Optional[np.ndarray] = None
    committed_bin: Optional[np.ndarray] = None
    resolved: bool = False
    bin_requests: Optional[np.ndarray] = None
    bin_accepts: Optional[np.ndarray] = None


def priority_commit_accept(
    choices: np.ndarray,
    marks: np.ndarray,
    requester_pos: np.ndarray,
    n_balls: int,
    capacity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve one degree-``d`` phase (Lemmas 2/3 accept rule).

    Bin-side: accept the requests with the smallest tie-break marks, up
    to capacity (i.i.d. marks uniformize the adversarial port order).
    Ball-side: commit to the accepting bin with the smallest mark;
    revoked accepts return capacity within the same resolution, so
    capacity is consumed by commits only.

    Both passes execute on the kernel backend
    (:mod:`repro.fastpath.backend`) — the accept pass shares the one
    grouping primitive with :func:`~repro.fastpath.sampling.grouped_accept`,
    the commit pass is a lexsort (``reference``) or a segmented
    min-mark reduction (``fused``), bitwise-identical either way.

    Parameters
    ----------
    choices, marks, requester_pos:
        Flat per-request targets, priorities, and requester positions.
    n_balls:
        Number of active balls (the requester-position space).
    capacity:
        Per-bin residual capacities.

    Returns
    -------
    (committed_mask, committed_bin)
        Over the active-ball axis; ``committed_bin`` is -1 for balls
        that did not commit.
    """
    return resolve_backend().priority_commit_accept(
        choices, marks, requester_pos, n_balls, capacity
    )


class RoundState:
    """Flat-array round state shared by every vectorized protocol.

    Owns the per-bin load vector, the active-ball set (ids at per-ball
    granularity, a count at aggregate granularity), the per-round
    :class:`~repro.simulation.metrics.RunMetrics`, the running message
    total, and — when ``track_messages`` — the full per-ball/per-bin
    :class:`~repro.simulation.metrics.MessageCounter`.

    Protocols drive it with the three kernel steps::

        state = RoundState(m, n, granularity=mode)
        while state.active_count and state.rounds < budget:
            capacity = np.maximum(threshold(state.rounds) - state.loads, 0)
            batch = state.sample_contacts(rng)
            decision = state.group_and_accept(batch, capacity, accept_rng)
            state.commit_and_revoke(batch, decision, threshold=threshold(...))

    ``active`` is a public array: protocols with ball-level policy
    outside the kernel steps (fault injection crashes, handoff of
    stragglers) may shrink it between rounds.

    Workload support: ``weights`` (per-ball granularity) or
    ``weight_sum_sampler`` (aggregate) switch on the parallel
    ``weighted_loads`` vector — the per-bin weighted intake tracked
    alongside the count-based ``loads`` that all capacity rules use.
    ``sample_contacts`` accepts workload choice ``pvals`` (raw or
    prepared) at both granularities.  With all workload arguments at
    their defaults the state is bitwise-identical to the pre-workload
    kernels.

    Trial batching: ``trials=T`` (aggregate granularity only) gives
    every array a leading trial axis and advances T independent
    replications in lock-step — see the module docstring.  In that
    layout ``weight_sum_sampler`` is a sequence of T per-trial
    samplers, ``metrics`` is unavailable (each trial accumulates its
    own :class:`RunMetrics` in ``trial_metrics``), and ``rounds``
    counts lock-step iterations while ``trial_rounds[t]`` counts the
    rounds trial ``t`` actually executed.

    Residual loads: ``initial_loads=`` starts ``loads`` at an existing
    per-bin occupancy (``(n,)``, or ``(T, n)`` / broadcast-``(n,)`` for
    trial-batched states); only the ``m`` new balls are active, and
    ``placed_loads`` reports their intake separately.  See the module
    docstring and :mod:`repro.dynamic`.

    Chunked storage: ``chunk_size=`` draws each round's per-ball
    choices tile by tile (at most ``chunk_size`` elements per draw, see
    :func:`~repro.fastpath.sampling.fill_choices`) into a fresh array,
    and stores bin indices, ball ids, and per-bin loads as int32 where
    the population fits (:func:`narrow_dtypes`).  Neither changes a
    drawn value: draws stay at the historical widths and only storage
    narrows, so loads, messages, and metrics are bitwise-identical to
    the default run (the scaling-equivalence tests pin this).

    Kernel backend: the state runs the grouping/commit/scatter
    primitives on the backend :func:`~repro.fastpath.backend.resolve_backend`
    selects at construction (``"reference"`` lexsort or the default
    ``"fused"`` counting-sort path — see :mod:`repro.fastpath.backend`).
    Backends are bitwise-identical by contract.
    """

    def __init__(
        self,
        m: int,
        n: int,
        *,
        granularity: Granularity = "perball",
        trials: Optional[int] = None,
        track_messages: bool = False,
        weights: Optional[np.ndarray] = None,
        weight_sum_sampler=None,
        initial_loads: Optional[np.ndarray] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if m < 0 or n < 1:
            raise ValueError(f"need m >= 0 and n >= 1, got m={m}, n={n}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if granularity not in ("perball", "aggregate"):
            raise ValueError(
                f"granularity must be 'perball' or 'aggregate', "
                f"got {granularity!r}"
            )
        if trials is not None:
            if granularity != "aggregate":
                raise ValueError(
                    "trial batching requires granularity='aggregate' "
                    "(per-ball trials have ragged active sets; protocols "
                    "batch them with composite-bin kernels instead)"
                )
            if trials < 1:
                raise ValueError(f"trials must be >= 1, got {trials}")
            if weight_sum_sampler is not None and (
                not isinstance(weight_sum_sampler, (list, tuple))
                or len(weight_sum_sampler) != trials
            ):
                raise ValueError(
                    "trial-batched weight_sum_sampler must be a sequence "
                    f"of {trials} per-trial samplers"
                )
        self.m = m
        self.n = n
        self.granularity: Granularity = granularity
        self.trials = trials
        self.chunk_size = chunk_size
        # Kernel backend: resolved once at construction (use_backend
        # context > REPRO_KERNEL_BACKEND env > "fused"), so a state's
        # whole lifetime runs on one value-identical implementation of
        # the grouping/commit/scatter primitives.
        self.backend = resolve_backend()
        # Telemetry sink, captured once: every per-round hook below is
        # a single ``is not None`` branch when telemetry is off.
        self._telemetry = current_telemetry()
        # Residual occupancy: ``loads`` starts at the residents' per-bin
        # counts (zero for the classic one-shot run).  Kept as its own
        # array so protocols can report the placement delta
        # (``loads - initial_loads``) for the balls they actually moved.
        if initial_loads is not None:
            base = np.asarray(initial_loads)
            if not np.issubdtype(base.dtype, np.integer):
                raise ValueError(
                    f"initial_loads must be an integer array, "
                    f"got dtype {base.dtype}"
                )
            if np.any(base < 0):
                raise ValueError("initial_loads must be non-negative")
            if trials is not None:
                if base.shape == (n,):
                    base = np.broadcast_to(base, (trials, n))
                elif base.shape != (trials, n):
                    raise ValueError(
                        f"trial-batched initial_loads must have shape "
                        f"({n},) or ({trials}, {n}), got {base.shape}"
                    )
            elif base.shape != (n,):
                raise ValueError(
                    f"initial_loads must have shape ({n},), "
                    f"got {base.shape}"
                )
        # Storage widths: int64 by default; a chunked run narrows to
        # int32 wherever the population — this run's balls plus the
        # residents — fits.
        if chunk_size is None:
            self._index_dtype = self._load_dtype = np.dtype(np.int64)
        else:
            residents = 0 if initial_loads is None else int(base.sum())
            self._index_dtype, self._load_dtype = narrow_dtypes(
                m + residents, n
            )
        if initial_loads is not None:
            self.initial_loads: Optional[np.ndarray] = base.astype(
                self._load_dtype, copy=True
            )
        else:
            self.initial_loads = None
        if trials is not None:
            self.loads = (
                self.initial_loads.copy()
                if self.initial_loads is not None
                else np.zeros((trials, n), dtype=self._load_dtype)
            )
            self.metrics = None
            self.trial_metrics = [RunMetrics(m, n) for _ in range(trials)]
            self.total_messages = np.zeros(trials, dtype=np.int64)
            self.trial_rounds = np.zeros(trials, dtype=np.int64)
        else:
            self.loads = (
                self.initial_loads.copy()
                if self.initial_loads is not None
                else np.zeros(n, dtype=self._load_dtype)
            )
            self.metrics = RunMetrics(m, n)
            self.trial_metrics = None
            self.total_messages = 0
            self.trial_rounds = None
        self.rounds = 0
        # Workload weights: ``loads`` stays the ball-count vector that
        # drives every capacity rule (bitwise-identical to the unit
        # protocol); ``weighted_loads`` additionally accumulates the
        # per-bin weighted intake.  Per-ball granularity indexes an
        # explicit per-ball weight array by global ball id; aggregate
        # granularity draws per-bin weight *sums* from a sampler (i.i.d.
        # weights are exchangeable, so the law matches per-ball runs).
        if weights is not None and granularity != "perball":
            raise ValueError(
                "per-ball weights require granularity='perball'; "
                "aggregate runs take weight_sum_sampler instead"
            )
        if weight_sum_sampler is not None and granularity != "aggregate":
            raise ValueError(
                "weight_sum_sampler requires granularity='aggregate'; "
                "per-ball runs take the weights array instead"
            )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (m,):
                raise ValueError(
                    f"weights must have shape ({m},), got {weights.shape}"
                )
        self.weights = weights
        self.weight_sum_sampler = weight_sum_sampler
        if weights is not None or weight_sum_sampler is not None:
            shape = (trials, n) if trials is not None else (n,)
            self.weighted_loads: Optional[np.ndarray] = np.zeros(
                shape, dtype=np.float64
            )
        else:
            self.weighted_loads = None
        if granularity == "perball":
            self.active: Optional[np.ndarray] = np.arange(
                m, dtype=self._index_dtype
            )
            self._active_count = m
            self.counter = MessageCounter(m, n) if track_messages else None
        else:
            if track_messages:
                raise ValueError(
                    "per-ball accounting requires granularity='perball'"
                )
            self.active = None
            self._active_count = (
                np.full(trials, m, dtype=np.int64)
                if trials is not None
                else m
            )
            self.counter = None

    @property
    def active_count(self) -> int:
        """Unallocated balls right now (summed over trials if batched)."""
        if self.active is not None:
            return int(self.active.size)
        if self.trials is not None:
            return int(self._active_count.sum())
        return self._active_count

    @property
    def placed_loads(self) -> np.ndarray:
        """Per-bin intake of this run's own balls (loads minus residual).

        Identical to ``loads`` for states constructed without
        ``initial_loads``.
        """
        if self.initial_loads is None:
            return self.loads
        return self.loads - self.initial_loads

    @property
    def active_counts(self) -> np.ndarray:
        """Per-trial unallocated counts (trial-batched states only)."""
        if self.trials is None:
            raise ValueError("active_counts requires a trial-batched state")
        return self._active_count

    @property
    def active_trials(self) -> np.ndarray:
        """Boolean mask of trials that still have unallocated balls."""
        if self.trials is None:
            raise ValueError("active_trials requires a trial-batched state")
        return self._active_count > 0

    @property
    def any_active(self) -> bool:
        """True while at least one trial (or the scalar run) is live."""
        return self.active_count > 0

    # -- kernel step 1: sample contacts ---------------------------------

    def sample_contacts(
        self,
        rng: Optional[
            np.random.Generator | Sequence[np.random.Generator]
        ] = None,
        *,
        d: int = 1,
        targets: Optional[np.ndarray] = None,
        n_targets: Optional[int] = None,
        pvals: Union[None, np.ndarray, ChoiceSampler] = None,
    ) -> ContactBatch:
        """Draw (or adopt) this round's request targets.

        Parameters
        ----------
        rng:
            Random stream for uniform/multinomial sampling (unused when
            ``targets`` is given).
        d:
            Contacts per active ball (requests are laid out ball-major,
            matching ``rng.integers(..., size=(u, d))`` flattening).
        targets:
            Protocol-supplied flat targets (deterministic rules, derived
            spaces like superbins).  Length must be ``active_count * d``,
            every target inside the target space.
        n_targets:
            Size of the target space when it is not the bin count.
        pvals:
            Non-uniform target probabilities: workload choice skew, or
            derived spaces with unequal blocks (superbins).  A
            :class:`~repro.fastpath.sampling.ChoiceSampler` (a bound
            workload's ``sampler``) skips the per-round validation; a
            raw vector is prepared for this round alone, with the same
            draws.  Default uniform over the target space at both
            granularities; the uniform path consumes the RNG exactly as
            the historical samplers did.

        Trial-batched states take ``rng`` as a sequence of per-trial
        generators; each live trial draws its own multinomial row and
        finished trials consume nothing.
        """
        space = n_targets if n_targets is not None else self.n
        if self.trials is not None:
            if targets is not None:
                raise ValueError(
                    "trial-batched states draw counts; per-ball targets "
                    "have no batched aggregate form"
                )
            if d != 1:
                raise ValueError("aggregate granularity supports d=1 only")
            if rng is None or isinstance(rng, np.random.Generator):
                raise ValueError(
                    "trial-batched sample_contacts needs one generator "
                    "per trial (a sequence, not a single Generator)"
                )
            mask = self._active_count > 0
            counts = multinomial_occupancy_batched(
                self._active_count, space, rng, pvals, active=mask
            )
            requests = np.where(mask, self._active_count, 0)
            return ContactBatch(
                n_targets=space,
                d=1,
                requests_sent=requests,
                counts=counts,
                trial_mask=mask,
            )
        u = self.active_count
        if self.granularity == "aggregate":
            if targets is not None:
                raise ValueError(
                    "aggregate granularity draws counts; pass pvals, "
                    "not per-ball targets"
                )
            if d != 1:
                raise ValueError("aggregate granularity supports d=1 only")
            counts = multinomial_occupancy(u, space, rng, pvals)
            return ContactBatch(
                n_targets=space, d=1, requests_sent=u, counts=counts
            )
        if targets is not None:
            if pvals is not None:
                raise ValueError("pass either targets or pvals, not both")
            choices = np.asarray(targets, dtype=np.int64)
            if choices.ndim == 2:
                choices = choices.reshape(-1)
            if choices.size != u * d:
                raise ValueError(
                    f"targets has {choices.size} entries, expected "
                    f"active_count * d = {u} * {d}"
                )
            # The one range check of a round: drawn targets are in
            # range by construction, so the grouping checks none.
            if choices.size and (choices.min() < 0 or choices.max() >= space):
                raise ValueError(
                    f"request target out of range for {space} targets"
                )
        elif self.chunk_size is not None:
            # Chunked path: the same draws, one bounded tile at a time,
            # stored at the narrowed index width — the memory shape of
            # a 10^8-ball round.
            choices = fill_choices(
                np.empty(u * d, dtype=self._index_dtype),
                space,
                rng,
                pvals,
                chunk_size=self.chunk_size,
            )
        else:
            choices = sample_choices(u * d, space, rng, pvals)
        requester_pos = (
            np.repeat(np.arange(u, dtype=np.int64), d) if d > 1 else None
        )
        return ContactBatch(
            n_targets=space,
            d=d,
            requests_sent=u * d,
            choices=choices,
            requester_pos=requester_pos,
        )

    # -- kernel step 2: group and accept --------------------------------

    def group_and_accept(
        self,
        batch: ContactBatch,
        capacity: Optional[np.ndarray],
        rng: Optional[np.random.Generator] = None,
        *,
        policy: str = "uniform",
        delivered: Optional[np.ndarray] = None,
    ) -> AcceptDecision:
        """Group requests per target and accept under ``capacity``.

        Parameters
        ----------
        batch:
            The contact batch from :meth:`sample_contacts`.
        capacity:
            Per-target residual capacities, at least one per target
            (``ValueError`` otherwise; negative entries count as 0);
            ``None`` accepts everything (one-shot processes).
        rng:
            Random stream for within-bin selection (``uniform``) or
            tie-break marks (``priority_commit``).
        policy:
            ``"uniform"``, ``"all_or_nothing"``, or ``"priority_commit"``
            (see module docstring).
        delivered:
            Optional boolean mask over flat requests: only delivered
            requests reach their bins (message-loss modeling).  The
            returned ``accepted`` mask still spans all requests.
        """
        if batch.counts is not None:
            return self._group_and_accept_aggregate(batch, capacity, policy)
        choices = batch.choices
        k = choices.size
        if capacity is None:
            if policy != "uniform":
                raise ValueError("capacity=None requires policy='uniform'")
            return AcceptDecision(
                accepts_sent=k, accepted=np.ones(k, dtype=bool)
            )
        if policy == "uniform":
            # ``grouped_accept`` without its per-round checks: the
            # targets were range-checked (or drawn in range) by
            # ``sample_contacts``, so a capacity covering the target
            # space covers every request.
            cap = np.maximum(capacity, 0)
            if cap.size < batch.n_targets:
                raise ValueError(
                    f"capacity has {cap.size} entries for "
                    f"{batch.n_targets} targets"
                )
            # Only the delivered requests reach their bins.
            sub = choices if delivered is None else choices[delivered]
            if sub.size == 0 or cap.max() == 0:
                # Nothing to group, or every bin saturated: all requests
                # are rejected without drawing priorities.
                return AcceptDecision(
                    accepts_sent=0, accepted=np.zeros(k, dtype=bool)
                )
            accepted, counts = self.backend.grouped_accept_with_priorities(
                sub, cap, rng.random(sub.size), True
            )
            if delivered is not None:
                hits = np.flatnonzero(delivered)[accepted]
                accepted = np.zeros(k, dtype=bool)
                accepted[hits] = True
                return AcceptDecision(accepts_sent=hits.size, accepted=accepted)
            if (
                counts is None
                or batch.requester_pos is not None
                or counts.size != self.n
            ):
                return AcceptDecision(
                    accepts_sent=int(accepted.sum()), accepted=accepted
                )
            # One contact per ball over the bins: bin b accepts exactly
            # min(count_b, capacity_b) balls, and each accept commits.
            accepts = np.minimum(counts, cap)
            return AcceptDecision(
                accepts_sent=int(accepts.sum()),
                accepted=accepted,
                bin_requests=counts,
                bin_accepts=accepts,
            )
        if policy == "all_or_nothing":
            if delivered is not None:
                raise ValueError(
                    "delivered masks are not supported for all_or_nothing"
                )
            counts = np.bincount(choices, minlength=batch.n_targets)
            fits = (counts > 0) & (counts <= np.maximum(capacity, 0))
            accepted = fits[choices]
            return AcceptDecision(
                accepts_sent=int(accepted.sum()), accepted=accepted
            )
        if policy == "priority_commit":
            if delivered is not None:
                raise ValueError(
                    "delivered masks are not supported for priority_commit"
                )
            marks = rng.random(k)
            committed_mask, committed_bin = self.backend.priority_commit_accept(
                choices, marks, batch.positions(), self.active_count, capacity
            )
            commits = int(committed_mask.sum())
            return AcceptDecision(
                accepts_sent=commits,
                committed_pos=committed_mask,
                committed_bin=committed_bin,
                resolved=True,
            )
        raise ValueError(f"unknown accept policy {policy!r}")

    def _group_and_accept_aggregate(
        self,
        batch: ContactBatch,
        capacity: Optional[np.ndarray],
        policy: str,
    ) -> AcceptDecision:
        counts = batch.counts
        if capacity is None:
            accepted = counts.copy()
        elif policy == "uniform":
            accepted = np.minimum(counts, np.maximum(capacity, 0))
        elif policy == "all_or_nothing":
            fits = (counts > 0) & (counts <= np.maximum(capacity, 0))
            accepted = np.where(fits, counts, 0)
        else:
            raise ValueError(
                f"policy {policy!r} has no aggregate form "
                "(priority_commit needs per-ball identity)"
            )
        # Trial-batched counts are (T, n): accepts are per-trial sums.
        accepts = (
            accepted.sum(axis=1) if accepted.ndim == 2 else int(accepted.sum())
        )
        return AcceptDecision(
            accepts_sent=accepts, accepted_per_bin=accepted
        )

    # -- kernel step 3: commit and revoke -------------------------------

    def commit_and_revoke(
        self,
        batch: ContactBatch,
        decision: AcceptDecision,
        *,
        threshold: Optional[float] = None,
        target_bins: Optional[np.ndarray] = None,
        target_counts: Optional[np.ndarray] = None,
        accept_cost: int = 1,
        count_commits: bool = False,
        record_counter: bool = True,
        record_accepts: bool = True,
    ) -> None:
        """Commit accepted balls, update state, and close the round.

        Resolves multiple accepts per ball (first accepted request in
        ball order — uniform among acceptors, since the accept pass
        already applied random priorities), bumps loads, shrinks the
        active set, appends the
        :class:`~repro.simulation.metrics.RoundMetrics` row, and adds
        this round's messages.  Returns nothing: the appended row
        (``metrics.rounds[-1]``, or a live trial's
        ``trial_metrics[t].rounds[-1]``) is the record of the round.

        Parameters
        ----------
        threshold:
            Recorded in the metrics row (the round's capacity rule).
        target_bins / target_counts:
            Override where committed balls land (per-ball bins /
            aggregate per-bin intake) when commits go to a different
            space than the contacts — the asymmetric algorithm's
            leader-to-member redirection.
        accept_cost:
            Messages charged per accept (0: accepts are silent, as in
            the one-shot baseline; 2: accept plus allocation notice).
        count_commits:
            Charge one extra message per commit (collision protocols
            where the commit is a distinct message).
        record_counter:
            Feed the per-ball/per-bin
            :class:`~repro.simulation.metrics.MessageCounter` (when the
            state tracks one) with the canonical request/accept pattern.
            Protocols whose contacts live in a derived space record
            their own messages instead.
        record_accepts:
            Within ``record_counter``: also record bin->ball accepts
            (off for one-shot processes whose accepts are implicit).
        """
        if self.trials is not None:
            return self._commit_and_revoke_trials(
                batch,
                decision,
                threshold=threshold,
                target_counts=target_counts,
                accept_cost=accept_cost,
                count_commits=count_commits,
            )
        u = self.active_count
        if self.granularity == "aggregate" or batch.counts is not None:
            accepted = decision.accepted_per_bin
            commits = int(accepted.sum())
            intake = target_counts if target_counts is not None else accepted
            self.loads += intake
            if self.weight_sum_sampler is not None:
                self.weighted_loads += self.weight_sum_sampler(intake)
            self._active_count = u - commits
        else:
            balls = self.active
            if decision.resolved:
                committed_mask = decision.committed_pos
                commit_bins = decision.committed_bin[committed_mask]
            elif batch.requester_pos is None:
                committed_mask = decision.accepted
                # The grouping's per-bin accepts stand in for each commit's
                # bin everywhere but in the weighted loads.
                commit_bins = (
                    batch.choices[committed_mask]
                    if decision.bin_accepts is None or self.weights is not None
                    else None
                )
            else:
                accepted = decision.accepted
                acc_positions = batch.requester_pos[accepted]
                acc_bins = batch.choices[accepted]
                committed_mask = np.zeros(u, dtype=bool)
                commit_bins = np.zeros(0, dtype=np.int64)
                if acc_positions.size:
                    sorted_positions, sorted_bins = (
                        self.backend.sort_accepts_by_position(
                            acc_positions, acc_bins
                        )
                    )
                    first = np.concatenate(
                        ([True], sorted_positions[1:] != sorted_positions[:-1])
                    )
                    winners_pos = sorted_positions[first]
                    commit_bins = sorted_bins[first]
                    committed_mask[winners_pos] = True
            # Per-bin accepts are commits one for one, so they also give the
            # commit count without a pass over the mask.
            commits = (
                decision.accepts_sent
                if decision.bin_accepts is not None
                else int(committed_mask.sum())
            )
            record = (
                record_counter
                and self.counter is not None
                and not decision.resolved
                and batch.requester_pos is None
            )
            weighted = self.weights is not None and commits > 0
            # Ids of the committing balls, built only for their readers.
            committed_balls = (
                balls[committed_mask] if record or weighted else None
            )
            bins_for_load = (
                target_bins if target_bins is not None else commit_bins
            )
            if decision.bin_accepts is not None and target_bins is None:
                self.loads += decision.bin_accepts
            else:
                self.backend.scatter_counts(self.loads, bins_for_load)
            if weighted:
                # ``bins_for_load`` is aligned with the committed set (its
                # pairing is the assignment the protocol chose), so the
                # committing balls' weights land where the balls did.
                self.backend.scatter_weights(
                    self.weighted_loads,
                    bins_for_load,
                    self.weights[committed_balls],
                )
            if record:
                self.counter.record_round(
                    balls,
                    committed_balls,
                    batch.choices,
                    commit_bins,
                    accepts=record_accepts,
                    per_bin=(
                        None
                        if decision.bin_requests is None
                        else (decision.bin_requests, decision.bin_accepts)
                    ),
                )
            self.active = balls[~committed_mask]
        messages = batch.requests_sent + accept_cost * decision.accepts_sent
        if count_commits:
            messages += commits
        self.total_messages += messages
        if self._telemetry is not None:
            self._telemetry.count("kernel.rounds")
            self._telemetry.count("kernel.commits", commits)
            self._telemetry.count("kernel.messages", messages)
        self.metrics.add_round(
            RoundMetrics(
                round_no=self.rounds,
                unallocated_start=u,
                requests_sent=batch.requests_sent,
                accepts_sent=decision.accepts_sent,
                rejects_sent=0,
                commits=commits,
                unallocated_end=self.active_count,
                max_load=int(self.loads.max(initial=0)),
                threshold=None if threshold is None else float(threshold),
            )
        )
        self.rounds += 1

    def _commit_and_revoke_trials(
        self,
        batch: ContactBatch,
        decision: AcceptDecision,
        *,
        threshold: Optional[float],
        target_counts: Optional[np.ndarray],
        accept_cost: int,
        count_commits: bool,
    ) -> None:
        """Commit one lock-step round across all live trials.

        Row-for-row this is the scalar aggregate commit: live trials
        take their accepted intake, consume their own weight-sum
        sampler (in per-trial stream order), shrink their active
        counts, append their :class:`RoundMetrics` row, and advance
        their round counter.  Finished trials (outside
        ``batch.trial_mask``) are untouched — no load change, no
        metrics row, no message charge, no sampler draw — which is the
        masked-trial-isolation invariant.
        """
        accepted = decision.accepted_per_bin
        mask = (
            batch.trial_mask
            if batch.trial_mask is not None
            else np.ones(self.trials, dtype=bool)
        )
        commits = accepted.sum(axis=1)
        intake = target_counts if target_counts is not None else accepted
        self.loads += intake
        if self.weight_sum_sampler is not None:
            # One sampler call per live trial, in trial order: each
            # closure draws from its own trial's weights stream exactly
            # as the scalar loop would have on this round.
            for t in np.flatnonzero(mask):
                self.weighted_loads[t] += self.weight_sum_sampler[t](
                    intake[t]
                )
        start = self._active_count.copy()
        self._active_count = start - commits
        accepts = np.asarray(decision.accepts_sent, dtype=np.int64)
        messages = batch.requests_sent + accept_cost * accepts
        if count_commits:
            messages = messages + commits
        self.total_messages += np.where(mask, messages, 0)
        if self._telemetry is not None:
            self._telemetry.count("kernel.rounds", int(mask.sum()))
            self._telemetry.count("kernel.commits", int(commits[mask].sum()))
            self._telemetry.count(
                "kernel.messages", int(messages[mask].sum())
            )
        row_max = self.loads.max(axis=1, initial=0)
        for t in np.flatnonzero(mask):
            self.trial_metrics[t].add_round(
                RoundMetrics(
                    round_no=int(self.trial_rounds[t]),
                    unallocated_start=int(start[t]),
                    requests_sent=int(batch.requests_sent[t]),
                    accepts_sent=int(accepts[t]),
                    rejects_sent=0,
                    commits=int(commits[t]),
                    unallocated_end=int(self._active_count[t]),
                    max_load=int(row_max[t]),
                    threshold=None if threshold is None else float(threshold),
                )
            )
        self.trial_rounds[mask] += 1
        self.rounds += 1
