"""Vectorized sampling kernels shared by every fast-path protocol.

Four primitives cover all the paper's protocols and their workload
generalizations:

* :func:`sample_uniform_choices` — each of ``k`` requests picks a bin
  uniformly and independently at random (step 1 of every round);
* :func:`sample_choices` — the non-uniform generalization: ``k`` i.i.d.
  bin indices drawn from an arbitrary probability vector ``pvals``
  (inverse-CDF sampling); with ``pvals=None`` it delegates to
  :func:`sample_uniform_choices` and is bitwise-identical to it;
* :func:`multinomial_occupancy` — the aggregate equivalent: per-bin
  request *counts* for ``k`` exchangeable requests, ``O(n)`` memory,
  uniform by default or under any ``pvals``;
* :func:`grouped_accept` — step 2: given flat request targets and
  per-bin residual capacities, select which requests are accepted, each
  bin choosing uniformly at random among its requesters (equivalently:
  arbitrarily under the adversarial port model — uniform is one valid
  adversary, and the protocols' guarantees must and do hold for it).

Trial batching: every kernel also has a form that advances ``T``
independent replications of the same instance in one call —
:func:`multinomial_occupancy_batched` (a ``(T, n)`` occupancy matrix
drawn from per-trial generators) and
:func:`grouped_accept_with_priorities` (the deterministic core of
:func:`grouped_accept`, taking pre-drawn priorities so a caller can
concatenate many trials' requests into one composite-bin sort).  The
batched forms take one generator *per trial* and consume each exactly
as the scalar kernel would, so a batched trial is bitwise-identical to
running that trial alone — the contract the replication engine's
equivalence tests pin down.

Chunked sampling (the 10^8-ball enabler): :func:`fill_choices`
produces exactly the values of :func:`sample_choices` but writes them
into a caller-supplied (possibly narrower-dtype) array, drawing
through a bounded temporary tile.  It relies on the fact that numpy's
``Generator`` consumes its bit stream value-by-value: splitting one
size-``k`` draw into sequential tiles yields the bitwise-identical
concatenation — the stream-accounting property the chunked-equivalence
tests pin.

Prepared distributions: :class:`ChoiceSampler` validates a choice
distribution once and keeps its CDF plus a guide table, so a protocol
that draws from one distribution round after round (a workload
binding, see :func:`repro.workloads.bind_workload`) pays for the
validation and the cumsum once.  Every ``pvals`` argument above takes
``None``, a raw vector (prepared on entry) or a prepared sampler, so
there is one non-uniform code path.  A draw returns exactly
``searchsorted(cdf, rng.random(k), side="right")`` — large draws start
from the guide table and step forward instead of binary-searching
every key (``docs/performance.md``, "Prepared contact sampler").
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.fastpath.backend import resolve_backend

__all__ = [
    "ChoiceSampler",
    "fill_choices",
    "grouped_accept",
    "grouped_accept_with_priorities",
    "multinomial_occupancy",
    "multinomial_occupancy_batched",
    "prepare_choices",
    "sample_choices",
    "sample_uniform_choices",
    "validate_pvals",
]

#: Absolute tolerance for a probability vector's sum; within it the
#: vector is renormalized exactly, beyond it the caller made an error.
_PVALS_SUM_ATOL = 1e-6


def validate_pvals(pvals: np.ndarray, n_bins: int) -> np.ndarray:
    """Validate and exactly normalize a bin probability vector.

    Accepts any float-convertible 1-D array of length ``n_bins`` whose
    entries are finite, non-negative, and sum to 1 within a small float
    tolerance (zero-probability bins are fine).  Returns a fresh
    float64 copy renormalized to sum to exactly 1, so downstream
    inverse-CDF and multinomial sampling never sees drift.
    """
    arr = np.asarray(pvals)
    if not (
        np.issubdtype(arr.dtype, np.floating)
        or np.issubdtype(arr.dtype, np.integer)
    ):
        raise ValueError(
            f"pvals must be a numeric array, got dtype {arr.dtype}"
        )
    arr = arr.astype(np.float64, copy=True)
    if arr.ndim != 1 or arr.size != n_bins:
        raise ValueError(
            f"pvals must be 1-D of length n_bins={n_bins}, "
            f"got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValueError("pvals must be finite")
    if arr.min(initial=0.0) < 0:
        raise ValueError("pvals must be non-negative")
    total = float(arr.sum())
    if abs(total - 1.0) > _PVALS_SUM_ATOL:
        raise ValueError(
            f"pvals must sum to 1 (within {_PVALS_SUM_ATOL}), got {total}"
        )
    # Renormalize only when the sum actually drifted: dividing by an
    # exact 1.0 is the identity, and skipping it keeps historical
    # probability vectors (e.g. superbin block_sizes/n with power-of-2
    # n) bitwise-unchanged through this validator.
    return arr if total == 1.0 else arr / total


#: Draws of fewer keys binary-search the CDF; larger ones walk from the
#: guide table, whose per-pass overhead loses on small draws.
_WALK_MIN_KEYS = 512


class ChoiceSampler:
    """A choice distribution validated once and prepared for draws.

    ``p`` is ``validate_pvals(pvals, n_bins)`` — the very call every
    unprepared draw makes, on the same input, so the prepared and the
    unprepared draws see bitwise-equal probabilities — and ``cdf`` is
    its cumsum with ``cdf[-1] = 1.0``.  Both are private read-only
    copies: mutating the caller's vector after preparation changes no
    draw.

    :meth:`lookup` maps keys ``u`` in ``[0, 1)`` to
    ``searchsorted(cdf, u, side="right")``, bit for bit.  Draws of at
    least ``_WALK_MIN_KEYS`` keys start at ``guide[floor(u * G)]`` and
    step forward while ``cdf[idx] <= u``, where the guide table (built
    on the first such draw) holds ``guide[j] = searchsorted(cdf, j / G,
    side="right")`` for the smallest power of two ``G >= 4n``.

    Exactness: ``u * G`` only shifts the exponent, so ``floor(u * G) /
    G <= u`` and the walk starts at or below the answer; ``cdf[-1] =
    1.0 > u`` stops it by ``n - 1``.  The predicate ``cdf[i] > u`` stays
    monotone even when the cumsum overshoots 1.0 before its last entry,
    so the walk and the binary search agree there too.
    """

    __slots__ = ("n", "p", "cdf", "_guide")

    def __init__(self, pvals, n_bins: int) -> None:
        p = validate_pvals(pvals, n_bins)
        cdf = np.cumsum(p)
        cdf[-1] = 1.0  # guard the top edge against cumsum rounding
        p.flags.writeable = False
        cdf.flags.writeable = False
        self.n = n_bins
        self.p = p
        self.cdf = cdf
        self._guide: Optional[np.ndarray] = None

    def _build_guide(self) -> np.ndarray:
        n = self.n
        # The smallest power of two >= 4n.  On quarantined-uniform and
        # Zipf(1.1) vectors a key then walks 0.08-0.12 steps on average
        # and at most 3; with G = 2^ceil(log2 n) it was 0.3-0.5 and 11.
        size = 1 << (4 * n - 1).bit_length()
        # cdf[i] <= j / G  <=>  ceil(cdf[i] * G) <= j: scaling by a power
        # of two is exact, so counting slots reproduces searchsorted at
        # every slot edge in O(n + G).  Entries past the last slot
        # (cdf = 1.0, or a cumsum overshoot) never count.
        slots = np.minimum(np.ceil(self.cdf * size), size).astype(np.intp)
        guide = np.cumsum(np.bincount(slots, minlength=size + 1)[:size])
        self._guide = guide.astype(
            np.int32 if n <= np.iinfo(np.int32).max else np.int64
        )
        return self._guide

    def lookup(self, u: np.ndarray) -> np.ndarray:
        """``searchsorted(cdf, u, side="right")`` for keys in ``[0, 1)``."""
        cdf = self.cdf
        if u.size < _WALK_MIN_KEYS:
            return np.searchsorted(cdf, u, side="right")
        guide = self._guide if self._guide is not None else self._build_guide()
        idx = guide[(u * guide.size).astype(np.intp)]
        # Step only the keys still below their answer, shrinking the set
        # each pass: the cost is the total walk length.
        walk = np.flatnonzero(cdf[idx] <= u)
        while walk.size:
            idx[walk] += 1
            walk = walk[cdf[idx[walk]] <= u[walk]]
        return idx

    def draw(self, k: int, rng: np.random.Generator) -> np.ndarray:
        """``k`` i.i.d. bin indices as int64, one ``rng.random`` key each."""
        return self.lookup(rng.random(k)).astype(np.int64, copy=False)


def prepare_choices(pvals, n_bins: int) -> Optional[ChoiceSampler]:
    """``None`` (uniform), or ``pvals`` prepared over ``n_bins`` bins.

    A :class:`ChoiceSampler` passes through (its bin count must match);
    a raw probability vector is validated and prepared.
    """
    if pvals is None:
        return None
    if isinstance(pvals, ChoiceSampler):
        if pvals.n != n_bins:
            raise ValueError(
                f"prepared sampler has {pvals.n} bins, expected {n_bins}"
            )
        return pvals
    return ChoiceSampler(pvals, n_bins)


def sample_uniform_choices(
    k: int, n_bins: int, rng: np.random.Generator
) -> np.ndarray:
    """``k`` i.i.d. uniform bin indices in ``[0, n_bins)`` as int64."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    return rng.integers(0, n_bins, size=k, dtype=np.int64)


def sample_choices(
    k: int,
    n_bins: int,
    rng: np.random.Generator,
    pvals: Union[None, np.ndarray, ChoiceSampler] = None,
) -> np.ndarray:
    """``k`` i.i.d. bin indices drawn from ``pvals`` (uniform if None).

    The uniform path (``pvals=None``) is exactly
    :func:`sample_uniform_choices` — same RNG consumption, bitwise
    identical — so workload-aware call sites stay seed-compatible with
    the historical uniform samplers.  The non-uniform path uses
    inverse-CDF sampling through a :class:`ChoiceSampler` (``pvals`` is
    prepared on entry unless it already is one), one uniform draw per
    request.
    """
    if pvals is None:
        return sample_uniform_choices(k, n_bins, rng)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    sampler = prepare_choices(pvals, n_bins)
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    return sampler.draw(k, rng)


def fill_choices(
    out: np.ndarray,
    n_bins: int,
    rng: np.random.Generator,
    pvals: Union[None, np.ndarray, ChoiceSampler] = None,
    chunk_size: Optional[int] = None,
) -> np.ndarray:
    """Fill ``out`` with ``sample_choices(out.size, n_bins, rng, pvals)``.

    The values (and the RNG stream consumed) are exactly those of
    :func:`sample_choices`; only the storage differs — ``out`` may have
    a narrower integer dtype (values always fit: they are bin indices
    below ``n_bins``).  Draws go through a
    bounded temporary of at most ``chunk_size`` elements (default: one
    shot), so the transient footprint of an ``m = 10**8`` round is one
    tile, not a second ``O(m)`` array.  Tiling is stream-exact because
    the generator consumes its bit stream value-by-value: sequential
    tile draws concatenate bitwise-identically to the single draw.
    """
    k = out.size
    if out.ndim != 1 or not out.flags.c_contiguous:
        raise ValueError("out must be a 1-D C-contiguous array")
    if not np.issubdtype(out.dtype, np.integer):
        raise ValueError(
            f"out must be an integer array, got dtype {out.dtype}"
        )
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if n_bins > np.iinfo(out.dtype).max + 1:
        raise ValueError(
            f"n_bins={n_bins} does not fit in out dtype {out.dtype}"
        )
    tile = max(1, k if chunk_size is None else int(chunk_size))
    sampler = prepare_choices(pvals, n_bins)
    for lo in range(0, k, tile):
        hi = min(lo + tile, k)
        if sampler is None:
            out[lo:hi] = rng.integers(0, n_bins, size=hi - lo, dtype=np.int64)
        else:
            out[lo:hi] = sampler.lookup(rng.random(hi - lo))
    return out


def multinomial_occupancy(
    k: int,
    n_bins: int,
    rng: np.random.Generator,
    pvals: Union[None, np.ndarray, ChoiceSampler] = None,
) -> np.ndarray:
    """Per-bin request counts for ``k`` exchangeable requests.

    Exactly the distribution of ``np.bincount(sample_choices(k, n, rng,
    pvals), minlength=n)`` at a fraction of the cost for ``k >> n``.
    Uses the conditional binomial decomposition internally via numpy's
    ``multinomial``, which accepts 64-bit ``k``.  ``pvals=None`` is the
    historical uniform path (bitwise unchanged); any validated
    probability vector (or a :class:`ChoiceSampler`'s ``p``)
    generalizes it to skewed choice distributions.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if k == 0:
        return np.zeros(n_bins, dtype=np.int64)
    return rng.multinomial(k, _multinomial_p(pvals, n_bins)).astype(np.int64)


def _multinomial_p(pvals, n_bins: int) -> np.ndarray:
    """The probability vector a multinomial draw over ``n_bins`` uses."""
    if pvals is None:
        return np.full(n_bins, 1.0 / n_bins)
    return prepare_choices(pvals, n_bins).p


def multinomial_occupancy_batched(
    ks: np.ndarray,
    n_bins: int,
    rngs,
    pvals: Union[None, np.ndarray, ChoiceSampler] = None,
    active: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-bin request counts for ``T`` independent trials at once.

    Row ``t`` of the returned ``(T, n_bins)`` int64 matrix is exactly
    ``multinomial_occupancy(ks[t], n_bins, rngs[t], pvals)`` — each
    trial draws from its *own* generator, in trial order, so a batched
    trial is bitwise-identical to running it alone.  Trials outside the
    ``active`` mask (or with ``ks[t] == 0``) contribute an all-zero row
    and consume nothing from their generator — a saturated replication
    stops drawing, exactly as its sequential loop would have stopped.

    Parameters
    ----------
    ks:
        Per-trial request counts, shape ``(T,)``.
    n_bins:
        Size of the target space (shared by all trials).
    rngs:
        Sequence of ``T`` generators, one per trial.
    pvals:
        Optional shared choice distribution, raw or prepared (validated
        once either way).
    active:
        Optional boolean mask of live trials; inactive rows stay zero.
    """
    ks = np.asarray(ks, dtype=np.int64)
    if ks.ndim != 1:
        raise ValueError(f"ks must be 1-D (one count per trial), got shape {ks.shape}")
    trials = ks.size
    if len(rngs) != trials:
        raise ValueError(
            f"need one generator per trial: got {len(rngs)} for {trials}"
        )
    if ks.min(initial=0) < 0:
        raise ValueError("per-trial counts must be >= 0")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    if active is not None:
        active = np.asarray(active, dtype=bool)
        if active.shape != (trials,):
            raise ValueError(
                f"active mask must have shape ({trials},), got {active.shape}"
            )
    p = _multinomial_p(pvals, n_bins)
    counts = np.zeros((trials, n_bins), dtype=np.int64)
    for t in range(trials):
        if active is not None and not active[t]:
            continue
        k = int(ks[t])
        if k == 0:
            continue
        counts[t] = rngs[t].multinomial(k, p)
    return counts


def grouped_accept(
    choices: np.ndarray,
    capacity: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Boolean mask: which flat requests are accepted.

    Each bin ``b`` accepts ``min(capacity[b], #requests to b)`` of its
    requests, selected uniformly at random.

    Implementation: draw an i.i.d. priority per request, then resolve
    the within-bin selection with the active kernel backend — the
    ``reference`` lexsort by (bin, priority), or the ``fused``
    counting-sort grouping (see :mod:`repro.fastpath.backend`).  Both
    are bitwise-identical; no Python loop either way.

    Parameters
    ----------
    choices:
        int64 array of request targets (flat; multiple requests by one
        ball appear as multiple entries).
    capacity:
        int array of per-bin residual capacities (negative values are
        treated as 0).
    rng:
        Random stream for the within-bin selection.
    """
    choices = np.asarray(choices)
    capacity = np.atleast_1d(np.asarray(capacity))
    k = choices.size
    if k == 0:
        # Empty request round: nothing to group, no RNG consumed.
        return np.zeros(0, dtype=bool)
    if not np.issubdtype(choices.dtype, np.integer):
        raise ValueError(
            f"choices must be an integer array, got dtype {choices.dtype}"
        )
    if choices.min() < 0 or choices.max() >= capacity.size:
        raise ValueError("request target out of range for capacity array")
    cap = np.maximum(capacity, 0)
    if int(cap.max(initial=0)) == 0:
        # Every bin saturated (zero-capacity round): all requests are
        # rejected; skip the grouping and its priority draws.
        return np.zeros(k, dtype=bool)
    return grouped_accept_with_priorities(choices, cap, rng.random(k))


def grouped_accept_with_priorities(
    choices: np.ndarray,
    capacity: np.ndarray,
    priorities: np.ndarray,
) -> np.ndarray:
    """The deterministic core of :func:`grouped_accept`.

    Accept the lowest-priority requests of each bin up to capacity.
    Splitting the priority draw from the selection lets a trial-batched
    caller concatenate many trials' requests — drawing each trial's
    priorities from that trial's own generator, offsetting bin indices
    into a composite ``trial * n + bin`` space — and resolve them all
    in one grouping pass, bitwise-matching the per-trial results.

    The grouping itself lives on the kernel backend
    (:mod:`repro.fastpath.backend`): the ``reference`` lexsort or the
    ``fused`` counting-sort path, whichever
    :func:`~repro.fastpath.backend.resolve_backend` selects, identical
    in value either way.

    ``capacity`` must already be clamped to ``>= 0``; ``priorities``
    must align with ``choices``.
    """
    if priorities.shape != choices.shape:
        raise ValueError(
            f"priorities shape {priorities.shape} must match choices "
            f"shape {choices.shape}"
        )
    return resolve_backend().grouped_accept_with_priorities(
        choices, capacity, priorities
    )
