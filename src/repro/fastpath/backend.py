"""Pluggable kernel backends for the bin-side resolution primitives.

Every round of every protocol funnels through the same three hot
primitives: *group requests per bin and accept under capacity*,
*resolve each ball's accepts to one commit*, and *scatter commits into
the load vectors*.  This module is the seam that lets those primitives
be swapped wholesale:

``reference``
    The historical implementation — ``np.lexsort`` grouping,
    stable-``argsort`` commit resolution, ``np.add.at`` scatters.
    Moved here verbatim from ``roundstate.py``/``sampling.py`` so the
    lexsort accept grouping exists in exactly one place.

``fused`` (the default)
    Counting-sort grouping: classify bins with one ``np.bincount``
    (bins whose request count fits capacity accept everything, bins
    with zero capacity reject everything — neither needs a sort), then
    select within the *contended* remainder.  When the ``c`` contended
    requests fill at least 8 buckets of about 4 per bin, *exact bucket
    selection*: one histogram over ``(bin, floor(priority * K))``
    cells, ``K`` a power of two with ``n * K <= c / 4``, and a per-bin
    running count find each bin's boundary bucket; requests below it
    are accepted, requests above it rejected, and only the boundary
    buckets' members (4–8 per bin) are selected — ``O(m + n K + b log
    b)`` for ``b`` boundary requests.  Otherwise the whole contended
    subset is selected — ``O(m + n + c log c)``, by one sort of key
    values and one cutoff key per bin.  Commit resolution exploits the
    ball-major request layout with a segmented ``np.minimum.reduceat``
    instead of a second lexsort, and integer scatters use
    ``np.bincount`` when dense.  The reference is ``O(m log m)``
    always.

The contract, enforced by the backend-equivalence test suite and
in-run by ``benchmarks/run_benchmarks.py``: both backends consume the
identical RNG draw sequence and return **bitwise-identical** results —
only post-draw deterministic computation is reorganized.  The one
deliberate exception is :meth:`KernelBackend.scatter_weights`
(float-weighted scatters), which both backends keep on ``np.add.at``
because ``np.bincount(..., weights=)`` sums in a different association
order and float addition is not associative.

Selection order (first match wins):

1. the ambient :func:`use_backend` context, which every process pool
   re-pins in its workers;
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the module default, ``"fused"``.

The two backends are the fixed mapping :data:`BACKENDS`; a future
compiled (numba/C) backend is one more entry there and inherits the
whole equivalence harness.
"""

from __future__ import annotations

import contextvars
import os
import time
from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np

from repro.telemetry import current_telemetry

__all__ = [
    "BACKENDS",
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "ReferenceBackend",
    "FusedBackend",
    "ProfilingBackend",
    "resolve_backend",
    "use_backend",
    "scatter_counts",
]

#: Environment override: set ``REPRO_KERNEL_BACKEND=reference`` to run
#: an entire process on the historical kernels (CI does, once, to prove
#: the default flip cannot hide behind the equivalence tests).
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: The package-wide default backend name.
DEFAULT_BACKEND = "fused"


class KernelBackend:
    """Interface of the swappable bin-side resolution primitives.

    Implementations must be *value-identical*: for any inputs, every
    method returns (or writes) bitwise-identical results across
    backends.  Backends are stateless and shared; methods must not
    retain references to their arguments.
    """

    #: Key in :data:`BACKENDS`; what :func:`use_backend` and the env
    #: var match.
    name: str = "abstract"

    # -- grouping / accept ----------------------------------------------

    def grouped_accept_with_priorities(
        self,
        choices: np.ndarray,
        capacity: np.ndarray,
        priorities: np.ndarray,
        return_counts: bool = False,
    ):
        """Boolean mask: per bin, accept the ``capacity[b]`` requests
        with the smallest priorities (ties by original index).

        ``capacity`` must already be clamped to ``>= 0`` and cover the
        target space; ``priorities`` aligns with ``choices``.  With
        ``return_counts``, returns ``(mask, counts)``: ``counts`` is
        the per-bin request count when the grouping computed one on
        its way (``None`` otherwise), handed over so that callers need
        not count the requests again.
        """
        raise NotImplementedError

    # -- priority-commit resolution (Lemmas 2/3) ------------------------

    def priority_commit_accept(
        self,
        choices: np.ndarray,
        marks: np.ndarray,
        requester_pos: np.ndarray,
        n_balls: int,
        capacity: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resolve one degree-``d`` phase (accept by smallest mark up
        to capacity; each ball commits to its smallest-mark accept).

        Returns ``(committed_mask, committed_bin)`` over the
        active-ball axis; ``committed_bin`` is -1 for balls that did
        not commit.
        """
        cap = np.maximum(capacity, 0)
        accepted = self.grouped_accept_with_priorities(choices, cap, marks)
        committed_mask = np.zeros(n_balls, dtype=bool)
        committed_bin = np.full(n_balls, -1, dtype=np.int64)
        if accepted.any():
            acc_ball = requester_pos[accepted]
            acc_bin = choices[accepted]
            acc_mark = marks[accepted]
            winners = self._commit_winners(acc_ball, acc_mark)
            committed_mask[acc_ball[winners]] = True
            committed_bin[acc_ball[winners]] = acc_bin[winners]
        return committed_mask, committed_bin

    def _commit_winners(
        self, acc_ball: np.ndarray, acc_mark: np.ndarray
    ) -> np.ndarray:
        """Indices into the accept arrays: per ball, the accept with
        the smallest mark (ties by original index)."""
        raise NotImplementedError

    # -- multi-accept commit resolution (uniform policy, d > 1) ---------

    def sort_accepts_by_position(
        self, acc_positions: np.ndarray, acc_bins: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return the accepted (position, bin) pairs ordered by
        requester position, stably (equal positions keep their original
        relative order — the accept pass already randomized it)."""
        raise NotImplementedError

    # -- scatters -------------------------------------------------------

    def scatter_counts(self, target: np.ndarray, indices: np.ndarray) -> None:
        """``target[i] += 1`` for each entry of ``indices``, in place.

        Integer addition is associative, so any accumulation order is
        exact — backends may reorganize freely.
        """
        raise NotImplementedError

    def scatter_weights(
        self,
        target: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        """``target[indices[j]] += weights[j]``, in place.

        Float addition is *not* associative, so every backend keeps the
        historical ``np.add.at`` accumulation order — the documented
        exception to the sort-free rewrite.
        """
        np.add.at(target, indices, weights)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<KernelBackend {self.name!r}>"


def _accept_in_order(
    bins: np.ndarray, order: np.ndarray, capacity: np.ndarray
) -> np.ndarray:
    """Boolean mask over ``bins``: accept the first ``capacity[b]``
    entries of each bin ``b`` in ``order``, a permutation that lists
    each bin's entries contiguously, best first."""
    k = order.size
    sorted_bins = bins[order]
    change = np.flatnonzero(np.diff(sorted_bins)) + 1
    starts = np.concatenate(([0], change))
    block_lengths = np.diff(np.concatenate((starts, [k])))
    group_start = np.repeat(starts, block_lengths)
    rank_within_bin = np.arange(k) - group_start
    mask = np.zeros(k, dtype=bool)
    mask[order[rank_within_bin < capacity[sorted_bins]]] = True
    return mask


def _cutoff_accept(bins, priorities, take, counts, listed=None):
    """Boolean mask over ``bins``: each bin ``b`` accepts its
    ``take[b]`` entries with the smallest priorities, ties by index (the
    order of ``np.lexsort((priorities, bins))``), by one value sort.

    ``counts`` holds the entry counts of the bins in ``listed``, which
    names every bin of ``bins`` in increasing order (``None``: every
    bin); ``0 <= take <= count``; priorities lie in ``[0, 1)``.  The key
    ``2 * bin + priority`` is monotone in (bin, priority), as rounding
    is monotone, and keeps bin ``b`` in ``[2b, 2b + 1]``: so each bin's
    cutoff is its sorted key at ``start + take - 1``, and ``key <=
    cutoff`` is exact unless the bin's next key equals the cutoff.
    Only those *split* bins are ranked, by the reference's lexsort.
    """
    key = bins * 2.0 + priorities
    ordered = np.sort(key)
    bin_take = take if listed is None else take[listed]
    pos = np.cumsum(counts) - counts + bin_take - 1
    # A bin that takes nothing cuts below every key.
    cut = np.where(bin_take > 0, ordered[pos], -1.0)
    split = np.flatnonzero(bin_take < counts)
    split = split[ordered[pos[split] + 1] == cut[split]]
    if listed is not None:
        bin_cut = np.empty(take.size)
        bin_cut[listed] = cut
        cut, split = bin_cut, listed[split]
    mask = key <= cut[bins]
    if split.size:
        rows = np.flatnonzero(np.isin(bins, split))
        row_bins = bins[rows]
        mask[rows] = _accept_in_order(
            row_bins, np.lexsort((priorities[rows], row_bins)), take
        )
    return mask


class ReferenceBackend(KernelBackend):
    """The historical lexsort/argsort/add.at kernels, verbatim.

    This is the single home of the lexsort accept grouping that used to
    exist twice (``sampling.grouped_accept_with_priorities`` and the
    accept pass inside ``roundstate.priority_commit_accept``).
    """

    name = "reference"

    def grouped_accept_with_priorities(
        self, choices, capacity, priorities, return_counts=False
    ):
        order = np.lexsort((priorities, choices))
        mask = _accept_in_order(choices, order, capacity)
        return (mask, None) if return_counts else mask

    def _commit_winners(self, acc_ball, acc_mark):
        order2 = np.lexsort((acc_mark, acc_ball))
        b_sorted = acc_ball[order2]
        first = np.concatenate(([True], b_sorted[1:] != b_sorted[:-1]))
        return order2[first]

    def sort_accepts_by_position(self, acc_positions, acc_bins):
        order = np.argsort(acc_positions, kind="stable")
        return acc_positions[order], acc_bins[order]

    def scatter_counts(self, target, indices):
        np.add.at(target, indices, 1)


#: Bin spaces at or beyond ``2**32`` take the reference sort, the exact
#: specification; no caller groups over spaces that large.
_MAX_FUSED_BINS = 1 << 32
#: Bucket selection sizes its histogram for about this many contended
#: requests per (bin, bucket) cell, and selects the whole contended
#: subset instead when fewer than ``_MIN_BUCKETS`` buckets would fit.
_BUCKET_CELL = 4
_MIN_BUCKETS = 8


class FusedBackend(ReferenceBackend):
    """Counting-sort grouping, segmented commit, bincount scatters.

    Grouping selects only what capacity leaves undecided: with many
    contended requests per bin, exact bucket selection
    (:meth:`_bucketed_accept`) leaves just each bin's boundary bucket,
    ``O(m + n K + b log b)``; with few, cutoff selection
    (:func:`_cutoff_accept`) takes the contended requests,
    ``O(m + n + c log c)``.

    Inherits the reference implementations as its exact fallback for
    inputs outside the fast path's preconditions (priorities outside
    ``[0, 1)``, bin spaces >= 2**32, unsorted requester positions) —
    the fallback *is* the specification, so those inputs stay
    bitwise-correct by construction.
    """

    name = "fused"

    def grouped_accept_with_priorities(
        self, choices, capacity, priorities, return_counts=False
    ):
        n = capacity.size
        if n >= _MAX_FUSED_BINS:
            return super().grouped_accept_with_priorities(
                choices, capacity, priorities, return_counts
            )
        counts = np.bincount(choices, minlength=n)
        mask = self._counted_accept(choices, capacity, priorities, counts)
        return (mask, counts) if return_counts else mask

    def _counted_accept(self, choices, capacity, priorities, counts):
        """The accept mask, given the per-bin request ``counts``: full
        bins accept every request, zero-capacity bins none, and the
        ``c`` requests to contended bins take bucket selection when they
        fill enough buckets, else cutoff selection: over every request,
        which gathers nothing, when ``c`` is at least half the round,
        or over the contended requests alone."""
        n = capacity.size
        full = counts <= capacity
        contended = ~full & (capacity > 0)
        listed = np.flatnonzero(contended)
        if not listed.size:
            return full[choices]
        if not (priorities.min() >= 0.0 and priorities.max() < 1.0):
            # Buckets and cutoff keys order [0, 1) only; other floats
            # (never drawn, but this is a public primitive) cannot.
            return super().grouped_accept_with_priorities(
                choices, capacity, priorities
            )
        listed_counts = counts[listed]
        c = int(listed_counts.sum())
        cells = c // (_BUCKET_CELL * n)
        if cells >= _MIN_BUCKETS:
            return self._bucketed_accept(
                choices, priorities, capacity, listed,
                1 << (cells.bit_length() - 1),
            )
        if 2 * c >= choices.size:
            # Full bins cut at their last key, zero-capacity ones below.
            return _cutoff_accept(
                choices, priorities, np.minimum(counts, capacity), counts
            )
        sel = contended[choices]
        mask = full[choices]
        mask[sel] = _cutoff_accept(
            choices[sel], priorities[sel], capacity, listed_counts, listed
        )
        return mask

    def _bucketed_accept(self, choices, priorities, capacity, listed,
                         buckets):
        """The accept mask, found without sorting the contended bins.

        ``floor(priority * buckets)`` is exact and monotone for
        priorities in ``[0, 1)`` and a power-of-two ``buckets``.  One
        histogram over ``(bin, bucket)`` cells and a per-bin running
        count locate each contended bin's (``listed``) *boundary
        bucket*, the first whose running count reaches capacity:
        requests below it are accepted, requests above it rejected, and
        only the boundary buckets' members go through cutoff selection,
        for the capacity the lower buckets ``left``.  Keys stay below
        ``n * buckets <= c / _BUCKET_CELL`` (``c`` contended requests),
        so int32 choices cannot overflow.
        """
        n = capacity.size
        key_dtype = np.promote_types(choices.dtype, np.int32)
        bucket = (priorities * buckets).astype(key_dtype)
        hist = np.bincount(
            choices.astype(key_dtype, copy=False) * buckets + bucket,
            minlength=n * buckets,
        ).reshape(n, buckets)
        short = hist.cumsum(axis=1) < capacity[:, None]
        # Full bins accept every bucket and zero-capacity bins none, so
        # neither has a boundary bucket to rank.
        boundary = np.where(capacity > 0, buckets, -1).astype(key_dtype)
        boundary[listed] = short[listed].sum(axis=1)
        left = capacity - (hist * short).sum(axis=1)
        bin_boundary = boundary[choices]
        accepted = bucket < bin_boundary
        tied = np.flatnonzero(bucket == bin_boundary)
        accepted[tied] = _cutoff_accept(
            choices[tied], priorities[tied], left,
            hist[listed, boundary[listed]], listed,
        )
        return accepted

    def _commit_winners(self, acc_ball, acc_mark):
        if not np.all(acc_ball[1:] >= acc_ball[:-1]):
            # Requester positions are ball-major in every kernel path
            # (``repeat(arange(u), d)`` filtered by a mask), but the
            # primitive is public: unsorted inputs take the lexsort.
            return super()._commit_winners(acc_ball, acc_mark)
        ka = acc_ball.size
        first = np.concatenate(([True], acc_ball[1:] != acc_ball[:-1]))
        seg_starts = np.flatnonzero(first)
        seg_id = np.cumsum(first) - 1
        min_marks = np.minimum.reduceat(acc_mark, seg_starts)
        # Winner = earliest accept achieving its ball's minimum mark —
        # the same (mark, original index) order the stable lexsort
        # produces.  Comparing against the reduced minima is exact:
        # each minimum *is* one of the compared float values.
        is_min = acc_mark == min_marks[seg_id]
        candidates = np.where(is_min, np.arange(ka), ka)
        return np.minimum.reduceat(candidates, seg_starts)

    def sort_accepts_by_position(self, acc_positions, acc_bins):
        if np.all(acc_positions[1:] >= acc_positions[:-1]):
            # Already ball-major (the boolean accept mask preserves the
            # repeat(arange, d) layout): the stable argsort would be
            # the identity permutation — skip it.
            return acc_positions, acc_bins
        return super().sort_accepts_by_position(acc_positions, acc_bins)

    def scatter_counts(self, target, indices):
        # bincount is a dense O(k + n) pass; add.at is O(k) sparse.
        # Both accumulation orders are exact for integers, so pick by
        # density (the in-place += never copies ``target``).
        if indices.size >= (target.size >> 3):
            target += np.bincount(indices, minlength=target.size)
        else:
            np.add.at(target, indices, 1)


class ProfilingBackend(KernelBackend):
    """A transparent wrapper timing every primitive into telemetry.

    :func:`resolve_backend` installs this around whatever backend it
    resolved whenever the ambient :class:`~repro.telemetry.Telemetry`
    has ``profile_kernels`` enabled.  Each public primitive delegates
    to the wrapped backend between two ``perf_counter`` reads and
    records the elapsed time in the ``kernel.primitive.seconds``
    histogram, labeled by primitive and inner-backend name.

    The wrapper is *value-transparent by construction*: arguments and
    returns pass through untouched and no RNG exists on this path, so
    profiled runs are bitwise-identical to bare ones (the telemetry
    identity tests pin this per backend).  It reports the inner
    backend's ``name`` so result records stay stable under profiling.

    Wrapping happens at resolution time; a :func:`use_backend` pin
    holds the bare backend, so wrappers never stack.
    """

    def __init__(self, inner: KernelBackend, telemetry) -> None:
        self.inner = inner
        self.telemetry = telemetry
        self.name = inner.name

    def _observe(self, primitive: str, start: float) -> None:
        self.telemetry.observe(
            "kernel.primitive.seconds",
            time.perf_counter() - start,
            primitive=primitive,
            backend=self.inner.name,
        )

    def grouped_accept_with_priorities(
        self, choices, capacity, priorities, return_counts=False
    ):
        start = time.perf_counter()
        out = self.inner.grouped_accept_with_priorities(
            choices, capacity, priorities, return_counts
        )
        self._observe("grouped_accept", start)
        return out

    def priority_commit_accept(
        self, choices, marks, requester_pos, n_balls, capacity
    ):
        start = time.perf_counter()
        out = self.inner.priority_commit_accept(
            choices, marks, requester_pos, n_balls, capacity
        )
        self._observe("priority_commit", start)
        return out

    def _commit_winners(self, acc_ball, acc_mark):
        return self.inner._commit_winners(acc_ball, acc_mark)

    def sort_accepts_by_position(self, acc_positions, acc_bins):
        start = time.perf_counter()
        out = self.inner.sort_accepts_by_position(acc_positions, acc_bins)
        self._observe("sort_accepts", start)
        return out

    def scatter_counts(self, target, indices):
        start = time.perf_counter()
        self.inner.scatter_counts(target, indices)
        self._observe("scatter_counts", start)

    def scatter_weights(self, target, indices, weights):
        start = time.perf_counter()
        self.inner.scatter_weights(target, indices, weights)
        self._observe("scatter_weights", start)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ProfilingBackend around {self.inner!r}>"


# -- selection --------------------------------------------------------

#: The backends by name.
BACKENDS: dict[str, KernelBackend] = {
    backend.name: backend for backend in (ReferenceBackend(), FusedBackend())
}

#: The backend pinned by :func:`use_backend`; ``None`` defers to the
#: environment variable / module default.
_ACTIVE: contextvars.ContextVar[Optional[KernelBackend]] = (
    contextvars.ContextVar("repro_kernel_backend", default=None)
)


def _named(name: str) -> KernelBackend:
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available: "
            + ", ".join(sorted(BACKENDS))
        ) from None


def resolve_backend() -> KernelBackend:
    """Resolve the active backend.

    Order: the ambient :func:`use_backend` pin >
    ``REPRO_KERNEL_BACKEND`` environment variable (read at call time,
    so tests can round-trip it) > the ``"fused"`` default.

    When the ambient :class:`~repro.telemetry.Telemetry` asks for
    kernel profiling, the resolved backend comes back wrapped in a
    :class:`ProfilingBackend` bound to it.  With telemetry off this is
    two contextvar reads and one branch, plus the environment lookup
    when nothing is pinned.
    """
    backend = _ACTIVE.get()
    if backend is None:
        backend = _named(os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND)
    telemetry = current_telemetry()
    if telemetry is not None and telemetry.profile_kernels:
        return ProfilingBackend(backend, telemetry)
    return backend


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Pin the kernel backend ``name`` for the dynamic extent of the
    ``with`` block (thread- and task-local via :mod:`contextvars`;
    :func:`repro.experiments.parallel.pool_map` carries the pin into
    worker processes)."""
    token = _ACTIVE.set(_named(name))
    try:
        yield resolve_backend()
    finally:
        _ACTIVE.reset(token)


def scatter_counts(target: np.ndarray, indices: np.ndarray) -> None:
    """``target[i] += 1`` per index, via the resolved backend — for
    callers that hold no :class:`~repro.fastpath.roundstate.RoundState`
    (the :class:`~repro.simulation.metrics.MessageCounter` paths)."""
    resolve_backend().scatter_counts(target, indices)
