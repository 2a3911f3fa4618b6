"""Message and progress accounting for simulation runs.

Theorem 6 makes five quantitative promises beyond the load bound:
``O(m)`` total messages, ``O(1)`` expected / ``O(log n)`` w.h.p. messages
per ball, and ``(1+o(1)) m/n + O(log n)`` messages received per bin.
The engine (and the vectorized fast paths) feed every send into a
:class:`MessageCounter` so experiments can report all five.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["MessageCounter", "RoundMetrics", "RunMetrics"]


#: Next-wider storage for the per-ball commit rounds of a compact
#: :class:`MessageCounter`, taken when a round number no longer fits.
_WIDER = {
    np.dtype(np.uint8): np.dtype(np.uint16),
    np.dtype(np.uint16): np.dtype(np.uint32),
    np.dtype(np.uint32): np.dtype(np.int64),
}


class MessageCounter:
    """Per-ball and per-bin message tallies.

    Ball-side counts include sends *and* receives (the paper bounds
    "sends and receives" for balls); bin-side counts track receives,
    which dominate and are what Theorem 6 bounds.

    The bin tallies are int64 arrays of length ``n``.  The ball tallies
    start *compact*: in a canonical round (:meth:`record_round`) every
    requester is a ball that has not committed yet, so a ball that
    commits in round ``r`` has sent one request in each of rounds
    ``1..r`` and received one accept in round ``r``, and a ball that
    never commits has sent one request per round.  The counter keeps
    only that commit round, one byte per ball (widened to 2, 4 and 8
    bytes past 255, 65,535 and 2^32 - 1 rounds), plus the phase-2
    additions of :meth:`add_ball_sent` — 1 B per ball against the 16 B
    of two int64 arrays, and no scatter over the balls per round.

    The first read of :attr:`ball_sent`, :attr:`ball_received`,
    :attr:`ball_total` (so also :meth:`summary`) materializes the int64
    arrays, and so does any record the compact form cannot express: a
    round whose requesters are not exactly the uncommitted balls (a
    protocol shrank the active set itself) or a generic ``record_*``
    call.  From then on the counter keeps the explicit arrays.  Both
    forms give the same values.
    """

    def __init__(self, m: int, n: int) -> None:
        if m < 0 or n < 1:
            raise ValueError(f"need m >= 0, n >= 1; got m={m}, n={n}")
        self.m = m
        self.n = n
        self.bin_received = np.zeros(n, dtype=np.int64)
        self.bin_sent = np.zeros(n, dtype=np.int64)
        self.total = 0
        #: Canonical rounds recorded through :meth:`record_round`.
        self.rounds = 0
        # Compact ball side: each ball's commit round (0: not committed),
        # whether each round recorded its accepts, the number of balls
        # committed so far, and pending (ids, counts) additions.
        self._commit_round: Optional[np.ndarray] = np.zeros(m, dtype=np.uint8)
        self._accepts: list[bool] = []
        self._committed = 0
        self._added: list[tuple[np.ndarray, np.ndarray]] = []
        # Explicit ball side, once materialized.
        self._ball_sent: Optional[np.ndarray] = None
        self._ball_received: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(
        cls,
        m: int,
        n: int,
        *,
        ball_sent,
        ball_received,
        bin_sent,
        bin_received,
        total: int,
    ) -> "MessageCounter":
        """A counter holding the given explicit tallies (e.g. a
        deserialized result).  Each array must be integer and 1-D, of
        length ``m`` (ball side) or ``n`` (bin side); a ``ValueError``
        names the first field that is not."""
        counter = cls(m, n)
        arrays = {}
        for name, value, size in (
            ("ball_sent", ball_sent, m),
            ("ball_received", ball_received, m),
            ("bin_sent", bin_sent, n),
            ("bin_received", bin_received, n),
        ):
            arr = np.asarray(value)
            # An empty JSON list parses as float64; any empty array is fine.
            if arr.size and not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(
                    f"{name} must be an integer array, got dtype {arr.dtype}"
                )
            if arr.shape != (size,):
                raise ValueError(
                    f"{name} must have shape ({size},), got {arr.shape}"
                )
            arrays[name] = arr.astype(np.int64)
        counter._commit_round = None
        counter._ball_sent = arrays["ball_sent"]
        counter._ball_received = arrays["ball_received"]
        counter.bin_sent = arrays["bin_sent"]
        counter.bin_received = arrays["bin_received"]
        counter.total = int(total)
        return counter

    # -- recording -------------------------------------------------------

    def record_round(
        self,
        balls: np.ndarray,
        committed: np.ndarray,
        bins: np.ndarray,
        commit_bins: Optional[np.ndarray],
        *,
        accepts: bool = True,
        per_bin: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """One canonical round: ``balls[j]`` sent one request to
        ``bins[j]``, and — with ``accepts`` — each ball of ``committed``
        (a subset of ``balls``) received one accept from its bin in
        ``commit_bins``.

        ``per_bin`` is ``(requests, accepted)``, the round's per-bin
        request and accept counts when the grouping already has them
        (``commit_bins`` is then unused); without it the bin tallies
        are scattered from ``bins`` and ``commit_bins``.
        """
        from repro.fastpath.backend import scatter_counts

        # Balls leave the active set by committing or by a protocol
        # dropping them, never return, and each commits once: so the
        # requesters are exactly the uncommitted balls iff none was
        # dropped, which the count shows.
        if (
            self._commit_round is not None
            and balls.size == self.m - self._committed
        ):
            self.rounds += 1
            if self.rounds > np.iinfo(self._commit_round.dtype).max:
                self._commit_round = self._commit_round.astype(
                    _WIDER[self._commit_round.dtype]
                )
            self._commit_round[committed] = self.rounds
            self._accepts.append(accepts)
            self._committed += committed.size
        else:
            self._materialize()
            self.rounds += 1
            scatter_counts(self._ball_sent, balls)
            if accepts:
                scatter_counts(self._ball_received, committed)
        if per_bin is not None:
            self.bin_received += per_bin[0]
            if accepts:
                self.bin_sent += per_bin[1]
        else:
            scatter_counts(self.bin_received, bins)
            if accepts:
                scatter_counts(self.bin_sent, commit_bins)
        self.total += balls.size + (committed.size if accepts else 0)

    def add_ball_sent(self, ids: np.ndarray, counts: np.ndarray) -> None:
        """``ball_sent[ids[j]] += counts[j]`` — messages a later phase
        charged to these balls — without materializing the ball
        tallies."""
        ids = np.array(ids, dtype=np.int64)
        counts = np.array(counts, dtype=np.int64)
        if self._commit_round is not None:
            self._added.append((ids, counts))
        else:
            np.add.at(self._ball_sent, ids, counts)

    def record_ball_to_bin(self, ball: int, bin_: int, count: int = 1) -> None:
        self._materialize()
        self._ball_sent[ball] += count
        self.bin_received[bin_] += count
        self.total += count

    def record_bin_to_ball(self, bin_: int, ball: int, count: int = 1) -> None:
        self._materialize()
        self.bin_sent[bin_] += count
        self._ball_received[ball] += count
        self.total += count

    def record_bulk_ball_to_bin(self, bins_per_ball: np.ndarray, active_balls: np.ndarray) -> None:
        """Vectorized variant: ``active_balls[j]`` sent one message to
        ``bins_per_ball[j]``.

        The integer scatters dispatch through the kernel backend
        (:mod:`repro.fastpath.backend`, imported lazily — this module
        is below the fastpath layer); integer addition is associative,
        so every backend accumulates the exact same tallies.
        """
        from repro.fastpath.backend import scatter_counts

        self._materialize()
        scatter_counts(self._ball_sent, active_balls)
        scatter_counts(self.bin_received, bins_per_ball)
        self.total += len(active_balls)

    def record_bulk_bin_to_ball(self, bins: np.ndarray, balls: np.ndarray) -> None:
        from repro.fastpath.backend import scatter_counts

        self._materialize()
        scatter_counts(self.bin_sent, bins)
        scatter_counts(self._ball_received, balls)
        self.total += len(balls)

    def _materialize(self) -> None:
        """Switch the ball side to explicit int64 arrays (idempotent)."""
        commit_round = self._commit_round
        if commit_round is None:
            return
        sent = commit_round.astype(np.int64)
        sent[commit_round == 0] = self.rounds
        accepted = np.zeros(self.rounds + 1, dtype=np.int64)
        accepted[1:] = self._accepts
        received = accepted[commit_round]
        for ids, counts in self._added:
            np.add.at(sent, ids, counts)
        self._ball_sent, self._ball_received = sent, received
        self._commit_round = None
        self._accepts, self._added = [], []

    # -- summary views ---------------------------------------------------

    @property
    def ball_sent(self) -> np.ndarray:
        """Messages sent per ball (int64, length ``m``)."""
        self._materialize()
        return self._ball_sent

    @property
    def ball_received(self) -> np.ndarray:
        """Messages received per ball (int64, length ``m``)."""
        self._materialize()
        return self._ball_received

    @property
    def ball_total(self) -> np.ndarray:
        """Messages sent + received per ball."""
        return self.ball_sent + self.ball_received

    def max_ball_messages(self) -> int:
        return int(self.ball_total.max(initial=0))

    def mean_ball_messages(self) -> float:
        return float(self.ball_total.mean()) if self.m else 0.0

    def max_bin_received(self) -> int:
        return int(self.bin_received.max(initial=0))

    def summary(self) -> dict[str, float]:
        return {
            "total": float(self.total),
            "per_ball_mean": self.mean_ball_messages(),
            "per_ball_max": float(self.max_ball_messages()),
            "per_bin_received_max": float(self.max_bin_received()),
            "per_bin_received_mean": (
                float(self.bin_received.mean()) if self.n else 0.0
            ),
        }


@dataclass(frozen=True)
class RoundMetrics:
    """What happened in one synchronous round."""

    round_no: int
    unallocated_start: int
    requests_sent: int
    accepts_sent: int
    rejects_sent: int
    commits: int
    unallocated_end: int
    max_load: int
    threshold: Optional[float] = None

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        thr = f", T={self.threshold:.2f}" if self.threshold is not None else ""
        return (
            f"round {self.round_no}: active {self.unallocated_start} -> "
            f"{self.unallocated_end}, req={self.requests_sent}, "
            f"acc={self.accepts_sent}{thr}"
        )


@dataclass
class RunMetrics:
    """Accumulated metrics across a run; owned by engine or fast path."""

    m: int
    n: int
    rounds: list[RoundMetrics] = field(default_factory=list)

    def add_round(self, metrics: RoundMetrics) -> None:
        if self.rounds and metrics.round_no <= self.rounds[-1].round_no:
            raise ValueError(
                f"round numbers must increase: got {metrics.round_no} after "
                f"{self.rounds[-1].round_no}"
            )
        self.rounds.append(metrics)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def unallocated_history(self) -> list[int]:
        """Unallocated counts at the start of each round (``m_i``)."""
        return [r.unallocated_start for r in self.rounds]

    @property
    def total_requests(self) -> int:
        return sum(r.requests_sent for r in self.rounds)
