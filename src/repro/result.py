"""The common result type returned by every allocation algorithm.

All entry points — the paper's algorithms, the baselines, engine-mode and
vectorized runs alike — return an :class:`AllocationResult` so experiments
and tests can treat them uniformly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Optional

import numpy as np

from repro.analysis.stats import RunStatistics, summarize_loads
from repro.simulation.metrics import MessageCounter, RoundMetrics, RunMetrics

__all__ = ["AllocationResult"]


def _json_safe(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays and tuples to JSON types.

    Anything without a JSON analogue falls back to ``repr`` — export is
    lossy only for exotic ``extra`` payloads (e.g. schedule objects),
    never for the numeric record.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [_json_safe(v) for v in items]
    return repr(value)


@dataclass
class AllocationResult:
    """Outcome of allocating ``m`` balls into ``n`` bins.

    Attributes
    ----------
    algorithm:
        Human-readable algorithm identifier (e.g. ``"heavy"``,
        ``"single-choice"``).
    m, n:
        Instance size.
    loads:
        Final per-bin load vector; ``loads.sum() == m`` whenever
        ``complete`` is true.
    rounds:
        Number of synchronous rounds executed (0 for one-shot sequential
        baselines, which are *not* round-based; they report 0 and set
        ``sequential=True``).
    metrics:
        Per-round progress records (may be empty for sequential
        baselines).
    messages:
        Full message accounting, or ``None`` when the run used the
        aggregate fast path that does not track per-agent counts.
    total_messages:
        Total messages sent, tracked even by the aggregate path.
    complete:
        Whether every ball was allocated.  Algorithms that can leave
        balls unallocated under a round budget (e.g. a truncated
        fixed-threshold run) set this to False and report the leftover
        count in ``unallocated``.
    sequential:
        True for non-parallel baselines (greedy[d], single-choice);
        their "rounds" are not comparable to the parallel algorithms'.
    seed_entropy:
        Root entropy of the RNG, for exact reproduction.
    """

    algorithm: str
    m: int
    n: int
    loads: np.ndarray
    rounds: int
    metrics: Optional[RunMetrics] = None
    messages: Optional[MessageCounter] = None
    total_messages: int = 0
    complete: bool = True
    unallocated: int = 0
    sequential: bool = False
    seed_entropy: tuple[int, ...] = field(default_factory=tuple)
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.loads = np.asarray(self.loads, dtype=np.int64)
        if self.loads.ndim != 1 or self.loads.size != self.n:
            raise ValueError(
                f"loads must be a 1-D array of length n={self.n}, "
                f"got shape {self.loads.shape}"
            )
        allocated = int(self.loads.sum())
        expected = self.m - self.unallocated
        if allocated != expected:
            raise ValueError(
                f"loads sum to {allocated} but m - unallocated = {expected}"
            )
        if self.complete and self.unallocated:
            raise ValueError("complete runs cannot report unallocated balls")

    # -- derived quantities ----------------------------------------------

    @property
    def max_load(self) -> int:
        """The paper's objective: the maximum bin load."""
        return int(self.loads.max())

    @property
    def gap(self) -> float:
        """Max load minus the perfect average ``m/n``."""
        return self.max_load - self.m / self.n

    @property
    def average_load(self) -> float:
        return self.m / self.n

    def statistics(self) -> RunStatistics:
        """Full load-distribution summary (requires a complete run)."""
        if not self.complete:
            raise ValueError(
                "statistics() requires a complete allocation; "
                f"{self.unallocated} balls unallocated"
            )
        return summarize_loads(self.loads, self.m)

    @property
    def unallocated_history(self) -> list[int]:
        """``m_i`` per round, when per-round metrics were recorded."""
        if self.metrics is None:
            return []
        return self.metrics.unallocated_history

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe dict capturing the full result.

        Numpy arrays become lists, tuples become lists, and numpy
        scalars become native ints/floats, so ``json.dumps`` works on
        the output directly.  Round-trips through :meth:`from_dict`:
        loads, per-round metrics, and message counters are restored
        exactly (``extra`` values survive as their JSON projections).
        """
        metrics = None
        if self.metrics is not None:
            metrics = {
                "m": int(self.metrics.m),
                "n": int(self.metrics.n),
                "rounds": [_json_safe(asdict(r)) for r in self.metrics.rounds],
            }
        messages = None
        if self.messages is not None:
            messages = {
                "m": int(self.messages.m),
                "n": int(self.messages.n),
                "ball_sent": self.messages.ball_sent.tolist(),
                "ball_received": self.messages.ball_received.tolist(),
                "bin_sent": self.messages.bin_sent.tolist(),
                "bin_received": self.messages.bin_received.tolist(),
                "total": int(self.messages.total),
            }
        return {
            "schema": 1,
            "algorithm": self.algorithm,
            "m": int(self.m),
            "n": int(self.n),
            "loads": self.loads.tolist(),
            "rounds": int(self.rounds),
            "metrics": metrics,
            "messages": messages,
            "total_messages": int(self.total_messages),
            "complete": bool(self.complete),
            "unallocated": int(self.unallocated),
            "sequential": bool(self.sequential),
            "seed_entropy": [int(e) for e in self.seed_entropy],
            "extra": _json_safe(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AllocationResult":
        """Rebuild a result from :meth:`to_dict` output (or parsed JSON)."""
        schema = data.get("schema", 1)
        if schema != 1:
            raise ValueError(f"unsupported AllocationResult schema {schema!r}")
        metrics = None
        if data.get("metrics") is not None:
            m_data = data["metrics"]
            metrics = RunMetrics(m=int(m_data["m"]), n=int(m_data["n"]))
            for row in m_data["rounds"]:
                metrics.add_round(RoundMetrics(**row))
        messages = None
        if data.get("messages") is not None:
            c_data = data["messages"]
            messages = MessageCounter.from_arrays(
                int(c_data["m"]),
                int(c_data["n"]),
                ball_sent=c_data["ball_sent"],
                ball_received=c_data["ball_received"],
                bin_sent=c_data["bin_sent"],
                bin_received=c_data["bin_received"],
                total=c_data["total"],
            )
        return cls(
            algorithm=data["algorithm"],
            m=int(data["m"]),
            n=int(data["n"]),
            loads=np.asarray(data["loads"], dtype=np.int64),
            rounds=int(data["rounds"]),
            metrics=metrics,
            messages=messages,
            total_messages=int(data["total_messages"]),
            complete=bool(data["complete"]),
            unallocated=int(data["unallocated"]),
            sequential=bool(data["sequential"]),
            seed_entropy=tuple(int(e) for e in data.get("seed_entropy", ())),
            extra=dict(data.get("extra") or {}),
        )

    def describe(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"algorithm     : {self.algorithm}",
            f"instance      : m={self.m}, n={self.n} (m/n={self.m / self.n:.4g})",
            f"max load      : {self.max_load} (gap {self.gap:+.3f})",
            f"rounds        : {self.rounds}"
            + (" (sequential)" if self.sequential else ""),
            f"messages      : {self.total_messages}",
            f"complete      : {self.complete}"
            + (f" ({self.unallocated} left)" if not self.complete else ""),
        ]
        if self.messages is not None:
            s = self.messages.summary()
            lines.append(
                "per-ball msgs : "
                f"mean {s['per_ball_mean']:.3f}, max {s['per_ball_max']:.0f}"
            )
            lines.append(
                "per-bin recv  : "
                f"mean {s['per_bin_received_mean']:.3f}, "
                f"max {s['per_bin_received_max']:.0f}"
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return (
            f"AllocationResult({self.algorithm}: m={self.m}, n={self.n}, "
            f"max_load={self.max_load}, gap={self.gap:+.3f}, "
            f"rounds={self.rounds})"
        )
