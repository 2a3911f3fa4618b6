"""High-replication execution: hundreds of seeds in one batched pass.

The paper's guarantees are *distributional* — max-load gap, round, and
message bounds that hold w.h.p. — so checking them means repeating an
instance across many seeds and looking at the sample's quantiles, not
at one run.  :func:`replicate` is that operation as a first-class API:

>>> import repro
>>> rep = repro.replicate("heavy", 100_000, 256, trials=32, seed=7)
>>> rep.trials, rep.all_complete
(32, True)
>>> bool(rep.ci("gap").half_width >= 0)
True

Execution: :func:`replicate` is :func:`repro.api.batch.allocate_many`
plus a summary, with one rule of its own — under ``mode="auto"`` a
spec with the ``trial_batched`` capability (heavy, combined, single,
stemann) runs in the aggregate mode, batched or not.  Its trials then
advance through the trial-batched kernel engine in lock-step — one
vectorized pass instead of ``trials`` sequential runs, at identical
values: trial ``t`` is bitwise-equal to a sequential run seeded with
the ``t``-th spawned child of the root seed (the package-wide
``SeedSequence.spawn`` convention).  Other specs fall back to the
sequential per-seed loop transparently.

The result is a :class:`ReplicationResult`: the per-trial metric
vectors (gap, max load, rounds, messages), the ``(trials, n)`` load
matrix, empirical quantiles, and normal-approximation confidence
intervals from :mod:`repro.analysis.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.analysis.stats import (
    DEFAULT_QUANTILES,
    ConfidenceInterval,
    mean_confidence_interval,
    sample_quantiles,
)
from repro.api.batch import allocate_many
from repro.api.spec import get_spec
from repro.result import AllocationResult

__all__ = ["ReplicationResult", "replicate"]

#: Metric name -> AllocationResult accessor, for quantile/CI queries.
_METRICS = {
    "gap": lambda r: float(r.gap),
    "max_load": lambda r: float(r.max_load),
    "rounds": lambda r: float(r.rounds),
    "messages": lambda r: float(r.total_messages),
}


@dataclass
class ReplicationResult:
    """Outcome of ``trials`` independent replications of one instance.

    Attributes
    ----------
    algorithm, m, n:
        The replicated instance (canonical spec name).
    trials:
        Number of independent replications.
    mode:
        Execution mode each trial ran in (``None`` for modeless
        allocators).
    batched:
        True when the trial-batched kernel engine ran the batch; False
        for the sequential per-seed fallback.  Values are identical
        either way — this records only how the work was executed.
    workload:
        Workload spec string (``None`` = uniform).
    loads:
        ``(trials, n)`` int64 matrix; row ``t`` is trial ``t``'s final
        per-bin loads.
    gaps, max_loads, rounds, total_messages, unallocated:
        Per-trial metric vectors, aligned with ``loads`` rows.
    weighted_gaps:
        Per-trial weighted max-load gaps, for weighted workloads only.
    complete:
        Per-trial completion flags.
    results:
        The underlying per-trial :class:`~repro.result.AllocationResult`
        objects (same objects ``allocate_many`` would return).
    """

    algorithm: str
    m: int
    n: int
    trials: int
    mode: Optional[str]
    batched: bool
    workload: Optional[str]
    loads: np.ndarray
    gaps: np.ndarray
    max_loads: np.ndarray
    rounds: np.ndarray
    total_messages: np.ndarray
    unallocated: np.ndarray
    complete: np.ndarray
    weighted_gaps: Optional[np.ndarray] = None
    results: list[AllocationResult] = field(default_factory=list, repr=False)

    @classmethod
    def from_results(
        cls,
        results: Sequence[AllocationResult],
        *,
        algorithm: str,
        mode: Optional[str],
        batched: bool,
        workload: Optional[str],
    ) -> "ReplicationResult":
        """Assemble the per-trial vectors from allocation results."""
        if not results:
            raise ValueError("need at least one trial result")
        first = results[0]
        weighted = [
            r.extra.get("workload", {}).get("weighted_gap") for r in results
        ]
        return cls(
            algorithm=algorithm,
            m=first.m,
            n=first.n,
            trials=len(results),
            mode=mode,
            batched=batched,
            workload=workload,
            loads=np.stack([r.loads for r in results]),
            gaps=np.array([r.gap for r in results], dtype=np.float64),
            max_loads=np.array([r.max_load for r in results], dtype=np.int64),
            rounds=np.array([r.rounds for r in results], dtype=np.int64),
            total_messages=np.array(
                [r.total_messages for r in results], dtype=np.int64
            ),
            unallocated=np.array(
                [r.unallocated for r in results], dtype=np.int64
            ),
            complete=np.array([r.complete for r in results], dtype=bool),
            weighted_gaps=(
                np.array(weighted, dtype=np.float64)
                if all(w is not None for w in weighted)
                else None
            ),
            results=list(results),
        )

    # -- derived statistics ----------------------------------------------

    @property
    def all_complete(self) -> bool:
        """True when every trial allocated every ball."""
        return bool(self.complete.all())

    def metric(self, name: str) -> np.ndarray:
        """Per-trial vector for a metric name (``gap``, ``max_load``,
        ``rounds``, ``messages``)."""
        if name == "gap":
            return self.gaps
        if name == "max_load":
            return self.max_loads.astype(np.float64)
        if name == "rounds":
            return self.rounds.astype(np.float64)
        if name == "messages":
            return self.total_messages.astype(np.float64)
        raise ValueError(
            f"unknown metric {name!r}; expected one of {sorted(_METRICS)}"
        )

    def quantiles(
        self,
        name: str = "gap",
        qs: Sequence[float] = DEFAULT_QUANTILES,
    ) -> dict[float, float]:
        """Empirical quantiles of a per-trial metric."""
        return sample_quantiles(self.metric(name), qs)

    def ci(self, name: str = "gap", *, level: float = 0.95) -> ConfidenceInterval:
        """Normal-approximation CI for the mean of a per-trial metric."""
        return mean_confidence_interval(self.metric(name), level=level)

    def summary(self) -> dict[str, dict[str, Any]]:
        """Mean, CI half-width, and quantiles for every metric."""
        out: dict[str, dict[str, Any]] = {}
        for name in _METRICS:
            ci = self.ci(name)
            out[name] = {
                "mean": ci.mean,
                "ci_half_width": ci.half_width,
                "quantiles": self.quantiles(name),
            }
        return out

    def describe(self) -> str:
        """Multi-line human-readable replication report."""
        gap_ci = self.ci("gap")
        gq = self.quantiles("gap", (0.5, 0.95, 0.99))
        rounds_ci = self.ci("rounds")
        msg_ci = self.ci("messages")
        lines = [
            f"algorithm     : {self.algorithm}"
            + (f" [{self.mode}]" if self.mode else ""),
            f"instance      : m={self.m}, n={self.n} "
            f"(m/n={self.m / self.n:.4g})",
            f"trials        : {self.trials} "
            + ("(trial-batched)" if self.batched else "(sequential)"),
            f"gap           : {gap_ci} "
            f"[p50 {gq[0.5]:.3g}, p95 {gq[0.95]:.3g}, p99 {gq[0.99]:.3g}]",
            f"rounds        : {rounds_ci}",
            f"messages      : {msg_ci}",
            f"complete      : {int(self.complete.sum())}/{self.trials}",
        ]
        if self.workload:
            lines.insert(2, f"workload      : {self.workload}")
        if self.weighted_gaps is not None:
            lines.append(
                f"weighted gap  : "
                f"{mean_confidence_interval(self.weighted_gaps)}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe export: vectors, summary statistics, and metadata
        (the load matrix is included row-per-trial)."""
        payload = {
            "schema": 1,
            "algorithm": self.algorithm,
            "m": int(self.m),
            "n": int(self.n),
            "trials": int(self.trials),
            "mode": self.mode,
            "batched": bool(self.batched),
            "workload": self.workload,
            "gaps": self.gaps.tolist(),
            "max_loads": self.max_loads.tolist(),
            "rounds": self.rounds.tolist(),
            "total_messages": self.total_messages.tolist(),
            "unallocated": self.unallocated.tolist(),
            "complete": self.complete.tolist(),
            "loads": self.loads.tolist(),
            "summary": {
                name: {
                    "mean": stats["mean"],
                    "ci_half_width": stats["ci_half_width"],
                    "quantiles": {
                        str(q): v for q, v in stats["quantiles"].items()
                    },
                }
                for name, stats in self.summary().items()
            },
        }
        if self.weighted_gaps is not None:
            payload["weighted_gaps"] = self.weighted_gaps.tolist()
        return payload

    def __str__(self) -> str:
        gap_ci = self.ci("gap")
        return (
            f"ReplicationResult({self.algorithm}: m={self.m}, n={self.n}, "
            f"trials={self.trials}, gap={gap_ci})"
        )


def replicate(
    algorithm: str,
    m: int,
    n: int,
    *,
    trials: int,
    seed=None,
    mode: Optional[str] = "auto",
    workload=None,
    trial_batched: Optional[bool] = None,
    workers: Optional[int] = None,
    **options: Any,
) -> ReplicationResult:
    """Run ``trials`` independent seeded replications of one instance.

    Parameters
    ----------
    algorithm, m, n:
        As for :func:`repro.api.dispatch.allocate`.
    trials:
        Number of independent replications (>= 1).
    seed:
        Root seed; trial ``t`` runs on the ``t``-th spawned child
        stream (the same convention as
        :func:`~repro.api.batch.allocate_many`, so
        ``replicate(trials=T, seed=s)`` and ``allocate_many(repeats=T,
        seed=s)`` see identical per-trial randomness).
    mode:
        ``"auto"`` (default) runs ``trial_batched`` specs in the
        aggregate mode — on the trial-batched engine, or in the
        sequential fallback — and other specs as ``allocate`` would.
        An explicit mode is honored: it batches only when it is
        ``"aggregate"``, else every trial runs sequentially in that
        mode.
    workload:
        Optional workload spec (:class:`repro.workloads.Workload` or
        string), applied to every trial.
    trial_batched:
        ``None`` (default) auto-selects; ``False`` forces the
        sequential per-seed loop (same values, for
        verification/debugging); ``True`` requires the batched engine
        and raises if the request cannot batch.
    workers:
        Process fan-out.  On the batched path, ``workers >= 2`` shards
        the trial axis across processes (contiguous shards of the
        pre-spawned children, loads returned through one
        ``multiprocessing.shared_memory`` block) — per-trial
        bitwise-identical to ``workers=1``, only the wall clock
        changes.  On the sequential path it fans the per-seed loop
        over a process pool as before.  Either way every worker runs
        under the caller's :func:`~repro.fastpath.backend.use_backend`
        pin.
    options:
        Algorithm-specific keywords, validated against the registered
        spec exactly as in :func:`~repro.api.dispatch.allocate`.

    Returns
    -------
    ReplicationResult
        Per-trial metric vectors, the load matrix, quantiles and CIs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    spec = get_spec(algorithm)
    if mode == "auto" and spec.trial_batched:
        mode = "aggregate"
    results = allocate_many(
        spec.name, m, n, repeats=trials, seed=seed, mode=mode,
        workers=workers, trial_batched=trial_batched, workload=workload,
        **options,
    )
    api = results[0].extra["api"]
    return ReplicationResult.from_results(
        results,
        algorithm=spec.name,
        mode=api["mode"],
        batched=api.get("trial_batched", False),
        workload=api["workload"],
    )
