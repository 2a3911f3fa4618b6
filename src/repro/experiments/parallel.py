"""Process-pool execution of repeated runs.

The simulations are CPU-bound numpy code, so Python threads cannot
parallelize repetitions (the GIL serializes the interpreter between the
vectorized sections — the limitation the calibration notes flag).
Repetitions over seeds are embarrassingly parallel, though, and
``multiprocessing`` sidesteps the GIL entirely: this module fans a
seed list out over worker *processes*, following the message-passing
idiom of the HPC guides (each worker owns its instance; only small
result summaries cross process boundaries).

Workers re-import :mod:`repro` and dispatch by *algorithm name* through
the allocator registry (plain strings and kwargs are picklable where
closures are not), so the entry point works under the default ``fork``
and ``spawn`` start methods alike, and every registered algorithm —
including aliases like ``greedy_d`` — is runnable without touching
this module.

:func:`allocate_batch` is the lower-level primitive behind
:func:`repro.allocate_many` / :func:`repro.sweep`: it maps full
dispatch tasks (algorithm, instance, spawned seed, mode, options) over
a pool and returns complete :class:`~repro.result.AllocationResult`
objects instead of summaries.

:func:`replicate_sharded` parallelizes the *trial axis* of the
trial-batched replication engine: the ``trials=T`` pre-spawned seed
children are cut into contiguous shards, each worker process runs its
shard through :func:`repro.api.batch.run_batched`, and the
``(T, n)`` load matrix crosses the process boundary through one
``multiprocessing.shared_memory`` block instead of ``T`` pickled
arrays.  Because trial ``t`` draws only from its own pre-spawned
child streams, a shard's outcome is per-trial bitwise-identical to
the full batch — ``workers=1`` vs ``workers=k`` is value-identical
(the sharded-equivalence tests pin this).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Optional, Sequence

import numpy as np

__all__ = [
    "ALGORITHMS",
    "allocate_batch",
    "replicate_sharded",
    "run_one",
    "parallel_results",
    "parallel_gaps",
]


def _algorithm_names() -> tuple[str, ...]:
    from repro.api import allocator_names

    return allocator_names()


class _AlgorithmNames(tuple):
    """Registry-backed view kept for backward compatibility.

    Historically a hard-coded tuple; now resolved from the allocator
    registry so it can never drift.  Membership is alias-aware.
    """

    def __new__(cls, names=None):
        # The optional argument keeps tuple pickling/deepcopy working
        # (both reconstruct via cls(iterable)).
        return super().__new__(
            cls, _algorithm_names() if names is None else names
        )

    def __contains__(self, name: object) -> bool:
        if tuple.__contains__(self, name):
            return True
        try:
            from repro.api import resolve_name

            resolve_name(str(name))
            return True
        except ValueError:
            return False


#: Names accepted by :func:`run_one` (canonical registry names;
#: aliases such as ``greedy_d`` or ``single_choice`` also resolve).
ALGORITHMS: tuple[str, ...] = _AlgorithmNames()


def run_one(algorithm: str, m: int, n: int, seed: int, **kwargs: Any) -> dict:
    """Run one allocation in the current process; return a summary dict.

    Returns only small plain data (gap, max load, rounds, messages) so
    the inter-process payload stays negligible.
    """
    from repro.api import allocate

    # No explicit mode means the algorithm's own default (mode=None),
    # not "auto": the harness's historical numbers must reproduce
    # bitwise from the same seeds regardless of instance size.
    mode = kwargs.pop("mode", None)
    result = allocate(algorithm, m, n, seed=seed, mode=mode, **kwargs)
    return {
        "algorithm": result.algorithm,
        "seed": seed,
        "gap": result.gap,
        "max_load": result.max_load,
        "rounds": result.rounds,
        "total_messages": result.total_messages,
        "complete": result.complete,
    }


def _allocate_task(task: tuple):
    algorithm, m, n, seed, mode, options = task
    from repro.api import allocate

    return allocate(algorithm, m, n, seed=seed, mode=mode, **options)


def allocate_batch(
    tasks: Sequence[tuple], *, workers: Optional[int] = None
) -> list:
    """Run dispatch tasks, optionally across worker processes.

    Each task is ``(algorithm, m, n, seed, mode, options)`` — exactly
    the arguments of :func:`repro.allocate`.  Everything in a task must
    be picklable (spawned :class:`numpy.random.SeedSequence` objects
    are).  Results return in task order regardless of worker count, so
    parallelism never changes values, only wall clock.
    """
    task_list = list(tasks)
    if not task_list:
        return []
    max_workers = workers or min(len(task_list), os.cpu_count() or 1)
    if max_workers <= 1 or len(task_list) == 1:
        return [_allocate_task(t) for t in task_list]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(_allocate_task, task_list))


def _shard_bounds(total: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` shard boundaries covering
    ``range(total)``, at most ``shards`` of them, never empty."""
    shards = max(1, min(shards, total))
    base, extra = divmod(total, shards)
    bounds = []
    start = 0
    for s in range(shards):
        stop = start + base + (1 if s < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def _replicate_shard(task: tuple) -> list:
    """Worker: run one contiguous trial shard on the batched engine.

    Loads land in the parent's shared-memory block (row = global trial
    index) and are stripped from the pickled results; everything else
    on an :class:`~repro.result.AllocationResult` is small.
    """
    (
        algorithm,
        m,
        n,
        children,
        workload,
        runner_kwargs,
        backend,
        shm_name,
        start,
        total,
    ) = task
    from multiprocessing import shared_memory

    from repro.api.batch import run_batched
    from repro.api.spec import get_spec
    from repro.fastpath.backend import use_backend

    # Re-pin the kernel backend inside the worker: the parent's
    # contextvar does not cross the process boundary (backend=None
    # resolves the worker's own env/default — value-identical anyway).
    with use_backend(backend):
        results = run_batched(
            get_spec(algorithm), m, n, children, workload, runner_kwargs
        )
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        block = np.ndarray((total, n), dtype=np.int64, buffer=shm.buf)
        for i, result in enumerate(results):
            block[start + i, :] = result.loads
            result.loads = None  # parent rehydrates from the block
    finally:
        shm.close()
    return results


def replicate_sharded(
    algorithm: str,
    m: int,
    n: int,
    children: Sequence,
    workload,
    runner_kwargs: dict[str, Any],
    *,
    workers: int,
    backend: Optional[str] = None,
) -> list:
    """Trial-axis fan-out of the batched replication engine.

    Splits the pre-spawned seed children into ``workers`` contiguous
    shards, runs each shard's :func:`repro.api.batch.run_batched`
    in its own process, and returns the stitched results in trial
    order.  The ``(trials, n)`` int64 load matrix travels through one
    :mod:`multiprocessing.shared_memory` block — workers write their
    rows in place and strip ``result.loads`` before pickling, so the
    inter-process payload is metrics and metadata only.

    Value identity: trial ``t`` draws exclusively from its own child
    streams (``children[t]``), and the lock-step engine's per-trial
    outcome does not depend on which other trials share its batch —
    so any shard partition returns per-trial bitwise-identical
    results, and ``workers=k`` equals ``workers=1`` value-for-value.
    """
    total = len(children)
    bounds = _shard_bounds(total, workers)
    from repro.api.batch import run_batched
    from repro.api.spec import get_spec

    if len(bounds) <= 1:
        from repro.fastpath.backend import use_backend

        with use_backend(backend):
            return run_batched(
                get_spec(algorithm),
                m,
                n,
                list(children),
                workload,
                runner_kwargs,
            )
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(create=True, size=total * n * 8)
    try:
        tasks = [
            (
                algorithm,
                m,
                n,
                list(children[start:stop]),
                workload,
                runner_kwargs,
                backend,
                shm.name,
                start,
                total,
            )
            for start, stop in bounds
        ]
        with ProcessPoolExecutor(max_workers=len(bounds)) as pool:
            shards = list(pool.map(_replicate_shard, tasks))
        block = np.ndarray((total, n), dtype=np.int64, buffer=shm.buf)
        results = [result for shard in shards for result in shard]
        for i, result in enumerate(results):
            result.loads = block[i].copy()
    finally:
        shm.close()
        shm.unlink()
    return results


def parallel_results(
    algorithm: str,
    m: int,
    n: int,
    seeds: Sequence[int],
    *,
    workers: Optional[int] = None,
    **kwargs: Any,
) -> list[dict]:
    """Run ``algorithm`` once per seed across worker processes.

    Parameters
    ----------
    algorithm:
        Any registered allocator name or alias (see :data:`ALGORITHMS`).
    m, n:
        Instance size.
    seeds:
        One run per seed; results come back in seed order.
    workers:
        Process count (default: ``min(len(seeds), cpu_count)``).
    kwargs:
        Forwarded to the algorithm (e.g. ``mode="aggregate"``, ``d=2``).
    """
    from repro.api import resolve_name

    resolve_name(algorithm)  # fail fast, before spinning up workers
    if not seeds:
        raise ValueError("need at least one seed")
    max_workers = workers or min(len(seeds), os.cpu_count() or 1)
    if max_workers == 1:
        return [run_one(algorithm, m, n, seed, **kwargs) for seed in seeds]
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = [
            pool.submit(run_one, algorithm, m, n, seed, **kwargs)
            for seed in seeds
        ]
        return [f.result() for f in futures]


def parallel_gaps(
    algorithm: str,
    m: int,
    n: int,
    seeds: Sequence[int],
    *,
    workers: Optional[int] = None,
    **kwargs: Any,
) -> list[float]:
    """Convenience: just the max-load gaps, in seed order."""
    return [
        r["gap"]
        for r in parallel_results(
            algorithm, m, n, seeds, workers=workers, **kwargs
        )
    ]
