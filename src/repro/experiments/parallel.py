"""Process-pool execution of repeated runs.

The simulations are CPU-bound numpy code, so Python threads cannot
parallelize repetitions (the GIL serializes the interpreter between the
vectorized sections — the limitation the calibration notes flag).
Repetitions over seeds are embarrassingly parallel, though, and
``multiprocessing`` sidesteps the GIL entirely.

:func:`pool_map` is the one fan-out over worker *processes*: the
per-seed loop of :func:`repro.allocate_many` / :func:`repro.sweep`,
:func:`replicate_sharded` and :func:`repro.run_dynamic_many` all run
through it.  Tasks are plain picklable tuples dispatched by algorithm
name, so it works under every start method (``fork``, ``spawn``,
``forkserver``), and each worker runs under the parent's kernel backend
(:func:`repro.use_backend`), a pin a spawned process would not inherit.

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

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.fastpath.backend import resolve_backend, use_backend

__all__ = ["pool_map", "replicate_sharded"]


def _pinned(task: tuple):
    fn, backend, item = task
    with use_backend(backend):
        return fn(item)


def pool_map(fn: Callable, tasks: Sequence, workers: Optional[int]) -> list:
    """``[fn(task) for task in tasks]``, over up to ``workers``
    processes when there are two or more of each, in task order.

    ``fn`` must be a module-level function and every task picklable.
    Each worker runs under ``use_backend`` of the backend the parent
    resolves, so results never depend on the start method.
    """
    if workers is None or workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    backend = resolve_backend().name
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_pinned, [(fn, backend, t) for t in tasks]))


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
    (algorithm, m, n, children, workload, runner_kwargs, shm_name, start,
     total) = task
    from multiprocessing import shared_memory

    from repro.api.batch import run_batched
    from repro.api.spec import get_spec

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
    if len(bounds) <= 1:
        from repro.api.batch import run_batched
        from repro.api.spec import get_spec

        return run_batched(
            get_spec(algorithm), m, n, list(children), workload,
            runner_kwargs,
        )
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(create=True, size=total * n * 8)
    try:
        tasks = [
            (
                algorithm, m, n, list(children[start:stop]), workload,
                runner_kwargs, shm.name, start, total,
            )
            for start, stop in bounds
        ]
        shards = pool_map(_replicate_shard, tasks, len(bounds))
        block = np.ndarray((total, n), dtype=np.int64, buffer=shm.buf)
        results = [result for shard in shards for result in shard]
        for i, result in enumerate(results):
            result.loads = block[i].copy()
    finally:
        shm.close()
        shm.unlink()
    return results
