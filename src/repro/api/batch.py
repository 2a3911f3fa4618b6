"""Batch execution on top of :func:`repro.api.dispatch.allocate`.

Two entry points:

* :func:`allocate_many` — repeat one instance across independent
  seed-spawned RNG streams (the numpy ``SeedSequence.spawn`` idiom, so
  repetitions are statistically independent yet exactly reproducible
  from one root seed);
* :func:`sweep` — run a grid of ``(m, n)`` points, each repeated, with
  per-run spawned streams.

Execution: :func:`_try_batched` is the one dispatcher every batch of
seeds goes through, :func:`repro.replicate` included.  When the
algorithm's spec carries the ``trial_batched`` capability and the
request is compatible (``mode="auto"`` or ``"aggregate"``,
replicator-supported options), the repetitions run on the
trial-batched kernel engine — one lock-step vectorized pass whose
per-repeat results are *bitwise-identical* to the sequential loop run
in the aggregate mode.  The mode resolution itself is the one place
``"auto"`` semantics move: for trial-batched specs, ``mode="auto"``
here selects the aggregate mode at *any* instance size, just as
single-run ``allocate`` upgrades to aggregate above
``AGGREGATE_THRESHOLD`` — identical in distribution, not bitwise, and
without per-ball message counters.  Callers who need the runner's
default mode bitwise say so exactly as they always have: ``mode=None``
(or an explicit mode), which is never silently batched.

Everything else runs the per-seed loop, optionally fanned out over
processes with ``workers=`` (the CPU-bound numpy simulations cannot
share a core under the GIL, so fan-out goes through
:mod:`repro.experiments.parallel`, imported lazily).  Results come
back in task order in every case: ``workers`` never changes values,
and batching never changes values relative to the same resolved mode.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Union

import numpy as np

from repro.api.dispatch import _split_options, allocate, resolve_mode
from repro.api.spec import AllocatorSpec, get_spec
from repro.result import AllocationResult
from repro.utils.seeding import as_seed_sequence

__all__ = ["allocate_many", "spawn_seeds", "sweep"]

SweepPoint = Union[tuple[int, int], dict[str, Any]]


def spawn_seeds(seed, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent child seeds from one root seed.

    Children are spawned from a :class:`numpy.random.SeedSequence`, so
    streams are independent even for adjacent root seeds, and the whole
    batch replays exactly.  Accepts the package-wide seed forms (int,
    None, SeedSequence, Generator) via
    :func:`repro.utils.seeding.as_seed_sequence` — the same root-seed
    idiom :class:`repro.utils.seeding.RngFactory` uses, so a Generator
    is frozen into a root entropy value identically everywhere.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return as_seed_sequence(seed).spawn(count)


def _allocate_task(task: tuple):
    algorithm, m, n, seed, mode, options = task
    return allocate(algorithm, m, n, seed=seed, mode=mode, **options)


def _run_tasks(tasks: list[tuple], workers: Optional[int]) -> list:
    from repro.experiments.parallel import pool_map

    return pool_map(_allocate_task, tasks, workers)


def batched_eligible(
    spec: AllocatorSpec,
    m: int,
    mode: Optional[str],
    runner_kwargs: dict[str, Any],
) -> bool:
    """Can this request run on the trial-batched engine at *identical*
    values?

    Requires a registered replicator, a compatible execution mode
    (``"auto"`` opts in; anything else must resolve to ``aggregate``,
    the mode every replicator reproduces) and replicator support for
    every requested option.
    """
    if spec.replicator is None:
        return False
    if mode != "auto" and resolve_mode(spec, m, mode) != "aggregate":
        return False
    return set(runner_kwargs) <= set(spec.replicator.options)


def run_batched(
    spec: AllocatorSpec,
    m: int,
    n: int,
    seed_seqs: Sequence[np.random.SeedSequence],
    workload,
    runner_kwargs: dict[str, Any],
) -> list[AllocationResult]:
    """Invoke the registered replicator and annotate the dispatch
    record."""
    from repro.fastpath.backend import resolve_backend

    results = spec.replicator.runner(
        m, n, seed_seqs=list(seed_seqs), workload=workload, **runner_kwargs
    )
    for result in results:
        result.extra["api"] = {
            "algorithm": spec.name,
            "mode": "aggregate",
            "workload": workload.describe() if workload is not None else None,
            "trial_batched": True,
            "backend": resolve_backend().name,
        }
    return results


def _try_batched(
    algorithm: str,
    m: int,
    n: int,
    children: list[np.random.SeedSequence],
    mode: Optional[str],
    options: dict[str, Any],
    trial_batched: Optional[bool],
    workers: Optional[int] = None,
) -> Optional[list]:
    """Run the repeats on the trial-batched engine when that provably
    changes nothing but the wall clock; ``None`` means "use the loop".

    ``workers >= 2`` shards the engine's trial axis across processes
    (:func:`repro.experiments.parallel.replicate_sharded`) — per-trial
    bitwise-identical to the single-process batch.
    """
    if trial_batched is False:
        return None
    spec = get_spec(algorithm)
    if not spec.trial_batched:
        if trial_batched is True:
            raise ValueError(
                f"algorithm {spec.name!r} has no trial-batched engine"
            )
        return None
    from repro.workloads import as_workload

    opts = dict(options)
    wl = as_workload(opts.pop("workload", None))
    runner_kwargs = _split_options(spec, opts)
    if not batched_eligible(spec, m, mode, runner_kwargs):
        if trial_batched is True:
            raise ValueError(
                f"algorithm {spec.name!r} cannot batch this request "
                f"(mode={mode!r}, options={sorted(opts)})"
            )
        return None
    if workers is not None and workers > 1 and len(children) > 1:
        from repro.experiments.parallel import replicate_sharded

        return replicate_sharded(
            spec.name, m, n, children, wl, runner_kwargs, workers=workers
        )
    return run_batched(spec, m, n, children, wl, runner_kwargs)


def allocate_many(
    algorithm: str,
    m: int,
    n: int,
    *,
    repeats: int,
    seed=None,
    mode: str = "auto",
    workers: Optional[int] = None,
    trial_batched: Optional[bool] = None,
    **options: Any,
):
    """Run ``algorithm`` ``repeats`` times with independent streams.

    Parameters
    ----------
    algorithm, m, n, mode, options:
        As for :func:`~repro.api.dispatch.allocate`.
    repeats:
        Number of independent runs (must be >= 1).
    seed:
        Root seed; each run gets its own spawned child stream, so runs
        are independent but the whole batch replays exactly.
    workers:
        ``None``/``1`` runs in-process; ``>= 2`` fans out over worker
        processes via :mod:`repro.experiments.parallel`.  When the
        batch runs on the trial-batched engine, the fan-out shards the
        engine's *trial axis* (contiguous shards of the spawned
        children, loads through shared memory) — per-repeat
        bitwise-identical to the single-process batch.
    trial_batched:
        ``None`` (default) routes through the trial-batched engine for
        specs with the ``trial_batched`` capability under
        ``mode="auto"`` — each repeat then executes in the aggregate
        mode, regardless of instance size — or under
        ``mode="aggregate"`` explicitly.  ``False`` forces the
        historical per-seed loop (note that under ``mode="auto"`` the
        loop resolves the mode per the single-run rules, i.e. the spec
        default below ``AGGREGATE_THRESHOLD``, so it reproduces the
        engine's values only in the aggregate mode; pass it explicitly
        to compare value-for-value).
        ``True`` requires batching and raises when the request cannot
        batch.

    Notes
    -----
    ``workload=`` (a :class:`repro.workloads.Workload` or spec string)
    passes through ``options`` into
    :func:`~repro.api.dispatch.allocate` per run, and the trial-batched
    engine honours it; because each run's stream is spawned from the
    root seed, results are identical for any ``workers`` count,
    workload or not.  Worker processes run under the caller's kernel
    backend (:func:`repro.experiments.parallel.pool_map`).

    Returns
    -------
    list[AllocationResult]
        In repeat order; ``extra["api"]["repeat"]`` records the index.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    children = spawn_seeds(seed, repeats)
    results = _try_batched(
        algorithm, m, n, children, mode, options, trial_batched, workers
    )
    if results is None:
        tasks = [
            (algorithm, m, n, child, mode, options) for child in children
        ]
        results = _run_tasks(tasks, workers)
    for i, result in enumerate(results):
        result.extra["api"]["repeat"] = i
    return results


def _point_to_task(
    algorithm: str,
    point: SweepPoint,
    child: np.random.SeedSequence,
    mode: str,
    common: dict[str, Any],
) -> tuple:
    if isinstance(point, dict):
        merged = dict(common)
        merged.update(point)
        try:
            m = merged.pop("m")
            n = merged.pop("n")
        except KeyError as exc:
            raise ValueError(
                f"sweep point {point!r} must provide 'm' and 'n'"
            ) from exc
        point_mode = merged.pop("mode", mode)
        return (algorithm, m, n, child, point_mode, merged)
    m, n = point
    return (algorithm, m, n, child, mode, dict(common))


def sweep(
    algorithm: str,
    points: Iterable[SweepPoint] | Sequence[SweepPoint],
    *,
    repeats: int = 1,
    seed=None,
    mode: str = "auto",
    workers: Optional[int] = None,
    trial_batched: Optional[bool] = None,
    **options: Any,
):
    """Run a parameter sweep: every point, ``repeats`` times each.

    Parameters
    ----------
    algorithm:
        Registry name or alias.
    points:
        Iterable of instance points: ``(m, n)`` tuples, or dicts with
        ``m``/``n`` plus per-point option overrides (a dict may also
        override ``mode``).
    repeats:
        Independent runs per point.
    seed:
        Root seed; every (point, repeat) cell gets its own spawned
        stream, so cells are mutually independent and the whole sweep
        replays from the root.
    workers:
        Optional process fan-out, as in :func:`allocate_many`.
    trial_batched:
        As in :func:`allocate_many`, applied point by point: each
        point's ``repeats`` runs batch together when eligible (its
        instance size and merged options decide), and fall back to the
        sequential loop otherwise — values are identical either way.
    options:
        Options common to every point (per-point dicts override).

    Returns
    -------
    list[AllocationResult]
        Flat, ordered point-major then repeat; each result's
        ``extra["api"]`` records ``point`` and ``repeat`` indices.
        Persist with :func:`repro.experiments.export.results_to_json`.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    point_list = list(points)
    if not point_list:
        raise ValueError("sweep needs at least one point")
    children = spawn_seeds(seed, len(point_list) * repeats)
    if trial_batched is not True and (
        trial_batched is False or not get_spec(algorithm).trial_batched
    ):
        # No batching possible for this spec: keep the historical
        # single submission so a worker pool spans the whole sweep.
        tasks = []
        for p_idx, point in enumerate(point_list):
            for r_idx in range(repeats):
                child = children[p_idx * repeats + r_idx]
                tasks.append(
                    _point_to_task(algorithm, point, child, mode, options)
                )
        results = _run_tasks(tasks, workers)
        for i, result in enumerate(results):
            result.extra["api"]["point"] = i // repeats
            result.extra["api"]["repeat"] = i % repeats
        return results
    # Two-phase submission: batch each eligible point's repeat block on
    # the engine, and collect every remaining cell into ONE task list
    # so a worker pool still spans the whole sweep (not one pool per
    # point), then stitch the results back in point-major order.
    blocks: list = [None] * len(point_list)
    pending_tasks: list[tuple] = []
    pending_slots: list[int] = []
    for p_idx, point in enumerate(point_list):
        cell = children[p_idx * repeats : (p_idx + 1) * repeats]
        # Per-point task shape (a dict point may override m/n/mode and
        # options), resolved once for the whole repeat block.
        task = _point_to_task(algorithm, point, cell[0], mode, options)
        _, p_m, p_n, _, p_mode, p_options = task
        block = _try_batched(
            algorithm, p_m, p_n, cell, p_mode, p_options, trial_batched,
            workers,
        )
        if block is None:
            for child in cell:
                pending_tasks.append(
                    (algorithm, p_m, p_n, child, p_mode, p_options)
                )
            pending_slots.append(p_idx)
        else:
            blocks[p_idx] = block
    if pending_tasks:
        sequential = _run_tasks(pending_tasks, workers)
        for i, p_idx in enumerate(pending_slots):
            blocks[p_idx] = sequential[i * repeats : (i + 1) * repeats]
    results = [result for block in blocks for result in block]
    for i, result in enumerate(results):
        result.extra["api"]["point"] = i // repeats
        result.extra["api"]["repeat"] = i % repeats
    return results
