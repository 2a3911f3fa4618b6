"""Unified allocator API: registry, dispatch, and batch execution.

The package's algorithms register themselves here (see
:func:`register_allocator`); :func:`allocate` runs any of them through
one validated code path, :func:`allocate_many` / :func:`sweep` batch
over seeds and instance grids with independent RNG streams, and
:func:`replicate` runs hundreds of seeded replications of one instance
through the trial-batched kernel engine, returning the distributional
summary (:class:`ReplicationResult`) the paper's w.h.p. claims call
for.

>>> import repro
>>> sorted(s.name for s in repro.list_allocators())[:3]
['asymmetric', 'batched', 'combined']
"""

from repro.api.batch import allocate_many, spawn_seeds, sweep
from repro.api.bench import (
    benchmark_kernels,
    benchmark_registry,
    benchmark_replication,
)
from repro.api.dispatch import AGGREGATE_THRESHOLD, allocate, resolve_mode
from repro.api.replicate import ReplicationResult, replicate
from repro.api.spec import (
    AllocatorSpec,
    allocator_names,
    capability_note,
    capable_allocators,
    get_dynamic,
    get_replicator,
    get_spec,
    list_allocators,
    register_allocator,
    register_dynamic,
    register_replicator,
    resolve_name,
)

__all__ = [
    "AGGREGATE_THRESHOLD",
    "AllocatorSpec",
    "ReplicationResult",
    "allocate",
    "allocate_many",
    "allocator_names",
    "benchmark_kernels",
    "benchmark_registry",
    "benchmark_replication",
    "capability_note",
    "capable_allocators",
    "get_dynamic",
    "get_replicator",
    "get_spec",
    "list_allocators",
    "register_allocator",
    "register_dynamic",
    "register_replicator",
    "replicate",
    "resolve_mode",
    "resolve_name",
    "spawn_seeds",
    "sweep",
]
