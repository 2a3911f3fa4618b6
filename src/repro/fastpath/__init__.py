"""Vectorized numpy execution paths.

Per the HPC guides, the hot loops of every protocol are expressed as
whole-array numpy operations — no Python-level loop over balls ever
executes.  Two granularities are offered:

* **per-ball** (:mod:`repro.fastpath.sampling` kernels over arrays of
  ball choices): exact per-ball semantics and message accounting,
  ``O(m_i log m_i)`` work per round; practical to ``m ≈ 10^7``.
* **aggregate** (multinomial occupancy sampling): balls in a uniform-
  contact round are exchangeable, so the per-bin request counts are
  *exactly* ``Multinomial(m_i, 1/n)``; sampling them directly costs
  ``O(n)`` per round and scales to ``m ≈ 10^12`` while remaining
  distributionally identical for every per-bin and global statistic.

:mod:`repro.fastpath.roundstate` layers the shared round skeleton on
top of the sampling kernels: :class:`RoundState` owns the flat arrays
(loads, active balls, metrics, message tallies) and exposes the three
kernel steps — ``sample_contacts``, ``group_and_accept``,
``commit_and_revoke`` — that every protocol's vectorized mode drives
(see ``docs/performance.md``).  A round's record is the ``RunMetrics``
row its commit step appends.

A third axis batches *trials*: the aggregate-granularity state accepts
``trials=T`` and advances T independent replications of one instance
in lock-step from per-trial generators (the replication engine behind
``repro.replicate``; see ``docs/replication.md``).

Cross-validation tests assert both paths agree with the object-level
engine on conserved quantities and in distribution.

The bin-side resolution primitives themselves (grouping, commit
resolution, load scatters) are pluggable through
:mod:`repro.fastpath.backend`: the ``reference`` lexsort kernels or
the default ``fused`` counting-sort kernels, bitwise-identical by
contract and selected by the ``use_backend`` context or the
``REPRO_KERNEL_BACKEND`` environment variable.
"""

from repro.fastpath.backend import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    FusedBackend,
    KernelBackend,
    ReferenceBackend,
    resolve_backend,
    use_backend,
)
from repro.fastpath.roundstate import (
    AcceptDecision,
    ContactBatch,
    RoundState,
    narrow_dtypes,
    priority_commit_accept,
)
from repro.fastpath.sampling import (
    ChoiceSampler,
    fill_choices,
    grouped_accept,
    grouped_accept_with_priorities,
    multinomial_occupancy,
    multinomial_occupancy_batched,
    prepare_choices,
    sample_choices,
    sample_uniform_choices,
    validate_pvals,
)

__all__ = [
    "AcceptDecision",
    "BACKEND_ENV_VAR",
    "ChoiceSampler",
    "ContactBatch",
    "DEFAULT_BACKEND",
    "FusedBackend",
    "KernelBackend",
    "ReferenceBackend",
    "RoundState",
    "fill_choices",
    "grouped_accept",
    "grouped_accept_with_priorities",
    "multinomial_occupancy",
    "multinomial_occupancy_batched",
    "narrow_dtypes",
    "prepare_choices",
    "priority_commit_accept",
    "resolve_backend",
    "sample_choices",
    "sample_uniform_choices",
    "use_backend",
    "validate_pvals",
]
