"""Dynamic allocation: churn, epochs, and incremental rebalancing.

Every other entry point in the package solves a one-shot instance —
``m`` balls arrive, the protocol runs, the process ends.  This
subsystem runs allocation as a *process*: balls continuously arrive
and depart (:class:`DynamicSpec`'s arrival processes and departure
policies), and the system re-establishes the paper's load guarantee
every epoch, either incrementally (only the arriving cohort moves,
placed against the residents' loads on the shared round kernels via
``RoundState(initial_loads=...)``) or by the full-rerun oracle
(everything moves — the cost incremental rebalancing amortizes away).

Entry points: :func:`repro.dynamic.run_dynamic` (also exported as
``repro.run_dynamic``), the ``python -m repro dynamic`` CLI, and the
per-protocol adapters registered with
:func:`repro.api.register_dynamic` (see ``python -m repro list`` for
the ``dynamic`` capability column).  ``docs/dynamic.md`` documents the
epoch model and the capability matrix.
"""

from repro.dynamic.faults import FaultState, place_with_loss
from repro.dynamic.runner import (
    DynamicResult,
    EpochRecord,
    run_dynamic,
    run_dynamic_many,
)
from repro.dynamic.spec import DynamicSpec
from repro.dynamic.state import ResidentState

__all__ = [
    "DynamicResult",
    "DynamicSpec",
    "EpochRecord",
    "FaultState",
    "ResidentState",
    "place_with_loss",
    "run_dynamic",
    "run_dynamic_many",
]
