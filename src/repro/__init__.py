"""repro — Parallel Balanced Allocations: The Heavily Loaded Case.

A full reproduction of Lenzen, Parter & Yogev (SPAA 2019,
arXiv:1904.07532): parallel balls-into-bins algorithms for the
``m >> n`` regime, the supporting synchronous message-passing
simulation substrate, the lower-bound machinery of Theorem 7, the
baselines the paper compares against, and the experiment harness that
regenerates every quantitative claim.

Quickstart
----------
>>> import repro
>>> result = repro.allocate("heavy", m=1_000_000, n=1_000, seed=7)
>>> result.max_load - result.m // result.n <= 4   # m/n + O(1)
True

Scenarios beyond the paper's uniform/unit/homogeneous setting are one
keyword away (see ``docs/workloads.md``): Zipf-skewed demand, weighted
jobs, heterogeneous capacities —

>>> skewed = repro.allocate(
...     "heavy", m=100_000, n=256, seed=7, workload="zipf:1.1+propcap"
... )
>>> skewed.complete
True

and allocation under *churn* — epochs of departures and arrivals with
incremental rebalancing against the residual loads — is the dynamic
subsystem (see ``docs/dynamic.md``):

>>> dyn = repro.run_dynamic("heavy", 20_000, 64, seed=7, epochs=4)
>>> dyn.complete and len(dyn.gaps) == 5
True

Unified API (see ``docs/api.md``)
---------------------------------
Every algorithm is registered with :func:`repro.register_allocator` and
runs through one dispatch layer:

========================  ====================================================
``allocate``              Run any registered algorithm by name (one code
                          path: option validation, config normalization,
                          automatic mode selection)
``allocate_many``         Repeat one instance over seed-spawned independent
                          RNG streams, optionally across processes
``replicate``             Run hundreds of seeded replications in one
                          trial-batched vectorized pass; returns the
                          distributional summary (``ReplicationResult``)
``run_dynamic``           Run allocation under churn: epochs of
                          departures/arrivals with incremental
                          rebalancing (``DynamicResult`` time series)
``sweep``                 Run a grid of instances, each repeated
``list_allocators``       All registered :class:`AllocatorSpec` entries
``get_spec``              Look up one spec by name or alias
========================  ====================================================

``python -m repro list`` prints the registry; every algorithm below is
also a generated CLI subcommand.

Registered algorithms (all return :class:`repro.AllocationResult`;
the historical ``run_*`` entry points remain and are what the registry
dispatches to, so both spellings give bitwise-identical results
whenever the resolved mode matches the runner's default — always below
``repro.api.AGGREGATE_THRESHOLD``, or with ``mode=None``):

============  ========================  ==================================
registry      direct entry point        what it is
============  ========================  ==================================
``heavy``     ``run_heavy``             Algorithm ``A_heavy`` (Theorem 1)
``asymmetric``  ``run_asymmetric``      Constant-round asymmetric
                                        algorithm (Theorem 3)
``combined``  ``run_combined``          The combined dispatcher (Sec. 3)
``trivial``   ``run_trivial``           Deterministic n-round algorithm
``light``     ``run_light_allocation``  [LW16]-style light-load
                                        subroutine (Theorem 5)
``faulty``    ``run_heavy_faulty``      ``A_heavy`` under crashes and
                                        message loss
``multicontact``  ``run_heavy_multicontact``  Degree-d threshold variant
``single``    ``run_single_choice``     Naive one-shot random allocation
``greedy``    ``run_greedy_d``          Sequential greedy[d] [ABKU99]
``dchoice``   ``run_parallel_dchoice``  Non-adaptive parallel d-choice
                                        [ACMR98]
``stemann``   ``run_stemann``           Collision protocol [Ste96]
``batched``   ``run_batched_dchoice``   Batched multiple-choice [BCE+12]
============  ========================  ==================================
"""

from repro.baselines import (
    run_batched_dchoice,
    run_greedy_d,
    run_parallel_dchoice,
    run_single_choice,
    run_stemann,
)
from repro.core import (
    AsymmetricConfig,
    ExponentSchedule,
    FixedSchedule,
    HeavyConfig,
    PaperSchedule,
    ThresholdSchedule,
    run_asymmetric,
    run_combined,
    run_heavy,
    run_heavy_faulty,
    run_heavy_multicontact,
    run_threshold_protocol,
    run_trivial,
    should_use_trivial,
)
from repro.core.faulty import FaultModel, parse_faults
from repro.dynamic import (
    DynamicResult,
    DynamicSpec,
    run_dynamic,
    run_dynamic_many,
)
from repro.light import LightConfig, run_light, run_light_allocation
from repro.result import AllocationResult
from repro.service import (
    AdmissionPolicy,
    AllocatorService,
    ServiceReport,
    simulate_service,
)
from repro.fastpath.backend import use_backend
from repro.telemetry import Telemetry, current_telemetry, use_telemetry
from repro.workloads import (
    TimeVaryingWorkload,
    Workload,
    parse_time_varying,
    parse_workload,
)

# The api package is imported after the algorithm packages above, so
# every registration has run by the time allocate() is reachable.
from repro.api import (
    AllocatorSpec,
    ReplicationResult,
    allocate,
    allocate_many,
    allocator_names,
    get_spec,
    list_allocators,
    register_allocator,
    replicate,
    sweep,
)

__version__ = "1.1.0"

__all__ = [
    "AdmissionPolicy",
    "AllocationResult",
    "AllocatorService",
    "AllocatorSpec",
    "AsymmetricConfig",
    "DynamicResult",
    "DynamicSpec",
    "ExponentSchedule",
    "FaultModel",
    "FixedSchedule",
    "HeavyConfig",
    "LightConfig",
    "PaperSchedule",
    "ReplicationResult",
    "ServiceReport",
    "Telemetry",
    "ThresholdSchedule",
    "TimeVaryingWorkload",
    "Workload",
    "__version__",
    "allocate",
    "allocate_many",
    "allocator_names",
    "current_telemetry",
    "get_spec",
    "list_allocators",
    "parse_faults",
    "parse_time_varying",
    "parse_workload",
    "register_allocator",
    "replicate",
    "run_dynamic",
    "run_dynamic_many",
    "simulate_service",
    "run_asymmetric",
    "run_batched_dchoice",
    "run_combined",
    "run_greedy_d",
    "run_heavy",
    "run_heavy_faulty",
    "run_heavy_multicontact",
    "run_light",
    "run_light_allocation",
    "run_parallel_dchoice",
    "run_single_choice",
    "run_stemann",
    "run_threshold_protocol",
    "run_trivial",
    "should_use_trivial",
    "sweep",
    "use_backend",
    "use_telemetry",
]
