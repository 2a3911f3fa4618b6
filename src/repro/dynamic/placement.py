"""The contract between dynamic adapters and the epoch runner.

A dynamic-placement adapter (registered with
:func:`repro.api.register_dynamic`) places one cohort of ``m`` new
balls into ``n`` bins that already hold a residual occupancy.  It
returns a :class:`DynamicPlacement`: the resulting *total* per-bin
loads plus the cost accounting the epoch runner folds into the
:class:`~repro.dynamic.runner.DynamicResult` time series.

This module deliberately imports nothing from the algorithm packages
— they import *it* (exactly like :mod:`repro.api.spec`), so adapters
can live next to their protocols without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DynamicPlacement", "check_mode"]


def check_mode(mode) -> None:
    """Reject a granularity the round kernels do not run.  Adapters
    call this before their empty-cohort return, so a bad ``mode``
    fails on the first call, not on the first non-empty cohort."""
    if mode not in ("perball", "aggregate"):
        raise ValueError(
            f"mode must be 'perball' or 'aggregate', got {mode!r}"
        )


@dataclass
class DynamicPlacement:
    """Outcome of placing one cohort against residual bin loads.

    Attributes
    ----------
    loads:
        Total per-bin loads after placement: the residual occupancy the
        adapter was given plus every placed ball.
    placed:
        Balls of the cohort that were allocated.
    unplaced:
        Balls the adapter could not place (saturated capacity under the
        protocol's own rules); ``placed + unplaced == m``.
    rounds:
        Communication rounds the placement executed (saturated rounds a
        protocol skipped without sampling do not count).
    total_messages:
        Messages charged for the placement — the quantity the
        amortization claim (incremental cost scales with churn, not
        ``m``) is stated over.
    extra:
        Adapter-specific records (phase split, thresholds, branch
        taken, workload record).
    """

    loads: np.ndarray
    placed: int
    unplaced: int
    rounds: int
    total_messages: int
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.loads = np.asarray(self.loads, dtype=np.int64)
        if self.placed < 0 or self.unplaced < 0:
            raise ValueError(
                f"placed/unplaced must be >= 0, got "
                f"{self.placed}/{self.unplaced}"
            )
