"""Virtual-bin reduction for ``A_heavy``'s phase 2.

Section 3 of the paper: after the threshold rounds, ``O(n)`` balls
remain; they are placed by running ``A_light`` where *each real bin
simulates g virtual bins*.  A virtual max load of 2 then adds at most
``2 g`` balls per real bin — the ``O(1)`` additive term of Theorem 1.

:class:`VirtualBinMap` is the index arithmetic (virtual bin ``v`` lives
in real bin ``v mod n``; using the residue rather than ``v // g`` keeps
the map correct when the last real bin simulates fewer virtual bins) and
:func:`run_light_on_virtual_bins` is the composed operation used by
``A_heavy`` (:func:`run_light_on_virtual_bins_batch` runs it for a
block of trials in one lock-step pass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.light.lw16 import LightConfig, LightOutcome, run_light_batch
from repro.utils.seeding import as_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "VirtualBinMap",
    "run_light_on_virtual_bins",
    "run_light_on_virtual_bins_batch",
]


@dataclass(frozen=True)
class VirtualBinMap:
    """Mapping between ``n`` real bins and ``g * n`` virtual bins.

    Virtual bin ``v`` maps to real bin ``v % n``, so every real bin
    simulates exactly ``g`` virtual bins and messages addressed to a
    uniformly random virtual bin land at a uniformly random real bin —
    preserving the symmetric model (a real bin can demultiplex by
    virtual index carried in the message payload).
    """

    n_real: int
    factor: int

    def __post_init__(self) -> None:
        check_positive_int(self.n_real, "n_real")
        check_positive_int(self.factor, "factor")

    @property
    def n_virtual(self) -> int:
        return self.n_real * self.factor

    def to_real(self, virtual: np.ndarray) -> np.ndarray:
        """Vectorized virtual -> real index map."""
        virtual = np.asarray(virtual)
        if virtual.size and (virtual.min() < 0 or virtual.max() >= self.n_virtual):
            raise ValueError("virtual index out of range")
        return virtual % self.n_real

    def fold_loads(self, virtual_loads: np.ndarray) -> np.ndarray:
        """Sum virtual-bin loads into real-bin loads."""
        virtual_loads = np.asarray(virtual_loads)
        if virtual_loads.shape != (self.n_virtual,):
            raise ValueError(
                f"expected {self.n_virtual} virtual loads, got shape "
                f"{virtual_loads.shape}"
            )
        return virtual_loads.reshape(self.factor, self.n_real).sum(axis=0)

    @staticmethod
    def for_balls(n_balls: int, n_real: int, capacity: int = 2) -> "VirtualBinMap":
        """Smallest factor ``g`` such that ``capacity * g * n >= n_balls``
        with one unit of slack (the protocol needs headroom to finish in
        ``log* n`` rounds, matching the paper's ``g(c)`` constant)."""
        check_positive_int(n_real, "n_real")
        if n_balls <= 0:
            return VirtualBinMap(n_real=n_real, factor=1)
        needed = math.ceil(n_balls / (capacity * n_real))
        return VirtualBinMap(n_real=n_real, factor=max(1, needed) + 1)


def run_light_on_virtual_bins(
    n_balls: int,
    n_real_bins: int,
    *,
    seed=None,
    config: LightConfig = LightConfig(),
) -> tuple[np.ndarray, LightOutcome, VirtualBinMap]:
    """Run ``A_light`` over virtual bins and fold the result.

    The one-trial call of :func:`run_light_on_virtual_bins_batch`.
    Returns ``(real_loads, light_outcome, vmap)`` where ``real_loads``
    has length ``n_real_bins`` and sums to ``n_balls``, over the
    :meth:`VirtualBinMap.for_balls` map.  The outcome's ``assignment``
    refers to *virtual* bins; use ``vmap.to_real`` for real indices.
    """
    (run,) = run_light_on_virtual_bins_batch(
        [n_balls], n_real_bins, seeds=[seed], config=config
    )
    return run


def run_light_on_virtual_bins_batch(
    n_balls: Sequence[int],
    n_real_bins: int,
    *,
    seeds: Sequence,
    config: LightConfig = LightConfig(),
) -> list[tuple[np.ndarray, LightOutcome, VirtualBinMap]]:
    """Run ``A_light`` over virtual bins for many trials in one pass.

    Trial ``t`` places ``n_balls[t]`` balls over its own
    :meth:`VirtualBinMap.for_balls` map, drawing from ``seeds[t]``; all
    trials run in lock-step through :func:`~repro.light.lw16.run_light_batch`,
    so entry ``t`` does not depend on the other trials.  Returns one
    ``(real_loads, light_outcome, vmap)`` per trial.
    """
    n_real_bins = check_positive_int(n_real_bins, "n_real_bins")
    vmaps = [
        VirtualBinMap.for_balls(b, n_real_bins, config.capacity)
        for b in n_balls
    ]
    outcomes = run_light_batch(
        n_balls,
        [vmap.n_virtual for vmap in vmaps],
        [as_generator(seed) for seed in seeds],
        config=config,
    )
    return [
        (vmap.fold_loads(outcome.loads), outcome, vmap)
        for vmap, outcome in zip(vmaps, outcomes)
    ]
