"""``A_light`` — the [LW16]-style light-load subroutine (Theorem 5).

The paper invokes the symmetric algorithm of Lenzen & Wattenhofer
[LW16] as a black box with these guarantees (w.h.p.): it places ``n``
balls into ``n`` bins within ``log* n + O(1)`` rounds with maximum bin
load 2 using ``O(n)`` messages.  This subpackage provides:

* :func:`repro.light.lw16.run_light` — a vectorized collision protocol
  meeting those guarantees empirically (the substitution is documented
  in that module and checked by experiment T7): in round ``r`` each
  unallocated ball contacts ``k_r`` uniformly random bins with a
  tower-growing schedule ``k_1 = 1, k_{r+1} = 2^{k_r}``; bins accept up
  to their residual capacity (2), balls commit to one acceptor and
  revoke the rest.  :func:`repro.light.lw16.run_light_batch` runs many
  independent trials of it in one lock-step pass; ``run_light`` is its
  one-trial call.
* :class:`repro.light.virtual.VirtualBinMap` — the virtual-bin reduction
  used by ``A_heavy``'s phase 2: each real bin simulates ``g`` virtual
  bins, so a virtual max load of 2 becomes at most ``2 g`` extra real
  load.
"""

from repro.light.lw16 import (
    LightConfig,
    LightOutcome,
    run_light,
    run_light_allocation,
    run_light_batch,
)
from repro.light.virtual import (
    VirtualBinMap,
    run_light_on_virtual_bins,
    run_light_on_virtual_bins_batch,
)

__all__ = [
    "LightConfig",
    "LightOutcome",
    "VirtualBinMap",
    "run_light",
    "run_light_allocation",
    "run_light_batch",
    "run_light_on_virtual_bins",
    "run_light_on_virtual_bins_batch",
]
