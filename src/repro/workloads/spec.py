"""Workload specifications: what arrives, how big it is, who can hold it.

The paper states its protocols for the canonical scenario — uniform
i.i.d. unit balls into homogeneous-capacity bins — and until this
module that scenario was hardwired at every layer of the package.  A
:class:`Workload` makes the scenario an explicit, validated object with
three independent axes:

* **choice distribution** — where a ball's uniformly random contact
  goes: ``uniform`` (the paper), ``zipf`` (power-law popularity, the
  classic web/cache skew), ``hotset`` (a fraction of bins receives a
  fixed share of traffic), or ``explicit`` per-bin probabilities;
* **ball weights** — how much work a ball carries: ``unit`` (the
  paper), ``geometric`` (i.i.d. integer job sizes with mean ``1/p``),
  or ``explicit`` per-ball weights;
* **capacity profile** — how bin capacity varies: ``homogeneous``
  (the paper), ``proportional`` (capacity follows the choice
  distribution, the provisioned-for-popularity regime), or
  ``explicit`` relative capacities.

Semantics shared by every kernel-backed protocol (see
``docs/workloads.md`` for the full contract):

* the choice distribution replaces the uniform contact draw in both
  granularities (per-ball inverse-CDF sampling; aggregate multinomial
  with the same ``pvals``) — identical in law between the two;
* the capacity profile scales each bin's threshold/capacity by a
  mean-1 per-bin factor, so total round capacity is preserved while
  individual bins shrink or grow;
* weights are *observational*: admission control stays count-based
  (a bin accepts up to its capacity in requests, exactly as in the
  unit protocol — the slot-based admission real schedulers use), and
  the package additionally tracks the per-bin **weighted** load, which
  is what the weighted max-load/gap statistics report.  Because a
  ball's weight never influences its acceptance, per-ball and
  aggregate granularities remain identical in law for i.i.d. weight
  distributions (aggregate draws per-bin weight *sums* from the exact
  closed form).

The default workload (all three axes at their paper settings) is
recognized by :attr:`Workload.is_uniform`; every dispatch and kernel
path treats it as "no workload at all", which is what makes the
uniform path bitwise seed-compatible with the pre-workload code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from repro.fastpath.sampling import ChoiceSampler, validate_pvals

__all__ = [
    "BoundWorkload",
    "Workload",
    "WorkloadError",
    "as_workload",
    "bind_workload",
    "parse_workload",
]

#: Accepted choice-distribution kinds.
CHOICE_KINDS = ("uniform", "zipf", "hotset", "explicit")
#: Accepted ball-weight kinds.
WEIGHT_KINDS = ("unit", "geometric", "explicit")
#: Accepted capacity-profile kinds.
CAPACITY_KINDS = ("homogeneous", "proportional", "explicit")


class WorkloadError(ValueError):
    """A workload spec is malformed or unusable in the requested mode."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise WorkloadError(f"{name} must be a non-empty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise WorkloadError(f"{name} must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class Workload:
    """One allocation scenario: choices x weights x capacities.

    Construct directly, via the named constructors (:meth:`zipf`,
    :meth:`hotset`, ...), or from the CLI string grammar with
    :func:`parse_workload`.  Instances are immutable; derived arrays
    (``pvals``, capacity scales) are recomputed per ``n`` because one
    spec is routinely applied across a sweep of instance sizes.

    Attributes
    ----------
    choice:
        Choice-distribution kind (``uniform``/``zipf``/``hotset``/
        ``explicit``).
    choice_params:
        ``zipf``: ``(s,)`` with exponent ``s > 0``; ``hotset``:
        ``(frac, share)`` — the hottest ``frac`` of bins receives
        ``share`` of the traffic.
    choice_pvals:
        Explicit per-bin probabilities (kind ``explicit`` only).
    weight:
        Ball-weight kind (``unit``/``geometric``/``explicit``).
    weight_param:
        ``geometric``: success probability ``p`` in (0, 1]; mean ball
        weight is ``1/p``.
    weight_values:
        Explicit per-ball weights (kind ``explicit`` only; length must
        equal ``m`` at run time).
    capacity:
        Capacity-profile kind (``homogeneous``/``proportional``/
        ``explicit``).
    capacity_values:
        Explicit per-bin *relative* capacities (kind ``explicit``
        only; normalized to mean 1 at run time).
    """

    choice: str = "uniform"
    choice_params: tuple = ()
    choice_pvals: Optional[np.ndarray] = None
    weight: str = "unit"
    weight_param: float = 0.5
    weight_values: Optional[np.ndarray] = None
    capacity: str = "homogeneous"
    capacity_values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.choice not in CHOICE_KINDS:
            raise WorkloadError(
                f"unknown choice kind {self.choice!r}; "
                f"expected one of {', '.join(CHOICE_KINDS)}"
            )
        if self.weight not in WEIGHT_KINDS:
            raise WorkloadError(
                f"unknown weight kind {self.weight!r}; "
                f"expected one of {', '.join(WEIGHT_KINDS)}"
            )
        if self.capacity not in CAPACITY_KINDS:
            raise WorkloadError(
                f"unknown capacity kind {self.capacity!r}; "
                f"expected one of {', '.join(CAPACITY_KINDS)}"
            )
        if self.choice == "zipf":
            if len(self.choice_params) != 1 or self.choice_params[0] <= 0:
                raise WorkloadError(
                    "zipf choice distribution needs one exponent s > 0"
                )
        if self.choice == "hotset":
            if len(self.choice_params) != 2:
                raise WorkloadError(
                    "hotset choice distribution needs (frac, share)"
                )
            frac, share = self.choice_params
            if not (0 < frac < 1 and 0 < share < 1):
                raise WorkloadError(
                    "hotset frac and share must lie strictly in (0, 1)"
                )
        if self.choice == "explicit" and self.choice_pvals is None:
            raise WorkloadError("explicit choice kind needs choice_pvals")
        if self.weight == "geometric" and not (0 < self.weight_param <= 1):
            raise WorkloadError(
                f"geometric weight parameter must be in (0, 1], "
                f"got {self.weight_param}"
            )
        if self.weight == "explicit":
            if self.weight_values is None:
                raise WorkloadError("explicit weight kind needs weight_values")
            w = _as_float_array(self.weight_values, "weight_values")
            if w.min() <= 0:
                raise WorkloadError("explicit weights must be positive")
            object.__setattr__(self, "weight_values", w)
        if self.capacity == "explicit":
            if self.capacity_values is None:
                raise WorkloadError(
                    "explicit capacity kind needs capacity_values"
                )
            c = _as_float_array(self.capacity_values, "capacity_values")
            if c.min() < 0 or c.sum() <= 0:
                raise WorkloadError(
                    "explicit capacities must be non-negative with "
                    "positive total"
                )
            object.__setattr__(self, "capacity_values", c)

    # -- named constructors ---------------------------------------------

    @classmethod
    def uniform(cls) -> "Workload":
        """The paper's scenario (the default)."""
        return cls()

    @classmethod
    def zipf(cls, s: float, **kwargs) -> "Workload":
        """Power-law choice skew: bin ``i`` drawn with p ∝ 1/(i+1)^s."""
        return cls(choice="zipf", choice_params=(float(s),), **kwargs)

    @classmethod
    def hotset(cls, frac: float, share: float, **kwargs) -> "Workload":
        """The hottest ``frac`` of bins receives ``share`` of traffic."""
        return cls(
            choice="hotset",
            choice_params=(float(frac), float(share)),
            **kwargs,
        )

    @classmethod
    def explicit(cls, pvals, **kwargs) -> "Workload":
        """Explicit per-bin choice probabilities."""
        return cls(
            choice="explicit", choice_pvals=np.asarray(pvals), **kwargs
        )

    # -- derived spec views ---------------------------------------------

    @property
    def is_uniform(self) -> bool:
        """True when every axis is at the paper's default setting."""
        return (
            self.choice == "uniform"
            and self.weight == "unit"
            and self.capacity == "homogeneous"
        )

    def describe(self) -> str:
        """Compact spec string, the same grammar :func:`parse_workload`
        accepts (``zipf:1.1+geomw:0.5+propcap``)."""
        parts = []
        if self.choice == "zipf":
            parts.append(f"zipf:{self.choice_params[0]:g}")
        elif self.choice == "hotset":
            frac, share = self.choice_params
            parts.append(f"hotset:{frac:g}:{share:g}")
        elif self.choice == "explicit":
            parts.append(f"explicit[{self.choice_pvals.size} bins]")
        if self.weight == "geometric":
            parts.append(f"geomw:{self.weight_param:g}")
        elif self.weight == "explicit":
            parts.append(f"explicitw[{self.weight_values.size} balls]")
        if self.capacity == "proportional":
            parts.append("propcap")
        elif self.capacity == "explicit":
            parts.append(f"explicitcap[{self.capacity_values.size} bins]")
        return "+".join(parts) if parts else "uniform"

    def pvals(self, n: int) -> Optional[np.ndarray]:
        """Per-bin choice probabilities for ``n`` bins (None = uniform)."""
        if self.choice == "uniform":
            return None
        if self.choice == "zipf":
            (s,) = self.choice_params
            raw = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
            return raw / raw.sum()
        if self.choice == "hotset":
            frac, share = self.choice_params
            hot = max(1, min(n - 1, math.ceil(frac * n))) if n > 1 else n
            p = np.empty(n, dtype=np.float64)
            if hot >= n:
                p.fill(1.0 / n)
                return p
            p[:hot] = share / hot
            p[hot:] = (1.0 - share) / (n - hot)
            return p / p.sum()
        return validate_pvals(self.choice_pvals, n)

    def capacity_scale(self, n: int) -> Optional[np.ndarray]:
        """Mean-1 per-bin capacity factors (None = homogeneous).

        ``proportional`` follows the choice distribution — bin ``b``'s
        capacity share equals its traffic share (``pvals[b] * n``), the
        provisioned-for-popularity regime.  ``explicit`` normalizes the
        given relative capacities to mean 1.
        """
        if self.capacity == "homogeneous":
            return None
        if self.capacity == "proportional":
            p = self.pvals(n)
            if p is None:
                return None  # proportional to uniform is homogeneous
            return p * n
        c = self.capacity_values
        if c.size != n:
            raise WorkloadError(
                f"explicit capacities have {c.size} entries, need n={n}"
            )
        return c * (n / c.sum())

    # -- weights ---------------------------------------------------------

    def sample_weights(
        self, m: int, rng: np.random.Generator
    ) -> Optional[np.ndarray]:
        """Per-ball weights for ``m`` balls (None = unit weights)."""
        if self.weight == "unit":
            return None
        if self.weight == "geometric":
            return rng.geometric(self.weight_param, size=m).astype(np.float64)
        w = self.weight_values
        if w.size != m:
            raise WorkloadError(
                f"explicit weights have {w.size} entries, need m={m}"
            )
        return w.copy()

    def weight_sum_sampler(
        self, rng: np.random.Generator
    ) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        """Sampler of per-bin weight *sums* for aggregate granularity.

        Given the per-bin accepted counts ``c``, returns one draw of
        ``sum of c_b i.i.d. ball weights`` per bin — the exact law of
        the weighted intake, in ``O(n)`` (geometric weights: the sum of
        ``c`` i.i.d. Geometric(p) variables is ``c + NegBin(c, p)``).
        ``None`` for unit weights; explicit per-ball weights have no
        exchangeable aggregate form and raise.
        """
        if self.weight == "unit":
            return None
        if self.weight == "explicit":
            raise WorkloadError(
                "explicit per-ball weights require granularity='perball' "
                "(aggregate mode needs an i.i.d. weight distribution)"
            )
        p = self.weight_param

        def sampler(counts: np.ndarray) -> np.ndarray:
            counts = np.asarray(counts, dtype=np.int64)
            sums = counts.astype(np.float64)
            positive = counts > 0
            if p < 1.0 and positive.any():
                sums[positive] += rng.negative_binomial(
                    counts[positive], p
                ).astype(np.float64)
            return sums

        return sampler

    def mean_weight(self) -> float:
        """Expected ball weight (realized mean for explicit weights)."""
        if self.weight == "unit":
            return 1.0
        if self.weight == "geometric":
            return 1.0 / self.weight_param
        return float(self.weight_values.mean())


def parse_workload(text: str) -> Workload:
    """Parse the CLI workload grammar into a :class:`Workload`.

    Components are joined with ``+``; each is one of::

        uniform               the paper's scenario (no-op component)
        zipf:<s>              power-law choice skew with exponent s
        hotset:<frac>:<share> frac of bins receives share of traffic
        geomw:<p>             geometric ball weights, mean 1/p
        unitw                 unit ball weights (no-op component)
        propcap               bin capacity proportional to traffic share
        homcap                homogeneous capacities (no-op component)

    Examples: ``zipf:1.1``, ``zipf:1.2+geomw:0.5``,
    ``hotset:0.1:0.5+propcap``.
    """
    if not isinstance(text, str) or not text.strip():
        raise WorkloadError("workload spec must be a non-empty string")
    choice = "uniform"
    choice_params: tuple = ()
    weight = "unit"
    weight_param = 0.5
    capacity = "homogeneous"
    seen_axes: set[str] = set()

    def claim(axis: str, token: str) -> None:
        if axis in seen_axes:
            raise WorkloadError(
                f"workload spec {text!r} sets the {axis} axis twice "
                f"(at {token!r})"
            )
        seen_axes.add(axis)

    for token in text.strip().split("+"):
        token = token.strip()
        head, _, tail = token.partition(":")
        head = head.lower()
        try:
            if head == "uniform":
                claim("choice", token)
            elif head == "zipf":
                claim("choice", token)
                choice, choice_params = "zipf", (float(tail),)
            elif head == "hotset":
                claim("choice", token)
                frac_s, _, share_s = tail.partition(":")
                choice = "hotset"
                choice_params = (float(frac_s), float(share_s))
            elif head == "geomw":
                claim("weight", token)
                weight, weight_param = "geometric", float(tail)
            elif head == "unitw":
                claim("weight", token)
            elif head == "propcap":
                claim("capacity", token)
                capacity = "proportional"
            elif head == "homcap":
                claim("capacity", token)
            else:
                raise WorkloadError(
                    f"unknown workload component {token!r}; expected "
                    "uniform, zipf:<s>, hotset:<frac>:<share>, "
                    "geomw:<p>, unitw, propcap, or homcap"
                )
        except (TypeError, ValueError) as exc:
            if isinstance(exc, WorkloadError):
                raise
            raise WorkloadError(
                f"malformed workload component {token!r}: {exc}"
            ) from exc
    return Workload(
        choice=choice,
        choice_params=choice_params,
        weight=weight,
        weight_param=weight_param,
        capacity=capacity,
    )


def as_workload(
    value: Union[None, str, Workload]
) -> Optional[Workload]:
    """Coerce the public ``workload=`` forms to a spec (or None).

    ``None`` and uniform specs both come back as ``None`` so callers
    have a single "no workload" fast path — the one that is bitwise
    seed-compatible with the pre-workload code.
    """
    if value is None:
        return None
    if isinstance(value, str):
        value = parse_workload(value)
    if not isinstance(value, Workload):
        raise WorkloadError(
            f"workload must be a Workload, spec string, or None; "
            f"got {type(value).__name__}"
        )
    return None if value.is_uniform else value


@dataclass
class BoundWorkload:
    """A workload resolved against one instance ``(m, n)`` and seed.

    Protocols bind once at entry (:func:`bind_workload`) and then read
    plain arrays, so the per-round kernel code never touches spec
    logic.  The all-``None`` binding (uniform workload) is what every
    pre-workload call site effectively used.

    Attributes
    ----------
    spec:
        The source :class:`Workload` (None for the uniform binding).
    pvals:
        Per-bin choice probabilities, or None for uniform contacts.
    sampler:
        ``pvals`` validated once and prepared for the per-round contact
        draws (:class:`~repro.fastpath.sampling.ChoiceSampler`), built
        with the binding; None for uniform contacts.
    capacity_scale:
        Mean-1 per-bin capacity factors, or None for homogeneous.
    weights:
        Per-ball weights (perball granularity), or None for unit.
    weight_sum_sampler:
        Per-bin weight-sum sampler (aggregate granularity), or None.
    """

    spec: Optional[Workload] = None
    pvals: Optional[np.ndarray] = None
    capacity_scale: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    weight_sum_sampler: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sampler: Optional[ChoiceSampler] = field(
        default=None, init=False, repr=False
    )
    _capacity_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.pvals is not None:
            self.sampler = ChoiceSampler(self.pvals, self.pvals.size)

    @property
    def active(self) -> bool:
        return self.spec is not None

    @property
    def weighted(self) -> bool:
        return self.weights is not None or self.weight_sum_sampler is not None

    def capacities(self, base: Union[int, float]):
        """Scalar-or-array capacity for a scalar base threshold.

        Homogeneous profiles return ``base`` unchanged (scalar fast
        path); heterogeneous ones return the rounded int64 array.
        Repeated thresholds are cached — schedules revisit the same
        few values round after round.
        """
        if self.capacity_scale is None:
            return base
        key = float(base)
        caps = self._capacity_cache.get(key)
        if caps is None:
            caps = np.maximum(
                np.rint(base * self.capacity_scale), 0
            ).astype(np.int64)
            self._capacity_cache[key] = caps
        return caps

    def extra_record(
        self,
        weighted_loads: Optional[np.ndarray] = None,
        *,
        inapplicable: tuple = (),
    ) -> Optional[dict]:
        """The ``result.extra["workload"]`` payload for a finished run.

        ``weighted_loads`` is the final per-bin weighted intake (when
        the run tracked weights); ``inapplicable`` names workload axes
        the protocol structurally cannot honor (e.g. the choice
        distribution for a deterministic-contact protocol), recorded so
        a caller is never silently surprised.
        """
        if not self.active:
            return None
        record: dict = {"spec": self.spec.describe()}
        if weighted_loads is not None:
            total = float(weighted_loads.sum())
            n = weighted_loads.size
            peak = float(weighted_loads.max(initial=0.0))
            record["weighted_max_load"] = peak
            record["weighted_gap"] = peak - total / n
            record["total_weight"] = total
        if inapplicable:
            record["inapplicable"] = list(inapplicable)
        return record


def bind_workload(
    workload: Union[None, str, Workload],
    m: int,
    n: int,
    factory,
    *,
    granularity: str = "perball",
) -> BoundWorkload:
    """Resolve a workload for one run.

    ``factory`` is the protocol's :class:`repro.utils.seeding.RngFactory`;
    weights draw from the dedicated ``("workload", "weights")`` stream,
    so a workload-bearing run perturbs no other stream — the uniform
    binding draws nothing at all, preserving bitwise seed
    compatibility.  An already-bound workload passes through unchanged
    (protocols composed of phases bind once and share the binding).
    """
    if isinstance(workload, BoundWorkload):
        return workload
    wl = as_workload(workload)
    if wl is None:
        return BoundWorkload()
    bound = BoundWorkload(
        spec=wl,
        pvals=wl.pvals(n),
        capacity_scale=wl.capacity_scale(n),
    )
    if wl.weight != "unit":
        weight_rng = factory.stream("workload", "weights")
        if granularity == "aggregate":
            bound.weight_sum_sampler = wl.weight_sum_sampler(weight_rng)
        else:
            bound.weights = wl.sample_weights(m, weight_rng)
    return bound
