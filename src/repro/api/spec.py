"""Allocator specifications and the global registry.

Every allocation algorithm in the package — the paper's algorithms in
:mod:`repro.core`, the baselines in :mod:`repro.baselines`, and the
light-load subroutine in :mod:`repro.light` — declares itself to a
single registry via the :func:`register_allocator` decorator.  A
registration records an :class:`AllocatorSpec`: the callable, its
supported execution modes, config dataclass, and the exact set of
keyword options it accepts (derived from the function signature, so
the spec can never drift from the implementation).  Trial-batched
replication and dynamic placement attach to the same spec as
:class:`Adapter` fields (:func:`register_replicator`,
:func:`register_dynamic`); every capability except ``sequential`` and
``fault_tolerant`` is derived from those signatures, not declared.

The registry is what makes the rest of the package uniform:

* :func:`repro.api.dispatch.allocate` validates options against the
  spec and dispatches by name;
* the CLI (``python -m repro``) generates one subcommand per spec,
  with ``--mode`` choices and numeric option flags taken from the
  spec rather than hand-maintained per algorithm.

This module deliberately imports nothing from the algorithm packages:
they import *it* at definition time, so the registry populates as a
side effect of ``import repro``.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Adapter",
    "AllocatorSpec",
    "register_allocator",
    "register_dynamic",
    "register_replicator",
    "get_dynamic",
    "get_replicator",
    "get_spec",
    "capability_note",
    "capable_allocators",
    "list_allocators",
    "allocator_names",
    "resolve_name",
]

#: Execution modes any spec may declare.  ``perball`` is the exact
#: per-ball simulation, ``aggregate`` the O(n)-per-round fast path,
#: ``engine`` the object-level reference engine.
KNOWN_MODES = ("perball", "aggregate", "engine")

#: Parameters every runner shares; everything else in the signature
#: becomes a validated option.  ``workload`` is common because the
#: dispatch layer owns its parsing/validation (see
#: :func:`repro.api.dispatch.allocate` and the ``workload_capable``
#: capability).
_COMMON_PARAMS = frozenset({"m", "n", "seed", "mode", "config", "workload"})

_INT_ANNOTATION = re.compile(r"\bint\b")
_FLOAT_ANNOTATION = re.compile(r"\bfloat\b")


@dataclass(frozen=True)
class Adapter:
    """A registered trial-batched replication or dynamic-placement
    adapter (:func:`register_replicator`, :func:`register_dynamic`).

    Attributes
    ----------
    runner:
        The adapter function.  A replicator is called as
        ``runner(m, n, seed_seqs=[...], workload=..., **options)``
        with one spawned :class:`numpy.random.SeedSequence` per trial
        and returns one :class:`~repro.result.AllocationResult` per
        seed, trial ``t`` bitwise-identical to the allocator's
        ``aggregate`` run seeded with ``seed_seqs[t]``.  A dynamic
        adapter is called as
        ``runner(m, n, initial_loads=..., seed=..., workload=..., **options)``
        where ``m`` is the arriving cohort and ``initial_loads`` the
        residual per-bin occupancy it is placed against.  It returns
        the cohort's :class:`~repro.result.AllocationResult`: ``loads``
        is where the cohort's ``m`` balls landed and ``unallocated``
        the balls it stranded.  With all-zero ``initial_loads`` it is
        the allocator's one-shot run on the cohort.
    options:
        Keyword options the adapter accepts beyond its reserved
        parameters; a batch request with any other option falls back
        to the sequential loop, a dynamic run rejects it.
    """

    runner: Callable[..., Any]
    options: tuple[str, ...]


@dataclass(frozen=True)
class AllocatorSpec:
    """Everything the dispatch layer knows about one algorithm.

    ``sequential`` and ``fault_tolerant`` are declared at
    registration; every other capability is derived from the runner's
    and adapters' signatures.

    Attributes
    ----------
    name:
        Canonical registry key (also the CLI subcommand).
    runner:
        The underlying entry point (e.g. :func:`repro.run_heavy`).
        Called as ``runner(m, n, seed=..., **options)`` (plus
        ``mode=...`` when ``modes`` is non-empty).
    summary:
        One-line human description, shown by ``python -m repro list``.
    paper_ref:
        Where the algorithm lives in the paper (or the baseline's
        citation).
    aliases:
        Alternate names accepted by :func:`resolve_name` (legacy
        spellings, paper names).
    modes:
        Execution modes the runner's ``mode=`` keyword accepts; empty
        when the runner has no ``mode`` parameter.  ``mode="auto"``
        upgrades to ``aggregate`` at large ``m`` when it is listed.
    default_mode:
        Mode used when the caller asks for ``"auto"`` on a small
        instance (defaults to the first entry of ``modes``).
    sequential:
        Declared: True for non-parallel baselines whose "rounds" are
        not message rounds (greedy[d]).
    fault_tolerant:
        Declared: True when the runner models crashes / message loss.
    workload_capable:
        Derived: True when the runner takes a ``workload=`` keyword (a
        :class:`repro.workloads.Workload` scenario: non-uniform choice
        distributions, weighted balls, heterogeneous capacities) — the
        runners that execute on the shared
        :class:`repro.fastpath.roundstate.RoundState` round kernels.
        Allocators without it accept only the uniform workload;
        :func:`~repro.api.dispatch.allocate` raises a clear error
        before calling them with anything else.
    config_type:
        Optional config dataclass accepted via ``config=``; its fields
        may also be passed flat to :func:`~repro.api.dispatch.allocate`
        and are assembled into an instance automatically.
    options:
        Names of keyword options the runner accepts beyond the common
        ``m, n, seed, mode, config`` set.
    config_fields:
        Field names of ``config_type`` (empty when there is none).
    cli_options:
        Subset of options (and config fields) exposable as numeric CLI
        flags: mapping of option name to (type, default).
    replicator:
        The trial-batched replication :class:`Adapter`, or None.
    dynamic:
        The dynamic-placement :class:`Adapter`, or None.
    """

    name: str
    runner: Callable[..., Any]
    summary: str
    paper_ref: str = ""
    aliases: tuple[str, ...] = ()
    modes: tuple[str, ...] = ()
    default_mode: Optional[str] = None
    sequential: bool = False
    fault_tolerant: bool = False
    workload_capable: bool = False
    config_type: Optional[type] = None
    options: tuple[str, ...] = ()
    config_fields: tuple[str, ...] = ()
    cli_options: dict[str, tuple[type, Any]] = field(default_factory=dict)
    replicator: Optional[Adapter] = None
    dynamic: Optional[Adapter] = None

    @property
    def all_names(self) -> tuple[str, ...]:
        return (self.name,) + self.aliases

    @property
    def supports_multicontact(self) -> bool:
        """Derived: the runner takes a per-ball fan-out ``d`` (contacts
        several bins per round or per ball)."""
        return "d" in self.options

    @property
    def trial_batched(self) -> bool:
        """Derived: a replicator is attached, so one engine invocation
        advances T seeded replications in lock-step, per trial
        bitwise-identical to the sequential per-seed loop in the
        ``aggregate`` mode.  ``repro.replicate`` and the batch helpers
        (``allocate_many``/``sweep``) route through it."""
        return self.replicator is not None

    @property
    def dynamic_capable(self) -> bool:
        """Derived: a dynamic adapter is attached, so the protocol can
        place a cohort into bins that *already hold residual load* —
        what :mod:`repro.dynamic` and the service run every epoch.
        ``repro.run_dynamic`` accepts only these allocators."""
        return self.dynamic is not None

    @property
    def valid_options(self) -> tuple[str, ...]:
        """Every keyword ``allocate()`` will accept for this spec."""
        names = list(self.options)
        if self.config_type is not None:
            names.append("config")
            names.extend(f for f in self.config_fields if f not in names)
        return tuple(names)

    def capabilities(self) -> tuple[str, ...]:
        caps = []
        if self.workload_capable:
            caps.append("workload")
        if self.trial_batched:
            caps.append("trial_batched")
        if self.dynamic_capable:
            caps.append("dynamic")
        if self.sequential:
            caps.append("sequential")
        if self.fault_tolerant:
            caps.append("fault_tolerant")
        if self.supports_multicontact:
            caps.append("multicontact")
        return tuple(caps)


#: name (normalized) -> canonical spec name.  Populated by registration.
_ALIASES: dict[str, str] = {}
#: canonical name -> spec.
_REGISTRY: dict[str, AllocatorSpec] = {}


def _normalize(name: str) -> str:
    """Names are case-insensitive and hyphen/underscore-agnostic."""
    return name.strip().lower().replace("-", "_")


def _flag_type(default: Any, annotation: Any) -> Optional[type]:
    """Numeric CLI type for an option, or None if not flag-friendly."""
    if isinstance(default, bool):
        return None
    if isinstance(default, int):
        return int
    if isinstance(default, float):
        return float
    text = annotation if isinstance(annotation, str) else getattr(
        annotation, "__name__", str(annotation)
    )
    if _INT_ANNOTATION.search(text):
        return int
    if _FLOAT_ANNOTATION.search(text):
        return float
    return None


def _option_params(
    runner: Callable[..., Any], reserved: Iterable[str]
) -> list[inspect.Parameter]:
    """The runner's named parameters outside ``reserved``."""
    reserved = set(reserved)
    varargs = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    return [
        p
        for p in inspect.signature(runner).parameters.values()
        if p.name not in reserved and p.kind not in varargs
    ]


def _derive_options(
    runner: Callable[..., Any], config_type: Optional[type]
) -> tuple[tuple[str, ...], tuple[str, ...], dict[str, tuple[type, Any]]]:
    """Inspect the runner signature for its option set and CLI flags."""
    options: list[str] = []
    cli: dict[str, tuple[type, Any]] = {}
    for param in _option_params(runner, _COMMON_PARAMS):
        options.append(param.name)
        typ = _flag_type(param.default, param.annotation)
        if typ is not None:
            default = param.default
            cli[param.name] = (typ, None if default is inspect.Parameter.empty else default)
    config_fields: tuple[str, ...] = ()
    if config_type is not None:
        fields = dataclasses.fields(config_type)
        config_fields = tuple(f.name for f in fields)
        for f in fields:
            if f.name in cli or f.name in options:
                continue
            default = (
                f.default
                if f.default is not dataclasses.MISSING
                else None
            )
            typ = _flag_type(default, f.type)
            if typ is not None:
                cli[f.name] = (typ, default)
    return tuple(options), config_fields, cli


def register_allocator(
    name: str,
    *,
    summary: str,
    paper_ref: str = "",
    aliases: Iterable[str] = (),
    modes: Iterable[str] = (),
    default_mode: Optional[str] = None,
    sequential: bool = False,
    fault_tolerant: bool = False,
    config_type: Optional[type] = None,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Record the decorated entry point in the global registry.

    Returns the function unchanged: registration is bookkeeping only,
    so ``run_heavy`` et al. stay the canonical implementations and the
    dispatch layer adds no per-call overhead to direct use.
    """
    modes = tuple(modes)
    for mode in modes:
        if mode not in KNOWN_MODES:
            raise ValueError(
                f"unknown mode {mode!r} for allocator {name!r}; "
                f"known modes: {', '.join(KNOWN_MODES)}"
            )
    resolved_default = default_mode or (modes[0] if modes else None)
    if resolved_default is not None and resolved_default not in modes:
        raise ValueError(
            f"default_mode {resolved_default!r} not among modes {modes!r}"
        )

    def decorator(runner: Callable[..., Any]) -> Callable[..., Any]:
        options, config_fields, cli_options = _derive_options(
            runner, config_type
        )
        params = inspect.signature(runner).parameters
        spec = AllocatorSpec(
            name=name,
            runner=runner,
            summary=summary,
            paper_ref=paper_ref,
            aliases=tuple(aliases),
            modes=modes,
            default_mode=resolved_default,
            sequential=sequential,
            fault_tolerant=fault_tolerant,
            workload_capable="workload" in params,
            config_type=config_type,
            options=options,
            config_fields=config_fields,
            cli_options=cli_options,
        )
        key = _normalize(name)
        existing = _ALIASES.get(key)
        if existing is not None and _REGISTRY[existing].runner is not runner:
            raise ValueError(f"allocator name {name!r} already registered")
        _REGISTRY[key] = spec
        for alias in spec.all_names:
            alias_key = _normalize(alias)
            claimed = _ALIASES.get(alias_key)
            if claimed is not None and claimed != key:
                raise ValueError(
                    f"alias {alias!r} of allocator {name!r} already "
                    f"claimed by {claimed!r}"
                )
            _ALIASES[alias_key] = key
        return runner

    return decorator


def _attach(
    name: str, slot: str, label: str, required: tuple[str, ...]
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator setting ``slot`` (``replicator``/``dynamic``) of a
    registered spec to an :class:`Adapter` around the decorated
    function, whose signature must take every ``required`` parameter
    and whose remaining keywords become the adapter's options."""

    def decorator(runner: Callable[..., Any]) -> Callable[..., Any]:
        key = _normalize(name)
        spec = _REGISTRY.get(key)
        if spec is None:
            raise ValueError(
                f"cannot register {label} for unknown allocator {name!r}"
            )
        params = inspect.signature(runner).parameters
        for param in required:
            if param not in params:
                raise ValueError(f"{label} for {name!r} must take {param!r}")
        if not spec.workload_capable:
            raise ValueError(
                f"{label} for {name!r} takes workload= but the spec's "
                f"runner does not"
            )
        if slot == "replicator" and "aggregate" not in spec.modes:
            raise ValueError(
                f"{label} for {name!r} reproduces mode 'aggregate' but "
                f"the spec supports {spec.modes!r}"
            )
        options = tuple(
            p.name for p in _option_params(runner, {"m", "n", *required})
        )
        _REGISTRY[key] = dataclasses.replace(
            spec, **{slot: Adapter(runner=runner, options=options)}
        )
        return runner

    return decorator


def register_replicator(
    name: str,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Attach a trial-batched replication adapter to a registered spec.

    Must run after the allocator's own :func:`register_allocator`
    decoration (adapters live below their runner in the same module).
    The adapter takes ``seed_seqs`` (one seed per trial, so the trial
    count is its length) and ``workload``.  It reproduces the spec's
    ``aggregate`` mode bitwise, per trial, so the spec must list that
    mode; the dispatching batch helpers substitute it only when a
    request resolves to it.
    """
    return _attach(name, "replicator", "replicator", ("seed_seqs", "workload"))


def register_dynamic(
    name: str,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Attach a dynamic-placement adapter to a registered spec.

    Must run after the allocator's own :func:`register_allocator`
    decoration (adapters live below their runner in the same module).
    The adapter takes ``initial_loads``, ``seed`` and ``workload`` and
    returns the cohort's :class:`~repro.result.AllocationResult` (see
    :class:`Adapter`).
    """
    return _attach(
        name, "dynamic", "dynamic adapter",
        ("initial_loads", "seed", "workload"),
    )


def get_replicator(name: str) -> Optional[Adapter]:
    """The trial-batched adapter for an allocator, or None."""
    return get_spec(name).replicator


def get_dynamic(name: str) -> Optional[Adapter]:
    """The dynamic-placement adapter for an allocator, or None."""
    return get_spec(name).dynamic


def _ensure_populated() -> None:
    """Import the algorithm packages so their registrations run.

    Makes ``from repro.api import allocate`` self-sufficient even when
    the top-level ``repro`` package has not been imported yet.
    """
    import repro.baselines  # noqa: F401
    import repro.core  # noqa: F401
    import repro.light  # noqa: F401


def resolve_name(name: str) -> str:
    """Canonical spec name for ``name`` (alias-, case-, dash-tolerant)."""
    _ensure_populated()
    key = _ALIASES.get(_normalize(name))
    if key is None:
        raise ValueError(
            f"unknown algorithm {name!r}; registered: "
            f"{', '.join(allocator_names())}"
        )
    return key


def get_spec(name: str) -> AllocatorSpec:
    """Look up the spec for an algorithm name or alias."""
    return _REGISTRY[resolve_name(name)]


def allocator_names() -> tuple[str, ...]:
    """Sorted canonical names of every registered allocator."""
    _ensure_populated()
    return tuple(sorted(_REGISTRY))


def list_allocators() -> list[AllocatorSpec]:
    """All registered specs, sorted by canonical name."""
    _ensure_populated()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def capable_allocators(capability: str) -> list[str]:
    """Canonical names of the specs with a capability set.

    ``capability`` is a boolean :class:`AllocatorSpec` attribute name
    (``workload_capable``, ``dynamic_capable``, ``trial_batched``, ...).
    """
    return [s.name for s in list_allocators() if getattr(s, capability)]


def capability_note(capability: str) -> str:
    """The shared capability-rejection suffix of validation errors.

    Every layer that rejects an algorithm for a missing capability —
    ``repro.allocate`` workload validation, the dynamic runner's
    adapter and workload checks, the service — ends its message with
    this same phrase, e.g. ``"workload-capable allocators: heavy,
    single, stemann"``, so users always see which algorithms *would*
    work (consistency pinned by regression test).
    """
    label = capability.replace("_capable", "").replace("_", "-")
    names = ", ".join(capable_allocators(capability))
    return f"{label}-capable allocators: {names}"
