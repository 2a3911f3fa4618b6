"""The unified entry point: ``repro.allocate(algorithm, m, n, ...)``.

One function runs every registered algorithm through one code path:

>>> import repro
>>> res = repro.allocate("heavy", 100_000, 256, seed=7)
>>> res.algorithm
'heavy'

``allocate`` resolves the algorithm name (aliases included) against the
registry, validates every keyword option against the spec derived from
the runner's actual signature, normalizes config construction (config
dataclass fields may be passed flat), picks the fastest eligible
execution mode when asked for ``"auto"``, and returns the runner's
:class:`~repro.result.AllocationResult` unchanged except for a
``result.extra["api"]`` record of the dispatch decision.

Because the registered runners *are* the public ``run_*`` functions,
``allocate`` adds nothing between you and the algorithm: with
``mode=None`` (or whenever the resolved mode equals the runner's
default — always true below ``AGGREGATE_THRESHOLD``),
``repro.allocate("heavy", m, n, seed=s)`` is bitwise-identical to
``repro.run_heavy(m, n, seed=s)``.  At or above the threshold,
``mode="auto"`` upgrades to the aggregate fast path — identical in
distribution, not bitwise, and without per-ball message counters.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.api.spec import AllocatorSpec, capability_note, get_spec

__all__ = ["allocate", "AGGREGATE_THRESHOLD", "resolve_mode"]

#: Above this many balls, ``mode="auto"`` prefers the O(n)-per-round
#: aggregate path (exact in distribution) over per-ball simulation.
#: The value matches the CLI ``compare`` heuristic: below it, per-ball
#: runs take well under a second and keep full message accounting.
AGGREGATE_THRESHOLD = 4_000_000


def resolve_mode(
    spec: AllocatorSpec, m: int, mode: Optional[str]
) -> Optional[str]:
    """Map a requested mode (possibly ``"auto"``) to a concrete one.

    Returns ``None`` for allocators without execution modes.  ``None``
    requests the algorithm's own default mode with no instance-size
    upgrade — exactly what a direct ``run_*`` call does.  Explicit
    requests are validated against the spec so an unsupported mode
    fails with the supported list instead of deep inside the runner.
    """
    if not spec.modes:
        if mode not in ("auto", None):
            raise ValueError(
                f"algorithm {spec.name!r} does not take an execution "
                f"mode (got mode={mode!r})"
            )
        return None
    if mode is None:
        return spec.default_mode or spec.modes[0]
    if mode == "auto":
        # The aggregate path is exact in distribution (it runs the same
        # RoundState round kernels), so any spec listing it upgrades.
        if "aggregate" in spec.modes and m >= AGGREGATE_THRESHOLD:
            return "aggregate"
        return spec.default_mode or spec.modes[0]
    if mode not in spec.modes:
        raise ValueError(
            f"algorithm {spec.name!r} does not support mode {mode!r}; "
            f"supported: {', '.join(spec.modes)}"
        )
    return mode


def _split_options(
    spec: AllocatorSpec, options: dict[str, Any]
) -> dict[str, Any]:
    """Validate options against the spec and assemble the config.

    Runner keywords pass through; fields of ``spec.config_type`` may be
    given flat and are collected into a config instance.  Anything else
    is rejected with the full list of valid options.
    """
    runner_kwargs: dict[str, Any] = {}
    config_kwargs: dict[str, Any] = {}
    unknown = []
    for key, value in options.items():
        if key == "config" and spec.config_type is not None:
            runner_kwargs["config"] = value
        elif key in spec.options:
            runner_kwargs[key] = value
        elif key in spec.config_fields:
            config_kwargs[key] = value
        else:
            unknown.append(key)
    if unknown:
        valid = spec.valid_options
        raise ValueError(
            f"unknown option(s) {', '.join(repr(u) for u in sorted(unknown))} "
            f"for algorithm {spec.name!r}; valid options: "
            + (", ".join(valid) if valid else "(none)")
        )
    if config_kwargs:
        if "config" in runner_kwargs:
            raise ValueError(
                f"pass either config= or flat config fields "
                f"({', '.join(sorted(config_kwargs))}), not both"
            )
        runner_kwargs["config"] = spec.config_type(**config_kwargs)
    return runner_kwargs


def _resolve_workload(spec: AllocatorSpec, workload, resolved_mode):
    """Parse/validate the ``workload=`` argument against the spec.

    Returns the bound-ready :class:`~repro.workloads.Workload` or
    ``None`` for the uniform scenario.  Uniform workloads (including
    the explicit string ``"uniform"``) are never forwarded to the
    runner, which is what keeps the default path bitwise-identical to
    a direct ``run_*`` call.
    """
    from repro.workloads import as_workload

    wl = as_workload(workload)
    if wl is None:
        return None
    if not spec.workload_capable:
        raise ValueError(
            f"algorithm {spec.name!r} supports the uniform workload only "
            f"(got workload {wl.describe()!r}); "
            + capability_note("workload_capable")
        )
    if resolved_mode == "engine":
        raise ValueError(
            f"mode 'engine' supports the uniform workload only (got "
            f"workload {wl.describe()!r}); use mode='perball' or "
            f"'aggregate'"
        )
    return wl


def allocate(
    algorithm: str,
    m: int,
    n: int,
    *,
    seed=None,
    mode: Optional[str] = "auto",
    workload=None,
    **options: Any,
):
    """Allocate ``m`` balls into ``n`` bins with any registered algorithm.

    Parameters
    ----------
    algorithm:
        Registry name or alias (see ``python -m repro list`` or
        :func:`repro.api.allocator_names`).  Case-insensitive;
        hyphens and underscores are interchangeable.
    m, n:
        Instance size.
    seed:
        Reproducibility seed (int, SeedSequence, Generator, or None),
        forwarded verbatim to the runner — so results are bitwise
        identical to calling the ``run_*`` function directly.
    mode:
        Execution mode.  ``"auto"`` (default) picks the fastest
        eligible mode: the aggregate fast path for huge instances
        (``m >= AGGREGATE_THRESHOLD``) when the algorithm supports it,
        otherwise the algorithm's default.  ``None`` requests the
        algorithm's own default with no instance-size upgrade — the
        exact behavior of calling the ``run_*`` function directly.
        Explicit values are validated against the spec's supported
        modes.
    workload:
        Optional :class:`repro.workloads.Workload` or spec string
        (``"zipf:1.1"``, ``"hotset:0.1:0.5+geomw:0.5+propcap"``, ...)
        describing a non-uniform scenario: skewed choice distribution,
        weighted balls, heterogeneous bin capacities.  Only
        ``workload_capable`` allocators accept a non-uniform workload
        (others raise with the capable list), and engine modes accept
        only the uniform one.  The uniform workload — ``None`` or
        ``"uniform"`` — is never forwarded, keeping the default path
        bitwise-identical to the direct ``run_*`` call.
    options:
        Algorithm-specific keywords, validated against the registered
        signature (e.g. ``d=3`` for ``greedy``, ``crash_prob=0.05``
        for ``faulty``).  Fields of the algorithm's config dataclass
        may be passed flat (e.g. ``stop_factor=1.5`` for ``heavy``)
        and are assembled into the config automatically.

    Returns
    -------
    AllocationResult
        The runner's result; ``extra["api"]`` records the resolved
        spec name, mode, and kernel backend (the
        :func:`~repro.fastpath.backend.use_backend` pin, else
        ``REPRO_KERNEL_BACKEND``, else ``"fused"``; bitwise-identical
        by contract).
    """
    from repro.fastpath.backend import resolve_backend
    from repro.telemetry import current_telemetry

    spec = get_spec(algorithm)
    resolved_mode = resolve_mode(spec, m, mode)
    wl = _resolve_workload(spec, workload, resolved_mode)
    kwargs = _split_options(spec, options)
    if resolved_mode is not None:
        kwargs["mode"] = resolved_mode
    if wl is not None:
        kwargs["workload"] = wl
    backend = resolve_backend().name
    tele = current_telemetry()
    alloc_start = tele.begin() if tele is not None else 0.0
    result = spec.runner(m, n, seed=seed, **kwargs)
    if tele is not None:
        seconds = tele.complete(
            "allocate",
            alloc_start,
            cat="api",
            algorithm=spec.name,
            m=m,
            n=n,
        )
        tele.observe("api.allocate.seconds", seconds, algorithm=spec.name)
    result.extra["api"] = {
        "algorithm": spec.name,
        "mode": resolved_mode,
        "workload": wl.describe() if wl is not None else None,
        "backend": backend,
    }
    return result
