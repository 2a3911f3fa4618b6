"""Parameter validation shared by every public entry point.

All public ``run(m, n, ...)`` functions validate through these helpers so
error messages are uniform and tests can assert on a single failure mode.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "check_mode",
    "check_positive_int",
    "check_probability",
    "check_seed",
    "ensure_m_n",
]


def check_positive_int(value: Any, name: str, *, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer ``>= minimum`` and return it.

    Accepts numpy integer scalars (common when parameters come out of
    ``np.logspace`` sweeps) and converts them to Python ints so that
    downstream arithmetic (e.g. ``m * n``) cannot overflow silently.
    """
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError(f"{name} must be an integer, got bool")
    if isinstance(value, (int, np.integer)):
        ivalue = int(value)
    elif isinstance(value, float) and value.is_integer():
        ivalue = int(value)
    else:
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if ivalue < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {ivalue}")
    return ivalue


def check_mode(mode: Any) -> None:
    """Reject a granularity the round kernels do not run: the one mode
    check of the kernel-backed runners and their dynamic adapters."""
    if mode not in ("perball", "aggregate"):
        raise ValueError(
            f"mode must be 'perball' or 'aggregate', got {mode!r}"
        )


def check_probability(value: Any, name: str) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` and return it as float."""
    try:
        fvalue = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a number in [0, 1]") from exc
    if not 0.0 <= fvalue <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {fvalue}")
    return fvalue


def check_seed(seed: Any) -> Any:
    """Validate a seed argument.

    ``None`` (fresh entropy), ints, and :class:`numpy.random.SeedSequence`
    instances are accepted — the same contract as
    :func:`numpy.random.default_rng`.
    """
    if seed is None or isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        if int(seed) < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        return int(seed)
    if isinstance(seed, np.random.Generator):
        return seed
    raise TypeError(
        "seed must be None, a non-negative int, a SeedSequence, or a Generator; "
        f"got {type(seed).__name__}"
    )


def ensure_m_n(m: Any, n: Any, *, require_heavy: bool = False) -> tuple[int, int]:
    """Validate a balls-into-bins instance ``(m, n)``.

    Parameters
    ----------
    m:
        Number of balls, ``>= 1``.
    n:
        Number of bins, ``>= 1``.
    require_heavy:
        If true, additionally require ``m >= n`` (the paper's heavily
        loaded regime assumes ``m >> n``; algorithms remain correct for
        ``m >= n`` and tests exercise the boundary).
    """
    mi = check_positive_int(m, "m")
    ni = check_positive_int(n, "n")
    if require_heavy and mi < ni:
        raise ValueError(
            f"the heavily loaded regime requires m >= n, got m={mi} < n={ni}"
        )
    return mi, ni
