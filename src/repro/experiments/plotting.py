"""ASCII figure rendering for the F-series experiments.

The paper's "figures" are reproduced as terminal plots so the harness
has zero plotting dependencies and the EXPERIMENTS.md document that
:mod:`repro.experiments.export` generates stays plain text.  Two chart types cover all the series we report:

* :func:`ascii_chart` — one or more named series over a shared x axis,
  rendered on a log or linear y scale;
* :func:`ascii_histogram` — a load-distribution bar chart.

These are deliberately small: axes, markers, a legend — enough to see a
doubly-exponential decay or a square-root growth at a glance.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

__all__ = ["ascii_chart", "ascii_histogram"]

_MARKERS = "*o+x#@%&"


def _format_tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 10_000 or abs(value) < 0.01:
        return f"{value:.1e}"
    if abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.2f}"


def ascii_chart(
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    *,
    title: str = "",
    width: int = 64,
    height: int = 18,
    log_y: bool = False,
    x_label: str = "x",
) -> str:
    """Render named series over a shared x axis as an ASCII chart.

    Parameters
    ----------
    x:
        Shared x coordinates (rendered on a linear index axis — the
        callers pass round indices or exponents, which are already the
        natural scale).
    series:
        Mapping of series name to y values (same length as ``x``).
        Missing values may be passed as ``float("nan")``.
    title, x_label:
        Labels.
    width, height:
        Plot area size in characters.
    log_y:
        Log-10 y axis (requires positive values; NaNs are skipped).
    """
    if not series:
        raise ValueError("need at least one series")
    n_points = len(x)
    for name, ys in series.items():
        if len(ys) != n_points:
            raise ValueError(
                f"series {name!r} has {len(ys)} points, expected {n_points}"
            )
    if n_points < 2:
        raise ValueError("need at least 2 x points")

    # Collect finite plotted values for the y range.
    values = []
    for ys in series.values():
        for v in ys:
            if v is None or (isinstance(v, float) and math.isnan(v)):
                continue
            if log_y and v <= 0:
                continue
            values.append(math.log10(v) if log_y else float(v))
    if not values:
        raise ValueError("no finite values to plot")
    y_min, y_max = min(values), max(values)
    if y_max == y_min:
        y_max = y_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for s_index, (name, ys) in enumerate(series.items()):
        marker = _MARKERS[s_index % len(_MARKERS)]
        for i, v in enumerate(ys):
            if v is None or (isinstance(v, float) and math.isnan(v)):
                continue
            if log_y and v <= 0:
                continue
            yv = math.log10(v) if log_y else float(v)
            col = round(i * (width - 1) / (n_points - 1))
            row = round((y_max - yv) * (height - 1) / (y_max - y_min))
            grid[row][col] = marker

    lines = []
    if title:
        lines.append(title)
    top_label = _format_tick(10**y_max if log_y else y_max)
    bottom_label = _format_tick(10**y_min if log_y else y_min)
    label_width = max(len(top_label), len(bottom_label))
    for r, row in enumerate(grid):
        if r == 0:
            prefix = top_label.rjust(label_width)
        elif r == height - 1:
            prefix = bottom_label.rjust(label_width)
        else:
            prefix = " " * label_width
        lines.append(f"{prefix} |{''.join(row)}")
    axis = "-" * width
    lines.append(f"{' ' * label_width} +{axis}")
    x_left = _format_tick(float(x[0]))
    x_right = _format_tick(float(x[-1]))
    padding = width - len(x_left) - len(x_right)
    lines.append(
        f"{' ' * label_width}  {x_left}{' ' * max(padding, 1)}{x_right}"
        f"  ({x_label})"
    )
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}"
        for i, name in enumerate(series)
    )
    lines.append(f"{' ' * label_width}  legend: {legend}"
                 + ("   [log y]" if log_y else ""))
    return "\n".join(lines)


def ascii_histogram(
    counts: Mapping[object, int],
    *,
    title: str = "",
    width: int = 50,
) -> str:
    """Render labelled counts as horizontal bars."""
    if not counts:
        raise ValueError("need at least one bucket")
    peak = max(counts.values())
    if peak < 0:
        raise ValueError("counts must be non-negative")
    label_width = max(len(str(k)) for k in counts)
    lines = [title] if title else []
    for key, value in counts.items():
        if value < 0:
            raise ValueError("counts must be non-negative")
        bar = "#" * (round(value * width / peak) if peak else 0)
        lines.append(f"{str(key).rjust(label_width)} | {bar} {value}")
    return "\n".join(lines)
