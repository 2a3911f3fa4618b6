"""Experiments T1-T3, F1-F2: the symmetric algorithm's guarantees.

The experiment index is ``repro.experiments.registry``.  Each function
takes a ``scale`` ("quick" for CI and the tests, "full" for the
EXPERIMENTS.md run :mod:`repro.experiments.export` generates on demand)
and a base seed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.theory import (
    expected_max_load_single_choice,
    mtilde_schedule,
    predicted_rounds,
)
from repro.baselines import (
    run_batched_dchoice,
    run_greedy_d,
    run_single_choice,
    run_stemann,
)
from repro.analysis.fitting import (
    PREDICTED_ROUNDS_SLOPE,
    fit_loglog_rounds,
)
from repro.core import FixedSchedule, run_heavy, run_threshold_protocol
from repro.experiments.plotting import ascii_chart
from repro.experiments.report import ExperimentReport
from repro.experiments.runner import seed_list
from repro.utils.seeding import RngFactory

__all__ = ["exp_t1", "exp_t2", "exp_t3", "exp_f1", "exp_f2"]


def exp_t1(scale: str = "quick", seed: int = 20190416) -> ExperimentReport:
    """T1 — max-load gap comparison across algorithms (Theorem 1 vs
    Section 1 naive bound vs [BCSV06] vs prior parallel work)."""
    report = ExperimentReport(
        exp_id="T1",
        title="Max-load gap (max load - m/n) by algorithm",
        claim="Thm 1: A_heavy achieves m/n + O(1); naive pays "
        "Theta(sqrt((m/n) log n)); sequential greedy[2] pays "
        "O(log log n) [BCSV06]; Stemann pays Theta(m/n)",
        columns=[
            "n",
            "m/n",
            "heavy",
            "asym",
            "naive",
            "naive(pred)",
            "greedy2",
            "batched2",
            "stemann",
        ],
    )
    from repro.core import run_asymmetric

    if scale == "quick":
        grid = [(256, 64), (256, 1024), (1024, 256)]
        reps = 3
    else:
        grid = [
            (256, 16),
            (256, 256),
            (256, 4096),
            (1024, 64),
            (1024, 1024),
            (1024, 16384),
        ]
        reps = 5

    worst_heavy_gap = 0.0
    for n, ratio in grid:
        m = n * ratio
        seeds = seed_list(seed, reps)
        heavy = float(np.mean([run_heavy(m, n, seed=s).gap for s in seeds]))
        asym = float(np.mean([run_asymmetric(m, n, seed=s).gap for s in seeds]))
        naive = float(
            np.mean([run_single_choice(m, n, seed=s).gap for s in seeds])
        )
        greedy_m = min(m, 2_000_000)  # sequential loop cost cap
        greedy = float(
            np.mean([run_greedy_d(greedy_m, n, 2, seed=s).gap for s in seeds])
        )
        batched = float(
            np.mean([run_batched_dchoice(m, n, 2, seed=s).gap for s in seeds])
        )
        stemann = float(
            np.mean([run_stemann(m, n, seed=s).gap for s in seeds])
        )
        worst_heavy_gap = max(worst_heavy_gap, heavy)
        report.add_row(
            n,
            ratio,
            heavy,
            asym,
            naive,
            expected_max_load_single_choice(m, n) - m / n,
            greedy,
            batched,
            stemann,
        )
    report.passed = worst_heavy_gap <= 8.0  # O(1) with explicit constant
    report.notes.append(
        "greedy[2] is sequential; its m is capped at 2e6 for runtime "
        "(the gap is m-independent per [BCSV06], so the comparison stands)."
    )
    return report


def exp_t2(scale: str = "quick", seed: int = 20190416) -> ExperimentReport:
    """T2 — round complexity of A_heavy vs log log(m/n) + log* n."""
    report = ExperimentReport(
        exp_id="T2",
        title="Rounds of A_heavy vs the Theorem 1 bound",
        claim="Thm 1: O(log log(m/n) + log* n) rounds",
        columns=["m/n", "rounds", "phase1", "phase2", "predicted", "loglog(m/n)"],
    )
    n = 1024
    ratios = [4, 16, 256, 4096, 65536] if scale == "quick" else [
        4, 16, 64, 256, 1024, 4096, 16384, 65536, 2**18, 2**20,
    ]
    ok = True
    measured_rounds = []
    predictions = []
    for ratio in ratios:
        m = n * ratio
        mode = "aggregate" if m > 4_000_000 else "perball"
        res = run_heavy(m, n, seed=seed, mode=mode)  # type: ignore[arg-type]
        pred = predicted_rounds(m, n)
        loglog = math.log2(max(math.log2(ratio), 1.0)) if ratio > 2 else 0.0
        report.add_row(
            ratio,
            res.rounds,
            res.extra["phase1_rounds"],
            res.extra["phase2_rounds"],
            pred,
            loglog,
        )
        measured_rounds.append(res.rounds)
        predictions.append(pred)
        # acceptance: within prediction + slack, and grows sublinearly
        ok = ok and res.rounds <= pred + 4
    # Shape fit: rounds vs log2 log2 (m/n) must be near-linear with the
    # recursion's slope 1/log2(3/2) ~ 1.71.
    fit_ratios = [r for r in ratios if r > 4]
    if len(fit_ratios) >= 3:
        fit = fit_loglog_rounds(
            fit_ratios, measured_rounds[len(ratios) - len(fit_ratios):]
        )
        report.notes.append(
            f"shape fit: rounds = {fit.slope:.2f} * loglog(m/n) + "
            f"{fit.intercept:.2f} (R^2 {fit.r_squared:.3f}); predicted "
            f"slope {PREDICTED_ROUNDS_SLOPE:.2f}."
        )
        ok = ok and fit.r_squared > 0.7
        ok = ok and fit.slope < 2 * PREDICTED_ROUNDS_SLOPE + 1
    report.charts.append(
        ascii_chart(
            [math.log2(r) for r in ratios],
            {"measured": measured_rounds,
             "predicted": [float(p) for p in predictions]},
            title="rounds vs log2(m/n)  (doubly-logarithmic growth)",
            x_label="log2(m/n)",
        )
    )
    report.passed = ok
    report.notes.append(
        "predicted = exact phase-1 recursion length + log* n + 2; the "
        "measured value must track it (doubly-logarithmic growth in m/n)."
    )
    return report


def exp_t3(scale: str = "quick", seed: int = 20190416) -> ExperimentReport:
    """T3 — message complexity of A_heavy (Theorem 6)."""
    report = ExperimentReport(
        exp_id="T3",
        title="Message complexity of A_heavy",
        claim="Thm 6: O(m) total; per ball O(1) expected / O(log n) "
        "w.h.p.; per bin (1+o(1)) m/n + O(log n)",
        columns=[
            "n",
            "m/n",
            "total/m",
            "ball mean",
            "ball max",
            "ln(n)",
            "bin recv max",
            "m/n + 8ln(n)",
        ],
    )
    grid = (
        [(256, 64), (1024, 256)]
        if scale == "quick"
        else [(256, 16), (256, 256), (1024, 64), (4096, 64), (4096, 1024)]
    )
    ok = True
    for n, ratio in grid:
        m = n * ratio
        res = run_heavy(m, n, seed=seed)
        s = res.messages.summary()
        bin_bound = m / n + 8 * math.log(n)
        report.add_row(
            n,
            ratio,
            res.total_messages / m,
            s["per_ball_mean"],
            s["per_ball_max"],
            math.log(n),
            s["per_bin_received_max"],
            bin_bound,
        )
        ok = ok and res.total_messages <= 4 * m
        ok = ok and s["per_ball_mean"] <= 8
        ok = ok and s["per_ball_max"] <= 12 * math.log(n)
    report.passed = ok
    return report


def exp_f1(scale: str = "quick", seed: int = 20190416) -> ExperimentReport:
    """F1 — per-round decay of unallocated balls vs the m̃ recursion."""
    report = ExperimentReport(
        exp_id="F1",
        title="Unallocated balls per round vs m̃_i = m^(2/3^i) n^(1-2/3^i)",
        claim="Section 3 / Claim 2: m_i = m̃_i w.h.p. until n*polylog(n)",
        columns=["round i", "measured m_i", "schedule m̃_i", "ratio"],
    )
    n = 1024 if scale == "quick" else 4096
    ratio = 2**12 if scale == "quick" else 2**16
    m = n * ratio
    res = run_heavy(m, n, seed=seed, mode="aggregate")
    schedule = mtilde_schedule(m, n)
    measured = res.unallocated_history
    ok = True
    chart_measured, chart_schedule = [], []
    for i, mt in enumerate(schedule):
        if i >= len(measured):
            break
        mi = measured[i]
        rel = mi / mt if mt else float("nan")
        report.add_row(i, mi, mt, rel)
        chart_measured.append(float(mi))
        chart_schedule.append(float(mt))
        if mt > 16 * n:  # within the strong-concentration regime
            ok = ok and abs(rel - 1.0) < 0.05
    if len(chart_measured) >= 2:
        report.charts.append(
            ascii_chart(
                list(range(len(chart_measured))),
                {"measured m_i": chart_measured,
                 "schedule m̃_i": chart_schedule},
                title="unallocated balls per round (doubly-exponential decay)",
                x_label="round",
                log_y=True,
            )
        )
    report.passed = ok
    report.notes.append(
        "ratio must be ~1.0 while m̃_i >> n (Claim 2's exact-match regime) "
        "and may drift once m̃_i approaches n (Claims 3-4)."
    )
    return report


def exp_f2(scale: str = "quick", seed: int = 20190416) -> ExperimentReport:
    """F2 — the fixed-threshold negative example needs Omega(log n)."""
    report = ExperimentReport(
        exp_id="F2",
        title="Rounds to completion, fixed threshold T = m/n + 1",
        claim="Section 1.1: constant fraction of bins fill after round 1 "
        "=> Omega(log n) rounds",
        columns=["n", "rounds(fixed)", "log2 n", "rounds(paper schedule)"],
    )
    ns = [64, 256, 1024] if scale == "quick" else [64, 256, 1024, 4096, 16384]
    ratio = 64
    ok = True
    rounds_fixed = []
    rounds_paper = []
    for n in ns:
        m = n * ratio
        fixed = FixedSchedule(m, n, slack=1)
        outcome = run_threshold_protocol(
            m, n, fixed, rng_factory=RngFactory(seed), mode="perball",
            max_rounds=100_000, track_per_ball=False,
        )
        heavy = run_heavy(m, n, seed=seed)
        report.add_row(n, outcome.rounds, math.log2(n), heavy.rounds)
        rounds_fixed.append(float(outcome.rounds))
        rounds_paper.append(float(heavy.rounds))
        ok = ok and outcome.remaining == 0
        ok = ok and outcome.rounds >= 0.5 * math.log2(n)
    # Growth check: fixed-threshold rounds grow with n while the paper
    # schedule's do not.
    ok = ok and rounds_fixed[-1] > rounds_fixed[0]
    report.charts.append(
        ascii_chart(
            [math.log2(n) for n in ns],
            {"fixed T": rounds_fixed, "paper schedule": rounds_paper},
            title="rounds to completion vs log2(n): Omega(log n) vs flat",
            x_label="log2(n)",
        )
    )
    report.passed = ok
    return report
