"""Extension experiments A3 (degree-d contacts) and A4 (fault injection).

Both go beyond the paper's evaluation: A3 makes the conclusion's open
question ("can we provide a faster symmetric algorithm?") executable
within the lower-bound family, and A4 stress-tests the schedule's
robustness outside the reliable model.  ``repro.experiments.registry``
lists them with the paper's experiments.
"""

from __future__ import annotations

from repro.core import run_heavy_faulty, run_heavy_multicontact
from repro.experiments.report import ExperimentReport

__all__ = ["exp_a3", "exp_a4"]


def exp_a3(scale: str = "quick", seed: int = 20190416) -> ExperimentReport:
    """A3 — do d contacts per round beat d = 1? (Theorem 2 says no.)"""
    report = ExperimentReport(
        exp_id="A3",
        title="Degree-d threshold algorithm on the paper schedule",
        claim="Conclusion open problem + Thm 2: extra uniform contacts "
        "cannot beat Omega(log log(m/n)) rounds",
        columns=[
            "d",
            "total rounds",
            "phase1 rounds",
            "phase1 leftover",
            "gap",
            "messages/m",
        ],
    )
    n = 1024
    ratio = 2**10 if scale == "quick" else 2**14
    m = n * ratio
    ok = True
    rounds_by_d = {}
    for d in (1, 2, 4):
        res = run_heavy_multicontact(m, n, d, seed=seed)
        rounds_by_d[d] = res.rounds
        report.add_row(
            d,
            res.rounds,
            res.extra["phase1_rounds"],
            res.extra["phase1_remaining"],
            res.gap,
            res.total_messages / m,
        )
        ok = ok and res.complete and res.gap <= 10.0
    # Theorem 2's message: no round improvement from extra contacts —
    # the phase-1 horizon is schedule-bound either way.
    ok = ok and rounds_by_d[4] >= rounds_by_d[1] - 1
    report.passed = ok
    report.notes.append(
        "extra contacts multiply message cost by d without reducing the "
        "round horizon — the empirical face of the Theorem 2 lower bound "
        "(the schedule, not the contact count, is the bottleneck)."
    )
    return report


def exp_a4(scale: str = "quick", seed: int = 20190416) -> ExperimentReport:
    """A4 — fault injection: crashes and message loss."""
    report = ExperimentReport(
        exp_id="A4",
        title="A_heavy under ball crashes and message loss (extension)",
        claim="robustness extension (not in paper): the oblivious "
        "schedule tolerates faults with graceful degradation",
        columns=[
            "crash",
            "loss",
            "rounds",
            "gap vs survivors",
            "ghost slots/n",
            "placed all survivors",
        ],
    )
    n = 512
    ratio = 2**8 if scale == "quick" else 2**12
    m = n * ratio
    ok = True
    baseline_rounds = None
    for crash, loss in ((0.0, 0.0), (0.02, 0.0), (0.0, 0.05), (0.02, 0.1)):
        res = run_heavy_faulty(
            m, n, seed=seed, crash_prob=crash, loss_prob=loss
        )
        survivors = m - res.extra["crashed"]
        gap_surv = res.max_load - survivors / n
        placed = res.unallocated == res.extra["crashed"]
        report.add_row(
            crash,
            loss,
            res.rounds,
            gap_surv,
            res.extra["ghost_slots"] / n,
            placed,
        )
        if crash == 0.0 and loss == 0.0:
            baseline_rounds = res.rounds
            ok = ok and res.complete
        ok = ok and placed
        # Graceful degradation: lost accepts strand ~loss * m ghost
        # reservations (re-routed through the A_light tail) and crashes
        # lower the survivors' mean while bins still fill toward the
        # oblivious thresholds — both shift the gap proportionally to
        # (fault rate) * (m/n), never a collapse.  (A flat constant
        # cannot hold across scales; the fault mass is proportional to
        # m by construction.)
        ok = ok and gap_surv <= (0.5 * loss + 1.5 * crash) * (m / n) + 30.0
    report.passed = ok
    report.notes.append(
        "gap is measured against the surviving-ball average; ghost slots "
        "are bin capacity reserved for accepts whose reply was lost.  "
        "Fault mass scales with m, so the acceptance bound is "
        "(0.5 loss + 1.5 crash) * (m/n) + O(1) — proportional response, "
        "no collapse."
    )
    return report
