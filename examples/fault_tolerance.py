#!/usr/bin/env python
"""Scenario: dispatch under failures — how robust is the schedule?

The paper's model is reliable; real clusters are not.  This example
exercises the repository's fault-injection extension
(:func:`repro.run_heavy_faulty`, see experiment A4 in
:mod:`repro.experiments.registry`): balls (jobs) crash mid-protocol
and messages are lost, including the nasty case of a *lost accept* —
the server reserves a slot for a job that never hears about it
("ghost" capacity).

The sweep below shows the degradation curve: the oblivious threshold
schedule keeps absorbing retries (thresholds depend only on the round
index, so stragglers simply retry into the next round's fresh
capacity), and the max backlog degrades smoothly with the loss rate
instead of collapsing.

Run:
    python examples/fault_tolerance.py [--jobs 500000] [--servers 512]
"""

from __future__ import annotations

import argparse

import repro


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=500_000)
    parser.add_argument("--servers", type=int, default=512)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    m, n = args.jobs, args.servers

    print(
        f"dispatching {m:,} jobs onto {n} servers under faults "
        f"(mean backlog {m / n:.0f})\n"
    )
    header = (
        f"{'crash':>6s} {'msg loss':>9s} {'rounds':>7s} {'crashed':>9s} "
        f"{'ghost slots':>12s} {'max backlog':>12s} {'gap/survivors':>14s}"
    )
    print(header)
    print("-" * len(header))
    for crash, loss in (
        (0.00, 0.00),
        (0.00, 0.02),
        (0.00, 0.10),
        (0.00, 0.25),
        (0.01, 0.05),
        (0.05, 0.10),
    ):
        res = repro.allocate(
            "faulty", m, n, seed=args.seed, crash_prob=crash, loss_prob=loss
        )
        survivors = m - res.extra["crashed"]
        gap = res.max_load - survivors / n
        print(
            f"{crash:6.2f} {loss:9.2f} {res.rounds:7d} "
            f"{res.extra['crashed']:9,d} {res.extra['ghost_slots']:12,d} "
            f"{res.max_load:12,d} {gap:+14.1f}"
        )
    print()
    naive_gap = repro.allocate("single", m, n, seed=args.seed).gap
    print(
        "even at 25% message loss the dispatch gap stays a fraction of "
        f"the fault-free naive baseline's ({naive_gap:+.0f}): the "
        "schedule's conservatively-low thresholds are exactly what makes "
        "retries cheap."
    )


if __name__ == "__main__":
    main()
