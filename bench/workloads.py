"""The benchmark's five workloads; each runs in its own worker process.

``run.py`` starts this file once per workload (plus set-up-only runs)::

    python3 bench/workloads.py --workload NAME --seed S --seconds T \\
        --trace 0|1 [--started-at MONOTONIC] [--setup-only] [--trace-out PATH]

and it prints one JSON line: every metric as ``[value, unit, samples]``,
the attempted/failed counts, and whether every output check passed.
Every workload uses the paper's ``heavy`` allocator, single-threaded.

Seeds: the worker derives every input from ``SeedSequence(S).spawn``
children, taken in a fixed order (warm-up first), so the program only
ever receives derived seeds and the same ``S`` gives the same inputs.

End-to-end timings cover only calls into the public entry points
(``repro.allocate``, ``repro.replicate``, ``repro.run_dynamic`` and the
``AllocatorService`` methods), scaled to the reference speed ``REF_S``.
Closed loops run calls back to back for ``--seconds``; the quality
metrics (gap, rounds, messages) come from a fixed prefix of
``QUALITY_CALLS`` calls, so they do not depend on how many calls fit in
the time.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import statistics
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

import layers
import repro
from repro.service.admission import SHED

#: Calls whose results give a closed loop's gap/rounds/messages metrics.
QUALITY_CALLS = 64
#: Calls in each of the two passes (untraced, traced) of a traced run.
TRACE_CALLS = 16
#: Share of ``--seconds`` the service's open-loop leg runs for.  Its
#: latency grows with the number of flushes the service has made, so
#: the leg length is part of the workload definition.
HI_SHARE = 0.6
#: Fresh services the service workload's ``sat`` and ``hi`` legs use.
#: Eight ``sat`` legs measure about 3.6 s of saturated ingest; with four
#: (1.8 s) ``balls_per_s`` varied 4-7% between runs, with eight 2.8%.
SAT_LEGS, HI_LEGS = 8, 3
#: Median time of ``reference_kernel`` on the benchmark host (2 vCPUs at
#: 2.1 GHz) when idle.  On that shared host a call's time can rise by 60%
#: within a minute as its neighbours load it, and the kernel drifts with
#: the workloads, so end-to-end times are reported at this reference
#: speed: each is scaled by ``REF_S`` over the kernel's time around it.
REF_S = 0.048
#: Seconds between reference-kernel samples in a closed loop.
REF_EVERY_S = 0.5
#: Reference samples, nearest in time, whose median scales one timing.
REF_NEAR = 5


def pct(values, q: float) -> float:
    """Nearest-rank percentile (an infinite sample stays infinite)."""
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


def fresh(seed: np.random.SeedSequence) -> np.random.SeedSequence:
    """An unused copy of a spawned seed, so a seed can be replayed."""
    return np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
    )


def seed_stream(seed: int) -> Callable[[], np.random.SeedSequence]:
    root = np.random.SeedSequence(seed)
    return lambda: root.spawn(1)[0]


def peak_rss_mb() -> float:
    """This process's own resident-memory high-water mark."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reference_kernel() -> float:
    """Wall seconds of one fixed job that mixes what the workloads do:
    sorting, counting and sampling 10^6 numbers, many numpy calls on
    small arrays, and interpreter-bound work on small Python objects.
    It uses numpy only, never the package under test."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 1 << 20, size=10**6)
    np.argsort(keys)
    np.bincount(keys & 1023, minlength=1024)
    rng.random(10**6)
    small, ones = np.arange(256), np.ones(256, dtype=np.int64)
    for _ in range(3_000):
        np.maximum(small - ones, 0).sum()
    queue, latest = deque(), {}
    for i in range(30_000):
        queue.append((i, i & 7))
        latest[i & 255] = queue[-1]
        if len(queue) > 64:
            queue.popleft()
    return time.perf_counter() - start


class SpeedProbe:
    """Reference-kernel samples taken through one run."""

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter when each sample began
        self.seconds: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.at.append(time.perf_counter())
            self.seconds.append(reference_kernel())

    def sample_every(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= REF_EVERY_S:
            self.sample()

    def scale_at(self, t: float) -> float:
        """Converts seconds measured around ``t`` to reference seconds."""
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - REF_NEAR // 2, len(self.at) - REF_NEAR))
        return REF_S / statistics.median(self.seconds[lo:lo + REF_NEAR])


def _loads_ok(loads: np.ndarray, m: int) -> np.ndarray:
    """Per row of a ``(T, n)`` load matrix: no negative load, m balls."""
    return (loads.min(axis=1) >= 0) & (loads.sum(axis=1) == m)


@dataclass(frozen=True)
class Summary:
    """The checked outcome of one entry-point call or service leg."""

    attempted: int  # checked units: runs, trials, epochs or ops
    failed: int
    balls: int  # balls placed
    messages: int
    gaps: tuple  # max load minus mean load, per call, epoch or flush
    rounds: tuple
    lost_acks: int = 0


def _quality(summaries) -> dict:
    gaps = [g for s in summaries for g in s.gaps]
    rounds = [r for s in summaries for r in s.rounds]
    return {
        "gap_mean": [float(np.mean(gaps)), "balls", len(gaps)],
        "rounds_mean": [float(np.mean(rounds)), "rounds", len(rounds)],
        "messages_per_ball": [
            sum(s.messages for s in summaries)
            / sum(s.balls for s in summaries),
            "msgs/ball",
            len(summaries),
        ],
    }


# -- closed loops -------------------------------------------------------


@dataclass(frozen=True)
class ClosedLoop:
    """One caller issuing entry-point calls back to back."""

    call: Callable[[np.random.SeedSequence], object]
    summarize: Callable[[object], Summary]

    def setup(self, seeds, traced: bool = False):
        self.call(fresh(seeds()))

    def _run(self, call_seeds, speed=None):
        """One call per seed: (start times, durations, summaries, wall)."""
        starts, times, summaries = [], [], []
        begin = time.perf_counter()
        for seed in call_seeds:
            if speed is not None:
                speed.sample_every()
            seed = fresh(seed)
            start = time.perf_counter()
            result = self.call(seed)
            times.append(time.perf_counter() - start)
            starts.append(start)
            summaries.append(self.summarize(result))
        return starts, times, summaries, time.perf_counter() - begin

    def measure(self, seeds, seconds: float, _state, speed) -> dict:
        starts, times, summaries = [], [], []
        begin = time.perf_counter()
        while (
            len(times) < QUALITY_CALLS
            or time.perf_counter() - begin < seconds
        ):
            s, t, m, _ = self._run([seeds()], speed)
            starts += s
            times += t
            summaries += m
        speed.sample()
        scaled = [t * speed.scale_at(s) for s, t in zip(starts, times)]
        n = len(scaled)
        metrics = {
            "latency_s_p50": [pct(scaled, 0.5), "s", n],
            "latency_s_p75": [pct(scaled, 0.75), "s", n],
            "balls_per_s": [
                statistics.median(
                    s.balls / t for s, t in zip(summaries, scaled)
                ),
                "1/s",
                n,
            ],
            **_quality(summaries[:QUALITY_CALLS]),
        }
        return _result(metrics, summaries, checks_ok=True)

    def traced(self, seeds, seconds: float, _state=None, trace_out=None):
        call_seeds = [seeds() for _ in range(TRACE_CALLS)]
        _, plain_times, plain, _ = self._run(call_seeds)
        tracer = layers.Tracer()
        with layers.installed(tracer):
            starts, times, summaries, wall = self._run(call_seeds)
        if trace_out:
            tracer.write(trace_out)
        # How late each call started after the previous one returned.
        lags = [b - (a + t) for a, t, b in zip(starts, times, starts[1:])]
        metrics = layers.report(tracer, wall, len(call_seeds))
        metrics.update({
            "dynamic.lost_acks": sum(s.lost_acks for s in summaries)
            / len(summaries),
            "service.batch_balls_mean": 0.0,
            "bench.trace_overhead": statistics.median(times)
            / statistics.median(plain_times),
            "bench.generator.lag_s_p99": pct(lags, 0.99),
        })
        return _result(
            _per_layer(metrics, len(call_seeds)),
            plain + summaries,
            checks_ok=summaries == plain,
        )


def oneshot_perball(m: int = 10**6, n: int = 1024) -> ClosedLoop:
    def call(seed):
        return repro.allocate("heavy", m, n, mode="perball", seed=seed)

    def summarize(res) -> Summary:
        ok = res.complete and bool(_loads_ok(res.loads[None, :], m)[0])
        return Summary(1, int(not ok), m, int(res.total_messages),
                       (float(res.gap),), (int(res.rounds),))

    return ClosedLoop(call, summarize)


def replicate_aggregate(
    m: int = 10**5, n: int = 256, trials: int = 256
) -> ClosedLoop:
    def call(seed):
        return repro.replicate("heavy", m, n, trials=trials, seed=seed)

    def summarize(res) -> Summary:
        ok = res.complete & _loads_ok(res.loads, m)
        return Summary(
            trials,
            int(trials - ok.sum()),
            m * trials,
            int(res.total_messages.sum()),
            tuple(float(g) for g in res.gaps),
            tuple(int(r) for r in res.rounds),
        )

    return ClosedLoop(call, summarize)


def _churn(m: int, n: int, epochs: int, **regime) -> ClosedLoop:
    def call(seed):
        return repro.run_dynamic(
            "heavy", m, n, seed=seed, epochs=epochs, churn=0.1,
            mode="perball", **regime,
        )

    def summarize(res) -> Summary:
        bad = sum(r.unplaced != 0 or r.population != m for r in res.records)
        return Summary(
            len(res.records),
            bad,
            sum(r.placed for r in res.records),
            res.total_messages,
            tuple(float(g) for g in res.gaps),
            tuple(int(r) for r in res.rounds),
            res.lost_acks,
        )

    return ClosedLoop(call, summarize)


def churn_perball(m: int = 10**5, n: int = 256, epochs: int = 32):
    return _churn(m, n, epochs)


def churn_adversarial(m: int = 10**5, n: int = 256, epochs: int = 8):
    return _churn(
        m, n, epochs,
        departures="greedy_adversary",
        fault_model=repro.FaultModel(
            bin_fail_prob=0.05, bin_recover_prob=0.25, loss_prob=0.02
        ),
    )


# -- the live service ---------------------------------------------------


@dataclass(frozen=True)
class ServiceStream:
    """``AllocatorService`` on wall time, in two legs on fresh services.

    ``sat`` submits ``sat_ops`` alternating ``release(1)``/``place(1)``
    back to back and drains, on each of ``SAT_LEGS`` services; ``hi`` is
    an open loop at ``rate`` ops/s, calling ``tick()`` every iteration,
    on each of ``HI_LEGS`` services for ``HI_SHARE * seconds`` in all.
    Each service is filled with ``fill`` balls during set-up.

    Both legs are split over several services.  A service's gap drifts
    slowly (a 250k-op leg turns its population over about once), so
    one long ``sat`` leg makes ``gap_mean`` depend on its seed.  In one
    long ``hi`` leg, flushes slow down as the service ages, which makes
    batches larger and flushes fewer, and the latency this feedback
    settles at varied 11% between runs (three short legs: 6%).
    """

    n: int = 10_000
    fill: int = 100_000
    sat_ops: int = 62_500
    rate: float = 20_000.0
    warm_ops: int = 8192

    def _service(self, seed):
        svc = repro.AllocatorService(
            "heavy",
            self.n,
            seed=fresh(seed),
            max_batch=4096,
            max_wait=0.05,
            policy=repro.AdmissionPolicy(gap_slo=12.0),
            mode="perball",
        )
        svc.place(self.fill)
        svc.drain()
        return svc

    def setup(self, seeds, traced: bool = False) -> dict:
        self._saturate(self._service(seeds()), self.warm_ops)
        sat_seeds = [seeds() for _ in range(SAT_LEGS)]
        legs = {
            "sat": [self._service(seed) for seed in sat_seeds],
            "hi": [self._service(seeds()) for _ in range(HI_LEGS)],
        }
        if traced:
            legs["sat_traced"] = self._service(sat_seeds[0])
        return legs

    @staticmethod
    def _leg_summary(svc, first, pop0, ops, places, releases, shed):
        """Check one leg: queue empty, population conserved."""
        records = svc.records[first:]
        ok = (
            svc.queue.pending == 0
            and svc.population == pop0 + places - releases
            and sum(r.placed for r in records) == places
        )
        return Summary(
            ops,
            shed + (0 if ok else ops - shed),
            places,
            sum(r.messages for r in records),
            tuple(float(r.gap) for r in records),
            tuple(int(r.rounds) for r in records),
            sum(r.lost_acks for r in records),
        )

    def _saturate(self, svc, ops: int):
        first, pop0 = len(svc.records), svc.population
        shed = 0
        start = time.perf_counter()
        for _ in range(ops // 2):
            shed += svc.release(1) == SHED
            shed += svc.place(1) == SHED
        svc.drain()
        wall = time.perf_counter() - start
        half = ops // 2
        return wall, self._leg_summary(
            svc, first, pop0, 2 * half, half - shed, half, shed
        )

    def _open_loop(self, svc, seconds: float):
        """Returns (summary, per-op latencies, generator lags, wall, idle).

        An op is due at ``start + k / rate``; its latency runs from its
        due time until the flush that took it returns (every flush
        empties the queue at these settings).  A shed op has infinite
        latency."""
        total = int(self.rate * seconds)
        period = 1.0 / self.rate
        first, pop0 = len(svc.records), svc.population
        waiting: deque = deque()  # due times of queued ops, FIFO
        latencies, lags, shed_ops = [], [], []
        idle = 0.0
        seen = first
        # Locals keep the generator's own per-op cost small: it is time
        # a traced run cannot credit to any layer.
        clock, records = time.perf_counter, svc.records
        submit = (svc.release, svc.place)  # even ops release, odd place

        def complete(seen):
            done = clock()
            for record in records[seen:]:
                for _ in range(record.events):
                    latencies.append(done - waiting.popleft())
            return len(records)

        begin = clock()
        k = 0
        while k < total:
            due = begin + k * period
            now = clock()
            if due > now:
                if due - now > 0.002:
                    time.sleep(due - now - 0.001)
                while clock() < due:
                    pass
                idle += clock() - now
                now = clock()
            while due <= now:
                lags.append(clock() - due)
                if submit[k & 1](1) == SHED:
                    shed_ops.append(k)
                    latencies.append(math.inf)
                else:
                    waiting.append(due)
                k += 1
                if len(records) != seen:
                    seen = complete(seen)
                if k == total:
                    break
                due = begin + k * period
            svc.tick()
            if len(records) != seen:
                seen = complete(seen)
        svc.drain()
        complete(seen)
        wall = clock() - begin
        shed = len(shed_ops)
        shed_places = sum(k & 1 for k in shed_ops)
        places = (total // 2) - shed_places
        releases = total - total // 2 - (shed - shed_places)
        summary = self._leg_summary(
            svc, first, pop0, total, places, releases, shed
        )
        return summary, latencies, lags, wall, idle

    def measure(self, seeds, seconds: float, legs: dict, speed) -> dict:
        sat_runs, sats = [], []
        for svc in legs["sat"]:
            start = time.perf_counter()
            wall, summary = self._saturate(svc, self.sat_ops)
            sat_runs.append((start + wall / 2, wall))
            sats.append(summary)
            speed.sample(2)
        # Op latencies stay in wall seconds: much of an op's wait is the
        # 50 ms age watermark, which does not change with host speed, and
        # the reference kernel does not track the flushes (over 20 legs
        # their correlation was -0.11), and scaling raised the p50's
        # spread between legs from 6% to 22%.
        his, latencies = [], []
        for svc in legs["hi"]:
            summary, leg, _, _, _ = self._open_loop(
                svc, HI_SHARE * seconds / HI_LEGS
            )
            his.append(summary)
            latencies += leg
        sat_wall = sum(w * speed.scale_at(t) for t, w in sat_runs)
        n = len(latencies)
        metrics = {
            "latency_s_p50": [pct(latencies, 0.5), "s", n],
            "latency_s_p75": [pct(latencies, 0.75), "s", n],
            "balls_per_s": [sum(s.balls for s in sats) / sat_wall, "1/s",
                            len(sats)],
            **_quality(sats),
        }
        return _result(metrics, sats + his, checks_ok=True)

    def traced(self, seeds, seconds: float, legs: dict, trace_out=None):
        plain_wall, plain = self._saturate(legs["sat"][0], self.sat_ops)
        tracer = layers.Tracer()
        his, lags, busy = [], [], 0.0
        with layers.installed(tracer):
            sat_wall, sat = self._saturate(legs["sat_traced"], self.sat_ops)
            for svc in legs["hi"]:
                summary, _, leg_lags, wall, idle = self._open_loop(
                    svc, HI_SHARE * seconds / HI_LEGS
                )
                his.append(summary)
                lags += leg_lags
                busy += wall - idle
        if trace_out:
            tracer.write(trace_out)
        records = [
            r for svc in [legs["sat_traced"], *legs["hi"]]
            for r in svc.records[1:]
        ]
        metrics = layers.report(tracer, sat_wall + busy, len(records))
        metrics.update({
            "dynamic.lost_acks": sum(r.lost_acks for r in records)
            / len(records),
            "service.batch_balls_mean": float(
                np.mean([r.places + r.released for r in records])
            ),
            "bench.trace_overhead": sat_wall / plain_wall,
            "bench.generator.lag_s_p99": pct(lags, 0.99),
        })
        return _result(
            _per_layer(metrics, len(records)),
            [plain, sat, *his],
            checks_ok=sat == plain,
        )


#: Workload name -> constructor at full size.  Tests pass small sizes.
WORKLOADS = {
    "oneshot_perball": oneshot_perball,
    "replicate_aggregate": replicate_aggregate,
    "churn_perball": churn_perball,
    "churn_adversarial": churn_adversarial,
    "service_stream": ServiceStream,
}

#: Units of the per-layer metrics that are not self-time shares.
_LAYER_UNITS = {
    "backend.grouped_accept.ns_per_contact": "ns",
    "core.rounds": "count",
    "light.stragglers": "count",
    "dynamic.depart.cohorts_mean": "count",
    "dynamic.lost_acks": "count",
    "service.batch_balls_mean": "balls",
    "bench.trace_overhead": "ratio",
    "bench.generator.lag_s_p99": "s",
}


def _per_layer(values: dict, units: int) -> dict:
    return {
        name: [float(v), _LAYER_UNITS.get(name, "fraction"), units]
        for name, v in values.items()
    }


def _result(metrics: dict, summaries, checks_ok: bool) -> dict:
    attempted = sum(s.attempted for s in summaries)
    failed = sum(s.failed for s in summaries)
    return {
        "correct": bool(checks_ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started-at", type=float,
                        help="time.monotonic() when the launcher started "
                             "this process; set-up time is measured from it")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="write the Chrome trace here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    seeds = seed_stream(args.seed)
    state = workload.setup(seeds, traced=bool(args.trace))
    setup_s = (
        time.monotonic() - args.started_at
        if args.started_at is not None else None
    )
    if args.trace:
        result = workload.traced(seeds, args.seconds, state, args.trace_out)
        print(json.dumps(result))
        return 0
    speed = SpeedProbe()
    speed.sample(REF_NEAR)
    if setup_s is not None:
        setup_s *= speed.scale_at(speed.at[0])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result = workload.measure(seeds, args.seconds, state, speed)
    result["metrics"]["peak_rss_mb"] = [peak_rss_mb(), "MB", 1]
    result["setup_s"] = setup_s
    result["ref_s"] = [statistics.median(speed.seconds), len(speed.seconds)]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
