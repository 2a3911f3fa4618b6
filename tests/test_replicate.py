"""Tests for the trial-batched replication engine and its API.

The engine's contract is *exact equivalence*: ``replicate(trials=T,
seed=s)`` must produce, per trial, bitwise the results of the
sequential per-seed loop (``allocate_many`` with the same root seed)
for every ``trial_batched`` spec, on the uniform workload and on a
skewed+weighted one.  Everything else — quantiles, CIs, fallbacks,
dispatch routing — is layered on top of that invariant.
"""

import json

import numpy as np
import pytest

import repro
import repro.core.heavy as heavy_module
from repro.core.heavy import HeavyConfig
from repro.light import LightConfig
from repro.api import (
    allocate_many,
    get_replicator,
    get_spec,
    list_allocators,
    replicate,
    sweep,
)

M, N, SEED, TRIALS = 20_000, 64, 11, 8

#: Every spec that must carry the trial_batched capability.
BATCHED_SPECS = ("heavy", "combined", "single", "stemann")

#: (spec, m, n) inputs of the sequential-loop pin; the last one takes
#: combined's tiny-n branch (n < log log(m/n): the trivial algorithm).
LOOP_CASES = [pytest.param(name, M, N, id=name) for name in BATCHED_SPECS]
LOOP_CASES.append(pytest.param("combined", 10_000, 2, id="combined-trivial"))

#: The skewed + weighted scenario of the equivalence satellite.
WL = "zipf:1.1+geomw:0.5"


def extra_fields(result):
    return {k: v for k, v in result.extra.items() if k != "api"}


def metrics_rows(result):
    return [
        (r.round_no, r.unallocated_start, r.requests_sent, r.accepts_sent,
         r.commits, r.unallocated_end, r.max_load, r.threshold)
        for r in result.metrics.rounds
    ]


class TestRegistry:
    def test_expected_specs_are_trial_batched(self):
        for name in BATCHED_SPECS:
            spec = get_spec(name)
            assert spec.trial_batched, name
            assert "trial_batched" in spec.capabilities(), name
            assert get_replicator(name) is not None, name

    def test_non_batched_specs_unflagged(self):
        for spec in list_allocators():
            if spec.name in BATCHED_SPECS:
                continue
            assert not spec.trial_batched, spec.name
            assert get_replicator(spec.name) is None, spec.name


class TestEquivalence:
    """replicate(trials=T, seed=s) == allocate_many(repeats=T, seed=s)."""

    @pytest.mark.parametrize("name", BATCHED_SPECS)
    @pytest.mark.parametrize("workload", [None, WL])
    def test_matches_allocate_many_default(self, name, workload):
        opts = {"workload": workload} if workload else {}
        rep = replicate(name, M, N, trials=TRIALS, seed=SEED, **opts)
        many = allocate_many(
            name, M, N, repeats=TRIALS, seed=SEED, **opts
        )
        assert rep.batched
        for t in range(TRIALS):
            assert np.array_equal(rep.loads[t], many[t].loads), (name, t)
            assert rep.rounds[t] == many[t].rounds
            assert rep.total_messages[t] == many[t].total_messages
            assert rep.results[t].seed_entropy == many[t].seed_entropy

    @pytest.mark.parametrize("name,m,n", LOOP_CASES)
    @pytest.mark.parametrize("workload", [None, WL])
    def test_matches_sequential_loop_exactly(self, name, m, n, workload):
        """The substantive check: batched vs the true per-seed loop."""
        opts = {"workload": workload} if workload else {}
        rep = replicate(name, m, n, trials=TRIALS, seed=SEED, **opts)
        seq = allocate_many(
            name,
            m,
            n,
            repeats=TRIALS,
            seed=SEED,
            mode="aggregate",
            trial_batched=False,
            **opts,
        )
        assert rep.batched
        for t in range(TRIALS):
            s = seq[t]
            assert np.array_equal(rep.loads[t], s.loads), (name, t)
            assert rep.rounds[t] == s.rounds, (name, t)
            assert rep.total_messages[t] == s.total_messages, (name, t)
            assert rep.results[t].algorithm == s.algorithm
            assert rep.results[t].complete == s.complete
            assert metrics_rows(rep.results[t]) == metrics_rows(s), (name, t)
            b_wl = rep.results[t].extra.get("workload")
            s_wl = s.extra.get("workload")
            assert (b_wl is None) == (s_wl is None)
            if b_wl is not None:
                assert b_wl == s_wl, (name, t)

    @pytest.mark.parametrize(
        "opts,block",
        [
            pytest.param(
                {"config": HeavyConfig(
                    light=LightConfig(round_budget_slack=-10)
                )},
                None,
                id="budget-below-zero-sweeps",
            ),
            pytest.param(
                {"config": HeavyConfig(
                    light=LightConfig(max_contacts=2, round_budget_slack=0)
                )},
                None,
                id="two-contacts-no-slack",
            ),
            pytest.param({"handoff": False}, None, id="no-handoff"),
            # 160 stragglers per trial: blocks of two trials each.
            pytest.param({}, 400, id="many-blocks"),
        ],
    )
    def test_light_handoff_paths_match_sequential_loop(
        self, opts, block, monkeypatch
    ):
        """Phase-2 paths the default inputs never reach, batched vs the
        per-seed loop, field for field."""
        if block is not None:
            monkeypatch.setattr(heavy_module, "_LIGHT_BLOCK_STRAGGLERS", block)
        rep = replicate("heavy", M, N, trials=TRIALS, seed=SEED, **opts)
        seq = allocate_many(
            "heavy", M, N, repeats=TRIALS, seed=SEED, mode="aggregate",
            trial_batched=False, **opts,
        )
        assert rep.batched
        for t in range(TRIALS):
            b, s = rep.results[t], seq[t]
            assert np.array_equal(b.loads, s.loads), t
            assert (b.rounds, b.total_messages, b.complete) == (
                s.rounds, s.total_messages, s.complete
            ), t
            assert metrics_rows(b) == metrics_rows(s), t
            assert extra_fields(b) == extra_fields(s), t

    def test_forced_sequential_replicate_matches_batched(self):
        rep = replicate("heavy", M, N, trials=4, seed=3)
        seq = replicate(
            "heavy", M, N, trials=4, seed=3, trial_batched=False
        )
        assert rep.batched and not seq.batched
        assert np.array_equal(rep.loads, seq.loads)
        assert np.array_equal(rep.rounds, seq.rounds)

    def test_options_forwarded(self):
        rep = replicate(
            "heavy", M, N, trials=4, seed=3, stop_factor=3.0
        )
        seq = allocate_many(
            "heavy",
            M,
            N,
            repeats=4,
            seed=3,
            mode="aggregate",
            trial_batched=False,
            stop_factor=3.0,
        )
        assert rep.batched
        for t in range(4):
            assert np.array_equal(rep.loads[t], seq[t].loads)


class TestDispatchRouting:
    def test_explicit_perball_mode_runs_sequentially(self):
        rep = replicate("heavy", M, N, trials=2, seed=1, mode="perball")
        assert not rep.batched and rep.mode == "perball"
        direct = repro.run_heavy(
            M, N, seed=repro.api.spawn_seeds(1, 2)[0], mode="perball"
        )
        assert np.array_equal(rep.loads[0], direct.loads)

    def test_fallback_spec_runs_sequentially(self):
        rep = replicate("light", 100, N, trials=3, seed=1)
        assert not rep.batched
        assert rep.trials == 3 and rep.all_complete

    def test_trial_batched_true_requires_engine(self):
        with pytest.raises(ValueError, match="trial-batched"):
            replicate("light", 100, N, trials=2, seed=1, trial_batched=True)
        with pytest.raises(ValueError, match="cannot"):
            replicate(
                "heavy", M, N, trials=2, seed=1, mode="perball",
                trial_batched=True,
            )

    def test_allocate_many_trial_batched_true_validates(self):
        with pytest.raises(ValueError, match="no trial-batched engine"):
            allocate_many(
                "light", 100, N, repeats=2, seed=1, trial_batched=True
            )

    def test_allocate_many_mode_none_keeps_runner_default(self):
        # mode=None promises the run_* default (perball for heavy):
        # the aggregate-mode engine must not be substituted.
        results = allocate_many(
            "heavy", M, N, repeats=2, seed=9, mode=None
        )
        assert results[0].extra["api"]["mode"] == "perball"
        assert "trial_batched" not in results[0].extra["api"]

    def test_allocate_many_batched_records_dispatch(self):
        results = allocate_many("heavy", M, N, repeats=2, seed=9)
        assert results[0].extra["api"]["trial_batched"] is True
        assert results[0].extra["api"]["mode"] == "aggregate"
        assert [r.extra["api"]["repeat"] for r in results] == [0, 1]

    def test_workers_do_not_change_batched_values(self):
        serial = allocate_many("single", M, N, repeats=4, seed=9)
        pooled = allocate_many("single", M, N, repeats=4, seed=9, workers=2)
        for a, b in zip(serial, pooled):
            assert np.array_equal(a.loads, b.loads)

    def test_sweep_batches_per_point(self):
        points = [(M, 32), (M // 2, 16)]
        batched = sweep("single", points, repeats=3, seed=3)
        seq = sweep(
            "single", points, repeats=3, seed=3,
            mode="aggregate", trial_batched=False,
        )
        assert [r.extra["api"].get("trial_batched") for r in batched] == [
            True
        ] * 6
        for a, b in zip(batched, seq):
            assert np.array_equal(a.loads, b.loads)
            assert (
                a.extra["api"]["point"], a.extra["api"]["repeat"]
            ) == (b.extra["api"]["point"], b.extra["api"]["repeat"])

    def test_replicate_rejects_bad_trials(self):
        with pytest.raises(ValueError, match="trials"):
            replicate("single", M, N, trials=0, seed=1)

    def test_replicate_validates_options(self):
        with pytest.raises(ValueError, match="unknown option"):
            replicate("single", M, N, trials=2, seed=1, bogus=3)


class TestReplicationResult:
    @pytest.fixture(scope="class")
    def rep(self):
        return replicate("heavy", M, N, trials=16, seed=SEED)

    def test_shapes_and_conservation(self, rep):
        assert rep.loads.shape == (16, N)
        assert rep.all_complete
        assert np.all(rep.loads.sum(axis=1) == M)
        assert np.array_equal(
            rep.max_loads, rep.loads.max(axis=1)
        )
        assert np.allclose(rep.gaps, rep.max_loads - M / N)

    def test_quantiles_and_ci(self, rep):
        q = rep.quantiles("gap", (0.0, 0.5, 1.0))
        assert q[0.0] <= q[0.5] <= q[1.0]
        assert q[0.0] == rep.gaps.min() and q[1.0] == rep.gaps.max()
        ci = rep.ci("gap")
        assert ci.low <= rep.gaps.mean() <= ci.high
        assert rep.ci("rounds").mean == rep.rounds.mean()
        with pytest.raises(ValueError, match="unknown metric"):
            rep.metric("bogus")

    def test_summary_and_describe(self, rep):
        summary = rep.summary()
        assert set(summary) == {"gap", "max_load", "rounds", "messages"}
        text = rep.describe()
        assert "trial-batched" in text and "trials        : 16" in text

    def test_to_dict_json_safe(self, rep):
        payload = rep.to_dict()
        text = json.dumps(payload)
        back = json.loads(text)
        assert back["trials"] == 16
        assert back["batched"] is True
        assert len(back["gaps"]) == 16
        assert len(back["loads"]) == 16
        assert back["summary"]["gap"]["quantiles"]["0.5"] == pytest.approx(
            rep.quantiles("gap", (0.5,))[0.5]
        )

    def test_weighted_workload_exposes_weighted_gaps(self):
        rep = replicate(
            "heavy", M, N, trials=4, seed=2, workload=WL
        )
        assert rep.weighted_gaps is not None
        assert rep.weighted_gaps.shape == (4,)
        assert rep.workload == WL

    def test_seed_convention_shared_with_allocate_many(self):
        # Trial t's entropy must be the t-th spawned child of the root.
        rep = replicate("single", M, N, trials=3, seed=5)
        children = repro.api.spawn_seeds(5, 3)
        for t, child in enumerate(children):
            factory_entropy = tuple(
                int(e)
                for e in (
                    list(
                        child.entropy
                        if isinstance(child.entropy, (list, tuple))
                        else [child.entropy]
                    )
                    + [int(k) for k in child.spawn_key]
                )
            )
            assert rep.results[t].seed_entropy == factory_entropy


class TestBenchmarkReplication:
    def test_records_and_speedup_fields(self):
        from repro.api import benchmark_replication

        records = benchmark_replication(
            2000, 16, trials=4, seed=0, algorithms=("single",)
        )
        assert len(records) == 1
        r = records[0]
        assert r["algorithm"] == "single" and r["trials"] == 4
        assert r["batched_seconds"] > 0
        assert r["sequential_seconds"] is not None
        assert r["speedup"] is not None
        assert r["gap_p99"] >= r["gap_mean"] - 1e-9 or r["gap_p99"] >= 0
        payload = json.loads(json.dumps(r))
        assert payload["m"] == 2000 and "speedup" in payload

    def test_skip_sequential(self):
        from repro.api import benchmark_replication

        records = benchmark_replication(
            2000, 16, trials=2, seed=0, algorithms=("heavy",),
            include_sequential=False,
        )
        assert records[0]["sequential_seconds"] is None
        assert records[0]["speedup"] is None

    def test_defaults_to_all_trial_batched_specs(self):
        from repro.api import benchmark_replication, list_allocators

        records = benchmark_replication(
            2000, 16, trials=2, seed=0, include_sequential=False
        )
        expected = {s.name for s in list_allocators() if s.trial_batched}
        assert {r["algorithm"] for r in records} == expected

    def test_render_table(self):
        from repro.api import benchmark_replication
        from repro.api.bench import REPLICATION_COLUMNS, render

        records = benchmark_replication(
            2000, 16, trials=2, seed=0, algorithms=("single", "stemann"),
        )
        table = render(records, REPLICATION_COLUMNS)
        assert "speedup" in table and "single" in table and "stemann" in table


class TestCli:
    def test_replicate_subcommand(self, capsys):
        from repro.__main__ import main

        assert main(
            ["replicate", "heavy", "--m", "4000", "--n", "16",
             "--trials", "8", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "trial-batched" in out and "gap" in out

    def test_replicate_subcommand_sequential_and_json(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "rep.json"
        assert main(
            ["replicate", "single", "--m", "4000", "--n", "16",
             "--trials", "4", "--seed", "1", "--sequential",
             "--json", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "(sequential)" in out
        payload = json.loads(path.read_text())
        assert payload["trials"] == 4 and payload["batched"] is False

    def test_bench_trials_flag(self, capsys):
        from repro.__main__ import main

        assert main(
            ["bench", "--m", "2000", "--n", "16", "--trials", "2",
             "--algorithms", "single", "--skip-sequential"]
        ) == 0
        out = capsys.readouterr().out
        assert "batched" in out and "single" in out

    def test_rejects_non_batched_algorithms(self):
        from repro.api import benchmark_replication

        with pytest.raises(ValueError, match="no\\s+trial-batched"):
            benchmark_replication(
                2000, 16, trials=2, seed=0, algorithms=("light",)
            )

    def test_sweep_single_pool_for_sequential_blocks(self):
        # Never-eligible sweeps (explicit perball) must still produce
        # point-major results identical to the historical path.
        points = [(4000, 16), (2000, 8)]
        seq = sweep("heavy", points, repeats=2, seed=3, mode="perball")
        legacy = sweep(
            "heavy", points, repeats=2, seed=3, mode="perball",
            trial_batched=False,
        )
        for a, b in zip(seq, legacy):
            assert np.array_equal(a.loads, b.loads)
            assert a.extra["api"]["point"] == b.extra["api"]["point"]

    def test_sweep_mixed_batched_and_fallback_points(self):
        # One eligible block (auto) and one never-eligible block via a
        # per-point mode override: order and values must both hold.
        points = [(4000, 16), {"m": 2000, "n": 8, "mode": "perball"}]
        mixed = sweep("single", points, repeats=2, seed=3)
        assert mixed[0].extra["api"].get("trial_batched") is True
        assert "trial_batched" not in mixed[2].extra["api"]
        # Coordinates must be point-major regardless of execution path.
        assert [
            (r.extra["api"]["point"], r.extra["api"]["repeat"])
            for r in mixed
        ] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(r.m == 4000 for r in mixed[:2])
        assert all(r.m == 2000 for r in mixed[2:])
