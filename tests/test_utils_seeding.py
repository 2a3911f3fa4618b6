"""Tests for repro.utils.seeding."""

import numpy as np
import pytest

from repro.utils.seeding import RngFactory, as_generator, spawn_generators


class TestAsGenerator:
    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_int_deterministic(self):
        a = as_generator(5).integers(1 << 40)
        b = as_generator(5).integers(1 << 40)
        assert a == b

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen


class TestSpawnGenerators:
    def test_count(self):
        gens = spawn_generators(1, 5)
        assert len(gens) == 5

    def test_zero_count(self):
        assert spawn_generators(1, 0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_generators(1, -1)

    def test_deterministic(self):
        a = [g.integers(1 << 40) for g in spawn_generators(9, 3)]
        b = [g.integers(1 << 40) for g in spawn_generators(9, 3)]
        assert a == b

    def test_independent_streams(self):
        g1, g2 = spawn_generators(9, 2)
        x = g1.random(1000)
        y = g2.random(1000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.15

    def test_from_generator(self):
        gens = spawn_generators(np.random.default_rng(3), 2)
        assert len(gens) == 2


class TestRngFactory:
    def test_same_key_same_stream(self):
        f1 = RngFactory(7)
        f2 = RngFactory(7)
        a = f1.stream("ball", 12).integers(1 << 40)
        b = f2.stream("ball", 12).integers(1 << 40)
        assert a == b

    def test_different_keys_differ(self):
        f = RngFactory(7)
        a = f.stream("ball", 12).random(100)
        b = f.stream("ball", 13).random(100)
        assert not np.allclose(a, b)

    def test_string_vs_int_keys_disjoint(self):
        f = RngFactory(7)
        a = f.stream("a", 1).random(50)
        b = f.stream("b", 1).random(50)
        assert not np.allclose(a, b)

    def test_child_factory_deterministic(self):
        a = RngFactory(1).child_factory("phase1").stream("x").random(10)
        b = RngFactory(1).child_factory("phase1").stream("x").random(10)
        assert np.allclose(a, b)

    def test_child_factory_independent_of_parent_stream(self):
        f = RngFactory(1)
        a = f.child_factory("sub").stream("x").random(10)
        _ = f.stream("unrelated").random(10)
        b = f.child_factory("sub").stream("x").random(10)
        assert np.allclose(a, b)

    def test_spawn(self):
        f = RngFactory(2)
        gens = f.spawn(3)
        assert len(gens) == 3

    def test_root_entropy_exposed(self):
        f = RngFactory(42)
        assert f.root_entropy == (42,)

    def test_invalid_key_type(self):
        f = RngFactory(1)
        with pytest.raises(TypeError):
            f.stream(3.14)

    @pytest.mark.parametrize(
        "seed",
        [
            0,
            7,
            2**40 + 1,
            np.random.SeedSequence(5).spawn(3)[2],
            np.random.SeedSequence(5).spawn(2)[1].spawn(2)[0],
            None,
            [1, 2**40, 0],
        ],
        ids=["zero", "int", "wide-int", "spawned", "spawned-twice", "os",
             "list"],
    )
    def test_stream_matches_list_built_seed_sequence(self, seed):
        # Streams are seeded from 32-bit words, not from a Python list of
        # ints; the pool, and so every draw, must be the list's.
        f = RngFactory(seed)
        keys = [(), ("threshold", "choices"), ("dynamic", "settle", "accept"),
                ("ball", 12), ("x", 2**32), ("x", 2**40 + 7),
                (np.int64(3), "é")]
        for key in keys:
            material = list(f.root_entropy)
            for part in key:
                if isinstance(part, str):
                    material.extend(part.encode("utf-8"))
                else:
                    material += [int(part) & 0xFFFFFFFF, int(part) >> 32]
            expected = np.random.default_rng(np.random.SeedSequence(material))
            assert np.array_equal(
                f.stream(*key).integers(0, 2**63, size=8),
                expected.integers(0, 2**63, size=8),
            ), key

    def test_array_entropy_roots_a_factory(self):
        # Stream seed sequences hold their words as a uint32 array, and
        # a factory rooted at such a sequence reports and replays them.
        seq = np.random.SeedSequence(np.array([1, 2**31], dtype=np.uint32))
        assert RngFactory(seq).root_entropy == (1, 2**31)
        seq = RngFactory(3).stream("x", 2**40).bit_generator.seed_seq
        f = RngFactory(seq)
        assert f.root_entropy == tuple(int(w) for w in seq.entropy)
        assert f.stream("y").random() == RngFactory(seq).stream("y").random()

    def test_generator_seed_frozen(self):
        gen = np.random.default_rng(0)
        f1 = RngFactory(gen)
        # A factory from a generator must be internally deterministic.
        a = f1.stream("k").integers(1 << 30)
        b = f1.stream("k").integers(1 << 30)
        assert a == b


class TestAsSeedSequence:
    """The package-wide root-seed idiom (shared by RngFactory and
    repro.api.spawn_seeds — the fix for the once-duplicated Generator
    freezing in batch.py)."""

    def test_int_and_none_roundtrip(self):
        from repro.utils.seeding import as_seed_sequence

        assert as_seed_sequence(7).entropy == 7
        assert isinstance(
            as_seed_sequence(None), np.random.SeedSequence
        )

    def test_sequence_passthrough(self):
        from repro.utils.seeding import as_seed_sequence

        seq = np.random.SeedSequence(3)
        assert as_seed_sequence(seq) is seq

    def test_generator_freeze_replays_identically_across_calls(self):
        """Regression: a Generator root seed must replay identically —
        equal-state generators freeze to equal roots everywhere the
        idiom is used."""
        from repro.api import spawn_seeds
        from repro.utils.seeding import as_seed_sequence

        first = spawn_seeds(np.random.default_rng(5), 4)
        again = spawn_seeds(np.random.default_rng(5), 4)
        assert [s.generate_state(4).tolist() for s in first] == [
            s.generate_state(4).tolist() for s in again
        ]
        # The frozen root is the same one RngFactory derives: the
        # factory's streams replay bitwise from an equal-state
        # Generator root too.
        root_a = as_seed_sequence(np.random.default_rng(5))
        root_b = as_seed_sequence(np.random.default_rng(5))
        assert root_a.entropy == root_b.entropy
        fac_a = RngFactory(np.random.default_rng(5))
        fac_b = RngFactory(np.random.default_rng(5))
        assert fac_a.root_entropy == fac_b.root_entropy
        assert fac_a.stream("x").integers(1 << 40) == fac_b.stream(
            "x"
        ).integers(1 << 40)

    def test_generator_freeze_consumes_one_draw(self):
        """Freezing advances the generator exactly one integers() draw,
        so repeated freezes of one generator give distinct roots."""
        from repro.utils.seeding import as_seed_sequence

        gen = np.random.default_rng(9)
        a = as_seed_sequence(gen)
        b = as_seed_sequence(gen)
        assert a.entropy != b.entropy
        reference = np.random.default_rng(9)
        assert a.entropy == int(
            reference.integers(0, 2**63, dtype=np.int64)
        )

    def test_spawn_seeds_matches_manual_spawn(self):
        from repro.api import spawn_seeds

        manual = np.random.SeedSequence(11).spawn(3)
        viaapi = spawn_seeds(11, 3)
        assert [s.generate_state(2).tolist() for s in manual] == [
            s.generate_state(2).tolist() for s in viaapi
        ]
