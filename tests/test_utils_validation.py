"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_mode,
    check_positive_int,
    check_probability,
    check_seed,
    ensure_m_n,
)


class TestCheckPositiveInt:
    def test_plain_int(self):
        assert check_positive_int(5, "x") == 5

    def test_numpy_int(self):
        out = check_positive_int(np.int64(7), "x")
        assert out == 7
        assert isinstance(out, int)

    def test_integral_float(self):
        assert check_positive_int(4.0, "x") == 4

    def test_non_integral_float_raises(self):
        with pytest.raises(TypeError):
            check_positive_int(4.5, "x")

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_below_minimum(self):
        with pytest.raises(ValueError, match="x must be >= 1"):
            check_positive_int(0, "x")

    def test_custom_minimum(self):
        assert check_positive_int(0, "x", minimum=0) == 0
        with pytest.raises(ValueError):
            check_positive_int(-1, "x", minimum=0)

    def test_string_raises(self):
        with pytest.raises(TypeError):
            check_positive_int("5", "x")


class TestCheckProbability:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_valid(self, p):
        assert check_probability(p, "p") == p

    @pytest.mark.parametrize("p", [-0.1, 1.1, 2])
    def test_out_of_range(self, p):
        with pytest.raises(ValueError):
            check_probability(p, "p")

    def test_non_number(self):
        with pytest.raises(TypeError):
            check_probability("half", "p")


class TestCheckSeed:
    def test_none_ok(self):
        assert check_seed(None) is None

    def test_int_ok(self):
        assert check_seed(42) == 42

    def test_negative_int_raises(self):
        with pytest.raises(ValueError):
            check_seed(-1)

    def test_seedsequence_ok(self):
        ss = np.random.SeedSequence(1)
        assert check_seed(ss) is ss

    def test_generator_ok(self):
        gen = np.random.default_rng(0)
        assert check_seed(gen) is gen

    def test_bad_type(self):
        with pytest.raises(TypeError):
            check_seed("seed")


class TestEnsureMN:
    def test_valid(self):
        assert ensure_m_n(100, 10) == (100, 10)

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            ensure_m_n(0, 10)
        with pytest.raises(ValueError):
            ensure_m_n(10, 0)

    def test_heavy_regime_check(self):
        with pytest.raises(ValueError, match="heavily loaded"):
            ensure_m_n(5, 10, require_heavy=True)
        assert ensure_m_n(10, 10, require_heavy=True) == (10, 10)

    def test_numpy_inputs_converted(self):
        m, n = ensure_m_n(np.int32(20), np.int64(4))
        assert isinstance(m, int) and isinstance(n, int)


class TestCheckMode:
    def test_kernel_granularities_pass(self):
        check_mode("perball")
        check_mode("aggregate")

    def test_every_kernel_runner_and_adapter_uses_it(self):
        import repro
        from repro.api import get_dynamic

        calls = [
            lambda: repro.run_heavy(1000, 10, mode="warp"),
            lambda: repro.run_asymmetric(1000, 10, mode="warp"),
            lambda: repro.run_single_choice(10, 2, mode="warp"),
            lambda: repro.run_stemann(10, 2, mode="warp"),
        ] + [
            # An empty cohort checks the mode before it returns.
            lambda name=name: get_dynamic(name).runner(
                0, 4, initial_loads=np.zeros(4, dtype=np.int64), mode="warp"
            )
            for name in ("heavy", "combined", "single", "stemann")
        ]
        for call in calls:
            with pytest.raises(
                ValueError,
                match="mode must be 'perball' or 'aggregate', got 'warp'",
            ):
                call()
