"""Tests for the virtual-bin reduction."""

import numpy as np
import pytest

from repro.light.lw16 import LightConfig
from repro.light.virtual import VirtualBinMap, run_light_on_virtual_bins


class TestVirtualBinMap:
    def test_counts(self):
        vmap = VirtualBinMap(n_real=10, factor=3)
        assert vmap.n_virtual == 30

    def test_to_real_is_modulo(self):
        vmap = VirtualBinMap(n_real=4, factor=2)
        assert np.array_equal(
            vmap.to_real(np.array([0, 3, 4, 7])), np.array([0, 3, 0, 3])
        )

    def test_to_real_out_of_range(self):
        vmap = VirtualBinMap(n_real=4, factor=2)
        with pytest.raises(ValueError):
            vmap.to_real(np.array([8]))
        with pytest.raises(ValueError):
            vmap.to_real(np.array([-1]))

    def test_fold_loads(self):
        vmap = VirtualBinMap(n_real=3, factor=2)
        virtual = np.array([1, 2, 3, 10, 20, 30])
        assert np.array_equal(vmap.fold_loads(virtual), [11, 22, 33])

    def test_fold_wrong_shape(self):
        vmap = VirtualBinMap(n_real=3, factor=2)
        with pytest.raises(ValueError):
            vmap.fold_loads(np.zeros(5))

    def test_every_real_bin_gets_factor_virtuals(self):
        vmap = VirtualBinMap(n_real=7, factor=4)
        reals = vmap.to_real(np.arange(vmap.n_virtual))
        counts = np.bincount(reals, minlength=7)
        assert (counts == 4).all()

    def test_for_balls_capacity(self):
        vmap = VirtualBinMap.for_balls(100, 10, capacity=2)
        assert 2 * vmap.n_virtual >= 100
        # one unit of slack factor
        assert vmap.factor == 100 // 20 + 1

    def test_for_balls_zero(self):
        assert VirtualBinMap.for_balls(0, 10).factor == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            VirtualBinMap(n_real=0, factor=1)
        with pytest.raises(ValueError):
            VirtualBinMap(n_real=1, factor=0)


class TestRunOnVirtualBins:
    def test_loads_fold_and_conserve(self):
        real_loads, outcome, vmap = run_light_on_virtual_bins(
            500, 100, seed=3
        )
        assert real_loads.shape == (100,)
        assert real_loads.sum() == 500
        assert outcome.loads.sum() == 500

    def test_real_load_bounded_by_2g(self):
        real_loads, outcome, vmap = run_light_on_virtual_bins(
            300, 100, seed=5
        )
        assert real_loads.max() <= 2 * vmap.factor

    def test_zero_balls(self):
        real_loads, outcome, vmap = run_light_on_virtual_bins(0, 10, seed=1)
        assert real_loads.sum() == 0
        assert outcome.rounds == 0

    def test_custom_capacity(self):
        real_loads, outcome, vmap = run_light_on_virtual_bins(
            120, 40, seed=2, config=LightConfig(capacity=1)
        )
        assert outcome.loads.max() <= 1
        assert real_loads.max() <= vmap.factor
