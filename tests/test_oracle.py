"""Grid-wise neighbor-selection oracle, and the mosaic-vs-smooth contrast
between it and fine-grained selection on the same kernels."""

import math

import numpy as np
import pytest

from resfu.ops import ShapeMismatch, softmax_rows
from resfu.oracle import max_rel_error, oracle_kernel_apply_gridwise
from resfu.tensor import FeatureMap
from resfu.upsampler import kernel_apply_fns


def fm(values):
    return FeatureMap(np.asarray(values, np.float32))


def ramp_columns(h, w):
    """One linear ramp along columns, replicated across rows, one channel."""
    return fm(np.broadcast_to(np.arange(w, dtype=np.float32)[None, :, None], (h, w, 1)).copy())


def uniform_weights(h, w, slots=9):
    return FeatureMap(np.full((h, w, slots), 1.0 / slots, np.float32))


def one_hot_center(h, w, slots=9):
    weights = np.zeros((h, w, slots), np.float32)
    weights[:, :, (slots - 1) // 2] = 1.0
    return FeatureMap(weights)


class TestMaxRelError:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["actual", "expected", "both"])
    def test_nonfinite_on_either_side_is_inf(self, bad, side):
        clean = np.array([[1.0, -2.0], [0.5, 3.0]])
        dirty = clean.copy()
        dirty[1, 0] = bad
        actual = dirty if side in ("actual", "both") else clean
        expected = dirty if side in ("expected", "both") else clean
        with np.errstate(invalid="ignore"):  # inf - inf
            assert max_rel_error(actual, expected) == math.inf
            assert max_rel_error(actual.astype(np.float32), expected) == math.inf

    def test_finite_arguments_keep_the_quotient(self):
        rng = np.random.default_rng(3)
        for actual, expected in (
            (rng.standard_normal((4, 5, 3)), rng.standard_normal((4, 5, 3))),
            (rng.standard_normal(7).astype(np.float32), np.float32(0.25)),
            (np.full(3, 1e-40), np.zeros(3)),  # the 1e-30 scale floor
            (np.array([1e300]), np.array([-1e300])),  # overflowed difference stays inf
        ):
            a, e = np.asarray(actual, np.float64), np.asarray(expected, np.float64)
            want = float(np.max(np.abs(a - e))) / max(float(np.max(np.abs(e))), 1e-30)
            assert max_rel_error(actual, expected) == want


class TestGridwiseOracle:
    def test_ratio_one_coincides_with_fine_grained(self):
        rng = np.random.default_rng(0)
        x = fm(rng.standard_normal((6, 7, 3)))
        weights = softmax_rows(fm(rng.standard_normal((6, 7, 9))))
        grid = oracle_kernel_apply_gridwise(weights, x, ratio=1)
        fns = kernel_apply_fns(weights, x)
        assert max_rel_error(fns.astype64(), grid) <= 1e-6

    def test_one_hot_center_replicates_blocks(self):
        rng = np.random.default_rng(1)
        x = fm(rng.standard_normal((3, 4, 2)))
        out = oracle_kernel_apply_gridwise(one_hot_center(12, 16), x, ratio=4)
        want = np.repeat(np.repeat(x.astype64(), 4, axis=0), 4, axis=1)
        assert np.array_equal(out, want)

    def test_uniform_ramp_makes_plateaus(self):
        ratio, h, w = 4, 4, 8
        x = ramp_columns(h, w)
        out = oracle_kernel_apply_gridwise(uniform_weights(h * ratio, w * ratio), x, ratio)
        cols = out[0, :, 0]
        # constant within each ratio-wide block, jumping only at boundaries
        blocks = cols.reshape(w, ratio)
        assert np.all(blocks == blocks[:, :1])
        jumps = np.abs(np.diff(blocks[:, 0]))
        assert jumps.size == w - 1
        assert np.all(jumps >= 0.5)

    def test_shape_validation(self):
        x = fm(np.zeros((3, 3, 1)))
        with pytest.raises(ShapeMismatch):
            oracle_kernel_apply_gridwise(uniform_weights(6, 6, slots=8), x, 2)
        with pytest.raises(ShapeMismatch):
            oracle_kernel_apply_gridwise(uniform_weights(6, 5), x, 2)


class TestAntiMosaicContrast:
    """Uniform kernels on a column ramp: fine-grained stays linear where
    grid-wise selection staircases."""

    RATIO, H, W = 4, 4, 8

    def _setup(self):
        x = ramp_columns(self.H, self.W)
        weights = uniform_weights(self.H * self.RATIO, self.W * self.RATIO)
        return x, weights

    def test_fine_grained_interior_is_linear(self):
        x, weights = self._setup()
        out = kernel_apply_fns(weights, x)
        interior = out.astype64()[0, 6 : self.W * self.RATIO - 6, 0]
        assert np.max(np.abs(np.diff(interior, 2))) <= 1e-5
        # and it really ramps: strictly increasing across the interior
        assert np.all(np.diff(interior) > 0)

    def test_grid_wise_interior_staircases(self):
        x, weights = self._setup()
        out = oracle_kernel_apply_gridwise(weights, x, self.RATIO)
        cols = out[0, :, 0]
        second = np.abs(np.diff(cols[6 : self.W * self.RATIO - 6], 2))
        # a staircase has kinks: many second differences far from zero
        assert np.max(second) >= 0.25
        plateau_jumps = np.abs(np.diff(cols.reshape(self.W, self.RATIO)[:, 0]))
        assert np.count_nonzero(plateau_jumps >= 0.5) >= self.W - 2
