"""The reference side: its neighborhood gather against the production
views, the grid-wise neighbor-selection oracle, the mosaic-vs-smooth
contrast between it and fine-grained selection on the same kernels, the
sizes the oracles read from their tensors, and the imports that keep the
oracle independent of the production kernels."""

import ast
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resfu import ops, oracle
from resfu.ops import ChannelGroupMismatch, ShapeMismatch, _neighbor_views, softmax_rows
from resfu.oracle import max_rel_error, oracle_gather_neighbors, oracle_kernel_apply_gridwise, oracle_pcdc_direct
from resfu.tensor import FeatureMap
from resfu.upsampler import kernel_apply_fns


def fm(values):
    arr = np.asarray(values, np.float32)
    return FeatureMap(arr[:, :, None] if arr.ndim == 2 else arr)


def rand_map(rng, h, w, c):
    return FeatureMap(rng.standard_normal((h, w, c)).astype(np.float32))


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


class TestGatherNeighbors:
    def test_3x3_top_left_corner(self):
        src = fm(np.arange(9, dtype=np.float32).reshape(3, 3))
        got = oracle_gather_neighbors(src, 3, 1)
        np.testing.assert_array_equal(got[0, :, 0], [0, 0, 1, 0, 0, 1, 3, 3, 4])

    def test_5x5_center_dilation2(self):
        src = fm(np.arange(25, dtype=np.float32).reshape(5, 5))
        got = oracle_gather_neighbors(src, 3, 2)
        center = 2 * 5 + 2
        np.testing.assert_array_equal(got[center, :, 0], [0, 2, 4, 10, 12, 14, 20, 22, 24])

    @settings(max_examples=25, deadline=None)
    @given(h=st.integers(1, 5), w=st.integers(1, 5), c=st.integers(1, 3), seed=st.integers(0, 999))
    def test_k1_is_identity(self, h, w, c, seed):
        src = rand_map(np.random.default_rng(seed), h, w, c)
        got = oracle_gather_neighbors(src, 1, 1)
        assert got.shape == (h * w, 1, c)
        assert np.array_equal(got[:, 0, :], src.data.reshape(h * w, c))

    def test_interior_matches_plain_slices(self):
        rng = np.random.default_rng(55)
        src = rand_map(rng, 6, 6, 2)
        got = oracle_gather_neighbors(src, 3, 1)
        i, j = 3, 2
        flat = i * 6 + j
        n = 0
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                assert np.array_equal(got[flat, n], src.data[i + di, j + dj])
                n += 1

    def test_rejects_even_kernel_and_bad_dilation(self):
        src = fm([[1.0]])
        with pytest.raises(ShapeMismatch):
            oracle_gather_neighbors(src, 2, 1)
        with pytest.raises(ShapeMismatch):
            oracle_gather_neighbors(src, 3, 0)
        # K and the dilation must be integers, not bools or floats
        for bad in (True, 3.0, 1.5):
            with pytest.raises(ShapeMismatch, match="^kernel must be an integer >= 1"):
                oracle_gather_neighbors(src, bad, 1)
            with pytest.raises(ShapeMismatch, match="^dilation must be an integer >= 1"):
                oracle_gather_neighbors(src, 3, bad)


class TestNeighborViews:
    # maps smaller than the reach (K-1)/2 * dilation, so most slots clamp
    @pytest.mark.parametrize("h, w", [(1, 1), (2, 5), (6, 4)])
    @pytest.mark.parametrize("dilation", [1, 2, 3, 7])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_views_equal_the_oracle_gather(self, kernel, dilation, h, w):
        src = rand_map(np.random.default_rng(h * 100 + w), h, w, 3)
        views = _neighbor_views(src.data, kernel, dilation)
        want = oracle_gather_neighbors(src, kernel, dilation)
        assert len(views) == want.shape[1] == kernel * kernel
        for n, view in enumerate(views):
            assert view.dtype == np.float32 and view.shape == src.shape
            assert view.tobytes() == want[:, n].astype(np.float32).tobytes()

    def test_views_share_one_padded_copy(self):
        kernel, dilation = 5, 3
        src = rand_map(np.random.default_rng(9), 64, 64, 8)
        padded_bytes = (64 + 12) ** 2 * 8 * 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            views = _neighbor_views(src.data, kernel, dilation)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(views) == kernel * kernel
        # the padded copy plus small objects (reads 1.09x it); a second
        # copy would be 2x, and a copy per view 17.7x
        assert peak <= 1.25 * padded_bytes


class TestGridwiseOracle:
    def test_ratio_one_coincides_with_fine_grained(self):
        rng = np.random.default_rng(0)
        x = fm(rng.standard_normal((6, 7, 3)))
        weights = softmax_rows(fm(rng.standard_normal((6, 7, 9))))
        grid = oracle_kernel_apply_gridwise(weights, x)
        fns = kernel_apply_fns(weights, x)
        assert max_rel_error(fns.astype64(), grid) <= 1e-6

    def test_one_hot_center_replicates_blocks(self):
        rng = np.random.default_rng(1)
        x = fm(rng.standard_normal((3, 4, 2)))
        out = oracle_kernel_apply_gridwise(one_hot_center(12, 16), x)
        want = np.repeat(np.repeat(x.astype64(), 4, axis=0), 4, axis=1)
        assert np.array_equal(out, want)

    def test_uniform_ramp_makes_plateaus(self):
        ratio, h, w = 4, 4, 8
        x = ramp_columns(h, w)
        out = oracle_kernel_apply_gridwise(uniform_weights(h * ratio, w * ratio), x)
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
            oracle_kernel_apply_gridwise(uniform_weights(6, 6, slots=8), x)
        with pytest.raises(ShapeMismatch):
            oracle_kernel_apply_gridwise(uniform_weights(6, 5), x)
        for h, w in ((7, 6), (6, 9), (2, 2)):  # no multiple, two multiples, smaller than x
            with pytest.raises(ShapeMismatch, match=f"grid: {h}x{w} is not one integer multiple of 3x3"):
                oracle_kernel_apply_gridwise(uniform_weights(h, w), x)


class TestPcdcOracle:
    @pytest.mark.parametrize("shape,error,message", [
        ((8, 2, 8), ShapeMismatch, "8 neighbor slots is not an odd kernel squared"),
        ((9, 3, 8), ShapeMismatch, "channels over weight group width: 8 is not one integer multiple of 3"),
        ((9, 2, 6), ChannelGroupMismatch, "outputs over groups: 6 is not one integer multiple of 4"),
    ])
    def test_shape_validation(self, shape, error, message):
        # K, the group count and their agreement with the maps come from the shapes
        q = rand_map(np.random.default_rng(0), 4, 3, 8)
        with pytest.raises(error, match=message):
            oracle_pcdc_direct(q, q, np.zeros(shape), np.zeros(shape[2]), 1)

    @pytest.mark.parametrize("key,bias,message", [
        ((6, 5, 8), 8, r"key \(6, 5, 8\) must match query \(4, 3, 8\)"),  # gave a 4x3x8 map
        ((4, 3, 8), 7, r"bias \(7,\) must hold the weight's 8 outputs"),  # IndexError
        ((4, 3, 8), 9, r"bias \(9,\) must hold the weight's 8 outputs"),  # silently cut
    ])
    def test_shape_validation_of_key_and_bias(self, key, bias, message):
        rng = np.random.default_rng(0)
        q, k = rand_map(rng, 4, 3, 8), rand_map(rng, *key)
        with pytest.raises(ShapeMismatch, match=message):
            oracle_pcdc_direct(q, k, np.zeros((9, 2, 8)), np.zeros(bias), 1)

    def test_takes_no_group_count(self):
        # a stale call that passes a group count fails instead of mixing
        # channels across the wrong groups
        q = rand_map(np.random.default_rng(1), 4, 3, 8)
        with pytest.raises(TypeError):
            oracle_pcdc_direct(q, q, np.zeros((9, 2, 8)), np.zeros(8), 2, 1)


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
        out = oracle_kernel_apply_gridwise(weights, x)
        cols = out[0, :, 0]
        second = np.abs(np.diff(cols[6 : self.W * self.RATIO - 6], 2))
        # a staircase has kinks: many second differences far from zero
        assert np.max(second) >= 0.25
        plateau_jumps = np.abs(np.diff(cols.reshape(self.W, self.RATIO)[:, 0]))
        assert np.count_nonzero(plateau_jumps >= 0.5) >= self.W - 2


def test_reference_side_imports_no_production_kernel():
    """oracle.py takes from resfu.ops only exception classes and the size
    checks, and nothing from resfu.pcdc or resfu.upsampler, so an oracle
    test never compares a production kernel against itself."""
    allowed = {"_odd_kernel", "_positive_int"}
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.Import):
            names = [alias.name.removeprefix("resfu.") for alias in node.names]
            assert not {"ops", "pcdc", "upsampler"} & set(names), names
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("resfu").lstrip(".")
            if not module:  # from . import x
                assert not {"ops", "pcdc", "upsampler"} & {alias.name for alias in node.names}
            assert module not in ("pcdc", "upsampler"), module
            if module == "ops":
                for alias in node.names:
                    obj = getattr(ops, alias.name)
                    assert alias.name in allowed or (isinstance(obj, type) and issubclass(obj, Exception)), alias.name


@pytest.mark.parametrize("shape", [(9, 16), (9, 2, 8, 1)])
def test_pcdc_oracle_rejects_a_weight_not_of_rank_three(shape):
    q = rand_map(np.random.default_rng(60), 4, 3, 8)
    with pytest.raises(ShapeMismatch, match="weight must have rank 3"):
        oracle_pcdc_direct(q, q, np.zeros(shape), np.zeros(8), 1)
