"""Kernel-level tests: frozen hand-derived values, brute-force oracles, invariants."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resfu.ops import (
    ChannelGroupMismatch,
    GroupNormAffine,
    NonFiniteInput,
    ShapeMismatch,
    _window_sums,
    bilinear_resize,
    gaussian_smooth3,
    group_normalize,
    grouped_pointwise_conv,
    nearest_resize,
    softmax_rows,
)
from resfu.oracle import max_rel_error
from resfu.tensor import FeatureMap
from resfu.upsampler import COMPRESSOR_GROUPS, generate_params

from gf_reference import box_mean_array, window_sums_array


def fm(values, channels_last=True):
    arr = np.asarray(values, np.float32)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    return FeatureMap(arr)


def rand_map(rng, h, w, c):
    return FeatureMap(rng.standard_normal((h, w, c)).astype(np.float32))


class TestResize:
    def test_bilinear_1x2_to_1x4(self):
        # Half-pixel centers: source coords -0.25, 0.25, 0.75, 1.25 (clamped).
        out = bilinear_resize(fm([[1.0, 3.0]]), 1, 4)
        np.testing.assert_array_equal(out.data[0, :, 0], [1.0, 1.5, 2.5, 3.0])

    def test_nearest_1x2_to_1x4(self):
        out = nearest_resize(fm([[1.0, 3.0]]), 1, 4)
        np.testing.assert_array_equal(out.data[0, :, 0], [1.0, 1.0, 3.0, 3.0])

    def test_nearest_holds_one_output(self):
        # 16x16x96 -> 128x128 at ratio 8 picks cell i // 8 on each axis; the
        # traced peak is the output alone (wrapping the gathered array in a
        # copying constructor made it two outputs)
        src = rand_map(np.random.default_rng(13), 16, 16, 96)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = nearest_resize(src, 128, 128)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.data.nbytes
        assert out.data.tobytes() == np.repeat(np.repeat(src.data, 8, axis=0), 8, axis=1).tobytes()

    @pytest.mark.parametrize("resize", [bilinear_resize, nearest_resize])
    def test_an_unaddressable_size_raises_memory_error(self, resize):
        # numpy's own error for it was ValueError: Maximum allowed size exceeded
        with pytest.raises(MemoryError, match=r"a 10{30}x2x3 float32 map"):
            resize(rand_map(np.random.default_rng(8), 2, 2, 3), 10**30, 2)

    def test_identity_resize_is_exact(self):
        src = rand_map(np.random.default_rng(7), 5, 9, 3)
        assert np.array_equal(bilinear_resize(src, 5, 9).data, src.data)
        assert np.array_equal(nearest_resize(src, 5, 9).data, src.data)

    def test_constant_preserved(self):
        src = FeatureMap(np.full((3, 4, 2), 1.6180339, np.float32))
        out = bilinear_resize(src, 12, 16)
        np.testing.assert_allclose(out.data, 1.6180339, rtol=1e-6)

    def test_channel_permutation_commutes(self):
        src = rand_map(np.random.default_rng(8), 4, 6, 5)
        perm = np.array([3, 0, 4, 1, 2])
        a = bilinear_resize(FeatureMap(src.data[:, :, perm]), 9, 13).data
        b = bilinear_resize(src, 9, 13).data[:, :, perm]
        assert np.array_equal(a, b)

    def test_separable_matches_direct_four_corner_blend(self):
        # Oracle: evaluate the definition directly per output pixel.
        rng = np.random.default_rng(9)
        src = rand_map(rng, 4, 5, 2)
        out = bilinear_resize(src, 7, 11)
        a = src.astype64()
        for i in range(7):
            for j in range(11):
                y = min(max((i + 0.5) * 4 / 7 - 0.5, 0.0), 3.0)
                x = min(max((j + 0.5) * 5 / 11 - 0.5, 0.0), 4.0)
                y0, x0 = int(y), int(x)
                y1, x1 = min(y0 + 1, 3), min(x0 + 1, 4)
                ty, tx = y - y0, x - x0
                want = (
                    a[y0, x0] * (1 - ty) * (1 - tx)
                    + a[y0, x1] * (1 - ty) * tx
                    + a[y1, x0] * ty * (1 - tx)
                    + a[y1, x1] * ty * tx
                )
                np.testing.assert_allclose(out.data[i, j], want, atol=1e-5)

    def test_rejects_bad_sizes(self):
        src = fm([[1.0, 2.0]])
        with pytest.raises(ShapeMismatch):
            bilinear_resize(src, 0, 4)
        with pytest.raises(ShapeMismatch):
            nearest_resize(src, 2, -1)

    @pytest.mark.parametrize("resize", [bilinear_resize, nearest_resize])
    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), 3.0, "3", None])
    def test_sizes_reject_bools_and_non_integers(self, resize, bad):
        # bilinear_resize(src, True, 3) once returned a one-row map
        src = fm([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ShapeMismatch):
            resize(src, bad, 3)
        with pytest.raises(ShapeMismatch):
            resize(src, 3, bad)

    @pytest.mark.parametrize("resize", [bilinear_resize, nearest_resize])
    def test_sizes_accept_numpy_integers(self, resize):
        src = fm([[1.0, 2.0], [3.0, 4.0]])
        got = resize(src, np.int64(3), np.uint16(5))
        assert np.array_equal(got.data, resize(src, 3, 5).data)


class TestBoxMean:
    def test_3x3_ramp_radius1(self):
        src = np.arange(9, dtype=np.float32).reshape(3, 3, 1)
        out = box_mean_array(src, 1)
        assert out[1, 1, 0] == 4.0  # full window, mean of 0..8
        assert out[0, 0, 0] == 2.0  # corner window {0,1,3,4}

    def test_radius_zero_is_identity(self):
        src = rand_map(np.random.default_rng(3), 4, 4, 2).data
        assert np.array_equal(box_mean_array(src, 0), src)

    def test_huge_radius_gives_global_mean(self):
        src = rand_map(np.random.default_rng(4), 5, 6, 3).data
        want = src.astype(np.float64).mean(axis=(0, 1))
        out = box_mean_array(src, 10)
        np.testing.assert_allclose(out, np.broadcast_to(want, (5, 6, 3)), rtol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(h=st.integers(1, 6), w=st.integers(1, 6), r=st.integers(0, 4), v=st.floats(-100, 100, width=32))
    def test_constant_map_preserved(self, h, w, r, v):
        out = box_mean_array(np.full((h, w, 1), v, np.float32), r)
        np.testing.assert_allclose(out, v, rtol=1e-6, atol=1e-6)

    def test_matches_window_loop_oracle(self):
        rng = np.random.default_rng(5)
        src = rand_map(rng, 7, 6, 2)
        out = box_mean_array(src.data, 2)
        a = src.astype64()
        for i in range(7):
            for j in range(6):
                win = a[max(i - 2, 0) : i + 3, max(j - 2, 0) : j + 3]
                np.testing.assert_allclose(out[i, j], win.mean(axis=(0, 1)), rtol=1e-6)

    def test_array_means_do_not_depend_on_memory_layout(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((7, 5, 3))
        view = np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)  # same values, W outermost
        direct = box_mean_array(a, 2)
        np.testing.assert_allclose(box_mean_array(view, 2), direct, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(9, 5, 3), (12, 1, 1)])
    def test_window_sums_of_stacked_views_match_each_array(self, shape):
        # The guided filter stacks four quantities ahead of the summed axis
        # and sums through strided views; each quantity must get the bits of
        # its own contiguous array, also for a lone column (12 x 1 x 1).
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((4, *shape))
        out = np.empty_like(stack)
        window_sums_array(np.moveaxis(stack, 1, 0), 2, np.moveaxis(out, 1, 0))
        for j in range(4):
            alone = np.ascontiguousarray(stack[j])
            assert np.array_equal(out[j], window_sums_array(alone, 2, np.empty_like(alone)))

    @pytest.mark.parametrize("n, radius", [(12, 2), (9, 4), (5, 7), (1, 3), (20, 0)])
    def test_window_sums_into_one_carried_buffer_match_a_view_per_index(self, n, radius):
        # The guided filter's vertical passes carry one buffer from window
        # to window; its horizontal passes and the whole-map reference write
        # a view per index.  Both take the same adds and subtracts, also
        # where both window ends are clamped (5 rows, radius 7); rows far
        # from zero with little spread show a sum taken in another order.
        rows = 1000.0 + 0.01 * np.random.default_rng(n + radius).standard_normal((n, 4, 3))
        per_view = window_sums_array(rows, radius, np.empty(rows.shape))
        carried = np.empty((4, 3))
        for i in _window_sums(n, radius, rows.__getitem__, lambda i: carried):
            assert np.array_equal(carried, per_view[i]), i

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3, 8])
    def test_window_sums_make_each_row_once_entering_and_once_leaving(self, n, radius):
        # Each row is made when it enters a window and again only if it
        # leaves one, and never before window i needs it: the rows are made
        # on demand.
        values = np.arange(n, dtype=np.float64) ** 2  # integers: every sum exact
        calls, acc = [], np.empty(())

        def row(j):
            calls.append(j)
            return values[j]

        done = []
        for i in _window_sums(n, radius, row, lambda i: acc):
            assert max(calls) == min(i + radius, n - 1), (i, calls)
            assert acc == values[max(i - radius, 0) : i + radius + 1].sum(), i
            done.append(i)
        assert done == list(range(n))
        assert [calls.count(j) for j in range(n)] == [1 + (j + radius + 1 < n) for j in range(n)], calls

    def test_window_sums_of_a_lone_column_match_it_inside_a_wider_array(self):
        # Far from zero with little spread, so a sum in another order shows;
        # nine values per first window are enough for np.sum to reduce a
        # lone column pairwise.
        col = 1000.0 + 0.01 * np.random.default_rng(0).standard_normal(20)
        wide = np.stack([col, col[::-1]], axis=1)[:, :, None]
        alone = np.ascontiguousarray(wide[:, :1])
        got = window_sums_array(alone, 8, np.empty(alone.shape))
        assert np.array_equal(got, window_sums_array(wide, 8, np.empty(wide.shape))[:, :1])


class TestGaussianSmooth3:
    def test_impulse_response(self):
        # Weights exp(0), exp(-1/2), exp(-1) normalized by their sum.
        s = 1.0 + 4 * math.exp(-0.5) + 4 * math.exp(-1.0)
        imp = np.zeros((5, 5, 1), np.float32)
        imp[2, 2, 0] = 1.0
        out = gaussian_smooth3(FeatureMap(imp))
        np.testing.assert_allclose(out.data[2, 2, 0], 1.0 / s, rtol=1e-6)
        np.testing.assert_allclose(out.data[2, 1, 0], math.exp(-0.5) / s, rtol=1e-6)
        np.testing.assert_allclose(out.data[1, 1, 0], math.exp(-1.0) / s, rtol=1e-6)
        # Spot values, frozen from the definition above.
        assert out.data[2, 2, 0] == pytest.approx(0.2041800, abs=1e-6)
        assert out.data[2, 1, 0] == pytest.approx(0.1238412, abs=1e-6)
        assert out.data[1, 1, 0] == pytest.approx(0.0751135, abs=1e-6)
        assert out.data[0, 0, 0] == 0.0

    def test_constant_preserved(self):
        src = FeatureMap(np.full((4, 5, 3), -2.25, np.float32))
        np.testing.assert_allclose(gaussian_smooth3(src).data, -2.25, rtol=1e-6)

    def test_edge_clamping_via_window_oracle(self):
        rng = np.random.default_rng(11)
        src = rand_map(rng, 4, 4, 1)
        out = gaussian_smooth3(src)
        a = src.astype64()
        s = 1.0 + 4 * math.exp(-0.5) + 4 * math.exp(-1.0)
        for i in range(4):
            for j in range(4):
                acc = 0.0
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        wgt = math.exp(-(di * di + dj * dj) / 2.0) / s
                        acc += wgt * a[min(max(i + di, 0), 3), min(max(j + dj, 0), 3), 0]
                np.testing.assert_allclose(out.data[i, j, 0], acc, rtol=1e-6)

    def test_row_tiles_round_like_the_whole_map(self):
        # 37 rows of 64x32 run as tiles of 16, 16 and 5 rows with their
        # halos; the whole-map float64 passes give the same bits.
        rng = np.random.default_rng(12)
        src = rand_map(rng, 37, 64, 32)
        padded = np.pad(src.data, ((1, 1), (1, 1), (0, 0)), mode="edge")
        side = math.exp(-0.5)
        rows = np.add(padded[:-2], padded[2:], dtype=np.float64)
        rows *= side
        rows += padded[1:-1]
        want = np.add(rows[:, :-2], rows[:, 2:])
        want *= side
        want += rows[:, 1:-1]
        want *= (1.0 / (1.0 + 2.0 * side)) ** 2
        assert np.array_equal(gaussian_smooth3(src).data, want.astype(np.float32))

    def test_holds_under_four_outputs(self):
        # Traced transient of one call, output included: the tiles' float64
        # passes add less than three outputs (the whole-map passes held six).
        src = rand_map(np.random.default_rng(13), 64, 64, 32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gaussian_smooth3(src)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * src.data.nbytes


class TestGroupNormalize:
    def test_affine_rejects_complex_values(self):
        with pytest.raises(ShapeMismatch, match="gamma must be real"):
            GroupNormAffine(np.ones(4) + 1j, np.zeros(4))

    def test_normalizes_per_group(self):
        rng = np.random.default_rng(21)
        src = rand_map(rng, 6, 5, 8)
        affine = GroupNormAffine(np.ones(8), np.zeros(8))
        out = group_normalize(src, affine).astype64().reshape(30, 4, 2)
        np.testing.assert_allclose(out.mean(axis=(0, 2)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=(0, 2)), 1.0, atol=1e-4)

    def test_affine_applied_per_channel(self):
        rng = np.random.default_rng(22)
        src = rand_map(rng, 4, 4, 4)
        gamma = np.array([1.0, 2.0, 0.5, -1.0], np.float32)
        beta = np.array([0.0, 1.0, -1.0, 0.25], np.float32)
        plain = group_normalize(src, GroupNormAffine(np.ones(4), np.zeros(4))).astype64()
        styled = group_normalize(src, GroupNormAffine(gamma, beta)).astype64()
        np.testing.assert_allclose(styled, plain * gamma + beta, atol=1e-6)

    def test_groups_are_independent(self):
        # 8 channels in NORM_GROUPS = 4 groups of 2: changing channels 2..7
        # leaves the first group's output unchanged
        rng = np.random.default_rng(23)
        base = rng.standard_normal((5, 5, 8)).astype(np.float32)
        other = base.copy()
        other[:, :, 2:] = rng.standard_normal((5, 5, 6)).astype(np.float32)
        affine = GroupNormAffine(np.ones(8), np.zeros(8))
        a = group_normalize(FeatureMap(base), affine).data
        b = group_normalize(FeatureMap(other), affine).data
        assert np.array_equal(a[:, :, :2], b[:, :, :2])
        assert not np.array_equal(a[:, :, 2:4], b[:, :, 2:4])

    def test_rejects_bad_groups(self):
        # 6 channels do not split into NORM_GROUPS = 4 groups
        with pytest.raises(ChannelGroupMismatch, match="6 channels not divisible into 4 groups"):
            GroupNormAffine(np.ones(6), np.zeros(6))
        src = rand_map(np.random.default_rng(0), 2, 2, 4)
        with pytest.raises(ShapeMismatch):
            group_normalize(src, GroupNormAffine(np.ones(8), np.zeros(8)))

    def test_rejects_misshapen_or_non_finite_vectors(self):
        with pytest.raises(ShapeMismatch, match=r"gamma/beta must be equal-length vectors, got \(8,\) vs \(4,\)"):
            GroupNormAffine(np.ones(8), np.zeros(4))
        with pytest.raises(ShapeMismatch, match=r"^gamma must have rank 1, got shape \(2, 4\)"):
            GroupNormAffine(np.ones((2, 4)), np.zeros((2, 4)))
        for bad in (np.nan, np.inf, 1e300):  # 1e300 overflows float32 to Inf
            with pytest.raises(NonFiniteInput, match="^beta holds NaN or infinite values"):
                GroupNormAffine(np.ones(4), np.array([0.0, bad, 0.0, 0.0]))

    def test_production_width_matches_float64_reference(self):
        # the compressor's hidden norm: 128 channels in 4 groups, a ReLU'd
        # map with mean about its std, several pixel blocks; the float32
        # scale and shift stay within 1e-6 of the float64 definition
        rng = np.random.default_rng(26)
        src = FeatureMap(np.maximum(rng.standard_normal((48, 40, 128)), 0.0).astype(np.float32))
        gamma, beta = 1.0 + 0.5 * rng.standard_normal(128), 0.5 * rng.standard_normal(128)
        got = group_normalize(src, GroupNormAffine(gamma, beta))
        x = src.astype64().reshape(-1, 4, 32)
        mean = x.mean(axis=(0, 2), keepdims=True)
        var = x.var(axis=(0, 2), keepdims=True)
        want = ((x - mean) / np.sqrt(var + 1e-5)).reshape(48, 40, 128)
        want = want * gamma.astype(np.float32) + beta.astype(np.float32)
        assert max_rel_error(got.data, want) <= 1e-6

def dense_conv_oracle(src, weight, bias, groups):
    """Brute-force check model: expand the grouped weight to a dense
    block-diagonal matrix and multiply."""
    c_out, in_per = weight.shape
    c_in = in_per * groups
    dense = np.zeros((c_out, c_in), np.float64)
    for l in range(c_out):
        g = l * groups // c_out
        for d in range(c_in):
            if d * groups // c_in == g:
                dense[l, d] = weight[l, d % in_per]
    flat = src.astype64().reshape(-1, c_in)
    out = flat @ dense.T + np.asarray(bias, np.float64)
    return out.reshape(src.height, src.width, c_out)


class TestGroupedPointwiseConv:
    @pytest.mark.parametrize("part", ["weight", "bias"])
    def test_rejects_complex_parameters(self, part):
        # the imaginary part used to be dropped with only a ComplexWarning
        params = {"weight": np.ones((4, 2), np.float32), "bias": np.zeros(4, np.float32)}
        params[part] = params[part] + 1j
        with pytest.raises(ShapeMismatch, match="must be real"):
            grouped_pointwise_conv(rand_map(np.random.default_rng(9), 3, 3, 2), **params)

    @pytest.mark.parametrize("groups", [1, 2, 4, 8])
    def test_matches_dense_oracle(self, groups):
        rng = np.random.default_rng(31 + groups)
        c_in, c_out = 16, 8
        src = rand_map(rng, 5, 4, c_in)
        weight = rng.standard_normal((c_out, c_in // groups)).astype(np.float32)
        bias = rng.standard_normal(c_out).astype(np.float32)
        out = grouped_pointwise_conv(src, weight, bias)
        want = dense_conv_oracle(src, weight, bias, groups)
        np.testing.assert_allclose(out.astype64(), want, rtol=1e-6, atol=1e-6)

    def test_group_count_comes_from_the_map(self):
        # one weight of group width 3 runs on 3, 6 and 12 channels as 1, 2
        # and 4 groups, each held to the oracle at that count
        rng = np.random.default_rng(30)
        weight = rng.standard_normal((8, 3)).astype(np.float32)
        bias = rng.standard_normal(8).astype(np.float32)
        for groups in (1, 2, 4):
            src = rand_map(rng, 5, 4, 3 * groups)
            want = dense_conv_oracle(src, weight, bias, groups)
            assert max_rel_error(grouped_pointwise_conv(src, weight, bias).astype64(), want) <= 1e-6

    def test_takes_no_group_count(self):
        src = rand_map(np.random.default_rng(0), 2, 2, 6)
        with pytest.raises(TypeError):
            grouped_pointwise_conv(src, np.zeros((4, 3), np.float32), np.zeros(4, np.float32), 2)

    @pytest.mark.parametrize("name", ["conv1", "conv2", "projection"])
    def test_production_shapes_match_dense_oracle(self, name):
        # the pipeline's own shapes and generated weights: the compressor's
        # conv1 (32 -> 128, 4 groups) and conv2 (128 -> 9), and the 384 -> 32
        # key projection, float32 products within 1e-6 of float64 (the
        # compressor's ReLU is checked in test_pcdc.TestCompressor)
        params = generate_params(c_in=384, c_guide=3, seed=0)
        comp = params.block_s.comp
        weight, bias, groups = {
            "conv1": (comp.conv1_weight, comp.conv1_bias, COMPRESSOR_GROUPS),
            "conv2": (comp.conv2_weight, comp.conv2_bias, 1),
            "projection": (params.proj.weight_k, params.proj.bias_k, 1),
        }[name]
        rng = np.random.default_rng(44)
        bias = bias + rng.uniform(-0.1, 0.1, bias.size).astype(np.float32)
        src = rand_map(rng, 40, 36, weight.shape[1] * groups)  # several pixel blocks
        got = grouped_pointwise_conv(src, weight, bias)
        want = dense_conv_oracle(src, weight, bias, groups)
        assert max_rel_error(got.data, want) <= 1e-6

    def test_single_group_is_plain_matmul(self):
        rng = np.random.default_rng(41)
        src = rand_map(rng, 3, 3, 5)
        weight = rng.standard_normal((2, 5)).astype(np.float32)
        out = grouped_pointwise_conv(src, weight, np.zeros(2, np.float32))
        want = src.astype64() @ weight.astype(np.float64).T
        np.testing.assert_allclose(out.astype64(), want, atol=1e-6)

    def test_rejects_mismatches(self):
        src = rand_map(np.random.default_rng(0), 2, 2, 6)
        w = np.zeros((4, 3), np.float32)
        b = np.zeros(4, np.float32)
        with pytest.raises(ChannelGroupMismatch, match="4 1x1 conv outputs not divisible into 3 groups"):
            grouped_pointwise_conv(src, np.zeros((4, 2), np.float32), b)  # width 2 makes 3 groups of 6
        with pytest.raises(ShapeMismatch, match="1x1 conv weight group width 4 does not divide 6 channels"):
            grouped_pointwise_conv(src, np.zeros((4, 4), np.float32), b)
        with pytest.raises(ShapeMismatch, match="not a conv parameter pair"):
            grouped_pointwise_conv(src, w, np.zeros(3, np.float32))


class TestSoftmaxRows:
    def test_two_slot_example(self):
        scores = FeatureMap(np.array([[[0.0, math.log(2.0)]]], np.float32))
        out = softmax_rows(scores)
        np.testing.assert_allclose(out.data[0, 0], [1 / 3, 2 / 3], rtol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        pixels=st.integers(1, 8),
        slots=st.integers(1, 12),
        seed=st.integers(0, 2**16),
        scale=st.floats(0.1, 50.0),
    )
    def test_rows_sum_to_one(self, pixels, slots, seed, scale):
        rng = np.random.default_rng(seed)
        scores = FeatureMap((scale * rng.standard_normal((pixels, 1, slots))).astype(np.float32))
        out = softmax_rows(scores)
        np.testing.assert_allclose(out.astype64().sum(axis=2), 1.0, atol=1e-6)
        assert np.all(out.data >= 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(77)
        raw = rng.standard_normal((4, 3, 9)).astype(np.float32)
        a = softmax_rows(FeatureMap(raw))
        b = softmax_rows(FeatureMap(raw + np.float32(2.0)))
        np.testing.assert_allclose(a.astype64(), b.astype64(), atol=1e-6)

    def test_non_finite_scores_raise_before_any_exp(self):
        # a NaN or Inf score warned in the max subtraction and came out as NaN rows
        raw = np.zeros((2, 3, 9), np.float32)
        raw[0, 1, 4], raw[1, 2, 0], raw[1, 2, 8] = np.nan, np.inf, -np.inf
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteInput, match=r"^similarity scores: 2 of 6 rows hold NaN or Inf$"):
                softmax_rows(FeatureMap(raw))
        assert not seen

    def test_extreme_scores_stay_finite(self):
        scores = FeatureMap(np.array([[[500.0, -500.0, 499.0]]], np.float32))
        out = softmax_rows(scores)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.astype64().sum(), 1.0, atol=1e-9)
