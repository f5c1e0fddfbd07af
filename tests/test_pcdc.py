"""Difference-convolution tests: decomposed path vs the literal-loop oracle
(across row chunks too), degenerate weights, block composition, bundle shape
checks, identical bits under concurrent callers."""

import concurrent.futures
import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest

from resfu.ops import (
    ChannelGroupMismatch,
    GroupNormAffine,
    NonFiniteInput,
    ShapeMismatch,
    _resize_linear,
    bilinear_resize,
    gaussian_smooth3,
    group_normalize,
    grouped_pointwise_conv,
)
from resfu.oracle import max_rel_error, oracle_pcdc_direct
from resfu.pcdc import (
    CompressorParams,
    PcdcBlockParams,
    PcdcParams,
    _key_taps,
    _pcdc_core,
    channel_compressor,
    pcdc_block,
    pcdc_block_projected,
    pcdc_block_resized_key,
    pcdc_layer,
)
from resfu.tensor import FeatureMap
from resfu.upsampler import generate_params

from pipeline_reference import score_block
from test_ops import dense_conv_oracle


def rand_map(rng, h, w, c):
    return FeatureMap(rng.standard_normal((h, w, c)).astype(np.float32))


def rand_pcdc(rng, kernel=3, d=8, l_out=8, groups=2):
    return PcdcParams(
        weight=rng.standard_normal((kernel * kernel, d // groups, l_out)).astype(np.float32),
        bias=rng.standard_normal(l_out).astype(np.float32),
    )


def rand_block(rng, d=8, l_out=8, hidden=16, kernel=3, groups=2):
    return PcdcBlockParams(
        norm=GroupNormAffine(
            rng.standard_normal(d).astype(np.float32),
            rng.standard_normal(d).astype(np.float32),
        ),
        pcdc=rand_pcdc(rng, kernel, d, l_out, groups),
        comp=CompressorParams(
            conv1_weight=rng.standard_normal((hidden, l_out // 4)).astype(np.float32),
            conv1_bias=rng.standard_normal(hidden).astype(np.float32),
            norm=GroupNormAffine(
                rng.standard_normal(hidden).astype(np.float32),
                rng.standard_normal(hidden).astype(np.float32),
            ),
            conv2_weight=rng.standard_normal((kernel * kernel, hidden)).astype(np.float32),
            conv2_bias=rng.standard_normal(kernel * kernel).astype(np.float32),
        ),
    )


def traced_peak(call) -> int:
    """Traced peak, in bytes above the level at entry, of one call()."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestPcdcLayer:
    def test_single_channel_interior_formula(self):
        # D = G = L = 1 with all-ones weight: v = (sum of the 3x3 key
        # neighborhood) - 9 * query, away from edges.
        rng = np.random.default_rng(0)
        q = rand_map(rng, 6, 7, 1)
        k = rand_map(rng, 6, 7, 1)
        p = PcdcParams(np.ones((9, 1, 1), np.float32), np.zeros(1, np.float32))
        out = pcdc_layer(q, k, p).astype64()
        k64 = k.astype64()[:, :, 0]
        for i in range(1, 5):
            for j in range(1, 6):
                want = k64[i - 1 : i + 2, j - 1 : j + 2].sum() - 9 * q.astype64()[i, j, 0]
                np.testing.assert_allclose(out[i, j, 0], want, rtol=1e-6, atol=1e-6)

    def test_zero_weight_gives_bias(self):
        rng = np.random.default_rng(1)
        q = rand_map(rng, 4, 5, 8)
        k = rand_map(rng, 4, 5, 8)
        bias = rng.standard_normal(8).astype(np.float32)
        p = PcdcParams(np.zeros((9, 4, 8), np.float32), bias)
        out = pcdc_layer(q, k, p)
        assert np.array_equal(out.data, np.broadcast_to(bias, (4, 5, 8)))

    def test_constant_equal_inputs_give_bias(self):
        # Every neighbor difference vanishes, so only the bias survives.
        # Exact when contracted in float64 and stored as float32; the
        # float32 layer rounds its taps' sums, which leaves up to 7e-7 here.
        rng = np.random.default_rng(2)
        const = np.full((5, 5, 8), 0.7, np.float32).astype(np.float64)
        p = rand_pcdc(rng)
        out = _pcdc_core(const, const, p.weight.astype(np.float64), p.bias.astype(np.float64), 1)
        assert np.array_equal(out.astype(np.float32), np.broadcast_to(p.bias, (5, 5, 8)))

    def test_linear_in_key_when_query_and_bias_are_zero(self):
        rng = np.random.default_rng(5)
        zero_q = FeatureMap(np.zeros((6, 6, 8), np.float32))
        k = rand_map(rng, 6, 6, 8)
        p = rand_pcdc(rng)
        p = PcdcParams(p.weight, np.zeros(8, np.float32))
        one = pcdc_layer(zero_q, k, p).astype64()
        three = pcdc_layer(zero_q, FeatureMap(3.0 * k.data), p).astype64()
        assert max_rel_error(three, 3.0 * one) <= 1e-5

    @pytest.mark.parametrize("groups,dilation", [(1, 1), (2, 1), (4, 2), (2, 4)])
    def test_matches_direct_oracle(self, groups, dilation):
        rng = np.random.default_rng(10 * groups + dilation)
        q = rand_map(rng, 9, 8, 8)
        k = rand_map(rng, 9, 8, 8)
        p = rand_pcdc(rng, groups=groups)
        got = pcdc_layer(q, k, p, dilation).astype64()
        want = oracle_pcdc_direct(q, k, p.weight, p.bias, dilation)
        assert max_rel_error(got, want) <= 1e-5

    def test_matches_direct_oracle_across_row_chunks(self):
        rng = np.random.default_rng(3)
        q = rand_map(rng, 70, 9, 8)  # three 32-row chunks, the last partial, when the layer ran in chunks
        k = rand_map(rng, 70, 9, 8)
        p = rand_pcdc(rng)
        got = pcdc_layer(q, k, p).astype64()
        want = oracle_pcdc_direct(q, k, p.weight, p.bias, 1)
        assert max_rel_error(got, want) <= 1e-5

    @pytest.mark.parametrize("threads", [2, 4, 8])
    def test_thread_count_does_not_change_bits(self, threads):
        # The layer runs on its caller's thread; that many callers at once
        # must each get the bits of a lone call (no shared scratch buffers).
        rng = np.random.default_rng(3)
        q = rand_map(rng, 70, 9, 8)  # several 32-row chunks, when the layer ran in chunks
        k = rand_map(rng, 70, 9, 8)
        p = rand_pcdc(rng)
        a = pcdc_layer(q, k, p)
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            outs = list(pool.map(lambda _: pcdc_layer(q, k, p), range(threads)))
        for b in outs:
            assert np.array_equal(a.data, b.data)

    def test_validation(self):
        rng = np.random.default_rng(4)
        q = rand_map(rng, 3, 3, 8)
        with pytest.raises(ShapeMismatch):
            pcdc_layer(q, rand_map(rng, 3, 4, 8), rand_pcdc(rng))
        with pytest.raises(ShapeMismatch):
            PcdcParams(np.zeros((8, 4, 8), np.float32), np.zeros(8, np.float32))
        with pytest.raises(ShapeMismatch, match=r"^weight must have rank 3, got shape \(9, 4\)"):
            PcdcParams(np.zeros((9, 4), np.float32), np.zeros(8, np.float32))
        with pytest.raises(ShapeMismatch, match="^bias has 7 entries, weight implies 8"):
            PcdcParams(np.zeros((9, 4, 8), np.float32), np.zeros(7, np.float32))
        with pytest.raises(NonFiniteInput, match="^weight holds NaN or infinite values"):
            PcdcParams(np.full((9, 4, 8), np.inf, np.float32), np.zeros(8, np.float32))
        with pytest.raises(ShapeMismatch):
            pcdc_layer(q, q, rand_pcdc(rng), dilation=0)

    @pytest.mark.parametrize("width", [3, 5, 16])
    def test_group_width_must_split_the_channels(self, width):
        q = rand_map(np.random.default_rng(6), 3, 3, 8)
        params = PcdcParams(np.zeros((9, width, 8), np.float32), np.zeros(8, np.float32))
        with pytest.raises(ShapeMismatch, match=f"group width {width} does not divide 8 channels"):
            pcdc_layer(q, q, params)

    def test_groups_must_split_the_outputs(self):
        # width 2 on 8 channels makes 4 groups, which 6 outputs do not split
        q = rand_map(np.random.default_rng(7), 3, 3, 8)
        params = PcdcParams(np.zeros((9, 2, 6), np.float32), np.zeros(6, np.float32))
        with pytest.raises(ChannelGroupMismatch, match="6 pcdc outputs not divisible into 4 groups"):
            pcdc_layer(q, q, params)

    def test_group_count_comes_from_the_maps(self):
        # one weight of group width 2 runs on 2, 4 and 8 channels as 1, 2
        # and 4 groups, each held to the oracle at that count
        rng = np.random.default_rng(8)
        params = rand_pcdc(rng, d=4, groups=2)
        for d, groups in ((2, 1), (4, 2), (8, 4)):
            q, k = rand_map(rng, 6, 5, d), rand_map(rng, 6, 5, d)
            want = oracle_pcdc_direct(q, k, params.weight, params.bias, 2)
            assert max_rel_error(pcdc_layer(q, k, params, 2).astype64(), want) <= 1e-5


def hand_composed_chain(v, p):
    """conv1, ReLU, group norm and conv2 as separate public calls."""
    hidden = grouped_pointwise_conv(v, p.conv1_weight, p.conv1_bias)
    return grouped_pointwise_conv(
        group_normalize(FeatureMap(np.maximum(hidden.data, np.float32(0))), p.norm),
        p.conv2_weight,
        p.conv2_bias,
    )


class TestCompressor:
    def test_equals_hand_composed_chain(self):
        rng = np.random.default_rng(20)
        v = rand_map(rng, 6, 5, 8)
        p = rand_block(rng).comp
        assert np.array_equal(channel_compressor(v, p).data, hand_composed_chain(v, p).data)

    @pytest.mark.parametrize("h,w", [(39, 41), (7, 9)], ids=["1599px", "63px"])
    def test_equals_hand_composed_chain_across_pixel_blocks(self, h, w):
        # a pixel count that is not a multiple of the 512-pixel block, and
        # one below it, at the production widths
        rng = np.random.default_rng(25)
        v = rand_map(rng, h, w, 32)
        p = rand_block(rng, d=32, l_out=32, hidden=128, groups=4).comp
        assert np.array_equal(channel_compressor(v, p).data, hand_composed_chain(v, p).data)

    def test_peaks_within_two_mib_of_its_output(self):
        # Traced peak above entry at 256x256x32: the 2.25 MiB scores and a
        # few pixel-block buffers (the 32 MiB hidden map took 34.29 MiB).
        rng = np.random.default_rng(24)
        v = rand_map(rng, 256, 256, 32)
        p = rand_block(rng, d=32, l_out=32, hidden=128, groups=4).comp
        peak = traced_peak(lambda: channel_compressor(v, p))
        assert peak <= 256 * 256 * 9 * 4 + (2 << 20)

    def test_relu_clamps_at_zero(self):
        # conv1 copies v into four one-channel groups and conv2 reads group
        # 0: -1, 0 and -0.0 all leave the ReLU as 0, so they score alike
        v = FeatureMap(np.array([[-1.0, 0.0], [2.5, -0.0]], np.float32)[:, :, None])
        p = CompressorParams(np.ones((4, 1), np.float32), np.zeros(4, np.float32),
                             GroupNormAffine(np.ones(4), np.zeros(4)),
                             np.eye(1, 4, dtype=np.float32), np.zeros(1, np.float32))
        got = channel_compressor(v, p).data[:, :, 0]
        relu = np.array([[0.0, 0.0], [2.5, 0.0]])
        want = (relu - relu.mean()) / np.sqrt(relu.var() + 1e-5)
        assert max_rel_error(got, want) <= 1e-6
        assert got[0, 0] == got[0, 1] == got[1, 1] < got[1, 0]

    def test_production_shapes_match_float64_chain(self):
        # the pipeline's widths and generated weights (conv1 32 -> 128 in 4
        # groups, ReLU, norm, conv2 128 -> 9) over several pixel blocks, with
        # conv1 biases moved off zero so the ReLU cuts inside the data
        comp = generate_params(c_in=384, c_guide=3, seed=0).block_s.comp
        rng = np.random.default_rng(44)
        comp = dataclasses.replace(comp, conv1_bias=rng.uniform(-0.1, 0.1, 128).astype(np.float32))
        v = rand_map(rng, 40, 36, 32)
        hidden = np.maximum(dense_conv_oracle(v, comp.conv1_weight, comp.conv1_bias, 4), 0.0).reshape(-1, 4, 32)
        normed = (hidden - hidden.mean(axis=(0, 2), keepdims=True)) / np.sqrt(
            hidden.var(axis=(0, 2), keepdims=True) + 1e-5)
        normed = normed.reshape(-1, 128) * comp.norm.gamma + comp.norm.beta
        want = normed @ comp.conv2_weight.T.astype(np.float64) + comp.conv2_bias
        assert max_rel_error(channel_compressor(v, comp).data.reshape(-1, 9), want) <= 1e-6

    def test_output_has_slot_channels(self):
        rng = np.random.default_rng(21)
        v = rand_map(rng, 4, 4, 8)
        out = channel_compressor(v, rand_block(rng).comp)
        assert out.shape == (4, 4, 9)

    def test_shape_validation(self):
        rng = np.random.default_rng(22)
        good = rand_block(rng).comp
        with pytest.raises(ShapeMismatch):
            CompressorParams(
                conv1_weight=good.conv1_weight,
                conv1_bias=good.conv1_bias,
                norm=GroupNormAffine(np.ones(8), np.zeros(8)),
                conv2_weight=good.conv2_weight,
                conv2_bias=good.conv2_bias,
            )
        with pytest.raises(ShapeMismatch, match="^conv2 expects 8 channels, conv1 makes 16"):
            dataclasses.replace(good, conv2_weight=good.conv2_weight[:, :8])
        with pytest.raises(NonFiniteInput, match="^conv1_bias holds NaN or infinite values"):
            dataclasses.replace(good, conv1_bias=np.full(16, np.nan))

    @pytest.mark.parametrize("field,entries", [("conv1_bias", 15), ("conv2_bias", 8)])
    def test_bias_must_match_weight_rows(self, field, entries):
        good = rand_block(np.random.default_rng(23)).comp
        with pytest.raises(ShapeMismatch, match="bias"):
            dataclasses.replace(good, **{field: np.zeros(entries, np.float32)})


class TestPcdcBlock:
    def test_zeroed_params_give_zero_scores(self):
        rng = np.random.default_rng(30)
        d, l_out, hidden = 8, 8, 16
        zero = PcdcBlockParams(
            norm=GroupNormAffine(np.zeros(d), np.zeros(d)),
            pcdc=PcdcParams(np.zeros((9, d // 2, l_out), np.float32), np.zeros(l_out, np.float32)),
            comp=CompressorParams(
                conv1_weight=np.zeros((hidden, l_out // 4), np.float32),
                conv1_bias=np.zeros(hidden, np.float32),
                norm=GroupNormAffine(np.zeros(hidden), np.zeros(hidden)),
                conv2_weight=np.zeros((9, hidden), np.float32),
                conv2_bias=np.zeros(9, np.float32),
            ),
        )
        out = pcdc_block(rand_map(rng, 5, 6, d), rand_map(rng, 5, 6, d), zero)
        assert np.array_equal(out.data, np.zeros((5, 6, 9), np.float32))

    def test_shared_affine_ignores_common_rescaling(self):
        # Normalization strips per-group mean/scale, so remapping both inputs
        # with the same positive affine changes scores only through eps.
        rng = np.random.default_rng(31)
        q = rand_map(rng, 6, 6, 8)
        k = FeatureMap(q.data[:, ::-1, :])  # same per-group statistics
        p = rand_block(rng)
        base = pcdc_block(q, k, p).astype64()
        moved = pcdc_block(
            FeatureMap(2.0 * q.data + 0.5), FeatureMap(2.0 * k.data + 0.5), p
        ).astype64()
        assert max_rel_error(moved, base) <= 1e-4

    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("dilation", [1, 2])
    def test_matches_normalize_layer_compress_chain(self, groups, dilation):
        # The block contracts in float32; the chain runs the float64 oracle.
        rng = np.random.default_rng(40 + 10 * groups + dilation)
        q = FeatureMap(rng.standard_normal((11, 9, 8)).astype(np.float32) - 2.0)
        k = FeatureMap(3.0 * rng.standard_normal((11, 9, 8)).astype(np.float32) + 1.0)
        p = rand_block(rng, groups=groups)
        got = pcdc_block(q, k, p, dilation).astype64()
        v = oracle_pcdc_direct(group_normalize(q, p.norm), group_normalize(k, p.norm),
                               p.pcdc.weight, p.pcdc.bias, dilation)
        want = channel_compressor(FeatureMap(v), p.comp).astype64()
        assert max_rel_error(got, want) <= 1e-5

    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("dilation", [1, 2])
    def test_is_exactly_normalize_layer_compress(self, groups, dilation):
        # Bit for bit: the block runs the public layer, not a copy of it.
        rng = np.random.default_rng(60 + 10 * groups + dilation)
        q = FeatureMap(rng.standard_normal((11, 9, 8)).astype(np.float32) - 2.0)
        k = FeatureMap(3.0 * rng.standard_normal((11, 9, 8)).astype(np.float32) + 1.0)
        p = rand_block(rng, groups=groups)
        got = pcdc_block(q, k, p, dilation)
        v = pcdc_layer(group_normalize(q, p.norm), group_normalize(k, p.norm), p.pcdc, dilation)
        assert np.array_equal(got.data, channel_compressor(v, p.comp).data)

    def contraction_peak(self, q, k, p, dilation):
        """Traced peak of pcdc_layer on q and k as the block normalizes them."""
        q_bar, k_bar = group_normalize(q, p.norm), group_normalize(k, p.norm)
        return traced_peak(lambda: pcdc_layer(q_bar, k_bar, p.pcdc, dilation))

    def test_peak_is_the_contractions_beside_the_normalized_pair(self):
        # With the caller holding the inputs, the block's traced peak is the
        # contraction's plus the two normalized inputs it reads: nothing else
        # of the block, and nothing of the compressor, tops it (the
        # compressor's whole hidden map topped it by 0.78 maps).
        rng = np.random.default_rng(35)
        q = rand_map(rng, 48, 40, 32)
        k = rand_map(rng, 48, 40, 32)
        p = rand_block(rng, d=32, l_out=32, hidden=128, groups=4)
        block_peak = traced_peak(lambda: pcdc_block(q, k, p, 2))
        assert block_peak <= self.contraction_peak(q, k, p, 2) + 2.5 * q.data.nbytes

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython holds call arguments until the call returns")
    def test_temporary_inputs_are_freed_once_normalized(self):
        # Inputs built inside the traced call reach the block as its only
        # references, and it drops each once normalized, so the peak is
        # still the contraction's plus the normalized pair (an input kept
        # to the end of the block would add a third map).
        rng = np.random.default_rng(36)
        q = rng.standard_normal((48, 40, 32)).astype(np.float32)
        k = rng.standard_normal((48, 40, 32)).astype(np.float32)
        p = rand_block(rng, d=32, l_out=32, hidden=128, groups=4)
        block_peak = traced_peak(lambda: pcdc_block(FeatureMap(q), FeatureMap(k), p, 2))
        assert block_peak <= self.contraction_peak(FeatureMap(q), FeatureMap(k), p, 2) + 2.5 * q.nbytes

    def test_block_shape_validation(self):
        # the weight's group width 8 does not split a 12-channel norm, and
        # the 3 groups it makes of a 24-channel norm do not split 8 outputs
        blk = rand_block(np.random.default_rng(33), d=16)
        with pytest.raises(ShapeMismatch, match="group width 8 does not divide 12 channels"):
            dataclasses.replace(blk, norm=GroupNormAffine(np.ones(12), np.zeros(12)))
        with pytest.raises(ChannelGroupMismatch, match="8 pcdc outputs not divisible into 3 groups"):
            dataclasses.replace(blk, norm=GroupNormAffine(np.ones(24), np.zeros(24)))

    def test_conv1_group_width_must_split_the_pcdc_outputs(self):
        # conv1's width 3 does not split L = 8, and width 1 makes 8 groups,
        # which its 12 outputs do not split
        blk = rand_block(np.random.default_rng(37))
        comp = dataclasses.replace(blk.comp, conv1_weight=np.zeros((16, 3), np.float32))
        with pytest.raises(ShapeMismatch, match="^conv1 weight group width 3 does not divide 8 channels"):
            dataclasses.replace(blk, comp=comp)
        comp = dataclasses.replace(blk.comp, conv1_weight=np.zeros((12, 1), np.float32), conv1_bias=np.zeros(12),
                                   norm=GroupNormAffine(np.ones(12), np.zeros(12)),
                                   conv2_weight=np.zeros((9, 12), np.float32))
        with pytest.raises(ChannelGroupMismatch, match="^12 conv1 outputs not divisible into 8 groups"):
            dataclasses.replace(blk, comp=comp)

    def test_compressor_must_score_every_kernel_slot(self):
        blk = rand_block(np.random.default_rng(34))
        comp = dataclasses.replace(blk.comp, conv2_weight=blk.comp.conv2_weight[:8],
                                   conv2_bias=blk.comp.conv2_bias[:8])
        with pytest.raises(ShapeMismatch, match="emits 8 scores, kernel 3 needs 9"):
            PcdcBlockParams(norm=blk.norm, pcdc=blk.pcdc, comp=comp)


def fan_in_block(rng, kernel, groups, d=8, l_out=8, hidden=16):
    """A block like a generated bundle's, weights scaled by their fan-in,
    with its biases, norm gains (of either sign) and shifts moved off 0 and 1."""

    def uniform(shape, fan_in):
        return rng.uniform(-1, 1, shape).astype(np.float32) / np.sqrt(fan_in)

    def affine(c):
        gain = rng.uniform(0.5, 1.5, c) * rng.choice([-1, 1], c)
        return GroupNormAffine(gain.astype(np.float32), rng.uniform(-0.3, 0.3, c).astype(np.float32))

    return PcdcBlockParams(
        norm=affine(d),
        pcdc=PcdcParams(uniform((kernel * kernel, d // groups, l_out), kernel * kernel * d // groups),
                        rng.uniform(-0.3, 0.3, l_out).astype(np.float32)),
        comp=CompressorParams(uniform((hidden, l_out // 4), l_out // 4),
                              rng.uniform(-0.3, 0.3, hidden).astype(np.float32),
                              affine(hidden), uniform((kernel * kernel, hidden), hidden),
                              rng.uniform(-0.3, 0.3, kernel * kernel).astype(np.float32)),
    )


class TestProjectedBlock:
    """pcdc_block_projected: the detail block from the guide's channels,
    against pcdc_block on the projected maps it never makes."""

    @pytest.mark.parametrize("c_guide", [1, 3, 4, 32, 48])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_matches_the_block_on_the_projected_maps(self, c_guide, kernel, groups):
        # D = 8: the guides of 32 and 48 channels pass q itself with P = I
        rng = np.random.default_rng(100 * c_guide + 10 * kernel + groups)
        block = fan_in_block(rng, kernel, groups)
        y = FeatureMap(rng.random((11, 13, c_guide), dtype=np.float32))
        weight = rng.standard_normal((8, c_guide)).astype(np.float32) / np.sqrt(c_guide)
        bias = rng.uniform(-0.5, 0.5, 8).astype(np.float32)
        q = grouped_pointwise_conv(y, weight, bias)
        if c_guide < 8:
            y_gs = gaussian_smooth3(y)
            got = pcdc_block_projected(y, y_gs, weight, bias, block, 2)
            q_gs = grouped_pointwise_conv(y_gs, weight, bias)
            exact = (y.astype64() @ weight.T.astype(np.float64) + bias,
                     y_gs.astype64() @ weight.T.astype(np.float64) + bias)
        else:
            q_gs = gaussian_smooth3(q)
            got = pcdc_block_projected(q, q_gs, np.eye(8, dtype=np.float32), np.zeros(8, np.float32), block, 2)
            exact = (q.astype64(), q_gs.astype64())
        # float32 pcdc_block is itself up to 1e-6 off the block's float64
        # definition on these maps, so the factored block is held to that
        # definition within 1e-6 and to pcdc_block within pcdc_block's own
        # error plus 1e-6
        want, definition = pcdc_block(q, q_gs, block, 2).data, score_block(*exact, block, 2)
        assert max_rel_error(got.data, definition) <= 1e-6
        assert max_rel_error(got.data, want) <= max_rel_error(want, definition) + 1e-6

    def test_wide_source_peak(self):
        # Traced peak above entry at 256x256x32 with (q, G(q), I, 0): 18.37
        # MiB, set in the compressor beside the 8 MiB difference map; 20.36
        # MiB when the edge-padded copy of G(q) lives through the compressor.
        rng = np.random.default_rng(105)
        block = generate_params(32, 4, seed=1).block_d
        q = FeatureMap(rng.random((256, 256, 32), dtype=np.float32))
        q_gs = gaussian_smooth3(q)
        eye, zero = np.eye(32, dtype=np.float32), np.zeros(32, np.float32)
        assert traced_peak(lambda: pcdc_block_projected(q, q_gs, eye, zero, block, 4)) <= 19.4 * 2**20

    def test_guides_and_weight_must_agree(self):
        rng = np.random.default_rng(102)
        block = rand_block(rng)
        y = FeatureMap(rng.random((6, 7, 3), dtype=np.float32))
        with pytest.raises(ShapeMismatch):
            pcdc_block_projected(y, FeatureMap(np.zeros((6, 6, 3))), np.ones((8, 3)), np.zeros(8), block, 1)
        with pytest.raises(ShapeMismatch):
            pcdc_block_projected(y, y, np.ones((8, 4)), np.zeros(8), block, 1)

    @pytest.mark.parametrize(
        "weight, bias, error",
        [
            (np.full((8, 3), np.nan), np.zeros(8), NonFiniteInput),
            (np.ones((8, 3), complex), np.zeros(8), ShapeMismatch),
            (np.ones((8, 3)), np.zeros(8, complex), ShapeMismatch),
            (np.ones((8, 3)), np.zeros(5), ShapeMismatch),
        ],
    )
    def test_weight_and_bias_take_the_model_array_rule(self, weight, bias, error):
        rng = np.random.default_rng(103)
        y = FeatureMap(rng.random((6, 7, 3), dtype=np.float32))
        with pytest.raises(error):
            pcdc_block_projected(y, y, weight, bias, rand_block(rng), 1)

    def test_takes_nested_lists(self):
        rng = np.random.default_rng(104)
        block, y = rand_block(rng), FeatureMap(rng.random((6, 7, 3), dtype=np.float32))
        weight, bias = rng.standard_normal((8, 3)).astype(np.float32), rng.uniform(-0.5, 0.5, 8).astype(np.float32)
        want = pcdc_block_projected(y, y, weight, bias, block, 2).data.tobytes()
        assert pcdc_block_projected(y, y, weight.tolist(), bias.tolist(), block, 2).data.tobytes() == want


class TestResizedKeyBlock:
    """pcdc_block_resized_key: the semantic block with its key taps at low
    resolution."""

    @pytest.mark.parametrize(
        "h, w, ratio, kernel, groups",
        [(5, 4, 3, 5, 2), (2, 1, 7, 5, 4), (1, 1, 4, 3, 1), (6, 9, 2, 3, 8), (3, 3, 1, 5, 1), (4, 7, 5, 3, 2)],
    )
    def test_key_taps_equal_the_taps_of_the_resized_key_in_float64(self, h, w, ratio, kernel, groups):
        # odd ratios, K = 5, maps smaller than the kernel's reach; the one
        # pixel of extension around the LR grid is what makes the outer
        # ratio / 2 HR rows and columns exact
        rng = np.random.default_rng(h * 100 + w * 10 + ratio)
        k = rng.standard_normal((h, w, 8))
        weight = rng.standard_normal((kernel * kernel, 8 // groups, 8))
        bias = rng.standard_normal(8)
        want = _pcdc_core(None, _resize_linear(k, ratio * h, ratio * w), weight, bias, ratio)
        assert max_rel_error(_key_taps(k, weight, bias, ratio), want) <= 1e-12

    @pytest.mark.parametrize("ratio", [1, 3, 4])
    def test_matches_the_block_on_the_resized_key(self, ratio):
        rng = np.random.default_rng(110 + ratio)
        block = fan_in_block(rng, 3, 4)
        key = rand_map(rng, 5, 6, 8)
        q = rand_map(rng, 5 * ratio, 6 * ratio, 8)
        want = pcdc_block(q, bilinear_resize(key, 5 * ratio, 6 * ratio), block, ratio)
        assert max_rel_error(pcdc_block_resized_key(q, key, block, ratio).data, want.data) <= 1e-6

    def test_query_must_be_ratio_times_the_key(self):
        rng = np.random.default_rng(113)
        with pytest.raises(ShapeMismatch):
            pcdc_block_resized_key(rand_map(rng, 8, 9, 8), rand_map(rng, 4, 4, 8), rand_block(rng), 2)

    @pytest.mark.parametrize("ratio", [True, 4.0, "4", 0])
    def test_ratio_must_be_an_integer_of_at_least_one(self, ratio):
        # True would run as ratio 1 on a query of the key's size
        rng = np.random.default_rng(114)
        q, key = rand_map(rng, 4, 4, 8), rand_map(rng, 4, 4, 8)
        with pytest.raises(ShapeMismatch):
            pcdc_block_resized_key(q if ratio is True else rand_map(rng, 16, 16, 8), key, rand_block(rng), ratio)

    def test_ratio_may_be_a_numpy_integer(self):
        rng = np.random.default_rng(115)
        q, key, block = rand_map(rng, 4, 6, 8), rand_map(rng, 2, 3, 8), rand_block(rng)
        want = pcdc_block_resized_key(q, key, block, 2).data.tobytes()
        assert pcdc_block_resized_key(q, key, block, np.int64(2)).data.tobytes() == want
