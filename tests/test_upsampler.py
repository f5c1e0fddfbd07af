"""End-to-end pipeline: projections, score assembly, kernel application."""

import dataclasses
import functools
import hashlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from innerprod_reference import innerprod_chain

import resfu
from resfu import pcdc, upsampler
from resfu.guided_filter import GuidedFilterConfig, guided_filter
from resfu.ops import (
    GroupNormAffine,
    ShapeMismatch,
    _resize_linear,
    bilinear_resize,
    neighbor_offsets,
    softmax_rows,
)
from resfu.oracle import max_rel_error, oracle_gather_neighbors, oracle_kernel_apply_gridwise
from resfu.params_io import serialize_params
from resfu.pcdc import CompressorParams, PcdcBlockParams, PcdcParams, pcdc_block, pcdc_layer
from resfu.selfcheck import zeroed_score_params
from resfu.tensor import FeatureMap
from resfu.upsampler import (
    PCDC_CHANNELS,
    PROJ_DIM,
    NonFiniteInput,
    ProjectionParams,
    RatioMismatch,
    ResfuParams,
    RowNotNormalized,
    UpsampleConfig,
    _apply_fused,
    _apply_naive,
    _window_taps,
    generate_params,
    inner_product_scores,
    kernel_apply_fns,
    project_qk,
    resfu_upsample,
    run_pipeline,
)

GF_MODULE = sys.modules["resfu.guided_filter"]  # the package binds the function to that name


def fm(values):
    return FeatureMap(np.asarray(values, np.float32))


def rand_map(rng, h, w, c):
    return fm(rng.standard_normal((h, w, c)))


def small_params(rng, d=8, l_out=8, hidden=16, kernel=3):
    """Hand-sized parameter bundle (compact blocks, same structure)."""

    def block():
        return PcdcBlockParams(
            norm=GroupNormAffine(np.ones(d, np.float32), np.zeros(d, np.float32)),
            pcdc=PcdcParams(
                weight=rng.standard_normal((kernel * kernel, d // 2, l_out)).astype(np.float32) * 0.2,
                bias=rng.standard_normal(l_out).astype(np.float32) * 0.1,
            ),
            comp=CompressorParams(
                conv1_weight=rng.standard_normal((hidden, l_out // 4)).astype(np.float32) * 0.3,
                conv1_bias=rng.standard_normal(hidden).astype(np.float32) * 0.1,
                norm=GroupNormAffine(np.ones(hidden, np.float32), np.zeros(hidden, np.float32)),
                conv2_weight=rng.standard_normal((kernel * kernel, hidden)).astype(np.float32) * 0.3,
                conv2_bias=rng.standard_normal(kernel * kernel).astype(np.float32) * 0.1,
            ),
        )

    proj = ProjectionParams(
        weight_q=rng.standard_normal((d, 5)).astype(np.float32) * 0.4,
        bias_q=rng.standard_normal(d).astype(np.float32) * 0.1,
        weight_k=rng.standard_normal((d, 6)).astype(np.float32) * 0.4,
        bias_k=rng.standard_normal(d).astype(np.float32) * 0.1,
    )
    return ResfuParams(proj=proj, block_s=block(), block_d=block())


class TestProjectQk:
    def test_identity_weight_returns_guide(self):
        rng = np.random.default_rng(0)
        y = rand_map(rng, 5, 4, 6)
        x = rand_map(rng, 3, 3, 2)
        proj = ProjectionParams(
            weight_q=np.eye(6, dtype=np.float32),
            bias_q=np.zeros(6, np.float32),
            weight_k=rng.standard_normal((6, 2)).astype(np.float32),
            bias_k=np.zeros(6, np.float32),
        )
        q, _ = project_qk(x, y, proj)
        assert np.array_equal(q.data, y.data)

    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(1)
        proj = ProjectionParams(
            weight_q=np.zeros((4, 3), np.float32),
            bias_q=np.zeros(4, np.float32),
            weight_k=np.zeros((4, 2), np.float32),
            bias_k=np.zeros(4, np.float32),
        )
        q, k = project_qk(rand_map(rng, 3, 2, 2), rand_map(rng, 6, 4, 3), proj)
        assert not q.data.any() and not k.data.any()

    def test_matches_dense_matmul(self):
        rng = np.random.default_rng(2)
        x, y = rand_map(rng, 4, 5, 3), rand_map(rng, 8, 10, 7)
        proj = ProjectionParams(
            weight_q=rng.standard_normal((5, 7)).astype(np.float32),
            bias_q=rng.standard_normal(5).astype(np.float32),
            weight_k=rng.standard_normal((5, 3)).astype(np.float32),
            bias_k=rng.standard_normal(5).astype(np.float32),
        )
        q, k = project_qk(x, y, proj)
        want_q = y.astype64().reshape(-1, 7) @ proj.weight_q.astype(np.float64).T + proj.bias_q
        want_k = x.astype64().reshape(-1, 3) @ proj.weight_k.astype(np.float64).T + proj.bias_k
        assert max_rel_error(q.astype64().reshape(-1, 5), want_q) <= 1e-6
        assert max_rel_error(k.astype64().reshape(-1, 5), want_k) <= 1e-6

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        params = small_params(rng)
        with pytest.raises(ShapeMismatch, match="^guide has 9 channels, weight_q expects 5"):
            project_qk(rand_map(rng, 2, 2, 6), rand_map(rng, 4, 4, 9), params.proj)
        with pytest.raises(ShapeMismatch, match="^input has 4 channels, weight_k expects 6"):
            project_qk(rand_map(rng, 2, 2, 4), rand_map(rng, 4, 4, 5), params.proj)

    @pytest.mark.parametrize("which", ["input", "guide"])
    def test_overflowing_projection_names_the_map(self, which):
        # it warned, then failed the kernel row check with "off by nan"
        rng = np.random.default_rng(4)
        maps = {"input": rand_map(rng, 4, 4, 3), "guide": rand_map(rng, 8, 8, 2)}
        maps[which] = FeatureMap(np.full(maps[which].shape, 3e38, np.float32))
        with pytest.raises(NonFiniteInput, match=f"^projecting the {which} overflows float32"):
            resfu_upsample(maps["input"], maps["guide"], generate_params(3, 2), UpsampleConfig(ratio=2))

    def test_large_finite_maps_still_upsample(self):
        rng = np.random.default_rng(5)
        x, y = (FeatureMap(1e30 * rand_map(rng, *shape).data) for shape in ((4, 4, 3), (8, 8, 2)))
        out = resfu_upsample(x, y, generate_params(3, 2), UpsampleConfig(ratio=2))
        assert np.isfinite(out.data).all()

    def test_misshapen_projections_rejected(self):
        good = dict(weight_q=np.zeros((4, 5)), bias_q=np.zeros(4), weight_k=np.zeros((4, 6)), bias_k=np.zeros(4))
        with pytest.raises(ShapeMismatch, match=r"^weight_k must have rank 2, got shape \(24,\)"):
            ProjectionParams(**{**good, "weight_k": np.zeros(24)})
        for field, value in (("weight_k", np.zeros((3, 6))), ("bias_q", np.zeros(5))):
            with pytest.raises(ShapeMismatch, match="^projection tensors disagree on the output dimension"):
                ProjectionParams(**{**good, field: value})


class TestComputeSimilarity:
    """The similarity scores as run_pipeline computes them."""

    def _run(self, params, seed, h=4, w=5, ratio=2):
        rng = np.random.default_rng(seed)
        x = rand_map(rng, h, w, 6)
        y = rand_map(rng, h * ratio, w * ratio, 5)
        return run_pipeline(x, y, params, UpsampleConfig(ratio=ratio))

    def test_zeroed_blocks_zero_scores(self):
        res = self._run(zeroed_score_params(small_params(np.random.default_rng(10))), 10)
        assert not res.scores.data.any()

    def test_zeroed_detail_branch_leaves_semantic_alone(self):
        params = small_params(np.random.default_rng(11))
        lone = dataclasses.replace(params, block_d=zeroed_score_params(params).block_d)
        res = self._run(lone, 11)
        assert not res.s_d.data.any()
        assert np.array_equal(res.scores.data, res.s_s.data)

    def test_matches_staged_composition(self):
        # the pipeline takes the guided filter's box statistics and both
        # blocks' input norms from the guide's channels and the LR key,
        # which rounds differently from the chain on the D-channel maps
        params = small_params(np.random.default_rng(12))
        res = self._run(params, 12, h=3, w=2, ratio=3)
        q_gf = guided_filter(res.q, res.k_up, GuidedFilterConfig())
        s_s = pcdc_block(q_gf, res.k_up, params.block_s, 3)
        s_d = pcdc_block(res.q, res.q_gs, params.block_d, 3)
        assert max_rel_error(res.q_gf.data, q_gf.data) <= 1e-6
        assert max_rel_error(res.s_s.data, s_s.data) <= 1e-6
        assert max_rel_error(res.s_d.data, s_d.data) <= 1e-6
        assert np.array_equal(res.scores.data, res.s_s.data + res.s_d.data)

    def test_scores_are_sum_of_blocks(self):
        res = self._run(small_params(np.random.default_rng(13)), 13)
        assert np.array_equal(res.scores.data, res.s_s.data + res.s_d.data)


STAGE_ORDER = ("q", "k", "k_up", "q_gf", "s_s", "q_gs", "s_d", "scores", "kernels")


class TestRunPipelineSink:
    def _inputs(self, seed):
        rng = np.random.default_rng(seed)
        return rand_map(rng, 5, 4, 6), rand_map(rng, 15, 12, 5), small_params(rng)

    def test_sink_gets_each_name_once_in_stage_order(self):
        x, y, params = self._inputs(14)
        collected = run_pipeline(x, y, params, UpsampleConfig(ratio=3))
        seen = []
        res = run_pipeline(x, y, params, UpsampleConfig(ratio=3),
                           sink={name: lambda fmap, name=name: seen.append((name, fmap)) for name in STAGE_ORDER})
        assert [name for name, _ in seen] == list(STAGE_ORDER)
        for name, fmap in seen:
            assert fmap.data.tobytes() == getattr(collected, name).data.tobytes()
        assert all(getattr(res, name) is None for name in STAGE_ORDER)

    @pytest.mark.parametrize("fused", [True, False])
    def test_sink_output_bytes_equal_collected(self, fused):
        x, y, params = self._inputs(15)
        collected = run_pipeline(x, y, params, UpsampleConfig(ratio=3), fused=fused)
        streamed = run_pipeline(x, y, params, UpsampleConfig(ratio=3), fused=fused, sink={})
        assert streamed.output.data.tobytes() == collected.output.data.tobytes()

    def test_sink_naming_a_subset_gets_those_maps_in_stage_order(self):
        x, y, params = self._inputs(16)
        collected = run_pipeline(x, y, params, UpsampleConfig(ratio=3))
        seen = []
        named = ("kernels", "q_gf", "q", "s_d")  # out of stage order
        res = run_pipeline(x, y, params, UpsampleConfig(ratio=3),
                           sink={name: lambda fmap, name=name: seen.append((name, fmap)) for name in named})
        assert [name for name, _ in seen] == ["q", "q_gf", "s_d", "kernels"]
        for name, fmap in seen:
            assert fmap.data.tobytes() == getattr(collected, name).data.tobytes()
        assert all(getattr(res, name) is None for name in STAGE_ORDER)
        assert res.output.data.tobytes() == collected.output.data.tobytes()

    @pytest.mark.parametrize("name", ["qgs", "output"])
    def test_unknown_name_raises_before_any_stage(self, monkeypatch, name):
        x, y, params = self._inputs(17)

        def project_qk(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(upsampler, "project_qk", project_qk)
        with pytest.raises(ValueError, match="not among the intermediates"):
            run_pipeline(x, y, params, UpsampleConfig(ratio=3), sink={"q": print, name: print})

    @pytest.mark.parametrize("sink", [["q"], {"q"}, {"q": 1}, {"q": None}], ids=["list", "set", "int", "none"])
    def test_a_sink_that_is_not_a_mapping_of_callables_raises_before_any_stage(self, monkeypatch, sink):
        # a list or set of names passes the name check, and a non-callable
        # would fail only at its map's observe, after stages have run
        x, y, params = self._inputs(17)

        def project_qk(*args):
            raise AssertionError("a stage ran")

        monkeypatch.setattr(upsampler, "project_qk", project_qk)
        with pytest.raises(ValueError, match="sink must map names to callables"):
            run_pipeline(x, y, params, UpsampleConfig(ratio=3), sink=sink)

    def test_q_gs_is_projected_only_when_named(self, monkeypatch):
        # a guide of C_g < D: the detail block works on the guide, so only
        # the observer reads q_gs = P G(y) + b
        x, y, params = self._inputs(18)
        assert y.channels < params.proj.dim
        collected = run_pipeline(x, y, params, UpsampleConfig(ratio=3))
        calls = []
        real = upsampler.grouped_pointwise_conv
        monkeypatch.setattr(upsampler, "grouped_pointwise_conv", lambda *args: calls.append(1) or real(*args))
        resfu_upsample(x, y, params, UpsampleConfig(ratio=3))
        assert len(calls) == 2  # q and k
        calls.clear()
        seen = []
        run_pipeline(x, y, params, UpsampleConfig(ratio=3), sink={"q_gs": seen.append})
        assert len(calls) == 3  # q, k and q_gs
        assert [fmap.data.tobytes() for fmap in seen] == [collected.q_gs.data.tobytes()]

    @pytest.mark.parametrize("c_guide, similarity, sink, made, filtered", [
        (3, "pcdc", {}, 0, 0),  # the filter's moment recipe resizes the key by tiles
        (3, "pcdc", {"k_up": print}, 1, 0),  # the observer reads it whole
        (3, "innerprod", {}, 1, 0),  # the inner-product scores read it whole
        (16, "pcdc", {}, 0, 1),  # C_g (C_g + 3) >= 3 D: the filter's D-channel recipe resizes it whole
    ])
    def test_k_up_is_made_whole_only_when_read_whole(self, monkeypatch, c_guide, similarity, sink, made, filtered):
        rng = np.random.default_rng(20 + c_guide)
        x, y = rand_map(rng, 6, 5, 7), FeatureMap(rng.random((24, 20, c_guide), dtype=np.float32))
        params, cfg = generate_params(c_in=7, c_guide=c_guide), UpsampleConfig(ratio=4)
        want = run_pipeline(x, y, params, cfg, similarity=similarity).output.data.tobytes()
        calls, in_filter = [], []
        real = upsampler.bilinear_resize
        monkeypatch.setattr(upsampler, "bilinear_resize", lambda *args: calls.append(args[1:]) or real(*args))
        monkeypatch.setattr(GF_MODULE, "bilinear_resize", lambda *args: in_filter.append(args[1:]) or real(*args))
        out = run_pipeline(x, y, params, cfg, similarity=similarity, sink=sink).output
        assert calls == [(24, 20)] * made
        assert in_filter == [(24, 20)] * filtered
        assert out.data.tobytes() == want

    @pytest.mark.parametrize("c_guide, general", [(3, 0), (4, 0), (8, 0), (9, 1), (12, 1), (16, 1), (48, 1)])
    def test_the_guided_filter_picks_its_recipe_by_the_guide_width(self, monkeypatch, c_guide, general):
        # D = 32: the guide's moments while C_g (C_g + 3) < 3 D, else the
        # D-channel maps through the general filter
        rng = np.random.default_rng(50 + c_guide)
        x, y = rand_map(rng, 6, 5, 7), FeatureMap(rng.random((24, 20, c_guide), dtype=np.float32))
        params = generate_params(c_in=7, c_guide=c_guide)
        calls, real = [], GF_MODULE.guided_filter
        monkeypatch.setattr(GF_MODULE, "guided_filter", lambda *args: calls.append(1) or real(*args))
        resfu_upsample(x, y, params, UpsampleConfig(ratio=4))
        assert len(calls) == general


def test_the_benchmark_calls():
    # perfbench (outside tier-1's test paths) drives resfu through exactly
    # these two calls and reads every field of the collected result
    rng = np.random.default_rng(19)
    x = rand_map(rng, 8, 8, 6)
    y = FeatureMap(rng.random((32, 32, 3), dtype=np.float32))
    params, cfg = generate_params(c_in=6, c_guide=3), UpsampleConfig(ratio=4)
    lean = resfu.resfu_upsample(x, y, params, cfg, fused=True, threads=1)
    assert lean.shape == (32, 32, 6)
    result = resfu.run_pipeline(x, y, params, cfg, fused=False, threads=1)
    assert result.kernels.shape == (32, 32, 9) and result.output.shape == (32, 32, 6)
    for field in dataclasses.fields(result):
        assert isinstance(getattr(result, field.name), FeatureMap), field.name
    assert max_rel_error(result.output.astype64(), lean.astype64()) <= 1e-5


class TestRunPipelineRows:
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("side, c, c_guide, ratio", [(13, 5, 3, 3), (64, 32, 4, 4), (9, 6, 4, 1)])
    def test_bands_concatenate_to_the_upsampled_bytes(self, side, c, c_guide, ratio, fused):
        # fused: one (ratio, W, C) band per row of input cells, from one
        # reused buffer; naive: the whole output as one band
        rng = np.random.default_rng(side + ratio)
        x = rand_map(rng, side, side, c)
        y = FeatureMap(rng.random((side * ratio, side * ratio, c_guide), dtype=np.float32))
        params = generate_params(c_in=c, c_guide=c_guide, seed=1)
        cfg = UpsampleConfig(ratio=ratio)
        bands = []
        res = run_pipeline(x, y, params, cfg, fused=fused, sink={},
                           rows=lambda band: bands.append(band.copy()))
        assert res.output is None
        assert [band.shape for band in bands] == (
            [(ratio, side * ratio, c)] * side if fused else [(side * ratio, side * ratio, c)])
        assert all(band.dtype == np.float32 for band in bands)
        want = resfu_upsample(x, y, params, cfg, fused=fused)
        assert np.concatenate(bands).tobytes() == want.data.tobytes()

    def test_streamed_fused_apply_allocates_no_output(self):
        # 8x8x384 -> 64x64 at ratio 8: the traced peak of a streamed apply
        # is its one-band buffer and scratch, below a quarter of the 6 MiB
        # output it emits
        rng = np.random.default_rng(27)
        x = rand_map(rng, 8, 8, 384)
        weights = softmax_rows(rand_map(rng, 64, 64, 9))
        out_bytes = 64 * 64 * 384 * 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert kernel_apply_fns(weights, x, rows=lambda band: None) is None
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < out_bytes / 4


class TestKernelApplyFns:
    def _one_hot(self, h, w, kernel=3, slot=None):
        slot = (kernel * kernel - 1) // 2 if slot is None else slot
        weights = np.zeros((h, w, kernel * kernel), np.float32)
        weights[:, :, slot] = 1.0
        return FeatureMap(weights)

    def test_center_one_hot_is_bilinear_resize(self):
        # the naive path resizes, so it is the resize bit for bit; the fused
        # path folds the row and column weights into one product per sample
        rng = np.random.default_rng(20)
        x = rand_map(rng, 5, 4, 3)
        for ratio in (2, 4):
            weights = self._one_hot(5 * ratio, 4 * ratio)
            want = bilinear_resize(x, 5 * ratio, 4 * ratio).data
            assert np.array_equal(kernel_apply_fns(weights, x, fused=False).data, want)
            assert max_rel_error(kernel_apply_fns(weights, x).data, want) <= 1e-6

    def test_uniform_weights_box_average(self):
        rng = np.random.default_rng(21)
        x = rand_map(rng, 6, 5, 4)
        ratio = 3
        h, w = 18, 15
        weights = FeatureMap(np.full((h, w, 9), 1.0 / 9.0, np.float32))
        out = kernel_apply_fns(weights, x)
        x_up = bilinear_resize(x, h, w)
        want = oracle_gather_neighbors(x_up, 3, ratio).mean(axis=1)
        assert max_rel_error(out.astype64().reshape(-1, 4), want) <= 1e-6

    def test_ratio_one_center_identity(self):
        rng = np.random.default_rng(22)
        x = rand_map(rng, 7, 6, 2)
        out = kernel_apply_fns(self._one_hot(7, 6), x)
        assert np.array_equal(out.data, x.data)

    def test_matches_neighbor_gather_oracle(self):
        rng = np.random.default_rng(23)
        x = rand_map(rng, 5, 6, 3)
        ratio = 2
        weights = softmax_rows(rand_map(rng, 10, 12, 9))
        for fused in (True, False):
            out = kernel_apply_fns(weights, x, fused=fused)
            x_up = bilinear_resize(x, 10, 12)
            gathered = oracle_gather_neighbors(x_up, 3, ratio)
            want = np.einsum("pn,pnc->pc", weights.astype64().reshape(-1, 9), gathered)
            assert max_rel_error(out.astype64().reshape(-1, 3), want) <= 1e-5

    def test_fused_equals_naive_bitwise(self):
        # fused == naive to 1e-6 (the paths round differently), and the
        # fused bits repeat from call to call
        rng = np.random.default_rng(24)
        for ratio, h, w, c in ((1, 9, 7, 3), (2, 6, 5, 4), (4, 5, 3, 2), (8, 4, 4, 1)):
            x = rand_map(rng, h, w, c)
            weights = softmax_rows(rand_map(rng, h * ratio, w * ratio, 9))
            fused = kernel_apply_fns(weights, x, fused=True)
            naive = kernel_apply_fns(weights, x, fused=False)
            assert max_rel_error(fused.data, naive.data) <= 1e-6
            assert fused.data.tobytes() == kernel_apply_fns(weights, x).data.tobytes()

    # Ids: ratio, h, w, c, K, and the row-tile size that the first two
    # cases were chosen for when the fused apply ran in row tiles.
    @pytest.mark.parametrize(
        "ratio,h,w,c,kernel",
        [
            pytest.param(4, 3, 4, 2100, 3, id="4-3-4-2100-3-1"),  # 2100 channels in one BLAS piece
            pytest.param(4, 11, 18, 48, 3, id="4-11-18-48-3-18"),  # 11 rows of 18 cells
            pytest.param(8, 2, 3, 5, 5, id="8-2-3-5-5-None"),  # K = 5 reaches past both edges
            pytest.param(8, 1, 2, 3, 3, id="8-1-2-3-3-None"),  # one row of cells: every row tap clamps
            pytest.param(16, 5, 2, 3, 3, id="16-5-2-3-3-None"),
            pytest.param(32, 2, 1, 2, 3, id="32-2-1-2-3-None"),  # one column of cells
            pytest.param(32, 1, 2, 400, 3, id="32-1-2-400-3-None"),  # 32 x 25 x 400: two BLAS pieces
        ],
    )
    def test_fused_equals_naive_across_tiles(self, ratio, h, w, c, kernel):
        rng = np.random.default_rng(27)
        x = rand_map(rng, h, w, c)
        weights = softmax_rows(rand_map(rng, h * ratio, w * ratio, kernel * kernel))
        naive = kernel_apply_fns(weights, x, fused=False)
        fused = kernel_apply_fns(weights, x, fused=True)
        assert max_rel_error(fused.data, naive.data) <= 1e-6

    def test_window_taps_interpolate_the_dilated_samples(self):
        # tap d of output index i, applied to the K + 2 window that starts
        # at i // ratio - 1 - (K-1)/2 (clamped), is the linear resize at
        # clip(i + (d - (K-1)/2) * ratio); its weights sum to one
        rng = np.random.default_rng(29)
        for kernel in (1, 3, 5):
            half = (kernel - 1) // 2
            for ratio in range(1, 33):
                for n_in in range(1, 8):
                    n_out = ratio * n_in
                    signal = rng.standard_normal(n_in)
                    resized = _resize_linear(signal[:, None, None], n_out, 1)[:, 0, 0]
                    taps = _window_taps(n_in, ratio, kernel).astype(np.float64)
                    assert taps.shape == (kernel, kernel + 2, n_out)
                    assert taps.min() >= 0.0
                    assert np.allclose(taps.sum(axis=1), 1.0, rtol=0, atol=1e-6)
                    i = np.arange(n_out)
                    window = np.clip(i // ratio - 1 - half + np.arange(kernel + 2)[:, None], 0, n_in - 1)
                    got = np.einsum("dui,ui->di", taps, signal[window])
                    at = np.clip(i + (np.arange(kernel)[:, None] - half) * ratio, 0, n_out - 1)
                    assert np.allclose(got, resized[at], rtol=0, atol=1e-6), (kernel, ratio, n_in)

    def test_unnormalized_rows_rejected(self):
        x = fm(np.ones((2, 2, 1)))
        weights = FeatureMap(np.full((4, 4, 9), 0.2, np.float32))
        with pytest.raises(RowNotNormalized):
            kernel_apply_fns(weights, x)

    def test_nan_weight_rejected(self):
        x = fm(np.ones((2, 2, 1)))
        weights = self._one_hot(4, 4).data.copy()
        weights[1, 2, 4] = np.nan
        with pytest.raises(RowNotNormalized):
            kernel_apply_fns(FeatureMap(weights), x)

    def test_dim_checks(self):
        x = fm(np.ones((2, 2, 1)))
        with pytest.raises(ShapeMismatch):
            kernel_apply_fns(FeatureMap(np.ones((4, 4, 8), np.float32)), x)
        for fused in (True, False):  # 4 slots, but K = 2 has no center
            with pytest.raises(ShapeMismatch):
                kernel_apply_fns(FeatureMap(np.full((4, 4, 4), 0.25, np.float32)), x, fused=fused)

    @pytest.mark.parametrize("h,w", [
        (1, 1), (2, 1), (1, 2),  # smaller than x
        (5, 5), (6, 5), (5, 4),  # no integer multiple of x
        (4, 6), (6, 4), (2, 4),  # different multiples on the two axes
    ])
    def test_ratio_comes_from_the_weights_grid(self, h, w):
        x = fm(np.ones((2, 2, 1)))
        for fused in (True, False):
            with pytest.raises(RatioMismatch, match=f"weights are {h}x{w}, not one integer multiple"):
                kernel_apply_fns(self._one_hot(h, w), x, fused=fused)
        with pytest.raises(ShapeMismatch, match=f"grid: {h}x{w} is not one integer multiple of 2x2"):
            _apply_naive(self._one_hot(h, w).data, x.data)

    def test_takes_no_positional_ratio(self):
        # an old caller's ratio must not be taken for `fused`
        x = fm(np.ones((2, 2, 1)))
        with pytest.raises(TypeError):
            kernel_apply_fns(self._one_hot(4, 4), x, 2)

    @pytest.mark.parametrize("slots", [1, 9, 25])
    def test_kernel_comes_from_the_slot_count(self, slots):
        # at ratio 1 fine-grained and grid-wise selection coincide, so the
        # oracle, which reads K from the slot count on its own, is the reference
        rng = np.random.default_rng(30 + slots)
        x = rand_map(rng, 5, 6, 2)
        weights = softmax_rows(rand_map(rng, 5, 6, slots))
        want = oracle_kernel_apply_gridwise(weights, x)
        for fused in (False, True):
            assert max_rel_error(kernel_apply_fns(weights, x, fused=fused).data, want) <= 1e-6

    @pytest.mark.parametrize("slots", [2, 4, 8, 16])
    def test_rejects_a_slot_count_that_is_no_odd_square(self, slots):
        x = fm(np.ones((2, 2, 1)))
        weights = FeatureMap(np.full((4, 4, slots), 1 / slots, np.float32))
        for fused in (True, False):
            with pytest.raises(ShapeMismatch, match=f"{slots} neighbor slots is not an odd kernel squared"):
                kernel_apply_fns(weights, x, fused=fused)
        for apply in (_apply_naive, lambda w, v: _apply_fused(w, v, 2)):
            with pytest.raises(ShapeMismatch, match=f"{slots} neighbor slots is not an odd kernel squared"):
                apply(weights.data, x.data)

    def test_fused_skips_full_upsampled_buffer(self):
        # traced peak minus the output: the fused path's scratch stays below
        # one upsampled map, the naive path holds more than one
        rng = np.random.default_rng(26)
        x = rand_map(rng, 64, 64, 8).data
        weights = softmax_rows(rand_map(rng, 256, 256, 9)).data
        one_map = 256 * 256 * 8 * 4
        scratch = {}
        for name, apply in (("fused", lambda: _apply_fused(weights, x, 4)),
                            ("naive", lambda: _apply_naive(weights, x))):
            tracemalloc.start()
            try:
                out = apply()
                scratch[name] = tracemalloc.get_traced_memory()[1] - out.nbytes
            finally:
                tracemalloc.stop()
        assert scratch["fused"] < one_map < scratch["naive"]

    def test_fused_scratch_stays_small_with_many_channels(self):
        # 8x8x384 -> 64x64 at ratio 8: the fused path's traced scratch stays
        # below a quarter of its 6 MiB output (an edge-padded sample strip
        # of 48 output rows would be about 1.2 outputs)
        rng = np.random.default_rng(25)
        x = rand_map(rng, 8, 8, 384).data
        weights = softmax_rows(rand_map(rng, 64, 64, 9)).data
        tracemalloc.start()
        try:
            out = _apply_fused(weights, x, 8)
            scratch = tracemalloc.get_traced_memory()[1] - out.nbytes
        finally:
            tracemalloc.stop()
        assert scratch < out.nbytes / 4


def benchmark_case(seed=0):
    """The 64x64x32 -> 256x256 ratio-4 case with a 4-channel guide, made as
    the benchmark makes it."""
    rng = np.random.default_rng(seed)
    x = FeatureMap(rng.standard_normal((64, 64, 32), dtype=np.float32))
    y = FeatureMap(rng.random((256, 256, 4), dtype=np.float32))
    return x, y, generate_params(32, 4, seed=seed)


class TestScoreHeadSources:
    """The score head reads the guide's channels and the LR key; no stage
    before the softmax makes a difference layer, an input group norm or a
    smoothing of a high-resolution D-channel map."""

    def test_lean_upsample_peak(self):
        # tracemalloc peak above entry: 28.0 MiB with the score head on the
        # guide's channels and the key resized by tiles inside the guided
        # filter (35.9 MiB with a whole k_up, 44.9 MiB when the head ran on
        # the D-channel maps), + 10 %
        x, y, params = benchmark_case()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            resfu_upsample(x, y, params, UpsampleConfig(ratio=4))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 28.0 * 2**20

    @pytest.mark.parametrize("c_guide, bound_mib", [(12, 38.0), (48, 1.01 * 37.45)])
    def test_wide_guide_peak(self, c_guide, bound_mib):
        # tracemalloc peak above entry: 37.45 MiB from C_g 9 on, set in the
        # general filter on q and k_up; the guide's moments would hold
        # 44.20 MiB at C_g 12, and a copy of q as the filter's query 45.46
        # MiB at C_g 48
        rng = np.random.default_rng(36)
        x = rand_map(rng, 64, 64, 32)
        y = FeatureMap(rng.random((256, 256, c_guide), dtype=np.float32))
        params = generate_params(c_in=32, c_guide=c_guide)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            resfu_upsample(x, y, params, UpsampleConfig(ratio=4))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20

    @pytest.mark.parametrize("c_guide", [3, 48])
    def test_both_score_blocks_end_in_the_one_compressor(self, monkeypatch, c_guide):
        # the detail block hands its L-channel difference map to
        # pcdc.channel_compressor as the semantic block does, from the
        # guide (C_g 3) and from q itself (C_g 48)
        rng = np.random.default_rng(50 + c_guide)
        x, y = rand_map(rng, 9, 7, 16), fm(rng.random((36, 28, c_guide)))
        params = generate_params(16, c_guide, seed=1)
        shapes, real = [], pcdc.channel_compressor
        monkeypatch.setattr(pcdc, "channel_compressor", lambda v, p: shapes.append(v.shape) or real(v, p))
        resfu_upsample(x, y, params, UpsampleConfig(ratio=4))
        assert shapes == [(36, 28, upsampler.PCDC_CHANNELS)] * 2

    @pytest.mark.parametrize("c_guide", [3, 4])
    def test_no_stage_runs_on_a_high_resolution_d_channel_map(self, monkeypatch, c_guide):
        rng = np.random.default_rng(40 + c_guide)
        x, y = rand_map(rng, 9, 7, 16), fm(rng.random((36, 28, c_guide)))
        params = generate_params(16, c_guide, seed=1)
        shapes = []
        for name in ("pcdc_layer", "group_normalize", "gaussian_smooth3"):
            for module in [m for key, m in sys.modules.items() if key == "resfu" or key.startswith("resfu.")]:
                fn = getattr(module, name, None)
                if fn is not None:
                    monkeypatch.setattr(module, name, functools.partial(
                        lambda fn, src, *args, **kwargs: shapes.append(src.shape) or fn(src, *args, **kwargs), fn))
        run_pipeline(x, y, params, UpsampleConfig(ratio=4))
        assert shapes == [(36, 28, c_guide)]  # the guide's smoothing


class TestResfuUpsample:
    def test_shape_contract(self):
        rng = np.random.default_rng(30)
        params = generate_params(c_in=8, c_guide=4)
        out = resfu_upsample(rand_map(rng, 16, 16, 8), rand_map(rng, 64, 64, 4),
                             params, UpsampleConfig(ratio=4))
        assert out.shape == (64, 64, 8)

    @pytest.mark.parametrize("ratio", [2, 4, 8])
    def test_zeroed_scores_degenerate_box_mean(self, ratio):
        rng = np.random.default_rng(31)
        params = zeroed_score_params(generate_params(c_in=5, c_guide=3))
        x = rand_map(rng, 6, 6, 5)
        y = rand_map(rng, 6 * ratio, 6 * ratio, 3)
        out = resfu_upsample(x, y, params, UpsampleConfig(ratio=ratio))
        x_up = bilinear_resize(x, 6 * ratio, 6 * ratio)
        want = oracle_gather_neighbors(x_up, 3, ratio).mean(axis=1)
        assert max_rel_error(out.astype64().reshape(-1, 5), want) <= 1e-5

    def test_peak_under_ten_outputs(self):
        # Traced peak of one 64x64x32 -> 256x256x32 upsample over its 8 MiB
        # output, on any CPython: 8.0x while the score blocks' inputs stay
        # live to the end of each block's call (below CPython 3.11).
        rng = np.random.default_rng(36)
        x = rand_map(rng, 64, 64, 32)
        y = FeatureMap(rng.random((256, 256, 4), dtype=np.float32))
        params = generate_params(c_in=32, c_guide=4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = resfu_upsample(x, y, params, UpsampleConfig(ratio=4))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 10 * out.data.nbytes

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="older CPython holds call arguments until the call returns")
    def test_discarding_sink_frees_block_inputs_early(self):
        # q is dropped before the guided filter, k_up is never made whole,
        # each map goes after its last reader, the score blocks work from
        # the guide and the LR key, and the compressor holds no hidden map,
        # so the peak is set in the guided filter, which holds its output
        # and its row tiles: about 3.5x the 8 MiB output.  A whole k_up
        # (4.49x) or a q held through the filter fails the bound (5.6x while
        # the detail block's contraction set it, 6.3x while the compressor's
        # 32 MiB hidden map did, 8.0x while the block inputs stayed live to
        # the end of each block).
        rng = np.random.default_rng(36)
        x = rand_map(rng, 64, 64, 32)
        y = FeatureMap(rng.random((256, 256, 4), dtype=np.float32))
        params = generate_params(c_in=32, c_guide=4)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = run_pipeline(x, y, params, UpsampleConfig(ratio=4), sink={}).output
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * out.data.nbytes

    def test_wide_channel_peak_near_output(self):
        # 16x16x384 -> 128x128x384 at ratio 8: with C far above D = 32 the
        # 24 MiB output dwarfs every D-channel map, so the traced peak stays
        # near it (1.48x while run_pipeline kept every intermediate)
        rng = np.random.default_rng(37)
        x = rand_map(rng, 16, 16, 384)
        y = FeatureMap(rng.random((128, 128, 3), dtype=np.float32))
        params = generate_params(c_in=384, c_guide=3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = resfu_upsample(x, y, params, UpsampleConfig(ratio=8))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * out.data.nbytes

    def test_constant_input_preserved(self):
        rng = np.random.default_rng(32)
        for seed in (0, 7):
            params = generate_params(c_in=3, c_guide=4, seed=seed)
            const = fm(np.broadcast_to([1.5, -2.0, 0.25], (5, 4, 3)).copy())
            out = resfu_upsample(const, rand_map(rng, 10, 8, 4), params, UpsampleConfig(ratio=2))
            assert np.max(np.abs(out.data - const.data[0, 0])) <= 1e-5

    def test_kernel_rows_normalized(self):
        rng = np.random.default_rng(33)
        params = generate_params(c_in=4, c_guide=3)
        res = run_pipeline(rand_map(rng, 5, 6, 4), rand_map(rng, 10, 12, 3),
                           params, UpsampleConfig(ratio=2))
        sums = res.kernels.astype64().sum(axis=2)
        assert np.max(np.abs(sums - 1.0)) <= 1e-6

    def test_deterministic_across_runs_and_threads(self):
        rng = np.random.default_rng(34)
        params = generate_params(c_in=6, c_guide=3)
        x = rand_map(rng, 8, 7, 6)
        y = rand_map(rng, 32, 28, 3)
        first = resfu_upsample(x, y, params, UpsampleConfig(ratio=4))
        for threads in (1, 4, 8):
            again = resfu_upsample(x, y, params, UpsampleConfig(ratio=4), threads=threads)
            assert first.data.tobytes() == again.data.tobytes()

    def test_ratio_one_zeroed_scores_is_local_box_mean(self):
        rng = np.random.default_rng(35)
        params = zeroed_score_params(generate_params(c_in=4, c_guide=2))
        x = rand_map(rng, 7, 6, 4)
        out = resfu_upsample(x, rand_map(rng, 7, 6, 2), params, UpsampleConfig(ratio=1))
        want = oracle_gather_neighbors(x, 3, 1).mean(axis=1)
        assert max_rel_error(out.astype64().reshape(-1, 4), want) <= 1e-5

    def test_guide_dims_must_match_ratio(self):
        rng = np.random.default_rng(36)
        params = generate_params(c_in=4, c_guide=2)
        with pytest.raises(RatioMismatch):
            resfu_upsample(rand_map(rng, 5, 5, 4), rand_map(rng, 10, 9, 2),
                           params, UpsampleConfig(ratio=2))

    def test_guide_with_inf_rejected_before_any_stage(self, monkeypatch):
        rng = np.random.default_rng(38)
        params = generate_params(c_in=4, c_guide=2)
        y = rand_map(rng, 10, 10, 2).data.copy()
        y[7, 3, 1] = np.inf

        def no_stage(*args):
            raise AssertionError("a stage ran on a non-finite guide")

        monkeypatch.setattr(upsampler, "project_qk", no_stage)
        for similarity in ("pcdc", "innerprod"):
            with pytest.raises(NonFiniteInput, match="guide"):
                run_pipeline(rand_map(rng, 5, 5, 4), FeatureMap(y), params, UpsampleConfig(ratio=2),
                             similarity=similarity)

    def test_unknown_similarity_rejected_before_any_stage(self, monkeypatch):
        def no_stage(*args):
            raise AssertionError("a stage ran for an unknown similarity")

        monkeypatch.setattr(upsampler, "check_guide", no_stage)
        rng = np.random.default_rng(39)
        for similarity in ("dot", "PCDC", None):
            with pytest.raises(ValueError, match="similarity"):
                run_pipeline(rand_map(rng, 5, 5, 4), rand_map(rng, 10, 10, 2), generate_params(4, 2),
                             UpsampleConfig(ratio=2), similarity=similarity)


class TestInnerProductScores:
    def test_zero_query_uniform_kernels(self):
        rng = np.random.default_rng(40)
        q = fm(np.zeros((4, 5, 6)))
        scores = inner_product_scores(q, rand_map(rng, 4, 5, 6), kernel=3, ratio=2)
        assert not scores.data.any()
        kernels = softmax_rows(scores)
        assert np.allclose(kernels.data, 1.0 / 9.0)

    def test_self_key_center_slot_is_squared_norm(self):
        rng = np.random.default_rng(41)
        q = rand_map(rng, 5, 4, 7)
        scores = inner_product_scores(q, q, kernel=3, ratio=2)
        want = (q.astype64() ** 2).sum(axis=2)
        assert max_rel_error(scores.astype64()[:, :, 4], want) <= 1e-6

    def test_matches_per_slot_dot_oracle(self):
        rng = np.random.default_rng(42)
        q = rand_map(rng, 6, 5, 4)
        k_up = rand_map(rng, 6, 5, 4)
        scores = inner_product_scores(q, k_up, kernel=3, ratio=3)
        gathered = oracle_gather_neighbors(k_up, 3, 3)
        flat_q = q.astype64().reshape(-1, 4)
        want = np.stack([(flat_q * gathered[:, n]).sum(axis=1) for n in range(9)], axis=1)
        assert max_rel_error(scores.astype64().reshape(-1, 9), want) <= 1e-6

    def test_sums_in_float64_and_rounds_once(self):
        # the reference is a float64 score map cast to float32 at the end
        rng = np.random.default_rng(46)
        q, k_up = rand_map(rng, 17, 9, 32), rand_map(rng, 17, 9, 32)
        scores = inner_product_scores(q, k_up, kernel=3, ratio=2)
        padded = np.pad(k_up.astype64(), ((2, 2), (2, 2), (0, 0)), mode="edge")
        want = np.stack([np.einsum("hwd,hwd->hw", q.astype64(), padded[2 + di : 19 + di, 2 + dj : 11 + dj])
                         for di, dj in neighbor_offsets(3, 2)], axis=2)
        assert scores.data.dtype == np.float32
        assert scores.data.tobytes() == want.astype(np.float32).tobytes()

    @pytest.mark.parametrize("ratio", [2.5, 0, True])
    def test_ratio_must_be_a_positive_integer(self, ratio):
        rng = np.random.default_rng(45)
        q = rand_map(rng, 4, 4, 3)
        with pytest.raises(RatioMismatch, match="ratio must be an integer >= 1"):
            inner_product_scores(q, q, kernel=3, ratio=ratio)

    def test_query_and_key_must_match(self):
        rng = np.random.default_rng(47)
        with pytest.raises(ShapeMismatch, match=r"^query \(4, 4, 3\) and key \(4, 5, 3\) must match"):
            inner_product_scores(rand_map(rng, 4, 4, 3), rand_map(rng, 4, 5, 3), kernel=3, ratio=1)

    def test_peak_stays_within_four_query_maps(self):
        # scores are taken slot by slot from shifted views of the key and
        # summed in float64 straight into the float32 result, so no
        # (pixels, K^2, D) gather, no float64 copy of q and no float64
        # score map exist: the edge-padded key and the result are what is left
        rng = np.random.default_rng(44)
        q = rand_map(rng, 64, 64, 32)
        k_up = rand_map(rng, 64, 64, 32)
        tracemalloc.start()
        try:
            inner_product_scores(q, k_up, kernel=3, ratio=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * q.data.nbytes

    def test_baseline_pipeline_shapes_and_rows(self):
        # fused: one (ratio, W, C) band per row of input cells; naive: one band
        rng = np.random.default_rng(43)
        x, y = rand_map(rng, 6, 5, 3), rand_map(rng, 12, 10, 2)
        params = generate_params(c_in=3, c_guide=2)
        for fused in (True, False):
            want = innerprod_chain(x, y, params, 2, fused=fused)["output"]
            bands = []
            res = run_pipeline(x, y, params, UpsampleConfig(ratio=2), fused=fused, similarity="innerprod",
                               sink={}, rows=lambda band: bands.append(band.copy()))
            assert res.output is None
            assert [band.shape for band in bands] == ([(2, 10, 3)] * 6 if fused else [(12, 10, 3)])
            assert np.concatenate(bands).tobytes() == want.data.tobytes()


class TestInnerProductBaseline:
    """run_pipeline(similarity="innerprod") against the hand-built chain."""

    def _inputs(self, seed):
        rng = np.random.default_rng(seed)
        return rand_map(rng, 5, 4, 6), rand_map(rng, 15, 12, 5), small_params(rng)

    @pytest.mark.parametrize("fused", [True, False])
    def test_collected_maps_equal_the_chain_bitwise(self, fused):
        x, y, params = self._inputs(45)
        want = innerprod_chain(x, y, params, 3, fused=fused)
        res = run_pipeline(x, y, params, UpsampleConfig(ratio=3), fused=fused, similarity="innerprod")
        for name, fmap in want.items():
            assert getattr(res, name).data.tobytes() == fmap.data.tobytes(), name
        assert res.q_gf is res.s_s is res.q_gs is res.s_d is None

    @pytest.mark.parametrize("fused", [True, False])
    def test_sink_gets_the_chain_maps_in_stage_order(self, fused):
        x, y, params = self._inputs(46)
        want = innerprod_chain(x, y, params, 3, fused=fused)
        seen = []
        res = run_pipeline(x, y, params, UpsampleConfig(ratio=3), fused=fused, similarity="innerprod",
                           sink={name: lambda fmap, name=name: seen.append((name, fmap.data.tobytes()))
                                 for name in STAGE_ORDER})
        assert [name for name, _ in seen] == ["q", "k", "k_up", "scores", "kernels"]
        assert all(blob == want[name].data.tobytes() for name, blob in seen)
        assert res.output.data.tobytes() == want["output"].data.tobytes()


class TestGenerateParams:
    def test_same_seed_bitwise_identical(self):
        a = generate_params(c_in=8, c_guide=3, seed=42)
        b = generate_params(c_in=8, c_guide=3, seed=42)
        c = generate_params(c_in=8, c_guide=3, seed=43)
        assert serialize_params(a) == serialize_params(b)
        assert serialize_params(a) != serialize_params(c)

    @pytest.mark.parametrize("c_in,c_guide,seed,digest", [
        (6, 4, 0, "7552b1ecd87531424ea23f1f8328ab1a31e6b13283832dbdcd02bd61dd4d34b9"),
        (32, 4, 0, "3f62f60a3840d5208f7c4fb5566bc011a75179273140127c7e9b98e8c11130cf"),  # ratio4_256
        (384, 3, 0, "559524aaf591b85d64087ede60828bd1c886e8f07416c7ebaa64778e2542a5d0"),  # cli_dump_c384_r8
    ])
    def test_bundle_bytes_are_pinned(self, c_in, c_guide, seed, digest):
        # pins the draw order and the file layout: a bundle written before a
        # change to either would no longer be the one its seed names
        blob = serialize_params(generate_params(c_in, c_guide, seed=seed))
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_biases_zero_norms_neutral(self):
        p = generate_params(c_in=4, c_guide=5, seed=9)
        assert not p.proj.bias_q.any() and not p.proj.bias_k.any()
        for block in (p.block_s, p.block_d):
            assert not block.pcdc.bias.any()
            assert not block.comp.conv1_bias.any() and not block.comp.conv2_bias.any()
            for affine in (block.norm, block.comp.norm):
                assert np.array_equal(affine.gamma, np.ones_like(affine.gamma))
                assert not affine.beta.any()

    def test_weight_bounds(self):
        p = generate_params(c_in=10, c_guide=7, seed=5)
        d, l_out = PROJ_DIM, PCDC_CHANNELS
        assert np.max(np.abs(p.proj.weight_q)) <= 1 / np.sqrt(7)
        assert np.max(np.abs(p.proj.weight_k)) <= 1 / np.sqrt(10)
        for block in (p.block_s, p.block_d):
            assert block.pcdc.weight.shape == (9, d // 4, l_out)
            assert np.max(np.abs(block.pcdc.weight)) <= 1 / np.sqrt((d // 4) * 9)
            assert np.max(np.abs(block.comp.conv1_weight)) <= 1 / np.sqrt(l_out // 4)
            assert np.max(np.abs(block.comp.conv2_weight)) <= 1 / np.sqrt(128)

    def test_blocks_differ_between_branches(self):
        p = generate_params(c_in=4, c_guide=4, seed=0)
        assert not np.array_equal(p.block_s.pcdc.weight, p.block_d.pcdc.weight)


class TestConfigValidation:
    def test_bad_ratio(self):
        with pytest.raises(RatioMismatch):
            UpsampleConfig(ratio=0)
        with pytest.raises(RatioMismatch):
            UpsampleConfig(ratio=2.5)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "2", None])
    def test_ratio_rejects_bools_and_non_integers(self, bad):
        with pytest.raises(RatioMismatch):
            UpsampleConfig(ratio=bad)

    @pytest.mark.parametrize("ratio", [np.int64(4), np.uint8(4), np.int32(4)])
    def test_ratio_accepts_numpy_integers_as_python_ints(self, ratio):
        cfg = UpsampleConfig(ratio=ratio)
        assert cfg == UpsampleConfig(ratio=4) and type(cfg.ratio) is int

    def test_bad_kernel(self):
        # the kernel size is carried by the parameters: 16 taps is no odd K
        with pytest.raises(ShapeMismatch):
            PcdcParams(weight=np.zeros((16, 2, 4), np.float32), bias=np.zeros(4, np.float32))
        with pytest.raises(ShapeMismatch):
            neighbor_offsets(4, 1)
        # neighbor_offsets is the one check of K and the dilation: bools and
        # floats fail there, and so in every caller, before any padding
        rng = np.random.default_rng(0)
        q, k = (FeatureMap(rng.standard_normal((4, 5, PROJ_DIM)).astype(np.float32)) for _ in range(2))
        block = generate_params(3, 3).block_s
        for bad in (True, 3.0, 1.5):
            with pytest.raises(ShapeMismatch, match="^kernel must be an integer >= 1"):
                neighbor_offsets(bad, 1)
            with pytest.raises(ShapeMismatch, match="^kernel must be an integer >= 1"):
                inner_product_scores(q, k, bad, 1)
            with pytest.raises(ShapeMismatch, match="^dilation must be an integer >= 1"):
                neighbor_offsets(3, bad)
            with pytest.raises(ShapeMismatch, match="^dilation must be an integer >= 1"):
                pcdc_layer(q, k, block.pcdc, bad)
            with pytest.raises(ShapeMismatch, match="^dilation must be an integer >= 1"):
                pcdc_block(q, k, block, bad)
            with pytest.raises(RatioMismatch):  # the baseline's dilation is its ratio
                inner_product_scores(q, k, 3, bad)

    @pytest.mark.parametrize("c_in,c_guide", [(0, 3), (-2, 3), (3, 0), (True, 3), (2.5, 3), (3, True), (3, 2.5)])
    def test_bad_channel_counts(self, c_in, c_guide):
        with pytest.raises(ShapeMismatch, match="must be an integer >= 1"):
            generate_params(c_in=c_in, c_guide=c_guide)

    def test_seed_must_fit_64_bits(self):
        for seed in (2**64, -1, 2.7, 2.0, True, np.float64(3.0), "1"):
            with pytest.raises(ShapeMismatch, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
                generate_params(c_in=2, c_guide=2, seed=seed)
        for seed in (np.int64(5), np.uint64(5), np.uint64(2**64 - 1)):
            assert serialize_params(generate_params(2, 2, seed=seed)) == serialize_params(
                generate_params(2, 2, seed=int(seed)))

    def test_block_channels_must_match_projection(self):
        rng = np.random.default_rng(50)
        params = small_params(rng)
        bad_proj = ProjectionParams(
            weight_q=np.zeros((4, 5), np.float32),
            bias_q=np.zeros(4, np.float32),
            weight_k=np.zeros((4, 6), np.float32),
            bias_k=np.zeros(4, np.float32),
        )
        with pytest.raises(ShapeMismatch):
            ResfuParams(proj=bad_proj, block_s=params.block_s, block_d=params.block_d)

    def test_blocks_must_share_one_kernel(self):
        params = small_params(np.random.default_rng(51))
        block_d = small_params(np.random.default_rng(52), kernel=5).block_d
        with pytest.raises(ShapeMismatch, match="^both score blocks must share one kernel size"):
            dataclasses.replace(params, block_d=block_d)

    @pytest.mark.parametrize("owner,field,at,bad", [
        ("proj", "weight_k", (0, 0), np.nan),
        ("proj", "bias_q", (0,), np.nan),
        ("block_d.pcdc", "weight", (4, 0, 0), np.inf),
    ])
    def test_non_finite_model_array_is_rejected_by_name(self, owner, field, at, bad):
        # each ran every stage, warned, and blamed the softmax: "kernel rows sum off by nan"
        owner = functools.reduce(getattr, owner.split("."), generate_params(c_in=4, c_guide=3))
        value = getattr(owner, field).copy()
        value[at] = bad
        with pytest.raises(NonFiniteInput, match=f"^{field} holds NaN or infinite values"):
            dataclasses.replace(owner, **{field: value})


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(2, 7),
    w=st.integers(2, 7),
    c=st.integers(1, 4),
    ratio=st.sampled_from([1, 2, 3, 4]),
)
def test_fused_naive_agree_property(seed, h, w, c, ratio):
    rng = np.random.default_rng(seed)
    x = rand_map(rng, h, w, c)
    weights = softmax_rows(rand_map(rng, h * ratio, w * ratio, 9))
    fused = kernel_apply_fns(weights, x, fused=True)
    naive = kernel_apply_fns(weights, x, fused=False)
    assert max_rel_error(fused.astype64(), naive.astype64()) <= 1e-6
