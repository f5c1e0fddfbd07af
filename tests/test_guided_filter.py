"""Guided-filter tests against the per-window regression oracle, its
limiting behaviors and its working memory."""

import tracemalloc

import numpy as np
import pytest

from resfu.guided_filter import GuidedFilterConfig, guided_filter
from resfu.ops import ShapeMismatch, box_mean_array
from resfu.oracle import max_rel_error, oracle_guided_filter_window
from resfu.tensor import FeatureMap


def rand_map(rng, h, w, c, scale=1.0):
    return FeatureMap((scale * rng.standard_normal((h, w, c))).astype(np.float32))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_interior_matches_window_oracle(seed):
    rng = np.random.default_rng(seed)
    cfg = GuidedFilterConfig(radius=2, eps=1e-3)
    q = rand_map(rng, 12, 12, 4)
    k = rand_map(rng, 12, 12, 4)
    got = guided_filter(q, k, cfg).astype64()
    want = oracle_guided_filter_window(q, k, cfg)
    r = cfg.radius
    interior = np.s_[r:-r, r:-r]
    assert max_rel_error(got[interior], want[interior]) <= 1e-4


def test_identical_maps_pass_through():
    # With k == q the per-window fit is m ~ var/(var+eps), n ~ (1-m)*mean,
    # so for variance >> eps the filter approximately returns q.
    rng = np.random.default_rng(3)
    q = rand_map(rng, 16, 16, 3, scale=10.0)
    cfg = GuidedFilterConfig(radius=2, eps=1e-6)
    out = guided_filter(q, q, cfg).astype64()
    assert max_rel_error(out, q.astype64()) <= 1e-3


def test_huge_eps_collapses_to_double_box_mean():
    # eps >> var forces m -> 0 and n -> window mean of k, so the output is
    # box_mean(box_mean(k)).
    rng = np.random.default_rng(4)
    q = rand_map(rng, 14, 10, 2)
    k = rand_map(rng, 14, 10, 2)
    cfg = GuidedFilterConfig(radius=3, eps=1e6)
    out = guided_filter(q, k, cfg).astype64()
    want = box_mean_array(box_mean_array(k.data, 3), 3)
    assert max_rel_error(out, want) <= 1e-3


def test_key_scaling_scales_output():
    rng = np.random.default_rng(5)
    q = rand_map(rng, 10, 11, 3)
    k = rand_map(rng, 10, 11, 3)
    cfg = GuidedFilterConfig(radius=2, eps=1e-3)
    base = guided_filter(q, k, cfg).astype64()
    scaled = guided_filter(q, FeatureMap(3.0 * k.data), cfg).astype64()
    assert max_rel_error(scaled, 3.0 * base) <= 1e-5


def test_shift_equivariance_in_the_interior():
    # Filtering a shifted crop equals shifting the filtered crop wherever no
    # window touches a border.  Output at a pixel depends on inputs within
    # 2r, so compare with a 2r+1 margin.
    rng = np.random.default_rng(6)
    big_q = rng.standard_normal((17, 17, 2)).astype(np.float32)
    big_k = rng.standard_normal((17, 17, 2)).astype(np.float32)
    cfg = GuidedFilterConfig(radius=2, eps=1e-3)
    a = guided_filter(FeatureMap(big_q[:16, :16]), FeatureMap(big_k[:16, :16]), cfg).astype64()
    b = guided_filter(FeatureMap(big_q[1:, 1:]), FeatureMap(big_k[1:, 1:]), cfg).astype64()
    margin = 2 * cfg.radius + 1
    inner_a = a[1 + margin : 16 - margin, 1 + margin : 16 - margin]
    inner_b = b[margin : 15 - margin, margin : 15 - margin]
    assert max_rel_error(inner_b, inner_a) <= 1e-4


def test_channels_filter_independently():
    rng = np.random.default_rng(7)
    cfg = GuidedFilterConfig(radius=2, eps=1e-3)
    q = rand_map(rng, 9, 9, 3)
    k = rand_map(rng, 9, 9, 3)
    whole = guided_filter(q, k, cfg).data
    solo = guided_filter(
        FeatureMap(q.data[:, :, 1:2]), FeatureMap(k.data[:, :, 1:2]), cfg
    ).data
    assert np.array_equal(whole[:, :, 1:2], solo)


def test_shape_and_config_validation():
    rng = np.random.default_rng(8)
    with pytest.raises(ShapeMismatch):
        guided_filter(rand_map(rng, 4, 4, 2), rand_map(rng, 4, 5, 2), GuidedFilterConfig())
    with pytest.raises(ShapeMismatch):
        GuidedFilterConfig(radius=0)
    with pytest.raises(ShapeMismatch):
        GuidedFilterConfig(eps=0.0)


def test_defaults():
    cfg = GuidedFilterConfig()
    assert cfg.radius == 8
    assert cfg.eps == 1e-3


def test_holds_under_four_float64_maps():
    # Traced peak above entry of one call, in float64 maps of the input
    # shape.  Filtering one channel half at a time keeps five half-size
    # float64 maps live, beside the halves' float32 copies and the float32
    # output (the whole map at once held five full-size maps).
    rng = np.random.default_rng(9)
    q = rand_map(rng, 48, 40, 8)
    k = rand_map(rng, 48, 40, 8)
    cfg = GuidedFilterConfig(radius=3, eps=1e-3)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        guided_filter(q, k, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3.9 * q.data.size * 8
