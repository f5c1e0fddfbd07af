"""Guided-filter tests against the per-window regression oracle and the
whole-map float64 recipe, its limiting behaviors and its working memory."""

import importlib
import tracemalloc

import numpy as np
import pytest

from resfu.guided_filter import MAX_TILE_ROWS, GuidedFilterConfig, _tile_rows, guided_filter, guided_filter_projected
from resfu.ops import ShapeMismatch, bilinear_resize, grouped_pointwise_conv
from resfu.oracle import max_rel_error, oracle_guided_filter_window
from resfu.tensor import FeatureMap

from gf_reference import box_mean_array, filter64


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
    # the window oracle raised numpy's "matmul: ..." ValueError for these
    q = rand_map(rng, 5, 5, 2)
    for key in ((7, 6, 2), (5, 5, 3), (5, 5, 1), (4, 5, 2)):
        for fn in (guided_filter, oracle_guided_filter_window):
            with pytest.raises(ShapeMismatch, match="must match"):
                fn(q, rand_map(rng, *key), GuidedFilterConfig(radius=1))
    with pytest.raises(ShapeMismatch):
        GuidedFilterConfig(radius=0)
    with pytest.raises(ShapeMismatch):
        GuidedFilterConfig(eps=0.0)


@pytest.mark.parametrize("radius", [True, False, 0, -2, np.int64(0), 2.0, "3", None])
def test_config_rejects_bad_radius(radius):
    with pytest.raises(ShapeMismatch, match="radius"):
        GuidedFilterConfig(radius=radius)


@pytest.mark.parametrize("eps", ["x", None, True, float("inf"), float("-inf"), float("nan"), -1e-3, 0])
def test_config_rejects_bad_eps(eps):
    with pytest.raises(ShapeMismatch, match="eps"):
        GuidedFilterConfig(eps=eps)


def test_config_accepts_numpy_numbers_as_python_ones():
    cfg = GuidedFilterConfig(radius=np.int64(3), eps=np.float32(0.5))
    assert cfg == GuidedFilterConfig(radius=3, eps=0.5)
    assert type(cfg.radius) is int and type(cfg.eps) is float
    assert GuidedFilterConfig(radius=np.uint8(2), eps=1).eps == 1.0


def test_defaults():
    cfg = GuidedFilterConfig()
    assert cfg.radius == 8
    assert cfg.eps == 1e-3


def test_holds_under_four_float64_maps():
    # Traced peak above entry of one call, in float64 maps of the input
    # shape.  The row stream holds its tiles and ring, about 10 T + 4 r
    # float64 rows (T = 6 here), beside the float32 output; the whole-map
    # recipe held five full-size float64 maps.
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


def _filter_peak(q: FeatureMap, k: FeatureMap, cfg: GuidedFilterConfig) -> tuple[int, int]:
    """Traced peak above entry of one call, and the output's bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = guided_filter(q, k, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, out.data.nbytes


def test_working_memory_does_not_grow_with_height():
    # W, C and r fixed: the tiles and the ring have the same size at 128 and
    # at 512 rows, so only the output grows (whole maps grew 4x).
    rng = np.random.default_rng(10)
    cfg = GuidedFilterConfig(radius=4, eps=1e-3)
    working = []
    for h in (128, 512):
        peak, out_bytes = _filter_peak(rand_map(rng, h, 32, 8), rand_map(rng, h, 32, 8), cfg)
        working.append(peak - out_bytes)
    assert working[1] < 1.1 * working[0]


def test_buffers_never_exceed_the_map_rows():
    # A radius far beyond the map costs no more than one as tall as the map:
    # tiles and ring are capped at the map's own row count.
    rng = np.random.default_rng(11)
    q, k = rand_map(rng, 12, 10, 3), rand_map(rng, 12, 10, 3)
    tall, _ = _filter_peak(q, k, GuidedFilterConfig(radius=12))
    huge, _ = _filter_peak(q, k, GuidedFilterConfig(radius=10**6))
    assert huge <= tall + 1024
    assert all(1 <= _tile_rows(h) <= min(h, MAX_TILE_ROWS) for h in range(1, 300))


@pytest.mark.parametrize(
    "h, w, c, radius",
    [
        (37, 11, 3, 2),  # H not a multiple of the tile rows
        (150, 7, 3, 4),  # several tiles; the ring wraps
        (41, 100, 1, 10),  # 5-row tiles leave a last tile of one row
        (7, 6, 4, 1),  # H below the largest tile height
        (3, 9, 2, 5),  # H <= r
        (4, 5, 3, 6),  # radius >= H and radius >= W
        (1, 1, 1, 8),  # a single value
        (1, 20, 1, 10),  # a lone row of one channel
        (20, 1, 3, 4),  # W = 1
        (19, 1, 1, 9),  # a lone column of one channel
        (19, 6, 5, 3),  # odd C
    ],
)
def test_stream_matches_whole_map_recipe_bit_for_bit(h, w, c, radius):
    # q sits far from zero with little spread, so var(q) cancels badly: a
    # float64 sum taken in another order shows in the float32 output.
    rng = np.random.default_rng(h * 1000 + w * 10 + c)
    q = FeatureMap(1000.0 + 0.01 * rng.standard_normal((h, w, c)))
    k = rand_map(rng, h, w, c)
    cfg = GuidedFilterConfig(radius=radius, eps=1e-6)
    want = filter64(q.data, k.data, cfg).astype(np.float32)
    assert np.array_equal(guided_filter(q, k, cfg).data, want)


@pytest.mark.parametrize(
    "h, w, c, radius", [(41, 100, 1, 10), (19, 1, 1, 9), (1, 20, 1, 10), (20, 1, 3, 4), (33, 7, 2, 8)]
)
def test_every_tile_height_gives_the_recipe_bits(h, w, c, radius, monkeypatch):
    # Every window sum adds its rows in index order, so the tile height
    # cannot change a bit, down to tiles of one row.
    rng = np.random.default_rng(h * 1000 + w * 10 + c)
    q = FeatureMap(1000.0 + 0.01 * rng.standard_normal((h, w, c)))
    k = rand_map(rng, h, w, c)
    cfg = GuidedFilterConfig(radius=radius, eps=1e-6)
    want = filter64(q.data, k.data, cfg).astype(np.float32)
    module = importlib.import_module("resfu.guided_filter")
    for t in range(1, h + 1):
        monkeypatch.setattr(module, "_tile_rows", lambda rows: t)
        assert np.array_equal(guided_filter(q, k, cfg).data, want), t


@pytest.mark.parametrize(
    "h, w, ratio, c_guide",
    [
        (16, 16, 4, 4),
        (8, 8, 8, 3),
        (4, 4, 16, 4),
        (13, 13, 3, 3),
        (5, 3, 3, 1),  # odd H, W = 9 < 2r + 1
        (7, 5, 2, 12),  # the most guide channels the pipeline sends this way at D = 32
    ],
)
def test_projected_filter_matches_the_whole_map_recipe(h, w, ratio, c_guide):
    # box(q) and box(q^2) from the guide's box moments, box(k_up) from the
    # LR key through the resize matrices: the recipe on q and k_up within 1e-6
    rng = np.random.default_rng(h * ratio + c_guide)
    y = FeatureMap(rng.random((h * ratio, w * ratio, c_guide), dtype=np.float32))
    weight = (rng.standard_normal((32, c_guide)) / np.sqrt(c_guide)).astype(np.float32)
    bias = rng.uniform(-0.5, 0.5, 32).astype(np.float32)
    key = rand_map(rng, h, w, 32)
    key_up = bilinear_resize(key, h * ratio, w * ratio)
    cfg = GuidedFilterConfig()
    got = guided_filter_projected(y, weight, bias, key, key_up, cfg).data
    want = filter64(grouped_pointwise_conv(y, weight, bias).data, key_up.data, cfg)
    assert max_rel_error(got, want) <= 1e-6


def test_projected_filter_checks_its_shapes():
    rng = np.random.default_rng(12)
    y, key = FeatureMap(rng.random((8, 8, 3), dtype=np.float32)), rand_map(rng, 4, 4, 8)
    cfg = GuidedFilterConfig()
    with pytest.raises(ShapeMismatch):
        guided_filter_projected(y, np.ones((8, 4)), np.zeros(8), key, bilinear_resize(key, 8, 8), cfg)
    with pytest.raises(ShapeMismatch):
        guided_filter_projected(y, np.ones((8, 3)), np.zeros(8), key, bilinear_resize(key, 8, 6), cfg)
