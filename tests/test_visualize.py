"""Visualization tests: byte-image invariants of the PCA/channel renderers,
their pinned bytes and memory, and the PPM container format."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from resfu.ops import ShapeMismatch
from resfu.tensor import FeatureMap
from resfu.visualize import (
    MID_GRAY,
    channel_rgb,
    encode_ppm,
    pca_rgb,
    save_ppm,
)


class TestPcaRgb:
    def test_constant_map_renders_mid_gray(self):
        rgb = pca_rgb(FeatureMap(np.full((5, 4, 6), 2.5, np.float32)))
        assert rgb.shape == (5, 4, 3) and rgb.dtype == np.uint8
        assert np.all(rgb == MID_GRAY)

    def test_single_varying_channel_drives_red_plane(self):
        # Only channel 2 varies, so the first principal direction is that
        # channel and the other two planes have no variance to show.
        h, w = 6, 5
        data = np.zeros((h, w, 4), np.float32)
        ramp = np.arange(h * w, dtype=np.float32).reshape(h, w)
        data[:, :, 2] = ramp
        rgb = pca_rgb(FeatureMap(data))
        want = np.rint((ramp - ramp.min()) / (ramp.max() - ramp.min()) * 255.0).astype(np.uint8)
        np.testing.assert_array_equal(rgb[:, :, 0], want)
        assert np.all(rgb[:, :, 1] == MID_GRAY)
        assert np.all(rgb[:, :, 2] == MID_GRAY)

    def test_two_channel_input_pads_blue_plane(self):
        rng = np.random.default_rng(0)
        rgb = pca_rgb(FeatureMap(rng.standard_normal((8, 8, 2)).astype(np.float32)))
        assert np.all(rgb[:, :, 2] == MID_GRAY)
        for plane in range(2):  # min-max scaling spans the full byte range
            assert rgb[:, :, plane].min() == 0
            assert rgb[:, :, plane].max() == 255

    def test_shift_invariant_bytes(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((7, 9, 5)).astype(np.float32)
        np.testing.assert_array_equal(
            pca_rgb(FeatureMap(data)), pca_rgb(FeatureMap(data + 3.0))
        )

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((6, 6, 16)).astype(np.float32)
        np.testing.assert_array_equal(pca_rgb(FeatureMap(data)), pca_rgb(FeatureMap(data)))


class TestChannelRgb:
    def test_grayscale_planes_match_min_max_scaling(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((5, 7, 3)).astype(np.float32)
        rgb = channel_rgb(FeatureMap(data), 1)
        plane = data[:, :, 1].astype(np.float64)
        want = np.rint((plane - plane.min()) / (plane.max() - plane.min()) * 255.0).astype(np.uint8)
        for p in range(3):
            np.testing.assert_array_equal(rgb[:, :, p], want)

    def test_constant_channel_is_mid_gray(self):
        rgb = channel_rgb(FeatureMap(np.ones((4, 4, 2), np.float32)), 0)
        assert np.all(rgb == MID_GRAY)

    # a bool or a float is not a channel index, even when it equals one
    @pytest.mark.parametrize("channel", [-1, 2, True, False, 1.0])
    def test_rejects_out_of_range_channel(self, channel):
        with pytest.raises(ShapeMismatch):
            channel_rgb(FeatureMap(np.zeros((3, 3, 2), np.float32)), channel)


def traced_peak(call) -> int:
    """Traced peak, in bytes above the level at entry, of one call()."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestPinnedRenders:
    # PPM bytes of a seeded 32x24x16 map, as first written; the PCA digest
    # holds per NumPy/LAPACK build, as the module says
    FMAP = FeatureMap(np.random.default_rng(11).standard_normal((32, 24, 16)).astype(np.float32))

    def test_pca_bytes(self):
        digest = hashlib.sha256(encode_ppm(pca_rgb(self.FMAP))).hexdigest()
        assert digest == "9f473d168590edd534e9ce403f94e392d049fb83bc1032ffcd062f3d929ff787"

    def test_channel_bytes(self):
        digest = hashlib.sha256(encode_ppm(channel_rgb(self.FMAP, 5))).hexdigest()
        assert digest == "737edddf7c3d33f1dd2f3da1942d756af7224bca15dd99d53b105d03a147ceee"


class TestRenderMemory:
    # traced peaks on a 128x128x64 map, in float32 maps: a float64 copy of
    # the map is two
    FMAP = FeatureMap(np.random.default_rng(12).standard_normal((128, 128, 64)).astype(np.float32))

    def test_pca_centres_its_one_float64_copy_in_place(self):
        # a centred second copy beside the first made it 4.1
        assert traced_peak(lambda: pca_rgb(self.FMAP)) <= 2.5 * self.FMAP.data.nbytes

    def test_channel_casts_only_its_channel(self):
        # casting every channel to read one made it 2.1
        assert traced_peak(lambda: channel_rgb(self.FMAP, 3)) <= 0.25 * self.FMAP.data.nbytes


class TestPpmFormat:
    def test_header_and_payload_bytes(self):
        rgb = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        blob = encode_ppm(rgb)
        header = b"P6\n3 2\n255\n"
        assert blob.startswith(header)
        assert blob[len(header):] == rgb.tobytes()

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (5,)])
    def test_rejects_non_rgb_arrays(self, shape):
        with pytest.raises(ShapeMismatch):
            encode_ppm(np.zeros(shape, np.uint8))

    def test_save_writes_encoded_bytes(self, tmp_path):
        rgb = np.full((4, 2, 3), 9, np.uint8)
        path = tmp_path / "img.ppm"
        save_ppm(path, rgb)
        assert path.read_bytes() == encode_ppm(rgb)
