"""Container-format tests: header layout, offset convention, round trips, error paths."""

import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resfu.tensor import (
    HEADER_SIZE,
    BadMagic,
    FeatureMap,
    TensorFormatError,
    TruncatedPayload,
    UnsupportedVersion,
    deserialize,
    load_tensor,
    save_tensor,
    serialize,
)


def test_header_is_24_bytes():
    assert HEADER_SIZE == 24


def test_single_element_file_is_28_bytes():
    buf = serialize(FeatureMap(np.full((1, 1, 1), 2.5, np.float32)))
    assert len(buf) == 28
    # Hand-packed expectation: magic, version 1, dtype 0, two zero bytes,
    # ndim 3, dims 1,1,1, one little-endian float payload.
    assert buf == b"RSFT" + bytes([1, 0, 0, 0]) + struct.pack("<4I", 3, 1, 1, 1) + struct.pack("<f", 2.5)


def test_payload_offset_convention():
    # Element (i, j, ch) must land at payload offset ch + C*(j + W*i).
    h, w, c = 2, 3, 4
    arr = np.arange(h * w * c, dtype=np.float32).reshape(h, w, c)
    payload = serialize(FeatureMap(arr))[HEADER_SIZE:]
    for i in range(h):
        for j in range(w):
            for ch in range(c):
                off = 4 * (ch + c * (j + w * i))
                (value,) = struct.unpack_from("<f", payload, off)
                assert value == arr[i, j, ch]


@settings(max_examples=60, deadline=None)
@given(
    h=st.integers(1, 5),
    w=st.integers(1, 5),
    c=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_round_trip_is_bit_exact(h, w, c, seed):
    rng = np.random.default_rng(seed)
    fmap = FeatureMap(rng.standard_normal((h, w, c)).astype(np.float32))
    again = deserialize(serialize(fmap))
    assert again.shape == fmap.shape
    assert serialize(again) == serialize(fmap)
    assert np.array_equal(again.data, fmap.data)


def test_file_round_trip(tmp_path):
    fmap = FeatureMap(np.random.default_rng(0).standard_normal((3, 4, 2)).astype(np.float32))
    path = tmp_path / "m.rsft"
    save_tensor(path, fmap)
    assert load_tensor(path) == fmap


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (7, 1, 5), (16, 9, 33)])
def test_saved_file_bytes_equal_serialize(tmp_path, shape):
    fmap = FeatureMap(np.random.default_rng(1).standard_normal(shape).astype(np.float32))
    path = tmp_path / "m.rsft"
    save_tensor(path, fmap)
    assert path.read_bytes() == serialize(fmap)


def test_save_copies_no_payload(tmp_path):
    # a 4 MiB map: a single payload copy would exceed the bound fourfold
    fmap = FeatureMap(np.random.default_rng(2).standard_normal((32, 32, 1024)).astype(np.float32))
    path = tmp_path / "big.rsft"
    tracemalloc.start()
    try:
        save_tensor(path, fmap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert path.stat().st_size == HEADER_SIZE + fmap.data.nbytes


class TestStreamedSave:
    def _map(self):
        return FeatureMap(np.random.default_rng(4).standard_normal((6, 5, 3)).astype(np.float32))

    def test_bands_give_the_bytes_of_serialize(self, tmp_path):
        fmap = self._map()
        path = tmp_path / "m.rsft"

        def fill(write):
            for i0 in range(0, 6, 4):  # a band of 4 rows, then one of 2
                write(fmap.data[i0 : i0 + 4])

        save_tensor(path, (6, 5, 3), fill)
        assert path.read_bytes() == serialize(fmap)
        assert [p.name for p in tmp_path.iterdir()] == ["m.rsft"]

    @pytest.mark.parametrize("rows", [5, 7])
    def test_wrong_payload_size_raises_and_leaves_no_file(self, tmp_path, rows):
        with pytest.raises(TensorFormatError, match="payload bytes"):
            save_tensor(tmp_path / "m.rsft", (6, 5, 3), lambda write: write(np.zeros((rows, 5, 3), np.float32)))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [TensorFormatError("short"), MemoryError(), KeyboardInterrupt()])
    def test_failed_fill_keeps_an_existing_file(self, tmp_path, error):
        path = tmp_path / "m.rsft"
        save_tensor(path, self._map())
        before = path.read_bytes()

        def fill(write):
            write(np.zeros((1, 5, 3), np.float32))
            assert len(list(tmp_path.glob("m.rsft.*.part"))) == 1
            raise error

        with pytest.raises(type(error)):
            save_tensor(path, (6, 5, 3), fill)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.rsft"]

    def test_a_writer_inside_another_keeps_its_own_part(self, tmp_path):
        # the inner save runs while the outer one's .part is open: with one
        # shared .part name it truncated and renamed the outer writer's file
        path = tmp_path / "m.rsft"
        outer, inner = self._map(), FeatureMap(np.ones((2, 2, 1), np.float32))

        def fill(write):
            save_tensor(path, inner)
            assert load_tensor(path) == inner
            assert len(list(tmp_path.glob("m.rsft.*.part"))) == 1
            write(outer.data)

        save_tensor(path, outer.shape, fill)
        assert load_tensor(path) == outer
        assert [p.name for p in tmp_path.iterdir()] == ["m.rsft"]
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.parametrize("shape", [(6, 5), (6, 0, 3), (1, 1, 1, 1)])
    def test_rejects_a_shape_that_is_no_map(self, tmp_path, shape):
        with pytest.raises(TensorFormatError):
            save_tensor(tmp_path / "m.rsft", shape, lambda write: None)
        assert list(tmp_path.iterdir()) == []


class TestRejects:
    def _good(self):
        return serialize(FeatureMap(np.zeros((2, 2, 1), np.float32)))

    def test_bad_magic(self):
        buf = b"JUNK" + self._good()[4:]
        with pytest.raises(BadMagic):
            deserialize(buf)

    def test_unsupported_version(self):
        buf = bytearray(self._good())
        buf[4] = 2
        with pytest.raises(UnsupportedVersion):
            deserialize(bytes(buf))

    def test_truncated_payload(self):
        buf = self._good()
        with pytest.raises(TruncatedPayload):
            deserialize(buf[:-3])

    def test_truncated_header(self):
        with pytest.raises(TruncatedPayload):
            deserialize(self._good()[:10])

    def test_trailing_bytes(self):
        with pytest.raises(TensorFormatError):
            deserialize(self._good() + b"\x00")

    def test_unknown_dtype(self):
        buf = bytearray(self._good())
        buf[5] = 1
        with pytest.raises(TensorFormatError):
            deserialize(bytes(buf))

    def test_nonzero_reserved(self):
        buf = bytearray(self._good())
        buf[6] = 7
        with pytest.raises(TensorFormatError):
            deserialize(bytes(buf))

    def test_wrong_ndim(self):
        buf = bytearray(self._good())
        buf[8] = 2
        with pytest.raises(TensorFormatError):
            deserialize(bytes(buf))

    def test_zero_dim(self):
        # dims live at offsets 12, 16, 20
        buf = bytearray(self._good())
        struct.pack_into("<I", buf, 16, 0)
        with pytest.raises(TensorFormatError):
            deserialize(bytes(buf))


class TestFeatureMap:
    def test_constructor_copies_and_freezes(self):
        src = np.ones((2, 2, 2), np.float32)
        fmap = FeatureMap(src)
        src[0, 0, 0] = 99.0
        assert fmap.data[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            fmap.data[0, 0, 0] = 5.0

    def test_non_contiguous_input(self):
        base = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        fmap = FeatureMap(base.transpose(1, 0, 2))
        assert fmap.shape == (3, 2, 4)
        assert fmap.data[2, 1, 3] == base[1, 2, 3]

    def test_rejects_wrong_rank(self):
        with pytest.raises(TensorFormatError):
            FeatureMap(np.zeros((2, 2), np.float32))

    def test_rejects_a_zero_dim(self):
        with pytest.raises(TensorFormatError, match=r"dims must be >= 1, got \(2, 0, 3\)"):
            FeatureMap(np.zeros((2, 0, 3), np.float32))

    def test_adopt_copies_what_it_cannot_hold_as_is(self):
        # a float64 or strided array goes through the constructor's copy
        base = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        for arr in (base, base.astype(np.float32)[:, ::2]):
            fmap = FeatureMap.adopt(arr)
            assert fmap.data.dtype == np.float32 and not np.shares_memory(fmap.data, arr)
            assert np.array_equal(fmap.data, arr)
        with pytest.raises(TensorFormatError):
            FeatureMap.adopt(np.zeros((2, 2), np.float32))

    def test_equality_is_by_value_and_maps_are_unhashable(self):
        # +0.0 == -0.0, yet hashing the bytes gave the two equal maps two hashes
        plus, minus = FeatureMap(np.zeros((1, 1, 1))), FeatureMap(np.full((1, 1, 1), -0.0))
        assert plus == minus and plus != FeatureMap(np.ones((1, 1, 1)))
        assert plus != "map" and not (plus == 0.0)
        with pytest.raises(TypeError, match="unhashable"):
            hash(plus)
