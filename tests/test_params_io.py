"""Weight-bundle (.rsfw) serialization."""

import dataclasses
import functools
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resfu.params_io import (
    BUNDLE_ENTRY_NAMES,
    BUNDLE_MAGIC,
    deserialize_params,
    load_params,
    param_arrays,
    params_from_arrays,
    save_params,
    serialize_params,
)
from resfu.tensor import (
    BadMagic,
    FeatureMap,
    TensorFormatError,
    TruncatedPayload,
    UnsupportedVersion,
    deserialize,
    serialize,
)
from resfu.upsampler import generate_params


def bundle(seed=0, c_in=6, c_guide=4):
    return generate_params(c_in=c_in, c_guide=c_guide, seed=seed)


def leaves(node, path="params"):
    """(path, owner, field name) of every value in a dataclass tree that is
    not itself a dataclass."""
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if dataclasses.is_dataclass(value):
            yield from leaves(value, f"{path}.{field.name}")
        else:
            yield f"{path}.{field.name}", node, field.name


def randomized_bundle(seed):
    """A generated bundle with every array refilled with distinct values,
    set on the frozen fields directly."""
    params, rng = bundle(seed=seed), np.random.default_rng(seed)
    for _, owner, name in leaves(params):
        value = getattr(owner, name)
        if isinstance(value, np.ndarray):
            object.__setattr__(owner, name, rng.standard_normal(value.shape).astype(np.float32))
    return params


class TestLayout:
    def test_header_bytes(self):
        blob = serialize_params(bundle())
        assert blob[:4] == BUNDLE_MAGIC == b"RSFW"
        assert blob[4] == 1
        assert blob[5:8] == b"\x00\x00\x00"
        assert struct.unpack_from("<I", blob, 8) == (24,)

    def test_entry_names_in_canonical_order(self):
        blob = serialize_params(bundle())
        offset, seen = 12, []
        for _ in range(24):
            (name_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            seen.append(blob[offset : offset + name_len].decode())
            offset += name_len
            # skip the embedded tensor: header carries the dims
            ndim, h, w, c = struct.unpack_from("<4I", blob, offset + 8)
            assert ndim == 3
            offset += 24 + 4 * h * w * c
        assert offset == len(blob)
        assert tuple(seen) == BUNDLE_ENTRY_NAMES

    def test_expected_entry_set(self):
        assert len(BUNDLE_ENTRY_NAMES) == 24
        assert BUNDLE_ENTRY_NAMES[:4] == (
            "proj_q.weight", "proj_q.bias", "proj_k.weight", "proj_k.bias",
        )
        for tag in ("s", "d"):
            for field in (f"norm_{tag}.gamma", f"pcdc_{tag}.weight",
                          f"comp_{tag}.conv1.weight", f"comp_{tag}.conv2.bias"):
                assert field in BUNDLE_ENTRY_NAMES


class TestRoundTrip:
    def test_bit_exact(self):
        for seed in range(6):
            blob = serialize_params(bundle(seed=seed, c_in=3 + seed, c_guide=2 + seed))
            assert serialize_params(deserialize_params(blob)) == blob

    def test_values_survive(self):
        params = bundle(seed=11)
        back = deserialize_params(serialize_params(params))
        assert np.array_equal(back.proj.weight_q, params.proj.weight_q)
        assert np.array_equal(back.block_s.pcdc.weight, params.block_s.pcdc.weight)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "first.rsfw", tmp_path / "second.rsfw"
        save_params(first, randomized_bundle(7))
        save_params(second, load_params(first))
        assert second.read_bytes() == first.read_bytes()

    def test_file_round_trip(self, tmp_path):
        params = bundle(seed=3)
        path = tmp_path / "weights.rsfw"
        save_params(path, params)
        blob = path.read_bytes()
        assert blob == serialize_params(params)
        assert serialize_params(load_params(path)) == blob


class TestBundleIsTheModel:
    def test_every_leaf_is_a_stored_array_or_an_inferred_group_count(self):
        # a settable value the bundle drops would load back as another model
        params = randomized_bundle(8)
        tree = list(leaves(params))
        assert [path for path, owner, name in tree if not isinstance(getattr(owner, name), np.ndarray)] == []
        assert sum(isinstance(getattr(owner, name), np.ndarray) for _, owner, name in tree) == len(BUNDLE_ENTRY_NAMES)
        back = deserialize_params(serialize_params(params))
        for (path, owner, name), (_, back_owner, back_name) in zip(tree, leaves(back), strict=True):
            assert np.array_equal(getattr(back_owner, back_name), getattr(owner, name)), path


class TestLayoutTable:
    def test_param_arrays_follow_the_file_order(self):
        params = randomized_bundle(9)
        arrays = param_arrays(params)
        assert tuple(arrays) == BUNDLE_ENTRY_NAMES
        assert arrays["comp_d.conv2.weight"] is params.block_d.comp.conv2_weight

    def test_params_from_arrays_inverts_param_arrays(self):
        params = randomized_bundle(10)
        back = params_from_arrays(param_arrays(params))
        assert serialize_params(back) == serialize_params(params)

    def test_deserialized_arrays_are_views_of_the_stored_maps(self):
        # a copy per entry would double what loading a bundle allocates
        back = deserialize_params(serialize_params(bundle()))
        assert all(arr.base is not None for arr in param_arrays(back).values())


class TestRejects:
    def test_bad_magic(self):
        blob = bytearray(serialize_params(bundle()))
        blob[:4] = b"JUNK"
        with pytest.raises(BadMagic):
            deserialize_params(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(serialize_params(bundle()))
        blob[4] = 9
        with pytest.raises(UnsupportedVersion):
            deserialize_params(bytes(blob))

    def test_nonzero_padding(self):
        blob = bytearray(serialize_params(bundle()))
        blob[6] = 1
        with pytest.raises(TensorFormatError):
            deserialize_params(bytes(blob))

    def test_truncated(self):
        blob = serialize_params(bundle())
        with pytest.raises(TruncatedPayload):
            deserialize_params(blob[: len(blob) // 2])
        with pytest.raises(TruncatedPayload):
            deserialize_params(blob[:10])

    def test_trailing_bytes(self):
        blob = serialize_params(bundle())
        with pytest.raises(TensorFormatError):
            deserialize_params(blob + b"\x00")

    def test_missing_entry(self):
        blob = bytearray(serialize_params(bundle()))
        # rename the first entry so a required one goes missing
        (name_len,) = struct.unpack_from("<I", blob, 12)
        blob[16 : 16 + name_len] = b"x" * name_len
        with pytest.raises(TensorFormatError):
            deserialize_params(bytes(blob))

    def test_embedded_tensor_validated(self):
        blob = bytearray(serialize_params(bundle()))
        (name_len,) = struct.unpack_from("<I", blob, 12)
        tensor_at = 16 + name_len
        blob[tensor_at : tensor_at + 4] = b"XXXX"
        with pytest.raises(BadMagic):
            deserialize_params(bytes(blob))

    def test_non_utf8_entry_name(self):
        blob = bytearray(serialize_params(bundle()))
        blob[16] = 0xFF  # first byte of the first entry name
        with pytest.raises(TensorFormatError, match="UTF-8"):
            deserialize_params(bytes(blob))

    @pytest.mark.parametrize("tag", ["s", "d"])
    def test_inconsistent_compressor_names_its_block(self, tag):
        # set on the frozen field directly, as a hand-edited file would carry it
        params = bundle()
        object.__setattr__(getattr(params, f"block_{tag}").comp, "conv1_bias", np.zeros(7, np.float32))
        with pytest.raises(TensorFormatError, match=f"^inconsistent weight bundle: comp_{tag}: conv1 bias has 7"):
            deserialize_params(serialize_params(params))

    @pytest.mark.parametrize("entry,block,field,bad", [
        ("proj_q.weight", "proj", "weight_q", np.nan),  # matrix
        ("norm_s.gamma", "block_s.norm", "gamma", np.inf),  # vector
        ("pcdc_d.weight", "block_d.pcdc", "weight", -np.inf),  # rank 3
    ])
    def test_non_finite_entry_is_rejected_by_name(self, entry, block, field, bad):
        params = bundle()
        owner = functools.reduce(getattr, block.split("."), params)
        value = getattr(owner, field).copy()
        value.flat[value.size // 2] = bad
        object.__setattr__(owner, field, value)
        with pytest.raises(TensorFormatError, match=rf"^{re.escape(entry)}: holds NaN or infinite values"):
            deserialize_params(serialize_params(params))

    @pytest.mark.parametrize("width", [3, 64])
    def test_group_width_must_divide_the_channels(self, width):
        params = bundle()
        object.__setattr__(params.block_s.pcdc, "weight", np.zeros((9, width, 32), np.float32))
        with pytest.raises(TensorFormatError, match=rf"^inconsistent weight bundle: norm_s, pcdc_s, comp_s: "
                                                     rf"pcdc weight group width {width} does not divide 32 channels"):
            deserialize_params(serialize_params(params))

    def test_storage_form_is_checked_before_consistency(self):
        # every entry is unpacked before the tree is built
        params = bundle()
        object.__setattr__(params.block_s.comp, "conv1_bias", np.zeros(7, np.float32))
        object.__setattr__(params.block_d.comp.norm, "beta", np.zeros((2, 64), np.float32))
        with pytest.raises(TensorFormatError, match=r"^comp_d\.norm\.beta: vectors are stored as 1x1xN"):
            deserialize_params(serialize_params(params))

    def test_misshapen_vector_names_its_entry(self):
        params = bundle()
        object.__setattr__(params.block_d.comp.norm, "beta", np.zeros((2, 64), np.float32))
        with pytest.raises(TensorFormatError, match=r"^comp_d\.norm\.beta: vectors are stored as 1x1xN"):
            deserialize_params(serialize_params(params))


def _header_bytes(blob, kind):
    """Offsets of the header, name and length bytes of a serialized blob:
    the bytes whose corruption the readers must notice."""
    if kind == "rsft":
        return list(range(24))
    offsets, at = list(range(12)), 12
    for _ in range(len(BUNDLE_ENTRY_NAMES)):
        (name_len,) = struct.unpack_from("<I", blob, at)
        h, w, c = struct.unpack_from("<3I", blob, at + 4 + name_len + 12)
        offsets += range(at, at + 4 + name_len + 24)
        at += 4 + name_len + 24 + 4 * h * w * c
    return offsets


_BLOBS = {
    "rsft": (serialize(FeatureMap(np.arange(12, dtype=np.float32).reshape(2, 3, 2))), deserialize),
    "rsfw": (serialize_params(bundle(c_in=2, c_guide=2)), deserialize_params),
}
_HEADERS = {kind: _header_bytes(blob, kind) for kind, (blob, _) in _BLOBS.items()}


@st.composite
def mutated_blobs(draw):
    kind = draw(st.sampled_from(sorted(_BLOBS)))
    blob = bytearray(_BLOBS[kind][0])
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(["flip", "truncate", "extend"]))
        if edit == "flip" and blob:
            at = draw(st.sampled_from(_HEADERS[kind]) | st.integers(0, len(blob) - 1))
            if at < len(blob):
                blob[at] ^= draw(st.integers(1, 255))
        elif edit == "truncate":
            del blob[draw(st.integers(0, len(blob))):]
        else:
            blob += draw(st.binary(min_size=1, max_size=32))
    return kind, bytes(blob)


@settings(max_examples=300, deadline=None)
@given(mutated_blobs())
def test_mutated_blobs_raise_only_format_errors(case):
    # flips (biased to header bytes), truncations and extensions of valid
    # .rsft and .rsfw blobs: a reader may accept or raise TensorFormatError
    kind, blob = case
    try:
        _BLOBS[kind][1](blob)
    except TensorFormatError:
        pass
