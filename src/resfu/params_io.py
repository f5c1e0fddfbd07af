"""Weight bundles on disk (.rsfw).

Layout: magic "RSFW", version byte (1), three zero pad bytes, u32 LE entry
count, then per entry a u32 LE name length, the UTF-8 name, and the tensor
as an embedded .rsft blob.

The entries are the table _LAYOUT, in file order: each entry's name, the
attribute path of its array in ResfuParams and that array's rank (the
projections, then the s and d score blocks).  A bundle is the whole
ResfuParams: every field of it is a stored array, and a difference conv's
group count is read at each call as the maps' channels over the weight's
group width.  param_arrays and params_from_arrays map between the two
through that table.  Every tensor is stored as a rank-3 map:

    * rank-3 parameters keep their shape: the difference-conv weight
      (K*K, D/G, L) maps to H=K*K, W=D/G, C=L;
    * matrices (R, S) are stored as 1 x R x S;
    * vectors (n,) are stored as 1 x 1 x n.

Bundles with missing, duplicate, or unknown names, or a NaN or Inf value,
are rejected.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from .ops import ChannelGroupMismatch, GroupNormAffine, ShapeMismatch
from .pcdc import CompressorParams, PcdcBlockParams, PcdcParams
from .tensor import (
    BadMagic,
    FeatureMap,
    TensorFormatError,
    TruncatedPayload,
    UnsupportedVersion,
    _write_file,
    read_tensor_at,
    serialize,
)
from .upsampler import ProjectionParams, ResfuParams

BUNDLE_MAGIC = b"RSFW"
BUNDLE_VERSION = 1

# Entry name, attribute path in ResfuParams, rank; "{t}" is the block's tag.
_BLOCK_LAYOUT = (
    ("norm_{t}.gamma", "norm.gamma", 1),
    ("norm_{t}.beta", "norm.beta", 1),
    ("pcdc_{t}.weight", "pcdc.weight", 3),
    ("pcdc_{t}.bias", "pcdc.bias", 1),
    ("comp_{t}.conv1.weight", "comp.conv1_weight", 2),
    ("comp_{t}.conv1.bias", "comp.conv1_bias", 1),
    ("comp_{t}.norm.gamma", "comp.norm.gamma", 1),
    ("comp_{t}.norm.beta", "comp.norm.beta", 1),
    ("comp_{t}.conv2.weight", "comp.conv2_weight", 2),
    ("comp_{t}.conv2.bias", "comp.conv2_bias", 1),
)
_LAYOUT = (
    ("proj_q.weight", "proj.weight_q", 2),
    ("proj_q.bias", "proj.bias_q", 1),
    ("proj_k.weight", "proj.weight_k", 2),
    ("proj_k.bias", "proj.bias_k", 1),
) + tuple((name.format(t=t), f"block_{t}.{path}", rank) for t in "sd" for name, path, rank in _BLOCK_LAYOUT)

BUNDLE_ENTRY_NAMES = tuple(name for name, _, _ in _LAYOUT)

_STORED_AS = {1: "vectors are stored as 1x1xN maps", 2: "matrices are stored as 1xRxS maps"}


def param_arrays(params: ResfuParams) -> dict[str, np.ndarray]:
    """Every array of `params` by its entry name, in file order."""
    return {name: functools.reduce(getattr, path.split("."), params) for name, path, _ in _LAYOUT}


def _build(cls, what: str, **fields):
    """cls(**fields), with a shape error turned into a format error that
    names `what`: the entries the fields were read from."""
    try:
        return cls(**fields)
    except (ShapeMismatch, ChannelGroupMismatch) as err:
        raise TensorFormatError(f"inconsistent weight bundle: {what}: {err}") from err


def params_from_arrays(arrays: dict[str, np.ndarray]) -> ResfuParams:
    """The ResfuParams whose param_arrays are `arrays`.  Arrays that do not
    fit together raise TensorFormatError naming the entries they came from."""
    tree: dict = {}
    for name, path, _ in _LAYOUT:
        *parents, leaf = path.split(".")
        node = tree
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = arrays[name]

    def block(t: str, b: dict) -> PcdcBlockParams:
        norm = _build(GroupNormAffine, f"norm_{t}", **b["norm"])
        pcdc = _build(PcdcParams, f"pcdc_{t}", **b["pcdc"])
        comp_norm = _build(GroupNormAffine, f"comp_{t}.norm", **b["comp"]["norm"])
        comp = _build(CompressorParams, f"comp_{t}", **{**b["comp"], "norm": comp_norm})
        return _build(PcdcBlockParams, f"norm_{t}, pcdc_{t}, comp_{t}", norm=norm, pcdc=pcdc, comp=comp)

    proj = _build(ProjectionParams, "proj_q, proj_k", **tree["proj"])
    block_s, block_d = block("s", tree["block_s"]), block("d", tree["block_d"])
    return _build(ResfuParams, "projections and score blocks", proj=proj, block_s=block_s, block_d=block_d)


def serialize_params(params: ResfuParams) -> bytes:
    arrays = param_arrays(params)
    chunks = [BUNDLE_MAGIC, bytes([BUNDLE_VERSION, 0, 0, 0]), struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(serialize(FeatureMap(arr.reshape((1,) * (3 - arr.ndim) + arr.shape))))
    return b"".join(chunks)


def _unpack(name: str, fmap: FeatureMap, rank: int) -> np.ndarray:
    """The rank-`rank` array a stored map holds, as a view of it."""
    lead = 3 - rank
    if fmap.shape[:lead] != (1,) * lead:
        raise TensorFormatError(f"{name}: {_STORED_AS[rank]}, got {fmap.shape}")
    return fmap.data[(0,) * lead]


def deserialize_params(buf) -> ResfuParams:
    view = memoryview(buf)
    if len(view) < 4 or bytes(view[:4]) != BUNDLE_MAGIC:
        raise BadMagic(f"bad magic {bytes(view[:4])!r}, expected {BUNDLE_MAGIC!r}")
    if len(view) < 12:
        raise TruncatedPayload(f"bundle header needs 12 bytes, got {len(view)}")
    version = view[4]
    if version != BUNDLE_VERSION:
        raise UnsupportedVersion(f"bundle version {version}, reader supports {BUNDLE_VERSION}")
    if bytes(view[5:8]) != b"\x00\x00\x00":
        raise TensorFormatError("bundle pad bytes must be zero")
    (count,) = struct.unpack_from("<I", view, 8)

    offset = 12
    tensors: dict[str, FeatureMap] = {}
    for _ in range(count):
        if len(view) - offset < 4:
            raise TruncatedPayload("bundle ends inside an entry header")
        (name_len,) = struct.unpack_from("<I", view, offset)
        offset += 4
        if len(view) - offset < name_len:
            raise TruncatedPayload("bundle ends inside an entry name")
        try:
            name = str(view[offset : offset + name_len], "utf-8")
        except UnicodeDecodeError as err:
            raise TensorFormatError(f"bundle entry name at offset {offset} is not UTF-8: {err}") from err
        offset += name_len
        if name in tensors:
            raise TensorFormatError(f"duplicate bundle entry {name!r}")
        tensors[name], offset = read_tensor_at(view, offset)
    if offset != len(view):
        raise TensorFormatError(f"{len(view) - offset} trailing bytes after the last entry")

    missing = [n for n in BUNDLE_ENTRY_NAMES if n not in tensors]
    unknown = [n for n in tensors if n not in BUNDLE_ENTRY_NAMES]
    if missing or unknown:
        raise TensorFormatError(f"bundle entries wrong; missing {missing}, unknown {unknown}")
    for name in BUNDLE_ENTRY_NAMES:
        if not np.isfinite(tensors[name].data).all():
            raise TensorFormatError(f"{name}: holds NaN or infinite values")
    return params_from_arrays({name: _unpack(name, tensors[name], rank) for name, _, rank in _LAYOUT})


def save_params(path, params: ResfuParams) -> None:
    """Write serialize_params(params) atomically and preallocated, as
    save_tensor writes a map: an earlier bundle stays whole until the new
    one is complete."""
    blob = serialize_params(params)
    _write_file(path, len(blob), lambda write: write(blob))


def load_params(path) -> ResfuParams:
    with open(path, "rb") as fh:
        return deserialize_params(fh.read())
