"""Weight bundles on disk (.rsfw).

Layout: magic "RSFW", version byte (1), three zero pad bytes, u32 LE entry
count, then per entry a u32 LE name length, the UTF-8 name, and the tensor
as an embedded .rsft blob.

Every tensor is stored as a rank-3 map:

    * rank-3 parameters keep their shape: the difference-conv weight
      (K*K, D/G, L) maps to H=K*K, W=D/G, C=L;
    * matrices (R, S) are stored as 1 x R x S;
    * vectors (n,) are stored as 1 x 1 x n.

The entry set is fixed (projections, then the s and d score blocks); bundles
with missing, duplicate, or unknown names, or a NaN or Inf value, are
rejected.  A bundle is the whole ResfuParams: the difference convs' group
counts follow from their weights' shapes, and nothing else is settable.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

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

_BLOCK_FIELDS = (
    "norm.gamma",
    "norm.beta",
    "pcdc.weight",
    "pcdc.bias",
    "comp.conv1.weight",
    "comp.conv1.bias",
    "comp.norm.gamma",
    "comp.norm.beta",
    "comp.conv2.weight",
    "comp.conv2.bias",
)

BUNDLE_ENTRY_NAMES = tuple(
    ["proj_q.weight", "proj_q.bias", "proj_k.weight", "proj_k.bias"]
    + [field.replace(".", f"_{tag}.", 1) for tag in ("s", "d") for field in _BLOCK_FIELDS]
)


def _pack(arr: np.ndarray) -> FeatureMap:
    arr = np.asarray(arr, np.float32)
    if arr.ndim == 1:
        arr = arr.reshape(1, 1, -1)
    elif arr.ndim == 2:
        arr = arr.reshape(1, *arr.shape)
    return FeatureMap(arr)


def _block_entries(tag: str, block: PcdcBlockParams) -> list[tuple[str, FeatureMap]]:
    return [
        (f"norm_{tag}.gamma", _pack(block.norm.gamma)),
        (f"norm_{tag}.beta", _pack(block.norm.beta)),
        (f"pcdc_{tag}.weight", _pack(block.pcdc.weight)),
        (f"pcdc_{tag}.bias", _pack(block.pcdc.bias)),
        (f"comp_{tag}.conv1.weight", _pack(block.comp.conv1_weight)),
        (f"comp_{tag}.conv1.bias", _pack(block.comp.conv1_bias)),
        (f"comp_{tag}.norm.gamma", _pack(block.comp.norm.gamma)),
        (f"comp_{tag}.norm.beta", _pack(block.comp.norm.beta)),
        (f"comp_{tag}.conv2.weight", _pack(block.comp.conv2_weight)),
        (f"comp_{tag}.conv2.bias", _pack(block.comp.conv2_bias)),
    ]


def serialize_params(params: ResfuParams) -> bytes:
    entries = [
        ("proj_q.weight", _pack(params.proj.weight_q)),
        ("proj_q.bias", _pack(params.proj.bias_q)),
        ("proj_k.weight", _pack(params.proj.weight_k)),
        ("proj_k.bias", _pack(params.proj.bias_k)),
    ]
    entries += _block_entries("s", params.block_s)
    entries += _block_entries("d", params.block_d)

    chunks = [BUNDLE_MAGIC, bytes([BUNDLE_VERSION, 0, 0, 0]), struct.pack("<I", len(entries))]
    for name, fmap in entries:
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(serialize(fmap))
    return b"".join(chunks)


def _matrix(tensors: dict[str, FeatureMap], name: str) -> np.ndarray:
    fmap = tensors[name]
    if fmap.height != 1:
        raise TensorFormatError(f"{name}: matrices are stored as 1xRxS maps, got {fmap.shape}")
    return fmap.data[0]


def _vector(tensors: dict[str, FeatureMap], name: str) -> np.ndarray:
    fmap = tensors[name]
    if fmap.height != 1 or fmap.width != 1:
        raise TensorFormatError(f"{name}: vectors are stored as 1x1xN maps, got {fmap.shape}")
    return fmap.data[0, 0]


@contextmanager
def _consistent(what: str):
    """Turn a shape error of the parameters built inside into a format error
    that names `what`: the entries they were read from."""
    try:
        yield
    except (ShapeMismatch, ChannelGroupMismatch) as err:
        raise TensorFormatError(f"inconsistent weight bundle: {what}: {err}") from err


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

    def norm(prefix: str) -> GroupNormAffine:
        with _consistent(prefix):
            return GroupNormAffine(_vector(tensors, f"{prefix}.gamma"), _vector(tensors, f"{prefix}.beta"))

    def block(tag: str) -> PcdcBlockParams:
        block_norm = norm(f"norm_{tag}")
        pw = tensors[f"pcdc_{tag}.weight"].data  # (K*K, D/G, L) stored verbatim
        d = block_norm.channels
        if d % pw.shape[1]:
            raise TensorFormatError(
                f"pcdc_{tag}.weight group width {pw.shape[1]} does not divide {d} channels"
            )
        with _consistent(f"pcdc_{tag}"):
            pcdc = PcdcParams(weight=pw, bias=_vector(tensors, f"pcdc_{tag}.bias"), groups=d // pw.shape[1])
        comp_norm = norm(f"comp_{tag}.norm")
        with _consistent(f"comp_{tag}"):
            comp = CompressorParams(
                conv1_weight=_matrix(tensors, f"comp_{tag}.conv1.weight"),
                conv1_bias=_vector(tensors, f"comp_{tag}.conv1.bias"),
                norm=comp_norm,
                conv2_weight=_matrix(tensors, f"comp_{tag}.conv2.weight"),
                conv2_bias=_vector(tensors, f"comp_{tag}.conv2.bias"),
            )
        with _consistent(f"norm_{tag}, pcdc_{tag}, comp_{tag}"):
            return PcdcBlockParams(norm=block_norm, pcdc=pcdc, comp=comp)

    with _consistent("proj_q, proj_k"):
        proj = ProjectionParams(
            weight_q=_matrix(tensors, "proj_q.weight"),
            bias_q=_vector(tensors, "proj_q.bias"),
            weight_k=_matrix(tensors, "proj_k.weight"),
            bias_k=_vector(tensors, "proj_k.bias"),
        )
    block_s, block_d = block("s"), block("d")
    with _consistent("projections and score blocks"):
        return ResfuParams(proj=proj, block_s=block_s, block_d=block_d)


def save_params(path, params: ResfuParams) -> None:
    """Write serialize_params(params) atomically and preallocated, as
    save_tensor writes a map: an earlier bundle stays whole until the new
    one is complete."""
    blob = serialize_params(params)
    _write_file(path, len(blob), lambda write: write(blob))


def load_params(path) -> ResfuParams:
    with open(path, "rb") as fh:
        return deserialize_params(fh.read())
