"""Dense feature maps and the .rsft on-disk container.

A FeatureMap is an H x W x C grid of 32-bit floats, stored row-major with the
channel index varying fastest: element (i, j, ch) lives at flat offset
``ch + C * (j + W * i)``.  This is exactly the layout of a C-contiguous numpy
array of shape (H, W, C), which is how the data is held in memory.

The .rsft file format is the same payload behind a fixed 24-byte header:

    offset  size  field
    ------  ----  -----------------------------------------
       0      4   magic, ASCII "RSFT"
       4      1   format version, currently 1
       5      1   dtype code, 0 = float32 little-endian
       6      2   reserved, must be zero
       8      4   ndim as u32 little-endian, always 3
      12     12   dims as three u32 little-endian: H, W, C

followed by exactly 4*H*W*C payload bytes, little-endian float32, in the
offset order above.  Serialization is bit-exact: deserialize(serialize(m))
reproduces every payload byte.  save_tensor writes the same bytes as
serialize without building them, the payload straight from the map's
buffer; given a shape and a `fill` callback instead, it takes the payload
in pieces, such as the bands of a streamed output.

Every file resfu writes (maps, weight bundles, PPM images) goes through one
writer, _write_file: it writes a ".part" sibling of its own, named
"<path>.<8 hex digits>.part", and moves it onto the path only once complete,
so a failed or killed write leaves an earlier file as it was, and writers of
one path, in one process or several, never share a ".part"; the last to
finish wins.  A write that fails removes its ".part"; a killed process
leaves it behind, and nothing removes it later (remove it by hand).  Before
any byte is written it reserves the file's final size with posix_fallocate.
A full disk then fails before the work that would fill the file, and the
reserved blocks are allocated already: ext4 flushes a file's
delayed-allocation blocks when it is renamed over an existing file
(auto_da_alloc), which made a save over an earlier file wait for the new
one's writeback.  Where the platform has no posix_fallocate, or it fails as
unsupported, the write goes on without it; glibc emulates it on a file
system without native preallocation by writing one byte into every block
first, so there the file's blocks are written twice.

That flush was also what kept the old file or the new one across a machine
crash, and nothing here replaces it: no save is fsynced.  After a crash or
power loss within the kernel's writeback delay (about 30 s by default on
Linux), a saved path can hold a zero-filled file of its full size in place
of both; a .rsft or .rsfw file then fails to load with BadMagic.  Every
file the CLI writes can be made again by running its command again.  An
fsync before the rename would cost what the preallocation saves.
"""

from __future__ import annotations

import contextlib
import errno
import os
import secrets
import struct
from collections.abc import Callable

import numpy as np

MAGIC = b"RSFT"
FORMAT_VERSION = 1
DTYPE_FLOAT32 = 0

_HEADER = struct.Struct("<4sBBH4I")  # magic, version, dtype, reserved, ndim, H, W, C
HEADER_SIZE = _HEADER.size  # 24


class TensorFormatError(Exception):
    """A byte stream does not obey the .rsft container layout."""


class BadMagic(TensorFormatError):
    """Leading bytes are not the RSFT magic."""


class UnsupportedVersion(TensorFormatError):
    """Header carries a format version this reader does not understand."""


class TruncatedPayload(TensorFormatError):
    """Fewer payload bytes than the header dimensions imply."""


class FeatureMap:
    """Immutable H x W x C float32 grid.

    The constructor copies its input into a fresh C-contiguous float32 array
    and freezes it, so a FeatureMap never aliases caller-owned memory and all
    operations on it are non-mutating by construction.  Maps compare by
    value and, like ndarrays, are unhashable.  Input that is not of rank 3,
    has an empty axis or holds complex values raises TensorFormatError.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        # np.array (not asarray) so exactly one owned copy is made even when
        # the input already is a contiguous float32 array
        if np.iscomplexobj(data):
            raise TensorFormatError("feature map must be real, got complex values")
        arr = np.array(data, dtype=np.float32, order="C")
        if arr.ndim != 3:
            raise TensorFormatError(f"feature map needs rank 3, got rank {arr.ndim}")
        if min(arr.shape) < 1:
            raise TensorFormatError(f"feature map dims must be >= 1, got {arr.shape}")
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def adopt(cls, arr: np.ndarray) -> "FeatureMap":
        """Wrap a freshly computed array that nothing else references.

        A C-contiguous rank-3 float32 array is frozen and held as is, which
        saves the constructor's copy; anything else goes through the
        constructor.
        """
        if arr.dtype != np.float32 or not arr.flags.c_contiguous or arr.ndim != 3 or min(arr.shape) < 1:
            return cls(arr)
        arr.setflags(write=False)
        fmap = cls.__new__(cls)
        fmap._data = arr
        return fmap

    @property
    def data(self) -> np.ndarray:
        """Read-only (H, W, C) float32 view of the contents."""
        return self._data

    @property
    def height(self) -> int:
        return self._data.shape[0]

    @property
    def width(self) -> int:
        return self._data.shape[1]

    @property
    def channels(self) -> int:
        return self._data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self._data.shape

    def astype64(self) -> np.ndarray:
        """Writable float64 copy, for reference-path arithmetic."""
        return self._data.astype(np.float64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureMap):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._data, other._data)

    def __repr__(self) -> str:
        return f"FeatureMap({self.height}x{self.width}x{self.channels})"


def _header(shape: tuple[int, int, int]) -> bytes:
    return _HEADER.pack(MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, 0, 3, *shape)


def _payload(fmap: FeatureMap) -> memoryview:
    """Byte view of the little-endian payload; a copy only on big-endian hosts."""
    return memoryview(fmap.data.astype("<f4", copy=False)).cast("B")


def serialize(fmap: FeatureMap) -> bytes:
    """Encode a FeatureMap as .rsft bytes (24-byte header + payload)."""
    return _header(fmap.shape) + _payload(fmap)


def read_tensor_at(buf, offset: int) -> tuple[FeatureMap, int]:
    """Decode one embedded tensor starting at `offset`.

    Returns the map and the offset one past its payload; used both for whole
    .rsft files and for tensors embedded in weight bundles.
    """
    view = memoryview(buf)
    if len(view) - offset < 4 or bytes(view[offset : offset + 4]) != MAGIC:
        got = bytes(view[offset : offset + 4])
        raise BadMagic(f"bad magic {got!r} at offset {offset}, expected {MAGIC!r}")
    if len(view) - offset < HEADER_SIZE:
        raise TruncatedPayload(
            f"only {len(view) - offset} bytes at offset {offset}, header needs {HEADER_SIZE}"
        )
    _, version, dtype, reserved, ndim, h, w, c = _HEADER.unpack_from(view, offset)
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"format version {version}, reader supports {FORMAT_VERSION}")
    if dtype != DTYPE_FLOAT32:
        raise TensorFormatError(f"dtype code {dtype}, only {DTYPE_FLOAT32} (float32) is defined")
    if reserved != 0:
        raise TensorFormatError(f"reserved header bytes must be zero, got {reserved:#06x}")
    if ndim != 3:
        raise TensorFormatError(f"ndim {ndim}, only rank-3 tensors are defined")
    if min(h, w, c) < 1:
        raise TensorFormatError(f"dims must be >= 1, got {h}x{w}x{c}")
    start = offset + HEADER_SIZE
    nbytes = 4 * h * w * c
    if len(view) - start < nbytes:
        raise TruncatedPayload(
            f"payload needs {nbytes} bytes for {h}x{w}x{c}, only {len(view) - start} present"
        )
    flat = np.frombuffer(view, dtype="<f4", count=h * w * c, offset=start)
    return FeatureMap(flat.reshape(h, w, c)), start + nbytes


def deserialize(buf) -> FeatureMap:
    """Decode .rsft bytes; the buffer must contain exactly one tensor."""
    fmap, end = read_tensor_at(buf, 0)
    if end != len(memoryview(buf)):
        raise TensorFormatError(f"{len(memoryview(buf)) - end} trailing bytes after payload")
    return fmap


# posix_fallocate errors that mean "cannot preallocate here", not "no room"
_NO_PREALLOCATION = (errno.EOPNOTSUPP, errno.EINVAL, errno.ENOSYS)


def _write_file(path, size: int, fill: Callable[[Callable[[bytes], None]], None]) -> None:
    """Write the `size` bytes that fill(write) passes to `write` to `path`.

    The bytes go to a new sibling `path` + ".<8 hex digits>.part", created
    exclusively (mode 0666 less the umask), whose full size is reserved
    first; fill must write exactly `size` bytes.  The ".part" replaces
    `path` once fill returns; on any exception it is removed and `path` is
    left as it was.  A failed reservation (ENOSPC, EFBIG, EDQUOT) raises
    OSError naming `path` before fill is called.  Nothing is fsynced (see
    the module docstring).
    """
    while True:  # a name another writer, or a killed one, holds is skipped
        part = f"{os.fspath(path)}.{secrets.token_hex(4)}.part"
        with contextlib.suppress(FileExistsError):
            fh = open(part, "xb")
            break
    try:
        with fh:
            fallocate = getattr(os, "posix_fallocate", None)  # not on every platform
            if fallocate is not None:
                try:
                    fallocate(fh.fileno(), 0, size)
                except OSError as err:
                    if err.errno not in _NO_PREALLOCATION:
                        raise OSError(err.errno, os.strerror(err.errno), os.fspath(path)) from err
            fill(fh.write)
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)
        raise


def save_tensor(path, fmap: FeatureMap | tuple[int, int, int],
                fill: Callable[[Callable[[np.ndarray], None]], None] | None = None) -> None:
    """save_tensor(path, fmap) writes serialize(fmap) with no copy of the
    payload.  save_tensor(path, (H, W, C), fill) calls fill(write), where
    each write(values) appends a float32 array's values in payload order;
    exactly 4*H*W*C bytes must arrive, else TensorFormatError.  The file's
    full size is reserved before fill runs, so a full disk fails before the
    payload is computed.  The bytes go to a ".part" sibling of this call's
    own (see _write_file), which replaces `path` once complete; on any
    exception it is removed and `path` is left as it was.  The file is not fsynced: after a machine
    crash `path` may hold zeros (see the module docstring)."""
    shape = fmap.shape if fill is None else tuple(fmap)
    if fill is None:
        fill = lambda write: write(fmap.data)  # noqa: E731
    elif len(shape) != 3 or min(shape) < 1:
        raise TensorFormatError(f"a .rsft payload needs three dims >= 1, got {shape}")
    h, w, c = shape
    nbytes = 4 * h * w * c

    def fill_file(write_bytes) -> None:
        written = 0

        def write(values: np.ndarray) -> None:
            nonlocal written
            data = np.ascontiguousarray(values, "<f4")  # a copy only on big-endian hosts
            written += data.nbytes
            if written > nbytes:
                raise TensorFormatError(f"more than the {nbytes} payload bytes of {h}x{w}x{c} written")
            write_bytes(data)

        write_bytes(_header(shape))
        fill(write)
        if written != nbytes:
            raise TensorFormatError(f"{written} of the {nbytes} payload bytes of {h}x{w}x{c} written")

    _write_file(path, HEADER_SIZE + nbytes, fill_file)


def load_tensor(path) -> FeatureMap:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
