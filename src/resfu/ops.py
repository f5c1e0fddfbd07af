"""Primitive numerical kernels shared by the filtering, similarity, and
upsampling stages.

Conventions used throughout:

* resizes map output pixel i to source coordinate (i + 0.5) * in / out - 0.5
  (half-pixel centers), clamped to the valid range;
* every gather that walks off the border clamps indices to the edge; a
  dilated KxK neighborhood is read as views of one edge-padded copy;
* box means normalize by the number of in-bounds pixels in the window;
  every window sum is one running-window recurrence, _window_sums;
* results are stored as float32.  What computes in float64: window (box)
  sums, group-norm statistics (one pixel block at a time, so no float64
  copy of the map exists, or from the sums and second moments of an
  affine map's source, _affine_norm), Gaussian smoothing (in L2-sized row
  tiles, TILE_BYTES) and softmax.  What computes in float32: 1x1 convolutions (one
  product per pixel block against the block-diagonal weight), the
  group-norm scale and shift, and the paired difference contraction of a
  score block (resfu.pcdc).  Resizes compute in the dtype of their input,
  in row tiles too.  resfu.pcdc's compressor runs the same per-block
  products and norm statistics (_norm_scale_shift) without whole maps;
* all kernels are pure functions, run on the calling thread and are
  bit-reproducible: work is split only into pieces fixed by the operand
  shapes (pixel blocks, BLAS row pieces, row tiles).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .tensor import FeatureMap

# Similarity scores are plain maps whose channel axis indexes the K*K
# neighbor slots of each pixel, so they reuse FeatureMap (and its container
# format) directly.
SimilarityScores = FeatureMap


class ShapeMismatch(Exception):
    """Operand dimensions are incompatible with the requested operation."""


class ChannelGroupMismatch(Exception):
    """A channel count is not divisible by the requested group count."""


class NonFiniteInput(Exception):
    """A map or a model array holds a NaN or an infinite value."""


# Pixels per working block of the per-pixel kernels (1x1 convolutions,
# group norms): enough to keep per-call overhead small, few enough that a
# block stays in cache.
PIXEL_BLOCK = 512


def _pixel_blocks(n_pixels: int):
    return [(p0, min(p0 + PIXEL_BLOCK, n_pixels)) for p0 in range(0, n_pixels, PIXEL_BLOCK)]


# Most multiply-adds per BLAS call.  This keeps every product in the package
# on the calling thread, by design: OpenBLAS, which numpy ships with, runs a
# product of at most 2^18 multiply-adds single-threaded and splits larger ones
# across its workers, whose wake-up costs more here than the split work
# saves.  Measured on a shared 2-core Xeon VM, first call in a fresh process
# after a few idle seconds, alternating runs: the 64x64x32 -> 256x256x32 CLI
# upsample took 0.67-0.87 s in pieces and 0.69-1.64 s without (five of ten
# runs above 1.5 s); the 128x128x32 -> 512x512x32 library upsample 3.2-3.9 s
# against 4.4-5.2 s (five runs each), with warm calls 2.8-3.9 s either way.
# Under another BLAS the pieces only cost a few more calls.
BLAS_PIECE = 1 << 18


def matmul_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ b for 2-D operands, in row pieces of at most BLAS_PIECE
    multiply-adds; the pieces depend only on the shapes."""
    rows = max(1, BLAS_PIECE // max(1, a.shape[1] * b.shape[1]))
    for r0 in range(0, a.shape[0], rows):
        np.matmul(a[r0 : r0 + rows], b, out=out[r0 : r0 + rows])
    return out


def _positive_int(name: str, n, error: type[Exception] = ShapeMismatch) -> int:
    """n as a Python int if it is a Python or NumPy integer >= 1 and not a
    bool; else `error`, naming `name` and the value."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise error(f"{name} must be an integer >= 1, got {n!r}")
    return int(n)


def _positive_real(name: str, x) -> float:
    """x as a Python float if it is a finite real > 0, not a bool; else
    ShapeMismatch, naming `name` and the value."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not (math.isfinite(x) and x > 0):
        raise ShapeMismatch(f"{name} must be a finite real > 0, got {x!r}")
    return float(x)


def _as_float32(name: str, arr, rank: int) -> np.ndarray:
    """arr as a float32 array of rank `rank` (else ShapeMismatch; complex
    too) that holds no NaN or Inf (else NonFiniteInput): the rule for every
    model array."""
    if np.iscomplexobj(arr):
        raise ShapeMismatch(f"{name} must be real, got a complex array")
    with np.errstate(over="ignore"):  # a value past float32's range becomes Inf, rejected below
        arr = np.asarray(arr, np.float32)
    if arr.ndim != rank:
        raise ShapeMismatch(f"{name} must have rank {rank}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name} holds NaN or infinite values")
    return arr


def _group_count(layer: str, channels: int, width: int, outputs: int) -> int:
    """Groups of a grouped layer: its maps' `channels` over its weight's group
    `width`.  ShapeMismatch if the width does not split the channels,
    ChannelGroupMismatch if the groups do not split its `outputs`; both name `layer`."""
    if not width or channels % width:
        raise ShapeMismatch(f"{layer} weight group width {width} does not divide {channels} channels")
    groups = channels // width
    if outputs % groups:
        raise ChannelGroupMismatch(f"{outputs} {layer} outputs not divisible into {groups} groups")
    return groups


def _odd_kernel(slots: int) -> int:
    """The odd K with K*K == slots; else ShapeMismatch."""
    kernel = math.isqrt(slots)
    if kernel * kernel != slots or kernel % 2 == 0:
        raise ShapeMismatch(f"{slots} neighbor slots is not an odd kernel squared")
    return kernel


def axis_linear_coords(n_in: int, n_out: int):
    """Half-pixel-center linear sampling along one axis.

    Returns (lo, hi, frac): integer source indices and the weight of `hi`,
    with frac in [0, 1].  Coordinates are computed in float64 so that the
    identity resize yields frac == 0 exactly.
    """
    pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0.0, n_in - 1.0)
    lo = np.floor(pos).astype(np.intp)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, pos - lo


# Bytes of one row tile of the streamed kernels (linear resize, Gaussian
# smoothing): small enough that a tile and its temporary stay in L2.
TILE_BYTES = 1 << 18


def tile_rows(row_bytes: int) -> int:
    """Rows of a tile whose rows hold `row_bytes` bytes each (at least 1)."""
    return max(1, TILE_BYTES // max(1, row_bytes))


def lerp_take(src: np.ndarray, lo: np.ndarray, hi: np.ndarray, frac: np.ndarray, axis: int,
              dst: np.ndarray, tmp: np.ndarray) -> None:
    """dst = take(src, lo) * (1 - frac) + take(src, hi) * frac along `axis`.

    The products and the sum round exactly as the allocating expression
    does, in the dtype of the operands; `tmp` is a C-contiguous buffer of
    dst's shape, and dst may be any view.
    """
    np.take(src, lo, axis=axis, out=tmp, mode="clip")
    np.multiply(tmp, 1 - frac, out=dst)
    np.take(src, hi, axis=axis, out=tmp, mode="clip")
    tmp *= frac
    dst += tmp


def _resize_matrix(n_in: int, n_out: int) -> np.ndarray:
    """The (n_out, n_in) float64 matrix of axis_linear_coords' sampling."""
    lo, hi, frac = axis_linear_coords(n_in, n_out)
    mat = np.zeros((n_out, n_in))
    np.add.at(mat, (np.arange(n_out), lo), 1 - frac)
    np.add.at(mat, (np.arange(n_out), hi), frac)
    return mat


def _resize_linear(arr: np.ndarray, out_h: int, out_w: int, row_coords=None, col_coords=None) -> np.ndarray:
    """Separable bilinear resize of an (H, W, C) array, dtype preserved;
    the coordinates, if given, replace axis_linear_coords' (lo, hi, frac).

    Runs in output row tiles through reused tile buffers, so the only
    output-sized allocation is the result.
    """
    h, w, c = arr.shape
    r0, r1, tr = row_coords or axis_linear_coords(h, out_h)
    c0, c1, tc = col_coords or axis_linear_coords(w, out_w)
    tr = tr.astype(arr.dtype)[:, None, None]
    tc = tc.astype(arr.dtype)[None, :, None]
    out = np.empty((out_h, out_w, c), arr.dtype)
    step = min(out_h, tile_rows(out_w * c * arr.itemsize))
    rows = np.empty((step, w, c), arr.dtype)
    rows_tmp = np.empty_like(rows)
    cols_tmp = np.empty((step, out_w, c), arr.dtype)
    for i0 in range(0, out_h, step):
        i1 = min(i0 + step, out_h)
        n = i1 - i0
        lerp_take(arr, r0[i0:i1], r1[i0:i1], tr[i0:i1], 0, rows[:n], rows_tmp[:n])
        lerp_take(rows[:n], c0, c1, tc, 1, out[i0:i1], cols_tmp[:n])
    return out


def _out_size(src: FeatureMap, out_h, out_w) -> tuple[int, int]:
    """out_h and out_w as integers >= 1 (else ShapeMismatch) for which an
    out_h x out_w map of src's channels fits the address space (else
    MemoryError, naming the size)."""
    out_h, out_w = _positive_int("out_h", out_h), _positive_int("out_w", out_w)
    if out_h * out_w * src.channels * 4 > np.iinfo(np.intp).max:
        raise MemoryError(f"a {out_h}x{out_w}x{src.channels} float32 map is more than this platform can address")
    return out_h, out_w


def bilinear_resize(src: FeatureMap, out_h: int, out_w: int) -> FeatureMap:
    """Resize with half-pixel-center bilinear interpolation."""
    return FeatureMap.adopt(_resize_linear(src.data, *_out_size(src, out_h, out_w)))


def nearest_resize(src: FeatureMap, out_h: int, out_w: int) -> FeatureMap:
    """Resize by picking floor((i + 0.5) * in / out) along each axis."""
    out_h, out_w = _out_size(src, out_h, out_w)
    h, w, _ = src.shape
    ri = np.clip(np.floor((np.arange(out_h) + 0.5) * (h / out_h)).astype(np.intp), 0, h - 1)
    ci = np.clip(np.floor((np.arange(out_w) + 0.5) * (w / out_w)).astype(np.intp), 0, w - 1)
    return FeatureMap.adopt(src.data[np.ix_(ri, ci)])


def _window_sums(n: int, radius: int, row, out):
    """Yield i = 0 ... n - 1 once out(i) holds the float64 sum of rows
    row(i - r) ... row(i + r), truncated at the borders.

    One running sum in index order, whatever the strides: the first window
    adds rows 0 ... r one by one, and each later one is the previous one
    plus the row that enters and minus the row that leaves (np.cumsum along
    a leading axis ran several times slower).  row(j) is called as row j
    enters or leaves a window, so each row is made once on entering and at
    most once more on leaving.  out(i) may return one buffer for every i,
    a sum carried from row to row, or a distinct view per i, such as out[i]
    of a float64 array; either way every sum gets the same bits.  Each step
    is one call over a whole row, so stacked quantities cost no extra calls.
    """
    prev = out(0)
    prev[...] = row(0)
    for j in range(1, min(radius, n - 1) + 1):
        prev += row(j)
    yield 0
    for i in range(1, n):
        cur = out(i)
        if i + radius < n:
            np.add(prev, row(i + radius), out=cur)
        elif cur is not prev:
            cur[...] = prev
        if i > radius:
            cur -= row(i - radius - 1)
        yield i
        prev = cur


def _window_counts(n: int, radius: int) -> np.ndarray:
    """(n,) float64 number of in-bounds positions of each truncated window.
    A radius of n or more reaches both edges from every position, so it is
    capped at n (a larger Python int would not fit numpy's integers)."""
    i, radius = np.arange(n), min(radius, n)
    return (np.minimum(i + radius, n - 1) - np.maximum(i - radius, 0) + 1).astype(np.float64)


# 3x3 unit-sigma Gaussian taps exp(-(di^2 + dj^2) / 2), normalized to sum 1,
# are the outer product of the 1-D taps exp(-d^2 / 2) = (e^-1/2, 1, e^-1/2)
# normalized the same way, so the smoothing runs as two 3-tap passes.
_GAUSS_MID = 1.0 / (1.0 + 2.0 * math.exp(-0.5))
_GAUSS_SIDE_OVER_MID = math.exp(-0.5)


def gaussian_smooth3(src: FeatureMap) -> FeatureMap:
    """3x3 Gaussian smoothing (unit sigma, clamp-to-edge padding).

    Runs in row tiles whose float64 rows fill about TILE_BYTES: each tile
    is copied into a reused buffer with one halo row on either side,
    clamped at the border, and its column edges padded; both 3-tap passes
    run on it in float64 and it is stored into the float32 result.  Every
    element sees the same roundings as when the whole map is smoothed at
    once, and the only output-sized allocation is the result.
    """
    h, w, c = src.shape
    out = np.empty(src.shape, np.float32)
    step = min(h, tile_rows(8 * w * c))
    padded = np.empty((step + 2, w + 2, c), np.float32)
    for i0 in range(0, h, step):
        i1 = min(i0 + step, h)
        tile = padded[: i1 - i0 + 2]
        tile[1:-1, 1:-1] = src.data[i0:i1]
        tile[0, 1:-1] = src.data[max(i0 - 1, 0)]
        tile[-1, 1:-1] = src.data[min(i1, h - 1)]
        tile[:, 0] = tile[:, 1]
        tile[:, -1] = tile[:, -2]
        rows = np.add(tile[:-2], tile[2:], dtype=np.float64)
        rows *= _GAUSS_SIDE_OVER_MID
        rows += tile[1:-1]
        smooth = np.add(rows[:, :-2], rows[:, 2:])
        smooth *= _GAUSS_SIDE_OVER_MID
        smooth += rows[:, 1:-1]
        smooth *= _GAUSS_MID * _GAUSS_MID
        out[i0:i1] = smooth
    return FeatureMap.adopt(out)


# The groups and eps of every group norm: a weight bundle stores only each
# norm's gamma and beta.
NORM_GROUPS = 4
NORM_EPS = 1e-5


@dataclass(frozen=True)
class GroupNormAffine:
    """Per-channel scale/shift of a group norm; NORM_GROUPS must divide the
    channel count (else ChannelGroupMismatch)."""

    gamma: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        for name in ("gamma", "beta"):
            object.__setattr__(self, name, _as_float32(name, getattr(self, name), 1))
        if self.gamma.shape != self.beta.shape:
            raise ShapeMismatch(f"gamma/beta must be equal-length vectors, got {self.gamma.shape} vs {self.beta.shape}")
        if self.channels % NORM_GROUPS:
            raise ChannelGroupMismatch(f"{self.channels} channels not divisible into {NORM_GROUPS} groups")

    @property
    def channels(self) -> int:
        return self.gamma.size


def _norm_scale_shift(blocks, n_pixels: int, affine: GroupNormAffine) -> tuple[np.ndarray, np.ndarray]:
    """The float32 per-channel scale and shift of the group norm of a map of
    `n_pixels` pixels whose (pixels, channels) float32 rows `blocks` yields
    in pixel-block order.

    Statistics pool every pixel and all channels of each of NORM_GROUPS
    groups; the variance is the population variance, stabilized by NORM_EPS.
    The sums of x and x^2 accumulate in float64, each block copied into one
    reused float64 buffer and each sum one `ones @ block` product, so no
    float64 copy of the map exists; E[x^2] - E[x]^2 in float64 loses about
    1e-16 * (mean / std)^2 relative, far below float32 resolution.  The
    scale and shift that normalization and affine fold into are rounded to
    float32.
    """
    c = affine.channels
    block64 = np.empty((min(PIXEL_BLOCK, n_pixels), c))
    ones = np.ones(block64.shape[0])
    sums = np.zeros(c)
    squares = np.zeros(c)
    for rows in blocks:
        block = block64[: len(rows)]
        block[...] = rows
        sums += ones[: len(rows)] @ block
        block *= block
        squares += ones[: len(rows)] @ block
    return _group_scale_shift(sums, squares, n_pixels, affine)


def _affine_norm(z: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                 affine: GroupNormAffine) -> tuple[np.ndarray, np.ndarray]:
    """_norm_scale_shift of the map z @ weight.T + bias, which is never made:
    its channel sums and sums of squares follow from the float64 sums and
    C x C second moments of the (H, W, C) array z, taken by pixel blocks."""
    flat = z.reshape(-1, z.shape[-1])
    n_pixels = flat.shape[0]
    sums, gram = np.zeros(flat.shape[1]), np.zeros((flat.shape[1],) * 2)
    for p0, p1 in _pixel_blocks(n_pixels):
        block = flat[p0:p1].astype(np.float64)
        sums += block.sum(axis=0)
        gram += block.T @ block
    w64, b64 = weight.astype(np.float64), bias.astype(np.float64)
    proj = w64 @ sums
    squares = np.einsum("cj,jl,cl->c", w64, gram, w64) + 2 * b64 * proj + n_pixels * b64 * b64
    return _group_scale_shift(proj + n_pixels * b64, squares, n_pixels, affine)


def _group_scale_shift(sums: np.ndarray, squares: np.ndarray, n_pixels: int,
                       affine: GroupNormAffine) -> tuple[np.ndarray, np.ndarray]:
    """The float32 scale and shift of _norm_scale_shift from the float64
    per-channel sums and sums of squares over `n_pixels` pixels."""
    c = affine.channels
    per = c // NORM_GROUPS
    count = n_pixels * per
    mean = sums.reshape(NORM_GROUPS, per).sum(axis=1) / count
    var = np.maximum(squares.reshape(NORM_GROUPS, per).sum(axis=1) / count - mean * mean, 0.0)
    scale = affine.gamma.astype(np.float64) / np.sqrt(np.repeat(var, per) + NORM_EPS)
    shift = (affine.beta.astype(np.float64) - np.repeat(mean, per) * scale).astype(np.float32)
    return scale.astype(np.float32), shift


def group_normalize(src: FeatureMap, affine: GroupNormAffine) -> FeatureMap:
    """Normalize each channel group to zero mean / unit variance, then apply
    the per-channel affine: one statistics pass over the pixel blocks
    (_norm_scale_shift), then the float32 scale and shift, one pixel block
    at a time."""
    c = src.channels
    if c != affine.channels:
        raise ShapeMismatch(f"map has {c} channels, affine expects {affine.channels}")
    flat = src.data.reshape(-1, c)
    blocks = _pixel_blocks(flat.shape[0])
    scale, shift = _norm_scale_shift((flat[p0:p1] for p0, p1 in blocks), flat.shape[0], affine)
    out = np.empty(flat.shape, np.float32)
    for p0, p1 in blocks:
        rows = np.multiply(flat[p0:p1], scale, out=out[p0:p1])
        rows += shift
    return FeatureMap.adopt(out.reshape(src.shape))


def _block_diagonal(weight: np.ndarray, groups: int) -> np.ndarray:
    """(D/G, L) grouped weights as the dense (D, L) matrix of one matmul:
    output l belongs to group l // (L/G) and sees only that group's D/G
    inputs."""
    in_per, l_out = weight.shape
    out_per = l_out // groups
    dense = np.zeros((in_per * groups, l_out), weight.dtype)
    for g in range(groups):
        ls = slice(g * out_per, (g + 1) * out_per)
        dense[g * in_per : (g + 1) * in_per, ls] = weight[:, ls]
    return dense


def grouped_pointwise_conv(src: FeatureMap, weight: np.ndarray, bias: np.ndarray) -> FeatureMap:
    """1x1 convolution with channel groups.

    weight has shape (c_out, width), and it and the bias pass the model
    array rule (_as_float32); the group count G is src's channels over the
    group width (_group_count: ShapeMismatch if the width does not split
    them, ChannelGroupMismatch if G does not split c_out), and output
    channel l belongs to group floor(l * G / c_out) and only sees the
    matching input slice.  Computes in float32: per pixel block, one
    product against the dense block-diagonal weight (_block_diagonal,
    through matmul_rows) writes the block's output rows, and the bias is
    added to them in place.
    """
    weight, bias = _as_float32("conv weight", weight, 2), _as_float32("conv bias", bias, 1)
    if bias.size != weight.shape[0]:
        raise ShapeMismatch(f"weight {weight.shape} / bias {bias.shape} are not a conv parameter pair")
    c_out, width = weight.shape
    dense = _block_diagonal(weight.T, _group_count("1x1 conv", src.channels, width, c_out))
    flat = src.data.reshape(-1, src.channels)
    out = np.empty((flat.shape[0], c_out), np.float32)
    for p0, p1 in _pixel_blocks(flat.shape[0]):
        rows = matmul_rows(flat[p0:p1], dense, out[p0:p1])
        rows += bias
    return FeatureMap.adopt(out.reshape(src.height, src.width, c_out))


def neighbor_offsets(kernel: int, dilation: int) -> list[tuple[int, int]]:
    """Row-major (di, dj) offsets of the dilated KxK neighborhood (K odd)."""
    kernel, dilation = _positive_int("kernel", kernel), _positive_int("dilation", dilation)
    if kernel % 2 == 0:
        raise ShapeMismatch(f"kernel size must be odd and >= 1, got {kernel}")
    reach = (kernel - 1) // 2
    return [(di * dilation, dj * dilation) for di in range(-reach, reach + 1) for dj in range(-reach, reach + 1)]


def _edge_pad(arr: np.ndarray, kernel: int, dilation: int):
    """arr edge-padded on both spatial axes by (K-1)/2 * dilation, and the
    (r_n, c_n) of each slot in neighbor_offsets order: slot n of pixel (i, j)
    is padded[i + r_n, j + c_n], arr at (i + di, j + dj) clamped to the map.
    Each axis's pad and offsets stop at its length, which already reaches the edge."""
    offsets = neighbor_offsets(kernel, dilation)
    reach = offsets[-1][0]  # (K-1)/2 * dilation
    rows, cols = min(reach, arr.shape[0]), min(reach, arr.shape[1])
    padded = np.pad(arr, ((rows, rows), (cols, cols), (0, 0)), mode="edge")
    return padded, [(rows + max(-rows, min(di, rows)), cols + max(-cols, min(dj, cols))) for di, dj in offsets]


def _neighbor_views(arr: np.ndarray, kernel: int, dilation: int) -> list[np.ndarray]:
    """The K*K (H, W, C) views of arr's dilated neighborhoods, one per
    row-major slot (_edge_pad); all of them share one padded copy."""
    padded, starts = _edge_pad(arr, kernel, dilation)
    return [padded[r : r + arr.shape[0], c : c + arr.shape[1]] for r, c in starts]


def _softmax64(scores: np.ndarray) -> np.ndarray:
    """Max-stabilized softmax across the last axis of a float64 array."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows(scores: SimilarityScores) -> SimilarityScores:
    """Max-stabilized softmax across the slot (channel) axis of a score map,
    in float64 by pixel blocks into one float32 map; NaN or Inf scores
    raise NonFiniteInput, counting bad rows, before any exp."""
    if not np.isfinite(scores.data).all():
        bad = ~np.isfinite(scores.data).all(axis=-1)
        raise NonFiniteInput(f"similarity scores: {np.count_nonzero(bad)} of {bad.size} rows hold NaN or Inf")
    flat = scores.data.reshape(-1, scores.channels)
    out = np.empty(flat.shape, np.float32)
    for p0, p1 in _pixel_blocks(len(flat)):
        out[p0:p1] = _softmax64(flat[p0:p1].astype(np.float64))
    return FeatureMap.adopt(out.reshape(scores.shape))
