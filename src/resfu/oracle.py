"""Brute-force reference implementations.

Everything in this module is written directly from the defining formulas:
explicit window/channel/neighbor loops, float64 arithmetic, no reuse of the
production kernels.  These are deliberately slow and exist only as ground
truth for the fast paths; they return plain float64 arrays.  Every dilated
neighborhood here and in resfu.grad comes from _clamped_index_maps, and
every size from the tensors (_integer_multiple), so no argument can
disagree with the shapes.  From resfu.ops this module takes only exception
classes and size checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .guided_filter import GuidedFilterConfig
from .ops import ChannelGroupMismatch, ShapeMismatch, _odd_kernel, _positive_int
from .tensor import FeatureMap


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    detail: str = ""
    passed: bool = field(init=False, default=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.max_error <= self.tolerance))


def finite_or_inf(err: float) -> float:
    """err, or inf if it is NaN or Inf: the one rule for a non-finite error,
    so every `<=` tolerance, `>` guard and max(worst, ...) on it fails."""
    return err if math.isfinite(err) else math.inf


def max_rel_error(actual, expected) -> float:
    """Max absolute deviation, normalized by the magnitude of `expected`.

    The scale floor keeps the metric meaningful when the reference output is
    identically zero.  NaN or Inf on either side gives inf.
    """
    actual = np.asarray(actual, np.float64)
    expected = np.asarray(expected, np.float64)
    scale = max(float(np.max(np.abs(expected))), 1e-30)
    return finite_or_inf(float(np.max(np.abs(actual - expected))) / scale)


def _clamped_index_maps(h: int, w: int, kernel: int, dilation: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row-major per slot, the (h, 1) row and (1, w) column index maps of the
    dilated KxK window: slot n of (i, j) is (i + di * dilation, j + dj *
    dilation) clamped to the h x w grid, so arr[rows, cols] is its neighbor
    map.  K and the dilation are integers >= 1, K odd, else ShapeMismatch."""
    kernel, dilation = _positive_int("kernel", kernel), _positive_int("dilation", dilation)
    reach = (_odd_kernel(kernel * kernel) - 1) // 2
    rows, cols = np.arange(h)[:, None], np.arange(w)[None, :]
    return [(np.clip(rows + di * dilation, 0, h - 1), np.clip(cols + dj * dilation, 0, w - 1))
            for di in range(-reach, reach + 1) for dj in range(-reach, reach + 1)]


def _dims(arr: np.ndarray, rank: int, what: str) -> tuple:
    """arr's shape if it has `rank` axes, else ShapeMismatch naming `what`."""
    if np.ndim(arr) != rank:
        raise ShapeMismatch(f"{what} must have rank {rank}, got shape {np.shape(arr)}")
    return np.shape(arr)


def _integer_multiple(whole: tuple, part: tuple, what: str, error: type[Exception] = ShapeMismatch) -> int:
    """The integer n >= 1 with whole == n * part on every axis, else `error`
    naming `what`: the group count is the maps' channels over the weight's
    group width and splits the outputs; the ratio is the weights' grid over x's."""
    n = whole[0] // part[0] if part[0] > 0 else 0
    if n < 1 or tuple(whole) != tuple(n * p for p in part):
        sizes = ["x".join(map(str, dims)) for dims in (whole, part)]
        raise error(f"{what}: {sizes[0]} is not one integer multiple of {sizes[1]}")
    return n


def oracle_gather_neighbors(src: FeatureMap, kernel: int, dilation: int = 1) -> np.ndarray:
    """The (pixels, slots, channels) float64 neighborhoods of src (_clamped_index_maps)."""
    h, w, c = src.shape
    slots = _clamped_index_maps(h, w, kernel, dilation)
    return np.stack([src.data[ri, ci].reshape(h * w, c) for ri, ci in slots], axis=1).astype(np.float64)


def oracle_pcdc_direct(q_bar: FeatureMap, k_bar: FeatureMap, weight, bias, dilation: int) -> np.ndarray:
    """Difference convolution straight from its definition.

    Triple loop over output channel, within-group input channel, and
    neighbor slot; only the pixel axis is vectorized.  Neighbor slot n is
    the n-th row-major offset of the dilated KxK window, clamped at edges.
    K is read from the (K*K, D/G, L) weight's slot count (an odd square,
    else ShapeMismatch) and G from its group width (_integer_multiple); a
    weight not of rank 3, a key not of the query's shape or a bias not L
    long raises ShapeMismatch.
    """
    q, k = q_bar.astype64(), k_bar.astype64()
    w64, b64 = np.asarray(weight, np.float64), np.asarray(bias, np.float64)
    h, w, d_in = q.shape
    ksq, in_per, l_out = _dims(w64, 3, "weight")
    if k.shape != q.shape:
        raise ShapeMismatch(f"key {k.shape} must match query {q.shape}")
    if b64.shape != (l_out,):
        raise ShapeMismatch(f"bias {b64.shape} must hold the weight's {l_out} outputs")
    groups = _integer_multiple((d_in,), (in_per,), "channels over weight group width")
    _integer_multiple((l_out,), (groups,), "outputs over groups", ChannelGroupMismatch)
    slots = _clamped_index_maps(h, w, _odd_kernel(ksq), dilation)

    out = np.zeros((h, w, l_out))
    for l in range(l_out):
        g = l * groups // l_out
        acc = np.zeros((h, w))
        for dt in range(in_per):
            d = g * in_per + dt
            for n, (ri, ci) in enumerate(slots):
                acc += w64[n, dt, l] * (k[ri, ci, d] - q[:, :, d])
        out[:, :, l] = acc + b64[l]
    return out


def oracle_guided_filter_window(query: FeatureMap, key_up: FeatureMap, cfg: GuidedFilterConfig) -> np.ndarray:
    """Per-window ridge regression, solved independently for every window.

    For each window and channel, fits k ~ m*q + n by solving the 2x2 ridge
    normal equations, then averages the coefficient fields over each pixel's
    window (truncated at the borders) and applies them; key and query must
    share one shape (else ShapeMismatch).
    """
    q = query.astype64()
    k = key_up.astype64()
    if k.shape != q.shape:
        raise ShapeMismatch(f"key {k.shape} must match query {q.shape}")
    h, w, d = q.shape
    r = cfg.radius

    m = np.zeros((h, w, d))
    n = np.zeros((h, w, d))
    for i in range(h):
        for j in range(w):
            wq = q[max(i - r, 0) : i + r + 1, max(j - r, 0) : j + r + 1].reshape(-1, d)
            wk = k[max(i - r, 0) : i + r + 1, max(j - r, 0) : j + r + 1].reshape(-1, d)
            count = wq.shape[0]
            ones = np.ones(count)
            for ch in range(d):
                design = np.stack([wq[:, ch], ones], axis=1)
                lhs = design.T @ design + np.diag([count * cfg.eps, 0.0])
                rhs = design.T @ wk[:, ch]
                m[i, j, ch], n[i, j, ch] = np.linalg.solve(lhs, rhs)

    out = np.zeros((h, w, d))
    for i in range(h):
        for j in range(w):
            wm = m[max(i - r, 0) : i + r + 1, max(j - r, 0) : j + r + 1]
            wn = n[max(i - r, 0) : i + r + 1, max(j - r, 0) : j + r + 1]
            out[i, j] = wm.mean(axis=(0, 1)) * q[i, j] + wn.mean(axis=(0, 1))
    return out


def oracle_kernel_apply_gridwise(weights: FeatureMap, x: FeatureMap) -> np.ndarray:
    """Kernel application with coarse, grid-wise neighbor selection.

    Every pixel of a ratio x ratio output block shares the KxK dilation-1
    neighbors of its parent low-resolution pixel, so the mixed values jump
    only at block boundaries (the mosaic artifact the fine-grained variant
    removes).  K comes from the slot count, which must be an odd square
    (else ShapeMismatch), and the ratio from the weights' grid over x's
    (_integer_multiple).  Not a production path; one float64 loop over the
    slots, in order, each adding its term at every output pixel at once.
    """
    h, w, c = x.shape
    out_h, out_w, slots = weights.shape
    ratio = _integer_multiple((out_h, out_w), (h, w), "weights' grid over value grid")
    wdata, xdata = weights.astype64(), x.astype64()
    parent_rows, parent_cols = np.arange(out_h) // ratio, np.arange(out_w) // ratio
    out = np.zeros((out_h, out_w, c))
    for n, (ri, ci) in enumerate(_clamped_index_maps(h, w, _odd_kernel(slots), 1)):
        out += wdata[:, :, n : n + 1] * xdata[ri[parent_rows], ci[:, parent_cols]]
    return out
