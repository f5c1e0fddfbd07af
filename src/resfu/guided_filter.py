"""Edge-preserving alignment of the query map to the upsampled key map.

Fits, per channel and per local window, the linear model  k ~ m * q + n
(least squares with an eps ridge on m), then smooths the per-window
coefficients and applies them back to the query:

    q_out = mean(m) * q + mean(n)

Windows are (2*radius+1)^2 boxes truncated at the borders; every mean is
normalized by the in-bounds pixel count.  Statistics are accumulated in
float64, the result is stored as float32.

The means are the O(1) box sums of He, Sun & Tang ("Guided Image
Filtering", TPAMI 2013), taken in one pass down the rows: every window sum
is a running sum carried from row to row, so no float64 map of the full
height ever exists and the working memory does not grow with the height.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import ShapeMismatch, _positive_int, _positive_real, _window_counts, _window_sums
from .tensor import FeatureMap


@dataclass(frozen=True)
class GuidedFilterConfig:
    """Window radius (a Python or NumPy integer >= 1, not a bool) and ridge
    eps (a finite real > 0); anything else raises ShapeMismatch.  Both are
    stored as Python numbers."""

    radius: int = 8
    eps: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "radius", _positive_int("radius", self.radius))
        object.__setattr__(self, "eps", _positive_real("eps", self.eps))


# Most rows of a tile.  Each tile row adds about ten float64 rows of W x C
# of working memory.  At 256x256x32, 8-row tiles took about 25 % longer
# (more calls per row) and 24-row ones 6-8 % less.
MAX_TILE_ROWS = 16


def _tile_rows(h: int) -> int:
    """Rows per tile of an h-row map: h / 8, at least 1 and at most
    MAX_TILE_ROWS."""
    return max(1, min(MAX_TILE_ROWS, h // 8))


def _row_products(q: np.ndarray, k: np.ndarray, i: int, row: np.ndarray) -> np.ndarray:
    """Fill row (4, W, C) with row i of q, q*q, q*k and k in float64."""
    row[0] = q[i]
    row[3] = k[i]
    np.multiply(row[0], row[0], out=row[1])
    np.multiply(row[0], row[3], out=row[2])
    return row


def guided_filter(query: FeatureMap, key_up: FeatureMap, cfg: GuidedFilterConfig) -> FeatureMap:
    """Filter `query` toward the local linear structure of `key_up`.

    Both maps must share the same H x W x C shape; channels are filtered
    independently.  One pass down the rows in tiles of T rows (_tile_rows),
    every window sum one running-window recurrence (_window_sums):

    1. The vertical window sums of q, q*q, q*k and k are carried from row
       to row in one (4, W, C) float64 buffer, each row made from the
       inputs as it enters or leaves the window.  Each tile's sums are
       stored W-leading, (W, 4, T, C), so that the horizontal window sums,
       taken along W into a view per column, read one contiguous (4, T, C)
       slab per step; mean, var, m and n follow elementwise.
    2. The horizontal window sums of m and n are taken the same way and
       kept in a ring of the last 2r + 1 + T rows; the vertical sum, carried
       the same way over the ring, trails r rows behind the tiles, and each
       output row is written as soon as its window is complete.

    Working memory is about (10T + 4r) float64 rows of W x C, and no buffer
    has more rows than the map, beside the float32 output.  Every element
    goes through the float64 operations of the whole-map recipe (box means
    of q, q*q, q*k and k, then of n and m), in the same order, and every
    window sum adds its rows or columns in index order, so the bits are
    those of that recipe at any tile height.
    """
    if query.shape != key_up.shape:
        raise ShapeMismatch(f"query {query.shape} and key {key_up.shape} must match")
    q, k = query.data, key_up.data
    h, w, c = q.shape
    r = cfg.radius
    t = _tile_rows(h)
    rows, cols = _window_counts(h, r), _window_counts(w, r)
    out = np.empty(q.shape, np.float32)

    row, vsum = np.empty((2, 4, w, c))
    vsums = _window_sums(h, r, lambda i: _row_products(q, k, i, row), lambda i: vsum)
    a, b = np.empty((2, w, 4, t, c))  # W-leading tiles (step 1)
    ring_rows = min(h, t + 2 * r + 1)
    ring = np.empty((2, ring_rows, w, c))
    vsum2, mean = np.empty((2, 2, w, c))
    cnt = np.empty((w, 1))
    vsums2 = _window_sums(h, r, lambda i: ring[:, i % ring_rows], lambda i: vsum2)
    for t0 in range(0, h, t):
        t1 = min(t0 + t, h)
        nt = t1 - t0
        for i, _ in zip(range(t0, t1), vsums):
            a[:, :, i - t0] = vsum.transpose(1, 0, 2)
        at, bt = a[:, :, :nt], b[:, :, :nt]
        for _ in _window_sums(w, r, at.__getitem__, bt.__getitem__):
            pass
        bt /= (cols[:, None] * rows[None, t0:t1])[:, None, :, None]
        mean_q, var, m, n = bt.transpose(1, 0, 2, 3)  # the means of q, q*q, q*k and k, in place
        tmp = at[:, 0]
        np.multiply(mean_q, mean_q, out=tmp)
        var -= tmp
        var += cfg.eps
        np.multiply(mean_q, n, out=tmp)
        m -= tmp  # cov(q, k)
        m /= var
        np.multiply(m, mean_q, out=tmp)
        n -= tmp

        for _ in _window_sums(w, r, bt[:, 2:].__getitem__, at[:, :2].__getitem__):
            pass
        ring[:, np.arange(t0, t1) % ring_rows] = at[:, :2].transpose(1, 2, 0, 3)

        stop = h if t1 == h else t1 - r
        for i, _ in zip(range(max(0, t0 - r), stop), vsums2):  # rows whose windows are complete
            np.multiply(cols[:, None], rows[i], out=cnt)
            np.divide(vsum2, cnt, out=mean)
            mean[0] *= q[i]
            mean[0] += mean[1]
            out[i] = mean[0]
    return FeatureMap.adopt(out)
