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
    independently.  One pass down the rows in tiles of T rows (_tile_rows):

    1. The vertical window sums of q, q*q, q*k and k are carried from row
       to row as one (4, W, C) float64 state; the rows that enter and leave
       the window are recomputed from the inputs.  Each tile's sums are
       stored W-leading, (W, 4, T, C), so that the horizontal window sums,
       taken along W, read one contiguous (4, T, C) slab per step; mean,
       var, m and n follow elementwise.
    2. The horizontal window sums of m and n are taken the same way and
       kept in a ring of the last 2r + 1 + T rows; the vertical sum trails
       r rows behind the tiles, and each output row is written as soon as
       its window is complete.

    Working memory is about (10T + 4r) float64 rows of W x C, and no
    buffer has more rows than the map, beside the float32 output.  Every element goes
    through the float64 operations of the whole-map recipe (box means of q,
    q*q, q*k and k, then of n and m), in the same order, and every window
    sum adds its rows or columns in index order, so the bits are those of
    that recipe at any tile height.
    """
    if query.shape != key_up.shape:
        raise ShapeMismatch(f"query {query.shape} and key {key_up.shape} must match")
    q, k = query.data, key_up.data
    h, w, c = q.shape
    r = cfg.radius
    t = _tile_rows(h)
    rows, cols = _window_counts(h, r), _window_counts(w, r)
    out = np.empty(q.shape, np.float32)

    # The first vertical windows: rows 0 ... r added in order.
    row = np.empty((4, w, c))
    vsum = _row_products(q, k, 0, np.empty((4, w, c)))
    for i in range(1, min(r, h - 1) + 1):
        vsum += _row_products(q, k, i, row)

    # The tiles are stored W-leading, (W, 4, T, C), so each step of the
    # horizontal running sums reads one contiguous (4, T, C) slab.
    a = np.empty((w, 4, t, c))
    b = np.empty((w, 4, t, c))
    ring_rows = min(h, t + 2 * r + 1)
    ring = np.empty((2, ring_rows, w, c))
    vsum2 = np.empty((2, w, c))
    mean = np.empty((2, w, c))
    cnt = np.empty((w, 1))
    done = 0
    for t0 in range(0, h, t):
        t1 = min(t0 + t, h)
        nt = t1 - t0
        for i in range(t0, t1):
            if i > 0:
                if i + r < h:
                    vsum += _row_products(q, k, i + r, row)
                if i > r:
                    vsum -= _row_products(q, k, i - r - 1, row)
            a[:, :, i - t0] = vsum.transpose(1, 0, 2)
        at, bt = a[:, :, :nt], b[:, :, :nt]
        _window_sums(at, r, out=bt)
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

        _window_sums(bt[:, 2:], r, out=at[:, :2])
        j0 = 0
        while j0 < nt:  # at most two pieces, split at the ring's end
            s0 = (t0 + j0) % ring_rows
            j1 = min(nt, j0 + ring_rows - s0)
            ring[:, s0 : s0 + j1 - j0] = at[:, :2, j0:j1].transpose(1, 2, 0, 3)
            j0 = j1

        stop = h if t1 == h else t1 - r
        for i in range(done, stop):
            if i == 0:
                vsum2[...] = ring[:, 0]
                for j in range(1, min(r, h - 1) + 1):
                    vsum2 += ring[:, j]
            else:
                if i + r < h:
                    vsum2 += ring[:, (i + r) % ring_rows]
                if i > r:
                    vsum2 -= ring[:, (i - r - 1) % ring_rows]
            np.multiply(cols[:, None], rows[i], out=cnt)
            np.divide(vsum2, cnt, out=mean)
            mean[0] *= q[i]
            mean[0] += mean[1]
            out[i] = mean[0]
        done = max(done, stop)
    return FeatureMap.adopt(out)
