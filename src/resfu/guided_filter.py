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
guided_filter takes its four box means from the D-channel maps;
guided_filter_projected, which the pipeline runs, takes those of q from
the guide's C_g channels and those of the resized key from the LR key, so
only q * k_up is summed at high resolution in D channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (
    ShapeMismatch,
    _positive_int,
    _positive_real,
    _resize_matrix,
    _window_counts,
    _window_sums,
    matmul_rows,
    tile_rows,
)
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


def guided_filter(query: FeatureMap, key_up: FeatureMap, cfg: GuidedFilterConfig) -> FeatureMap:
    """Filter `query` toward the local linear structure of `key_up`.

    Both maps must share the same H x W x C shape; channels are filtered
    independently.  The general path: the vertical window sums of q, q*q,
    q*k and k, each row made from the inputs as it enters or leaves the
    window, feed _streamed_filter, and mean, var, m and n follow
    elementwise.  Every element goes through the float64 operations of the
    whole-map recipe (box means of q, q*q, q*k and k, then of n and m), in
    the same order, and every window sum adds its rows or columns in index
    order, so the bits are those of that recipe at any tile height.
    """
    if query.shape != key_up.shape:
        raise ShapeMismatch(f"query {query.shape} and key {key_up.shape} must match")
    q, k = query.data, key_up.data
    row = np.empty((4, q.shape[1], q.shape[2]))

    def products(i: int) -> np.ndarray:
        row[0] = q[i]
        row[3] = k[i]
        np.multiply(row[0], row[0], out=row[1])
        np.multiply(row[0], row[3], out=row[2])
        return row

    def coefficients(means: np.ndarray, t0: int, t1: int, spare: np.ndarray) -> np.ndarray:
        mean_q, var, m, n = means.transpose(1, 0, 2, 3)  # the means of q, q*q, q*k and k, in place
        tmp = spare[: mean_q.size].reshape(mean_q.shape)
        np.multiply(mean_q, mean_q, out=tmp)
        var -= tmp
        var += cfg.eps
        np.multiply(mean_q, n, out=tmp)
        m -= tmp  # cov(q, k)
        m /= var
        np.multiply(m, mean_q, out=tmp)
        n -= tmp
        return means[:, 2:]

    return _streamed_filter(q.shape, lambda i0, i1: q[i0:i1], cfg.radius, row.shape, products, coefficients)


def guided_filter_projected(guide: FeatureMap, weight: np.ndarray, bias: np.ndarray, key: FeatureMap,
                            key_up: FeatureMap, cfg: GuidedFilterConfig) -> FeatureMap:
    """guided_filter(q, key_up, cfg) for q = guide @ weight.T + bias and
    key_up = bilinear_resize(key) at the guide's size, from the guide's C_g
    channels and the low-resolution key; q is never made whole.

    Of the four box means only box(q*k_up) needs D channels at high
    resolution; its rows of q are made as they are read, with the bits of
    the whole-map projection:

        box(q) = P box(y) + b,   var(q)_c = P_c (box(y y^T) - box(y) box(y)^T) P_c^T,
        box(k_up) = M_h k M_w^T,

    with P = weight, y the guide and M_h, M_w the box means of each axis's
    resize matrix (ops._resize_matrix), applied per tile to the key rows
    its windows reach.  The first pass stacks the C_g (C_g + 1) / 2
    products y_j y_l, y, a channel of ones and q*k_up, so this pays while
    C_g (C_g + 3) / 2 < 3 D.  Agrees with guided_filter within 1e-6.
    """
    y, k, k_up = guide.data, key.data, key_up.data
    (h, w, c_g), d = y.shape, key.channels
    if np.shape(weight) != (d, c_g) or np.shape(bias) != (d,) or k_up.shape != (h, w, d):
        raise ShapeMismatch(f"weight {np.shape(weight)}, bias {np.shape(bias)} and key {k_up.shape} do not "
                            f"take {c_g} guide channels to the key's {d} at the guide's size")
    r, t = cfg.radius, _tile_rows(h)
    weight_t = np.ascontiguousarray(weight.T)
    q_rows = np.empty((min(h, t + r), w, d), np.float32)

    def query(i0: int, i1: int) -> np.ndarray:  # rows i0 ... i1 - 1, as grouped_pointwise_conv makes them
        rows = matmul_rows(y[i0:i1].reshape(-1, c_g), weight_t, q_rows[: i1 - i0].reshape(-1, d))
        rows += bias
        return q_rows[: i1 - i0]

    pair_j, pair_l = np.triu_indices(c_g)
    n_y = len(pair_j) + c_g + 1  # per pixel: y_j y_l, y, 1, then q*k_up

    def pairs(v: np.ndarray, out: np.ndarray) -> None:  # out[..., p] = v_j v_l, pair p = (pair_j, pair_l)[p]
        v_t = np.ascontiguousarray(v.reshape(-1, c_g).T)  # channel-major: long inner loops
        np.multiply(v_t[pair_j], v_t[pair_l], out=out[..., : len(pair_j)].reshape(-1, len(pair_j)).T)

    # Rows are made t at a time as the first of them enters the window and
    # kept, at i % len, until the last of them leaves.
    made = np.zeros((min(h, t * -(-(2 * r + 1 + t) // t)), 1, w, n_y + d))
    made[:, 0, :, n_y - 1] = 1.0
    latest = [0]

    def products(i: int) -> np.ndarray:
        if i == latest[0]:
            i1 = latest[0] = min(h, i + t)
            rows = made[i % len(made) :][: i1 - i, 0]
            y_i = rows[..., n_y - 1 - c_g : n_y - 1]
            y_i[...] = y[i:i1]
            pairs(y_i, rows)
            np.multiply(query(i, i1), k_up[i:i1], out=rows[..., n_y:], dtype=np.float64)
        return made[i % len(made)]

    p64 = weight.T.astype(np.float64)
    box_q = np.vstack([p64, bias])  # box(q) = [box(y), 1] @ box_q
    # var(q) + eps = [cov(y)_jl, 1] @ var_q, cov(y)_jl = box(y_j y_l) - box(y_j) box(y_l)
    var_q = np.vstack([p64[pair_j] * p64[pair_l] * np.where(pair_j == pair_l, 1.0, 2.0)[:, None],
                       np.full(d, cfg.eps)])

    def box_of_resize(n_in: int, n_out: int) -> np.ndarray:
        mat = _resize_matrix(n_in, n_out)
        out = np.empty_like(mat)
        for _ in _window_sums(n_out, r, mat.__getitem__, out.__getitem__):
            pass
        return out / _window_counts(n_out, r)[:, None]

    rows_lr, cols_lr = box_of_resize(key.height, h), box_of_resize(key.width, w)
    key_t = np.ascontiguousarray(k.transpose(1, 0, 2), np.float64)  # (w_lr, h_lr, D)
    cov_y = np.ones((w * t, len(pair_j) + 1))
    mn = np.empty((w, 2, t, d))

    def reach(mat: np.ndarray) -> slice:  # the key rows or columns that mat's rows read
        read = np.flatnonzero(mat.any(axis=0))
        return slice(read[0], read[-1] + 1)

    def coefficients(means: np.ndarray, t0: int, t1: int, spare: np.ndarray) -> np.ndarray:
        key_rows = reach(rows_lr[t0:t1])
        step = tile_rows(8 * (t1 - t0) * d)  # columns per chunk, whose D-channel arrays stay in cache
        for w0 in range(0, w, step):
            w1 = min(w, w0 + step)
            key_cols = reach(cols_lr[w0:w1])
            lr = key_t[key_cols, key_rows]  # (columns, rows, D) of the key
            cols = matmul_rows(cols_lr[w0:w1, key_cols], lr.reshape(len(lr), -1), np.empty((w1 - w0, lr[0].size)))
            pixels = means[w0:w1].reshape(-1, n_y + d)  # W-leading
            stats, mean_qk = pixels[:, :n_y], pixels[:, n_y:]
            var, mean_k, mean_q, tmp = spare[: 4 * len(pixels) * d].reshape(4, len(pixels), d)
            mean_y, cov = stats[:, n_y - 1 - c_g : n_y - 1], cov_y[: len(pixels)]
            pairs(mean_y, cov)
            np.subtract(stats[:, : len(pair_j)], cov[:, :-1], out=cov[:, :-1])
            matmul_rows(cov, var_q, var)
            matmul_rows(stats[:, n_y - 1 - c_g :], box_q, mean_q)
            np.matmul(rows_lr[t0:t1, key_rows], cols.reshape(w1 - w0, -1, d), out=mean_k.reshape(w1 - w0, t1 - t0, d))
            np.multiply(mean_q, mean_k, out=tmp)
            np.subtract(mean_qk, tmp, out=tmp)  # cov(q, k_up)
            m, n = mn[w0:w1, 0, : t1 - t0], mn[w0:w1, 1, : t1 - t0]
            tile = m.shape
            np.divide(tmp.reshape(tile), var.reshape(tile), out=m)
            np.multiply(m, mean_q.reshape(tile), out=var.reshape(tile))
            np.subtract(mean_k.reshape(tile), var.reshape(tile), out=n)
        return mn[:, :, : t1 - t0]

    return _streamed_filter((h, w, d), query, r, made.shape[1:], products, coefficients)


def _streamed_filter(shape: tuple[int, int, int], query, r: int, stack: tuple[int, int, int], row,
                     coefficients) -> FeatureMap:
    """The filter of the (H, W, C) query whose rows i0 ... i1 - 1
    query(i0, i1) makes, with window radius r, in one pass down the rows in
    tiles of T rows (_tile_rows), every window sum one running-window
    recurrence (_window_sums):

    1. The vertical window sums of the first pass's quantities, row(i) a
       float64 (n, W, c) `stack` of them, are carried from row to row in
       one buffer.  Each tile's sums are stored W-leading, (W, n, T, c), so
       that the horizontal window sums, taken along W into a view per
       column, read one contiguous (n, T, c) slab per step.  The box means
       go to coefficients(means, t0, t1, spare), which returns m and n as
       a W-leading (W, 2, T, C) view; spare is 4 W T C float64 of scratch.
    2. The horizontal window sums of m and n are taken the same way and
       kept in a ring of the last 2r + 1 + T rows; the vertical sum, carried
       the same way over the ring, trails r rows behind the tiles, and each
       output row mean(m) * q + mean(n) is written as soon as its window is
       complete.

    Working memory is about (10T + 4r) float64 rows of W x C for the
    general stack, and no buffer has more rows than the map, beside the
    float32 output.
    """
    h, w, c = shape
    n_q, _, c_q = stack
    t = _tile_rows(h)
    rows, cols = _window_counts(h, r), _window_counts(w, r)
    out = np.empty(shape, np.float32)

    vsum = np.empty(stack)
    vsums = _window_sums(h, r, row, lambda i: vsum)
    # a holds in turn a tile's vertical sums, the coefficients' scratch, the
    # horizontal sums of m and n, and vsum2 of each row the tile completes
    a = np.empty(w * max(t * n_q * c_q, t * 4 * c, min(h, t + r) * 2 * c))
    b = np.empty(w * t * n_q * c_q)
    ring_rows = min(h, t + 2 * r + 1)
    ring = np.empty((2, ring_rows, w, c))
    vsum2 = np.empty((2, w, c))
    vsums2 = _window_sums(h, r, lambda i: ring[:, i % ring_rows], lambda i: vsum2)
    for t0 in range(0, h, t):
        t1 = min(t0 + t, h)
        nt = t1 - t0
        at = a[: w * n_q * nt * c_q].reshape(w, n_q, nt, c_q)
        for i, _ in zip(range(t0, t1), vsums):
            at[:, :, i - t0] = vsum.transpose(1, 0, 2)
        bt = b[: at.size].reshape(at.shape)
        for _ in _window_sums(w, r, at.__getitem__, bt.__getitem__):
            pass
        bt /= (cols[:, None] * rows[None, t0:t1])[:, None, :, None]
        sums = a[: w * 2 * nt * c].reshape(w, 2, nt, c)
        for _ in _window_sums(w, r, coefficients(bt, t0, t1, a[: w * 4 * nt * c]).__getitem__, sums.__getitem__):
            pass
        ring[:, np.arange(t0, t1) % ring_rows] = sums.transpose(1, 2, 0, 3)

        first = max(0, t0 - r)
        stop = h if t1 == h else max(first, t1 - r)  # the rows whose windows are complete
        mean = a[: (stop - first) * 2 * w * c].reshape(stop - first, 2, w, c)
        for i, _ in zip(range(first, stop), vsums2):
            mean[i - first] = vsum2
        mean /= (cols[None, :] * rows[first:stop, None])[:, None, :, None]
        mean[:, 0] *= query(first, stop)
        mean[:, 0] += mean[:, 1]
        out[first:stop] = mean[:, 0]
    return FeatureMap.adopt(out)
