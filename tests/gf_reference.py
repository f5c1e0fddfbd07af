"""Whole-map reference of the guided filter's float64 recipe.

box_mean_array and filter64 are the recipe resfu.guided_filter streams down
the rows: six separable box means over whole float64 maps, whose window
sums run the filter's own recurrence over whole arrays (window_sums_array).
The tests hold the streamed filter to these bit for bit, and the box mean to
a window-loop oracle.
"""

import numpy as np

from resfu.guided_filter import GuidedFilterConfig
from resfu.ops import _window_counts, _window_sums


def window_sums_array(arr: np.ndarray, radius: int, out: np.ndarray) -> np.ndarray:
    """out[i] = the float64 sum of arr[i - r ... i + r] along axis 0,
    truncated at the borders: _window_sums with a view of `out` per index.
    `out` is a float64 array of arr's shape; both may be views."""
    for _ in _window_sums(arr.shape[0], radius, arr.__getitem__, out.__getitem__):
        pass
    return out


def box_mean_array(arr: np.ndarray, radius: int) -> np.ndarray:
    """float64 means of an (H, W, C) array over the (2r+1)^2 windows
    truncated at the borders, normalized by the in-bounds pixel count.

    Window sums along the spatial axis outermost in memory, one transposing
    copy, window sums along the other; the result comes back with its
    spatial axes in the opposite memory order from the input.
    """
    swapped = not arr.flags.c_contiguous and arr.swapaxes(0, 1).flags.c_contiguous
    mem = arr.swapaxes(0, 1) if swapped else np.ascontiguousarray(arr)
    first = window_sums_array(mem, radius, np.empty(mem.shape))
    second = np.ascontiguousarray(first.swapaxes(0, 1))
    sums = window_sums_array(second, radius, np.empty(second.shape))
    h, w = sums.shape[:2]
    sums /= (_window_counts(h, radius)[:, None] * _window_counts(w, radius)[None, :])[:, :, None]
    return sums if swapped else sums.swapaxes(0, 1)


def filter64(q: np.ndarray, k: np.ndarray, cfg: GuidedFilterConfig) -> np.ndarray:
    """The float64 guided filter of float32 (H, W, C) arrays q and k."""
    r = cfg.radius
    mean_q = box_mean_array(q, r)
    var_q = box_mean_array(np.square(q, dtype=np.float64), r)
    var_q -= mean_q * mean_q
    var_q += cfg.eps
    m = box_mean_array(np.multiply(q, k, dtype=np.float64), r)
    mean_k = box_mean_array(k, r)
    m -= mean_q * mean_k  # cov(q, k)
    m /= var_q
    n = mean_k
    n -= m * mean_q
    out = box_mean_array(m, r)
    out *= q
    out += box_mean_array(n, r)
    return out
