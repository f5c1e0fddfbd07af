"""Edge-preserving alignment of the query map to the upsampled key map.

Fits, per channel and per local window, the linear model  k ~ m * q + n
(least squares with an eps ridge on m), then smooths the per-window
coefficients and applies them back to the query:

    q_out = mean(m) * q + mean(n)

Windows are (2*radius+1)^2 boxes truncated at the borders; every mean is
normalized by the in-bounds pixel count.  Statistics are accumulated in
float64, the result is stored as float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import ShapeMismatch, box_mean_array
from .tensor import FeatureMap


@dataclass(frozen=True)
class GuidedFilterConfig:
    radius: int = 8
    eps: float = 1e-3

    def __post_init__(self):
        if not isinstance(self.radius, int) or self.radius < 1:
            raise ShapeMismatch(f"radius must be an integer >= 1, got {self.radius!r}")
        if not self.eps > 0:
            raise ShapeMismatch(f"eps must be positive, got {self.eps!r}")


def guided_filter(query: FeatureMap, key_up: FeatureMap, cfg: GuidedFilterConfig) -> FeatureMap:
    """Filter `query` toward the local linear structure of `key_up`.

    Both maps must share the same H x W x C shape.  Channels are filtered
    independently, so the float64 recipe runs on one channel half at a
    time, on contiguous copies of that half of both maps, and each half's
    result is stored into the float32 output: at most five float64 maps
    of half the channels are live at once, on top of the inputs, their
    half copies and the output.  The bits are those of filtering all
    channels at once.
    """
    if query.shape != key_up.shape:
        raise ShapeMismatch(f"query {query.shape} and key {key_up.shape} must match")
    c = query.channels
    out = np.empty(query.shape, np.float32)
    # Strided views of the halves would save the copies, but at 256x256x32
    # the filter ran about 4 % slower on them (196 against 188 ms).
    for c0, c1 in ((0, c // 2), (c // 2, c)):
        if c1 > c0:
            out[:, :, c0:c1] = _filter64(np.ascontiguousarray(query.data[:, :, c0:c1]),
                                         np.ascontiguousarray(key_up.data[:, :, c0:c1]), cfg)
    return FeatureMap.adopt(out)


def _filter64(q: np.ndarray, k: np.ndarray, cfg: GuidedFilterConfig) -> np.ndarray:
    """The float64 guided filter of float32 (H, W, C) arrays q and k."""
    r = cfg.radius
    # Each map is dropped after its last reader; two of the five live maps
    # are box_mean_array's own.  The mean of n is taken before the mean of m
    # only for glibc's sake: the reverse order computes the same bits, but a
    # 64x64x32 -> 256x256x32 upsample then took 6.8k page faults per call
    # instead of 4.6k.
    mean_q = box_mean_array(q, r)
    var_q = box_mean_array(np.square(q, dtype=np.float64), r)
    var_q -= mean_q * mean_q
    var_q += cfg.eps
    m = box_mean_array(np.multiply(q, k, dtype=np.float64), r)
    mean_k = box_mean_array(k, r)
    m -= mean_q * mean_k  # cov(q, k)
    m /= var_q
    del var_q
    n = mean_k
    n -= m * mean_q
    del mean_q, mean_k

    mean_n = box_mean_array(n, r)
    del n
    out = box_mean_array(m, r)
    del m
    out *= q
    out += mean_n
    return out
