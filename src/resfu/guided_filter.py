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

    Both maps must share the same H x W x C shape; channels are filtered
    independently.  At most five float64 maps of that shape are live at
    once, on top of the two inputs.
    """
    if query.shape != key_up.shape:
        raise ShapeMismatch(f"query {query.shape} and key {key_up.shape} must match")
    q = query.data
    k = key_up.data
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
    return FeatureMap(out)
