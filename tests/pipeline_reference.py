"""A float64 reference for every PipelineResult field, written from the
definitions with resfu.oracle's helpers and no production kernel.

reference_pipeline follows the stage list of resfu.upsampler: the 1x1
projections, the half-pixel bilinear k_up, the window guided filter
(oracle_guided_filter_window), the 3x3 unit-sigma Gaussian with clamped
edges, the group norms, the difference conv (oracle_pcdc_direct), the
compressor (grouped conv1, ReLU, group norm, conv2), the softmax and the
clamped gather on the bilinearly upsampled x.  Every map stays float64
from stage to stage (Map64 gives the oracles the view of a map they read).
"""

import math

import numpy as np

from resfu.guided_filter import GuidedFilterConfig
from resfu.ops import NORM_EPS, NORM_GROUPS
from resfu.oracle import _clamped_index_maps, oracle_gather_neighbors, oracle_guided_filter_window, oracle_pcdc_direct


class Map64:
    """A float64 (H, W, C) array with the shape, data and astype64 the
    oracles read from a FeatureMap."""

    def __init__(self, data):
        self.data = np.asarray(data, np.float64)
        self.shape = self.data.shape

    def astype64(self):
        return self.data


def conv1x1(arr, weight, bias):
    """Grouped 1x1 conv: output l reads group l // (L / G) of the inputs,
    G the input channels over the (L, width) weight's width."""
    c_out, width = weight.shape
    per = c_out // (arr.shape[-1] // width)
    out = np.empty(arr.shape[:-1] + (c_out,))
    for l in range(c_out):
        g = l // per
        out[..., l] = arr[..., g * width : (g + 1) * width] @ np.float64(weight[l]) + np.float64(bias[l])
    return out


def resize(arr, out_h, out_w):
    """Half-pixel-center bilinear resize, source coordinates clamped."""
    for axis, n_out in ((0, out_h), (1, out_w)):
        n_in = arr.shape[axis]
        pos = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5, 0.0, n_in - 1.0)
        lo = np.floor(pos).astype(int)
        frac = np.expand_dims(pos - lo, tuple(range(1, arr.ndim))).swapaxes(0, axis)
        arr = np.take(arr, lo, axis) * (1 - frac) + np.take(arr, np.minimum(lo + 1, n_in - 1), axis) * frac
    return arr


def gaussian3(arr):
    """3x3 Gaussian of unit sigma, weights normalized to 1, edges clamped."""
    h, w, _ = arr.shape
    taps = [math.exp(-(di * di + dj * dj) / 2) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    out = sum(tap * arr[ri, ci] for tap, (ri, ci) in zip(taps, _clamped_index_maps(h, w, 3, 1)))
    return out / sum(taps)


def group_norm(arr, gamma, beta):
    """Population mean and variance over all pixels of each of NORM_GROUPS
    channel groups, then the per-channel affine."""
    h, w, c = arr.shape
    groups = arr.reshape(h * w, NORM_GROUPS, c // NORM_GROUPS)
    mean = groups.mean(axis=(0, 2), keepdims=True)
    var = groups.var(axis=(0, 2), keepdims=True)
    normed = ((groups - mean) / np.sqrt(var + NORM_EPS)).reshape(h, w, c)
    return normed * np.float64(gamma) + np.float64(beta)


def score_block(q_in, k_in, block, dilation):
    """Shared-affine input norms, the difference conv and the compressor."""
    v = oracle_pcdc_direct(Map64(group_norm(q_in, block.norm.gamma, block.norm.beta)),
                           Map64(group_norm(k_in, block.norm.gamma, block.norm.beta)),
                           block.pcdc.weight, block.pcdc.bias, dilation)
    comp = block.comp
    hidden = np.maximum(conv1x1(v, comp.conv1_weight, comp.conv1_bias), 0.0)
    return conv1x1(group_norm(hidden, comp.norm.gamma, comp.norm.beta), comp.conv2_weight, comp.conv2_bias)


def reference_pipeline(x, y, params, ratio, similarity="pcdc"):
    """Every PipelineResult field of run_pipeline(x, y, params, ratio) by
    name, in float64; the innerprod baseline makes no q_gf, s_s, q_gs or
    s_d and scores each slot with q . k_up."""
    h, w = y.shape[:2]
    proj, kernel = params.proj, params.kernel
    maps = {"q": conv1x1(y.astype64(), proj.weight_q, proj.bias_q),
            "k": conv1x1(x.astype64(), proj.weight_k, proj.bias_k)}
    maps["k_up"] = resize(maps["k"], h, w)
    if similarity == "innerprod":
        neighbors = oracle_gather_neighbors(Map64(maps["k_up"]), kernel, ratio)
        scores = np.einsum("pd,psd->ps", maps["q"].reshape(h * w, -1), neighbors).reshape(h, w, -1)
    else:
        maps["q_gf"] = oracle_guided_filter_window(Map64(maps["q"]), Map64(maps["k_up"]), GuidedFilterConfig())
        maps["s_s"] = score_block(maps["q_gf"], maps["k_up"], params.block_s, ratio)
        maps["q_gs"] = gaussian3(maps["q"])
        maps["s_d"] = score_block(maps["q"], maps["q_gs"], params.block_d, ratio)
        scores = maps["s_s"] + maps["s_d"]
    maps["scores"] = scores
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    maps["kernels"] = e / e.sum(axis=-1, keepdims=True)
    neighbors = oracle_gather_neighbors(Map64(resize(x.astype64(), h, w)), kernel, ratio)
    maps["output"] = np.einsum("ps,psc->pc", maps["kernels"].reshape(h * w, -1), neighbors).reshape(h, w, -1)
    return maps
