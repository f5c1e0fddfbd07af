"""Paired central difference similarity head.

The core layer compares a query pixel against the dilated KxK neighborhood
of the key map, channel group by channel group.  The dilation is not part
of the weights: the layer and the block take it per call, and the pipeline
passes the upsampling ratio.  With N(i) that neighborhood,

    v[i, l] = sum_d sum_n w[n, d', l] * (k[N(i)_n, d] - q[i, d]) + b[l]

where d runs over the input channels of output l's group and d' is the
within-group channel index.  Because the query term does not depend on the
neighbor slot, the layer is evaluated in decomposed form: a grouped dilated
KxK convolution over the key minus a 1x1 convolution over the query whose
weights are the spatial sums of w.  The literal triple-loop form lives in
resfu.oracle and the two are held to agree in tests.

A full block normalizes both inputs with a shared affine (statistics stay
per input), applies pcdc_layer, then channel_compressor compresses the L
channels down to one score per neighbor slot, in two passes over pixel
blocks, so its 128-channel hidden map never exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import (
    CHUNK_ROWS,
    PIXEL_BLOCK,
    GroupNormAffine,
    ShapeMismatch,
    SimilarityScores,
    _as_float32,
    _block_diagonal,
    _edge_pad,
    _group_count,
    _norm_scale_shift,
    _odd_kernel,
    _pixel_blocks,
    group_normalize,
    matmul_rows,
)
from .tensor import FeatureMap


@dataclass(frozen=True)
class PcdcParams:
    """Difference-convolution weights: (K*K, D/G, L) plus per-output bias;
    each call reads the group count G from its maps (see ops._group_count)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        weight = _as_float32("weight", self.weight, 3)
        bias = _as_float32("bias", self.bias, 1)
        ksq, _, l_out = weight.shape
        _odd_kernel(ksq)
        if bias.size != l_out:
            raise ShapeMismatch(f"bias has {bias.size} entries, weight implies {l_out}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bias", bias)

    @property
    def kernel(self) -> int:
        return math.isqrt(self.weight.shape[0])

    @property
    def out_channels(self) -> int:
        return self.weight.shape[2]


def _pcdc_core(q: np.ndarray, k: np.ndarray, weight: np.ndarray, bias: np.ndarray,
               dilation: int) -> np.ndarray:
    """Decomposed difference conv on raw (H, W, D) arrays; dtype follows q,
    and the group count is D over the weight's group width (_group_count).

        v[i, l] = sum_n sum_d' weight[n, d', l] * k[N(i)_n, d]
                - sum_d' (sum_n weight[n, d', l]) * q[i, d] + bias[l]

    The key map is edge-padded once (ops._edge_pad).  Per CHUNK_ROWS row
    chunk and tap, one block-diagonal matmul takes the chunk's whole padded
    key rows at the tap's row offset to its contributions, which are added
    at the tap's column offset; the query term is one more matmul.
    """
    h, w, d_in = q.shape
    ksq, width, l_out = weight.shape
    groups = _group_count("pcdc", d_in, width, l_out)
    taps = np.stack([_block_diagonal(weight[n], groups) for n in range(ksq)]).astype(q.dtype)
    q_taps = -_block_diagonal(weight.sum(axis=0), groups).astype(q.dtype)
    k_pad, starts = _edge_pad(k, math.isqrt(ksq), dilation)
    w_pad = k_pad.shape[1]
    out = np.empty((h, w, l_out), q.dtype)
    for r0 in range(0, h, CHUNK_ROWS):
        r1 = min(r0 + CHUNK_ROWS, h)
        m = r1 - r0
        chunk = out[r0:r1]
        matmul_rows(q[r0:r1].reshape(m * w, d_in), q_taps, chunk.reshape(m * w, l_out))
        chunk += bias
        tap_out = np.empty((m, w_pad, l_out), q.dtype)
        for n, (r, c) in enumerate(starts):
            rows = k_pad[r0 + r : r1 + r].reshape(m * w_pad, d_in)
            matmul_rows(rows, taps[n], tap_out.reshape(m * w_pad, l_out))
            chunk += tap_out[:, c : c + w]
    return out


def pcdc_layer(q_bar: FeatureMap, k_bar: FeatureMap, params: PcdcParams, dilation: int = 1) -> FeatureMap:
    """Apply the difference convolution, its KxK neighborhood dilated by
    `dilation`, to a projected query/key pair, in float32 (the taps and the
    query weight sums are formed in float64, then rounded).  The maps may
    have any channel count the weight's group width splits."""
    if q_bar.shape != k_bar.shape:
        raise ShapeMismatch(f"query {q_bar.shape} and key {k_bar.shape} must match")
    return FeatureMap.adopt(_pcdc_core(q_bar.data, k_bar.data, params.weight.astype(np.float64),
                                       params.bias, dilation))


@dataclass(frozen=True)
class CompressorParams:
    """Channel reduction after the difference layer: grouped 1x1 conv, ReLU,
    group norm, then a final 1x1 conv down to one score per neighbor slot.

    conv1_weight is (hidden, L/G): its group count G is read from the
    difference map's L channels at each call (see grouped_pointwise_conv).
    conv2_weight is (K*K, hidden), so the final conv is ungrouped.
    """

    conv1_weight: np.ndarray
    conv1_bias: np.ndarray
    norm: GroupNormAffine
    conv2_weight: np.ndarray
    conv2_bias: np.ndarray

    def __post_init__(self):
        for name, rank in (("conv1_weight", 2), ("conv1_bias", 1), ("conv2_weight", 2), ("conv2_bias", 1)):
            object.__setattr__(self, name, _as_float32(name, getattr(self, name), rank))
        for name, weight, bias in (("conv1", self.conv1_weight, self.conv1_bias),
                                   ("conv2", self.conv2_weight, self.conv2_bias)):
            if bias.size != weight.shape[0]:
                raise ShapeMismatch(f"{name} bias has {bias.size} entries, its weight has {weight.shape[0]} rows")
        hidden = self.conv1_weight.shape[0]
        if self.norm.channels != hidden:
            raise ShapeMismatch(f"norm covers {self.norm.channels} channels, conv1 makes {hidden}")
        if self.conv2_weight.shape[1] != hidden:
            raise ShapeMismatch(f"conv2 expects {self.conv2_weight.shape[1]} channels, conv1 makes {hidden}")


def channel_compressor(v: FeatureMap, params: CompressorParams) -> SimilarityScores:
    """Compress L difference channels to K*K per-slot scores: conv1, ReLU,
    group norm, conv2, with the bits of running them as separate maps.

    The hidden map never exists.  Two passes run over v's pixel blocks,
    each making a block's conv1 and ReLU in one reused buffer: the first
    adds the block to the norm's statistics (_norm_scale_shift, as
    group_normalize does) and drops it; the second applies the float32
    scale and shift and runs conv2 into the block's scores.  So the peak
    above entry is the scores and a few block buffers.
    """
    n_hidden, width = params.conv1_weight.shape
    dense1 = _block_diagonal(params.conv1_weight.T, _group_count("1x1 conv", v.channels, width, n_hidden))
    dense2 = _block_diagonal(params.conv2_weight.T, 1)
    flat = v.data.reshape(-1, v.channels)
    blocks = _pixel_blocks(flat.shape[0])
    buf = np.empty((min(PIXEL_BLOCK, flat.shape[0]), n_hidden), np.float32)

    def hidden(p0: int, p1: int) -> np.ndarray:
        rows = matmul_rows(flat[p0:p1], dense1, buf[: p1 - p0])
        rows += params.conv1_bias
        return np.maximum(rows, 0.0, out=rows)

    scale, shift = _norm_scale_shift((hidden(p0, p1) for p0, p1 in blocks), flat.shape[0], params.norm)
    out = np.empty((flat.shape[0], dense2.shape[1]), np.float32)
    for p0, p1 in blocks:
        rows = hidden(p0, p1)
        rows *= scale
        rows += shift
        matmul_rows(rows, dense2, out[p0:p1])
        out[p0:p1] += params.conv2_bias
    return FeatureMap.adopt(out.reshape(v.height, v.width, -1))


@dataclass(frozen=True)
class PcdcBlockParams:
    """Shared-affine input norm + difference layer + channel compressor; the
    group counts of the difference conv and conv1 are read from D and L."""

    norm: GroupNormAffine
    pcdc: PcdcParams
    comp: CompressorParams

    def __post_init__(self):
        _group_count("pcdc", self.norm.channels, *self.pcdc.weight.shape[1:])
        hidden, width = self.comp.conv1_weight.shape
        _group_count("conv1", self.pcdc.out_channels, width, hidden)
        scores, kernel = self.comp.conv2_weight.shape[0], self.pcdc.kernel
        if scores != kernel * kernel:
            raise ShapeMismatch(f"compressor emits {scores} scores, kernel {kernel} needs {kernel * kernel}")


def pcdc_block(q_in: FeatureMap, k_in: FeatureMap, params: PcdcBlockParams, dilation: int = 1) -> SimilarityScores:
    """Score the `dilation`-dilated key neighborhood of every query pixel.

    Both inputs pass through group normalization with the same affine
    parameters (statistics are computed per input), then pcdc_layer and
    channel_compressor produce one score per neighbor slot.

    Each input is dropped after its group norm, and the normalized pair
    after the contraction, which sets the block's peak.  An input the
    caller passes as a temporary, as run_pipeline does, is then freed
    before the contraction allocates, because CPython >= 3.11 moves call
    arguments into the callee's frame; older versions keep it until the
    block returns.
    """
    q_bar = group_normalize(q_in, params.norm)
    del q_in
    k_bar = group_normalize(k_in, params.norm)
    del k_in
    v = pcdc_layer(q_bar, k_bar, params.pcdc, dilation)
    del q_bar, k_bar
    return channel_compressor(v, params.comp)
