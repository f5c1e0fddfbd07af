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
blocks, so its 128-channel hidden map never exists.  The pipeline's two
blocks run the same arithmetic from lower-channel sources: the semantic
block takes its key taps from the LR key (pcdc_block_resized_key), and
the detail block takes q and its smoothing from the guide's channels
(pcdc_block_projected), feeding conv1 from one im2col product.
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
    _affine_norm,
    _edge_pad,
    _group_count,
    _group_scale_shift,
    _norm_scale_shift,
    _odd_kernel,
    _pixel_blocks,
    _resize_linear,
    _resize_matrix,
    axis_linear_coords,
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


def _pcdc_core(q: np.ndarray | None, k: np.ndarray, weight: np.ndarray, bias: np.ndarray,
               dilation: int) -> np.ndarray:
    """Decomposed difference conv on raw (H, W, D) arrays; dtype follows k,
    and the group count is D over the weight's group width (_group_count).

        v[i, l] = sum_n sum_d' weight[n, d', l] * k[N(i)_n, d]
                - sum_d' (sum_n weight[n, d', l]) * q[i, d] + bias[l]

    With q None the query term is left out.  The key map is edge-padded
    once (ops._edge_pad).  Per CHUNK_ROWS row chunk and tap, one
    block-diagonal matmul takes the chunk's whole padded key rows at the
    tap's row offset to its contributions, which are added at the tap's
    column offset; the query term is one more matmul.
    """
    h, w, d_in = k.shape
    ksq, width, l_out = weight.shape
    groups = _group_count("pcdc", d_in, width, l_out)
    taps = np.stack([_block_diagonal(weight[n], groups) for n in range(ksq)]).astype(k.dtype)
    q_taps = -_block_diagonal(weight.sum(axis=0), groups).astype(k.dtype)
    k_pad, starts = _edge_pad(k, math.isqrt(ksq), dilation)
    w_pad = k_pad.shape[1]
    out = np.empty((h, w, l_out), k.dtype)
    for r0 in range(0, h, CHUNK_ROWS):
        r1 = min(r0 + CHUNK_ROWS, h)
        m = r1 - r0
        chunk = out[r0:r1]
        if q is None:
            chunk[...] = 0
        else:
            matmul_rows(q[r0:r1].reshape(m * w, d_in), q_taps, chunk.reshape(m * w, l_out))
        chunk += bias
        tap_out = np.empty((m, w_pad, l_out), k.dtype)
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


def _compress(conv1, shape: tuple[int, int], params: CompressorParams) -> SimilarityScores:
    """The (H, W, K*K) scores of the compressor whose conv1 pre-activation,
    bias included, conv1(p0, p1, out) writes into the float32 rows `out` of
    pixel block [p0, p1).

    The hidden map never exists.  Two passes run over the pixel blocks,
    each making a block's conv1 and ReLU in one reused buffer: the first
    adds the block to the norm's statistics (_norm_scale_shift, as
    group_normalize does) and drops it; the second applies the float32
    scale and shift and runs conv2 into the block's scores.  So the peak
    above entry is the scores and a few block buffers.
    """
    n_pixels = shape[0] * shape[1]
    blocks = _pixel_blocks(n_pixels)
    buf = np.empty((min(PIXEL_BLOCK, n_pixels), params.conv1_weight.shape[0]), np.float32)
    dense2 = np.ascontiguousarray(params.conv2_weight.T)

    def hidden(p0: int, p1: int) -> np.ndarray:
        rows = conv1(p0, p1, buf[: p1 - p0])
        return np.maximum(rows, 0.0, out=rows)

    scale, shift = _norm_scale_shift((hidden(p0, p1) for p0, p1 in blocks), n_pixels, params.norm)
    out = np.empty((n_pixels, dense2.shape[1]), np.float32)
    for p0, p1 in blocks:
        rows = hidden(p0, p1)
        rows *= scale
        rows += shift
        matmul_rows(rows, dense2, out[p0:p1])
        out[p0:p1] += params.conv2_bias
    return FeatureMap.adopt(out.reshape(*shape, -1))


def channel_compressor(v: FeatureMap, params: CompressorParams) -> SimilarityScores:
    """Compress L difference channels to K*K per-slot scores: conv1, ReLU,
    group norm, conv2 (_compress), with the bits of running them as
    separate maps."""
    n_hidden, width = params.conv1_weight.shape
    dense1 = _block_diagonal(params.conv1_weight.T, _group_count("1x1 conv", v.channels, width, n_hidden))
    flat = v.data.reshape(-1, v.channels)

    def conv1(p0: int, p1: int, out: np.ndarray) -> np.ndarray:
        matmul_rows(flat[p0:p1], dense1, out)
        out += params.conv1_bias
        return out

    return _compress(conv1, v.shape[:2], params)


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
    channel_compressor produce one score per neighbor slot.  This is the
    block on given maps; the pipeline gets the same scores within 1e-6
    from the maps' low-channel sources (pcdc_block_resized_key and
    pcdc_block_projected).

    Each input is dropped after its group norm, and the normalized pair
    after the contraction, which sets the block's peak.  An input the
    caller passes as a temporary is then freed before the contraction
    allocates, because CPython >= 3.11 moves call arguments into the
    callee's frame; older versions keep it until the block returns.
    """
    q_bar = group_normalize(q_in, params.norm)
    del q_in
    k_bar = group_normalize(k_in, params.norm)
    del k_in
    v = pcdc_layer(q_bar, k_bar, params.pcdc, dilation)
    del q_bar, k_bar
    return channel_compressor(v, params.comp)


def _dense_taps(params: PcdcBlockParams) -> np.ndarray:
    """The (K*K, D, L) float64 block-diagonal matrices of the difference
    conv's taps (ops._block_diagonal)."""
    weight = params.pcdc.weight.astype(np.float64)
    groups = _group_count("pcdc", params.norm.channels, *weight.shape[1:])
    return np.stack([_block_diagonal(w_n, groups) for w_n in weight])


def pcdc_block_projected(guide: FeatureMap, guide_gs: FeatureMap, weight: np.ndarray, bias: np.ndarray,
                         params: PcdcBlockParams, dilation: int = 1) -> SimilarityScores:
    """pcdc_block(q, q_gs, params, dilation) for q = guide @ weight.T + bias
    and q_gs = guide_gs @ weight.T + bias, without making either map.

    The two input norms are per-channel affines (s, t) and (s', t') whose
    statistics follow from the guides' sums and C x C second moments
    (ops._affine_norm), so with W_n the tap matrices and P = weight the
    difference map is

        v[i] = sum_n A_n guide_gs[N(i)_n] + B guide[i] + c,
        A_n = W_n diag(s') P,  B = -(sum_n W_n) diag(s) P.

    conv1 is linear, so per pixel block the compressor's pre-activation is
    one float32 product of a (K*K + 1) * C + 1-column im2col (one np.take
    from the edge-padded guide_gs, ops._edge_pad; then guide[i] and a one)
    with conv1 @ [A_0 ... B c], and v never exists.  Both guides enter less
    their mean, so that the terms which cancel round at the guides' spread.
    The guides' C should be below the maps' D; else pass q and q_gs
    themselves with weight = I and bias = 0.
    """
    z, z_gs = guide.data, guide_gs.data
    h, w, c = z.shape
    if z_gs.shape != z.shape or np.shape(weight) != (params.norm.channels, c):
        raise ShapeMismatch(f"guides {z.shape}, {z_gs.shape} and weight {np.shape(weight)} do not match")
    s, t = _affine_norm(z, weight, bias, params.norm)
    s_gs, t_gs = _affine_norm(z_gs, weight, bias, params.norm)
    taps, wp, b64 = _dense_taps(params), weight.T.astype(np.float64), bias.astype(np.float64)
    wsum = taps.sum(axis=0)
    comp = params.comp
    hidden, width = comp.conv1_weight.shape
    conv1 = _block_diagonal(comp.conv1_weight.T.astype(np.float64), _group_count("conv1", wsum.shape[1], width, hidden))
    center = z.reshape(-1, c).mean(axis=0).astype(np.float32)  # q = P (z - center) + b + P center
    b64 += center @ wp
    shift = (((s_gs - s) * b64 + t_gs - t) @ wsum + params.pcdc.bias) @ conv1 + comp.conv1_bias
    lift = np.concatenate([(wp * s_gs) @ tap for tap in taps] + [-(wp * s) @ wsum]) @ conv1
    lift = np.vstack([lift, shift]).astype(np.float32)  # the im2col ends in a column of ones
    padded, starts = _edge_pad(z_gs, params.pcdc.kernel, dilation)
    padded -= center
    source, width = padded.reshape(-1, c), padded.shape[1]
    corner = (np.arange(h)[:, None] * width + np.arange(w)).ravel()  # pixel i's window corner in source
    offsets = [r * width + col for r, col in starts]
    cols = np.ones((min(PIXEL_BLOCK, h * w), len(lift)), np.float32)
    taps_in, flat = cols[:, : len(starts) * c].reshape(len(cols), -1, c), z.reshape(-1, c)
    index = np.empty((len(cols), len(starts)), np.intp)

    def im2col_conv1(p0: int, p1: int, out: np.ndarray) -> np.ndarray:
        n = p1 - p0
        np.add(corner[p0:p1, None], offsets, out=index[:n])
        np.take(source, index[:n], axis=0, out=taps_in[:n], mode="clip")
        np.subtract(flat[p0:p1], center, out=cols[:n, -1 - c : -1])
        return matmul_rows(cols[:n], lift, out)

    return _compress(im2col_conv1, (h, w), comp)


def _key_taps(k: np.ndarray, weight: np.ndarray, bias, ratio: int) -> np.ndarray:
    """The key term sum_n W_n k_up[N(i)_n] + bias of _pcdc_core with dilation
    `ratio` on k_up = _resize_linear(k) at `ratio` times the (h, w, D) k's
    size, from k alone; dtype follows k.

    An HR step of ratio * o is an LR step of o, so the term is the bilinear
    resize of the LR map U[a] = sum_n W_n k[clamp(a + o_n)] + bias, taken on
    k's grid extended by one pixel on each side (a in [-1, h]) and sampled
    at the unclipped half-pixel coordinates.  The extension is what makes
    the outer ratio / 2 HR rows and columns exact.
    """
    h, w = k.shape[:2]
    u = _pcdc_core(None, np.pad(k, ((1, 1), (1, 1), (0, 0)), mode="edge"), weight, bias, 1)
    grid = [tuple(a[ratio : ratio * (n + 1)] for a in axis_linear_coords(n + 2, ratio * (n + 2))) for n in (h, w)]
    return _resize_linear(u, ratio * h, ratio * w, *grid)


def pcdc_block_resized_key(q: FeatureMap, key: FeatureMap, params: PcdcBlockParams, ratio: int) -> SimilarityScores:
    """pcdc_block(q, bilinear_resize(key, H, W), params, ratio) for a key
    `ratio` times smaller than q, without making the resized key.

    The key's norm is a per-channel affine, so it commutes with the resize;
    its statistics follow from key through the resize matrices
    (ops._resize_matrix), and the key taps come from key (_key_taps).  The
    query's norm folds into the query term's weights, and its shift into
    the taps' bias.
    """
    (kh, kw), d = key.shape[:2], params.norm.channels
    if q.shape != (ratio * kh, ratio * kw, d) or key.channels != d:
        raise ShapeMismatch(f"query {q.shape} is not ratio {ratio} times the key {key.shape}")
    k64 = key.astype64()
    rows, cols = _resize_matrix(kh, q.height), _resize_matrix(kw, q.width)
    sums = np.einsum("a,b,abd->d", rows.sum(axis=0), cols.sum(axis=0), k64)
    squares = np.einsum("abd,abd->d", k64, np.tensordot(rows.T @ rows, np.matmul(cols.T @ cols, k64), axes=1))
    k_scale, k_shift = _group_scale_shift(sums, squares, q.height * q.width, params.norm)
    flat = q.data.reshape(-1, d)
    blocks = _pixel_blocks(flat.shape[0])
    q_scale, q_shift = _norm_scale_shift((flat[p0:p1] for p0, p1 in blocks), flat.shape[0], params.norm)
    wsum = _dense_taps(params).sum(axis=0)
    v = _key_taps(key.data * k_scale + k_shift, params.pcdc.weight.astype(np.float64),
                  params.pcdc.bias - q_shift @ wsum, ratio)
    query = (-q_scale[:, None] * wsum).astype(np.float32)
    v_flat, buf = v.reshape(flat.shape[0], -1), np.empty((min(PIXEL_BLOCK, flat.shape[0]), wsum.shape[1]), np.float32)
    for p0, p1 in blocks:
        v_flat[p0:p1] += matmul_rows(flat[p0:p1], query, buf[: p1 - p0])
    return channel_compressor(FeatureMap.adopt(v), params.comp)
