"""The full upsampling pipeline.

Given a low-resolution value/key feature x (h x w x C) and a high-resolution
guide y (H x W x c), the pipeline is:

    q, k    <- per-pixel linear projections of y and x        (D channels)
    k_up    <- bilinear_resize(k, H, W)
    q_gf    <- guided_filter(q, k_up)          # align q to k's structure
    q_gs    <- gaussian_smooth3(q)             # self-similarity reference
    s_s     <- pcdc_block(q_gf, k_up)          # semantic branch scores
    s_d     <- pcdc_block(q, q_gs)             # detail branch scores
    kernels <- softmax_rows(s_s + s_d)
    out_i   <- sum_n kernels[i, n] * x_up[N(i)_n]

run_pipeline is the one path through these stages.  Every upsampling entry
point starts with check_guide, which rejects a guide that is not ratio times
the input's size and NaN or Inf in either map.  Neighborhoods are K x K, K
taken from the parameter bundle, with dilation equal to the upsampling
ratio, on the high-resolution grids ("fine-grained neighbor selection");
both score branches use the same dilation.  The value gather runs either
naively (materialize x_up = bilinear_resize(x)) or fused: bilinear samples
are computed on demand per row chunk into buffers allocated once per call,
and the taps accumulate straight into the output in row tiles sized to stay
in L2 (ops.TILE_BYTES), so the full H x W x C upsampled buffer never exists
and no output-sized temporary is allocated.  Both paths round every output
element identically, so their outputs are equal bit for bit.  Every stage
runs on the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .guided_filter import GuidedFilterConfig, guided_filter
from .ops import (
    CHUNK_ROWS,
    GroupNormAffine,
    ShapeMismatch,
    SimilarityScores,
    _resize_linear,
    axis_linear_coords,
    bilinear_resize,
    gather_neighbors,
    gaussian_smooth3,
    grouped_pointwise_conv,
    lerp_take,
    neighbor_offsets,
    softmax_rows,
    tile_rows,
)
from .pcdc import CompressorParams, PcdcBlockParams, PcdcParams, pcdc_block
from .tensor import FeatureMap

PROJ_DIM = 32  # D: projection width of q and k
PCDC_CHANNELS = 32  # L: difference-conv output channels
PCDC_GROUPS = 4  # G
COMPRESSOR_HIDDEN = 128
NORM_GROUPS = 4
NORM_EPS = 1e-5
KERNEL = 3  # K of generated bundles


class RatioMismatch(Exception):
    """Guide/input dimensions are not related by the integer ratio."""


class RowNotNormalized(Exception):
    """Kernel weights were not softmax-normalized before application."""


class NonFiniteInput(Exception):
    """The input or the guide holds a NaN or an infinite value."""


def _check_ratio(ratio) -> int:
    if not isinstance(ratio, (int, np.integer)) or ratio < 1:
        raise RatioMismatch(f"ratio must be an integer >= 1, got {ratio!r}")
    return int(ratio)


def check_guide(x: FeatureMap, y: FeatureMap, ratio: int) -> None:
    """Entry check of every upsampling path: the guide is `ratio` times the
    input in both dimensions, and neither map holds NaN or Inf (group-norm
    statistics pool the whole map, so one bad pixel would spoil every
    output)."""
    if y.height != ratio * x.height or y.width != ratio * x.width:
        raise RatioMismatch(
            f"guide is {y.height}x{y.width}, ratio {ratio} on {x.height}x{x.width} "
            f"input implies {ratio * x.height}x{ratio * x.width}"
        )
    for name, fmap in (("input", x), ("guide", y)):
        if not np.isfinite(fmap.data).all():
            raise NonFiniteInput(f"{name} holds NaN or infinite values")


@dataclass(frozen=True)
class ProjectionParams:
    """Per-pixel affine projections: q from the guide, k from the input."""

    weight_q: np.ndarray
    bias_q: np.ndarray
    weight_k: np.ndarray
    bias_k: np.ndarray

    def __post_init__(self):
        for name in ("weight_q", "bias_q", "weight_k", "bias_k"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), np.float32))
        if self.weight_q.ndim != 2 or self.weight_k.ndim != 2:
            raise ShapeMismatch("projection weights must be matrices")
        d = self.weight_q.shape[0]
        if self.weight_k.shape[0] != d or self.bias_q.shape != (d,) or self.bias_k.shape != (d,):
            raise ShapeMismatch("projection tensors disagree on the output dimension")

    @property
    def dim(self) -> int:
        return self.weight_q.shape[0]


@dataclass(frozen=True)
class ResfuParams:
    """Everything learned/generated: projections, the two score blocks, and
    the guided-filter settings."""

    proj: ProjectionParams
    block_s: PcdcBlockParams
    block_d: PcdcBlockParams
    gf: GuidedFilterConfig = GuidedFilterConfig()

    def __post_init__(self):
        d = self.proj.dim
        if self.block_s.norm.channels != d or self.block_d.norm.channels != d:
            raise ShapeMismatch(
                f"score blocks expect {self.block_s.norm.channels}/{self.block_d.norm.channels} "
                f"channels but projections produce {d}"
            )
        if self.block_s.pcdc.kernel != self.block_d.pcdc.kernel:
            raise ShapeMismatch("both score blocks must share one kernel size")

    @property
    def kernel(self) -> int:
        return self.block_s.pcdc.kernel


@dataclass(frozen=True)
class UpsampleConfig:
    """The upsampling ratio; the kernel size comes from the parameters."""

    ratio: int

    def __post_init__(self):
        _check_ratio(self.ratio)


def project_qk(x: FeatureMap, y: FeatureMap, proj: ProjectionParams) -> tuple[FeatureMap, FeatureMap]:
    """Project guide and input into the shared D-channel comparison space."""
    if y.channels != proj.weight_q.shape[1]:
        raise ShapeMismatch(f"guide has {y.channels} channels, weight_q expects {proj.weight_q.shape[1]}")
    if x.channels != proj.weight_k.shape[1]:
        raise ShapeMismatch(f"input has {x.channels} channels, weight_k expects {proj.weight_k.shape[1]}")
    return (grouped_pointwise_conv(y, proj.weight_q, proj.bias_q, groups=1),
            grouped_pointwise_conv(x, proj.weight_k, proj.bias_k, groups=1))


# --- kernel application with fine-grained neighbor selection ---------------


def _apply_naive(weights: np.ndarray, x: np.ndarray, ratio: int, kernel: int) -> np.ndarray:
    """Reference path: materialize the upsampled value map, then gather.

    Computes in the dtype of the (H, W, C) value array x; resfu.grad runs it
    on float64."""
    out_h, out_w = weights.shape[:2]
    x_up = _resize_linear(x, out_h, out_w)
    pad = (kernel - 1) // 2 * ratio
    padded = np.pad(x_up, ((pad, pad), (pad, pad), (0, 0)), mode="edge")
    out = np.zeros((out_h, out_w, x.shape[2]), x.dtype)
    for n, (di, dj) in enumerate(neighbor_offsets(kernel, ratio)):
        view = padded[pad + di : pad + di + out_h, pad + dj : pad + dj + out_w]
        out += weights[:, :, n : n + 1] * view
    return out


def _apply_fused(weights: np.ndarray, x: np.ndarray, ratio: int, kernel: int) -> np.ndarray:
    """Fused path on the float32 (H, W, C) value array x: bilinear value
    samples are computed per row chunk on demand; the full upsampled buffer
    never exists.

    The buffers are allocated once per call and reused for every chunk: the
    edge-padded sample strip of a chunk and its halo rows, the input rows
    the strip interpolates from, and one row tile.  A chunk carries the
    halo rows it shares with the previous chunk and interpolates the rest
    of its strip tile by tile through the tile buffer; then each output row
    tile is zeroed in `out` and accumulates its taps in a fixed order, every
    product going through the tile buffer.  Each output element thus sees
    the same float32 roundings as on the naive path, whatever the tile size.
    """
    out_h, out_w = weights.shape[:2]
    h, w, c = x.shape
    r_lo, r_hi, r_t = axis_linear_coords(h, out_h)
    c_lo, c_hi, c_t = axis_linear_coords(w, out_w)
    r_t = r_t.astype(np.float32)[:, None, None]
    c_t = c_t.astype(np.float32)[None, :, None]
    pad = (kernel - 1) // 2 * ratio
    offsets = neighbor_offsets(kernel, ratio)
    out = np.empty((out_h, out_w, c), np.float32)
    strip_rows = min(CHUNK_ROWS, out_h) + 2 * pad
    step = min(strip_rows, tile_rows(4 * out_w * c))
    strip = np.empty((strip_rows, out_w + 2 * pad, c), np.float32)
    rows = np.empty((2, strip_rows, w, c), np.float32)
    tile = np.empty((step, out_w, c), np.float32)
    for r0 in range(0, out_h, CHUNK_ROWS):
        r1 = min(r0 + CHUNK_ROWS, out_h)
        n_ext = r1 - r0 + 2 * pad
        # The last 2*pad strip rows of the previous (full) chunk are the
        # first of this one: carry them and interpolate only the new rows.
        # The two slices overlap when 2*pad > CHUNK_ROWS; numpy's
        # assignment copies through a temporary then.
        carried = 2 * pad if r0 else 0
        strip[:carried] = strip[CHUNK_ROWS : CHUNK_ROWS + carried]
        rows_new = np.clip(np.arange(r0 - pad + carried, r1 + pad), 0, out_h - 1)
        n_new = n_ext - carried
        lerp_take(x, r_lo[rows_new], r_hi[rows_new], r_t[rows_new], 0, rows[0, :n_new], rows[1, :n_new])
        for s0 in range(0, n_new, step):
            s1 = min(s0 + step, n_new)
            lerp_take(rows[0, s0:s1], c_lo, c_hi, c_t, 1, strip[carried + s0 : carried + s1, pad : pad + out_w],
                      tile[: s1 - s0])
        strip[carried:n_ext, :pad] = strip[carried:n_ext, pad : pad + 1]
        strip[carried:n_ext, pad + out_w :] = strip[carried:n_ext, pad + out_w - 1 : pad + out_w]
        for t0 in range(r0, r1, step):
            t1 = min(t0 + step, r1)
            acc, tmp = out[t0:t1], tile[: t1 - t0]
            acc.fill(0)
            for n, (di, dj) in enumerate(offsets):
                s0 = t0 - r0 + pad + di
                view = strip[s0 : s0 + t1 - t0, pad + dj : pad + dj + out_w]
                np.multiply(weights[t0:t1, :, n : n + 1], view, out=tmp)
                acc += tmp
    return out


def kernel_apply_fns(weights: SimilarityScores, x: FeatureMap, ratio: int, kernel: int = 3,
                     fused: bool = True) -> FeatureMap:
    """Mix bilinearly upsampled values of x with per-pixel kernel weights.

    `weights` holds one post-softmax weight per neighbor slot; slot n of
    output pixel i addresses x_up at i plus the n-th dilated offset (dilation
    = ratio, clamped at edges).  The fused and naive paths are held to agree
    within 1e-5 relative.
    """
    if weights.channels != kernel * kernel:
        raise ShapeMismatch(f"weights carry {weights.channels} slots, kernel {kernel} needs {kernel * kernel}")
    ratio = _check_ratio(ratio)
    if weights.height != ratio * x.height or weights.width != ratio * x.width:
        raise RatioMismatch(
            f"weights are {weights.height}x{weights.width} but ratio {ratio} on "
            f"{x.height}x{x.width} input implies {ratio * x.height}x{ratio * x.width}"
        )
    row_sums = weights.astype64().sum(axis=2)
    worst = float(np.max(np.abs(row_sums - 1.0)))
    if not worst <= 1e-3:  # NaN fails too
        raise RowNotNormalized(f"kernel rows sum off by {worst:.3g}; run softmax_rows first")
    if fused:
        return FeatureMap.adopt(_apply_fused(weights.data, x.data, ratio, kernel))
    return FeatureMap.adopt(_apply_naive(weights.data, x.data, ratio, kernel))


# --- end-to-end pipeline ----------------------------------------------------


@dataclass
class PipelineResult:
    """All intermediates of one upsampling run (for dumps and tests)."""

    q: FeatureMap
    k: FeatureMap
    k_up: FeatureMap
    q_gf: FeatureMap
    q_gs: FeatureMap
    s_s: SimilarityScores
    s_d: SimilarityScores
    scores: SimilarityScores
    kernels: SimilarityScores
    output: FeatureMap


def run_pipeline(x: FeatureMap, y: FeatureMap, params: ResfuParams, cfg: UpsampleConfig,
                 fused: bool = True, threads: int = 1) -> PipelineResult:
    """Run every stage once and keep each intermediate.

    `threads` is accepted and ignored: every stage runs on the calling
    thread."""
    check_guide(x, y, cfg.ratio)
    q, k = project_qk(x, y, params.proj)
    k_up = bilinear_resize(k, y.height, y.width)
    q_gf = guided_filter(q, k_up, params.gf)
    q_gs = gaussian_smooth3(q)
    s_s = pcdc_block(q_gf, k_up, params.block_s, cfg.ratio)
    s_d = pcdc_block(q, q_gs, params.block_d, cfg.ratio)
    scores = FeatureMap(s_s.data + s_d.data)
    kernels = softmax_rows(scores)
    output = kernel_apply_fns(kernels, x, cfg.ratio, params.kernel, fused=fused)
    return PipelineResult(q, k, k_up, q_gf, q_gs, s_s, s_d, scores, kernels, output)


def resfu_upsample(x: FeatureMap, y: FeatureMap, params: ResfuParams, cfg: UpsampleConfig,
                   fused: bool = True, threads: int = 1) -> FeatureMap:
    """Upsample x by cfg.ratio under the guidance of y (`threads` is ignored,
    as in run_pipeline)."""
    return run_pipeline(x, y, params, cfg, fused=fused).output


def inner_product_scores(q: FeatureMap, k_up: FeatureMap, kernel: int, ratio: int) -> SimilarityScores:
    """Plain dot-product similarity over the same dilated neighborhoods,
    kept as the baseline the difference blocks are compared against."""
    if q.shape != k_up.shape:
        raise ShapeMismatch(f"query {q.shape} and key {k_up.shape} must match")
    scores = np.einsum(
        "pd,pnd->pn",
        q.astype64().reshape(q.height * q.width, q.channels),
        gather_neighbors(k_up, kernel, int(ratio)).astype(np.float64),
    )
    return FeatureMap(scores.reshape(q.height, q.width, kernel * kernel))


def innerprod_upsample(x: FeatureMap, y: FeatureMap, params: ResfuParams, cfg: UpsampleConfig,
                       fused: bool = True) -> FeatureMap:
    """Baseline pipeline with both score branches replaced by the
    inner-product similarity."""
    check_guide(x, y, cfg.ratio)
    q, k = project_qk(x, y, params.proj)
    k_up = bilinear_resize(k, y.height, y.width)
    kernels = softmax_rows(inner_product_scores(q, k_up, params.kernel, cfg.ratio))
    return kernel_apply_fns(kernels, x, cfg.ratio, params.kernel, fused=fused)


# --- deterministic parameter synthesis --------------------------------------


class _MixStream:
    """Counter-based splitmix64 stream: draw i is mix(seed + i * golden).

    Fixed for this repo so identical seeds give bitwise identical bundles;
    cross-implementation equality is not a goal.
    """

    _GOLDEN = np.uint64(0x9E3779B97F4A7C15)
    _MIX1 = np.uint64(0xBF58476D1CE4E5B9)
    _MIX2 = np.uint64(0x94D049BB133111EB)

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._drawn = 0

    def uniform(self, shape: tuple[int, ...], bound: float) -> np.ndarray:
        """float32 samples in [-bound, bound), row-major draw order."""
        count = prod(shape)
        with np.errstate(over="ignore"):
            z = self._seed + np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64) * self._GOLDEN
            z = (z ^ (z >> np.uint64(30))) * self._MIX1
            z = (z ^ (z >> np.uint64(27))) * self._MIX2
            z = z ^ (z >> np.uint64(31))
        self._drawn += count
        unit = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53  # [0, 1)
        return (bound * (2.0 * unit - 1.0)).astype(np.float32).reshape(shape)


def generate_params(c_in: int, c_guide: int, seed: int = 0) -> ResfuParams:
    """Synthesize a deterministic parameter bundle with K = KERNEL.

    Weights are uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)] from a seeded
    splitmix64 stream (drawn in serialization order); biases are zero, norm
    gains one, norm shifts zero.
    """
    if c_in < 1 or c_guide < 1:
        raise ShapeMismatch(f"channel counts must be >= 1, got c_in={c_in}, c_guide={c_guide}")
    if not 0 <= int(seed) < 2**64:
        raise ShapeMismatch(f"seed must fit in 64 unsigned bits, got {seed}")
    d, l_out, g = PROJ_DIM, PCDC_CHANNELS, PCDC_GROUPS
    ksq = KERNEL * KERNEL
    stream = _MixStream(int(seed))

    proj = ProjectionParams(
        weight_q=stream.uniform((d, c_guide), 1.0 / np.sqrt(c_guide)),
        bias_q=np.zeros(d, np.float32),
        weight_k=stream.uniform((d, c_in), 1.0 / np.sqrt(c_in)),
        bias_k=np.zeros(d, np.float32),
    )

    def make_block() -> PcdcBlockParams:
        pcdc_fan_in = (d // g) * ksq
        block = PcdcBlockParams(
            norm=GroupNormAffine(np.ones(d, np.float32), np.zeros(d, np.float32), NORM_GROUPS, NORM_EPS),
            pcdc=PcdcParams(
                weight=stream.uniform((ksq, d // g, l_out), 1.0 / np.sqrt(pcdc_fan_in)),
                bias=np.zeros(l_out, np.float32),
                groups=g,
            ),
            comp=CompressorParams(
                conv1_weight=stream.uniform((COMPRESSOR_HIDDEN, l_out // 4), 1.0 / np.sqrt(l_out // 4)),
                conv1_bias=np.zeros(COMPRESSOR_HIDDEN, np.float32),
                norm=GroupNormAffine(
                    np.ones(COMPRESSOR_HIDDEN, np.float32),
                    np.zeros(COMPRESSOR_HIDDEN, np.float32),
                    NORM_GROUPS,
                    NORM_EPS,
                ),
                conv2_weight=stream.uniform((ksq, COMPRESSOR_HIDDEN), 1.0 / np.sqrt(COMPRESSOR_HIDDEN)),
                conv2_bias=np.zeros(ksq, np.float32),
            ),
        )
        return block

    return ResfuParams(proj=proj, block_s=make_block(), block_d=make_block())
