"""The full upsampling pipeline.

Given a low-resolution value/key feature x (h x w x C) and a high-resolution
guide y (H x W x C_g), the pipeline is:

    q, k    <- per-pixel linear projections of y and x        (D channels)
    k_up    <- bilinear_resize(k, H, W)
    q_gf    <- guided_filter(q, k_up)          # align q to k's structure
    s_s     <- pcdc_block(q_gf, k_up)          # semantic branch scores
    q_gs    <- gaussian_smooth3(q)             # self-similarity reference
    s_d     <- pcdc_block(q, q_gs)             # detail branch scores
    scores  <- s_s + s_d      (similarity="innerprod": q . k_up instead)
    kernels <- softmax_rows(scores)
    out_i   <- sum_n kernels[i, n] * x_up[N(i)_n]

run_pipeline is the one path through these stages, the inner-product
baseline's too (it makes no q_gf, s_s, q_gs or s_d).  The score head runs
on the low-channel sources of its D-channel maps: q = P y + b is affine in
the guide's C_g channels and k_up is a resize of the LR key.  So the
guided filter takes its box statistics of q from the guide's box moments
and those of k_up from k (guided_filter_projected, while
C_g (C_g + 3) / 2 < 3 D), the semantic block takes its key taps at low
resolution (pcdc.pcdc_block_resized_key), and the detail block works on
the guide and its smoothing (pcdc.pcdc_block_projected, or on q and
q_gs when C_g >= D).  No difference layer, input group norm or smoothing
runs on a high-resolution D-channel map, and q_gs = P G(y) + b is made
only as the observed intermediate.  The results agree with the D-channel
stages within 1e-6 relative.

run_pipeline either collects every intermediate or hands each one to a
sink as it is made and keeps a map only until the last stage that reads
it; resfu_upsample keeps none, so when the value channels C far exceed D
its peak is little more than the output.  Given `rows`, it streams the
output too, band by band, and the fused path allocates no output-sized
array.  Every upsampling entry point starts with check_guide, which
rejects a guide that is not ratio times the input's size and NaN or Inf
in either map.  ResfuParams holds exactly what a weight bundle stores; the
guided filter always runs with GuidedFilterConfig() and every group norm
with ops.NORM_GROUPS and ops.NORM_EPS.  Neighborhoods are K x K, K taken
from the weights' shapes, with dilation equal to the upsampling ratio, on
the high-resolution grids ("fine-grained neighbor selection"); both score
branches use the same dilation.  The value gather runs either naively
(materialize x_up = bilinear_resize(x)) or fused: the kernel weights and
the bilinear taps fold into weights on each input cell's (K+2) x (K+2)
window, and one small float32 matrix product per cell writes its
ratio x ratio output pixels, so the full H x W x C upsampled buffer never
exists and no output-sized temporary is allocated.  The two paths round
differently and agree within 1e-6 relative; each is bit-reproducible from
run to run.  Every stage runs on the calling thread.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import prod

import numpy as np

from .guided_filter import GuidedFilterConfig, guided_filter, guided_filter_projected
from .ops import (
    BLAS_PIECE,
    GroupNormAffine,
    NonFiniteInput,
    ShapeMismatch,
    SimilarityScores,
    _as_float32,
    _neighbor_views,
    _odd_kernel,
    _positive_int,
    _resize_linear,
    axis_linear_coords,
    bilinear_resize,
    gaussian_smooth3,
    grouped_pointwise_conv,
    neighbor_offsets,
    softmax_rows,
)
from .oracle import _integer_multiple
from .pcdc import CompressorParams, PcdcBlockParams, PcdcParams, pcdc_block_projected, pcdc_block_resized_key
from .tensor import FeatureMap

PROJ_DIM = 32  # D: projection width of q and k
PCDC_CHANNELS = 32  # L: difference-conv output channels
PCDC_GROUPS = 4  # G
COMPRESSOR_GROUPS = 4  # of the compressor's hidden conv
COMPRESSOR_HIDDEN = 128
KERNEL = 3  # K of generated bundles


class RatioMismatch(Exception):
    """Guide/input dimensions are not related by the integer ratio."""


class RowNotNormalized(Exception):
    """Kernel weights were not softmax-normalized before application."""


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
        for name, rank in (("weight_q", 2), ("bias_q", 1), ("weight_k", 2), ("bias_k", 1)):
            object.__setattr__(self, name, _as_float32(name, getattr(self, name), rank))
        d = self.weight_q.shape[0]
        if self.weight_k.shape[0] != d or self.bias_q.shape != (d,) or self.bias_k.shape != (d,):
            raise ShapeMismatch("projection tensors disagree on the output dimension")

    @property
    def dim(self) -> int:
        return self.weight_q.shape[0]


@dataclass(frozen=True)
class ResfuParams:
    """Everything learned/generated, exactly what a weight bundle stores:
    the projections and the two score blocks."""

    proj: ProjectionParams
    block_s: PcdcBlockParams
    block_d: PcdcBlockParams

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
    """The upsampling ratio, a Python or NumPy integer >= 1 (not a bool,
    else RatioMismatch), stored as a Python int; the kernel size comes from
    the parameters."""

    ratio: int

    def __post_init__(self):
        object.__setattr__(self, "ratio", _positive_int("ratio", self.ratio, RatioMismatch))


def project_qk(x: FeatureMap, y: FeatureMap, proj: ProjectionParams) -> tuple[FeatureMap, FeatureMap]:
    """Project guide and input into the shared D-channel comparison space.
    A finite map whose projection leaves float32's range raises
    NonFiniteInput, naming the map."""
    if y.channels != proj.weight_q.shape[1]:
        raise ShapeMismatch(f"guide has {y.channels} channels, weight_q expects {proj.weight_q.shape[1]}")
    if x.channels != proj.weight_k.shape[1]:
        raise ShapeMismatch(f"input has {x.channels} channels, weight_k expects {proj.weight_k.shape[1]}")
    maps = []
    for name, fmap, weight, bias in (("guide", y, proj.weight_q, proj.bias_q),
                                     ("input", x, proj.weight_k, proj.bias_k)):
        try:
            with np.errstate(over="raise", invalid="raise"):
                maps.append(grouped_pointwise_conv(fmap, weight, bias))
        except FloatingPointError as err:
            raise NonFiniteInput(f"projecting the {name} overflows float32 ({err})") from None
    return maps[0], maps[1]


# --- kernel application with fine-grained neighbor selection ---------------


def _apply_naive(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reference path: materialize the upsampled value map, then gather.

    K comes from the weights' slot count and the ratio from their grid over
    x's (the reference side's rule, oracle._integer_multiple).  Computes in
    the dtype of the (h, w, C) value array x; resfu.grad runs it on float64."""
    out_h, out_w, slots = weights.shape
    ratio = _integer_multiple((out_h, out_w), x.shape[:2], "weights' grid over value grid")
    out = np.zeros((out_h, out_w, x.shape[2]), x.dtype)
    for n, view in enumerate(_neighbor_views(_resize_linear(x, out_h, out_w), _odd_kernel(slots), ratio)):
        out += weights[:, :, n : n + 1] * view
    return out


def _window_taps(n_in: int, ratio: int, kernel: int) -> np.ndarray:
    """Bilinear weights of the dilated taps along one axis, on cell windows.

    Output index i lies in input cell i // ratio; tap d samples the
    upsampled axis at clip(i + (d - (K-1)/2) * ratio), which interpolates
    two input indices inside the K + 2 that start at
    i // ratio - 1 - (K-1)/2.  Returns float32 (K, K + 2, ratio * n_in):
    [d, u, i] is the weight of window index u in tap d of output index i.
    """
    n_out = ratio * n_in
    steps = np.array([dj for _, dj in neighbor_offsets(kernel, ratio)[:kernel]])  # (d - (K-1)/2) * ratio
    lo, hi, frac = axis_linear_coords(n_in, n_out)
    i = np.arange(n_out)
    at = np.clip(i + steps[:, None, None], 0, n_out - 1)
    start = i // ratio - 1 + steps[0] // ratio
    slot = np.arange(kernel + 2)[:, None]
    taps = (slot == lo[at] - start) * (1 - frac[at]) + (slot == hi[at] - start) * frac[at]
    return taps.astype(np.float32)


def _apply_fused(weights: np.ndarray, x: np.ndarray, ratio: int,
                 emit: Callable[[np.ndarray], None] | None = None) -> np.ndarray | None:
    """Fused path on the float32 (H, W, C) value array x: one small matrix
    product per input cell; the upsampled buffer never exists.  K comes
    from the slot count of the (H, W, K*K) weights.  With `emit`, each
    finished row of cells goes to emit(band) as a (ratio, W, C) band in
    one reused buffer, and None is returned.

    The dilation equals the ratio and bilinear interpolation is linear, so
    the ratio x ratio output pixels of input cell (a, b) read only the
    (K+2) x (K+2) window of x that starts at (a - 1 - (K-1)/2,
    b - 1 - (K-1)/2), clamped at the edges.  Per row of cells, each output
    pixel's K x K kernel weights are folded with the column taps of
    _window_taps in whole-array passes, then with the row taps by one
    batched matmul (row taps do not vary along a row), into (K+2)^2 window
    weights.  One more batched matmul writes each cell's
    (ratio x (K+2)^2) @ ((K+2)^2 x C) products straight into the output,
    in channel pieces of at most BLAS_PIECE multiply-adds.  Every buffer
    but the output is sized for one row of cells and allocated once.
    """
    out_h, out_w, slots = weights.shape
    kernel = _odd_kernel(slots)
    h, w, c = x.shape
    span = kernel + 2
    rows = np.ascontiguousarray(_window_taps(h, ratio, kernel).transpose(2, 1, 0))[:, None]  # (i, ., u, dr)
    cols = _window_taps(w, ratio, kernel)  # (dc, v, j)
    reach = np.arange(span) - (kernel - 1) // 2 - 1
    # window pixels, clamped at the edges (the taps give slots past an edge no weight)
    win_rows = np.clip(np.arange(h)[:, None] + reach, 0, h - 1) * w  # (a, u): pixel offsets
    win_cols = np.clip(np.arange(w)[:, None] + reach, 0, w - 1)  # (b, v)
    pixels = x.reshape(h * w, c)
    out = np.empty((out_h if emit is None else ratio, out_w, c), np.float32)
    k = np.empty((ratio, kernel, kernel, 1, out_w), np.float32)  # kernel weights (s, dr, dc, ., j)
    by_col = np.empty((ratio, kernel, kernel, span, out_w), np.float32)  # (s, dr, dc, v, j)
    folded = np.empty((ratio, kernel, span, out_w), np.float32)  # (s, dr, v, j)
    mixed = np.empty((ratio, span, span, out_w), np.float32)  # (s, u, v, j)
    window = np.empty((w, span * span, c), np.float32)  # (b, uv, C)
    mix = mixed.reshape(ratio, span * span, w, ratio).transpose(0, 2, 3, 1)  # (s, b, t, uv)
    piece = max(1, BLAS_PIECE // (ratio * span * span))
    for a in range(h):
        i0, i1 = a * ratio, (a + 1) * ratio
        k[...] = weights[i0:i1].reshape(ratio, out_w, kernel, kernel, 1).transpose(0, 2, 3, 4, 1)
        np.multiply(k, cols, out=by_col)
        np.sum(by_col, axis=2, out=folded)
        np.matmul(rows[i0:i1], folded.transpose(0, 2, 1, 3), out=mixed.transpose(0, 2, 1, 3))
        np.take(pixels, win_rows[a, None, :, None] + win_cols[:, None, :], axis=0, mode="clip",
                out=window.reshape(w, span, span, c))
        band = out[i0:i1] if emit is None else out
        dst = band.reshape(ratio, w, ratio, c)
        for c0 in range(0, c, piece):
            np.matmul(mix, window[:, :, c0 : c0 + piece], out=dst[..., c0 : c0 + piece])
        if emit is not None:
            emit(band)
    return out if emit is None else None


def kernel_apply_fns(weights: SimilarityScores, x: FeatureMap, *, fused: bool = True,
                     rows: Callable[[np.ndarray], None] | None = None) -> FeatureMap | None:
    """Mix bilinearly upsampled values of x with per-pixel kernel weights.

    `weights` holds one post-softmax weight per slot of an odd K x K
    neighborhood (else ShapeMismatch) on x's grid scaled by one integer
    ratio on both axes (else RatioMismatch); K and the ratio are read from
    these shapes.  Slot n of output pixel i addresses x_up at i plus the
    n-th dilated offset (dilation = ratio, clamped at edges).  The fused
    and naive paths are held to agree within 1e-5.  With `rows`, None is
    returned and the output goes to rows(band) in float32 (rows, W, C)
    bands, top to bottom, each valid only during the call: one per row of
    input cells (fused) or the whole output (naive).
    """
    _odd_kernel(weights.channels)
    ratio = weights.height // x.height
    if weights.height != ratio * x.height or weights.width != ratio * x.width:
        raise RatioMismatch(f"weights are {weights.height}x{weights.width}, not one integer multiple "
                            f"of the {x.height}x{x.width} input on both axes")
    row_sums = weights.data.sum(axis=2, dtype=np.float64)
    worst = float(np.max(np.abs(row_sums - 1.0)))
    if not worst <= 1e-3:  # NaN fails too
        raise RowNotNormalized(f"kernel rows sum off by {worst:.3g}; run softmax_rows first")
    if fused:
        out = _apply_fused(weights.data, x.data, ratio, emit=rows)
    else:
        out = _apply_naive(weights.data, x.data)
        if rows is not None:
            rows(out)
    return None if rows is not None else FeatureMap.adopt(out)


# --- end-to-end pipeline ----------------------------------------------------


@dataclass
class PipelineResult:
    """The output of one upsampling run (None when streamed to `rows`) and,
    when run_pipeline collected them, its intermediates (None when a sink
    received them, and q_gf, s_s, q_gs and s_d in the innerprod baseline)."""

    output: FeatureMap | None
    q: FeatureMap | None = None
    k: FeatureMap | None = None
    k_up: FeatureMap | None = None
    q_gf: FeatureMap | None = None
    s_s: SimilarityScores | None = None
    q_gs: FeatureMap | None = None
    s_d: SimilarityScores | None = None
    scores: SimilarityScores | None = None
    kernels: SimilarityScores | None = None


def run_pipeline(x: FeatureMap, y: FeatureMap, params: ResfuParams, cfg: UpsampleConfig,
                 fused: bool = True, threads: int = 1, *, similarity: str = "pcdc",
                 sink: Callable[[str, FeatureMap], None] | None = None,
                 rows: Callable[[np.ndarray], None] | None = None) -> PipelineResult:
    """Run every stage once.  `similarity` is "pcdc", the two score blocks,
    or "innerprod", the baseline that scores with inner_product_scores(q,
    k_up) in their place; any other value raises ValueError.

    Without a sink the result keeps every intermediate.  With one,
    sink(name, fmap) is called once per intermediate, named after its
    PipelineResult field, in stage order as soon as the map exists, and
    the result carries only the output.  The pipeline holds each map only
    until the stage that reads it last, which takes it as a temporary: k_up
    goes to the guided filter, q_gf and k to the semantic block, s_s and
    s_d to their sum, scores to the softmax and kernels to the kernel
    apply.  q is read again only by the general guided filter and, for a
    guide of C_g >= D channels, by the detail block; q_gs is only handed
    out.  With a sink and C_g < D, the peak is set in the guided filter,
    which holds k_up, its output and its row tiles.

    With `rows`, the output goes to rows(band) band by band (see
    kernel_apply_fns) and the result's output is None.

    `threads` is accepted and ignored: every stage runs on the calling
    thread."""
    if similarity not in ("pcdc", "innerprod"):
        raise ValueError(f"similarity must be 'pcdc' or 'innerprod', got {similarity!r}")
    maps: dict[str, FeatureMap] = {}
    emit = maps.__setitem__ if sink is None else sink
    live: dict[str, FeatureMap] = {}  # maps a later stage reads; the last reader pops them

    def made(name: str, fmap: FeatureMap) -> None:
        emit(name, fmap)
        live[name] = fmap

    check_guide(x, y, cfg.ratio)
    q, k = project_qk(x, y, params.proj)
    made("q", q)
    made("k", k)
    del q, k
    made("k_up", bilinear_resize(live["k"], y.height, y.width))
    if similarity == "innerprod":
        del live["k"]
        made("scores", inner_product_scores(live.pop("q"), live.pop("k_up"), params.kernel, cfg.ratio))
    else:
        proj, c_g, q = params.proj, y.channels, live.pop("q")
        guide = y if c_g < proj.dim else q  # the lower of C_g and D channels
        if c_g * (c_g + 3) < 6 * proj.dim:  # fewer box channels from y than from q, q*q and k_up
            del q
            made("q_gf", guided_filter_projected(y, proj.weight_q, proj.bias_q, live["k"], live.pop("k_up"),
                                                 GuidedFilterConfig()))
        else:
            made("q_gf", guided_filter(q, live.pop("k_up"), GuidedFilterConfig()))
            del q
        made("s_s", pcdc_block_resized_key(live.pop("q_gf"), live.pop("k"), params.block_s, cfg.ratio))
        guide_gs = gaussian_smooth3(guide)
        if guide is y:
            weight, bias = proj.weight_q, proj.bias_q
            emit("q_gs", grouped_pointwise_conv(guide_gs, weight, bias))
        else:
            weight, bias = np.eye(proj.dim, dtype=np.float32), np.zeros(proj.dim, np.float32)
            emit("q_gs", guide_gs)
        made("s_d", pcdc_block_projected(guide, guide_gs, weight, bias, params.block_d, cfg.ratio))
        del guide, guide_gs
        made("scores", FeatureMap.adopt(live.pop("s_s").data + live.pop("s_d").data))
    made("kernels", softmax_rows(live.pop("scores")))
    output = kernel_apply_fns(live.pop("kernels"), x, fused=fused, rows=rows)
    return PipelineResult(output, **maps)


def resfu_upsample(x: FeatureMap, y: FeatureMap, params: ResfuParams, cfg: UpsampleConfig,
                   fused: bool = True, threads: int = 1) -> FeatureMap:
    """Upsample x by cfg.ratio under the guidance of y, keeping no
    intermediate beyond its last reader (`threads` is ignored, as in
    run_pipeline)."""
    return run_pipeline(x, y, params, cfg, fused=fused, sink=lambda name, fmap: None).output


def inner_product_scores(q: FeatureMap, k_up: FeatureMap, kernel: int, ratio: int) -> SimilarityScores:
    """Plain dot-product similarity over the same dilated neighborhoods,
    kept as the baseline the difference blocks are compared against."""
    if q.shape != k_up.shape:
        raise ShapeMismatch(f"query {q.shape} and key {k_up.shape} must match")
    views = _neighbor_views(k_up.data, kernel, _positive_int("ratio", ratio, RatioMismatch))
    scores = np.empty((q.height, q.width, len(views)), np.float32)
    for n, shifted in enumerate(views):
        # summed in float64, rounded once into the float32 slot
        np.einsum("hwd,hwd->hw", q.data, shifted, dtype=np.float64, out=scores[:, :, n], casting="unsafe")
    return FeatureMap.adopt(scores)


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
    c_in, c_guide = _positive_int("c_in", c_in), _positive_int("c_guide", c_guide)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
        raise ShapeMismatch(f"seed must be an integer in [0, 2**64), got {seed!r}")
    d, l_out, g = PROJ_DIM, PCDC_CHANNELS, PCDC_GROUPS
    if d * max(c_in, c_guide) * 8 > np.iinfo(np.intp).max:  # numpy cannot even size its uint64 draws
        raise MemoryError(f"a {d}x{max(c_in, c_guide)} projection is more than this platform can address")
    ksq = KERNEL * KERNEL
    stream = _MixStream(int(seed))

    proj = ProjectionParams(
        weight_q=stream.uniform((d, c_guide), 1.0 / np.sqrt(c_guide)),
        bias_q=np.zeros(d, np.float32),
        weight_k=stream.uniform((d, c_in), 1.0 / np.sqrt(c_in)),
        bias_k=np.zeros(d, np.float32),
    )

    def make_block() -> PcdcBlockParams:
        pcdc_fan_in, comp_in = (d // g) * ksq, l_out // COMPRESSOR_GROUPS
        return PcdcBlockParams(
            norm=GroupNormAffine(np.ones(d, np.float32), np.zeros(d, np.float32)),
            pcdc=PcdcParams(
                weight=stream.uniform((ksq, d // g, l_out), 1.0 / np.sqrt(pcdc_fan_in)),
                bias=np.zeros(l_out, np.float32),
            ),
            comp=CompressorParams(
                conv1_weight=stream.uniform((COMPRESSOR_HIDDEN, comp_in), 1.0 / np.sqrt(comp_in)),
                conv1_bias=np.zeros(COMPRESSOR_HIDDEN, np.float32),
                norm=GroupNormAffine(np.ones(COMPRESSOR_HIDDEN, np.float32), np.zeros(COMPRESSOR_HIDDEN, np.float32)),
                conv2_weight=stream.uniform((ksq, COMPRESSOR_HIDDEN), 1.0 / np.sqrt(COMPRESSOR_HIDDEN)),
                conv2_bias=np.zeros(ksq, np.float32),
            ),
        )

    return ResfuParams(proj=proj, block_s=make_block(), block_d=make_block())
