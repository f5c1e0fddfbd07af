"""Micro-benchmarks: fused vs naive kernel application, and the production
difference layer ("pcdc-decomposed", pcdc_layer) vs the literal oracle.

Before any timing, the fused and naive outputs are compared; a disagreement
or a NaN aborts the run (the numbers would be meaningless).  Those two calls
also run under tracemalloc, whose peak (output included) is reported per
path.  Timings are mean wall time over `iters` runs after two warmups.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from .ops import ShapeMismatch, _positive_int, softmax_rows
from .oracle import max_rel_error, oracle_pcdc_direct
from .pcdc import PcdcParams, pcdc_layer
from .tensor import FeatureMap
from .upsampler import kernel_apply_fns

MAX_SIDE = 512
MAX_CHANNELS = 384
EQUIVALENCE_TOL = 1e-5


class CheckFailed(Exception):
    """A correctness pre-assert (or self-check) did not hold."""


@dataclass(frozen=True)
class BenchRow:
    name: str
    mean_seconds: float
    iters: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]
    equivalence_error: float
    naive_peak: int  # tracemalloc peak bytes of one call
    fused_peak: int


def _traced(fn):
    """fn() and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _timed(fn, iters: int) -> float:
    fn()
    fn()
    start = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - start) / iters


def run_bench(h: int, w: int, c: int, ratio: int, iters: int, seed: int = 0) -> BenchReport:
    h, w, c, ratio, iters = (_positive_int(name, n) for name, n in
                             (("h", h), ("w", w), ("c", c), ("ratio", ratio), ("iters", iters)))
    if h > MAX_SIDE or w > MAX_SIDE or c > MAX_CHANNELS:
        raise ShapeMismatch(
            f"bench sizes up to {MAX_SIDE}x{MAX_SIDE}x{MAX_CHANNELS}, got {h}x{w}x{c}"
        )
    if ratio not in (1, 2, 4, 8):
        raise ShapeMismatch(f"bench ratios are 1/2/4/8, got {ratio}")

    rng = np.random.default_rng(seed)
    x = FeatureMap(rng.standard_normal((h, w, c)).astype(np.float32))
    weights = softmax_rows(FeatureMap(rng.standard_normal((h * ratio, w * ratio, 9)).astype(np.float32)))

    fused, fused_peak = _traced(lambda: kernel_apply_fns(weights, x, fused=True))
    naive, naive_peak = _traced(lambda: kernel_apply_fns(weights, x, fused=False))
    equivalence = max_rel_error(fused.astype64(), naive.astype64())
    if equivalence > EQUIVALENCE_TOL:
        raise CheckFailed(
            f"fused/naive kernel application disagree: {equivalence:.3g} > {EQUIVALENCE_TOL:g}"
        )

    depth = 32
    q = FeatureMap(rng.standard_normal((h, w, depth)).astype(np.float32))
    k = FeatureMap(rng.standard_normal((h, w, depth)).astype(np.float32))
    params = PcdcParams(
        weight=rng.standard_normal((9, depth // 4, depth)).astype(np.float32) * 0.3,
        bias=rng.standard_normal(depth).astype(np.float32) * 0.1,
    )

    rows = (
        BenchRow("fns-fused", _timed(lambda: kernel_apply_fns(weights, x, fused=True), iters), iters),
        BenchRow("fns-naive", _timed(lambda: kernel_apply_fns(weights, x, fused=False), iters), iters),
        BenchRow("pcdc-decomposed", _timed(lambda: pcdc_layer(q, k, params, ratio), iters), iters),
        BenchRow(
            "pcdc-direct",
            _timed(lambda: oracle_pcdc_direct(q, k, params.weight, params.bias, 4, ratio), iters),
            iters,
        ),
    )
    return BenchReport(rows, equivalence, naive_peak, fused_peak)
