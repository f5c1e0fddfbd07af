"""Seeded correctness checks behind the `selfcheck` command.

Each check mirrors one acceptance property: oracle equivalences, kernel
normalization, the degenerate-score box-mean collapse, the anti-mosaic
contrast, gradient verification, command-level determinism, and format
round trips.  Checks never raise on failure, gradient checks included — they
report, so one broken property cannot hide the rest; a NaN error fails.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import numpy as np

from .grad import check_gradients
from .guided_filter import GuidedFilterConfig, guided_filter
from .ops import bilinear_resize, softmax_rows
from .oracle import (
    CheckResult,
    finite_or_inf,
    max_rel_error,
    oracle_gather_neighbors,
    oracle_guided_filter_window,
    oracle_kernel_apply_gridwise,
    oracle_pcdc_direct,
)
from .params_io import deserialize_params, load_params, param_arrays, params_from_arrays, serialize_params
from .pcdc import PcdcParams, pcdc_layer
from .tensor import BadMagic, FeatureMap, deserialize, serialize, save_tensor
from .upsampler import (
    UpsampleConfig,
    generate_params,
    kernel_apply_fns,
    resfu_upsample,
    run_pipeline,
)

EXACT = 0.0  # tolerance for all-or-nothing checks (byte equality, counts)


def _rand_map(rng, h, w, c, scale=1.0):
    return FeatureMap((scale * rng.standard_normal((h, w, c))).astype(np.float32))


def zeroed_score_params(params):
    """Copy of a parameter bundle with both score blocks silenced: all
    difference-conv and compressor weights/biases set to zero."""
    return params_from_arrays({
        name: np.zeros_like(arr) if name.startswith("pcdc_") or ".conv" in name else arr
        for name, arr in param_arrays(params).items()
    })


# --- individual checks -------------------------------------------------------


def check_pcdc_equivalence(seed: int = 0, cases: int = 200) -> CheckResult:
    """The production float32 pcdc_layer vs the literal triple-loop oracle."""
    rng = np.random.default_rng(seed)
    depth = 32
    worst = 0.0
    for _ in range(cases):
        h, w = (int(v) for v in rng.integers(2, 17, size=2))
        groups = int(rng.choice([1, 2, 4]))
        dilation = int(rng.choice([1, 2, 4]))
        q = _rand_map(rng, h, w, depth)
        k = _rand_map(rng, h, w, depth)
        params = PcdcParams(
            weight=(0.3 * rng.standard_normal((9, depth // groups, depth))).astype(np.float32),
            bias=(0.1 * rng.standard_normal(depth)).astype(np.float32),
        )
        got = pcdc_layer(q, k, params, dilation).astype64()
        want = oracle_pcdc_direct(q, k, params.weight, params.bias, dilation)
        worst = max(worst, max_rel_error(got, want))
    return CheckResult("pcdc-decomposition-equivalence", worst, 1e-5, f"{cases} cases")


def check_guided_filter(seed: int = 0, cases: int = 20) -> CheckResult:
    """Closed-form filter vs the per-window regression oracle (interior)."""
    rng = np.random.default_rng(seed)
    cfg = GuidedFilterConfig(radius=2, eps=1e-3)
    worst = 0.0
    for _ in range(cases):
        q = _rand_map(rng, 12, 12, 4)
        k = _rand_map(rng, 12, 12, 4)
        got = guided_filter(q, k, cfg).astype64()
        want = oracle_guided_filter_window(q, k, cfg)
        interior = np.s_[cfg.radius : -cfg.radius, cfg.radius : -cfg.radius]
        worst = max(worst, max_rel_error(got[interior], want[interior]))
    return CheckResult("guided-filter-window-oracle", worst, 1e-4, f"{cases} cases, interior")


def check_fused_vs_naive(seed: int = 0, cases: int = 50) -> CheckResult:
    rng = np.random.default_rng(seed)
    ratios = (1, 2, 4, 8)
    worst = 0.0
    for i in range(cases):
        ratio = ratios[i % len(ratios)]
        h, w = (int(v) for v in rng.integers(2, 13, size=2))
        c = int(rng.integers(1, 7))
        x = _rand_map(rng, h, w, c)
        weights = softmax_rows(_rand_map(rng, h * ratio, w * ratio, 9))
        fused = kernel_apply_fns(weights, x, fused=True)
        naive = kernel_apply_fns(weights, x, fused=False)
        worst = max(worst, max_rel_error(fused.astype64(), naive.astype64()))
    return CheckResult("fused-vs-naive-kernel-apply", worst, 1e-5, f"{cases} cases, ratios 1/2/4/8")


def check_constant_preservation(seed: int = 0, bundles: int = 20) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_const = 0.0
    worst_rows = 0.0
    for i in range(bundles):
        c_in = int(rng.integers(1, 9))
        c_guide = int(rng.integers(1, 9))
        params = generate_params(c_in, c_guide, seed=seed * 1000 + i)
        level = rng.uniform(-3.0, 3.0, c_in).astype(np.float32)
        x = FeatureMap(np.broadcast_to(level, (5, 5, c_in)).copy())
        y = _rand_map(rng, 10, 10, c_guide)
        res = run_pipeline(x, y, params, UpsampleConfig(ratio=2))
        worst_const = max(worst_const, finite_or_inf(float(np.max(np.abs(res.output.data - level)))))
        worst_rows = max(worst_rows, max_rel_error(res.kernels.astype64().sum(axis=2), 1.0))
    return [
        CheckResult("constant-preservation", worst_const, 1e-5, f"{bundles} bundles"),
        CheckResult("kernel-row-normalization", worst_rows, 1e-6, f"{bundles} bundles"),
    ]


def check_degenerate_scores(seed: int = 0) -> CheckResult:
    """Zeroed score blocks collapse the pipeline to a dilated box mean."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    params = zeroed_score_params(generate_params(5, 3, seed=seed))
    for ratio in (2, 4, 8):
        x = _rand_map(rng, 6, 6, 5)
        y = _rand_map(rng, 6 * ratio, 6 * ratio, 3)
        out = resfu_upsample(x, y, params, UpsampleConfig(ratio=ratio))
        x_up = bilinear_resize(x, 6 * ratio, 6 * ratio)
        want = oracle_gather_neighbors(x_up, 3, ratio).mean(axis=1)
        worst = max(worst, max_rel_error(out.astype64().reshape(-1, 5), want))
    return CheckResult("degenerate-score-box-mean", worst, 1e-5, "ratios 2/4/8")


def check_anti_mosaic() -> list[CheckResult]:
    """Uniform kernels on a column ramp: fine-grained selection stays linear,
    grid-wise selection staircases with jumps of about one LR step."""
    ratio, h, w = 4, 4, 8
    ramp = FeatureMap(
        np.broadcast_to(np.arange(w, dtype=np.float32)[None, :, None], (h, w, 1)).copy()
    )
    weights = FeatureMap(np.full((h * ratio, w * ratio, 9), 1.0 / 9.0, np.float32))

    fns = kernel_apply_fns(weights, ramp).astype64()[0, :, 0]
    interior = fns[ratio + ratio // 2 : -(ratio + ratio // 2)]
    linearity = float(np.max(np.abs(np.diff(interior, 2))))

    grid = oracle_kernel_apply_gridwise(weights, ramp)[0, :, 0]
    plateau_heads = grid.reshape(w, ratio)[:, 0]
    jumps = np.abs(np.diff(plateau_heads))
    found = int(np.count_nonzero(jumps >= 0.5))  # LR ramp step is 1.0
    shortfall = float(max(0, (w - 2) - found))
    return [
        CheckResult("fns-ramp-linearity", linearity, 1e-5, "interior second differences"),
        CheckResult(
            "gridwise-mosaic-staircase",
            shortfall,
            EXACT,
            f"{found} boundaries with jump >= half the LR step (need {w - 2})",
        ),
    ]


def _quiet_cli(argv: list[str]) -> int:
    """Run a CLI command with its stdout/stderr captured (the selfcheck
    report should stay clean)."""
    from . import cli  # local import: cli imports this module

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def check_cli_determinism(seed: int = 0) -> CheckResult:
    """`upsample` with a fixed seed: repeated runs onto one --out path must
    write byte-identical outputs.  Before each repeat the path is given a
    stale file, so every repeat saves over an existing file and one that
    does not replace it shows as a mismatch."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        x_path = os.path.join(tmp, "x.rsft")
        y_path = os.path.join(tmp, "y.rsft")
        w_path = os.path.join(tmp, "w.rsfw")
        save_tensor(x_path, _rand_map(rng, 8, 8, 8))
        save_tensor(y_path, _rand_map(rng, 32, 32, 4))
        if _quiet_cli(["gen-weights", "--cin", "8", "--cguide", "4", "--seed", str(seed),
                       "--out", w_path]) != 0:
            return CheckResult("upsample-determinism", 1.0, EXACT, "gen-weights failed")

        out_path = os.path.join(tmp, "out.rsft")

        def run():
            with open(out_path, "wb") as fh:
                fh.write(b"stale")
            code = _quiet_cli([
                "upsample", "--input", x_path, "--guide", y_path, "--weights", w_path,
                "--ratio", "4", "--out", out_path,
            ])
            if code != 0:
                return None
            with open(out_path, "rb") as fh:
                return fh.read()

        blobs = [run() for _ in range(3)]
        if any(b is None for b in blobs):
            return CheckResult("upsample-determinism", 1.0, EXACT, "a run failed")
        mismatches = sum(b != blobs[0] or b == b"stale" for b in blobs)
        return CheckResult(
            "upsample-determinism", float(mismatches), EXACT,
            "3 repeats over a stale --out, byte compare",
        )


def check_format_round_trips(seed: int = 0, bundles: int = 100) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    failures = 0
    for i in range(bundles):
        c_in = int(rng.integers(1, 13))
        c_guide = int(rng.integers(1, 13))
        params = generate_params(c_in, c_guide, seed=seed * 500 + i)
        blob = serialize_params(params)
        if serialize_params(deserialize_params(blob)) != blob:
            failures += 1
        fmap = _rand_map(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 5)))
        if deserialize(serialize(fmap)) != fmap:
            failures += 1
    round_trip = CheckResult("format-round-trips", float(failures), EXACT, f"{bundles} bundles")

    with tempfile.TemporaryDirectory() as tmp:
        params = generate_params(4, 3, seed=seed)
        corrupt = bytearray(serialize_params(params))
        corrupt[:4] = b"XXXX"
        w_path = os.path.join(tmp, "corrupt.rsfw")
        with open(w_path, "wb") as fh:
            fh.write(bytes(corrupt))
        try:
            deserialize_params(bytes(corrupt))
            raised = False
        except BadMagic:
            raised = True
        x_path = os.path.join(tmp, "x.rsft")
        y_path = os.path.join(tmp, "y.rsft")
        save_tensor(x_path, _rand_map(rng, 4, 4, 4))
        save_tensor(y_path, _rand_map(rng, 8, 8, 3))
        code = _quiet_cli(["upsample", "--input", x_path, "--guide", y_path,
                           "--weights", w_path, "--ratio", "2",
                           "--out", os.path.join(tmp, "out.rsft")])
        bad = (0 if raised else 1) + (0 if code == 2 else 1)
    corrupt_check = CheckResult(
        "corrupted-magic-rejected", float(bad), EXACT, f"BadMagic raised={raised}, exit={code}"
    )
    return [round_trip, corrupt_check]


def check_weights_file(path: str) -> CheckResult:
    """Load a user-supplied bundle and push one tiny input through it."""
    try:
        params = load_params(path)
        c_in = params.proj.weight_k.shape[1]
        c_guide = params.proj.weight_q.shape[1]
        rng = np.random.default_rng(0)
        out = resfu_upsample(
            _rand_map(rng, 4, 4, c_in), _rand_map(rng, 8, 8, c_guide),
            params, UpsampleConfig(ratio=2),
        )
        finite = bool(np.isfinite(out.data).all())
        return CheckResult("weights-file-loads", 0.0 if finite else 1.0, EXACT, path)
    except Exception as err:  # report, never crash the suite
        return CheckResult("weights-file-loads", 1.0, EXACT, f"{path}: {err}")


def run_selfcheck(seed: int = 0, weights_path: str | None = None) -> list[CheckResult]:
    results = [
        check_pcdc_equivalence(seed),
        check_guided_filter(seed),
        check_fused_vs_naive(seed),
        *check_constant_preservation(seed),
        check_degenerate_scores(seed),
        *check_anti_mosaic(),
        *check_gradients(seed),
        check_cli_determinism(seed),
        *check_format_round_trips(seed),
    ]
    if weights_path is not None:
        results.append(check_weights_file(weights_path))
    return results
