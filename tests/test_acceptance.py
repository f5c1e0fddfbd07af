"""Acceptance suite: every released guarantee, one test (and one verbose
pass/fail line) per criterion, at the advertised tolerances and budgets.

The checks run at full case counts here; the faster per-module test files
cover the same code at reduced sizes.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import resfu
from resfu import cli
from resfu.grad import check_gradients
from resfu.oracle import max_rel_error
from resfu.selfcheck import (
    check_anti_mosaic,
    check_constant_preservation,
    check_degenerate_scores,
    check_format_round_trips,
    check_fused_vs_naive,
    check_guided_filter,
    check_pcdc_equivalence,
)
from resfu.tensor import FeatureMap, load_tensor, save_tensor


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def test_pcdc_decomposition_equivalence_200_cases():
    # decomposed difference conv vs the literal triple-loop oracle:
    # 200 seeded cases, h,w <= 16, 32 channels in/out, groups {1,2,4},
    # dilations {1,2,4}; max rel error <= 1e-5 in under 30 s
    result, elapsed = timed(check_pcdc_equivalence, seed=0, cases=200)
    assert result.tolerance == 1e-5
    assert result.passed, f"max rel error {result.max_error:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_guided_filter_matches_window_regression_oracle():
    # closed-form filter vs 20 per-window ridge regressions on 12x12x4 maps
    # (radius 2, eps 1e-3), interior pixels within 1e-4 in under 10 s
    result, elapsed = timed(check_guided_filter, seed=0, cases=20)
    assert result.tolerance == 1e-4
    assert result.passed, f"max rel error {result.max_error:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_fused_and_naive_kernel_application_agree():
    # 50 random cases over ratios {1,2,4,8}: chunked fused application vs
    # the materialize-everything naive path within 1e-5 in under 10 s
    result, elapsed = timed(check_fused_vs_naive, seed=0, cases=50)
    assert result.tolerance == 1e-5
    assert result.passed, f"max rel error {result.max_error:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_constant_inputs_survive_and_rows_normalize():
    # 20 random weight bundles: a constant-valued input comes back as the
    # same constant (1e-5) and every softmax kernel row sums to 1 (1e-6)
    flat, rows = check_constant_preservation(seed=0, bundles=20)
    assert flat.tolerance == 1e-5 and flat.passed, f"constant drifted {flat.max_error:.3e}"
    assert rows.tolerance == 1e-6 and rows.passed, f"row sums off by {rows.max_error:.3e}"


def test_zeroed_scores_reduce_to_dilated_box_mean():
    # with every score weight and bias zeroed the kernels are uniform, so the
    # output must equal the ratio-dilated 3x3 box mean of the bilinearly
    # upsampled input (1e-5) at ratios 2, 4, and 8
    result = check_degenerate_scores(seed=0)
    assert result.tolerance == 1e-5
    assert result.passed, f"max rel error {result.max_error:.3e}"


def test_fns_smooths_where_gridwise_mosaics():
    # on a linear ramp with uniform kernels at ratio 4, fine-grained neighbor
    # selection keeps interior second differences <= 1e-5 along the ramp,
    # while gridwise gathering leaves a staircase: every interior plateau
    # boundary jumps by at least half the low-resolution step
    fns, grid = check_anti_mosaic()
    assert fns.tolerance == 1e-5 and fns.passed, f"FNS curvature {fns.max_error:.3e}"
    assert grid.passed, f"missing staircase boundaries: {grid.detail}"


def test_backward_passes_match_finite_differences():
    # analytic gradients of the difference conv and of the softmax kernel
    # application vs 64-bit central differences at 64 probe coordinates each
    # (rel error <= 1e-6); score-gradient shift invariance <= 1e-10; < 20 s
    reports, elapsed = timed(check_gradients, seed=0)
    assert elapsed < 20.0, f"took {elapsed:.1f}s"
    assert len(reports) == 7
    for report in reports:
        assert report.passed, f"{report.name}: {report.max_error:.3e}"
    fd_reports = [r for r in reports if "shift" not in r.name]
    assert all(r.tolerance == 1e-6 and r.detail == "64 probes" for r in fd_reports)
    shift = next(r for r in reports if "shift" in r.name)
    assert shift.tolerance == 1e-10


def test_cli_upsample_is_byte_deterministic(tmp_path):
    # the upsample command, same seed-derived weights: three repeats plus
    # thread counts 1/4/8 must write byte-identical .rsft files
    rng = np.random.default_rng(5)
    save_tensor(tmp_path / "x.rsft", FeatureMap(rng.standard_normal((8, 8, 8)).astype(np.float32)))
    save_tensor(tmp_path / "y.rsft", FeatureMap(rng.standard_normal((32, 32, 4)).astype(np.float32)))
    gen = subprocess.run(
        [sys.executable, "-m", "resfu.cli", "gen-weights", "--cin", "8", "--cguide", "4",
         "--seed", "9", "--out", str(tmp_path / "w.rsfw")],
        capture_output=True, text=True,
    )
    assert gen.returncode == 0, gen.stderr

    blobs = []
    for name, threads in [("a", 1), ("b", 1), ("c", 1), ("t4", 4), ("t8", 8)]:
        out = tmp_path / f"{name}.rsft"
        proc = subprocess.run(
            [sys.executable, "-m", "resfu.cli", "upsample",
             "--input", str(tmp_path / "x.rsft"), "--guide", str(tmp_path / "y.rsft"),
             "--weights", str(tmp_path / "w.rsfw"), "--ratio", "4",
             "--threads", str(threads), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    assert all(blob == blobs[0] for blob in blobs), "outputs differ across runs/threads"


# The 64x64x32 -> 256x256x32 seed-0 pipeline in a fresh process; writes the
# output and the summed scores to the .npz named by argv[1].
_PIPELINE_RUN = """
import sys
import numpy as np
from resfu import FeatureMap, UpsampleConfig, generate_params, run_pipeline
rng = np.random.default_rng(0)
x = rng.standard_normal((64, 64, 32), dtype=np.float32)
y = rng.random((256, 256, 4), dtype=np.float32)
res = run_pipeline(FeatureMap(x), FeatureMap(y), generate_params(32, 4, seed=0), UpsampleConfig(ratio=4))
np.savez(sys.argv[1], output=res.output.data, scores=res.scores.data)
"""


def _numpy_blas_is_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints its config only
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _cpu_has_avx2() -> bool:
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


@pytest.mark.skipif(not (_numpy_blas_is_openblas() and _cpu_has_avx2()),
                    reason="needs numpy on OpenBLAS and a CPU with AVX2")
def test_other_blas_kernels_stay_within_1e6(tmp_path):
    # byte determinism holds per machine and BLAS build: the float32
    # products (1x1 convs, pcdc contractions, kernel apply) round
    # differently under another BLAS kernel.  Forcing OpenBLAS's AVX2
    # kernels must move the output and the scores by at most 1e-6 max-rel.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("OPENBLAS_CORETYPE", None)
    src = str(Path(resfu.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = {}
    for name, coretype in (("default", None), ("haswell", "Haswell")):
        run_env = dict(env, OPENBLAS_CORETYPE=coretype) if coretype else env
        path = tmp_path / f"{name}.npz"
        proc = subprocess.run([sys.executable, "-c", _PIPELINE_RUN, str(path)],
                              env=run_env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs[name] = np.load(path)
    for key in ("output", "scores"):
        err = max_rel_error(runs["haswell"][key], runs["default"][key])
        assert err <= 1e-6, f"{key} moved by {err:.3g} under OPENBLAS_CORETYPE=Haswell"


def test_formats_round_trip_and_reject_corruption(tmp_path):
    # 100 random weight bundles and their tensors round trip bit-exactly;
    # a corrupted magic raises the documented error and exits with code 2
    trips, magic = check_format_round_trips(seed=0, bundles=100)
    assert trips.passed and trips.max_error == 0.0, trips.detail
    assert magic.passed, magic.detail


# (name, tolerance, detail) of each line that `resfu selfcheck` prints
SELFCHECK_REPORT = [
    ("pcdc-decomposition-equivalence", "1e-05", "200 cases"),
    ("guided-filter-window-oracle", "0.0001", "20 cases, interior"),
    ("fused-vs-naive-kernel-apply", "1e-05", "50 cases, ratios 1/2/4/8"),
    ("constant-preservation", "1e-05", "20 bundles"),
    ("kernel-row-normalization", "1e-06", "20 bundles"),
    ("degenerate-score-box-mean", "1e-05", "ratios 2/4/8"),
    ("fns-ramp-linearity", "1e-05", "interior second differences"),
    ("gridwise-mosaic-staircase", "0", "7 boundaries with jump >= half the LR step (need 6)"),
    ("grad/pcdc/d_query", "1e-06", "64 probes"),
    ("grad/pcdc/d_key", "1e-06", "64 probes"),
    ("grad/pcdc/d_weight", "1e-06", "64 probes"),
    ("grad/pcdc/d_bias", "1e-06", "64 probes"),
    ("grad/kernel_apply/d_scores", "1e-06", "64 probes"),
    ("grad/kernel_apply/d_value", "1e-06", "64 probes"),
    ("grad/kernel_apply/shift_invariance", "1e-10", "64 probes"),
    ("upsample-determinism", "0", "3 repeats over a stale --out, byte compare"),
    ("format-round-trips", "0", "100 bundles"),
    ("corrupted-magic-rejected", "0", "BadMagic raised=True, exit=2"),
]


def test_selfcheck_and_full_size_upsample_fit_budgets(tmp_path, capsys):
    # the complete single-threaded diagnostic suite exits 0 in under two
    # minutes, printing one PASS line per check of SELFCHECK_REPORT, and
    # upsampling 64x64x32 -> 256x256x32 takes under a second
    start = time.perf_counter()
    rc = cli.main(["selfcheck"])
    selfcheck_elapsed = time.perf_counter() - start
    *lines, summary = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert selfcheck_elapsed < 120.0, f"selfcheck took {selfcheck_elapsed:.1f}s"
    parsed = [re.fullmatch(r"PASS (\S+) +max_err=\S+ tol=(\S+)  \[(.*)\]", line) for line in lines]
    assert all(parsed), lines
    assert [m.groups() for m in parsed] == SELFCHECK_REPORT
    assert summary == "18/18 checks passed"

    rng = np.random.default_rng(10)
    save_tensor(tmp_path / "x.rsft", FeatureMap(rng.standard_normal((64, 64, 32)).astype(np.float32)))
    save_tensor(tmp_path / "y.rsft", FeatureMap(rng.standard_normal((256, 256, 4)).astype(np.float32)))
    assert cli.main(["gen-weights", "--cin", "32", "--cguide", "4",
                     "--out", str(tmp_path / "w.rsfw")]) == 0
    args = ["upsample", "--input", str(tmp_path / "x.rsft"), "--guide", str(tmp_path / "y.rsft"),
            "--weights", str(tmp_path / "w.rsfw"), "--ratio", "4", "--out", str(tmp_path / "o.rsft")]
    start = time.perf_counter()
    rc = cli.main(args)
    upsample_elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert rc == 0
    assert load_tensor(tmp_path / "o.rsft").shape == (256, 256, 32)
    assert upsample_elapsed < 1.0, f"upsample took {upsample_elapsed:.3f}s"
