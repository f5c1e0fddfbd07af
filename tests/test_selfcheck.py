"""Diagnostic-suite tests: check-result bookkeeping, the individual checks at
reduced case counts, and the micro-benchmark harness."""

import dataclasses
import math
import os

import numpy as np
import pytest

import resfu.selfcheck as selfcheck_mod
import resfu.upsampler as upsampler_mod
from resfu import cli
from resfu.bench import BenchReport, CheckFailed, run_bench
from resfu.ops import ShapeMismatch
from resfu.selfcheck import (
    CheckResult,
    check_anti_mosaic,
    check_cli_determinism,
    check_constant_preservation,
    check_degenerate_scores,
    check_format_round_trips,
    check_fused_vs_naive,
    check_guided_filter,
    check_pcdc_equivalence,
    check_weights_file,
    zeroed_score_params,
)
from resfu.tensor import FeatureMap
from resfu.upsampler import generate_params


def _with_nan(fmap, index=(0, 0, 0)):
    data = fmap.data.copy()
    data[index] = np.nan
    return FeatureMap(data)


def _nan_output(real, index=(0, 0, 0)):
    """real, with one NaN put into the feature map it returns."""
    return lambda *args, **kwargs: _with_nan(real(*args, **kwargs), index)


def _nan_fused(monkeypatch):
    """Make the fused kernel application emit one NaN."""
    real = upsampler_mod._apply_fused

    def fused(*args, **kwargs):
        out = real(*args, **kwargs)
        out[0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(upsampler_mod, "_apply_fused", fused)


class TestCheckResult:
    def test_pass_flag_derived_from_tolerance(self):
        assert CheckResult("a", max_error=1e-6, tolerance=1e-5).passed
        assert CheckResult("b", max_error=1e-5, tolerance=1e-5).passed
        assert not CheckResult("c", max_error=2e-5, tolerance=1e-5).passed

    def test_exact_checks_require_zero_error(self):
        assert CheckResult("d", max_error=0.0, tolerance=0.0).passed
        assert not CheckResult("e", max_error=1e-300, tolerance=0.0).passed


class TestZeroedScoreParams:
    def test_score_path_is_wiped_but_values_path_kept(self):
        params = generate_params(6, 3, seed=1)
        zeroed = zeroed_score_params(params)
        for block in (zeroed.block_s, zeroed.block_d):
            assert not np.any(block.pcdc.weight)
            assert not np.any(block.pcdc.bias)
            assert not np.any(block.comp.conv1_weight)
            assert not np.any(block.comp.conv2_weight)
        # projections and norm affines are untouched
        np.testing.assert_array_equal(zeroed.proj.weight_q, params.proj.weight_q)
        np.testing.assert_array_equal(zeroed.block_s.norm.gamma, params.block_s.norm.gamma)


class TestIndividualChecks:
    def test_pcdc_equivalence_reduced(self):
        result = check_pcdc_equivalence(seed=3, cases=6)
        assert result.passed and result.name == "pcdc-decomposition-equivalence"
        assert 0.0 < result.max_error <= 1e-5

    def test_guided_filter_reduced(self):
        result = check_guided_filter(seed=4, cases=2)
        assert result.passed and result.tolerance == 1e-4

    def test_mis_scaled_projection_fails_the_guided_filter(self, monkeypatch):
        # with eps near var(q) the filter sees q's scale: a 1 % weight error
        # reads about 2e-3 (6.2e-5 with eps 1e-3, inside the 1e-4 tolerance)
        real = selfcheck_mod.guided_filter_projected
        monkeypatch.setattr(selfcheck_mod, "guided_filter_projected",
                            lambda guide, weight, bias, key, cfg: real(guide, weight * 1.01, bias, key, cfg))
        result = check_guided_filter(seed=0, cases=4)
        assert not result.passed and math.isfinite(result.max_error), result

    def test_fused_vs_naive_reduced(self):
        result = check_fused_vs_naive(seed=5, cases=8)
        assert result.passed and result.tolerance == 1e-5

    def test_constant_preservation_reduced(self):
        flat, rows = check_constant_preservation(seed=6, bundles=3)
        assert flat.passed and flat.name == "constant-preservation"
        assert rows.passed and rows.name == "kernel-row-normalization"

    def test_degenerate_scores(self):
        result = check_degenerate_scores(seed=7)
        assert result.passed and result.name == "degenerate-score-box-mean"

    def test_anti_mosaic_pair(self):
        fns, grid = check_anti_mosaic()
        assert fns.passed and fns.name == "fns-ramp-linearity"
        assert grid.passed and grid.name == "gridwise-mosaic-staircase"
        assert grid.tolerance == 0.0

    def test_format_round_trips_reduced(self):
        trips, magic = check_format_round_trips(seed=8, bundles=3)
        assert trips.passed and trips.max_error == 0.0
        assert magic.passed and magic.name == "corrupted-magic-rejected"

    def test_cli_determinism_passes(self):
        result = check_cli_determinism(seed=2)
        assert result.passed and result.name == "upsample-determinism"

    def test_cli_determinism_fails_when_a_save_never_replaces_the_path(self, monkeypatch):
        real = os.replace

        def replace_only_missing(src, dst):
            if os.path.exists(dst):
                os.remove(src)  # the new file is dropped and the old one kept
            else:
                real(src, dst)

        monkeypatch.setattr(os, "replace", replace_only_missing)
        assert not check_cli_determinism(seed=2).passed

    def test_weights_file_check_passes_a_generated_bundle(self, tmp_path, capsys):
        path = tmp_path / "w.rsfw"
        assert cli.main(["gen-weights", "--cin", "5", "--cguide", "3", "--seed", "4", "--out", str(path)]) == 0
        result = check_weights_file(str(path))
        assert result.passed and result.name == "weights-file-loads" and result.max_error == 0.0
        assert result.detail == str(path)

    def test_weights_file_check_fails_on_garbage(self, tmp_path):
        path = tmp_path / "junk.rsfw"
        path.write_bytes(b"not a weight bundle")
        result = check_weights_file(str(path))
        assert not result.passed
        assert result.name == "weights-file-loads"
        assert result.detail


class TestNanFailsEveryCheck:
    """A kernel that emits one NaN fails its check with a non-finite error
    (a running max(worst, nan) would keep 0.0 and pass it)."""

    @staticmethod
    def _fails(result):
        assert not result.passed and not math.isfinite(result.max_error), result

    def test_pcdc_equivalence(self, monkeypatch):
        monkeypatch.setattr(selfcheck_mod, "pcdc_layer", _nan_output(selfcheck_mod.pcdc_layer))
        self._fails(check_pcdc_equivalence(seed=3, cases=2))

    def test_guided_filter_interior_pixel(self, monkeypatch):
        monkeypatch.setattr(selfcheck_mod, "guided_filter",
                            _nan_output(selfcheck_mod.guided_filter, (5, 6, 1)))
        self._fails(check_guided_filter(seed=4, cases=2))

    def test_projected_guided_filter_interior_pixel(self, monkeypatch):
        # the second case runs the filter the pipeline runs
        monkeypatch.setattr(selfcheck_mod, "guided_filter_projected",
                            _nan_output(selfcheck_mod.guided_filter_projected, (5, 6, 1)))
        self._fails(check_guided_filter(seed=4, cases=2))

    def test_fused_vs_naive(self, monkeypatch):
        _nan_fused(monkeypatch)
        self._fails(check_fused_vs_naive(seed=5, cases=4))

    def test_degenerate_scores(self, monkeypatch):
        monkeypatch.setattr(selfcheck_mod, "resfu_upsample", _nan_output(selfcheck_mod.resfu_upsample))
        self._fails(check_degenerate_scores(seed=7))

    def test_constant_preservation_and_row_sums(self, monkeypatch):
        real = selfcheck_mod.run_pipeline

        def pipeline(*args, **kwargs):
            res = real(*args, **kwargs)
            return dataclasses.replace(res, output=_with_nan(res.output), kernels=_with_nan(res.kernels))

        monkeypatch.setattr(selfcheck_mod, "run_pipeline", pipeline)
        flat, rows = check_constant_preservation(seed=6, bundles=2)
        self._fails(flat)
        self._fails(rows)


class TestRunBench:
    def test_report_contents(self):
        report = run_bench(h=8, w=8, c=6, ratio=2, iters=1, seed=0)
        assert isinstance(report, BenchReport)
        names = [row.name for row in report.rows]
        assert names == ["fns-fused", "fns-naive", "pcdc-decomposed", "pcdc-direct"]
        assert all(row.mean_seconds > 0 for row in report.rows)
        assert all(row.iters == 1 for row in report.rows)
        assert 0.0 <= report.equivalence_error <= 1e-5

    def test_fused_path_allocates_less(self):
        report = run_bench(h=16, w=16, c=8, ratio=4, iters=1, seed=1)
        assert 0 < report.fused_peak < report.naive_peak

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(h=0, w=8, c=4, ratio=2, iters=1),
            dict(h=8, w=1024, c=4, ratio=2, iters=1),
            dict(h=8, w=8, c=512, ratio=2, iters=1),
            dict(h=8, w=8, c=4, ratio=3, iters=1),
            dict(h=8, w=8, c=4, ratio=2, iters=0),
        ],
    )
    def test_rejects_out_of_bounds_requests(self, kwargs):
        with pytest.raises(ShapeMismatch):
            run_bench(**kwargs)

    @pytest.mark.parametrize("name", ["h", "w", "c", "ratio"])
    def test_rejects_a_bool_size_or_ratio_before_any_work(self, name, monkeypatch):
        # True == 1 passed the range checks, and ratio=True then failed in
        # pcdc_layer as "dilation must be an integer >= 1"
        import resfu.bench as bench_mod

        monkeypatch.setattr(bench_mod, "kernel_apply_fns", None)  # any work fails differently
        kwargs = {**dict(h=8, w=8, c=4, ratio=2, iters=1), name: True}
        with pytest.raises(ShapeMismatch, match=f"^{name} must be an integer >= 1, got True"):
            run_bench(**kwargs)

    def test_rejects_a_float_iteration_count_before_any_work(self, monkeypatch):
        # iters=2.5 ran both applies before range() raised a bare TypeError
        import resfu.bench as bench_mod

        monkeypatch.setattr(bench_mod, "kernel_apply_fns", None)
        with pytest.raises(ShapeMismatch, match="^iters must be an integer >= 1, got 2.5"):
            run_bench(h=8, w=8, c=4, ratio=2, iters=2.5)

    def test_equivalence_guard_raises_check_failed(self, monkeypatch):
        # fused and naive agree bitwise at this size, so only an impossible
        # (negative) tolerance can trip the guard
        import resfu.bench as bench_mod

        monkeypatch.setattr(bench_mod, "EQUIVALENCE_TOL", -1.0)
        with pytest.raises(CheckFailed):
            run_bench(h=8, w=8, c=6, ratio=2, iters=1, seed=0)

    def test_nan_in_the_fused_output_raises_check_failed(self, monkeypatch):
        _nan_fused(monkeypatch)
        with pytest.raises(CheckFailed, match="disagree: inf > 1e-05"):
            run_bench(h=8, w=8, c=6, ratio=2, iters=1, seed=0)
