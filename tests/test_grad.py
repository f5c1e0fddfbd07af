"""Backward passes vs central finite differences."""

import numpy as np
import pytest

import resfu.grad as grad_mod
from resfu.grad import (
    FD_TOLERANCE,
    check_gradients,
    check_kernel_apply_gradients,
    check_pcdc_gradients,
    finite_diff_grad,
    kernel_apply_backward,
    pcdc_backward,
    _softmax64,
)
from resfu.ops import ChannelGroupMismatch, ShapeMismatch
from resfu.oracle import CheckResult, max_rel_error
from resfu.pcdc import _pcdc_core
from resfu.upsampler import _apply_naive


class TestFiniteDiff:
    def test_sum_of_squares(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4, 2))
        grad = finite_diff_grad(lambda a: float((a**2).sum()), x)
        assert max_rel_error(grad, 2 * x) <= 1e-8

    def test_linear_function_recovers_coefficients(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5))
        coeff = rng.standard_normal((4, 5))
        grad = finite_diff_grad(lambda a: float((coeff * a).sum()), x)
        assert max_rel_error(grad, coeff) <= 1e-10

    def test_nonfinite_rejected(self):
        # a NaN loss gives NaN differences, which fail the comparison
        # instead of raising
        x = np.ones((2, 2))
        grad = finite_diff_grad(lambda a: float("nan"), x)
        assert np.isnan(grad).all()
        assert max_rel_error(grad, np.zeros_like(x)) == np.inf


class TestPcdcBackward:
    def _case(self, seed=0, h=3, w=3, d=4, l_out=4, groups=2, dilation=1):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((h, w, d))
        k = rng.standard_normal((h, w, d))
        weight = rng.standard_normal((9, d // groups, l_out)) * 0.4
        bias = rng.standard_normal(l_out) * 0.1
        upstream = rng.standard_normal((h, w, l_out))
        return q, k, weight, bias, upstream, dilation

    def test_constant_equal_inputs_zero_weight_gradient(self):
        q = np.full((4, 4, 6), 0.7)
        weight = np.random.default_rng(2).standard_normal((9, 3, 6))
        upstream = np.random.default_rng(3).standard_normal((4, 4, 6))
        _, _, d_w, _ = pcdc_backward(upstream, q, q.copy(), weight, np.zeros(6), 1)
        assert not d_w.any()

    def test_bias_gradient_is_upstream_sum(self):
        q, k, weight, bias, upstream, dilation = self._case(4)
        *_, d_b = pcdc_backward(upstream, q, k, weight, bias, dilation)
        assert np.array_equal(d_b, upstream.sum(axis=(0, 1)))

    @pytest.mark.parametrize("dilation", [1, 2])
    def test_dense_fd_agreement(self, dilation):
        q, k, weight, bias, upstream, _ = self._case(5, dilation=dilation)
        d_q, d_k, d_w, d_b = pcdc_backward(upstream, q, k, weight, bias, dilation)

        def loss_with(**named):
            parts = {"q": q, "k": k, "weight": weight, "bias": bias, **named}
            return float(
                (upstream * _pcdc_core(parts["q"], parts["k"], parts["weight"],
                                       parts["bias"], dilation)).sum()
            )

        for arr, grad, name in ((q, d_q, "q"), (k, d_k, "k"), (weight, d_w, "weight"), (bias, d_b, "bias")):
            fd = finite_diff_grad(lambda a, n=name: loss_with(**{n: a}), arr)
            assert max_rel_error(fd, grad) <= 1e-6, name

    def test_linear_in_upstream(self):
        q, k, weight, bias, upstream, dilation = self._case(6)
        other = np.random.default_rng(7).standard_normal(upstream.shape)
        combo = pcdc_backward(2.5 * upstream - 0.5 * other, q, k, weight, bias, dilation)
        lhs = pcdc_backward(upstream, q, k, weight, bias, dilation)
        rhs = pcdc_backward(other, q, k, weight, bias, dilation)
        for got, a, b in zip(combo, lhs, rhs):
            assert max_rel_error(got, 2.5 * a - 0.5 * b) <= 1e-10

    def test_shape_validation(self):
        q, k, weight, bias, upstream, dilation = self._case(8)
        with pytest.raises(ShapeMismatch):
            pcdc_backward(upstream[:, :, :2], q, k, weight, bias, dilation)
        with pytest.raises(ShapeMismatch):
            pcdc_backward(upstream, q[:, :, :3], k[:, :, :3], weight, bias, dilation)
        with pytest.raises(ShapeMismatch, match="8 neighbor slots is not an odd kernel squared"):
            pcdc_backward(upstream, q, k, weight[:8], bias, dilation)
        q8 = np.concatenate([q, q], axis=2)
        with pytest.raises(ShapeMismatch, match="weight group width: 8 is not one integer multiple of 3"):
            pcdc_backward(upstream, q8, q8, np.zeros((9, 3, 4)), bias, dilation)
        with pytest.raises(ChannelGroupMismatch, match="outputs over groups: 6 is not one integer multiple of 4"):
            pcdc_backward(np.zeros(q.shape[:2] + (6,)), q, k, np.zeros((9, 1, 6)), np.zeros(6), dilation)


class TestKernelApplyBackward:
    def _case(self, seed=0, h=3, w=4, c=2, ratio=2):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((h, w, c))
        scores = rng.standard_normal((h * ratio, w * ratio, 9))
        upstream = rng.standard_normal((h * ratio, w * ratio, c))
        return x, scores, upstream, ratio

    def test_constant_value_zero_score_gradient(self):
        x, scores, _, ratio = self._case(10)
        const_x = np.full_like(x, 1.25)
        upstream = np.ones((x.shape[0] * ratio, x.shape[1] * ratio, x.shape[2]))
        d_scores, _ = kernel_apply_backward(upstream, _softmax64(scores), const_x)
        assert np.max(np.abs(d_scores)) <= 1e-12

    def test_ratio_one_center_one_hot_passes_upstream(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((5, 4, 3))
        upstream = rng.standard_normal((5, 4, 3))
        weights = np.zeros((5, 4, 9))
        weights[:, :, 4] = 1.0
        _, d_x = kernel_apply_backward(upstream, weights, x)
        assert np.array_equal(d_x, upstream)

    def test_dense_fd_agreement(self):
        x, scores, upstream, _ = self._case(12)
        d_scores, d_x = kernel_apply_backward(upstream, _softmax64(scores), x)
        fd_scores = finite_diff_grad(
            lambda a: float((upstream * _apply_naive(_softmax64(a), x)).sum()), scores
        )
        fd_x = finite_diff_grad(
            lambda a: float((upstream * _apply_naive(_softmax64(scores), a)).sum()), x
        )
        assert max_rel_error(fd_scores, d_scores) <= 1e-6
        assert max_rel_error(fd_x, d_x) <= 1e-6

    def test_score_gradient_rows_sum_to_zero(self):
        x, scores, upstream, _ = self._case(13)
        d_scores, _ = kernel_apply_backward(upstream, _softmax64(scores), x)
        assert np.max(np.abs(d_scores.sum(axis=2))) <= 1e-10

    def test_linear_in_upstream(self):
        x, scores, upstream, _ = self._case(14)
        other = np.random.default_rng(15).standard_normal(upstream.shape)
        weights = _softmax64(scores)
        combo = kernel_apply_backward(3.0 * upstream + 2.0 * other, weights, x)
        lhs = kernel_apply_backward(upstream, weights, x)
        rhs = kernel_apply_backward(other, weights, x)
        for got, a, b in zip(combo, lhs, rhs):
            assert max_rel_error(got, 3.0 * a + 2.0 * b) <= 1e-10

    def test_shape_validation(self):
        x, scores, upstream, _ = self._case(16)
        with pytest.raises(ShapeMismatch):
            kernel_apply_backward(upstream[:-1], _softmax64(scores), x)
        with pytest.raises(ShapeMismatch):
            kernel_apply_backward(upstream, _softmax64(scores[:, :, :8]), x)
        for grid in ((7, 8), (6, 12), (2, 2)):  # no multiple, two multiples, smaller than x
            with pytest.raises(ShapeMismatch, match=f"{grid[0]}x{grid[1]} is not one integer multiple of 3x4"):
                kernel_apply_backward(np.zeros(grid + (2,)), np.full(grid + (9,), 1 / 9), x)


class TestCheckDrivers:
    def test_report_pass_flag_tracks_tolerance(self):
        good = CheckResult("grad/x", 1e-7, FD_TOLERANCE, "4 probes")
        bad = CheckResult("grad/x", 2e-6, FD_TOLERANCE, "4 probes")
        assert good.passed and not bad.passed

    def test_all_builtin_checks_pass(self):
        reports = check_gradients(seed=0)
        assert len(reports) == 7
        assert all(isinstance(r, CheckResult) and r.passed for r in reports)
        by_name = {r.name: r for r in reports}
        assert by_name["grad/pcdc/d_query"].detail == "64 probes"
        assert by_name["grad/kernel_apply/d_scores"].detail == "64 probes"
        assert by_name["grad/kernel_apply/shift_invariance"].tolerance == 1e-10

    def test_checks_deterministic(self):
        first = check_pcdc_gradients(seed=3)
        second = check_pcdc_gradients(seed=3)
        assert [(r.name, r.max_error) for r in first] == [(r.name, r.max_error) for r in second]

    def test_nan_in_the_forward_pass_fails_every_pcdc_check(self, monkeypatch):
        real = grad_mod._pcdc_core

        def one_nan(*args):
            out = real(*args)
            out[1, 2, 3] = np.nan
            return out

        monkeypatch.setattr(grad_mod, "_pcdc_core", one_nan)
        reports = check_pcdc_gradients(seed=0)  # must report, not raise
        assert [r.name for r in reports] == ["grad/pcdc/d_query", "grad/pcdc/d_key",
                                             "grad/pcdc/d_weight", "grad/pcdc/d_bias"]
        assert all(not r.passed and r.max_error == np.inf for r in reports)

    def test_kernel_checks_pass_other_seeds(self):
        assert all(r.passed for r in check_kernel_apply_gradients(seed=5))


@pytest.mark.parametrize("shape", [(9, 16), (9, 2, 8, 1)])
def test_pcdc_backward_rejects_a_weight_not_of_rank_three(shape):
    q = np.zeros((4, 3, 8))
    with pytest.raises(ShapeMismatch, match="weight must have rank 3"):
        pcdc_backward(np.zeros((4, 3, 8)), q, q, np.zeros(shape), np.zeros(8), 1)


@pytest.mark.parametrize("weights, x, what", [
    (np.zeros((8, 8)), np.zeros((4, 4, 2)), "weights"),
    (np.zeros((8, 8, 9, 1)), np.zeros((4, 4, 2)), "weights"),
    (np.full((8, 8, 9), 1 / 9), np.zeros((4, 4)), "values"),
])
def test_kernel_apply_backward_rejects_misranked_inputs(weights, x, what):
    with pytest.raises(ShapeMismatch, match=f"{what} must have rank 3"):
        kernel_apply_backward(np.zeros((8, 8, 2)), weights, x)
