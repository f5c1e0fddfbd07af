"""Hand-derived backward passes for the two novel kernels, verified against
central finite differences.

Everything here runs on raw float64 arrays: finite differences at 32-bit
would drown the comparison in rounding noise.  The forward evaluations are
the production kernels themselves, pcdc._pcdc_core and the naive kernel
application upsampler._apply_naive (after a float64 softmax), which compute
in the dtype they are given; the backward passes are derived by hand and
share no arithmetic with them, so a finite-difference check compares two
independent sides.  As in resfu.oracle, K, the group count and the ratio
come from the tensors (oracle._integer_multiple).  Only the difference
convolution and the softmax-kernel application get backward passes;
training the full pipeline is out of scope.
"""

from __future__ import annotations

import numpy as np

from .ops import ChannelGroupMismatch, ShapeMismatch, _odd_kernel, _resize_linear, _softmax64, axis_linear_coords
from .oracle import CheckResult, _clamped_index_maps, _dims, _integer_multiple, max_rel_error
from .pcdc import _pcdc_core
from .upsampler import _apply_naive

FD_STEP = 1e-5
FD_TOLERANCE = 1e-6
EXACT_TOLERANCE = 1e-10
DEFAULT_PROBES = 64


# --- finite differences ------------------------------------------------------


def finite_diff_grad(f, x, h: float = FD_STEP) -> np.ndarray:
    """Dense central-difference gradient of a scalar function."""
    x = np.asarray(x, np.float64)
    flat = x.reshape(-1)
    grad = np.empty_like(flat)
    for idx in range(flat.size):
        grad[idx] = _central_diff(f, x, idx, h)
    return grad.reshape(x.shape)


def _central_diff(f, x, flat_index, h):
    bumped = x.copy()
    bumped.reshape(-1)[flat_index] += h
    hi = float(f(bumped))
    bumped.reshape(-1)[flat_index] -= 2 * h
    return (hi - float(f(bumped))) / (2 * h)


def _probe_coords(rng, size, probes):
    if size <= probes:
        return np.arange(size)
    return rng.choice(size, size=probes, replace=False)


def _fd_vs_analytic(op_name, loss, arr, analytic, rng, probes) -> CheckResult:
    coords = _probe_coords(rng, arr.size, probes)
    fd = np.array([_central_diff(loss, arr, int(idx), FD_STEP) for idx in coords])
    want = analytic.reshape(-1)[coords]
    return CheckResult(f"grad/{op_name}", max_rel_error(fd, want), FD_TOLERANCE, f"{len(coords)} probes")


# --- backward passes ---------------------------------------------------------


def pcdc_backward(upstream, q_bar, k_bar, weight, bias, dilation: int):
    """Gradients of sum(upstream * pcdc(q_bar, k_bar)) for all four inputs.

    The query gradient reuses the spatially-summed weights (negated); the key
    gradient scatter-adds through the clamped neighbor maps; the weight
    gradient accumulates upstream-times-difference outer products.
    """
    upstream, q, k, weight = (np.asarray(a, np.float64) for a in (upstream, q_bar, k_bar, weight))
    h, w, d_total = _dims(q, 3, "query")
    ksq, in_per, l_out = _dims(weight, 3, "weight")
    if upstream.shape != (h, w, l_out) or k.shape != q.shape:
        raise ShapeMismatch(f"upstream {upstream.shape}, key {k.shape} must fit query {q.shape}, {l_out} outputs")
    groups = _integer_multiple((d_total,), (in_per,), "channels over weight group width")
    out_per = _integer_multiple((l_out,), (groups,), "outputs over groups", ChannelGroupMismatch)
    wsum = weight.sum(axis=0)
    index_maps = _clamped_index_maps(h, w, _odd_kernel(ksq), dilation)

    d_q, d_k, d_w = np.zeros_like(q), np.zeros_like(k), np.zeros_like(weight)
    d_b = upstream.sum(axis=(0, 1))
    for g in range(groups):
        ds = slice(g * in_per, (g + 1) * in_per)
        ls = slice(g * out_per, (g + 1) * out_per)
        u_g = upstream[:, :, ls]
        d_q[:, :, ds] = -np.einsum("hwl,dl->hwd", u_g, wsum[:, ls])
        d_k_g = d_k[:, :, ds]
        for n, (ri, ci) in enumerate(index_maps):
            diff = k[ri, ci][:, :, ds] - q[:, :, ds]
            d_w[n][:, ls] = np.einsum("hwd,hwl->dl", diff, u_g)
            np.add.at(d_k_g, (ri, ci), np.einsum("hwl,dl->hwd", u_g, weight[n][:, ls]))
    return d_q, d_k, d_w, d_b


def _axis_transpose(d, lo, hi, t, n_in):
    """Adjoint of one linear-interpolation axis (axis 0)."""
    out = np.zeros((n_in,) + d.shape[1:])
    shaped = t.reshape((-1,) + (1,) * (d.ndim - 1))
    np.add.at(out, lo, d * (1 - shaped))
    np.add.at(out, hi, d * shaped)
    return out


def kernel_apply_backward(upstream, weights, x):
    """Gradients of sum(upstream * output) for the pre-softmax scores and x.

    `weights` are the saved post-softmax kernels, K from their slot count
    and the ratio from their grid over x's.
    The score gradient applies the softmax Jacobian w * (g - <w, g>); the
    value gradient scatters the weighted upstream through the neighbor maps
    and then through the adjoint of the bilinear resize.
    """
    upstream, weights, x = (np.asarray(a, np.float64) for a in (upstream, weights, x))
    out_h, out_w, slots = _dims(weights, 3, "weights")
    h, w, c = _dims(x, 3, "values")
    if upstream.shape != (out_h, out_w, c):
        raise ShapeMismatch(f"upstream {upstream.shape} does not match output {(out_h, out_w, c)}")
    ratio = _integer_multiple((out_h, out_w), (h, w), "weights' grid over value grid")
    index_maps = _clamped_index_maps(out_h, out_w, _odd_kernel(slots), ratio)
    x_up = _resize_linear(x, out_h, out_w)

    d_post = np.empty_like(weights)
    d_x_up = np.zeros_like(x_up)
    for n, (ri, ci) in enumerate(index_maps):
        d_post[:, :, n] = (upstream * x_up[ri, ci]).sum(axis=2)
        np.add.at(d_x_up, (ri, ci), weights[:, :, n : n + 1] * upstream)
    d_scores = weights * (d_post - (weights * d_post).sum(axis=2, keepdims=True))

    r_lo, r_hi, r_t = axis_linear_coords(h, out_h)
    c_lo, c_hi, c_t = axis_linear_coords(w, out_w)
    cols_undone = _axis_transpose(d_x_up.transpose(1, 0, 2), c_lo, c_hi, c_t, w).transpose(1, 0, 2)
    d_x = _axis_transpose(cols_undone, r_lo, r_hi, r_t, h)
    return d_scores, d_x


# --- check drivers -----------------------------------------------------------


def check_pcdc_gradients(seed: int = 0, probes: int = DEFAULT_PROBES) -> list[CheckResult]:
    """FD-verify all four difference-convolution gradients on a random case."""
    rng = np.random.default_rng(seed)
    # every probed tensor holds at least DEFAULT_PROBES entries, so the
    # probe count is never truncated by exhausting a small array
    h, w, d_total, l_out, groups, dilation = 5, 4, 8, 64, 2, 2
    q = rng.standard_normal((h, w, d_total))
    k = rng.standard_normal((h, w, d_total))
    weight = rng.standard_normal((9, d_total // groups, l_out)) * 0.3
    bias = rng.standard_normal(l_out) * 0.1
    proj = rng.standard_normal((h, w, l_out))

    def loss_for(name):
        def loss(arr):
            parts = {"q": q, "k": k, "weight": weight, "bias": bias, name: arr}
            return float(
                (proj * _pcdc_core(parts["q"], parts["k"], parts["weight"], parts["bias"], dilation)).sum()
            )

        return loss

    d_q, d_k, d_w, d_b = pcdc_backward(proj, q, k, weight, bias, dilation)
    return [
        _fd_vs_analytic("pcdc/d_query", loss_for("q"), q, d_q, rng, probes),
        _fd_vs_analytic("pcdc/d_key", loss_for("k"), k, d_k, rng, probes),
        _fd_vs_analytic("pcdc/d_weight", loss_for("weight"), weight, d_w, rng, probes),
        _fd_vs_analytic("pcdc/d_bias", loss_for("bias"), bias, d_b, rng, probes),
    ]


def check_kernel_apply_gradients(seed: int = 0, probes: int = DEFAULT_PROBES) -> list[CheckResult]:
    """FD-verify the softmax-kernel application plus its shift invariance."""
    rng = np.random.default_rng(seed)
    ratio, kernel = 2, 3
    h, w, c = 4, 4, 4  # 64 value entries: enough for a full probe set
    x = rng.standard_normal((h, w, c))
    scores = rng.standard_normal((h * ratio, w * ratio, kernel * kernel))
    proj = rng.standard_normal((h * ratio, w * ratio, c))

    def loss_scores(arr):
        return float((proj * _apply_naive(_softmax64(arr), x)).sum())

    def loss_x(arr):
        return float((proj * _apply_naive(_softmax64(scores), arr)).sum())

    d_scores, d_x = kernel_apply_backward(proj, _softmax64(scores), x)
    row_sum = float(np.max(np.abs(d_scores.sum(axis=2))))
    return [
        _fd_vs_analytic("kernel_apply/d_scores", loss_scores, scores, d_scores, rng, probes),
        _fd_vs_analytic("kernel_apply/d_value", loss_x, x, d_x, rng, probes),
        CheckResult("grad/kernel_apply/shift_invariance", row_sum, EXACT_TOLERANCE,
                    f"{d_scores.shape[0] * d_scores.shape[1]} probes"),
    ]


def check_gradients(seed: int = 0, probes: int = DEFAULT_PROBES) -> list[CheckResult]:
    return check_pcdc_gradients(seed, probes) + check_kernel_apply_gradients(seed, probes)
