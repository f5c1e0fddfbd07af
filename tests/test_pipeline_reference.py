"""The whole pipeline against a float64 reference written from the
definitions (pipeline_reference), independent of the production kernels
and of the code the score head's factored stages replaced."""

import ast
import inspect

import numpy as np
import pytest
from pipeline_reference import reference_pipeline

import pipeline_reference
from resfu import ops
from resfu.oracle import max_rel_error
from resfu.params_io import param_arrays, params_from_arrays
from resfu.tensor import FeatureMap
from resfu.upsampler import UpsampleConfig, generate_params, run_pipeline

# input h x w x C, ratio, guide channels, seed; the last two guides are wide
# enough for the general guided filter, and at 40 channels the detail block
# reads q itself
CASES = [(8, 9, 8, 4, 4, 0), (6, 7, 16, 5, 3, 1), (4, 5, 32, 8, 4, 2), (9, 10, 5, 3, 3, 7),
         (4, 5, 6, 2, 13, 4), (5, 6, 8, 3, 40, 3)]
TOLERANCE = 1e-5


def perturbed_params(c_in, c_guide, seed):
    """A generated bundle whose biases, norm gains and norm shifts are moved
    off 0 and 1, so that every affine the factored stages fold is live."""
    rng = np.random.default_rng(seed + 100)
    arrays = param_arrays(generate_params(c_in, c_guide, seed))
    for name, arr in arrays.items():
        if name.endswith(("bias", "beta")):
            arrays[name] = rng.uniform(-0.3, 0.3, arr.shape).astype(np.float32)
        elif name.endswith("gamma"):
            arrays[name] = rng.uniform(0.5, 1.5, arr.shape).astype(np.float32)
    return params_from_arrays(arrays)


def inputs(h, w, c, ratio, c_guide, seed):
    rng = np.random.default_rng(seed)
    x = FeatureMap(rng.standard_normal((h, w, c)).astype(np.float32))
    y = FeatureMap(rng.random((h * ratio, w * ratio, c_guide), dtype=np.float32))
    return x, y, perturbed_params(c, c_guide, seed)


def worst_fields(result, want):
    errors = {name: max_rel_error(getattr(result, name).data, ref) for name, ref in want.items()}
    print(" ".join(f"{name} {err:.2e}" for name, err in errors.items()))
    return errors


@pytest.fixture(scope="module", params=CASES, ids=lambda case: "{}x{}x{}-r{}-cg{}-s{}".format(*case))
def case(request):
    h, w, c, ratio, c_guide, seed = request.param
    x, y, params = inputs(*request.param)
    return x, y, params, ratio, reference_pipeline(x, y, params, ratio)


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "naive"])
def test_every_field_matches_the_float64_reference(case, fused):
    x, y, params, ratio, want = case
    errors = worst_fields(run_pipeline(x, y, params, UpsampleConfig(ratio=ratio), fused=fused), want)
    assert set(errors) == {"q", "k", "k_up", "q_gf", "s_s", "q_gs", "s_d", "scores", "kernels", "output"}
    assert max(errors.values()) <= TOLERANCE, errors


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "naive"])
def test_innerprod_fields_match_the_float64_reference(fused):
    h, w, c, ratio, c_guide, seed = CASES[0]
    x, y, params = inputs(h, w, c, ratio, c_guide, seed)
    result = run_pipeline(x, y, params, UpsampleConfig(ratio=ratio), fused=fused, similarity="innerprod")
    errors = worst_fields(result, reference_pipeline(x, y, params, ratio, similarity="innerprod"))
    assert set(errors) == {"q", "k", "k_up", "scores", "kernels", "output"}
    assert max(errors.values()) <= TOLERANCE, errors


def test_reference_imports_no_production_kernel():
    """From resfu the reference takes the oracles, the guided filter's
    config and the norm constants, never a kernel it is compared against."""
    for node in ast.walk(ast.parse(inspect.getsource(pipeline_reference))):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("resfu"):
            assert node.module in ("resfu.oracle", "resfu.ops", "resfu.guided_filter"), node.module
            if node.module == "resfu.ops":
                assert all(isinstance(getattr(ops, alias.name), (int, float)) for alias in node.names)
            if node.module == "resfu.guided_filter":
                assert [alias.name for alias in node.names] == ["GuidedFilterConfig"]
