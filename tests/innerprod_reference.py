"""The inner-product baseline composed by hand from its public stages.

run_pipeline(..., similarity="innerprod") runs these stages with its own
bookkeeping (sink, early frees, streamed rows); the tests hold it to this
chain bit for bit.
"""

from resfu.ops import bilinear_resize, softmax_rows
from resfu.upsampler import check_guide, inner_product_scores, kernel_apply_fns, project_qk


def innerprod_chain(x, y, params, ratio, fused=True):
    """check_guide -> project_qk -> bilinear_resize -> inner_product_scores
    -> softmax_rows -> kernel_apply_fns; returns every map by its
    PipelineResult name, intermediates in stage order, then "output"."""
    check_guide(x, y, ratio)
    q, k = project_qk(x, y, params.proj)
    k_up = bilinear_resize(k, y.height, y.width)
    scores = inner_product_scores(q, k_up, params.kernel, ratio)
    kernels = softmax_rows(scores)
    return {"q": q, "k": k, "k_up": k_up, "scores": scores, "kernels": kernels,
            "output": kernel_apply_fns(kernels, x, fused=fused)}
