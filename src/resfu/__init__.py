"""Similarity-based feature upsampling.

Upsamples a low-resolution feature map with content-adaptive kernels derived
from the similarity between a high-resolution guide and the feature map
itself.  The package also ships the brute-force reference implementations,
gradient checks, and a small CLI used to exercise everything end to end.
"""

from .guided_filter import GuidedFilterConfig, guided_filter
from .ops import (
    ChannelGroupMismatch,
    GroupNormAffine,
    NonFiniteInput,
    ShapeMismatch,
    bilinear_resize,
    gaussian_smooth3,
    group_normalize,
    grouped_pointwise_conv,
    nearest_resize,
    neighbor_offsets,
    softmax_rows,
)
from .params_io import load_params, save_params
from .pcdc import CompressorParams, PcdcBlockParams, PcdcParams, pcdc_block, pcdc_layer
from .tensor import (
    BadMagic,
    FeatureMap,
    TensorFormatError,
    TruncatedPayload,
    UnsupportedVersion,
    deserialize,
    load_tensor,
    save_tensor,
    serialize,
)
from .upsampler import (
    ProjectionParams,
    RatioMismatch,
    ResfuParams,
    UpsampleConfig,
    generate_params,
    kernel_apply_fns,
    resfu_upsample,
    run_pipeline,
)

__all__ = [
    "BadMagic",
    "ChannelGroupMismatch",
    "CompressorParams",
    "FeatureMap",
    "GroupNormAffine",
    "GuidedFilterConfig",
    "NonFiniteInput",
    "PcdcBlockParams",
    "PcdcParams",
    "ProjectionParams",
    "RatioMismatch",
    "ResfuParams",
    "ShapeMismatch",
    "TensorFormatError",
    "TruncatedPayload",
    "UnsupportedVersion",
    "UpsampleConfig",
    "bilinear_resize",
    "deserialize",
    "gaussian_smooth3",
    "generate_params",
    "group_normalize",
    "grouped_pointwise_conv",
    "guided_filter",
    "kernel_apply_fns",
    "load_params",
    "load_tensor",
    "nearest_resize",
    "neighbor_offsets",
    "pcdc_block",
    "pcdc_layer",
    "resfu_upsample",
    "run_pipeline",
    "save_params",
    "save_tensor",
    "serialize",
    "softmax_rows",
]

__version__ = "0.1.0"
