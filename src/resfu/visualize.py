"""Feature-map visualization: PCA projection to RGB, written as binary PPM.

The eigendecomposition is numpy's LAPACK-backed eigh, with the sign of each
principal direction fixed, so the output bytes are reproducible per
NumPy/LAPACK build.  Zero-variance channels have no defined min-max
scaling and render as mid-gray 128; inputs with fewer than three channels
pad the missing RGB planes with 128 as well.
"""

from __future__ import annotations

import numpy as np

from .ops import ShapeMismatch
from .tensor import FeatureMap, _write_file

MID_GRAY = 128
_VARIANCE_FLOOR = 1e-10  # eigenvalues below floor * largest count as zero


def _scale_to_bytes(plane: np.ndarray) -> np.ndarray:
    lo, hi = float(plane.min()), float(plane.max())
    if hi - lo <= 0.0:
        return np.full(plane.shape, MID_GRAY, np.uint8)
    return np.rint((plane - lo) / (hi - lo) * 255.0).astype(np.uint8)


def pca_rgb(fmap: FeatureMap) -> np.ndarray:
    """Project channels onto the top-3 principal directions, one per RGB
    plane, each min-max scaled to [0, 255]."""
    h, w, c = fmap.shape
    centered = fmap.astype64().reshape(-1, c)
    centered -= centered.mean(axis=0)
    cov = centered.T @ centered / centered.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]  # descending

    rgb = np.full((h, w, 3), MID_GRAY, np.uint8)
    floor = _VARIANCE_FLOOR * max(float(eigvals[0]), 0.0)
    for plane in range(min(3, c)):
        if eigvals[plane] <= floor:
            continue  # no variance along this direction: keep mid-gray
        direction = eigvecs[:, plane]
        if direction[np.argmax(np.abs(direction))] < 0:
            direction = -direction  # fix the sign for reproducible bytes
        rgb[:, :, plane] = _scale_to_bytes((centered @ direction).reshape(h, w))
    return rgb


def channel_rgb(fmap: FeatureMap, channel: int) -> np.ndarray:
    """One channel, an int index (else ShapeMismatch), as a min-max scaled grayscale image."""
    if isinstance(channel, bool) or not isinstance(channel, (int, np.integer)) or not 0 <= channel < fmap.channels:
        raise ShapeMismatch(f"channel {channel!r} out of range for {fmap.channels} channels")
    plane = _scale_to_bytes(fmap.data[:, :, channel].astype(np.float64))
    return np.repeat(plane[:, :, None], 3, axis=2)


def encode_ppm(rgb: np.ndarray) -> bytes:
    rgb = np.asarray(rgb, np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ShapeMismatch(f"PPM wants an HxWx3 byte image, got {rgb.shape}")
    h, w, _ = rgb.shape
    return f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.tobytes()


def save_ppm(path, rgb: np.ndarray) -> None:
    """Write encode_ppm(rgb) atomically and preallocated, as save_tensor
    writes a map."""
    blob = encode_ppm(rgb)
    _write_file(path, len(blob), lambda write: write(blob))
