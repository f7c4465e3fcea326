"""Grayscale conversion + Otsu global thresholding, from scratch in numpy.

Reproduces the semantics of the reference's implicit binarization step:
Tesseract thresholds the loaded 32bpp PIX before layout/recognition
(exposed via ``GetThresholdedImage``, /root/reference/src/lib.cpp:250).
Otsu's method maximizes between-class variance over the 256-bin
histogram.
"""

from __future__ import annotations

import numpy as np


def to_gray(img: np.ndarray) -> np.ndarray:
    """uint8 [H,W] (already gray) or [H,W,4] RGBA -> uint8 [H,W] luminance."""
    if img.ndim == 2:
        return img
    if img.ndim == 3 and img.shape[2] == 4:
        rgb = img[..., :3].astype(np.float32)
        lum = rgb[..., 0] * 0.299 + rgb[..., 1] * 0.587 + rgb[..., 2] * 0.114
        return np.round(lum).astype(np.uint8)
    raise ValueError(f"unsupported image shape {img.shape}")


def otsu_threshold(w0: np.ndarray, mu: np.ndarray) -> int:
    """Otsu's threshold t from the cumulative histogram: ``w0[v]`` pixels
    have value <= v, with value sum ``mu[v]``.  Pixels < t are ink."""
    total = w0[-1]
    w1 = total - w0
    with np.errstate(divide="ignore", invalid="ignore"):
        m0 = mu / w0
        m1 = (mu[-1] - mu) / w1
        between = w0 * w1 * (m0 - m1) ** 2
    between[~np.isfinite(between)] = -1.0
    # argmax over t where threshold splits [0..t] | [t+1..255]; ink = < t+1
    return int(np.argmax(between)) + 1


_LEVELS = np.arange(256, dtype=np.uint8)


def binarize(img: np.ndarray) -> np.ndarray:
    """Image -> bool ink mask (True = ink). Dark-on-light assumed; if the
    page is inverted (more ink than background), flip so ink is minority.

    Every statistic after the threshold comes from the 256-bin
    histogram, not another pass over the pixels.  Its sums are exact
    integers in float64, so each equals the pixel-wise mean it stands
    for bit for bit."""
    gray = to_gray(img)
    if gray.size == 0:
        return np.zeros_like(gray, dtype=bool)
    hist = np.bincount(gray.ravel(), minlength=256).astype(np.float64)
    # Degenerate page (uniform): no ink.
    if np.count_nonzero(hist) == 1:
        return np.zeros(gray.shape, bool)
    w0 = np.cumsum(hist)                         # pixels <= v
    mu = np.cumsum(hist * np.arange(256))        # their value sum
    t = otsu_threshold(w0, mu)
    size, n_ink = w0[-1], w0[t - 1]
    # Bimodality check: a real ink/background split leaves a sparsely
    # populated band between the two class means; a unimodal page (blank
    # with sensor noise) does not — treat it as blank rather than
    # hallucinating ink.
    m0 = float(mu[t - 1] / n_ink) if n_ink else 0.0
    m1 = float((mu[-1] - mu[t - 1]) / (size - n_ink)) if size > n_ink else 255.0
    lo, hi = m0 + 0.3 * (m1 - m0), m1 - 0.3 * (m1 - m0)
    if hist[(_LEVELS >= lo) & (_LEVELS <= hi)].sum() / size > 0.05:
        return np.zeros(gray.shape, bool)
    ink = gray < t
    if n_ink / size > 0.5:
        ink = ~ink
    return ink
