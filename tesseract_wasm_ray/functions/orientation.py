"""Orientation detection: rotation in {0, 90, 180, 270} + confidence.

From-scratch analogue of the reference's ``getOrientation``
(/root/reference/src/ocr-engine.ts:310-313) whose C++ side quantizes two
Leptonica rise/run confidence scalars into a quadrant
(/root/reference/src/lib.cpp:242-288).  We keep the same *decision
structure* — first choose the text-line axis, then the direction along
that axis — but compute the metrics from our glyph kernel:

- axis: candidate rotations whose row-projection yields clean 7*scale
  line bands score via glyph-template match quality;
- direction: the 180-ambiguity is resolved by template match score
  (rotated glyphs don't match the upright template bank).

Convention: the returned rotation r is the rotation that WAS APPLIED to
the upright page (counter-clockwise, matching numpy ``rot90``); applying
``np.rot90(img, k=(4 - r // 90) % 4)`` restores the upright page.  This
mirrors the reference's round-trip test (rotate fixture by r, assert
detected rotation == r, /root/reference/test/ocr-engine-test.js:340-352).
"""

from __future__ import annotations

import numpy as np

from ..state.glyph_model import GlyphModel
from .recognize import recognize_page

ROTATIONS = (0, 90, 180, 270)


def derotate(img: np.ndarray, rotation: int) -> np.ndarray:
    """Undo an applied counter-clockwise rotation (works for [H,W] and
    [H,W,C] arrays)."""
    return np.rot90(img, k=(4 - rotation // 90) % 4)


# A rotation whose mean glyph-match score reaches this is accepted
# without scoring the remaining rotations.  Measured on the fixture
# distribution: correct rotations score exactly 1.0 (min over 150 pages),
# wrong rotations max 0.964 — the gap makes 0.995 a safe early exit.
# Model-dependent: re-measure if the glyph bank changes.
EARLY_EXIT_SCORE = 0.995


def _axis_probe_order(ink: np.ndarray) -> tuple[int, int, int, int]:
    """Order rotations by a projection-profile axis guess (SURVEY §2 M8).

    The text-line axis projects into FEW ink bands — one per line (1–4
    on this page distribution) — while the cross axis fragments into
    one band per character column cluster (typically 15–30): glyph gaps
    from different lines rarely align, so cross-axis bands are many and
    ragged.  The axis with fewer bands is therefore the line axis.
    (Comparing band LENGTHS instead — 7·scale glyph height vs 5·scale
    width — misroutes multi-line pages whose cross-axis bands partially
    merge; that first cut cost upright pages 1.8 recognition passes and
    ~25% of 8-cpu headline throughput.)  One vectorized pass over the
    projections — no recognition, no model.  Pure optimization: only
    the PROBE order changes, never the result (the no-early-exit full
    scan re-ranks deterministically)."""

    def n_bands(counts: np.ndarray) -> int:
        # Number of ink runs (speck-tolerant: a row/col needs >= 2
        # inked pixels to count).
        mask = counts >= 2
        return int(mask[0]) + int(np.count_nonzero(mask[1:] > mask[:-1]))

    n_rows = n_bands(ink.sum(axis=1))
    n_cols = n_bands(ink.sum(axis=0))
    if n_cols < n_rows:  # fewer bands along columns -> lines run vertically
        return (90, 270, 0, 180)
    return (0, 180, 90, 270)


def detect_orientation_and_recognize(ink: np.ndarray, model: GlyphModel):
    """-> (rotation, confidence, upright_ink, ocr_results).

    Scores rotations in _axis_probe_order (projection pre-test) with an
    early exit at EARLY_EXIT_SCORE, and returns the winning rotation's
    recognition results so callers can reuse them instead of
    re-recognizing (recognition is the per-page cost; upright pages pay
    1 pass, rotated pages <=2 thanks to the axis pre-test — previously
    up to 4).

    Blank pages return (0, 0.0, ink, blank_results), mirroring the
    reference's low-confidence default when no text is found.
    """
    if not ink.any():
        return 0, 0.0, ink, recognize_page(ink, model)
    # Cheap axis pre-test (one projection pass, no recognition): text
    # lines give many SHORT row bands along the correct axis, one tall
    # band along the wrong one.  Probe the likely axis's two rotations
    # first so rotated pages early-exit after <=2 recognition passes
    # instead of up to 4.  Pure reordering: if no early exit fires, the
    # full scan below scores all four and its outcome is
    # probe-order-independent.
    probe_order = _axis_probe_order(ink)
    scores_by_rot: dict[int, float] = {}
    results_by_rot: dict[int, tuple] = {}
    uprights_by_rot: dict[int, np.ndarray] = {}
    for idx, r in enumerate(probe_order):
        upright = derotate(ink, r)
        res = recognize_page(upright, model)
        scores_by_rot[r] = res[2]
        results_by_rot[r] = res
        uprights_by_rot[r] = upright
        if res[2] >= EARLY_EXIT_SCORE:
            # The one realistic tie is the 180° counterpart (a page of
            # 180-symmetric glyphs scores high both ways).  If the
            # counterpart was already scored it failed the threshold —
            # no tie possible.  Otherwise a cheap ink-overlap screen
            # (one AND/OR pass) decides whether to pay one extra
            # recognition; only near-symmetric pages do, and for them we
            # reproduce the full scan's margin-based confidence instead
            # of reporting ~1.0 for an ambiguous page.
            r2 = (r + 180) % 360
            if r2 not in scores_by_rot:
                # Screen on the ink-BBOX crop (margins shift under
                # rotation; the glyph block itself is what can be
                # symmetric): IoU(crop, rot180(crop)) >= 0.98 tolerates
                # residual binarization specks.
                rows, cols = upright.any(axis=1), upright.any(axis=0)
                crop = upright[
                    rows.argmax() : len(rows) - rows[::-1].argmax(),
                    cols.argmax() : len(cols) - cols[::-1].argmax(),
                ]
                r180 = np.rot90(crop, 2)
                union = int(np.logical_or(crop, r180).sum())
                iou = int(np.logical_and(crop, r180).sum()) / union if union else 0.0
                if iou >= 0.98:
                    u2 = derotate(ink, r2)
                    res2 = recognize_page(u2, model)
                    if res2[2] >= EARLY_EXIT_SCORE:
                        # Tie-break: higher score wins; exact tie
                        # prefers the smaller rotation (full-scan
                        # semantics).
                        if res2[2] > res[2] or (res2[2] == res[2] and r2 < r):
                            win_r, win_res, win_up = r2, res2, u2
                        else:
                            win_r, win_res, win_up = r, res, upright
                        margin = abs(float(res[2]) - float(res2[2]))
                        conf = float(win_res[2]) if margin > 0.02 else margin
                        return win_r, conf, win_up, win_res
            return r, float(res[2]), upright, res
    # Full scan over all four rotations.  Ordering is by (-score,
    # rotation) — ties prefer the smaller rotation — and therefore
    # independent of the probe order above.
    ranked = sorted(ROTATIONS, key=lambda rr: (-scores_by_rot[rr], rr))
    best, second = ranked[0], ranked[1]
    if scores_by_rot[best] <= 0.0:
        return 0, 0.0, ink, recognize_page(ink, model)
    margin = scores_by_rot[best] - scores_by_rot[second]
    # Clean pages match their templates near-perfectly upright and poorly
    # rotated, so confidence ~= the absolute match quality; ties (margin
    # ~0) are ambiguous.
    confidence = float(scores_by_rot[best]) if margin > 0.02 else float(margin)
    return best, confidence, uprights_by_rot[best], results_by_rot[best]


def detect_orientation(
    ink: np.ndarray, model: GlyphModel
) -> tuple[int, float]:
    """-> (rotation, confidence in [0,1])."""
    rotation, confidence, _, _ = detect_orientation_and_recognize(ink, model)
    return rotation, confidence
