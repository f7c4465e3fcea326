"""Page layout analysis: projection-profile segmentation into lines/words.

From-scratch analogue of the reference's ``getBoundingBoxes`` /
``AnalyseLayout`` path (/root/reference/src/ocr-engine.ts:241-245,
/root/reference/src/lib.cpp:197-203): given a binarized page, produce
line bands (row-projection) and word boxes (column-projection within each
band).  Works without a glyph model, mirroring the reference's
layout-without-model behavior (/root/reference/src/lib.cpp:173-175,
test/ocr-engine-test.js:174-182).

Rect convention: IntRect {left, top, right, bottom}, top-left origin,
exclusive right/bottom (/root/reference/src/lib.cpp:12-17).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rect:
    left: int
    top: int
    right: int
    bottom: int


def _runs(mask: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Maximal runs of True along the last axis of a bool array ->
    (starts, ends) as ``np.nonzero``-style index tuples, row-major; a
    run covers [start, end) of its row."""
    padded = np.zeros(mask.shape[:-1] + (mask.shape[-1] + 2,), bool)
    padded[..., 1:-1] = mask
    edges = np.nonzero(padded[..., 1:] != padded[..., :-1])
    return tuple(e[::2] for e in edges), tuple(e[1::2] for e in edges)


def analyze_layout(ink: np.ndarray) -> tuple[list[Rect], list[list[Rect]]]:
    """-> (line rects, per-line word rects).

    Line bands are the row-projection runs, tight on both axes.  Word
    boxes are the column-projection runs of each band, merged where the
    blank gap between them is under ``2*scale``: word gaps are >=
    4*scale blank columns, intra-word (glyph pitch) gaps exactly
    1*scale (raster.py geometry), and ``scale`` is the band height over
    the 7 glyph rows.  Runs and merges are found for the whole page at
    once, and each band takes its words' row spans in one pass.
    """
    ((y0,), (y1,)) = _runs(ink.any(axis=1))
    if not len(y0):
        return [], []
    # Column projection of every band: the reduceat segments
    # [y0_i, y0_i+1) add only blank rows to band i.
    (band, starts), (_, ends) = _runs(np.logical_or.reduceat(ink, y0, axis=0))
    scale = np.maximum(1, np.rint((y1 - y0) / 7))
    new_word = (band[1:] != band[:-1]) | (starts[1:] - ends[:-1] >= 2 * scale[band[1:]])
    head = np.flatnonzero(np.concatenate(([True], new_word)))
    per_band = np.bincount(band[head], minlength=len(y0)).tolist()
    x0 = starts[head].tolist()
    x1 = ends[np.append(head[1:] - 1, len(starts) - 1)].tolist()
    lines: list[Rect] = []
    words: list[list[Rect]] = []
    k = 0
    for top, bottom, n in zip(y0.tolist(), y1.tolist(), per_band):
        left, right = x0[k : k + n], x1[k : k + n]
        k += n
        lines.append(Rect(left[0], top, right[-1], bottom))
        # Row projection of every word: the segments [x0_i, x0_i+1)
        # add only blank columns to word i.
        rows = np.logical_or.reduceat(ink[top:bottom], left, axis=1)
        wy0 = (top + rows.argmax(axis=0)).tolist()
        wy1 = (bottom - rows[::-1].argmax(axis=0)).tolist()
        words.append([Rect(*r) for r in zip(left, wy0, right, wy1)])
    return lines, words
