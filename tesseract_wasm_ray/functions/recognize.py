"""Glyph recognition: template matching over segmented word boxes.

From-scratch analogue of the reference's recognition path
(``getTextBoxes`` -> ``Recognize`` + page-iterator walk,
/root/reference/src/ocr-engine.ts:255-267, /root/reference/src/lib.cpp:291-336):
produces per-word/per-line TextItems {rect, flags, confidence, text} with

- confidence in [0,1] (the reference rescales Tesseract's percentage,
  /root/reference/src/lib.cpp:302-304);
- flags = StartOfLine(1) | EndOfLine(2) bitmask computed from position in
  the line (/root/reference/src/ocr-engine.ts:32-35, src/lib.cpp:308-315);
- the empty-page quirk: layout yields 0 boxes but recognition yields one
  all-zero empty text box (/root/reference/test/ocr-engine-test.js:211-229).

Glyph cells are closed-form slices of the word box (GlyphModel invariants)
and matched vectorized: all cells of a page are stacked into one
[n_glyphs, 35] matrix and compared against the template bank by Hamming
distance in a single matmul; word and line confidences are grouped
means, so a page costs a fixed handful of numpy calls per word, not per
glyph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..state.glyph_model import CHAR_PITCH, GLYPH_H, GLYPH_W, GlyphModel
from .layout import Rect, analyze_layout

START_OF_LINE = 1
END_OF_LINE = 2

_EMPTY_RECT = Rect(0, 0, 0, 0)


@dataclass(frozen=True)
class TextItem:
    rect: Rect
    flags: int
    confidence: float
    text: str


def _glyph_count(rect: Rect, scale: int) -> int:
    """Glyph cells in a word box, or 0 if the box is not grid-aligned
    (noise/foreign marks)."""
    w = rect.right - rect.left
    h = rect.bottom - rect.top
    if scale < 1 or h != GLYPH_H * scale or (w + scale) % (CHAR_PITCH * scale) != 0:
        return 0
    return (w + scale) // (CHAR_PITCH * scale)


def _glyph_cells(ink: np.ndarray, rects: list[Rect], scale: int) -> np.ndarray:
    """Grid-aligned word boxes of one line -> bool [n_glyphs, 35],
    downsampled to glyph resolution, in reading order.

    One reshape-sum for the whole line: each box is followed by one
    inter-glyph gap of blank columns, so the boxes side by side are
    whole cells of ``CHAR_PITCH x scale`` columns, and a glyph pixel is
    ink when more than half of its ``scale x scale`` block is
    (``2 * count > scale**2``, exactly ``mean > 0.5``)."""
    gap = np.zeros((GLYPH_H * scale, scale), bool)
    strip = np.concatenate(
        [part for r in rects for part in (ink[r.top : r.bottom, r.left : r.right], gap)], axis=1
    )
    n = strip.shape[1] // (CHAR_PITCH * scale)
    counts = strip.reshape(GLYPH_H, scale, n, CHAR_PITCH, scale)[:, :, :, :GLYPH_W]
    cells = 2 * counts.sum(axis=(1, 4), dtype=np.int32) > scale * scale  # [7, n, 5]
    return cells.transpose(1, 0, 2).reshape(n, GLYPH_H * GLYPH_W)


def _run_means(values: np.ndarray, counts: list[int]) -> np.ndarray:
    """Mean of each consecutive run of ``counts[i]`` values (0.0 for an
    empty run), bit-identical to ``values[a:b].mean()`` per run: runs of
    one length reduce together as the rows of one 2-D array, and a row
    reduction keeps numpy's pairwise summation order."""
    sizes = np.array(counts, np.int64)
    out = np.zeros(len(sizes))
    starts = np.cumsum(sizes) - sizes
    for n in set(counts) - {0}:
        sel = np.flatnonzero(sizes == n)
        out[sel] = np.add.reduce(values[starts[sel, None] + np.arange(n)], axis=1) / n
    return out


def recognize_page(
    ink: np.ndarray, model: GlyphModel, on_progress=None
) -> tuple[list[TextItem], list[TextItem], float]:
    """-> (word items, line items, mean glyph match score).

    The mean match score over all glyph cells is also the orientation
    metric used by orientation.detect_orientation.

    ``on_progress(pct)`` (0-100, monotone, always ending at 100) mirrors
    the reference's progress channel (/root/reference/src/lib.cpp:79-98,
    monotonicity test at test/ocr-engine-test.js:309-338).
    """
    progress = on_progress or (lambda pct: None)
    progress(0)
    lines, words_per_line = analyze_layout(ink)
    if not lines:
        # Reference quirk: one empty all-zero text box on blank pages.
        empty = TextItem(_EMPTY_RECT, 0, 0.0, "")
        progress(100)
        return [empty], [empty], 0.0
    progress(20)

    all_cells: list[np.ndarray] = []
    cell_counts: list[int] = []  # glyphs per word, in reading order
    for line, wrects in zip(lines, words_per_line):
        scale = max(1, round((line.bottom - line.top) / GLYPH_H))
        counts = [_glyph_count(wr, scale) for wr in wrects]
        cell_counts.extend(counts)
        aligned = [wr for wr, n in zip(wrects, counts) if n]
        if aligned:
            all_cells.append(_glyph_cells(ink, aligned, scale))

    if all_cells:
        # Hamming distance of every cell to every template as one
        # matmul, |a| + |t| - 2 a.t: exact in float32 for 35 bits of
        # 0/1, so argmin breaks ties as the elementwise count does.
        a = np.concatenate(all_cells).astype(np.float32)  # [G, 35]
        t = model.flat.astype(np.float32)
        ham = a.sum(axis=1)[:, None] + t.sum(axis=1)[None, :] - 2.0 * (a @ t.T)
        best = ham.argmin(axis=1)
        dist = ham[np.arange(len(best)), best].astype(np.int64)
        score = 1.0 - dist / (GLYPH_H * GLYPH_W)
        glyphs = "".join(np.array(list(model.charset))[best].tolist())
    else:
        score = np.zeros(0)
        glyphs = ""
    word_conf = _run_means(score, cell_counts).tolist()
    ends = np.cumsum(cell_counts).tolist()

    progress(60)
    word_items: list[TextItem] = []
    line_rects: list[Rect] = []
    line_texts: list[str] = []
    line_counts: list[int] = []
    k = 0
    for line, wrects in zip(lines, words_per_line):
        if not wrects:
            continue
        # StartOfLine / EndOfLine flags from position in line
        # (/root/reference/src/lib.cpp:308-315).
        last = len(wrects) - 1
        words = []
        for wi, wr in enumerate(wrects):
            flags = (START_OF_LINE if wi == 0 else 0) | (END_OF_LINE if wi == last else 0)
            words.append(TextItem(wr, flags, word_conf[k], glyphs[ends[k] - cell_counts[k] : ends[k]]))
            k += 1
        word_items.extend(words)
        line_rects.append(line)
        line_texts.append(" ".join(it.text for it in words))
        line_counts.append(len(words))
    line_conf = _run_means(np.array(word_conf), line_counts).tolist()
    line_items = [
        TextItem(rect, START_OF_LINE | END_OF_LINE, conf, text)
        for rect, conf, text in zip(line_rects, line_conf, line_texts)
    ]

    mean_score = float(score.mean()) if score.size else 0.0
    progress(100)
    return word_items, line_items, mean_score


def assemble_text(line_items: list[TextItem]) -> str:
    """Reading-order page text, one \\n-terminated line per text line
    (/root/reference/src/lib.cpp:211-214)."""
    return "".join(it.text + "\n" for it in line_items if it.text)
