"""OcrActor — the OCR stage's callable for map_batches.

The Ray-native equivalent of the reference's worker-held engine: one
engine + loaded model per worker (reference src/worker.ts:14-20,
src/node-worker.js:46-53; pool advice at
examples/node-server/ocr-server.js:48-51).  The model loads ONCE in
``__init__``, in the process that builds the plan (ST2, SURVEY.md
§2.3); the loaded instance ships with each map task and each
``__call__`` processes one Arrow batch of media rows.  Despite the name it runs as TASK compute,
not as an actor: Ray keeps its task worker processes warm across
executions, so no worker starts or dies per run, and the model is
small enough (333 bytes, sub-ms load) that there is nothing to warm.

Per row: decode raw pixels -> binarize -> detect orientation ->
derotate -> layout + recognition (all vectorized numpy inside the
kernel) -> text / word boxes / line boxes / orientation columns.

Wire through ``pipelines/extract.py:ocr_map``, which sizes the tasks
(``ocr_pool``) and the batch (``ocr_batch``: the table split evenly
over the pool, capped at ``cfg.ocr_batch_size``)::

    media = read_media(path)
    ocr_map(media, OcrActor(model_blob=cfg.model_blob), media.count(), cfg)

``LayoutActor`` and ``HocrActor`` wire the same way.

Skew note (SURVEY.md §4.2): media pages are recognized *before* any
per-document grouping, one row at a time inside the batch, so a
media-heavy document never makes a straggler partition — its pages
spread across all the concurrent OCR tasks; only small text structs
shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..engine import OCREngine
from ..schema import OCR_RESULT_SCHEMA
from ..state.glyph_model import GlyphModel


def _items_column(groups: list[list]) -> pa.ListArray:
    """list-of-TextItem-lists -> Arrow list<TextItem struct> column,
    built column-wise (typed fromiter arrays + StructArray.from_arrays)
    instead of per-row nested dicts through from_pylist — ~3x cheaper
    per batch, which matters now that recognition itself is ~1.4 ms/page."""
    counts = np.fromiter((len(g) for g in groups), np.int64, len(groups))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    flat = [it for g in groups for it in g]
    n = len(flat)

    def ints(get) -> pa.Array:
        return pa.array(np.fromiter((get(it) for it in flat), np.int32, n))

    rect = pa.StructArray.from_arrays(
        [
            ints(lambda it: it.rect.left),
            ints(lambda it: it.rect.top),
            ints(lambda it: it.rect.right),
            ints(lambda it: it.rect.bottom),
        ],
        names=["left", "top", "right", "bottom"],
    )
    item = pa.StructArray.from_arrays(
        [
            rect,
            ints(lambda it: it.flags),
            pa.array(np.fromiter((it.confidence for it in flat), np.float32, n)),
            pa.array([it.text for it in flat], pa.string()),
        ],
        names=["rect", "flags", "confidence", "text"],
    )
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), item)


def _page_decoder(batch: pa.Table):
    """-> ``page(j)``: row ``j``'s raw pixels as a uint8 [H,W] or
    [H,W,4] array, viewing the batch's buffer.  The shape columns
    convert to numpy once per batch, not one boxed scalar per cell; a
    corrupt row raises only when its ``page(j)`` is called."""
    widths = batch.column("width").to_numpy()
    heights = batch.column("height").to_numpy()
    channels = batch.column("channels").to_numpy()
    pixels = batch.column("pixels")

    def page(j: int) -> np.ndarray:
        w, h, c = int(widths[j]), int(heights[j]), int(channels[j])
        img = np.frombuffer(pixels[j].as_buffer(), dtype=np.uint8)
        return img.reshape((h, w) if c == 1 else (h, w, 4))

    return page


class OcrActor:
    def __init__(
        self,
        model_blob: bytes | None = None,
        emit_boxes: bool = True,
        on_error: str = "quarantine",
    ):
        if on_error not in ("quarantine", "raise"):
            raise ValueError(f"on_error must be quarantine|raise, got {on_error!r}")
        model = GlyphModel.from_bytes(model_blob) if model_blob else GlyphModel.build()
        self.engine = OCREngine()
        self.engine.load_model(model)
        self.emit_boxes = emit_boxes
        # "quarantine" (the at-scale default): a corrupt page poisons
        # ONE row (error column set) and the run continues; "raise" is
        # the strict mode for golden-gated CI runs where any malformed
        # payload should stop the job immediately.
        self.on_error = on_error

    def __call__(self, batch: pa.Table) -> pa.Table:
        page = _page_decoder(batch)
        n = batch.num_rows
        texts: list[str] = []
        word_groups: list[list] = []
        line_groups: list[list] = []
        errors: list[str | None] = []
        rotations = np.empty(n, np.int32)
        confidences = np.empty(n, np.float32)
        n_words = np.empty(n, np.int32)
        eng = self.engine
        for j in range(n):
            # Per-row error isolation (dead-letter): a corrupt pixel
            # buffer poisons ONE row, not the task — Ray would retry a
            # deterministic raise forever and then kill the job.  The
            # reference surfaces these as catchable per-call Errors
            # (/root/reference/src/ocr-engine.ts:179-185,205-207).
            try:
                eng.load_image(page(j))
                o = eng.orient_and_recognize()  # one pass: orientation + OCR cache
                words = eng.get_text_boxes("word")
                texts.append(eng.get_text())
                word_groups.append(words if self.emit_boxes else [])
                line_groups.append(eng.get_text_boxes("line") if self.emit_boxes else [])
                rotations[j] = o["rotation"]
                confidences[j] = o["confidence"]
                n_words[j] = sum(1 for x in words if x.text)
                errors.append(None)
            except Exception as ex:  # noqa: BLE001 — quarantine, don't die
                if self.on_error == "raise":
                    raise
                texts.append("")
                word_groups.append([])
                line_groups.append([])
                rotations[j] = 0
                confidences[j] = 0.0
                n_words[j] = 0
                errors.append(f"{type(ex).__name__}: {ex}")
                try:
                    eng.clear_image()  # engine hygiene after a failed load
                except Exception:
                    pass
        orientation = pa.StructArray.from_arrays(
            [pa.array(rotations), pa.array(confidences)],
            names=["rotation", "confidence"],
        )
        out = pa.table(
            {
                "media_ref": batch.column("media_ref"),
                "text": pa.array(texts, pa.string()),
                "words": _items_column(word_groups),
                "lines": _items_column(line_groups),
                "orientation": orientation,
                "n_words": pa.array(n_words),
                "error": pa.array(errors, pa.string()),
            }
        )
        return out.cast(OCR_RESULT_SCHEMA)


class LayoutActor:
    """Layout-only stage: bounding boxes WITHOUT a model — mirrors the
    reference's InitForAnalysePage path (/root/reference/src/lib.cpp:173-175,
    test/ocr-engine-test.js:174-182).  Emits per-page box counts."""

    def __init__(self):
        self.engine = OCREngine()  # no model: layout works regardless

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Column-wise output (the _items_column pattern): the engine work
        # is per-image by nature, but the batch assembles as three arrays
        # — no per-row dicts / Table.from_pylist.
        page = _page_decoder(batch)
        n = batch.num_rows
        n_words = np.empty(n, np.int32)
        n_lines = np.empty(n, np.int32)
        for j in range(n):
            self.engine.load_image(page(j))
            n_words[j] = len(self.engine.get_bounding_boxes("word"))
            n_lines[j] = len(self.engine.get_bounding_boxes("line"))
        return pa.table(
            {
                "media_ref": pc.cast(batch.column("media_ref"), pa.string()),
                "n_word_boxes": pa.array(n_words, pa.int32()),
                "n_line_boxes": pa.array(n_lines, pa.int32()),
            }
        )


class HocrActor:
    """hOCR rendering stage (K3, /root/reference/src/lib.cpp:216-240):
    recognized page -> hOCR XHTML + stable md5 digest."""

    def __init__(self, model_blob: bytes | None = None):
        import hashlib

        model = GlyphModel.from_bytes(model_blob) if model_blob else GlyphModel.build()
        self.engine = OCREngine()
        self.engine.load_model(model)
        self._md5 = hashlib.md5

    def __call__(self, batch: pa.Table) -> pa.Table:
        page = _page_decoder(batch)
        hocrs: list[str] = []
        digests: list[str] = []
        for j in range(batch.num_rows):
            self.engine.load_image(page(j))
            self.engine.orient_and_recognize()
            hocr = self.engine.get_hocr()
            hocrs.append(hocr)
            digests.append(self._md5(hocr.encode()).hexdigest())
        return pa.table(
            {
                "media_ref": pc.cast(batch.column("media_ref"), pa.string()),
                "hocr": pa.array(hocrs, pa.string()),
                "hocr_md5": pa.array(digests, pa.string()),
            }
        )
