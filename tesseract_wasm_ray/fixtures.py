"""Deterministic interleaved-corpus fixture generator (FIXTURES.md).

Mirrors the reference's test-corpus style — real pages with known
content plus synthetic blanks (/root/reference/test/ocr-engine-test.js:33-44)
— but every page is rendered from known words with the engine's own glyph
model, so golden outputs are exact *by construction* (not by running the
recognizer: golden rects/text are computed in closed form from the raster
geometry, keeping the oracle independent of the kernel under test).

Everything is a pure function of (SEED, doc index) / (SEED, doc, span),
so generation parallelizes embarrassingly over doc-index ranges with Ray
``map_batches`` and any subset can be regenerated independently.

Tables produced under ``out_dir``:
- ``documents/``    (doc_id, spans)            — BASELINE.json input_hint
- ``media/``        (media_ref, width, height, channels, pixels, rotation)
- ``golden_spans/`` (doc_id, spans)            — expected extraction output
- ``golden_boxes/`` (media_ref, words, lines, text, orientation)
- ``golden_pages/`` (hOCR markup + digest, layout box counts, exact
  integer feature sums) — DuckDB-readable golden columns for the
  extraction-family oracle SQL.  hOCR/features are computed serially at
  generation time from the golden items / rendered raster; the layout
  counts run the projection segmentation serially (rotated pages have no
  closed grid form), making those columns a serial-vs-distributed
  differential check rather than closed-form truth — documented where
  they are registered.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import MODEL_VERSION
from .functions.raster import MARGIN, page_text, render_page
from .state.glyph_model import CHAR_PITCH, GLYPH_H, LINE_PITCH, WORD_GAP, GlyphModel
from .schema import DOCUMENTS_SCHEMA, MEDIA_SCHEMA, OCR_RESULT_SCHEMA

SEED = 42

# Every word contains 180-asymmetric glyphs so orientation is decidable.
PAGE_WORDS = [
    "DATA", "RAY", "ENGINE", "QUERY", "TABLE", "ARROW", "BATCH", "ACTOR",
    "SHUFFLE", "STREAM", "PIPELINE", "WORKER", "MODEL", "GLYPH", "PAGE",
    "LINE", "WORD", "TEXT", "IMAGE", "SCAN", "MERGE", "JOIN", "GROUP",
    "SORT", "FILTER", "WINDOW", "PARQUET", "VECTOR", "INDEX", "TOKEN",
    "LANG", "SCORE", "CLUSTER", "NODE", "BLOCK", "SPILL", "CACHE",
    "LEDGER", "SIGNAL", "RANDOM", "SAMPLE", "WEIGHT", "TENSOR", "LAYER",
    "TRAIN", "EVAL", "BENCH", "TOP10", "SF01", "V2", "X42", "PLAN7",
]

HTML_WORDS = [w.lower() for w in PAGE_WORDS if w.isalpha()]
NAV_WORDS = ["home", "about", "contact", "archive", "login", "signup", "help"]


# ---------------------------------------------------------------------------
# per-doc / per-page specs (pure functions of the seed + indices)
# ---------------------------------------------------------------------------


def _sentence(rng: np.random.Generator) -> str:
    n = int(rng.integers(4, 9))
    words = [HTML_WORDS[int(j)] for j in rng.integers(0, len(HTML_WORDS), n)]
    s = " ".join(words)
    return s[0].upper() + s[1:] + "."


def _text_span_html(rng: np.random.Generator) -> tuple[str, str]:
    """-> (html markup, golden stripped main text)."""
    sentences = [_sentence(rng) for _ in range(int(rng.integers(1, 4)))]
    style = rng.random()
    if style < 0.15:
        # Plain text, no markup at all.
        return " ".join(sentences), " ".join(sentences)
    parts = []
    if rng.random() < 0.6:
        links = "".join(
            f"<a href='/{w}'>{w}</a> "
            for w in rng.choice(NAV_WORDS, size=int(rng.integers(3, 7)))
        )
        parts.append(f"<nav>{links}</nav>")
    if rng.random() < 0.3:
        parts.append("<div class='sidebar'><a href='/x'>x</a> promo links here</div>")
    body = "".join(f"<p>{s}</p>" for s in sentences)
    if rng.random() < 0.5:
        parts.append(f"<div class='content'>{body}</div>")
    else:
        parts.append(body)
    if rng.random() < 0.4:
        farm = " ".join(f"<a href='/{i}'>more{i}</a>" for i in range(int(rng.integers(3, 8))))
        parts.append(f"<div>{farm}</div>")
    if rng.random() < 0.5:
        parts.append(f"<footer>copyright {int(rng.integers(1990, 2030))} example corp</footer>")
    return "".join(parts), "\n".join(sentences)


def doc_spec(i: int) -> dict:
    """Deterministic spec for doc ``i``: input spans + golden spans + media refs."""
    rng = np.random.default_rng([SEED, 1, i])
    r = float(rng.random())
    kinds: list[str]
    if r < 0.01:  # zero-media doc
        kinds = ["text"] * int(rng.integers(1, 13))
    elif r < 0.03:  # adversarially media-heavy (skew tail, FIXTURES.md §1)
        n_media = int(rng.integers(20, 41))
        n_text = int(rng.integers(1, 6))
        kinds = ["media_ref"] * n_media + ["text"] * n_text
        rng.shuffle(kinds)  # type: ignore[arg-type]
    else:
        kinds = [
            "media_ref" if rng.random() < 0.10 else "text"
            for _ in range(int(rng.integers(1, 13)))
        ]
    spans, golden, media_refs = [], [], []
    for k, kind in enumerate(kinds):
        if kind == "text":
            html, main = _text_span_html(rng)
            spans.append({"kind": "text", "text": html, "media_ref": "", "offset": k})
            golden.append({"kind": "text", "text": main, "media_ref": "", "offset": k})
        else:
            ref = f"img-{i:08d}-{k:02d}"
            media_refs.append(ref)
            spans.append({"kind": "media_ref", "text": "", "media_ref": ref, "offset": k})
            golden.append(
                {"kind": "media_ref", "text": page_spec(ref)["text"], "media_ref": ref, "offset": k}
            )
    return {
        "doc_id": f"doc-{i:08d}",
        "spans": spans,
        "golden": golden,
        "media_refs": media_refs,
    }


def _parse_ref(ref: str) -> tuple[int, int]:
    _, i, k = ref.split("-")
    return int(i), int(k)


def page_spec(ref: str) -> dict:
    """Deterministic page spec for a media_ref: words/scale/channels/rotation
    + ground-truth text."""
    i, k = _parse_ref(ref)
    rng = np.random.default_rng([SEED, 2, i, k])
    blank = rng.random() < 0.015
    if blank:
        lines: list[list[str]] = []
    else:
        n_lines = int(rng.integers(1, 5))
        lines = [
            [PAGE_WORDS[int(j)] for j in rng.integers(0, len(PAGE_WORDS), int(rng.integers(1, 6)))]
            for _ in range(n_lines)
        ]
    scale = int(rng.choice([1, 2, 3], p=[0.75, 0.2, 0.05]))
    channels = 4 if rng.random() < 0.2 else 1
    rotation = 0 if blank else int(rng.choice([0, 90, 180, 270], p=[0.7, 0.1, 0.1, 0.1]))
    noisy = rng.random() < 0.8
    return {
        "ref": ref,
        "lines": lines,
        "scale": scale,
        "channels": channels,
        "rotation": rotation,
        "noisy": noisy,
        "noise_seed": [SEED, 3, i, k],
        "text": page_text(lines),
    }


def render_spec(spec: dict, model: GlyphModel) -> np.ndarray:
    noise = np.random.default_rng(spec["noise_seed"]) if spec["noisy"] else None
    return render_page(
        spec["lines"], model, scale=spec["scale"], channels=spec["channels"],
        noise_rng=noise, rotation=spec["rotation"],
    )


def golden_boxes_for_spec(spec: dict) -> dict:
    """Closed-form expected TextItems in the UPRIGHT frame (raster geometry,
    independent of the recognizer)."""
    s = spec["scale"]
    words, lines = [], []
    for li, ws in enumerate(spec["lines"]):
        if not ws:
            continue
        y0 = (MARGIN + li * LINE_PITCH) * s
        rect_line = None
        x_u = MARGIN
        line_words = []
        for wi, w in enumerate(ws):
            left, right = x_u * s, (x_u + CHAR_PITCH * len(w) - 1) * s
            flags = (1 if wi == 0 else 0) | (2 if wi == len(ws) - 1 else 0)
            line_words.append(
                {
                    "rect": {"left": left, "top": y0, "right": right, "bottom": y0 + GLYPH_H * s},
                    "flags": flags,
                    "confidence": 1.0,
                    "text": w,
                }
            )
            x_u += CHAR_PITCH * len(w) + (WORD_GAP - 1)
        rect_line = {
            "left": line_words[0]["rect"]["left"],
            "top": y0,
            "right": line_words[-1]["rect"]["right"],
            "bottom": y0 + GLYPH_H * s,
        }
        words.extend(line_words)
        lines.append(
            {"rect": rect_line, "flags": 3, "confidence": 1.0, "text": " ".join(ws)}
        )
    if not words:  # blank-page quirk parity (test/ocr-engine-test.js:211-229)
        empty = {
            "rect": {"left": 0, "top": 0, "right": 0, "bottom": 0},
            "flags": 0,
            "confidence": 0.0,
            "text": "",
        }
        words, lines = [empty], [empty]
        orientation = {"rotation": 0, "confidence": 0.0}
    else:
        orientation = {"rotation": spec["rotation"], "confidence": 1.0}
    return {
        "media_ref": spec["ref"],
        "text": spec["text"],
        "words": words,
        "lines": lines,
        "orientation": orientation,
        "n_words": len([w for w in words if w["text"]]),
    }


# ---------------------------------------------------------------------------
# batch builders (arrow in / arrow out — usable directly in map_batches)
# ---------------------------------------------------------------------------


def documents_batch(indices: np.ndarray) -> pa.Table:
    specs = [doc_spec(int(i)) for i in indices]
    return pa.Table.from_pylist(
        [{"doc_id": s["doc_id"], "spans": s["spans"]} for s in specs],
        schema=DOCUMENTS_SCHEMA,
    )


def golden_spans_batch(indices: np.ndarray) -> pa.Table:
    specs = [doc_spec(int(i)) for i in indices]
    return pa.Table.from_pylist(
        [{"doc_id": s["doc_id"], "spans": s["golden"]} for s in specs],
        schema=DOCUMENTS_SCHEMA,
    )


def media_batch(indices: np.ndarray, model: GlyphModel) -> pa.Table:
    rows = []
    for i in indices:
        for ref in doc_spec(int(i))["media_refs"]:
            spec = page_spec(ref)
            img = render_spec(spec, model)
            h, w = img.shape[:2]
            rows.append(
                {
                    "media_ref": ref,
                    "width": w,
                    "height": h,
                    "channels": spec["channels"],
                    "pixels": img.tobytes(),
                    "rotation": spec["rotation"],
                }
            )
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


def golden_boxes_batch(indices: np.ndarray) -> pa.Table:
    rows = []
    for i in indices:
        for ref in doc_spec(int(i))["media_refs"]:
            rows.append(golden_boxes_for_spec(page_spec(ref)))
    return pa.Table.from_pylist(rows, schema=OCR_RESULT_SCHEMA)


GOLDEN_PAGES_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("hocr", pa.string()),
        ("hocr_md5", pa.string()),
        ("n_word_boxes", pa.int32()),
        ("n_line_boxes", pa.int32()),
        # Exact integer feature sums: the oracle divides them in SQL
        # (one IEEE division — bit-identical to the pipeline's), so no
        # lossy float rounding ever enters the comparison.
        ("mean_sum", pa.int64()),
        ("mean_denom", pa.int64()),
        ("n_dark", pa.int64()),
        ("n_pix", pa.int64()),
        ("width", pa.int32()),
        ("height", pa.int32()),
    ]
)


def golden_pages_batch(indices: np.ndarray, model: GlyphModel) -> pa.Table:
    """Per-page golden columns that need the rendered raster or the hOCR
    template: hOCR markup rendered from the CLOSED-FORM golden items
    (equality proves the distributed recognize->render path reproduces
    them), projection-layout box counts (serial run of the segmentation
    — rotated pages have no closed grid form), and exact integer
    intensity/ink sums for the feature oracle."""
    import hashlib

    from . import __version__
    from .engine import OCREngine
    from .functions.hocr import render_hocr
    from .functions.recognize import Rect, TextItem

    def as_item(d: dict) -> TextItem:
        r = d["rect"]
        return TextItem(
            rect=Rect(r["left"], r["top"], r["right"], r["bottom"]),
            flags=d["flags"],
            confidence=d["confidence"],
            text=d["text"],
        )

    eng = OCREngine()  # layout-only: no model needed
    rows = []
    for i in indices:
        for ref in doc_spec(int(i))["media_refs"]:
            spec = page_spec(ref)
            golden = golden_boxes_for_spec(spec)
            img = render_spec(spec, model)
            h, w = img.shape[:2]
            uw, uh = (h, w) if spec["rotation"] in (90, 270) else (w, h)
            hocr = render_hocr(
                [as_item(x) for x in golden["words"]],
                [as_item(x) for x in golden["lines"]],
                uw, uh, version=__version__,
            )
            eng.load_image(img)
            n_word_boxes = len(eng.get_bounding_boxes("word"))
            n_line_boxes = len(eng.get_bounding_boxes("line"))
            c = spec["channels"]
            img3 = img.reshape(h, w, c) if img.ndim == 2 else img
            if c >= 3:
                mean_sum = int(img3[..., :3].sum(dtype=np.int64))
                mean_denom = 3 * h * w
                n_dark = int((img3[..., :3].sum(axis=2, dtype=np.int32) < 384).sum())
            else:
                mean_sum = int(img3[..., 0].sum(dtype=np.int64))
                mean_denom = h * w
                n_dark = int((img3[..., 0] < 128).sum())
            rows.append(
                {
                    "media_ref": ref,
                    "hocr": hocr,
                    "hocr_md5": hashlib.md5(hocr.encode()).hexdigest(),
                    "n_word_boxes": n_word_boxes,
                    "n_line_boxes": n_line_boxes,
                    "mean_sum": mean_sum,
                    "mean_denom": mean_denom,
                    "n_dark": n_dark,
                    "n_pix": h * w,
                    "width": w,
                    "height": h,
                }
            )
    return pa.Table.from_pylist(rows, schema=GOLDEN_PAGES_SCHEMA)


# ---------------------------------------------------------------------------
# corpus generation (Ray-parallel over doc-index ranges)
# ---------------------------------------------------------------------------


def corpus_paths(out_dir: str) -> dict[str, str]:
    return {
        name: os.path.join(out_dir, name)
        for name in ("documents", "media", "golden_spans", "golden_boxes", "golden_pages")
    }


def generate_corpus(out_dir: str, n_docs: int, parallelism: int | None = None) -> dict[str, str]:
    """Generate the four fixture tables under ``out_dir`` using Ray Data.

    Idempotent: if ``meta.json`` matches, generation is skipped (the
    cached corpus is reused by tests/bench across processes). Does NOT
    call ray.init (Ray auto-inits or the caller owns the session).
    """
    import ray.data as rd

    meta_path = os.path.join(out_dir, "meta.json")
    # v4: golden_boxes carries the dead-letter ``error`` column
    # (OCR_RESULT_SCHEMA change) — cached v3 corpora must regenerate
    meta = {"n_docs": n_docs, "seed": SEED, "model_version": MODEL_VERSION, "v": 4}
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            if json.load(f) == meta:
                return corpus_paths(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    model = GlyphModel.build()
    paths = corpus_paths(out_dir)

    # Regeneration over a stale cache must start from CLEAN table dirs:
    # write_parquet appends new part files next to old ones, silently
    # doubling every table (observed when the v3->v4 bump regenerated a
    # multi-file sf0.1 corpus: 70392 spans where 35196 exist).  Also
    # drop the meta marker first so a crash mid-regeneration can't
    # leave a directory that looks valid.
    import shutil

    if os.path.exists(meta_path):
        os.remove(meta_path)
    for p in paths.values():
        shutil.rmtree(p, ignore_errors=True)
    # derived caches (the poisoned-media copy of
    # catalog.extraction.q_extract_quarantine) go stale with the corpus — drop them too
    shutil.rmtree(os.path.join(out_dir, "media_poisoned"), ignore_errors=True)

    if parallelism is None:
        parallelism = max(4, min(256, n_docs // 256))

    if n_docs <= 2000:
        # Small corpora: generate inline, one file per table.
        idx = np.arange(n_docs)
        for name, table in (
            ("documents", documents_batch(idx)),
            ("golden_spans", golden_spans_batch(idx)),
            ("media", media_batch(idx, model)),
            ("golden_boxes", golden_boxes_batch(idx)),
            ("golden_pages", golden_pages_batch(idx, model)),
        ):
            os.makedirs(paths[name], exist_ok=True)
            pq.write_table(table, os.path.join(paths[name], "part-0.parquet"))
    else:
        base = rd.range(n_docs, override_num_blocks=parallelism)
        jobs = {
            "documents": lambda b: documents_batch(b["id"]),
            "golden_spans": lambda b: golden_spans_batch(b["id"]),
            "media": lambda b: media_batch(b["id"], model),
            "golden_boxes": lambda b: golden_boxes_batch(b["id"]),
            "golden_pages": lambda b: golden_pages_batch(b["id"], model),
        }
        for name, fn in jobs.items():
            base.map_batches(fn, batch_format="numpy").write_parquet(paths[name])

    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return paths


FIXTURE_ROOT = os.environ.get("TWR_FIXTURE_ROOT", "/tmp/twr_fixtures")

# docs in the synthetic interleaved corpus per scale factor
_CORPUS_DOCS = {"0.001": 200, "0.01": 500, "0.1": 5000}


def sf_of(sf_dir: str) -> str:
    m = re.search(r"sf([0-9.]+)/?$", sf_dir.rstrip("/"))
    return m.group(1) if m else "0.001"


def corpus_for(sf_dir: str, n_docs: int | None = None) -> dict[str, str]:
    sf = sf_of(sf_dir)
    if n_docs is None:
        n_docs = _CORPUS_DOCS.get(sf, max(200, int(float(sf) * 50_000)))
        return generate_corpus(os.path.join(FIXTURE_ROOT, f"sf{sf}"), n_docs)
    return generate_corpus(os.path.join(FIXTURE_ROOT, f"n{n_docs}"), n_docs)


# ---------------------------------------------------------------------------
# flat text corpus (dedup / text-analysis benchmarks)
# ---------------------------------------------------------------------------


def _copy_source(i: int) -> int:
    """Nearest non-copy ancestor of doc ``i``'s copy chain: walk back
    while the source doc is itself a planted copy (r < 0.10), so a copy
    of a copy duplicates the ancestor's ACTUAL text instead of a base
    text that doc never emitted (round-1 ADVICE: ~0.5% of planted dups
    duplicated nothing)."""
    j = i - 1
    while j > 0:
        r = float(np.random.default_rng([SEED, 9, j]).random())
        if r >= 0.10:
            break
        j -= 1
    return j


def text_corpus_batch(indices: np.ndarray) -> pa.Table:
    """Deterministic flat (doc_id, text) rows with planted duplicates:
    ~5% exact copies and ~5% near copies (one word edited) of the
    nearest non-copy ancestor, so dedup benchmarks exercise real
    removal work."""
    rows = []
    for i in indices:
        i = int(i)
        rng = np.random.default_rng([SEED, 9, i])
        r = float(rng.random())
        if r < 0.10 and i > 0:
            src = np.random.default_rng([SEED, 9, _copy_source(i)])
            src.random()
            toks = [HTML_WORDS[int(j)] for j in src.integers(0, len(HTML_WORDS), 40)]
            if r >= 0.05:
                toks[int(rng.integers(0, 40))] = HTML_WORDS[int(rng.integers(0, len(HTML_WORDS)))]
            text = " ".join(toks)  # exact copy (r<0.05) / near copy (1 edit)
        else:
            toks = [HTML_WORDS[int(j)] for j in rng.integers(0, len(HTML_WORDS), 40)]
            text = " ".join(toks)
        rows.append({"doc_id": i, "text": text})
    return pa.Table.from_pylist(
        rows, schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    )


def generate_text_corpus(out_dir: str, n_rows: int) -> str:
    """Ray-parallel generation of the flat dedup-benchmark corpus."""
    import ray.data as rd

    # "_"-prefixed so parquet dataset readers ignore it
    meta_path = os.path.join(out_dir, "_meta.json")
    meta = {"n_rows": n_rows, "seed": SEED, "kind": "text_corpus", "v": 2}
    if os.path.exists(meta_path):
        with open(meta_path) as f:
            if json.load(f) == meta:
                return out_dir
    os.makedirs(out_dir, exist_ok=True)
    rd.range(n_rows, override_num_blocks=max(8, n_rows // 20000)).map_batches(
        lambda b: text_corpus_batch(b["id"]), batch_format="numpy"
    ).write_parquet(out_dir)
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    return out_dir
