"""Seeded input generator for the extraction benchmark.

Every input is a pure function of ``(workload, seed)``.  The generator
chooses the page words, rotations and the HTML main texts itself, so
the truth it returns is the choice that was made, never something the
program computed.  Pages are rasterized with the program's own
``functions/raster.render_page`` and ``GlyphModel`` (the glyph font is
the "trained data" the recognizer reads back).

Outputs, written under ``<cache>/<workload>-<seed>/``:

- ``documents.parquet``  (doc_id, spans), the program's input schema
- ``media.parquet``      (media_ref, width, height, channels, pixels, rotation)
- ``truth.parquet``      (doc_id, spans): the expected extraction output
- ``pages.parquet``      page_requests only: media columns + ``lines`` (truth)

page_requests also gets a small extract_media-like corpus, which its
traced run uses to time the pipeline layers.

Usage: ``python3 perfbench/gen.py <workload> <seed> <out_dir>``.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

WORKLOADS = ("extract_media", "extract_text", "page_requests")

# Page vocabulary.  Every word holds at least two glyphs that are not
# symmetric under a half turn, so a page's rotation is decidable.
PAGE_WORDS = [
    "LEDGER", "KERNEL", "RASTER", "BUCKET", "STITCH", "QUOTA", "FJORD",
    "PYLON", "GAMUT", "VELUM", "BRACKET", "JUNCTURE", "PAYLOAD", "CORPUS",
    "REPLAY", "FRAGMENT", "LATENCY", "CURSOR", "YIELD", "BEACON", "PACKET",
    "VERTEX", "MAPLE", "QUARTZ", "KAYAK", "GLYPHS", "PROBE", "DELTA7",
    "R2D2", "K9", "B52", "F16", "P38", "Q4", "LAB42", "TRACE3", "EPOCH9",
    "JOULE", "PLUME", "CEDAR", "BRAVE", "CLEFT", "DUPLEX", "GAUGE",
]

# HTML vocabulary (lowercase words for main text; nav / farm words for
# boilerplate the stripper must drop).
TEXT_WORDS = [
    "river", "stone", "market", "garden", "signal", "orbit", "harbor",
    "canvas", "meadow", "ledger", "copper", "lantern", "violet", "summit",
    "anchor", "thread", "glacier", "pepper", "willow", "falcon", "marble",
    "timber", "velvet", "cobalt", "ember", "quiver", "saddle", "tundra",
]
NAV_WORDS = ["home", "about", "contact", "archive", "login", "signup", "help", "news"]


# --------------------------------------------------------------------------
# pages
# --------------------------------------------------------------------------


def balanced(rng: np.random.Generator, n: int, values, shares) -> np.ndarray:
    """``n`` draws holding each value in exactly its share (rounded), in
    seeded random order.  Corpus make-up then varies little between
    seeds, while which page or document gets what still does."""
    want = np.asarray(shares, float) * n
    counts = np.floor(want).astype(int)
    counts[np.argsort(counts - want, kind="stable")[: n - counts.sum()]] += 1
    out = np.repeat(np.asarray(values), counts)
    rng.shuffle(out)
    return out


def page_specs(rng: np.random.Generator, n: int, rot_shares) -> list[dict]:
    """``n`` pages: 1-4 lines of 1-5 words, scales 1-3, gray or RGBA,
    all four rotations, 80% with noise."""
    cols = zip(
        balanced(rng, n, [1, 2, 3, 4], [0.25] * 4),
        balanced(rng, n, [1, 2, 3], [0.6, 0.3, 0.1]),
        balanced(rng, n, [1, 4], [0.7, 0.3]),
        balanced(rng, n, [0, 90, 180, 270], rot_shares),
        balanced(rng, n, [True, False], [0.8, 0.2]),
    )
    return [
        {
            "lines": [
                [PAGE_WORDS[int(j)] for j in rng.integers(0, len(PAGE_WORDS), int(rng.integers(1, 6)))]
                for _ in range(int(n_lines))
            ],
            "scale": int(scale),
            "channels": int(channels),
            "rotation": int(rotation),
            "noise_seed": int(rng.integers(0, 2**31)) if noisy else None,
        }
        for n_lines, scale, channels, rotation, noisy in cols
    ]


def page_truth_text(lines: list[list[str]]) -> str:
    """Words of a line joined by one space, each line ended by a newline."""
    return "".join(" ".join(ws) + "\n" for ws in lines)


def render(spec: dict, model) -> np.ndarray:
    from tesseract_wasm_ray.functions.raster import render_page

    noise = None if spec["noise_seed"] is None else np.random.default_rng(spec["noise_seed"])
    return render_page(
        spec["lines"], model, scale=spec["scale"], channels=spec["channels"],
        noise_rng=noise, rotation=spec["rotation"],
    )


def media_row(ref: str, spec: dict, model) -> dict:
    img = render(spec, model)
    return {
        "media_ref": ref,
        "width": img.shape[1],
        "height": img.shape[0],
        "channels": spec["channels"],
        "pixels": img.tobytes(),
        "rotation": spec["rotation"],
    }


# --------------------------------------------------------------------------
# HTML text spans
# --------------------------------------------------------------------------


def _sentence(rng: np.random.Generator) -> str:
    words = [TEXT_WORDS[int(j)] for j in rng.integers(0, len(TEXT_WORDS), int(rng.integers(4, 10)))]
    if rng.random() < 0.2:  # an entity the stripper decodes
        words.insert(int(rng.integers(1, len(words))), "&amp;")
    s = " ".join(words)
    return s[0].upper() + s[1:] + "."


def html_span(rng: np.random.Generator) -> tuple[str, str]:
    """-> (markup, main text).  Main text is the sentences, one per line
    (``<p>`` blocks) or space-joined when the span is plain text."""
    sentences = [_sentence(rng) for _ in range(int(rng.integers(1, 5)))]
    main = [s.replace("&amp;", "&") for s in sentences]
    if rng.random() < 0.1:
        return "  ".join(sentences), " ".join(main)
    parts = []
    if rng.random() < 0.3:
        parts.append("<header><h1>site title</h1></header>")
    if rng.random() < 0.7:
        links = "".join(
            f"<a href='/{w}'>{w}</a> "
            for w in rng.choice(NAV_WORDS, size=int(rng.integers(3, 8)))
        )
        parts.append(f"<nav>{links}</nav>")
    if rng.random() < 0.3:
        parts.append("<div class='sidebar'><a href='/x'>x</a> promo links and more here</div>")
    if rng.random() < 0.2:
        parts.append("<script>var x = 1 < 2;</script>")
    body = "".join(f"<p>{s}</p>" for s in sentences)
    parts.append(f"<div class='content'>{body}</div>" if rng.random() < 0.5 else body)
    if rng.random() < 0.6:
        farm = " ".join(
            f"<a href='/p{i}'>related{i}</a>" for i in range(int(rng.integers(4, 12)))
        )
        parts.append(f"<div>{farm}</div>")
    if rng.random() < 0.6:
        parts.append(f"<footer>copyright {int(rng.integers(1990, 2030))} example corp</footer>")
    return "".join(parts), "\n".join(main)


# --------------------------------------------------------------------------
# corpora
# --------------------------------------------------------------------------


# extract_media: one document in TAIL_EVERY is media-heavy.
TAIL_EVERY = 12


def _doc_kinds(workload: str, n_docs: int, rng: np.random.Generator) -> list[list[str]]:
    """Span kinds of every document, in exact shares."""
    if workload != "extract_media":
        sizes = balanced(rng, n_docs, range(4, 17), [1 / 13] * 13)
        kinds = list(balanced(rng, int(sizes.sum()), ["media_ref", "text"], [0.03, 0.97]))
        return [[kinds.pop() for _ in range(n)] for n in sizes]
    n_tail = n_docs // TAIL_EVERY
    sizes = balanced(rng, n_docs - n_tail, range(1, 11), [0.1] * 10)
    kinds = list(balanced(rng, int(sizes.sum()), ["media_ref", "text"], [0.5, 0.5]))
    docs = [[kinds.pop() for _ in range(n)] for n in sizes]
    for n_media, n_text in zip(
        balanced(rng, n_tail, range(15, 31), [1 / 16] * 16),
        balanced(rng, n_tail, range(1, 5), [0.25] * 4),
    ):
        tail = ["media_ref"] * int(n_media) + ["text"] * int(n_text)
        rng.shuffle(tail)
        docs.insert(int(rng.integers(0, len(docs) + 1)), tail)
    return docs


def build_corpus(workload: str, seed: int, n_docs: int, model) -> tuple[pa.Table, pa.Table, pa.Table]:
    """-> (documents, media, truth) tables, in the program's input schemas."""
    from tesseract_wasm_ray.schema import DOCUMENTS_SCHEMA, MEDIA_SCHEMA

    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    layout = _doc_kinds(workload, n_docs, rng)
    pages = iter(page_specs(rng, sum(k.count("media_ref") for k in layout), (0.55, 0.15, 0.15, 0.15)))
    docs, truth, media = [], [], []
    for i, kinds in enumerate(layout):
        doc_id = f"d{seed}-{i:06d}"
        spans, want = [], []
        for k, kind in enumerate(kinds):
            if kind == "text":
                html, main = html_span(rng)
                spans.append({"kind": "text", "text": html, "media_ref": "", "offset": k})
                want.append({"kind": "text", "text": main, "media_ref": "", "offset": k})
            else:
                ref = f"m{seed}-{i:06d}-{k:02d}"
                spec = next(pages)
                media.append(media_row(ref, spec, model))
                spans.append({"kind": "media_ref", "text": "", "media_ref": ref, "offset": k})
                want.append(
                    {"kind": "media_ref", "text": page_truth_text(spec["lines"]),
                     "media_ref": ref, "offset": k}
                )
        docs.append({"doc_id": doc_id, "spans": spans})
        truth.append({"doc_id": doc_id, "spans": want})
    return (
        pa.Table.from_pylist(docs, schema=DOCUMENTS_SCHEMA),
        pa.Table.from_pylist(media, schema=MEDIA_SCHEMA),
        pa.Table.from_pylist(truth, schema=DOCUMENTS_SCHEMA),
    )


def build_pages(seed: int, n_pages: int, model) -> pa.Table:
    """-> the media table of ``n_pages`` pages plus their ``lines`` (truth)."""
    from tesseract_wasm_ray.schema import MEDIA_SCHEMA

    rng = np.random.default_rng([seed, WORKLOADS.index("page_requests")])
    rows = []
    for i, spec in enumerate(page_specs(rng, n_pages, (0.7, 0.1, 0.1, 0.1))):
        row = media_row(f"p{seed}-{i:05d}", spec, model)
        row["lines"] = spec["lines"]
        rows.append(row)
    schema = MEDIA_SCHEMA.append(pa.field("lines", pa.list_(pa.list_(pa.string()))))
    return pa.Table.from_pylist(rows, schema=schema)


def load_pages(table: pa.Table) -> list[dict]:
    """Rows of a pages or media table -> dicts with a decoded ``img``."""
    pages = []
    for r in table.to_pylist():
        shape = (r["height"], r["width"]) if r["channels"] == 1 else (r["height"], r["width"], 4)
        r["img"] = np.frombuffer(r.pop("pixels"), np.uint8).reshape(shape)
        pages.append(r)
    return pages


SIZES = {"extract_media": 250, "extract_text": 1000, "page_requests": 400}


def generate(workload: str, seed: int, out_dir: str) -> None:
    """Write the inputs of ``workload`` at ``seed`` to ``out_dir``
    (atomically: a half-written directory is never left under the name)."""
    from tesseract_wasm_ray.state.glyph_model import GlyphModel

    model = GlyphModel.build()
    tmp = f"{out_dir}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    if workload == "page_requests":
        pq.write_table(build_pages(seed, SIZES[workload], model), os.path.join(tmp, "pages.parquet"))
    # every workload has a corpus: page_requests' traced run measures the
    # pipeline layers on a small one
    n_docs = SIZES[workload] if workload != "page_requests" else 200
    corpus_kind = "extract_media" if workload == "page_requests" else workload
    docs, media, truth = build_corpus(corpus_kind, seed, n_docs, model)
    pq.write_table(docs, os.path.join(tmp, "documents.parquet"))
    pq.write_table(media, os.path.join(tmp, "media.parquet"))
    pq.write_table(truth, os.path.join(tmp, "truth.parquet"))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(tmp, out_dir)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
