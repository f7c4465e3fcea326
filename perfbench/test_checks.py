"""Each correctness check must reject a wrong output.

Run: ``python3 -m pytest perfbench/test_checks.py -q`` from the repo root.
Every test first confirms that the check accepts the correct output,
then hands it one wrong output.
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), HERE]

import gen  # noqa: E402
from checks import check_documents, check_manifest, check_page  # noqa: E402


@pytest.fixture(scope="module")
def corpus():
    from tesseract_wasm_ray.state.glyph_model import GlyphModel

    _, _, truth = gen.build_corpus("extract_media", 3, 24, GlyphModel.build())
    return dict(zip(truth.column("doc_id").to_pylist(), truth.column("spans").to_pylist()))


def _as_output(truth: dict) -> list[dict]:
    return [{"doc_id": k, "spans": copy.deepcopy(v)} for k, v in truth.items()]


def _media_doc(out: list[dict]) -> dict:
    return next(
        d for d in out
        if len(d["spans"]) >= 2 and any(s["kind"] == "media_ref" for s in d["spans"])
    )


def test_documents_accepts_truth(corpus):
    assert check_documents(_as_output(corpus), corpus) == []


def test_documents_rejects_dropped_span(corpus):
    out = _as_output(corpus)
    _media_doc(out)["spans"].pop()
    assert check_documents(out, corpus)


def test_documents_rejects_swapped_spans(corpus):
    out = _as_output(corpus)
    spans = _media_doc(out)["spans"]
    spans[0], spans[1] = spans[1], spans[0]
    assert check_documents(out, corpus)


def test_documents_rejects_misread_word(corpus):
    out = _as_output(corpus)
    span = next(s for s in _media_doc(out)["spans"] if s["kind"] == "media_ref")
    span["text"] = "X" + span["text"][1:] if span["text"][0] != "X" else "Y" + span["text"][1:]
    assert check_documents(out, corpus)


def test_documents_rejects_dropped_document(corpus):
    out = _as_output(corpus)[1:]
    assert check_documents(out, corpus)


def _manifest(corpus):
    docs = list(corpus.items())
    halves = [docs[: len(docs) // 2], docs[len(docs) // 2 :]]
    manifest, counts = [], {}
    for b, part in enumerate(halves):
        name = f"part-{b:05d}.parquet"
        n_spans = sum(len(s) for _, s in part)
        counts[name] = (len(part), n_spans)
        manifest.append(
            {"partition_id": b, "output_file": name, "n_docs": len(part),
             "n_spans": n_spans, "n_quarantined": 0}
        )
    n_spans = sum(len(s) for s in corpus.values())
    return manifest, counts, len(corpus), n_spans


def test_manifest_accepts_truth(corpus):
    manifest, counts, n_docs, n_spans = _manifest(corpus)
    assert check_manifest(manifest, counts, n_docs, n_spans, []) == []


@pytest.mark.parametrize("field", ["n_docs", "n_spans"])
def test_manifest_rejects_count_off_by_one(corpus, field):
    manifest, counts, n_docs, n_spans = _manifest(corpus)
    manifest[0][field] += 1
    assert check_manifest(manifest, counts, n_docs, n_spans, [])


def test_manifest_rejects_repeated_bucket(corpus):
    manifest, counts, n_docs, n_spans = _manifest(corpus)
    manifest[1]["partition_id"] = manifest[0]["partition_id"]
    assert check_manifest(manifest, counts, n_docs, n_spans, [])


def test_manifest_rejects_quarantine(corpus):
    manifest, counts, n_docs, n_spans = _manifest(corpus)
    assert check_manifest(manifest, counts, n_docs, n_spans, ["part-00000.parquet"])


def _page_and_result(rotation: int):
    lines = [["LEDGER", "KERNEL"], ["QUOTA"]]
    page = {"media_ref": "p", "lines": lines, "rotation": rotation, "width": 120, "height": 120}
    boxes = []
    for li, ws in enumerate(lines):
        for wi, word in enumerate(ws):
            flags = (1 if wi == 0 else 0) | (2 if wi == len(ws) - 1 else 0)
            rect = {"left": 4 + 40 * wi, "top": 4 + 12 * li, "right": 34 + 40 * wi, "bottom": 11 + 12 * li}
            boxes.append({"rect": rect, "flags": flags, "text": word})
    result = {
        "rotation": rotation,
        "text": gen.page_truth_text(lines),
        "boxes": boxes,
        "hocr": "".join(f"<span class='ocrx_word'>{b['text']}</span>" for b in boxes),
    }
    return page, result


def test_page_accepts_truth():
    for rotation in (0, 90):
        page, result = _page_and_result(rotation)
        assert check_page(result, page) == []


def test_page_rejects_misread_word():
    page, result = _page_and_result(0)
    result["text"] = result["text"].replace("KERNEL", "KERNFL")
    assert check_page(result, page)


def test_page_rejects_wrong_rotation():
    page, result = _page_and_result(90)
    result["rotation"] = 270
    assert check_page(result, page)


def test_page_rejects_dropped_box():
    page, result = _page_and_result(0)
    result["boxes"].pop()
    assert check_page(result, page)


def test_page_rejects_box_outside_page():
    page, result = _page_and_result(0)
    result["boxes"][0]["rect"]["right"] = page["width"] + 1
    assert check_page(result, page)


def test_page_rejects_missing_line_flag():
    page, result = _page_and_result(0)
    result["boxes"][1]["flags"] = 0  # last word of line 1 loses EndOfLine
    assert check_page(result, page)
