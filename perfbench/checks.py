"""Correctness checks: program outputs against the generator's truth.

Each check returns a list of human-readable errors; an empty list means
the output is correct.  The checks read plain Python values, so the
benchmark's own test (``test_checks.py``) can hand them wrong outputs.
"""

from __future__ import annotations

from gen import page_truth_text

START_OF_LINE = 1
END_OF_LINE = 2
MAX_ERRORS = 5


def _span_key(s: dict) -> tuple:
    return (s["kind"], s["text"], s["media_ref"], s["offset"])


def check_documents(out_docs: list[dict], truth: dict[str, list[dict]]) -> list[str]:
    """Every input document comes out once, and its (kind, text,
    media_ref, offset) span sequence equals the truth, in order."""
    errors: list[str] = []
    seen: set[str] = set()
    n_spans_out = 0
    for d in out_docs:
        doc_id = d["doc_id"]
        n_spans_out += len(d["spans"])
        if doc_id in seen:
            errors.append(f"{doc_id}: emitted twice")
            continue
        seen.add(doc_id)
        want = truth.get(doc_id)
        if want is None:
            errors.append(f"{doc_id}: not an input document")
            continue
        got = [_span_key(s) for s in d["spans"]]
        exp = [_span_key(s) for s in want]
        if got != exp:
            diff = next(
                (i for i, (g, e) in enumerate(zip(got, exp)) if g != e), min(len(got), len(exp))
            )
            errors.append(
                f"{doc_id}: span {diff} differs: got "
                f"{got[diff] if diff < len(got) else None!r}, want "
                f"{exp[diff] if diff < len(exp) else None!r}"
            )
    missing = len(truth) - len(seen & truth.keys())
    if missing:
        errors.append(f"{missing} input documents missing from the output")
    n_spans_in = sum(len(v) for v in truth.values())
    if n_spans_out != n_spans_in:
        errors.append(f"spans out {n_spans_out} != spans in {n_spans_in}")
    return errors[:MAX_ERRORS]


def check_manifest(
    manifest: list[dict],
    bucket_counts: dict[str, tuple[int, int]],
    n_docs: int,
    n_spans: int,
    quarantine_files: list[str],
) -> list[str]:
    """The manifest's summed n_docs / n_spans equal the counts read back
    from the written bucket files and the generator's counts; each
    bucket appears once; nothing is quarantined.

    ``bucket_counts`` maps each written bucket file to its (docs, spans)."""
    errors: list[str] = []
    parts = [r["partition_id"] for r in manifest]
    files = [r["output_file"] for r in manifest]
    if len(set(parts)) != len(parts):
        errors.append(f"a bucket appears more than once: {sorted(parts)}")
    if sorted(files) != sorted(bucket_counts):
        errors.append(f"manifest files {sorted(files)} != written files {sorted(bucket_counts)}")
    m_docs = sum(r["n_docs"] for r in manifest)
    m_spans = sum(r["n_spans"] for r in manifest)
    f_docs = sum(c[0] for c in bucket_counts.values())
    f_spans = sum(c[1] for c in bucket_counts.values())
    if not m_docs == f_docs == n_docs:
        errors.append(f"n_docs: manifest {m_docs}, files {f_docs}, generated {n_docs}")
    if not m_spans == f_spans == n_spans:
        errors.append(f"n_spans: manifest {m_spans}, files {f_spans}, generated {n_spans}")
    n_quar = sum(r["n_quarantined"] for r in manifest)
    if n_quar or quarantine_files:
        errors.append(f"{n_quar} documents quarantined ({len(quarantine_files)} files)")
    return errors


def check_page(result: dict, page: dict) -> list[str]:
    """One single-page request.

    ``result``: rotation, text, boxes (list of {rect, flags, text}) and,
    when requested, hocr.  ``page``: lines (rendered words per line),
    rotation (applied), width, height (of the loaded image)."""
    errors: list[str] = []
    ref = page["media_ref"]
    if result["rotation"] != page["rotation"]:
        errors.append(f"{ref}: rotation {result['rotation']} != applied {page['rotation']}")
    w, h = page["width"], page["height"]
    for b in result["boxes"]:
        r = b["rect"]
        if not (0 <= r["left"] <= r["right"] <= w and 0 <= r["top"] <= r["bottom"] <= h):
            errors.append(f"{ref}: box {r} outside the {w}x{h} page")
            break
    if page["rotation"] != 0:
        return errors
    lines = page["lines"]
    want_text = page_truth_text(lines)
    if result["text"] != want_text:
        errors.append(f"{ref}: text {result['text']!r} != {want_text!r}")
    words = [wd for ws in lines for wd in ws]
    boxes = result["boxes"]
    if len(boxes) != len(words):
        errors.append(f"{ref}: {len(boxes)} word boxes != {len(words)} words")
        return errors
    if [b["text"] for b in boxes] != words:
        errors.append(f"{ref}: box words {[b['text'] for b in boxes]} != {words}")
    i = 0
    for ws in lines:
        first, last = boxes[i], boxes[i + len(ws) - 1]
        if not first["flags"] & START_OF_LINE or not last["flags"] & END_OF_LINE:
            errors.append(f"{ref}: line starting at word {i} lacks StartOfLine/EndOfLine")
        i += len(ws)
    if "hocr" in result and result["hocr"].count("class='ocrx_word'") != len(words):
        errors.append(f"{ref}: hOCR word count != {len(words)}")
    return errors
