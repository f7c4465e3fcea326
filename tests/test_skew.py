"""Skew handling (SURVEY.md §4.2): adversarially media-heavy documents
must not create straggler partitions.

Design under test: recognition happens per media PAGE in the OCR tasks
BEFORE any per-document grouping, so a 40-media doc spreads its pages
across all of them; the reassembly shuffle moves only small text
structs, and crc32 doc_id bucketing concentrates bucket sizes tightly."""

import numpy as np
import zlib

from tesseract_wasm_ray.fixtures import doc_spec
from tesseract_wasm_ray.stages.reassemble import bucket_of


def test_fixture_has_adversarial_heavy_tail():
    specs = [doc_spec(i) for i in range(2000)]
    media_counts = np.array([len(s["media_refs"]) for s in specs])
    assert media_counts.max() >= 20  # heavy docs exist
    assert (media_counts >= 20).mean() < 0.05  # but are a small tail


def test_bucket_sizes_concentrate_despite_heavy_docs():
    """Per-bucket SPAN counts (what the reassembly shuffle actually
    moves) stay within 2x of the mean even with the heavy tail."""
    num_buckets = 64
    spans_per_bucket = np.zeros(num_buckets)
    for i in range(2000):
        s = doc_spec(i)
        spans_per_bucket[bucket_of(s["doc_id"], num_buckets)] += len(s["spans"])
    mean = spans_per_bucket.mean()
    assert spans_per_bucket.max() < 2.0 * mean
    assert spans_per_bucket.min() > 0.3 * mean


def test_heavy_doc_pages_spread_across_ocr_batches():
    """A heavy doc's pages land in the media table independently of the
    doc — OCR batch assignment is by media row order, so no single actor
    serializes a heavy doc."""
    heavy = next(
        doc_spec(i) for i in range(2000) if len(doc_spec(i)["media_refs"]) >= 20
    )
    # pages of the heavy doc are distinct media rows; any batch split of
    # the media table partitions them — nothing groups them by doc
    refs = heavy["media_refs"]
    assert len(set(refs)) == len(refs)
