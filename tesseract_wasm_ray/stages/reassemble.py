"""Reassembly: flat span rows -> documents (doc_id, spans), order restored.

Span order is data, not block order (``offset`` is authoritative —
SURVEY.md §2.6): the stitch sorts each document's rows by offset, so the
pipeline never relies on inter-block ordering.

Scale design: instead of ``groupby(doc_id).map_groups`` (one Python call
per document), rows are hash-bucketed by doc_id into ``num_buckets``
partitions and each bucket is stitched with a single vectorized pass:
``sort_by(doc_id, offset)`` + run-length encoding of doc_id boundaries +
``ListArray.from_arrays`` — one Python call per *bucket*, C++ kernels per
row.  The groupby on the small int bucket key is the pipeline's one
mandatory all-to-all shuffle, and it moves only small text structs (media
pixels never reach it; recognition happens upstream per media row).

Bucket assignment is a pure function of doc_id (crc32), so it is stable
across processes/nodes and is reused as the resume/lineage partition key
(stages/manifest.py).  Hot doc_ids cannot skew a bucket meaningfully:
a document has at most ~dozens of spans, so bucket sizes concentrate
tightly around the mean; at 100 TB scale raise ``num_buckets`` so each
bucket's text fits a worker's heap.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.arrow_util import bucket_ids
from ..schema import DOCUMENTS_SCHEMA, SPAN_STRUCT


def bucket_of(doc_id: str, num_buckets: int) -> int:
    return zlib.crc32(doc_id.encode()) % num_buckets


def add_bucket_column(num_buckets: int):
    """Append ``bucket`` = ``bucket_ids(doc_id)`` (crc32 once per
    distinct doc_id in the batch; equal to ``bucket_of`` per row)."""

    def fn(batch: pa.Table) -> pa.Table:
        bk = bucket_ids(batch.column("doc_id"), num_buckets)
        return batch.append_column("bucket", pa.array(bk, pa.int32()))

    return fn


def stitch_bucket(group: pa.Table) -> pa.Table:
    """One bucket's span rows -> (doc_id, spans) with spans sorted by
    offset. Single vectorized pass, no per-doc Python."""
    t = group.sort_by([("doc_id", "ascending"), ("offset", "ascending")])
    doc = t.column("doc_id").combine_chunks()
    if isinstance(doc, pa.ChunkedArray):
        doc = doc.chunk(0) if doc.num_chunks else pa.array([], pa.string())
    n = len(doc)
    if n == 0:
        return pa.Table.from_pylist([], schema=DOCUMENTS_SCHEMA)
    struct = pa.StructArray.from_arrays(
        [
            _chunk(t.column("kind")),
            _chunk(t.column("text")),
            _chunk(t.column("media_ref")),
            _chunk(t.column("offset")),
        ],
        fields=list(SPAN_STRUCT),
    )
    # Run-length boundaries of the sorted doc_id column (C++ compare).
    neq = pc.not_equal(doc.slice(1), doc.slice(0, n - 1)).to_numpy(zero_copy_only=False)
    change = np.r_[True, neq]
    starts = np.flatnonzero(change)
    offsets = np.r_[starts, n].astype(np.int32)
    spans = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), struct)
    doc_ids = doc.take(pa.array(starts, pa.int64()))
    return pa.Table.from_arrays([doc_ids, spans], schema=DOCUMENTS_SCHEMA)


def _chunk(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks else pa.array([], col.type)
    return col


def reassemble(span_rows, num_buckets: int = 64):
    """span rows Dataset -> documents Dataset (the one wide shuffle)."""
    from ..pipelines.joins import bucket_map_groups

    bucketed = span_rows.map_batches(
        add_bucket_column(num_buckets), batch_format="pyarrow"
    )
    return bucket_map_groups(bucketed, "bucket", stitch_bucket)
