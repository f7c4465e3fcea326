"""The flagship extraction pipeline (SURVEY.md §3.5).

``config -> read documents -> explode spans -> strip text spans ⊕ OCR
tasks over the media table -> bucket join on media_ref -> reassemble
per doc_id -> validate / write + manifest``

Ray-Data-first shape:

- every stage is a ``map_batches`` over Arrow batches (zero-copy);
- the OCR stage is a bounded pool of map TASKS over one ``OcrActor``
  instance holding the loaded glyph model, sized to the session by
  ``ocr_pool`` and to the table by ``ocr_batch`` (one even wave of
  tasks).  Ray reuses its task worker processes across
  executions, so they stay warm between runs (the reference's
  warm worker-per-engine model, SURVEY.md §2.3) without an actor pool
  to start and kill on every run;
- recognition runs over the *media table* before any join, so pixel
  payloads never enter a shuffle — only (media_ref, text) pairs do;
- the docs are read and exploded once; the media_ref join is a bucketed
  task-shuffle groupby over the union of span rows and OCR rows
  (``_span_rows``) — scale-correct for 10^12-row corpora and robust on
  any CPU budget;
- reassembly is the single wide shuffle, on a crc32 doc_id bucket key
  (stages/reassemble.py), which doubles as the resume partition
  (stages/manifest.py);
- every bucket id comes from one function (``arrow_util.bucket_ids``),
  and a resume prunes completed buckets before any work: span rows at
  the explode, media pages by a semi-join on the still-needed refs
  (``joins.member_filter``), so the OCR stage never sees them.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .. import MODEL_VERSION
from ..functions.arrow_util import bucket_ids, single_chunk
from ..sources import read_documents, read_media
from ..stages.explode import explode_spans
from ..stages.manifest import (
    append_manifest,
    completed_buckets,
    config_fingerprint,
    write_bucket_atomic,
    write_quarantine_atomic,
)
from ..stages.ocr_actor import OcrActor
from ..stages.reassemble import add_bucket_column, bucket_of, stitch_bucket
from ..state.glyph_model import GlyphModel
from .joins import bucket_map_groups, member_filter

# Buckets of the media_ref join (``__jb``): media rows meet their OCR
# rows by crc32(media_ref), text rows spread by crc32(doc_id).
JOIN_BUCKETS = 128


@dataclass
class ExtractConfig:
    # None: derived from the session by ocr_pool
    ocr_concurrency: int | None = None
    # Cap on rows per OCR task; below it the batch splits the media
    # table evenly over the pool (ocr_batch)
    ocr_batch_size: int = 512
    num_buckets: int = 64
    # Blocks entering a sort shuffle are coalesced to this many first:
    # hundreds of tiny blocks cost ~10ms of scheduling each in the sort
    # (sample+map+merge per block), dominating small-row shuffles.  The
    # sort makes one reducer per input block, so this is the fan-out of
    # both of the flagship's shuffles.  Size to ~0.5-1x the CPU count;
    # raise with corpus size so blocks stay under the worker heap (rows
    # here are small text structs).
    coalesce_partitions: int = 16
    # Dead-letter policy for the OCR stage: "quarantine" (default — a
    # malformed payload poisons one row, lands in the bucket's
    # quarantine file, and the 100-TB run keeps going) or "raise" (the
    # strict CI mode: stop on the first corrupt page).
    on_error: str = "quarantine"
    model_blob: bytes = field(default_factory=lambda: GlyphModel.build().to_bytes(), repr=False)

    def fingerprint_dict(self) -> dict:
        return {
            "model_version": MODEL_VERSION,
            "num_buckets": self.num_buckets,
        }


def ocr_pool(concurrency: int | None = None, cpus: float | None = None) -> tuple[int, float]:
    """The one sizing rule for every OCR-family stage ->
    ``(concurrency, num_cpus per task)``.

    ``cpus`` defaults to the session's logical CPU total.  At most
    ``concurrency`` OCR tasks run at once and together they claim at
    most ``cpus - 1``, so the read / explode tasks that feed them
    always keep one whole CPU.  A task claims up to the whole CPU it
    keeps busy (0 in a 1-CPU session): a smaller claim lets the
    scheduler start more feeding tasks than there are cores left, and
    an OCR task fed early then crowds them out.  The concurrency cap
    keeps the OCR operator from fusing with the read before it or the
    map after it (a task fuses only with an equal cap)."""
    if cpus is None:
        cpus = ray.cluster_resources().get("CPU", 1) if ray.is_initialized() else os.cpu_count()
    cpus = max(1, int(cpus or 1))
    conc = concurrency or max(1, min(24, cpus * 3 // 4))
    # Ray meters fractional CPUs in 1e-4 units: round down, never up
    return conc, min(1.0, math.floor((cpus - 1) * 10_000 / conc) / 10_000)


def ocr_batch(pages: int, concurrency: int, cap: int) -> int:
    """Rows per OCR task: the table split evenly over ``concurrency``
    tasks, so the stage runs as one wave (no task waits for a freed
    slot, and no slot idles while a short last task finishes), capped
    at ``cap`` rows for the worker heap on large tables."""
    return max(1, min(cap, math.ceil(pages / concurrency)))


def ocr_map(media: rd.Dataset, fn, pages: int, cfg: ExtractConfig) -> rd.Dataset:
    """Run an OCR-family callable (``OcrActor``, ``LayoutActor``,
    ``HocrActor``) over the media table as bounded map tasks, sized by
    ``ocr_pool`` and ``ocr_batch`` from ``cfg.ocr_concurrency`` and
    ``cfg.ocr_batch_size``.  ``pages`` is the row count of the
    unfiltered media read (``Dataset.count()`` of a bare read comes from
    the file metadata without running anything).

    A callable INSTANCE makes task compute: no actor starts or dies per
    execution, and Ray's pooled task workers stay warm across runs.  The
    model is 333 bytes and the loaded instance pickles to about 3 KB, so
    shipping it with each task is cheap."""
    concurrency, num_cpus = ocr_pool(cfg.ocr_concurrency)
    return media.map_batches(
        fn,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=ocr_batch(pages, concurrency, cfg.ocr_batch_size),
        concurrency=concurrency,
        num_cpus=num_cpus,
    )


def ocr_media(media_path: str, cfg: ExtractConfig, emit_boxes: bool = False) -> rd.Dataset:
    """media table -> per-page OCR results (the ``MapBatches(OcrActor)``
    task stage)."""
    media = read_media(media_path)
    return _ocr(media, cfg, emit_boxes, media.count())


def _ocr(media: rd.Dataset, cfg: ExtractConfig, emit_boxes: bool, pages: int) -> rd.Dataset:
    actor = OcrActor(model_blob=cfg.model_blob, emit_boxes=emit_boxes, on_error=cfg.on_error)
    return ocr_map(media, actor, pages, cfg)


def _span_rows(
    docs_path: str,
    media_path: str,
    cfg: ExtractConfig,
    skip_buckets: frozenset[int] = frozenset(),
) -> rd.Dataset:
    """Single-pass span stream (docs are read + exploded exactly ONCE).

    ``explode -> strip(text spans inline)`` produces one stream of span
    rows; OCR results are padded to the same schema (kind="__ocr") and
    unioned in; ONE bucket-groupby both resolves media text (media /
    __ocr rows are co-bucketed by crc32(media_ref)) and passes text rows
    through (spread by crc32(doc_id) so no bucket hotspots).  Branching
    the explode into two consumers would duplicate the whole
    read+explode subplan in Ray's plan (measured: 2x the docs scan).

    Resume (``skip_buckets``): span rows of completed buckets drop at
    the explode (``prune_done``), and the media table is semi-joined
    against the still-needed media_refs (``joins.member_filter``) so
    completed buckets' pages never reach the OCR stage.  The needed-ref
    probe is a lazy plan over the docs table: a near-complete resume
    broadcasts its few refs, an early-crash resume past the byte cap
    prunes through the bloom-routed bucketed filter — no driver set, no
    re-OCR of completed buckets.
    """
    def prune_done(rows: pa.Table) -> pa.Table:
        """Drop span rows of docs whose reassembly bucket is already in
        the manifest — BEFORE stripping/shuffling (resume skips the
        expensive work, not just the final write)."""
        if not skip_buckets:
            return rows
        done = np.isin(bucket_ids(rows.column("doc_id"), cfg.num_buckets), list(skip_buckets))
        return rows.filter(pa.array(~done))

    def explode_and_strip(batch: pa.Table) -> pa.Table:
        rows = prune_done(explode_spans(batch))
        kind = rows.column("kind")
        is_text = pc.equal(kind, "text").to_numpy(zero_copy_only=False)
        from ..functions.boilerplate import strip_boilerplate

        # Slice to TEXT rows before the (inherently Python) stripper:
        # media placeholder rows never cross the Arrow->Python boundary,
        # and the scatter-back is one replace_with_mask kernel.
        text_col = pc.fill_null(rows.column("text").combine_chunks(), "")
        idx = np.flatnonzero(is_text)
        if len(idx):
            sliced = text_col.take(pa.array(idx, pa.int64())).to_pylist()
            repl = pa.array([strip_boilerplate(t) for t in sliced], pa.string())
            text_col = pc.replace_with_mask(text_col, pa.array(is_text), repl)
        i = rows.schema.get_field_index("text")
        rows = rows.set_column(i, "text", text_col)
        # Bucket: media rows by media_ref (co-locate with __ocr rows),
        # text rows by doc_id (even spread; they only pass through).
        # crc32 runs once per DISTINCT key (dictionary-encoded): doc_ids
        # repeat once per span, so this is ~8x fewer Python hash calls.
        keys = pc.if_else(
            pa.array(is_text), rows.column("doc_id"), rows.column("media_ref")
        )
        bk = bucket_ids(keys, JOIN_BUCKETS)
        # dead-letter column: spans start clean; OCR failures arrive via
        # the co-bucketed __ocr rows (pad_ocr) and gather in fill_text
        rows = rows.append_column("error", pa.nulls(rows.num_rows, pa.string()))
        return rows.append_column("__jb", pa.array(bk, pa.int32()))

    def pad_ocr(batch: pa.Table) -> pa.Table:
        bk = bucket_ids(batch.column("media_ref"), JOIN_BUCKETS)
        return pa.table(
            {
                "doc_id": pa.array([""] * batch.num_rows, pa.string()),
                "offset": pa.array(np.full(batch.num_rows, -1, np.int32), pa.int32()),
                "kind": pa.array(["__ocr"] * batch.num_rows, pa.string()),
                "text": batch.column("text").combine_chunks(),
                "media_ref": batch.column("media_ref").combine_chunks(),
                "error": batch.column("error").combine_chunks(),
                "__jb": pa.array(bk, pa.int32()),
            }
        )

    def fill_text(t: pa.Table) -> pa.Table:
        """Resolve media-span text from co-bucketed __ocr rows with a
        pure-Arrow gather: per-row source indices computed in numpy from
        dictionary codes, then ONE ``take`` on the text column — no
        ``to_pylist`` / Python-string materialization on the hot path
        (media spans start with text "", so an unmatched media row
        gathering its own text yields "" — the join's null fill)."""
        kind = t.column("kind")
        is_ocr = pc.equal(kind, "__ocr").combine_chunks()
        mask_ocr = is_ocr.to_numpy(zero_copy_only=False)
        mask_media = pc.equal(kind, "media_ref").to_numpy(zero_copy_only=False)
        if not mask_media.any():
            return t.filter(pc.invert(is_ocr))
        refs = pc.dictionary_encode(t.column("media_ref").combine_chunks())
        if isinstance(refs, pa.ChunkedArray):
            refs = refs.chunk(0) if refs.num_chunks else refs.combine_chunks()
        codes = refs.indices.to_numpy(zero_copy_only=False)
        idx_ocr = np.flatnonzero(mask_ocr)
        lut = np.full(len(refs.dictionary), -1, np.int64)
        lut[codes[idx_ocr]] = idx_ocr
        keep_idx = np.flatnonzero(~mask_ocr)
        src = lut[codes[keep_idx]]
        gather = np.where(mask_media[keep_idx] & (src >= 0), src, keep_idx)
        gather_arr = pa.array(gather, pa.int64())
        text_col = t.column("text").combine_chunks()
        filled = text_col.take(gather_arr)
        # the same gather routes the dead-letter column: a media span
        # whose __ocr row errored inherits that error string
        err_filled = t.column("error").combine_chunks().take(gather_arr)
        out = t.filter(pc.invert(is_ocr))
        i = out.schema.get_field_index("text")
        out = out.set_column(i, "text", filled)
        ie = out.schema.get_field_index("error")
        return out.set_column(ie, "error", err_filled)

    docs = read_documents(docs_path)
    span_stream = docs.map_batches(
        explode_and_strip, batch_format="pyarrow", zero_copy_batch=True
    )

    media = read_media(media_path)
    pages = media.count()  # of the unfiltered read: file metadata only
    if skip_buckets:
        def needed_refs(b: pa.Table) -> pa.Table:
            rows = prune_done(explode_spans(b))
            return rows.filter(pc.equal(rows.column("kind"), "media_ref")).select(
                ["media_ref"]
            )

        needed = docs.map_batches(needed_refs, batch_format="pyarrow")
        media = member_filter(media, needed, "media_ref", keep=True)
    ocr_rows = _ocr(media, cfg, False, pages).map_batches(
        lambda b: pad_ocr(b.select(["media_ref", "text", "error"])),
        batch_format="pyarrow",
    )
    return bucket_map_groups(
        span_stream.union(ocr_rows), "__jb", fill_text, coalesce=cfg.coalesce_partitions
    )


def split_quarantine(t: pa.Table) -> tuple[pa.Table, pa.Table]:
    """Span rows -> (clean rows WITHOUT the error column, quarantined
    rows WITH it).  A document quarantines WHOLE when any of its spans
    errored: emitting the doc with a silently-empty media span would
    pass through looking healthy and break span-sequence equality
    downstream, which is exactly the failure mode the dead-letter path
    exists to make loud."""
    from ..schema import QUARANTINE_SCHEMA

    empty_q = pa.Table.from_pylist([], schema=QUARANTINE_SCHEMA)
    err = t.column("error")
    if err.null_count == len(err):
        return t.drop_columns(["error"]), empty_q
    bad_docs = pc.unique(
        t.filter(pc.is_valid(err)).column("doc_id").combine_chunks()
    )
    doc_bad = pc.is_in(t.column("doc_id"), value_set=bad_docs)
    quarantined = t.filter(doc_bad).select(
        ["doc_id", "offset", "kind", "text", "media_ref", "error"]
    ).cast(QUARANTINE_SCHEMA)
    clean = t.filter(pc.invert(doc_bad)).drop_columns(["error"])
    return clean, quarantined


def run_extract(
    docs_path: str,
    media_path: str,
    cfg: ExtractConfig | None = None,
    out_dir: str | None = None,
    resume: bool = True,
) -> rd.Dataset | list[dict]:
    """Run the flagship extraction.

    Without ``out_dir``: returns the reassembled documents Dataset
    (lazy; caller consumes it).

    With ``out_dir``: writes one parquet per bucket (atomic) + manifest
    rows with lineage and metrics; returns the new manifest rows.  With
    ``resume=True``, buckets already recorded in the manifest under the
    same config fingerprint are skipped *before* the shuffle.
    """
    cfg = cfg or ExtractConfig()
    done: set[int] = set()
    if out_dir is not None and resume:
        done = completed_buckets(out_dir, config_fingerprint(cfg.fingerprint_dict()))
    # _span_rows output is already coalesced (one block per reducer of
    # the join sort) — no repartition barrier needed before the reassembly.
    rows = _span_rows(docs_path, media_path, cfg, skip_buckets=frozenset(done))
    bucketed = rows.map_batches(add_bucket_column(cfg.num_buckets), batch_format="pyarrow")

    if out_dir is None:
        # lazy-return path: poisoned docs are dropped (the out_dir path
        # is where quarantine rows + manifest accounting live)
        return bucket_map_groups(
            bucketed, "bucket", lambda g: stitch_bucket(split_quarantine(g)[0])
        )

    os.makedirs(out_dir, exist_ok=True)
    fp = config_fingerprint(cfg.fingerprint_dict())
    input_files = sorted(
        [docs_path, media_path]
    )  # at Lance scale: fragment ids / file lists per bucket

    def stitch_and_write(group: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        bucket = bucket_of(group.column("doc_id")[0].as_py(), cfg.num_buckets)
        clean, quarantined = split_quarantine(group)
        qname = ""
        n_quar = 0
        if quarantined.num_rows:
            qname = write_quarantine_atomic(out_dir, bucket, quarantined)
            n_quar = len(pc.unique(quarantined.column("doc_id").combine_chunks()))
        table = stitch_bucket(clean)
        name = write_bucket_atomic(out_dir, bucket, table)
        # Manifest metrics via Arrow kernels: flatten the span structs
        # once, count non-whitespace runs per media span (identical to
        # ``len(text.split())``) — no nested Python loops on the write
        # path.
        flat = pc.list_flatten(table.column("spans").combine_chunks())
        n_spans = len(flat)
        media_texts = pc.struct_field(flat, "text").filter(
            pc.equal(pc.struct_field(flat, "kind"), "media_ref")
        )
        n_words = int(
            pc.sum(pc.count_substring_regex(media_texts, r"\S+")).as_py() or 0
        )
        row = {
            "partition_id": bucket,
            "config_fingerprint": fp,
            "model_version": MODEL_VERSION,
            "input_files": input_files,
            "n_docs": table.num_rows,
            "n_spans": int(n_spans),
            "n_words": int(n_words),
            "n_quarantined": n_quar,
            "quarantine_file": qname,
            "wall_ms": (time.monotonic() - t0) * 1000.0,
            "output_file": name,
        }
        from ..schema import MANIFEST_SCHEMA

        return pa.Table.from_pylist([row], schema=MANIFEST_SCHEMA)

    manifest_rows = bucket_map_groups(
        bucketed, "bucket", stitch_and_write
    ).take_all()  # manifest rows are tiny (one per bucket) — safe to materialize
    append_manifest(out_dir, manifest_rows)
    return manifest_rows


def _span_seq_hashes(side: str):
    """(doc_id, spans) -> (doc_id, side, seq_hash) where seq_hash is a
    canonical digest of the (kind, text, media_ref, order) sequence.

    Vectorized (VERDICT r03 item 8): the canonical per-doc string is
    built entirely with Arrow kernels — flatten the span lists, lexsort
    flat rows by (doc, offset) in numpy, render each span as
    ``kind\\x1ftext\\x1fmedia_ref\\x1e`` via binary_join_element_wise,
    and binary_join each doc's sorted records — so Python touches one
    string per DOCUMENT (the sha1 call), not four fields per span."""
    def fn(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        spans = single_chunk(batch.column("spans").combine_chunks())
        flat = pc.list_flatten(spans)
        counts = pc.list_value_length(spans).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        parents = np.repeat(np.arange(n), counts)
        offs = pc.struct_field(flat, "offset").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        order = np.lexsort((offs, parents))
        # "None" fill mirrors the previous f-string rendering of nulls
        rec = pc.binary_join_element_wise(
            pc.fill_null(pc.struct_field(flat, "kind"), "None"),
            pc.fill_null(pc.struct_field(flat, "text"), "None"),
            pc.fill_null(pc.struct_field(flat, "media_ref"), "None"),
            "\x1f",
        )
        rec = pc.binary_join_element_wise(rec, "", "\x1e")  # trailing sep
        rec_sorted = pc.take(rec, pa.array(order, pa.int64()))
        offsets = pa.array(np.r_[0, np.cumsum(counts)], pa.int32())
        per_doc = pc.binary_join(
            pa.ListArray.from_arrays(offsets, rec_sorted), ""
        )
        hashes = [
            hashlib.sha1(s.encode()).hexdigest() for s in per_doc.to_pylist()
        ]
        return pa.table(
            {
                "doc_id": pa.array(batch.column("doc_id").to_pylist(), pa.string()),
                "side": pa.array([side] * n, pa.string()),
                "seq_hash": pa.array(hashes, pa.string()),
            }
        )

    return fn


def validate_against_golden(result: rd.Dataset, golden_path: str) -> dict:
    """Span-sequence equality gate: (kind, text, media_ref, order) per doc
    (BASELINE.json north_rule).  Returns counts; mismatches==0 is the gate.

    Implemented as a union + bucket-groupby compare over tiny
    (doc_id, seq_hash) rows — a task-based shuffle with no persistent
    aggregator actors, so it composes with actor-pool stages on any CPU
    budget and only digests (never span payloads) move in the shuffle.
    """
    golden = rd.read_parquet(golden_path)
    tagged = result.map_batches(_span_seq_hashes("r"), batch_format="pyarrow").union(
        golden.map_batches(_span_seq_hashes("g"), batch_format="pyarrow")
    )

    def compare(group: pa.Table) -> pa.Table:
        import pandas as pd

        df = group.to_pandas()
        piv = df.pivot_table(
            index="doc_id", columns="side", values="seq_hash", aggfunc="first"
        )
        r = piv["r"] if "r" in piv else pd.Series(index=piv.index, dtype=object)
        g = piv["g"] if "g" in piv else pd.Series(index=piv.index, dtype=object)
        missing = int(r.isna().sum() + g.isna().sum())
        both = r.notna() & g.notna()
        ok = int((r[both] == g[both]).sum())
        mismatch = int(both.sum()) - ok
        return pa.Table.from_pylist(
            [{"ok": ok, "mismatch": mismatch, "missing": missing}]
        )

    bucketed = tagged.map_batches(add_bucket_column(16), batch_format="pyarrow")
    counts = bucket_map_groups(bucketed, "bucket", compare, coalesce=16).to_pandas().sum()
    return {
        "docs_ok": int(counts["ok"]),
        "docs_mismatched": int(counts["mismatch"]),
        "docs_missing": int(counts["missing"]),
    }
