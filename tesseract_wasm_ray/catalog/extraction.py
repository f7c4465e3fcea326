"""OCR and interleaved-document extraction over the deterministic
synthetic corpus (``fixtures.corpus_for``).  The oracles read the
fixture golden tables, which are closed-form truth: ``fixtures.py``
computes rects, text and orientation from the raster grid, not by
running the recognizer.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Sum

from ..fixtures import FIXTURE_ROOT, corpus_for, sf_of
from ..functions.arrow_util import single_chunk as _single_chunk_q
from ..functions.fastmd5 import md5_hex
from ..pipelines.extract import (
    ExtractConfig,
    ocr_map,
    ocr_media,
    run_extract,
    validate_against_golden,
)
from ..sources import read_media
from . import register
from .common import _G01, _rename


def _extract_cfg() -> ExtractConfig:
    from ..tuning import apply_data_context_tuning

    apply_data_context_tuning()
    return ExtractConfig(num_buckets=16)


def q_extract_flagship(sf_dir: str):
    """Full interleaved extraction; emits per-doc canonical span-sequence
    hashes (deterministic -> stable value-hash across rounds)."""
    paths = corpus_for(sf_dir)
    result = run_extract(paths["documents"], paths["media"], _extract_cfg())

    def seq_hash(b: pa.Table) -> pa.Table:
        # md5 (not sha1): DuckDB has md5(), so the oracle can recompute
        # the hash from golden_spans entirely in SQL.  Fully vectorized:
        # flatten span structs, stable-sort by (doc, offset), render
        # every span's canonical piece with ONE binary_join kernel,
        # restitch per-doc lists, join, digest through fastmd5 — no
        # per-span Python.
        spans_col = _single_chunk_q(b.column("spans"))
        n_rows = b.num_rows
        flat = spans_col.flatten()
        parents = pc.list_parent_indices(spans_col).to_numpy(zero_copy_only=False)
        offs = flat.field("offset").to_numpy(zero_copy_only=False)
        order = np.lexsort((offs, parents))  # stable: original order on ties
        take = pa.array(order, pa.int64())
        pieces = pc.binary_join_element_wise(
            pc.cast(flat.field("kind").take(take), pa.string()),
            pc.cast(flat.field("text").take(take), pa.string()),
            pc.binary_join_element_wise(
                pc.cast(flat.field("media_ref").take(take), pa.string()),
                "\x1e",
                "",
            ),
            "\x1f",
        )
        counts = pc.list_value_length(spans_col).to_numpy(zero_copy_only=False)
        list_offsets = pa.array(
            np.r_[np.int64(0), counts.astype(np.int64).cumsum()], pa.int32()
        )
        per_doc = pc.binary_join(
            pa.ListArray.from_arrays(list_offsets, pieces), ""
        )
        return pa.table(
            {
                "doc_id": pc.cast(b.column("doc_id"), pa.string()),
                "seq_hash": md5_hex(per_doc),
                "n_spans": pa.array(counts.astype(np.int32), pa.int32()),
            }
        )

    return result.map_batches(seq_hash, batch_format="pyarrow")


register("extract_flagship", q_extract_flagship, oracle=f"""
            WITH s AS (
                SELECT doc_id, unnest(spans) AS sp
                FROM read_parquet('{_G01}/golden_spans/*.parquet')
            )
            SELECT doc_id,
                   md5(string_agg(sp['kind'] || chr(31) || sp['text'] || chr(31) || sp['media_ref'] || chr(30),
                                  '' ORDER BY sp['offset'])) AS seq_hash,
                   count(*)::INTEGER AS n_spans
            FROM s GROUP BY doc_id
        """)


def q_extract_validate(sf_dir: str):
    """Span-sequence equality gate vs golden (north rule): one row of
    counts; docs_mismatched == 0 and docs_missing == 0 is the invariant."""
    paths = corpus_for(sf_dir)
    result = run_extract(paths["documents"], paths["media"], _extract_cfg())
    counts = validate_against_golden(result, paths["golden_spans"])
    return pa.Table.from_pylist([counts])


register("extract_validate", q_extract_validate, oracle=f"""
            SELECT (SELECT count(*) FROM read_parquet('{_G01}/golden_spans/*.parquet'))::BIGINT AS docs_ok,
                   0::BIGINT AS docs_mismatched,
                   0::BIGINT AS docs_missing
        """)


def q_extract_quarantine(sf_dir: str):
    """Dead-letter path as a first-class gated operator: a copy of the
    fixture media table is deterministically POISONED (every media_ref
    whose md5 hex starts with '0' — 1/16 of pages — gets a truncated
    2-byte pixel buffer), the flagship runs over it, and the result is
    the quarantine accounting per affected document
    (doc_id, n_spans, n_err_spans) read back from the quarantine
    parquet sink.  The oracle recomputes the poisoned set in closed
    form from golden_spans (md5 is the routing hash on both engines);
    clean docs keep extracting as usual — extract_validate covers
    their span equality separately."""
    import glob
    import shutil

    import pyarrow.parquet as pq

    paths = corpus_for(sf_dir)
    sf = sf_of(sf_dir)
    poison_dir = os.path.join(FIXTURE_ROOT, f"sf{sf}", "media_poisoned")
    marker = os.path.join(poison_dir, "_done")
    if not os.path.exists(marker):
        os.makedirs(poison_dir, exist_ok=True)
        for i, f in enumerate(
            sorted(glob.glob(os.path.join(paths["media"], "*.parquet")))
        ):
            t = pq.read_table(f)
            refs = t.column("media_ref").to_pylist()
            pixels = t.column("pixels").to_pylist()
            for j, r in enumerate(refs):
                if hashlib.md5(str(r).encode()).hexdigest()[0] == "0":
                    pixels[j] = b"\xde\xad"  # truncated buffer: reshape fails
            idx = t.schema.get_field_index("pixels")
            t = t.set_column(idx, "pixels", pa.array(pixels, pa.binary()))
            pq.write_table(t, os.path.join(poison_dir, f"part-{i}.parquet"))
        with open(marker, "w") as fh:
            fh.write("ok")
    out_dir = os.path.join("/tmp/twr_scratch", f"quarantine_sf{sf}")
    shutil.rmtree(out_dir, ignore_errors=True)
    rows = run_extract(
        paths["documents"], poison_dir, _extract_cfg(), out_dir=out_dir, resume=False
    )
    qfiles = [
        os.path.join(out_dir, r["quarantine_file"])
        for r in rows
        if r["quarantine_file"]
    ]
    if not qfiles:
        return pa.table(
            {
                "doc_id": pa.array([], pa.string()),
                "n_spans": pa.array([], pa.int64()),
                "n_err_spans": pa.array([], pa.int64()),
            }
        )

    def prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "one": pa.array(np.ones(b.num_rows, np.int64)),
                "err": pc.cast(pc.is_valid(b.column("error")), pa.int64()),
            }
        )

    return (
        rd.read_parquet(qfiles)
        .map_batches(prep, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("one"), Sum("err"))
        .map_batches(
            lambda b: _rename(b, {"sum(one)": "n_spans", "sum(err)": "n_err_spans"}),
            batch_format="pyarrow",
        )
    )


# dead-letter accounting in closed form: the poisoned refs are
# exactly those whose md5 hex starts with '0' (the same routing
# hash the Ray side uses to corrupt the media copy); a poisoned
# doc quarantines WHOLE, so n_spans is the doc's full span count
register("extract_quarantine", q_extract_quarantine, oracle=f"""
            WITH s AS (
                SELECT doc_id, unnest(spans) AS sp
                FROM read_parquet('{_G01}/golden_spans/*.parquet')
            ),
            m AS (
                SELECT doc_id,
                       count(*)::BIGINT AS n_spans,
                       sum(CASE WHEN sp['kind'] = 'media_ref'
                                 AND substr(md5(sp['media_ref']), 1, 1) = '0'
                                THEN 1 ELSE 0 END)::BIGINT AS n_err_spans
                FROM s GROUP BY doc_id
            )
            SELECT doc_id, n_spans, n_err_spans FROM m WHERE n_err_spans > 0
        """)


def q_ocr_text(sf_dir: str):
    """OCR map tasks over the media table -> page text + word count."""
    paths = corpus_for(sf_dir)
    return ocr_media(paths["media"], _extract_cfg()).map_batches(
        lambda b: b.select(["media_ref", "text", "n_words"]), batch_format="pyarrow"
    )


register("ocr_text", q_ocr_text, oracle=f"""
            SELECT media_ref, text, n_words
            FROM read_parquet('{_G01}/golden_boxes/*.parquet')
        """)


def q_ocr_boxes(sf_dir: str):
    """Word-level TextItems (rect/flags/confidence/text), flattened."""
    paths = corpus_for(sf_dir)
    ds = ocr_media(paths["media"], _extract_cfg(), emit_boxes=True)

    def flatten(b: pa.Table) -> pa.Table:
        # Arrow-native struct-list flatten: list_flatten + parent gather
        # + struct_field projections — no Python loop over word items.
        from ..functions.arrow_util import single_chunk

        words = single_chunk(b.column("words"))
        flat = pc.list_flatten(words)
        parents = pc.list_parent_indices(words)
        rect = pc.struct_field(flat, "rect")
        return pa.table(
            {
                "media_ref": pc.take(b.column("media_ref"), parents),
                "text": pc.struct_field(flat, "text"),
                "left": pc.struct_field(rect, "left"),
                "top": pc.struct_field(rect, "top"),
                "right": pc.struct_field(rect, "right"),
                "bottom": pc.struct_field(rect, "bottom"),
                "flags": pc.struct_field(flat, "flags"),
                "confidence": pc.round(
                    pc.cast(pc.struct_field(flat, "confidence"), pa.float64()), ndigits=4
                ),
            }
        )

    return ds.map_batches(flatten, batch_format="pyarrow")


register("ocr_boxes", q_ocr_boxes, oracle=f"""
            WITH w AS (
                SELECT media_ref, unnest(words) AS wi
                FROM read_parquet('{_G01}/golden_boxes/*.parquet')
            )
            SELECT media_ref,
                   wi['text'] AS text,
                   wi['rect']['left'] AS "left",
                   wi['rect']['top'] AS "top",
                   wi['rect']['right'] AS "right",
                   wi['rect']['bottom'] AS "bottom",
                   wi['flags'] AS flags,
                   round(wi['confidence']::DOUBLE, 4) AS confidence
            FROM w
        """)


def q_orientation(sf_dir: str):
    """Orientation detection per page (rotation ∈ {0,90,180,270})."""
    paths = corpus_for(sf_dir)
    ds = ocr_media(paths["media"], _extract_cfg())

    def fn(b: pa.Table) -> pa.Table:
        rot = pc.struct_field(b.column("orientation"), "rotation")
        conf = pc.round(
            pc.cast(pc.struct_field(b.column("orientation"), "confidence"), pa.float64()),
            ndigits=4,
        )
        return pa.table(
            {"media_ref": b.column("media_ref"), "rotation": rot, "confidence": conf}
        )

    return ds.map_batches(fn, batch_format="pyarrow")


register("orientation_detect", q_orientation, oracle=f"""
            SELECT media_ref,
                   orientation['rotation'] AS rotation,
                   round(orientation['confidence']::DOUBLE, 4) AS confidence
            FROM read_parquet('{_G01}/golden_boxes/*.parquet')
        """)


def q_layout_boxes(sf_dir: str):
    """Layout-only analysis (no model): box counts per page."""
    from ..stages.ocr_actor import LayoutActor

    media = read_media(corpus_for(sf_dir)["media"])
    return ocr_map(media, LayoutActor(), media.count(), ExtractConfig())


register("layout_boxes", q_layout_boxes, oracle=f"""
            SELECT media_ref, n_word_boxes, n_line_boxes
            FROM read_parquet('{_G01}/golden_pages/*.parquet')
        """)


def q_hocr(sf_dir: str):
    """hOCR rendering: stable digest per page document."""
    from ..stages.ocr_actor import HocrActor

    cfg = ExtractConfig()
    media = read_media(corpus_for(sf_dir)["media"])
    return ocr_map(media, HocrActor(model_blob=cfg.model_blob), media.count(), cfg)


register("hocr_render", q_hocr, oracle=f"""
            SELECT media_ref, hocr, hocr_md5
            FROM read_parquet('{_G01}/golden_pages/*.parquet')
        """)


def q_boilerplate_strip(sf_dir: str):
    """DOM-heuristic boilerplate strip over text spans."""
    from ..stages.explode import explode_spans, only_kind
    from ..stages.strip import strip_text_spans

    paths = corpus_for(sf_dir)
    docs = rd.read_parquet(paths["documents"])
    return (
        docs.map_batches(explode_spans, batch_format="pyarrow")
        .map_batches(only_kind("text"), batch_format="pyarrow")
        .map_batches(strip_text_spans, batch_format="pyarrow")
        .map_batches(
            lambda b: b.select(["doc_id", "offset", "text"]), batch_format="pyarrow"
        )
    )


register("boilerplate_strip", q_boilerplate_strip, oracle=f"""
            WITH s AS (
                SELECT doc_id, unnest(spans) AS sp
                FROM read_parquet('{_G01}/golden_spans/*.parquet')
            )
            SELECT doc_id, sp['offset'] AS "offset", sp['text'] AS text
            FROM s WHERE sp['kind'] = 'text'
        """)
