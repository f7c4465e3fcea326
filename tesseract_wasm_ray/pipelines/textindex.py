"""On-disk inverted text index: term-bucketed postings + storage-pruned
term search — the text-retrieval sibling of similarity.build_ivf_index.

At 100 TB a "find documents containing/scoring these terms" query must
NOT scan the corpus per query; the index is built ONCE (one tokenize
pass + one bucketed shuffle of (term, doc_id, tf) postings — sketch-
sized rows, never the text) and a search then reads ONLY the query
terms' bucket directories.  Layout mirrors the IVF index:

    out_dir/
      bucket=0007/part-00000.parquet   (term, doc_id, tf), sorted by
      bucket=0007/part-00001.parquet    (term, doc_id) within each file
      ...
      buckets.json                      (atomic manifest: rows/files per
                                         bucket, num_buckets, version)

Bucketing is crc32(term) % num_buckets — the same process-stable hash
the dedup/join machinery uses, so a resumed build re-lands every term
in the same bucket.  Hot buckets chunk into ``rows_per_file`` files
with deterministic names (a Ray task retry overwrites, never
duplicates).  Tokenization is textstats._tokens (lowercase whitespace
pieces, empties dropped), which the DuckDB oracle reproduces with
``regexp_split_to_array(lower(text), '\\s+')``.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.arrow_util import single_chunk as _single_chunk
from ..functions.textstats import _tokens
from .joins import bucket_map_groups


def doc_term_freqs(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Per-batch (term, doc_id, tf, dl) postings, fully vectorized:
    tokens are dictionary-encoded and per-(row, term) counts come from
    ONE ``np.unique`` over composite codes — no per-row Python.  (The
    composite space is rows x batch-vocab, far too sparse for the
    bincount trick term_counts uses over a handful of languages.)
    ``dl`` is the owning document's token count, inlined so BM25 search
    never needs a doc-length join (the norms-in-postings layout)."""
    texts = _single_chunk(batch.column(text_col))
    flat, parents, n_rows = _tokens(texts)
    t_enc = _single_chunk(pc.dictionary_encode(flat))
    n_terms = len(t_enc.dictionary)
    empty = pa.table(
        {
            "term": pa.array([], pa.string()),
            id_col: pa.array([], batch.column(id_col).type),
            "tf": pa.array([], pa.int64()),
            "dl": pa.array([], pa.int64()),
        }
    )
    if n_terms == 0:
        return empty
    doc_len = np.bincount(parents, minlength=n_rows).astype(np.int64)
    t_codes = t_enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    comp = parents.astype(np.int64) * n_terms + t_codes
    uniq, counts = np.unique(comp, return_counts=True)
    rows = uniq // n_terms
    terms = uniq % n_terms
    return pa.table(
        {
            "term": t_enc.dictionary.take(pa.array(terms, pa.int64())),
            id_col: _single_chunk(batch.column(id_col)).take(
                pa.array(rows, pa.int64())
            ),
            "tf": pa.array(counts.astype(np.int64), pa.int64()),
            "dl": pa.array(doc_len[rows], pa.int64()),
        }
    )


def term_bucket(terms: pa.Array, num_buckets: int) -> np.ndarray:
    """crc32(term) % num_buckets, hashed once per DISTINCT term."""
    enc = _single_chunk(pc.dictionary_encode(pc.fill_null(terms, "")))
    dist = np.array(
        [zlib.crc32(t.encode()) % num_buckets for t in enc.dictionary.to_pylist()],
        dtype=np.int32,
    )
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return dist[idx]


def build_text_index(
    ds: rd.Dataset,
    out_dir: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 32,
    rows_per_file: int = 1 << 17,
) -> dict:
    """Tokenize the corpus and write term-bucketed postings parquet.
    Returns the manifest dict.  Postings rows are (term, id, tf) only —
    the text column never enters the shuffle."""
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    for stale in glob.glob(os.path.join(out_dir, "bucket=*")):
        shutil.rmtree(stale)

    def to_postings(b: pa.Table) -> pa.Table:
        p = doc_term_freqs(b, text_col, id_col)
        return p.append_column(
            "__bucket", pa.array(term_bucket(p.column("term"), num_buckets), pa.int32())
        )

    def write_bucket(group: pa.Table) -> pa.Table:
        bucket = int(term_bucket(group.column("term").slice(0, 1), num_buckets)[0])
        t = group.sort_by([("term", "ascending"), (id_col, "ascending")])
        bdir = os.path.join(out_dir, f"bucket={bucket:04d}")
        os.makedirs(bdir, exist_ok=True)
        n_files = 0
        for off in range(0, t.num_rows, rows_per_file):
            pq.write_table(
                t.slice(off, rows_per_file),
                os.path.join(bdir, f"part-{n_files:05d}.parquet"),
            )
            n_files += 1
        return pa.table(
            {
                "bucket": pa.array([bucket], pa.int32()),
                "rows": pa.array([t.num_rows], pa.int64()),
                "files": pa.array([n_files], pa.int32()),
                "tf_sum": pa.array(
                    [int(pc.sum(t.column("tf")).as_py() or 0)], pa.int64()
                ),
            }
        )

    entries = bucket_map_groups(
        ds.map_batches(to_postings, batch_format="pyarrow"), "__bucket", write_bucket
    ).take_all()

    # Corpus stats for BM25, both free: total token count == the sum of
    # tf over all postings (each bucket writer reports its share — no
    # second tokenize pass), and n_docs (ALL docs incl. empty) comes
    # from dataset metadata (a parquet row count, no scan).
    manifest = {
        "num_buckets": num_buckets,
        "id_col": id_col,
        "n_docs": int(ds.count()),
        "total_len": sum(int(e["tf_sum"]) for e in entries),
        "buckets": sorted(
            ({k: int(v) for k, v in e.items()} for e in entries),
            key=lambda e: e["bucket"],
        ),
    }
    tmp = os.path.join(out_dir, f".buckets.json.tmp-{os.getpid()}")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(out_dir, "buckets.json"))
    return manifest


def search_text_index(
    index_dir: str,
    terms: list[str],
    k: int = 20,
) -> rd.Dataset:
    """Score docs by total tf over the (lowercased) query terms, read
    ONLY the buckets those terms hash to (storage-level pruning, the
    way IVF search reads only probed cells).  Returns the top ``k``
    (id, score) rows, score desc / id asc deterministic."""
    with open(os.path.join(index_dir, "buckets.json")) as f:
        manifest = json.load(f)
    num_buckets = manifest["num_buckets"]
    id_col = manifest.get("id_col", "doc_id")
    wanted = sorted({t.lower() for t in terms})
    buckets = sorted({zlib.crc32(t.encode()) % num_buckets for t in wanted})
    files: list[str] = []
    for b in buckets:
        files.extend(
            sorted(glob.glob(os.path.join(index_dir, f"bucket={b:04d}", "*.parquet")))
        )
    if not files:
        return rd.from_arrow(
            pa.table({id_col: pa.array([], pa.string()),
                      "score": pa.array([], pa.int64())})
        )
    term_set_ref = ray.put(pa.array(wanted, pa.string()))

    def partial(b: pa.Table) -> pa.Table:
        hit = b.filter(pc.is_in(b.column("term"), value_set=ray.get(term_set_ref)))
        return pa.table({id_col: hit.column(id_col), "tf": hit.column("tf")})

    from ray.data.aggregate import Sum

    scored = (
        rd.read_parquet(files)
        .map_batches(partial, batch_format="pyarrow")
        .groupby(id_col)
        .aggregate(Sum("tf", alias_name="score"))
    )
    return scored.sort(["score", id_col], descending=[True, False]).limit(k)


def search_text_index_bm25(
    index_dir: str,
    terms: list[str],
    k: int = 20,
    k1: float = 1.2,
    b: float = 0.75,
    round_to: int = 4,
) -> rd.Dataset:
    """BM25-ranked search over the same storage-pruned buckets.

    idf(t) = ln(1 + (N - df + 0.5)/(df + 0.5))   (Lucene variant)
    score  = sum_t idf(t) * tf*(k1+1) / (tf + k1*((1-b) + b*dl/avgdl))

    N / avgdl come from the build manifest (exact integers -> identical
    double division in both engines); df per term is counted from the
    pruned postings themselves (postings are per (term, doc), so row
    count == document frequency).  Scores round to ``round_to`` dp
    BEFORE the top-k sort so the (score desc, id asc) order matches the
    SQL oracle; every float expression mirrors the oracle's operator
    shape left-to-right, leaving only per-doc sum order (<= |terms|
    addends) as the usual sub-ulp risk."""
    with open(os.path.join(index_dir, "buckets.json")) as f:
        manifest = json.load(f)
    num_buckets = manifest["num_buckets"]
    id_col = manifest.get("id_col", "doc_id")
    n_docs = int(manifest["n_docs"])
    avgdl = float(manifest["total_len"]) / float(max(n_docs, 1))
    wanted = sorted({t.lower() for t in terms})
    buckets = sorted({zlib.crc32(t.encode()) % num_buckets for t in wanted})
    files: list[str] = []
    for bkt in buckets:
        files.extend(
            sorted(glob.glob(os.path.join(index_dir, f"bucket={bkt:04d}", "*.parquet")))
        )
    if not files:
        return rd.from_arrow(
            pa.table({id_col: pa.array([], pa.string()),
                      "score": pa.array([], pa.float64())})
        )
    term_set = pa.array(wanted, pa.string())
    term_set_ref = ray.put(term_set)

    def hit(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column("term"), value_set=ray.get(term_set_ref)))

    hits = rd.read_parquet(files).map_batches(hit, batch_format="pyarrow")

    # df per query term: tiny (<= |terms| rows) — driver-side by design.
    from ray.data.aggregate import Count, Sum

    df_rows = hits.groupby("term").aggregate(Count(alias_name="df")).take_all()
    df_map = {r["term"]: int(r["df"]) for r in df_rows}
    idf = {
        t: float(np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5)))
        for t, df in df_map.items()
    }
    idf_ref = ray.put(idf)

    def contrib(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {id_col: pa.array([], t.column(id_col).type),
                 "part": pa.array([], pa.float64())}
            )
        idf_m = ray.get(idf_ref)
        idf_v = np.array(
            [idf_m[x] for x in t.column("term").to_pylist()], np.float64
        )
        tf = t.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        dl = t.column("dl").to_numpy(zero_copy_only=False).astype(np.float64)
        # Operator shape mirrors the SQL oracle exactly (left-assoc).
        part = idf_v * tf * (k1 + 1.0) / (tf + k1 * ((1.0 - b) + b * dl / avgdl))
        return pa.table({id_col: t.column(id_col), "part": pa.array(part)})

    scored = (
        hits.map_batches(contrib, batch_format="pyarrow")
        .groupby(id_col)
        .aggregate(Sum("part", alias_name="raw"))
        .map_batches(
            lambda t: pa.table(
                {
                    id_col: t.column(id_col),
                    "score": pc.round(
                        pc.cast(t.column("raw"), pa.float64()), round_to
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )
    return scored.sort(["score", id_col], descending=[True, False]).limit(k)
