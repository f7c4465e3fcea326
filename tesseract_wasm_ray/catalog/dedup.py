"""Exact and near-duplicate removal over the documents table: exact,
prefix and normalized keys, MinHash/SimHash/n-gram LSH, incremental and
substring dedup, each beside its DuckDB oracle (the sketch chains are
recomputed by ``pipelines/oracles.py``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Count, Sum

from ..functions.arrow_util import single_chunk as _single_chunk_q
from ..functions.fastmd5 import md5_hex
from ..functions.textstats import fingerprint
from ..pipelines import oracles as _orc
from ..pipelines.dedup import (
    chunk_dedup_docs,
    exact_dedup,
    exact_substring_dedup,
    incremental_exact_dedup,
    incremental_minhash_dedup,
    keep_first_by,
    keep_min_by,
    minhash_lsh_dedup,
    ngram_jaccard_dedup,
    simhash_dedup,
)
from . import register
from .common import _docs


def q_doc_fingerprint(sf_dir: str):
    """md5 exact-dup fingerprints (DuckDB md5 parity)."""
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: fingerprint(b).select(["doc_id", "md5"]), batch_format="pyarrow"
    )


register("doc_fingerprint", q_doc_fingerprint, oracle="SELECT doc_id, md5(text) AS md5 FROM documents")


def q_exact_dedup(sf_dir: str):
    """Exact dedup: min doc_id survivor per distinct text."""
    return exact_dedup(_docs(sf_dir, columns=["doc_id", "text"]), num_buckets=16).map_batches(
        lambda b: b.select(["doc_id", "text"]), batch_format="pyarrow"
    )


register("exact_dedup", q_exact_dedup, oracle="""
        SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text
    """)


def q_dedup_prefix(sf_dir: str):
    """Clustered dedup on a 24-char text prefix (exercises real groups)."""
    ds = _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "pfx": pc.utf8_slice_codeunits(b.column("text"), 0, 24),
            }
        ),
        batch_format="pyarrow",
    )
    return keep_min_by(ds, "pfx", "doc_id", num_buckets=16)


register("dedup_prefix", q_dedup_prefix, oracle="""
        SELECT min(doc_id) AS doc_id, substr(text, 1, 24) AS pfx
        FROM documents GROUP BY pfx
    """)


def q_dedup_keep_best(sf_dir: str):
    """Cluster-representative dedup: within each 24-char-prefix dup
    cluster keep the BEST document (longest text, ties by min doc_id)
    rather than the first — the curation-grade variant of dedup where
    quality decides the survivor.  One bucketed keep_first_by shuffle
    (same scale shape as exact_dedup); quality is map-side."""
    ds = _docs(sf_dir, columns=["doc_id", "text", "n_chars"]).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "pfx": pc.utf8_slice_codeunits(b.column("text"), 0, 24),
                "n_chars": b.column("n_chars"),
            }
        ),
        batch_format="pyarrow",
    )
    return keep_first_by(
        ds,
        "pfx",
        [("n_chars", "descending"), ("doc_id", "ascending")],
        num_buckets=16,
    )


register("dedup_keep_best", q_dedup_keep_best, oracle="""
        SELECT doc_id, pfx, n_chars FROM (
            SELECT doc_id, substr(text, 1, 24) AS pfx, n_chars,
                   row_number() OVER (
                       PARTITION BY substr(text, 1, 24)
                       ORDER BY n_chars DESC, doc_id ASC
                   ) AS rn
            FROM documents
        ) WHERE rn = 1
    """)


def q_minhash_dedup(sf_dir: str):
    return minhash_lsh_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), threshold=0.8, num_buckets=16
    ).map_batches(lambda b: b.select(["doc_id"]), batch_format="pyarrow")


register("minhash_dedup", q_minhash_dedup, oracle=_orc.sql_minhash_dedup(threshold=0.8))


def q_minhash_components_dedup(sf_dir: str):
    """MinHash near-dup with connected-components clustering (one
    survivor per transitive near-dup cluster)."""
    return minhash_lsh_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), threshold=0.8, num_buckets=16, cluster="components"
    ).map_batches(lambda b: b.select(["doc_id"]), batch_format="pyarrow")


register("minhash_components_dedup", q_minhash_components_dedup, oracle=_orc.sql_minhash_components_dedup(threshold=0.8))


def q_simhash_dedup(sf_dir: str):
    return simhash_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), max_hamming=3, num_buckets=16
    ).map_batches(lambda b: b.select(["doc_id"]), batch_format="pyarrow")


register("simhash_dedup", q_simhash_dedup, oracle=_orc.sql_simhash_dedup(max_hamming=3))


def q_ngram_jaccard_dedup(sf_dir: str):
    return ngram_jaccard_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), threshold=0.8, num_buckets=16
    ).map_batches(lambda b: b.select(["doc_id"]), batch_format="pyarrow")


register("ngram_jaccard_dedup", q_ngram_jaccard_dedup, oracle=_orc.sql_ngram_jaccard_dedup(threshold=0.8, shingle_n=3))


def q_rolling_fingerprint(sf_dir: str):
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: fingerprint(b).select(["doc_id", "rolling_hash"]),
        batch_format="pyarrow",
    )


register("rolling_fingerprint", q_rolling_fingerprint, oracle=_orc.sql_rolling_fingerprint())


def q_chunk_dedup(sf_dir: str):
    """Chunk-level exact dedup with document reassembly
    (dedup.chunk_dedup_docs): 16-token windows, keep the FIRST
    occurrence of each distinct chunk text corpus-wide (minimum
    (doc_id, chunk_id) via one keep_min_by bucketed shuffle), stitch
    each doc back from its surviving chunks in order.  This is
    span-granularity exact dedup — the RefinedWeb/CCNet shape
    doc-level `exact_dedup` can't express (boilerplate repeated across
    distinct documents).  Docs whose every chunk is removed disappear
    from the output."""

    return chunk_dedup_docs(
        _docs(sf_dir, columns=["doc_id", "text"]), chunk_size=16
    )


# chunk-level exact dedup: 16-token windows, keep first occurrence
# by (doc_id, chunk_id), docs reassembled from surviving chunks
register("chunk_dedup", q_chunk_dedup, oracle=r"""
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(text, '\S+') AS ts
            FROM documents
        ), ch AS (
            SELECT doc_id, u['cid'] AS chunk_id, u['ct'] AS chunk_text
            FROM (
                SELECT doc_id,
                       unnest([{'cid': i,
                                'ct': array_to_string(ts[(i*16+1):((i+1)*16)], ' ')}
                               FOR i IN generate_series(0, (len(ts)-1)//16)]) AS u
                FROM toks WHERE len(ts) > 0
            )
        ), kept AS (
            SELECT doc_id, chunk_id, chunk_text,
                   row_number() OVER (PARTITION BY chunk_text
                                      ORDER BY doc_id, chunk_id) AS rn
            FROM ch
        )
        SELECT doc_id,
               string_agg(chunk_text, ' ' ORDER BY chunk_id) AS clean_text,
               count(*)::BIGINT AS n_chunks_kept
        FROM kept WHERE rn = 1 GROUP BY doc_id
    """)


def q_incremental_neardup(sf_dir: str):
    """Incremental (cross-snapshot) NEAR-dup dedup
    (dedup.incremental_minhash_dedup): drop every incoming doc whose
    MinHash signature-Jaccard vs the prior snapshot is ≥ 0.8 — the
    ingest-time companion to incremental_dedup for re-crawls that
    differ by a few tokens (boilerplate tweak, appended footer), which
    exact fingerprints cannot catch.  Snapshot = the doc_id % 7 == 0
    slice; the incoming batch is the remaining docs PLUS a planted
    near-copy of every snapshot doc (text + ' xyzzy', doc_id +
    1,000,000) — near- but not exact-duplicates, so this is precisely
    the gap between the two incremental operators.  Only the sketch
    rows shuffle (snapshot text never moves); cross-side pairs only."""

    docs = _docs(sf_dir, columns=["doc_id", "text"])

    def snapshot_rows(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 7 == 0))

    def new_rows(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
        fresh = b.filter(pa.array(ids % 7 != 0))
        recrawl = b.filter(pa.array(ids % 7 == 0))
        perturbed = pc.binary_join_element_wise(
            recrawl.column("text"), " xyzzy", ""
        )
        return pa.table(
            {
                "doc_id": pa.concat_arrays(
                    [
                        _single_chunk_q(pc.cast(fresh.column("doc_id"), pa.int64())),
                        _single_chunk_q(
                            pc.add(
                                pc.cast(recrawl.column("doc_id"), pa.int64()),
                                1_000_000,
                            )
                        ),
                    ]
                ),
                "text": pa.concat_arrays(
                    [
                        _single_chunk_q(fresh.column("text")),
                        _single_chunk_q(
                            perturbed.combine_chunks()
                            if isinstance(perturbed, pa.ChunkedArray)
                            else perturbed
                        ),
                    ]
                ),
            }
        )

    kept = incremental_minhash_dedup(
        docs.map_batches(new_rows, batch_format="pyarrow"),
        docs.map_batches(snapshot_rows, batch_format="pyarrow"),
    )
    return kept.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_chars": pc.cast(pc.utf8_length(b.column("text")), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


register("incremental_neardup", q_incremental_neardup, oracle=_orc.sql_incremental_minhash_dedup(threshold=0.8))


def q_incremental_dedup(sf_dir: str):
    """Incremental (cross-snapshot) exact dedup
    (dedup.incremental_exact_dedup): drop every NEW doc whose
    md5(text) already exists in a prior corpus snapshot — the
    ingest-time shape of exact dedup (a fresh crawl lands against an
    already-deduped corpus; re-running whole-corpus dedup would
    re-shuffle everything ever ingested).  The snapshot is the
    deterministic doc_id % 7 == 0 slice; the incoming batch is the
    remaining docs PLUS a planted "re-crawl" of every snapshot doc
    (same text, doc_id + 1,000,000) — the base table has no exact
    duplicates, so without planting the anti-join would be vacuous
    (the embedding_neardup precedent).  joins.member_filter resolves
    membership (broadcast below the byte cap, bloom-routed bucketed
    filter above).  Done = exactly the planted rows vanish."""

    docs = _docs(sf_dir, columns=["doc_id", "text", "n_chars"])

    def snapshot_rows(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 7 == 0))

    def new_rows(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
        fresh = b.filter(pa.array(ids % 7 != 0))
        recrawl = b.filter(pa.array(ids % 7 == 0))
        return pa.table(
            {
                "doc_id": pa.concat_arrays(
                    [
                        _single_chunk_q(pc.cast(fresh.column("doc_id"), pa.int64())),
                        _single_chunk_q(
                            pc.add(
                                pc.cast(recrawl.column("doc_id"), pa.int64()),
                                1_000_000,
                            )
                        ),
                    ]
                ),
                "n_chars": pa.concat_arrays(
                    [
                        _single_chunk_q(fresh.column("n_chars")),
                        _single_chunk_q(recrawl.column("n_chars")),
                    ]
                ),
                "text": pa.concat_arrays(
                    [
                        _single_chunk_q(fresh.column("text")),
                        _single_chunk_q(recrawl.column("text")),
                    ]
                ),
            }
        )

    kept = incremental_exact_dedup(
        docs.map_batches(new_rows, batch_format="pyarrow"),
        docs.map_batches(snapshot_rows, batch_format="pyarrow"),
    )
    return kept.select_columns(["doc_id", "n_chars"])


# incremental exact dedup: new batch anti-joined against the
# snapshot slice's md5 fingerprints.  Null-text rows are kept
# unconditionally and null snapshot keys ignored — mirrors the
# engine (dedup.incremental_exact_dedup emits null fingerprints,
# member_filter's anti-join never drops null-key rows); a bare NOT IN would
# nullify the whole predicate on a NULL operand.
register("incremental_dedup", q_incremental_dedup, oracle="""
        WITH snap AS (
            SELECT DISTINCT md5(text) AS k FROM documents WHERE doc_id % 7 = 0
        ), newdocs AS (
            SELECT doc_id, n_chars, text FROM documents WHERE doc_id % 7 <> 0
            UNION ALL
            SELECT doc_id + 1000000, n_chars, text
            FROM documents WHERE doc_id % 7 = 0
        )
        SELECT doc_id, n_chars
        FROM newdocs
        WHERE text IS NULL
           OR md5(text) NOT IN (SELECT k FROM snap WHERE k IS NOT NULL)
    """)


def q_exact_substring_dedup(sf_dir: str):
    """Exact-substring dedup (the Lee et al. shape —
    dedup.exact_substring_dedup): every 5-token window occurring more
    than once in the corpus, at ANY alignment, keeps only its first
    occurrence (min (doc_id, position)); all other occurrences' tokens
    are removed and documents are rebuilt from the survivors.  The
    unaligned-span granularity chunk_dedup's fixed windows cannot see;
    gate = the full window-hash -> rank -> interval-anti-join chain
    recomputed in DuckDB (oracles.sql_exact_substring_dedup)."""

    return exact_substring_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), n=5
    )


register("exact_substring_dedup", q_exact_substring_dedup, oracle=_orc.sql_exact_substring_dedup(n=5))


def q_normalized_dedup(sf_dir: str):
    """Fuzzy-exact dedup on CANONICALIZED text (the C4-style
    normalize-then-dedup pass: case folding, punctuation strip,
    whitespace collapse — catches near-identical docs that differ only
    in formatting).  Normalization is three vectorized RE2 kernels per
    batch (unicode \\p{P} so CJK text survives), the dedup is the same
    bucketed keep_min_by(md5(norm)) shuffle as exact_dedup — original
    text rides along, so survivors keep their raw form.  Both engines
    run the SAME RE2 dialect, making the canonical form bit-identical."""
    ds = _docs(sf_dir, columns=["doc_id", "text"])

    def add_key(b: pa.Table) -> pa.Table:
        t = pc.fill_null(_single_chunk_q(b.column("text")), "")
        norm = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(
                pc.replace_substring_regex(pc.utf8_lower(t), r"\p{P}", ""),
                r"\s+",
                " ",
            )
        )
        # md5 once per DISTINCT canonical form (dup-heavy by design)
        enc = _single_chunk_q(pc.dictionary_encode(norm))
        keys = pa.DictionaryArray.from_arrays(enc.indices, md5_hex(enc.dictionary))
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "text": b.column("text"),
                "norm_key": pc.cast(keys, pa.string()),
            }
        )

    return keep_min_by(
        ds.map_batches(add_key, batch_format="pyarrow"), "norm_key", "doc_id", 16
    ).drop_columns(["norm_key"])


# normalize-then-dedup: same RE2 canonicalization (keep_min_by
# on md5(norm) == min doc_id per distinct canonical form)
register("normalized_dedup", q_normalized_dedup, oracle=r"""
            WITH n AS (
                SELECT doc_id, text,
                       trim(regexp_replace(
                           regexp_replace(lower(coalesce(text, '')),
                                          '\p{P}', '', 'g'),
                           '\s+', ' ', 'g')) AS norm
                FROM documents
            ), r AS (
                SELECT doc_id, text,
                       row_number() OVER (PARTITION BY norm
                                          ORDER BY doc_id) AS rn
                FROM n
            )
            SELECT doc_id, text FROM r WHERE rn = 1
        """)


def q_dedup_cluster_sizes(sf_dir: str):
    """Dedup observability: the duplicate-cluster SIZE histogram (how
    many clusters of 1, 2, 3... near-identical docs exist) over the
    24-char-prefix clustering — the monitoring rollup a curation team
    watches to decide whether dedup thresholds need tightening.
    Map tasks pre-count distinct prefixes per block (dictionary
    encode + bincount), ONE grouped sum folds the per-block partials
    (prefix-bounded rows in the shuffle), and the final histogram
    groupby is bounded by the largest cluster size."""

    def partials(b: pa.Table) -> pa.Table:
        pfx = pc.utf8_slice_codeunits(
            pc.fill_null(_single_chunk_q(b.column("text")), ""), 0, 24
        )
        enc = _single_chunk_q(pc.dictionary_encode(pfx))
        codes = enc.indices.to_numpy(zero_copy_only=False)
        n = np.bincount(codes, minlength=len(enc.dictionary)).astype(np.int64)
        return pa.table({"pfx": enc.dictionary, "n": pa.array(n, pa.int64())})

    sizes = (
        _docs(sf_dir, columns=["text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("pfx")
        .aggregate(Sum("n"))  # one row per distinct prefix
        .map_batches(
            lambda b: pa.table({"cluster_size": b.column("sum(n)")}),
            batch_format="pyarrow",
        )
        .groupby("cluster_size")
        .aggregate(Count())  # bounded by the largest cluster size
        .map_batches(
            lambda b: pa.table(
                {
                    "cluster_size": pc.cast(b.column("cluster_size"), pa.int64()),
                    "n_clusters": pc.cast(b.column("count()"), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    return sizes


# dedup observability: duplicate-cluster size histogram
register("dedup_cluster_sizes", q_dedup_cluster_sizes, oracle="""
            WITH c AS (
                SELECT substr(coalesce(text, ''), 1, 24) AS pfx,
                       count(*)::BIGINT AS cluster_size
                FROM documents GROUP BY 1
            )
            SELECT cluster_size, count(*)::BIGINT AS n_clusters
            FROM c GROUP BY cluster_size
        """)
