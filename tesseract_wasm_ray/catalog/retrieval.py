"""Embedding and text retrieval: exact, quantized and IVF top-k,
k-NN self-joins, k-means, SemDeDup, centroids and inverted-index
search, each beside its DuckDB oracle.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Sum

from ..pipelines import oracles as _orc
from ..pipelines.clustering import kmeans_clusters, semdedup
from ..pipelines.dedup import embedding_neardup
from ..pipelines.oracles import (
    BM25_K,
    BM25_TERMS,
    PLANT_MOD,
    PLANT_OFFSET,
    PLANT_SCALE_MOD,
)
from ..pipelines.similarity import (
    _matrix,
    ivf_topk,
    knn_self_join,
    knn_self_join_cells,
    quantize_q8,
    topk_cosine,
    topk_cosine_q8,
)
from ..pipelines.textindex import (
    build_text_index,
    search_text_index,
    search_text_index_bm25,
)
from . import register
from .common import _docs, _rename, _round


def q_emb_topk(sf_dir: str):
    """Brute-force cosine top-10 vs the vec_id=0 embedding."""
    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path)
    import pyarrow.parquet as pq

    t0 = pq.read_table(path, columns=["vec_id", "embedding"])
    q = np.asarray(
        t0.filter(pc.equal(t0.column("vec_id"), 0)).column("embedding")[0].as_py(),
        dtype=np.float64,
    )
    return topk_cosine(ds, q, k=10, round_to=5)


register("emb_topk_cosine", q_emb_topk, oracle="""
        SELECT e.vec_id,
               round(list_cosine_similarity(e.embedding::DOUBLE[],
                     (SELECT embedding FROM embeddings WHERE vec_id = 0)::DOUBLE[]), 5) AS cos_sim
        FROM embeddings e
        ORDER BY cos_sim DESC, e.vec_id ASC LIMIT 10
    """)


def q_emb_topk_q8(sf_dir: str):
    """int8-quantized cosine top-10 vs the vec_id=0 embedding — the
    4x-smaller-bytes scale path (similarity.topk_cosine_q8).  Integer
    scores, so the oracle match is exact, not rounded."""

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path)
    import pyarrow.parquet as pq

    t0 = pq.read_table(path, columns=["vec_id", "embedding"])
    q = np.asarray(
        t0.filter(pc.equal(t0.column("vec_id"), 0)).column("embedding")[0].as_py(),
        dtype=np.float64,
    )
    return topk_cosine_q8(ds, q, k=10)


# Recomputes the int8 quantizer from scratch: scale = max(|x|)
# (floored at 1e-30), q = floor(x * 127.0 / scale + 0.5) — the
# SAME deterministic rule and fp64 evaluation order as
# similarity.quantize_q8, so integer scores match exactly.
register("emb_topk_q8", q_emb_topk_q8, oracle="""
        WITH scaled AS (
            SELECT vec_id, embedding,
                   greatest(list_max(list_transform(embedding, y -> abs(y))), 1e-30) AS mx
            FROM embeddings
        ), quant AS (
            SELECT vec_id,
                   list_transform(embedding, x -> floor(x * 127.0 / mx + 0.5)) AS qv
            FROM scaled
        )
        SELECT d.vec_id,
               CAST(list_dot_product(d.qv, (SELECT qv FROM quant WHERE vec_id = 0)) AS BIGINT) AS qscore
        FROM quant d
        ORDER BY qscore DESC, d.vec_id ASC LIMIT 10
    """)


def q_emb_gram_q8(sf_dir: str):
    """Exact int8-quantized Gram matrix of the embedding corpus (the
    covariance/PCA building block: distributed X^T X).  Each block
    quantizes its vectors (similarity.quantize_q8 — the oracle
    recomputes the same floor(x*127/mx+0.5) rule) and emits ONE
    dims×dims int64 partial via a single matmul, so the shuffle
    carries ≤ d(d+1)/2 rows per block no matter how many vectors the
    corpus holds; the global groupby folds exact integers.  Output is
    the upper triangle with 1-based (i, j) to match SQL list
    indexing."""

    def partial(b: pa.Table) -> pa.Table:
        m = _matrix(b, "embedding")
        if m.shape[0] == 0:
            return pa.table(
                {
                    "i": pa.array([], pa.int64()),
                    "j": pa.array([], pa.int64()),
                    "gram": pa.array([], pa.int64()),
                }
            )
        q, _ = quantize_q8(m)
        g = q.T @ q  # (d, d) exact int64
        d = g.shape[0]
        iu, ju = np.triu_indices(d)
        return pa.table(
            {
                "i": pa.array(iu + 1, pa.int64()),
                "j": pa.array(ju + 1, pa.int64()),
                "gram": pa.array(g[iu, ju], pa.int64()),
            }
        )

    return (
        rd.read_parquet(
            os.path.join(sf_dir, "embeddings.parquet"), columns=["embedding"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["i", "j"])
        .aggregate(Sum("gram"))
        .map_batches(
            lambda b: _rename(b, {"sum(gram)": "gram"}), batch_format="pyarrow"
        )
    )


# exact q8 Gram matrix: quantizer identical to emb_topk_q8's
register("emb_gram_q8", q_emb_gram_q8, oracle="""
        WITH quant AS (
            SELECT list_transform(
                       embedding,
                       x -> floor(x * 127.0 /
                                  greatest(list_max(list_transform(embedding,
                                                                   y -> abs(y))),
                                           1e-30) + 0.5)) AS qv
            FROM embeddings
        ), idx AS (
            SELECT unnest(generate_series(1, 64)) AS i
        ), pairs AS (
            SELECT a.i AS i, b.i AS j FROM idx a, idx b WHERE b.i >= a.i
        )
        SELECT p.i::BIGINT AS i, p.j::BIGINT AS j,
               sum(CAST(qv[p.i] * qv[p.j] AS BIGINT))::BIGINT AS gram
        FROM quant, pairs p
        GROUP BY p.i, p.j
    """)


def q_text_search(sf_dir: str):
    """On-disk inverted index + storage-pruned term search
    (pipelines.textindex): build term-bucketed postings under /tmp,
    then score docs by total tf over a fixed term set reading ONLY the
    terms' buckets.  Returns the materialized top-20 so the index dir
    can be reclaimed before the caller consumes the result."""
    import shutil
    import tempfile

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    idx_dir = tempfile.mkdtemp(prefix="twr_textindex_")
    try:
        build_text_index(ds, idx_dir, num_buckets=32)
        out = search_text_index(
            idx_dir, ["join", "shuffle", "spark", "window"], k=20
        ).to_pandas()
    finally:
        shutil.rmtree(idx_dir, ignore_errors=True)
    out["score"] = out["score"].astype("int64")
    return out


# Same tokenizer contract as top_terms_per_lang: lowercase
# whitespace split, empties dropped (moot here — query terms are
# non-empty).  Scoring = total tf over the term set.
register("text_search", q_text_search, oracle="""
        WITH toks AS (
            SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\\s+')) AS term
            FROM documents
        )
        SELECT doc_id, count(*)::BIGINT AS score
        FROM toks WHERE term IN ('join', 'shuffle', 'spark', 'window')
        GROUP BY doc_id
        ORDER BY score DESC, doc_id ASC LIMIT 20
    """)


def q_text_search_bm25(sf_dir: str):
    """BM25-ranked retrieval over the on-disk inverted index: idf and
    length-normalized tf, corpus stats (N, avgdl) from the build
    manifest, storage-pruned to the query terms' buckets."""
    import shutil
    import tempfile

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    idx_dir = tempfile.mkdtemp(prefix="twr_textindex_bm25_")
    try:
        build_text_index(ds, idx_dir, num_buckets=32)
        out = search_text_index_bm25(
            idx_dir, list(BM25_TERMS), k=BM25_K
        ).to_pandas()
    finally:
        shutil.rmtree(idx_dir, ignore_errors=True)
    return out


register("text_search_bm25", q_text_search_bm25, oracle=_orc.sql_text_search_bm25())


def q_kmeans_clusters(sf_dir: str):
    """Distributed integer k-means over the embeddings table — exact
    across engines (quantized vectors, truncated-division centroids,
    md5-min seeds), so the DuckDB oracle re-runs the full Lloyd chain
    and the assignment gate is bit-for-bit."""

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    # cache=True: the quantized view at bench scale is tiny; the
    # streaming default re-reads per Lloyd pass (the 100-TB shape).
    return kmeans_clusters(ds, k=8, iters=4, cache=True)


register("kmeans_clusters", q_kmeans_clusters, oracle=_orc.sql_kmeans_clusters(k=8, iters=4))


def q_semdedup(sf_dir: str):
    """SemDeDup (cluster-then-dedup, arXiv:2303.09540) over the
    planted-copy augmentation: exact integer k-means makes the cluster
    assignment deterministic, then within-cluster EXISTS cosine >=
    0.98 removal keeps the min-id representative."""

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).map_batches(_plant_embedding_copies, batch_format="pyarrow")
    return semdedup(ds, k=8, iters=4, threshold=0.98, cache=True)


register("semdedup", q_semdedup, oracle=_orc.sql_semdedup(k=8, iters=4, threshold=0.98))


def q_emb_label_centroids(sf_dir: str):
    """Per-label embedding centroids (the vector-aggregation shape used
    for class prototypes / cluster summaries).  Map-side combine: each
    batch reduces to one (label, dim) partial-sum row per label — a
    10x64-row sketch regardless of batch size — so the shuffle moves
    O(|labels| x dims) per block, never vectors."""
    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["label", "embedding"]
    )

    def partial(b: pa.Table) -> pa.Table:
        mat = np.stack(b.column("embedding").to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        lab = b.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, codes = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(uniq), mat.shape[1]))
        np.add.at(sums, codes, mat)
        cnt = np.bincount(codes).astype(np.float64)
        k, d = sums.shape
        return pa.table(
            {
                "label": pa.array(np.repeat(uniq, d), pa.int64()),
                "dim": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64), k)),
                "s": pa.array(sums.ravel(), pa.float64()),
                "n": pa.array(np.repeat(cnt, d), pa.float64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["label", "dim"])
        .aggregate(Sum("s"), Sum("n"))
        .map_batches(
            lambda b: pa.table(
                {
                    "label": b.column("label"),
                    "dim": b.column("dim"),
                    "centroid": pc.round(
                        pc.divide(b.column("sum(s)"), b.column("sum(n)")), ndigits=6
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )
    return out


register("emb_label_centroids", q_emb_label_centroids, oracle="""
        SELECT label::BIGINT AS label, dim::BIGINT AS dim,
               round(avg(v::DOUBLE), 6) AS centroid
        FROM (
            SELECT label, unnest(embedding) AS v,
                   generate_subscripts(embedding, 1) AS dim
            FROM embeddings
        ) GROUP BY 1, 2
    """)


def _plant_embedding_copies(b: pa.Table) -> pa.Table:
    """Deterministic near-dup planting (mirrored by the SQL oracle's
    EMB_AUG_CTE): every ``vec_id % 10 == 0`` row is appended again at
    ``vec_id + 1_000_000``; ``% 20 == 0`` copies are scaled x2 — the
    unit vector is bit-identical (binary scaling is exact), so LSH
    recall on the copies is 1 by construction.  The base embeddings
    table has no near-dup pairs (max pairwise cosine ~0.51), so
    planting is what makes the removal path non-vacuous."""

    from ..functions.arrow_util import single_chunk

    ids = b.column("vec_id").to_numpy(zero_copy_only=False)
    dup = b.filter(pa.array(ids % PLANT_MOD == 0))
    emb = single_chunk(dup.column("embedding"))
    vals = emb.values.to_numpy(zero_copy_only=False)
    parents = pc.list_parent_indices(emb).to_numpy(zero_copy_only=False)
    scale_rows = dup.column("vec_id").to_numpy(zero_copy_only=False) % PLANT_SCALE_MOD == 0
    factor = np.where(scale_rows[parents], 2.0, 1.0).astype(vals.dtype)
    new_emb = pa.ListArray.from_arrays(emb.offsets, pa.array(vals * factor, emb.type.value_type))
    planted = pa.table(
        {
            "vec_id": pc.add(dup.column("vec_id"), PLANT_OFFSET),
            "embedding": new_emb,
        }
    )
    return pa.concat_tables([b.select(["vec_id", "embedding"]), planted])


def q_embedding_neardup(sf_dir: str):
    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).map_batches(_plant_embedding_copies, batch_format="pyarrow")
    return embedding_neardup(
        ds, threshold=0.98, num_buckets=16
    ).map_batches(lambda b: b.select(["vec_id"]), batch_format="pyarrow")


register("embedding_neardup", q_embedding_neardup, oracle=_orc.sql_embedding_neardup(threshold=0.98))


def q_ivf_topk(sf_dir: str):
    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path)
    import pyarrow.parquet as pq

    t0 = pq.read_table(path, columns=["vec_id", "embedding"])
    q = np.asarray(
        t0.filter(pc.equal(t0.column("vec_id"), 0)).column("embedding")[0].as_py(),
        dtype=np.float64,
    )
    # nprobe == n_centroids: IVF recall is exactly 1, so the result
    # equals brute-force top-k and the SQL oracle can gate it.  The pruned
    # nprobe<n_centroids path is tested by
    # tests/test_similarity.py::test_ivf_topk_recall.
    out = ivf_topk(ds, q, k=10, n_centroids=8, nprobe=8)
    return out.map_batches(
        lambda b: _round(b, {"cos_sim": 5}), batch_format="pyarrow"
    )


register("ivf_topk_cosine", q_ivf_topk, oracle=_orc.sql_ivf_topk(k=10))


def q_knn_join(sf_dir: str):
    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    return knn_self_join(ds, k=3).map_batches(
        lambda b: _round(b, {"cos_sim": 5}), batch_format="pyarrow"
    )


register("knn_self_join", q_knn_join, oracle=_orc.sql_knn_self_join(k=3))


def q_knn_join_cells(sf_dir: str):
    """Distributed IVF-cell k-NN self-join (no broadcast index).  With
    nprobe == n_centroids every query probes every cell, so recall is
    exactly 1 and the brute-force SQL oracle gates it bit-for-bit.  The
    pruned nprobe < n_centroids path is tested by
    tests/test_similarity.py::test_knn_cells_pruned_recall."""

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    out = knn_self_join_cells(ds, k=3, n_centroids=8, nprobe=8)
    return out.map_batches(
        lambda b: _round(b, {"cos_sim": 5}), batch_format="pyarrow"
    )


register("knn_self_join_cells", q_knn_join_cells, oracle=_orc.sql_knn_self_join(k=3))
