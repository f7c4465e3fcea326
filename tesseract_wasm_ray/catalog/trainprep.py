"""Training-data preparation: splits, packing, filtering, mixing,
tokenizer training, curation and data selection, each beside its DuckDB
oracle.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data.aggregate import Count, Sum

from ..functions.arrow_util import single_chunk as _single_chunk_q
from ..functions.fastmd5 import md5_hex
from ..functions.textstats import token_count
from ..pipelines import oracles as _orc
from ..pipelines.dedup import dup_ngram_stats, keep_min_by, minhash_lsh_dedup
from ..pipelines.joins import bucket_map_groups, lookup_join_auto
from ..pipelines.mixing import (
    mixture_sample,
    sql_mixture_sample as _sql_mix,
    temperature_rates,
)
from ..pipelines.oracles import DRIFT_BUCKETS, DSIR_BUCKETS, DSIR_SCALE
from ..pipelines.relational import pack_sequences
from . import register
from .common import _docs, _rename, _run_rank


def _bpe_round_ctes(i: int, src: str) -> str:
    """One BPE training round as SQL CTEs: count pairs over ``src``'s
    doubled-space symbol strings, pick the (cnt DESC, l, r) winner,
    apply it with the boundary-safe replace (see the bpe_train oracle
    comment)."""
    return f"""
        c{i} AS (
            SELECT split_part(p, ' ', 1) AS l, split_part(p, ' ', 2) AS r,
                   count(*)::BIGINT AS cnt
            FROM (SELECT unnest([syms[i] || ' ' || syms[i+1]
                                 FOR i IN generate_series(1, len(syms)-1)]) AS p
                  FROM (SELECT str_split(s, '  ') AS syms FROM {src}))
            GROUP BY l, r
        ),
        b{i} AS (SELECT l, r, cnt FROM c{i} ORDER BY cnt DESC, l ASC, r ASC LIMIT 1),
        t{i} AS (SELECT trim(replace(' ' || s || ' ',
                                     ' ' || l || '  ' || r || ' ',
                                     ' ' || l || r || ' ')) AS s
                 FROM {src}, b{i})"""


_BPE_CHAIN = (
    r"""
        WITH toks AS (
            SELECT array_to_string(
                       [substr(w, i, 1) FOR i IN generate_series(1, length(w))],
                       '  ') AS s
            FROM (SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS w
                  FROM documents)
        ),"""
    + ",".join(
        _bpe_round_ctes(i, "toks" if i == 1 else f"t{i - 1}") for i in (1, 2, 3, 4)
    )
)


def q_sample_docs(sf_dir: str):
    """Deterministic ~10% Bernoulli sample keyed on md5(text) — the
    hash-based sampling a resumable pipeline needs (rerun-stable, unlike
    RNG sampling; SQL oracle reproduces it exactly).  The digest runs
    through the vectorized DuckDB kernel (functions/fastmd5.py) — no
    per-row Python on this map path."""
    def fn(b: pa.Table) -> pa.Table:
        keep = pc.less(md5_hex(b.column("text"), prefix=2), "1a")
        return b.filter(keep).select(["doc_id", "n_chars"])

    return _docs(sf_dir, columns=["doc_id", "text", "n_chars"]).map_batches(fn, batch_format="pyarrow")


register("sample_docs", q_sample_docs, oracle="""
        SELECT doc_id, n_chars FROM documents
        WHERE substr(md5(text), 1, 2) < '1a'
    """)


def q_dataset_split(sf_dir: str):
    """Deterministic train/val/test split assignment keyed on
    md5(text) — the rerun-stable split a training pipeline needs (a
    re-ingested or resumed corpus lands every doc in the same split;
    RNG splits don't survive re-sharding).  ~80/10/10 via hex-prefix
    thresholds; emits per-(lang, split) counts."""

    def assign(b: pa.Table) -> pa.Table:
        # md5 per row is the split key itself (DuckDB-recomputable);
        # the digest and the threshold compares are all vectorized —
        # functions/fastmd5.py + pyarrow.compute, no per-row Python.
        pfx = md5_hex(b.column("text"), prefix=2)
        split = pc.if_else(
            pc.less(pfx, "cc"),
            pa.scalar("train"),
            pc.if_else(pc.less(pfx, "e6"), pa.scalar("val"), pa.scalar("test")),
        )
        return pa.table({"lang": b.column("lang"), "split": split})

    return (
        _docs(sf_dir, columns=["lang", "text"])
        .map_batches(assign, batch_format="pyarrow")
        .groupby(["lang", "split"])
        .aggregate(Count())
        .map_batches(
            lambda b: _rename(b, {"count()": "n_docs"}), batch_format="pyarrow"
        )
    )


register("dataset_split", q_dataset_split, oracle="""
        SELECT lang,
               CASE WHEN substr(md5(text), 1, 2) < 'cc' THEN 'train'
                    WHEN substr(md5(text), 1, 2) < 'e6' THEN 'val'
                    ELSE 'test' END AS split,
               count(*) AS n_docs
        FROM documents GROUP BY 1, 2
    """)


def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition quality filter: per-doc top-unigram and
    duplicate-bigram fractions plus the keep flag (textstats
    .repetition_stats; vectorized bincount/run-boundary kernels)."""
    from ..functions.textstats import repetition_stats

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: repetition_stats(b).select(
            ["doc_id", "n_tokens", "top_unigram_frac", "dup_bigram_frac", "keep"]
        ),
        batch_format="pyarrow",
    )


# Gopher-style repetition metrics: DuckDB recomputes the top-unigram
# and duplicate-bigram fractions from scratch with list kernels
# (bigrams via a list comprehension over generate_series).
register("repetition_stats", q_repetition_stats, oracle=r"""
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS ts
            FROM documents
        ), bi AS (
            SELECT doc_id, ts,
                   [ts[i] || ' ' || ts[i+1] FOR i IN generate_series(1, len(ts)-1)] AS bg
            FROM toks
        )
        SELECT doc_id,
               len(ts) AS n_tokens,
               round(list_max(list_transform(list_distinct(ts),
                     u -> len(list_filter(ts, x -> x = u))))::DOUBLE
                     / greatest(len(ts), 1), 6) AS top_unigram_frac,
               round(CASE WHEN len(bg) = 0 THEN 0.0
                     ELSE 1.0 - len(list_distinct(bg))::DOUBLE / len(bg) END,
                     6) AS dup_bigram_frac,
               (CASE WHEN top_unigram_frac <= 0.12 AND dup_bigram_frac <= 0.05
                     THEN 1 ELSE 0 END)::BIGINT AS keep
        FROM bi
    """)


def q_doc_chunks(sf_dir: str):
    """Context-window chunking: fan each doc into 32-token windows
    (one output row per chunk) — the fan-out stage before sequence
    packing.  Pure-Arrow offset surgery (textstats.chunk_tokens), no
    shuffle: chunking is embarrassingly parallel per block."""
    from ..functions.textstats import chunk_tokens

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: chunk_tokens(b, chunk_size=32), batch_format="pyarrow"
    )


register("doc_chunks", q_doc_chunks, oracle=r"""
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(text, '\S+') AS ts FROM documents
        ), fan AS (
            SELECT doc_id, ts,
                   unnest(generate_series(1, cast(ceil(len(ts)/32.0) AS BIGINT))) AS i
            FROM toks
        )
        SELECT doc_id, i - 1 AS chunk_id,
               least(32, len(ts) - (i-1)*32)::BIGINT AS n_chunk_tokens,
               array_to_string(ts[((i-1)*32+1):(i*32)], ' ') AS chunk_text
        FROM fan
    """)


def q_domain_cap(sf_dir: str):
    """Per-domain down-sampling cap (CommonCrawl-style): keep at most
    10 docs per source, chosen by md5(text) order (deterministic,
    content-keyed — rerun- and reshard-stable, unlike RNG sampling).
    Each block PRE-CAPS map-side (its own 10 smallest keys per source
    — the global winners are a subset of the union), so the one
    source-keyed shuffle moves <= sources x 10 rows PER BLOCK instead
    of co-locating every row of a source: at 100 TB that is the
    difference between a bounded fold and a giant-group shuffle."""

    def key(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "source": b.column("source"),
                "__k": md5_hex(b.column("text")),
            }
        )

    def local_cap(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        t = b.sort_by(
            [("source", "ascending"), ("__k", "ascending"), ("doc_id", "ascending")]
        )
        return t.filter(pa.array(_run_rank(t.column("source")) < 10))

    ds = (
        _docs(sf_dir, columns=["doc_id", "source", "text"])
        .map_batches(key, batch_format="pyarrow")
        .map_batches(local_cap, batch_format="pyarrow")
    )

    def cap(group: pa.Table) -> pa.Table:
        # Arrow sort + run-rank (merge_topk pattern) instead of a
        # pandas groupby().head() round-trip.
        if group.num_rows == 0:
            return group.select(["doc_id", "source"])
        t = group.sort_by(
            [("source", "ascending"), ("__k", "ascending"), ("doc_id", "ascending")]
        )
        keep = t.filter(pa.array(_run_rank(t.column("source")) < 10))
        return keep.select(["doc_id", "source"])

    return ds.groupby("source").map_groups(
        cap, batch_format="pyarrow"
    )


register("domain_cap", q_domain_cap, oracle="""
        SELECT doc_id, source FROM (
            SELECT doc_id, source,
                   row_number() OVER (PARTITION BY source
                       ORDER BY md5(text), doc_id) AS rn
            FROM documents
        ) WHERE rn <= 10
    """)


def q_sequence_pack(sf_dir: str):
    """Greedy sequence packing (training-context packing): docs are
    token-counted map-side, hash-shuffled once on source, and packed
    in doc_id order into 256-token sequences (relational
    .pack_sequences — cumsum+searchsorted scan, one loop iteration per
    emitted sequence).  Oracle recomputes the greedy recurrence with a
    recursive CTE."""

    def fn(b: pa.Table) -> pa.Table:
        return token_count(b).select(["doc_id", "source", "n_tokens"])

    ds = _docs(sf_dir, columns=["doc_id", "source", "text"]).map_batches(fn, batch_format="pyarrow")
    return pack_sequences(
        ds, group_col="source", order_col="doc_id", size_col="n_tokens", budget=256
    )


# greedy first-fit packing recurrence, re-run row-by-row per source
# with a recursive CTE (rows step in doc_id order; all sources
# advance in parallel per recursion round)
register("sequence_pack", q_sequence_pack, oracle=r"""
        WITH RECURSIVE t AS (
            SELECT doc_id, source,
                   len(regexp_extract_all(text, '\S+'))::BIGINT AS n_tokens,
                   row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
            FROM documents
        ), packs AS (
            SELECT source, rn, doc_id, n_tokens,
                   0::BIGINT AS seq_id, n_tokens AS acc
            FROM t WHERE rn = 1
            UNION ALL
            SELECT t.source, t.rn, t.doc_id, t.n_tokens,
                   CASE WHEN p.acc + t.n_tokens > 256
                        THEN p.seq_id + 1 ELSE p.seq_id END,
                   CASE WHEN p.acc + t.n_tokens > 256
                        THEN t.n_tokens ELSE p.acc + t.n_tokens END
            FROM packs p JOIN t ON t.source = p.source AND t.rn = p.rn + 1
        )
        SELECT doc_id, source, n_tokens, seq_id FROM packs
    """)


def q_gopher_filter(sf_dir: str):
    """Gopher-style quality-rule filter (public-rule reimplementation,
    Rae et al. 2021 §A1.1 adapted to this corpus) with EVERY rule
    evaluated as an exact integer comparison — no float ratios, so the
    keep decision is bit-identical on any engine:

      token count in [5, 1000];
      mean token length in [2, 10]   as  2*n <= sum_len <= 10*n;
      punctuation fraction < 10%     as  10*n_punct < n_tokens;
      >= 2 stopword hits ('the'/'a' — the corpus's function words).

    Map-only (zero shuffle); emits every doc with its keep flag so the
    oracle value-gates the decision itself, not just the survivor
    count."""
    from ..functions.textstats import _tokens

    def fn(b: pa.Table) -> pa.Table:
        texts = _single_chunk_q(b.column("text"))
        n_rows = len(texts)
        n_punct = (
            pc.count_substring_regex(texts, r"[^A-Za-z0-9_\s]")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        flat, parents, _ = _tokens(texts)
        n_tokens = (
            np.bincount(parents, minlength=n_rows).astype(np.int64)
            if len(parents)
            else np.zeros(n_rows, np.int64)
        )
        tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        sum_len = (
            np.bincount(parents, weights=tok_lens, minlength=n_rows).astype(np.int64)
            if len(parents)
            else np.zeros(n_rows, np.int64)
        )
        stop_mask = pc.is_in(
            flat, value_set=pa.array(["the", "a"], pa.string())
        ).to_numpy(zero_copy_only=False)
        n_stop = (
            np.bincount(parents[stop_mask], minlength=n_rows).astype(np.int64)
            if stop_mask.any()
            else np.zeros(n_rows, np.int64)
        )
        keep = (
            (n_tokens >= 5)
            & (n_tokens <= 1000)
            & (2 * n_tokens <= sum_len)
            & (sum_len <= 10 * n_tokens)
            & (10 * n_punct < n_tokens)
            & (n_stop >= 2)
        )
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_tokens": pa.array(n_tokens),
                "keep": pa.array(keep),
            }
        )

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


# same tokenizer contract as doc_quality (lowercase \S+ split,
# empties dropped; punct on RAW text), every rule as the identical
# integer comparison; sum of token lengths = length of the
# separator-free concat
register("gopher_filter", q_gopher_filter, oracle=r"""
        WITH s AS (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '\S+') AS ts,
                   len(regexp_extract_all(text, '[^A-Za-z0-9_\s]'))::BIGINT AS n_punct
            FROM documents
        )
        SELECT doc_id,
               len(ts)::BIGINT AS n_tokens,
               (len(ts) BETWEEN 5 AND 1000
                AND 2*len(ts) <= length(array_to_string(ts, ''))
                AND length(array_to_string(ts, '')) <= 10*len(ts)
                AND 10*n_punct < len(ts)
                AND len(list_filter(ts, x -> x IN ('the', 'a'))) >= 2) AS keep
        FROM s
    """)


def q_token_stream_pack(sf_dir: str, bucket_width: int = 1 << 16):
    """GPT-style token-stream packing: concatenate every document's
    tokens in doc_id order into ONE global stream and emit fixed
    32-token windows that CROSS document boundaries (doc_chunks is the
    per-doc variant; sequence_pack never splits a doc).  The global
    position problem is a distributed prefix sum, now fully TWO-LEVEL
    (VERDICT r04 item 4 — driver state ∝ buckets, not docs): pass 1
    map-counts tokens per doc and combines them into per-BUCKET
    subtotals (bucket = doc_id // 2^16, a contiguous id range, so the
    bucket decomposition of the doc_id-ordered stream is exact); the
    driver cumsums ONE int per bucket into broadcast bucket bases;
    the within-bucket doc offsets are computed DISTRIBUTED by a
    groupby(bucket) cumsum over (doc_id, n_tokens) pairs — 16-byte
    rows, the text never moves for this; the per-doc start then
    reaches the text stream through lookup_join_auto (broadcast under
    joins.BROADCAST_BYTE_CAP, bucketed task-shuffle join beyond — so no
    path ever holds one int per doc on the driver).  Pass 2 re-tokenizes
    map-side and emits one PRE-JOINED segment row per (doc, window)
    overlap — the window shuffle moves ~n_windows + n_docs short
    string rows, never per-token rows — and a window groupby stitches
    segments in offset order.  The oracle rebuilds the stream
    declaratively with row_number() over (doc_id, position)."""
    import ray

    from ..functions.textstats import token_count

    W = 32
    # materialized: the (doc_id, n_tokens) view feeds BOTH the bucket
    # subtotal pass and the within-bucket cumsum — 16 bytes/doc in the
    # object store (spillable) buys back a whole corpus re-tokenize
    counts = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(
            lambda b: token_count(b).select(["doc_id", "n_tokens"]),
            batch_format="pyarrow",
        )
        .materialize()
    )

    # level 1: per-bucket subtotals (combined map-side; the driver
    # folds blocks x buckets-per-block tiny rows, then cumsums buckets)
    def bucket_partials(b: pa.Table) -> pa.Table:
        did = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        nt = b.column("n_tokens").to_numpy(zero_copy_only=False).astype(np.int64)
        ub, inv = np.unique(did // bucket_width, return_inverse=True)
        sums = np.zeros(len(ub), np.int64)
        np.add.at(sums, inv, nt)
        return pa.table(
            {"bucket": pa.array(ub, pa.int64()), "sub": pa.array(sums, pa.int64())}
        )

    part_rows = counts.map_batches(bucket_partials, batch_format="pyarrow").take_all()
    pb = np.asarray([r["bucket"] for r in part_rows], np.int64)
    ps = np.asarray([r["sub"] for r in part_rows], np.int64)
    buckets = np.unique(pb)
    totals = np.zeros(len(buckets), np.int64)
    np.add.at(totals, np.searchsorted(buckets, pb), ps)
    bases = np.r_[np.int64(0), totals.cumsum()][:-1]
    base_ref = ray.put((buckets, bases))

    # level 2: within-bucket exclusive cumsum, distributed (bounded
    # groups: a bucket spans at most bucket_width docs)
    def add_bk(b: pa.Table) -> pa.Table:
        did = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column("__bk", pa.array(did // bucket_width, pa.int64()))

    def within(group: pa.Table) -> pa.Table:
        bks, bases_ = ray.get(base_ref)
        t = group.sort_by([("doc_id", "ascending")])
        did = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        nt = t.column("n_tokens").to_numpy(zero_copy_only=False).astype(np.int64)
        base = int(bases_[np.searchsorted(bks, did[0] // bucket_width)])
        starts = base + np.r_[np.int64(0), nt.cumsum()][:-1]
        return pa.table(
            {"doc_id": pa.array(did, pa.int64()), "start": pa.array(starts, pa.int64())}
        )

    starts_ds = bucket_map_groups(
        counts.map_batches(add_bk, batch_format="pyarrow"), "__bk", within
    )

    tok_re = re.compile(r"\S+")

    def segments(b: pa.Table) -> pa.Table:
        s_all = b.column("__start").to_numpy(zero_copy_only=False)
        w_out, p_out, s_out, c_out = [], [], [], []
        for i, t in enumerate(b.column("text").to_pylist()):
            toks = tok_re.findall(t or "")
            if not toks:
                continue
            s0 = int(s_all[i])
            j = 0
            while j < len(toks):
                w = (s0 + j) // W
                k = min(len(toks), (w + 1) * W - s0)
                w_out.append(w)
                p_out.append(s0 + j)
                s_out.append(" ".join(toks[j:k]))
                c_out.append(k - j)
                j = k
        return pa.table(
            {
                "window_id": pa.array(np.asarray(w_out, np.int64)),
                "pos": pa.array(np.asarray(p_out, np.int64)),
                "seg": pa.array(s_out, pa.string()),
                "n": pa.array(np.asarray(c_out, np.int64)),
            }
        )

    def assemble(group: pa.Table) -> pa.Table:
        t = group.sort_by([("window_id", "ascending"), ("pos", "ascending")])
        w = t.column("window_id").to_numpy(zero_copy_only=False)
        segs = _single_chunk_q(t.column("seg")).to_pylist()
        n = t.column("n").to_numpy(zero_copy_only=False)
        if len(w) == 0:
            return pa.table(
                {
                    "window_id": pa.array([], pa.int64()),
                    "text": pa.array([], pa.string()),
                    "n_tokens": pa.array([], pa.int64()),
                }
            )
        new = np.r_[True, w[1:] != w[:-1]]
        starts_r = np.flatnonzero(new)
        ends_r = np.r_[starts_r[1:], len(w)]
        return pa.table(
            {
                "window_id": pa.array(w[starts_r]),
                "text": pa.array(
                    [" ".join(segs[s:e]) for s, e in zip(starts_r, ends_r)],
                    pa.string(),
                ),
                "n_tokens": pa.array(
                    np.add.reduceat(n, starts_r).astype(np.int64)
                ),
            }
        )

    joined = lookup_join_auto(
        _docs(sf_dir, columns=["doc_id", "text"], num_blocks=8),
        starts_ds,
        "doc_id",
        "doc_id",
        "start",
        "__start",
    )
    return (
        joined.map_batches(segments, batch_format="pyarrow")
        .groupby("window_id")
        .map_groups(assemble, batch_format="pyarrow")
    )


# the global token stream rebuilt declaratively: per-doc ordinality
# via the struct-comprehension unnest (chunk_dedup's pattern), one
# row_number() over (doc_id, position), fixed 32-token windows
register("token_stream_pack", q_token_stream_pack, oracle=r"""
        WITH toks AS (
            SELECT doc_id, u['p'] AS p, u['t'] AS t
            FROM (
                SELECT doc_id,
                       unnest([{'p': i, 't': ts[i+1]}
                               FOR i IN generate_series(0, len(ts)-1)]) AS u
                FROM (SELECT doc_id, regexp_extract_all(text, '\S+') AS ts
                      FROM documents)
                WHERE len(ts) > 0
            )
        ),
        g AS (
            SELECT t, (row_number() OVER (ORDER BY doc_id, p)) - 1 AS gp
            FROM toks
        )
        SELECT gp // 32 AS window_id,
               string_agg(t, ' ' ORDER BY gp) AS text,
               count(*)::BIGINT AS n_tokens
        FROM g GROUP BY 1
    """)


def q_global_rank(sf_dir: str):
    """Global window rank — ``row_number() OVER (ORDER BY n_chars DESC,
    doc_id)`` — an operator Ray Data lacks natively, composed with the
    same bounded-histogram discipline as exact_group_quantiles: pass 1
    collects the per-value counts of the LOW-CARDINALITY sort key
    (driver holds |distinct n_chars| rows, NOT the corpus), turning the
    cumulative histogram into a broadcast base-offset table; pass 2
    hash-shuffles once on the value and assigns the within-value order
    by doc_id + base offset per group.  No global sort of the data, no
    driver materialization of rows."""
    ds = _docs(sf_dir, columns=["doc_id", "n_chars"]).map_batches(
        lambda b: b.select(["doc_id", "n_chars"]), batch_format="pyarrow"
    )
    hist = ds.groupby("n_chars").aggregate(Count()).to_pandas()
    hist = hist.sort_values("n_chars", ascending=False)
    base = dict(
        zip(hist["n_chars"], hist["count()"].cumsum().shift(fill_value=0).astype(int))
    )

    def rk(group: pa.Table) -> pa.Table:
        g = group.take(pc.sort_indices(group, sort_keys=[("n_chars", "descending"), ("doc_id", "ascending")]))
        nc = g.column("n_chars").to_numpy(zero_copy_only=False)
        # within-call offsets restart at each distinct value (defensive
        # multi-group handling, same convention as pack_sequences)
        new = np.r_[True, nc[1:] != nc[:-1]]
        seg = np.flatnonzero(new)
        local = np.arange(len(nc)) - np.repeat(seg, np.diff(np.r_[seg, len(nc)]))
        offs = np.array([base[v] for v in nc[seg]])
        rank = np.repeat(offs, np.diff(np.r_[seg, len(nc)])) + local + 1
        return g.append_column("rank", pa.array(rank.astype(np.int64), pa.int64()))

    return ds.groupby("n_chars").map_groups(
        rk, batch_format="pyarrow"
    )


register("global_rank", q_global_rank, oracle="""
        SELECT doc_id, n_chars,
               row_number() OVER (ORDER BY n_chars DESC, doc_id ASC) AS rank
        FROM documents
    """)


def q_curate(sf_dir: str):
    """End-to-end curation capstone — the chain a training-data team
    actually runs, composed from this engine's own operators in ONE
    streaming pipeline: MinHash+LSH near-dedup (sketch-only shuffle,
    distributed verify) -> Gopher-style repetition filter (vectorized,
    map-side) -> deterministic md5-prefix train/val/test split ->
    per-split (docs, tokens) rollup.  Everything between the dedup
    shuffle and the tiny final groupby is embarrassingly parallel; no
    driver materialization anywhere.  The oracle recomputes the WHOLE
    chain in SQL (oracles.sql_curate: full MinHash sketch CTE +
    bigram-list repetition metrics + split cases)."""
    from ..functions.textstats import repetition_stats

    surv = minhash_lsh_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]),
        threshold=0.8,
        num_buckets=16,
    )

    def stage(b: pa.Table) -> pa.Table:
        r = repetition_stats(b)
        keep = r.filter(pc.equal(r.column("keep"), 1))
        pfx = md5_hex(keep.column("text"), prefix=2)
        split = pc.if_else(
            pc.less(pfx, "cc"),
            pa.scalar("train"),
            pc.if_else(pc.less(pfx, "e6"), pa.scalar("val"), pa.scalar("test")),
        )
        return pa.table({"split": split, "n_tokens": keep.column("n_tokens")})

    return (
        surv.map_batches(stage, batch_format="pyarrow")
        .groupby("split")
        .aggregate(Count(), Sum("n_tokens"))
        .map_batches(
            lambda b: pa.table(
                {
                    "split": b.column("split"),
                    "n_docs": pc.cast(b.column("count()"), pa.int64()),
                    "total_tokens": pc.cast(b.column("sum(n_tokens)"), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


register("curate", q_curate, oracle=_orc.sql_curate(threshold=0.8))


_MIX_RATES = {"src0": 2.5, "src1": 1.0, "src2": 0.4, "src3": 0.0}


def q_mixture_sample(sf_dir: str):
    """Per-domain mixture sampling at target rates (upsample src0 2.5x,
    drop src3, thin everything else to 0.25) — map-side only, zero
    shuffles; decisions are md5-prefix string compares shared with the
    SQL oracle."""

    ds = _docs(sf_dir, columns=["doc_id", "source"])
    return mixture_sample(ds, _MIX_RATES, default_rate=0.25)


register("mixture_sample", q_mixture_sample, oracle=_sql_mix(_MIX_RATES, default_rate=0.25))


def q_heavy_hitters(sf_dir: str, k: int = 30):
    """Distributed heavy hitters (terms with global frequency >
    total_tokens/k) via the two-pass sketch-then-verify pattern — the
    shape that works when the vocabulary does NOT fit a groupby at
    corpus scale:

    1. candidate pass: each batch emits only terms with batch count >
       batch_tokens/k.  Pigeonhole guarantees this is a SUPERSET of
       the global heavy hitters (a term ≤ the threshold in every batch
       is ≤ it globally), and each batch emits at most k-1 candidates,
       so the collected candidate set is bounded by k x n_blocks
       before dedup — independent of vocabulary size.
    2. verify pass: broadcast the candidate set, count ONLY candidate
       occurrences per batch (Arrow is_in + bincount), sum, and apply
       the exact global threshold.  Result is exact, not approximate.
    """
    from ..functions.textstats import _tokens

    def candidates(b: pa.Table) -> pa.Table:
        flat, parents, _ = _tokens(_single_chunk_q(b.column("text")))
        if len(flat) == 0:
            return pa.table({"term": pa.array([], pa.string())})
        enc = _single_chunk_q(pc.dictionary_encode(flat))
        cnt = np.bincount(enc.indices.to_numpy(zero_copy_only=False))
        keep = np.flatnonzero(cnt > len(flat) / k)
        return pa.table({"term": enc.dictionary.take(pa.array(keep))})

    cand = (
        _docs(sf_dir, columns=["text"])
        .map_batches(candidates, batch_format="pyarrow")
        .to_pandas()["term"]
        .unique()
    )
    cand_arr = pa.array(sorted(cand), pa.string())
    cand_idx = {t: i for i, t in enumerate(cand_arr.to_pylist())}

    def verify(b: pa.Table) -> pa.Table:
        flat, _, _ = _tokens(_single_chunk_q(b.column("text")))
        n_tok = len(flat)
        counts = np.zeros(len(cand_arr), np.int64)
        if n_tok:
            m = pc.is_in(flat, value_set=cand_arr).to_numpy(zero_copy_only=False)
            if m.any():
                hits = flat.filter(pa.array(m))
                enc = _single_chunk_q(pc.dictionary_encode(hits))
                local = np.bincount(enc.indices.to_numpy(zero_copy_only=False))
                for t, c in zip(enc.dictionary.to_pylist(), local):
                    counts[cand_idx[t]] += int(c)
        return pa.table(
            {
                "term": cand_arr,
                "cnt": pa.array(counts, pa.int64()),
                "n_tok": pa.array(np.full(len(cand_arr), n_tok), pa.int64()),
            }
        )

    agg = (
        _docs(sf_dir, columns=["text"])
        .map_batches(verify, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt"), Sum("n_tok"))
        .to_pandas()
    )
    total = int(agg["sum(n_tok)"].iloc[0]) if len(agg) else 0
    out = agg[agg["sum(cnt)"] > total / k][["term", "sum(cnt)"]].rename(
        columns={"sum(cnt)": "cnt"}
    )
    out["cnt"] = out["cnt"].astype("int64")
    return out.reset_index(drop=True)


# exact heavy hitters: terms with global frequency > total/30
register("heavy_hitters", q_heavy_hitters, oracle=r"""
        WITH toks AS (
            SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS term
            FROM documents
        ), tot AS (SELECT count(*) AS n FROM toks)
        SELECT term, count(*)::BIGINT AS cnt
        FROM toks, tot
        GROUP BY term, n
        HAVING count(*) > n / 30.0
    """)


def q_lm_perplexity(sf_dir: str):
    """Bigram-LM perplexity scoring (the CCNet-style quality signal:
    score each doc by a language model trained on the corpus itself).
    Two distributed stages: (1) bigram counts via map-side combined
    partials (textstats.bigram_partials — the shuffle moves one row
    per DISTINCT bigram per block) + a small groupby-sum; (2) the LM
    table is collected driver-side — bounded by the corpus' DISTINCT
    bigram vocabulary, NOT its row count — and broadcast into a
    vectorized scorer (at 100-TB scale: prune to top-K bigrams and
    ``ray.put`` the arrays; the scorer shape is unchanged).  Per doc:
    perplexity = exp(mean over bigrams of -ln c(w1,w2)/c(w1·)).
    MLE probabilities are exact (every scored bigram is in the LM by
    construction)."""
    from ..functions.textstats import _tokens, bigram_partials

    lm = (
        _docs(sf_dir, columns=["text"])
        .map_batches(lambda b: bigram_partials(b), batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(Sum("cnt"))
        .to_pandas()
    )
    # driver-side LM build: |distinct bigrams| rows (documented bound)
    c2 = {
        (a, b): int(c) for a, b, c in zip(lm["w1"], lm["w2"], lm["sum(cnt)"])
    }
    c1: dict[str, int] = {}
    for (a, _b), c in c2.items():
        c1[a] = c1.get(a, 0) + c

    def score(b: pa.Table) -> pa.Table:
        flat, parents, n_rows = _tokens(_single_chunk_q(b.column("text")))
        if len(flat) < 2:
            return pa.table(
                {
                    "doc_id": pa.array([], b.column("doc_id").type),
                    "n_bigrams": pa.array([], pa.int64()),
                    "perplexity": pa.array([], pa.float64()),
                }
            )
        enc = _single_chunk_q(pc.dictionary_encode(flat))
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n_terms = len(enc.dictionary)
        words = enc.dictionary.to_pylist()
        same = parents[1:] == parents[:-1]
        comp = codes[:-1][same] * n_terms + codes[1:][same]
        # Python dict lookups run once per DISTINCT bigram in the
        # batch, then gather back to occurrences; log/mean are numpy
        uniq, inv = np.unique(comp, return_inverse=True)
        surp_u = np.array(
            [
                -np.log(
                    c2[(words[u // n_terms], words[u % n_terms])]
                    / c1[words[u // n_terms]]
                )
                for u in uniq
            ]
        )
        surp = surp_u[inv] if len(uniq) else np.empty(0)
        bg_parents = parents[1:][same]
        n_bg = np.bincount(bg_parents, minlength=n_rows)
        sums = np.bincount(bg_parents, weights=surp, minlength=n_rows)
        has = n_bg > 0
        perp = np.round(np.exp(sums[has] / n_bg[has]), 4)
        return pa.table(
            {
                "doc_id": _single_chunk_q(b.column("doc_id")).filter(
                    pa.array(has)
                ),
                "n_bigrams": pa.array(n_bg[has].astype(np.int64), pa.int64()),
                "perplexity": pa.array(perp, pa.float64()),
            }
        )

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(score, batch_format="pyarrow")


# corpus-trained bigram LM, rebuilt from scratch in SQL: P(w2|w1) =
# c(w1,w2) / c(w1 as a bigram head); perplexity = exp(mean surprisal)
register("lm_perplexity", q_lm_perplexity, oracle=r"""
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS ts
            FROM documents
        ), flat AS (
            SELECT doc_id,
                   unnest([{'w1': ts[i], 'w2': ts[i+1]}
                           FOR i IN generate_series(1, len(ts)-1)]) AS p
            FROM toks
        ), pairs AS (
            SELECT doc_id, p.w1 AS w1, p.w2 AS w2 FROM flat
        ), uni AS (
            SELECT w1, count(*) AS c1 FROM pairs GROUP BY w1
        ), bi AS (
            SELECT w1, w2, count(*) AS c2 FROM pairs GROUP BY w1, w2
        )
        SELECT doc_id,
               count(*)::BIGINT AS n_bigrams,
               round(exp(avg(-ln(c2::DOUBLE / c1))), 4) AS perplexity
        FROM pairs JOIN bi USING (w1, w2) JOIN uni USING (w1)
        GROUP BY doc_id
    """)


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag every doc sharing a 5-token
    shingle with the held-out benchmark slice (doc_id % 29 == 0) — the
    n-gram-overlap contamination check run before training.  The
    benchmark shingle set is the SMALL side: built distributed, then
    collected and broadcast into a vectorized membership scan (at
    cluster scale: ``ray.put`` once, read per task — never a shuffle
    of the big side).  Shingle strings are built with a strided gather
    + one ``binary_join`` per batch; membership is one Arrow ``is_in``."""
    from ..functions.textstats import ngram_strings

    N = 5

    def shingles_of(b: pa.Table) -> tuple[pa.Array, np.ndarray, int]:
        return ngram_strings(_single_chunk_q(b.column("text")), N)

    def bench_shingles(b: pa.Table) -> pa.Table:
        ids = pc.cast(_single_chunk_q(b.column("doc_id")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        sub = b.filter(pa.array(ids % 29 == 0))
        sh, _, _ = shingles_of(sub)
        return pa.table({"s": pc.unique(sh)})

    bench = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(bench_shingles, batch_format="pyarrow")
        .to_pandas()["s"]
        .unique()
    )
    bench_arr = pa.array(sorted(bench), pa.string())

    def flag(b: pa.Table) -> pa.Table:
        sh, parents, n_rows = shingles_of(b)
        hit = np.zeros(n_rows, bool)
        if len(sh):
            m = pc.is_in(sh, value_set=bench_arr).to_numpy(zero_copy_only=False)
            if m.any():
                hit[np.unique(parents[m])] = True
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "contaminated": pa.array(hit.astype(np.int64), pa.int64()),
            }
        )

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(flag, batch_format="pyarrow")


# 5-token shingle overlap against the held-out benchmark slice
register("decontaminate", q_decontaminate, oracle=r"""
        WITH toks AS (
            SELECT doc_id, regexp_extract_all(lower(text), '\S+') AS ts
            FROM documents
        ), sh AS (
            SELECT doc_id,
                   [array_to_string(ts[i:i+4], ' ')
                    FOR i IN generate_series(1, len(ts)-4)] AS shs
            FROM toks
        ), bench AS (
            SELECT DISTINCT unnest(shs) AS s FROM sh WHERE doc_id % 29 = 0
        )
        SELECT d.doc_id,
               (EXISTS (SELECT 1 FROM bench b
                        WHERE list_contains(d.shs, b.s)))::BIGINT AS contaminated
        FROM sh d
    """)


def q_dup_ngram_frac(sf_dir: str):
    """Cross-document duplicated-n-gram fraction (the RefinedWeb/Gopher
    quality signal `repetition_stats` can't see: n-grams repeated
    ACROSS documents, not within one) — dedup.dup_ngram_stats over the
    documents table.  Grams are FNV shingle hashes (the exact chain
    oracles.sql_dup_ngram_frac recomputes in DuckDB HUGEINT), so only
    int-sized rows ever shuffle; the gram-STRING variant measured ~3x
    slower (14.0 s vs 5.1 s at sf0.1/32 cpus)."""

    return dup_ngram_stats(_docs(sf_dir, columns=["doc_id", "text"]), n=5)


register("dup_ngram_frac", q_dup_ngram_frac, oracle=_orc.sql_dup_ngram_frac(n=5))


def q_bpe_pairs(sf_dir: str):
    """Top-50 adjacent character pairs within lowercase tokens — the
    counting step of one BPE merge iteration (tokenizer training over
    the corpus).  Map-side combine (`char_pair_partials`: one bincount
    + a loop over DISTINCT tokens only), global ``groupby(pair).sum``
    over a few hundred distinct pairs, deterministic (cnt desc, pair
    asc) cut driver-side — the global result is vocabulary-sized, so
    collecting it is the correct plan at any corpus scale."""
    from ..functions.textstats import char_pair_partials

    out = (
        _docs(sf_dir, columns=["text"])
        .map_batches(char_pair_partials, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("cnt"))
        .to_pandas()
        .rename(columns={"sum(cnt)": "cnt"})
        .sort_values(["cnt", "pair"], ascending=[False, True], ignore_index=True)
        .head(50)
    )
    out["cnt"] = out["cnt"].astype("int64")
    return out


# adjacent character pairs within lowercase tokens, global top-50
register("bpe_pairs", q_bpe_pairs, oracle=r"""
        WITH toks AS (
            SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS w
            FROM documents
        ), pairs AS (
            SELECT unnest([substr(w, i, 2)
                           FOR i IN generate_series(1, length(w)-1)]) AS pair
            FROM toks WHERE length(w) >= 2
        )
        SELECT pair, count(*)::BIGINT AS cnt
        FROM pairs GROUP BY pair
        ORDER BY cnt DESC, pair ASC
        LIMIT 50
    """)


def _apply_merge(syms: list[str], x: str, y: str) -> list[str]:
    """Greedy left-to-right non-overlapping BPE merge of (x, y)."""
    out = []
    i, n = 0, len(syms)
    while i < n:
        if i + 1 < n and syms[i] == x and syms[i + 1] == y:
            out.append(x + y)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def _distinct_token_counts(texts_col) -> tuple[list[str], np.ndarray]:
    """Vectorized (distinct lowercase whitespace tokens, instance
    counts) for a batch — Arrow split/lower/dictionary-encode +
    bincount; Python only materializes the DISTINCT token strings
    (the unit BPE's merge replay inherently needs)."""
    texts = _single_chunk_q(texts_col)
    toks = pc.utf8_split_whitespace(pc.utf8_lower(pc.fill_null(texts, "")))
    flat = _single_chunk_q(pc.list_flatten(toks))
    nonempty = pc.greater(pc.utf8_length(flat), 0)
    flat = flat.filter(nonempty)
    if len(flat) == 0:
        return [], np.zeros(0, np.int64)
    enc = _single_chunk_q(pc.dictionary_encode(flat))
    codes = enc.indices.to_numpy(zero_copy_only=False)
    counts = np.bincount(codes, minlength=len(enc.dictionary)).astype(np.int64)
    return enc.dictionary.to_pylist(), counts


def q_bpe_train(sf_dir: str):
    """Iterative BPE tokenizer TRAINING (4 merge rounds) — the full
    loop bpe_pairs counts one step of.  Each round is one streaming
    pass over the corpus: map tasks tokenize, re-derive every token's
    current symbol sequence by replaying the merges chosen so far
    (broadcast via closure — bytes, not a shuffle), and emit per-batch
    pair partials over DISTINCT tokens only; the global
    groupby(left,right).sum is vocabulary-sized, so collecting it and
    picking the winner (cnt desc, then (left, right) asc) driver-side
    is the correct plan at any corpus scale.  The corpus itself never
    materializes and no per-round state lives anywhere but the ≤4-pair
    merge list.  The oracle replays the identical loop in DuckDB as
    chained CTEs over a doubled-space symbol encoding, where
    ``replace`` reproduces greedy left-to-right non-overlapping
    merging exactly."""
    from collections import Counter

    import pandas as pd

    EMPTY = pa.table(
        {
            "left_sym": pa.array([], pa.string()),
            "right_sym": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()),
        }
    )
    merges: list[tuple[str, str]] = []
    rows = []
    for rnd in range(1, 5):
        m = list(merges)

        def partial(b: pa.Table, m=m) -> pa.Table:
            # tokenize VECTORIZED (utf8_lower + split + dictionary
            # encode); Python touches only the per-batch DISTINCT
            # tokens, where the merge replay is inherent to BPE
            toks = dict(zip(*_distinct_token_counts(b.column("text"))))
            pairs: Counter = Counter()
            for w, c in toks.items():
                syms = list(w)
                for x, y in m:
                    syms = _apply_merge(syms, x, y)
                for i in range(len(syms) - 1):
                    pairs[(syms[i], syms[i + 1])] += c
            if not pairs:
                return EMPTY
            items = list(pairs.items())
            return pa.table(
                {
                    "left_sym": pa.array([k[0] for k, _ in items], pa.string()),
                    "right_sym": pa.array([k[1] for k, _ in items], pa.string()),
                    "cnt": pa.array([v for _, v in items], pa.int64()),
                }
            )

        agg = (
            _docs(sf_dir, columns=["text"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(["left_sym", "right_sym"])
            .aggregate(Sum("cnt"))
            .take_all()  # bounded: the running pair vocabulary
        )
        best = max(
            agg, key=lambda r: (r["sum(cnt)"], _NEG_STR(r["left_sym"]), _NEG_STR(r["right_sym"]))
        )
        merges.append((best["left_sym"], best["right_sym"]))
        rows.append(
            {
                "round": rnd,
                "left_sym": best["left_sym"],
                "right_sym": best["right_sym"],
                "cnt": int(best["sum(cnt)"]),
            }
        )
    out = pd.DataFrame(rows)
    out["round"] = out["round"].astype(np.int64)
    out["cnt"] = out["cnt"].astype(np.int64)
    return out


# iterative BPE training: 4 chained merge rounds.  Symbol strings
# use DOUBLE-space separators + single-space padding so replace()
# reproduces greedy left-to-right non-overlapping merging (every
# symbol owns one space on each side; consecutive matches stay
# matchable).  Tie-break (cnt DESC, l ASC, r ASC) mirrors the
# engine's driver-side winner pick exactly.
register("bpe_train", q_bpe_train, oracle=_BPE_CHAIN
    + """
        SELECT * FROM (
            SELECT 1::BIGINT AS round, l AS left_sym, r AS right_sym, cnt FROM b1
            UNION ALL SELECT 2::BIGINT, l, r, cnt FROM b2
            UNION ALL SELECT 3::BIGINT, l, r, cnt FROM b3
            UNION ALL SELECT 4::BIGINT, l, r, cnt FROM b4
        ) ORDER BY round
    """)


def q_bpe_vocab(sf_dir: str):
    """The APPLY half of tokenizer training: run the 4 merges
    bpe_train chooses over the corpus and count the resulting symbol
    vocabulary (top-30 by count, symbol asc tie-break).  One extra
    streaming pass after the training loop — map tasks replay the
    broadcast merge list per DISTINCT token and emit symbol partials;
    the groupby is vocabulary-sized.  The oracle extends bpe_train's
    chained CTEs one step: unnest t4's symbol strings and count."""
    from collections import Counter

    train = q_bpe_train(sf_dir)
    merges = list(zip(train["left_sym"], train["right_sym"]))

    def partial(b: pa.Table) -> pa.Table:
        toks = dict(zip(*_distinct_token_counts(b.column("text"))))
        syms: Counter = Counter()
        for w, c in toks.items():
            s = list(w)
            for x, y in merges:
                s = _apply_merge(s, x, y)
            for sym in s:
                syms[sym] += c
        items = list(syms.items())
        return pa.table(
            {
                "symbol": pa.array([k for k, _ in items], pa.string()),
                "cnt": pa.array([v for _, v in items], pa.int64()),
            }
        )

    out = (
        _docs(sf_dir, columns=["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("symbol")
        .aggregate(Sum("cnt"))
        .to_pandas()
        .rename(columns={"sum(cnt)": "cnt"})
        .sort_values(["cnt", "symbol"], ascending=[False, True], ignore_index=True)
        .head(30)
    )
    out["cnt"] = out["cnt"].astype(np.int64)
    return out


# the APPLY half: unnest t4's merged symbol strings and count
register("bpe_vocab", q_bpe_vocab, oracle=_BPE_CHAIN
    + """
        SELECT sym AS symbol, count(*)::BIGINT AS cnt
        FROM (SELECT unnest(str_split(s, '  ')) AS sym FROM t4)
        GROUP BY sym
        ORDER BY cnt DESC, symbol ASC
        LIMIT 30
    """)


class _NEG_STR:
    """Inverts string comparison so max() realizes (cnt DESC, str ASC)."""

    __slots__ = ("s",)

    def __init__(self, s: str):
        self.s = s

    def __lt__(self, other: "_NEG_STR") -> bool:
        return self.s > other.s

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NEG_STR) and self.s == other.s


def q_stratified_sample(sf_dir: str):
    """Stratified deterministic sample: the 5 docs per language with
    the smallest md5(text) (doc_id tie-break) — the rerun- and
    reshard-stable eval-set draw (each stratum contributes exactly
    min(5, |stratum|) rows, unlike Bernoulli thinning).  Each block
    PRE-SELECTS its own 5 smallest fingerprints per language map-side
    (the global winners are a subset of the union), so the lang
    shuffle moves <= langs x 5 rows per block — never a whole stratum;
    per-group rank is the sort + run-rank trick (no pandas)."""

    def fp(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": b.column("lang"),
                "doc_id": b.column("doc_id"),
                "fp": md5_hex(b.column("text")),
            }
        )

    def topk(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return group
        t = group.sort_by(
            [("lang", "ascending"), ("fp", "ascending"), ("doc_id", "ascending")]
        )
        return t.filter(pa.array(_run_rank(t.column("lang")) < 5))

    ds = (
        _docs(sf_dir, columns=["doc_id", "lang", "text"])
        .map_batches(fp, batch_format="pyarrow")
        .map_batches(topk, batch_format="pyarrow")  # map-side pre-select
    )

    return ds.groupby("lang").map_groups(
        topk, batch_format="pyarrow"
    )


# stratified deterministic sample: 5 smallest md5(text) per lang
register("stratified_sample", q_stratified_sample, oracle="""
        SELECT lang, doc_id, fp FROM (
            SELECT lang, doc_id, md5(text) AS fp,
                   row_number() OVER (
                       PARTITION BY lang ORDER BY md5(text), doc_id
                   ) AS rk
            FROM documents
        ) WHERE rk <= 5
    """)


def q_source_drift(sf_dir: str):
    """Per-source distribution-drift monitor (mixture-health at scale):
    each source's hashed-unigram histogram (FNV % 1024 — the DSIR
    featurizer) is compared to the GLOBAL corpus histogram by exact
    histogram intersection, reported in parts-per-million:
    ``overlap_ppm = (10^6 * Σ_b min(c_sb * C, c_b * C_s)) //
    (C_s * C)`` — an EXACT integer of integer counts (no float, no
    transcendental; 1e6 ppm = identical distribution).  100-TB shape:
    map-side per-(source, bucket) partial counts (sources are bounded),
    ONE small distributed groupby fold, and the bounded
    sources x 1024 table does the bigint ppm math on the driver."""
    from ..functions.sketch import token_hashes

    nb = np.uint64(DRIFT_BUCKETS)
    docs = _docs(sf_dir, columns=["source", "text"])

    def partials(b: pa.Table) -> pa.Table:
        h, parents, _ = token_hashes(_single_chunk_q(b.column("text")))
        src = _single_chunk_q(b.column("source"))
        enc = _single_chunk_q(pc.dictionary_encode(src))
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        names = enc.dictionary
        if len(h) == 0:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "bucket": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        bk = (h % nb).astype(np.int64)
        key = codes[parents] * DRIFT_BUCKETS + bk
        uk, counts = np.unique(key, return_counts=True)
        return pa.table(
            {
                "source": names.take(pa.array(uk // DRIFT_BUCKETS, pa.int64())),
                "bucket": pa.array(uk % DRIFT_BUCKETS, pa.int64()),
                "cnt": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    rows = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby(["source", "bucket"])
        .aggregate(Sum("cnt"))
        .take_all()
    )
    hists: dict[str, np.ndarray] = {}
    for r in rows:
        hists.setdefault(r["source"], np.zeros(DRIFT_BUCKETS, np.int64))[
            r["bucket"]
        ] = int(r["sum(cnt)"])
    glob = np.zeros(DRIFT_BUCKETS, np.int64)
    for v in hists.values():
        glob += v
    C = int(glob.sum())
    out = []
    for s in sorted(hists):
        hs = hists[s]
        Cs = int(hs.sum())
        inter = sum(
            min(int(hs[i]) * C, int(glob[i]) * Cs) for i in range(DRIFT_BUCKETS)
        )
        ppm = (1_000_000 * inter) // (Cs * C) if Cs and C else 0
        out.append({"source": s, "n_tokens": Cs, "overlap_ppm": int(ppm)})
    return pa.Table.from_pylist(
        out,
        schema=pa.schema(
            [
                ("source", pa.string()),
                ("n_tokens", pa.int64()),
                ("overlap_ppm", pa.int64()),
            ]
        ),
    )


register("source_drift", q_source_drift, oracle=_orc.sql_source_drift())


def q_quality_zscore(sf_dir: str):
    """Per-group z-score normalization (the per-language score
    calibration step before threshold filtering): z = (n_chars - mean)
    / stddev_pop within each lang.  Two-stage broadcast plan — map-side
    integer partials (sum, sum of squares, count) per lang, a 5-row
    global rollup collected and broadcast, then one vectorized pass.
    The integer moments are EXACT (no float accumulation order), and
    the oracle recomputes mean/var with the same naive formula in the
    same IEEE order, so both engines feed bit-identical doubles into
    round()."""

    def partials(b: pa.Table) -> pa.Table:
        nc = b.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        enc = _single_chunk_q(pc.dictionary_encode(b.column("lang")))
        codes = enc.indices.to_numpy(zero_copy_only=False)
        k = len(enc.dictionary)
        return pa.table(
            {
                "lang": enc.dictionary,
                "s1": pa.array(np.bincount(codes, weights=nc, minlength=k).astype(np.int64), pa.int64()),
                "s2": pa.array(np.bincount(codes, weights=nc * nc, minlength=k).astype(np.int64), pa.int64()),
                "c": pa.array(np.bincount(codes, minlength=k).astype(np.int64), pa.int64()),
            }
        )

    stats = (
        _docs(sf_dir, columns=["lang", "n_chars"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("s1"), Sum("s2"), Sum("c"))
        .to_pandas()
    )
    mom = {
        r["lang"]: (int(r["sum(s1)"]), int(r["sum(s2)"]), int(r["sum(c)"]))
        for _, r in stats.iterrows()
    }

    def zscore(b: pa.Table) -> pa.Table:
        # dictionary-encoded lang -> per-UNIQUE-lang moment lookup, then
        # one vectorized gather (no per-row Python loop); sd == 0
        # (a lang whose n_chars is constant) emits z = 0 instead of
        # inf/NaN — the oracle mirrors with the same CASE
        nc = b.column("n_chars").to_numpy(zero_copy_only=False).astype(np.float64)
        enc = _single_chunk_q(pc.dictionary_encode(b.column("lang")))
        codes = enc.indices.to_numpy(zero_copy_only=False)
        dvals = enc.dictionary.to_pylist()
        m_lut = np.empty(len(dvals))
        v_lut = np.empty(len(dvals))
        for j, lg in enumerate(dvals):
            s1, s2, c = mom[lg]
            m = s1 / c
            m_lut[j] = m
            v_lut[j] = s2 / c - m * m
        mean, var = m_lut[codes], v_lut[codes]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (nc - mean) / np.sqrt(var)
        z = np.round(np.where(var <= 0, 0.0, z), 6)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "lang": b.column("lang"),
                "n_chars": b.column("n_chars"),
                "zscore": pa.array(z, pa.float64()),
            }
        )

    return _docs(sf_dir, columns=["doc_id", "lang", "n_chars"]).map_batches(
        zscore, batch_format="pyarrow"
    )


# per-lang z-score of n_chars; mean/var from exact integer moments
# with the same naive-formula IEEE order as the Ray side
register("quality_zscore", q_quality_zscore, oracle=r"""
        WITH s AS (
            SELECT lang,
                   sum(n_chars)::BIGINT AS s1,
                   sum(n_chars*n_chars)::BIGINT AS s2,
                   count(*)::BIGINT AS c
            FROM documents GROUP BY lang
        )
        SELECT d.doc_id, d.lang, d.n_chars,
               CASE WHEN s2/c - (s1/c)*(s1/c) <= 0 THEN 0.0
                    ELSE round((d.n_chars - s1/c)
                               / sqrt(s2/c - (s1/c)*(s1/c)), 6)
               END AS zscore
        FROM documents d JOIN s USING (lang)
    """)


class _QualityClassifier:
    """Broadcast-weight logistic quality classifier — the distributed
    model-INFERENCE shape (CCNet / LLaMA-style fastText quality
    scoring): weights ship once via ``ray.put`` and are fetched in
    ``__init__`` (once per actor, not per batch); ``__call__`` computes
    per-doc integer features vectorized and one exact int64 dot
    product.  Integer weights + integer features mean the logit (and
    the keep decision ``logit > 0``) is bit-identical on any engine;
    the reported score is one IEEE division of the exact logit."""

    def __init__(self, weights_ref, passthrough: tuple = ()):
        self.w = ray.get(weights_ref)  # dict[str, int] — once per actor
        self.passthrough = tuple(passthrough)
        from ..functions.textstats import LANG_PROFILES

        self.stopwords = pa.array(sorted(LANG_PROFILES["en"]), pa.string())

    def __call__(self, b: pa.Table) -> pa.Table:
        from ..functions.textstats import _tokens

        texts = _single_chunk_q(b.column("text"))
        n_rows = len(texts)
        n_punct = (
            pc.count_substring_regex(texts, r"[^A-Za-z0-9_\s]")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        flat, parents, _ = _tokens(texts)
        n_tokens = (
            np.bincount(parents, minlength=n_rows).astype(np.int64)
            if len(parents)
            else np.zeros(n_rows, np.int64)
        )
        tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        sum_len = (
            np.bincount(parents, weights=tok_lens, minlength=n_rows).astype(np.int64)
            if len(parents)
            else np.zeros(n_rows, np.int64)
        )
        stop_mask = pc.is_in(flat, value_set=self.stopwords).to_numpy(
            zero_copy_only=False
        )
        n_stop = (
            np.bincount(parents[stop_mask], minlength=n_rows).astype(np.int64)
            if stop_mask.any()
            else np.zeros(n_rows, np.int64)
        )
        w = self.w
        logit = (
            w["bias"]
            + w["tok"] * n_tokens
            + w["len"] * sum_len
            + w["punct"] * n_punct
            + w["stop"] * n_stop
        )
        cols = {
            "doc_id": b.column("doc_id"),
            "score": pa.array(logit / 100.0, pa.float64()),
            "keep": pa.array(logit > 0),
        }
        for c in self.passthrough:
            cols[c] = b.column(c)
        return pa.table(cols)


def q_dsir_select(sf_dir: str, top_n: int = 50):
    """DSIR-style hashed-ngram importance selection (Xie et al. 2023,
    "Data Selection for Language Models via Importance Resampling",
    public arXiv:2302.03169): score every document by how much its
    hashed-unigram distribution looks like a TARGET distribution (here
    the lang='en' slice stands in for the high-quality target) relative
    to the raw corpus, and keep the top-N.  Exact-integer variant for
    cross-engine parity: per-bucket importance is the Laplace-smoothed
    probability ratio quantized once on the driver —
    ``q_b = (t_b * R * DSIR_SCALE) // (r_b * T)`` in Python bigints (t/r =
    bucket counts + 1, T/R their totals) — and a doc's score is the
    plain int64 SUM of q over its token instances (order-free, no
    transcendental in the gate; the paper's log-weight is a one-line
    swap).  100-TB shape: pass 1 emits one (DSIR_BUCKETS)-int partial
    per block for BOTH distributions in a single read (driver folds
    blocks x 1024 ints); pass 2 re-tokenizes map-side against the
    broadcast q-table and emits each block's local top-N — the global
    top-N is a subset of the union, so the driver folds blocks x N
    tiny rows.  FNV-1a token hashes (sketch.token_hashes), mirrored in
    HUGEINT by the oracle's codepoint fold."""
    from ..functions.sketch import token_hashes

    nb = np.uint64(DSIR_BUCKETS)
    docs = _docs(sf_dir, columns=["doc_id", "lang", "text"])

    def bucket_counts(b: pa.Table) -> pa.Table:
        h, parents, _ = token_hashes(_single_chunk_q(b.column("text")))
        bk = (h % nb).astype(np.int64)
        is_t = pc.equal(b.column("lang"), "en").to_numpy(zero_copy_only=False)
        raw = np.bincount(bk, minlength=DSIR_BUCKETS).astype(np.int64)
        tgt = np.bincount(
            bk[is_t[parents]] if len(parents) else bk[:0], minlength=DSIR_BUCKETS
        ).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(np.arange(DSIR_BUCKETS, dtype=np.int64)),
                "tgt": pa.array(tgt),
                "raw": pa.array(raw),
            }
        )

    # distributed fold of the per-block partials: one tiny shuffle of
    # blocks x 1024 int rows, exactly 1024 rows reach the driver (a
    # raw take_all of the partials would grow with the block count)
    folded = (
        docs.map_batches(bucket_counts, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("tgt"), Sum("raw"))
        .take_all()
    )
    tgt = np.zeros(DSIR_BUCKETS, np.int64)
    raw = np.zeros(DSIR_BUCKETS, np.int64)
    for r in folded:
        tgt[r["bucket"]] = int(r["sum(tgt)"])
        raw[r["bucket"]] = int(r["sum(raw)"])
    # quantized ratio table in PYTHON ints (no int64 overflow at any
    # corpus size); values are bounded by DSIR_SCALE * R/T so the shipped
    # table is plain int64
    t_b = [int(x) + 1 for x in tgt]
    r_b = [int(x) + 1 for x in raw]
    T, R = sum(t_b), sum(r_b)
    q_tab = np.array(
        [(t_b[i] * R * DSIR_SCALE) // (r_b[i] * T) for i in range(DSIR_BUCKETS)], np.int64
    )
    q_ref = ray.put(q_tab)

    def local_top(b: pa.Table) -> pa.Table:
        q = ray.get(q_ref)
        h, parents, n_rows = token_hashes(_single_chunk_q(b.column("text")))
        s = np.zeros(n_rows, np.int64)
        if len(h):
            np.add.at(s, parents, q[(h % nb).astype(np.int64)])
        did = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((did, -s))[:top_n]
        return pa.table(
            {
                "doc_id": pa.array(did[order], pa.int64()),
                "score": pa.array(s[order], pa.int64()),
            }
        )

    def refold(b: pa.Table) -> pa.Table:
        # same (score desc, doc_id) top-N over a batch of block
        # partials — an intermediate fold so the driver sees
        # ~(blocks/`batch_size`) x N rows, not blocks x N
        did = b.column("doc_id").to_numpy(zero_copy_only=False)
        s = b.column("score").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, -s))[:top_n]
        return pa.table(
            {
                "doc_id": pa.array(did[order], pa.int64()),
                "score": pa.array(s[order], pa.int64()),
            }
        )

    tops = (
        docs.map_batches(local_top, batch_format="pyarrow")
        .map_batches(refold, batch_size=8192, batch_format="pyarrow")
        .take_all()
    )
    did = np.asarray([r["doc_id"] for r in tops], np.int64)
    sc = np.asarray([r["score"] for r in tops], np.int64)
    order = np.lexsort((did, -sc))[:top_n]
    return pa.table(
        {
            "doc_id": pa.array(did[order], pa.int64()),
            "score": pa.array(sc[order], pa.int64()),
            "rk": pa.array(np.arange(1, len(order) + 1, dtype=np.int64)),
        }
    )


register("dsir_select", q_dsir_select, oracle=_orc.sql_dsir_select())


def q_classifier_score(sf_dir: str):
    """Distributed quality-classifier inference over the corpus (the
    model-scoring stage every curation pipeline runs at 100 TB).  The
    "model" is a fixed logistic layer over 4 integer text features
    (token count, non-whitespace chars, punctuation chars, stopword
    hits); weights broadcast once and load per ACTOR in ``__init__``
    (map_batches with a callable class + concurrency), the hot path is
    all Arrow/numpy.  Exact int64 logit => deterministic score + keep
    flag; the oracle recomputes the same dot product in SQL."""
    weights_ref = ray.put(
        {"bias": -200, "tok": 3, "len": -1, "punct": -8, "stop": 25}
    )
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        _QualityClassifier,
        fn_constructor_args=(weights_ref,),
        concurrency=(1, 4),
        batch_format="pyarrow",
    )


# logistic classifier: same integer dot product recomputed in
# SQL (weights inline); DuckDB's BIGINT/DOUBLE division mirrors
# the engine's single IEEE division of the exact logit
register("classifier_score", q_classifier_score, oracle=r"""
            WITH feats AS (
                SELECT doc_id,
                       len(regexp_extract_all(text, '\S+')) AS n_tok,
                       length(regexp_replace(text, '\s', '', 'g')) AS sum_len,
                       length(text)
                         - length(regexp_replace(text, '[^A-Za-z0-9_\s]', '', 'g'))
                           AS n_punct,
                       len(list_filter(
                           regexp_extract_all(lower(text), '\S+'),
                           t -> t IN ('the','of','and','to','in','a','is','that',
                                      'for','it','with','as','on','be','at','by',
                                      'this','have','from','or'))) AS n_stop
                FROM documents
            )
            SELECT doc_id,
                   (-200 + 3*n_tok - 1*sum_len - 8*n_punct + 25*n_stop) / 100.0
                       AS score,
                   (-200 + 3*n_tok - 1*sum_len - 8*n_punct + 25*n_stop) > 0
                       AS keep
            FROM feats
        """)


def q_temperature_mixture(sf_dir: str):
    """Temperature-based multilingual rebalancing (the XLM-R / mT5
    p ∝ c^alpha mixing rule, alpha = 0.5): derive per-language
    resampling rates FROM THE DATA — one bounded groupby-count pass
    (5 rows leave the cluster), exact-integer rate resolution
    (mixing.temperature_rates: isqrt weights, big-int division, no
    float anywhere), then the zero-shuffle map-side replicate/filter
    pass of mixture_sample.  Rare languages upsample toward
    sqrt-proportional shares inside a half-corpus budget; the dominant
    language downsamples.  Deterministic md5-keyed decisions => the
    SQL oracle re-derives the SAME thresholds with HUGEINT math."""

    ds = _docs(sf_dir, columns=["doc_id", "lang"])
    cnt = ds.groupby("lang").aggregate(Count()).to_pandas()  # ≤ |langs| rows
    counts = {r["lang"]: int(r["count()"]) for _, r in cnt.iterrows()}
    budget = sum(counts.values()) // 2
    resolved = temperature_rates(counts, budget)
    return mixture_sample(
        ds, {}, default_rate=0.0, source_col="lang", resolved_rates=resolved
    )


# temperature mixing: thresholds re-derived in SQL with exact
# HUGEINT arithmetic (16^13 = 4503599627370496); floor(sqrt)
# equals isqrt for any count < 2^40
register("temperature_mixture", q_temperature_mixture, oracle="""
            WITH cnt AS (
                SELECT lang, count(*)::BIGINT AS c FROM documents GROUP BY lang
            ), w AS (
                SELECT lang, c, CAST(floor(sqrt(c::DOUBLE)) AS BIGINT) AS w
                FROM cnt
            ), tot AS (
                SELECT sum(c)::BIGINT AS total, sum(w)::HUGEINT AS s FROM w
            ), thr AS (
                SELECT lang,
                       CAST((w.w::HUGEINT * (total // 2)) // (s * c) AS BIGINT)
                           AS base,
                       lower(lpad(to_hex(CAST(
                           ((w.w::HUGEINT * (total // 2)) % (s * c))
                           * 4503599627370496 // (s * c) AS BIGINT)), 13, '0'))
                           AS thr
                FROM w, tot
            ), par AS (
                SELECT doc_id, d.lang AS lang,
                       base + CASE WHEN substr(md5(doc_id::VARCHAR), 1, 13) < thr
                                   THEN 1 ELSE 0 END AS n_copies
                FROM documents d JOIN thr ON d.lang = thr.lang
            )
            SELECT doc_id, lang, unnest(generate_series(1, n_copies)) AS rep
            FROM par WHERE n_copies > 0
        """)


def q_curate_v2(sf_dir: str):
    """Curation capstone v2 — the session-8 operator families composed
    into one streaming chain: quality-classifier INFERENCE (broadcast
    weights, actor pool, exact integer logit) gates the corpus →
    normalize-then-dedup (C4 canonicalization + bucketed keep_min_by)
    deduplicates the keepers → temperature mixture (alpha = 0.5, rates
    derived from the SURVIVORS' language counts with exact-integer
    arithmetic) rebalances → a bounded per-language rollup reports
    (n_docs surviving, n_rows_out after replication).  Two real
    shuffles total (the dedup keep_min_by and the 5-row rollup) plus
    one bounded count pass; pixels/text never shuffle outside the
    dedup keys.  The oracle replays the WHOLE chain in SQL."""

    # gating weights (looser than classifier_score's: ~55% keep at
    # this corpus, varying by language — the chain needs survivors)
    weights_ref = ray.put(
        {"bias": -40, "tok": 4, "len": -1, "punct": -8, "stop": 25}
    )
    kept = (
        _docs(sf_dir, columns=["doc_id", "text", "lang"])
        .map_batches(
            _QualityClassifier,
            fn_constructor_args=(weights_ref, ("text", "lang")),
            concurrency=(1, 4),
            batch_format="pyarrow",
        )
        .map_batches(
            lambda b: b.filter(b.column("keep")).select(["doc_id", "text", "lang"]),
            batch_format="pyarrow",
        )
    )

    def add_key(b: pa.Table) -> pa.Table:
        t = pc.fill_null(_single_chunk_q(b.column("text")), "")
        norm = pc.utf8_trim_whitespace(
            pc.replace_substring_regex(
                pc.replace_substring_regex(pc.utf8_lower(t), r"\p{P}", ""),
                r"\s+",
                " ",
            )
        )
        enc = _single_chunk_q(pc.dictionary_encode(norm))
        keys = pa.DictionaryArray.from_arrays(enc.indices, md5_hex(enc.dictionary))
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "lang": b.column("lang"),
                "norm_key": pc.cast(keys, pa.string()),
            }
        )

    surv = keep_min_by(
        kept.map_batches(add_key, batch_format="pyarrow"), "norm_key", "doc_id", 16
    ).drop_columns(["norm_key"]).materialize()  # consumed twice: counts + mixture

    cnt = surv.groupby("lang").aggregate(Count()).to_pandas()  # ≤ |langs| rows
    counts = {r["lang"]: int(r["count()"]) for _, r in cnt.iterrows()}
    budget = sum(counts.values()) // 2
    resolved = temperature_rates(counts, budget)
    mixed = mixture_sample(
        surv, {}, default_rate=0.0, source_col="lang", resolved_rates=resolved
    )

    out = (
        mixed.groupby("lang")
        .aggregate(Count())
        .map_batches(
            lambda b: pa.table(
                {
                    "lang": b.column("lang"),
                    "n_rows_out": pc.cast(b.column("count()"), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .to_pandas()
    )
    import pandas as pd

    n_docs = pd.DataFrame(
        {"lang": list(counts), "n_docs": [counts[k] for k in counts]}
    )
    res = n_docs.merge(out, on="lang", how="left").fillna({"n_rows_out": 0})
    res["n_docs"] = res["n_docs"].astype(np.int64)
    res["n_rows_out"] = res["n_rows_out"].astype(np.int64)
    return res.sort_values("lang", ignore_index=True)


# curation capstone v2: the full classifier -> normalized-dedup
# -> temperature-mixture chain replayed in SQL (each block is
# the proven oracle of its standalone operator)
register("curate_v2", q_curate_v2, oracle=r"""
            WITH feats AS (
                SELECT doc_id, text, lang,
                       (-40
                        + 4 * len(regexp_extract_all(text, '\S+'))
                        - 1 * length(regexp_replace(text, '\s', '', 'g'))
                        - 8 * (length(text) - length(regexp_replace(
                              text, '[^A-Za-z0-9_\s]', '', 'g')))
                        + 25 * len(list_filter(
                              regexp_extract_all(lower(text), '\S+'),
                              t -> t IN ('the','of','and','to','in','a','is',
                                         'that','for','it','with','as','on',
                                         'be','at','by','this','have','from',
                                         'or')))) AS logit
                FROM documents
            ),
            kept AS (SELECT doc_id, text, lang FROM feats WHERE logit > 0),
            n AS (
                SELECT doc_id, lang,
                       trim(regexp_replace(
                           regexp_replace(lower(coalesce(text, '')),
                                          '\p{P}', '', 'g'),
                           '\s+', ' ', 'g')) AS norm
                FROM kept
            ),
            surv AS (
                SELECT doc_id, lang FROM (
                    SELECT doc_id, lang,
                           row_number() OVER (PARTITION BY norm
                                              ORDER BY doc_id) AS rn
                    FROM n
                ) WHERE rn = 1
            ),
            cnt AS (SELECT lang, count(*)::BIGINT AS c FROM surv GROUP BY lang),
            w AS (
                SELECT lang, c, CAST(floor(sqrt(c::DOUBLE)) AS BIGINT) AS w
                FROM cnt
            ),
            tot AS (SELECT sum(c)::BIGINT AS total, sum(w)::HUGEINT AS s FROM w),
            thr AS (
                SELECT lang, c,
                       CAST((w.w::HUGEINT * (total // 2)) // (s * c) AS BIGINT)
                           AS base,
                       lower(lpad(to_hex(CAST(
                           ((w.w::HUGEINT * (total // 2)) % (s * c))
                           * 4503599627370496 // (s * c) AS BIGINT)), 13, '0'))
                           AS thr
                FROM w, tot
            ),
            par AS (
                SELECT d.lang AS lang,
                       base + CASE WHEN substr(md5(doc_id::VARCHAR), 1, 13) < thr
                                   THEN 1 ELSE 0 END AS n_copies
                FROM surv d JOIN thr ON d.lang = thr.lang
            )
            SELECT t.lang, t.c AS n_docs,
                   coalesce(sum(p.n_copies), 0)::BIGINT AS n_rows_out
            FROM thr t LEFT JOIN par p ON t.lang = p.lang
            GROUP BY t.lang, t.c
            ORDER BY t.lang
        """)
