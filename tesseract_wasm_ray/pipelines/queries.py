"""Driver-contract query catalogue (__ray_entry__.queries()).

One callable per implemented operator/pipeline (SURVEY.md §2 + the
training-data operator suite).  Each takes ``sf_dir`` (a
/root/testdata/sf* directory) and returns a Dataset / pandas DataFrame /
pyarrow Table.  SQL-expressible queries have DuckDB oracles in
ORACLE_SQL (column names match exactly; float aggregates are rounded
identically on both sides).  OCR/extraction queries run over the
deterministic synthetic interleaved corpus (fixtures.py) cached under
/tmp/twr_fixtures — non-SQL-expressible, so they get rows-only checks;
their values are deterministic, making the driver's value-hash stable
across rounds.

Ray is initialised by the caller (driver / bench / tests) — nothing
here calls ray.init().
"""

from __future__ import annotations

import hashlib
import os
import re
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from ..fixtures import generate_corpus
from ..functions.arrow_util import bucket_ids
from ..functions.arrow_util import single_chunk as _single_chunk_q
from ..functions.fastmd5 import md5_hex
from ..functions.textstats import (
    detect_language,
    fingerprint,
    text_quality,
    token_count,
)
from ..sources import read_media
from .dedup import (
    embedding_neardup,
    exact_dedup,
    keep_first_by,
    keep_min_by,
    minhash_lsh_dedup,
    ngram_jaccard_dedup,
    simhash_dedup,
)
from .joins import bucket_map_groups
from .extract import ExtractConfig, ocr_map, ocr_media, run_extract, validate_against_golden
from .similarity import ivf_topk, knn_self_join, topk_cosine

FIXTURE_ROOT = os.environ.get("TWR_FIXTURE_ROOT", "/tmp/twr_fixtures")

# docs in the synthetic interleaved corpus per scale factor
_CORPUS_DOCS = {"0.001": 200, "0.01": 500, "0.1": 5000}


def sf_of(sf_dir: str) -> str:
    m = re.search(r"sf([0-9.]+)/?$", sf_dir.rstrip("/"))
    return m.group(1) if m else "0.001"


def corpus_for(sf_dir: str, n_docs: int | None = None) -> dict[str, str]:
    sf = sf_of(sf_dir)
    if n_docs is None:
        n_docs = _CORPUS_DOCS.get(sf, max(200, int(float(sf) * 50_000)))
        return generate_corpus(os.path.join(FIXTURE_ROOT, f"sf{sf}"), n_docs)
    return generate_corpus(os.path.join(FIXTURE_ROOT, f"n{n_docs}"), n_docs)


def _docs(
    sf_dir: str,
    columns: list[str] | None = None,
    num_blocks: int | None = None,
) -> rd.Dataset:
    """Documents read with column pruning at the parquet scan — pass
    only the columns the query touches (the text column is ~80% of the
    table's bytes, so a stats-only query should never read it).

    ``num_blocks`` caps the read's block split: Ray defaults to ~2x
    num_cpus blocks regardless of table size, and for the narrow
    int-only reads feeding shuffle-chained queries (pagerank, graph
    triangles, snapshot diff) 64 blocks of 80 rows each turn every
    downstream stage into a task-overhead benchmark.  Shapes whose
    per-row work is CPU-heavy should leave it None."""
    return rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=columns,
        override_num_blocks=num_blocks,
    )


def _pc_mod(arr, n: int):
    """Integer ``arr % n`` via Arrow kernels (truncated division — exact
    for the non-negative int64 operands used here; pyarrow ships no
    modulo kernel)."""
    nn = pa.scalar(n, pa.int64())
    return pc.subtract(arr, pc.multiply(pc.divide(arr, nn), nn))


def _run_rank(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """0-based rank within each run of equal values in an
    ALREADY-SORTED column (the vectorized per-group top-k trick from
    similarity.merge_topk): one C++ compare + numpy cumsum, no pandas."""
    arr = _single_chunk_q(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
    n = len(arr)
    if n == 0:
        return np.empty(0, np.int64)
    neq = pc.not_equal(arr.slice(1), arr.slice(0, n - 1)).to_numpy(zero_copy_only=False)
    new = np.r_[True, neq]
    starts = np.flatnonzero(new)
    run_of = np.cumsum(new) - 1
    return np.arange(n) - starts[run_of]


def _money_cents(arr, factor: float = 100.0) -> pa.Array:
    """Exact int64 cents from fixed-decimal money doubles.

    Summing money as float64 is block-order-dependent: when a group's
    sum lands within float noise of a ``.xx5`` rounding boundary, the
    final cent flips between runs (the r03 ``top_suppliers_per_nation``
    driver-hash flake).  The testdata money columns carry exactly two
    decimals, so ``round(x * 100)`` recovers the exact integer; int64
    sums are associative, hence partition- and block-order-invariant.
    The SQL oracles apply the identical transform
    (``CAST(round(col * 100) AS BIGINT)``), and both sides convert back
    with one IEEE division at the very end — bit-identical hashes.
    """
    return pc.cast(
        pc.round(pc.multiply(arr, pa.scalar(factor))), pa.int64()
    )


def _round(t: pa.Table, cols: dict[str, int]) -> pa.Table:
    for c, nd in cols.items():
        i = t.schema.get_field_index(c)
        t = t.set_column(i, c, pc.round(pc.cast(t.column(c), pa.float64()), ndigits=nd))
    return t


def _rename(t: pa.Table, mapping: dict[str, str]) -> pa.Table:
    return t.rename_columns([mapping.get(c, c) for c in t.column_names])


# ---------------------------------------------------------------------------
# SQL-oracled queries (testdata tables)
# ---------------------------------------------------------------------------


def q_doc_token_stats(sf_dir: str):
    """Token counting (whitespace + BPE-ish regex) per document."""
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: token_count(b).select(["doc_id", "n_tokens", "n_bpe_tokens"]),
        batch_format="pyarrow",
    )


def q_doc_quality(sf_dir: str):
    """Quality-scoring metrics per document (SQL-checkable subset)."""

    def fn(b: pa.Table) -> pa.Table:
        t = text_quality(b).select(
            ["doc_id", "n_tokens", "n_distinct", "n_punct", "distinct_ratio", "mean_token_len"]
        )
        return _round(t, {"distinct_ratio": 6, "mean_token_len": 6})

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def q_doc_fingerprint(sf_dir: str):
    """md5 exact-dup fingerprints (DuckDB md5 parity)."""
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: fingerprint(b).select(["doc_id", "md5"]), batch_format="pyarrow"
    )


def q_lang_stats(sf_dir: str):
    """Group-aggregate over the lang column."""
    out = (
        _docs(sf_dir, columns=["lang", "n_chars"])
        .groupby("lang")
        .aggregate(Count(), Sum("n_chars"), Mean("n_chars"))
        .to_pandas()
        .rename(
            columns={
                "count()": "n_docs",
                "sum(n_chars)": "total_chars",
                "mean(n_chars)": "avg_chars",
            }
        )
    )
    out["avg_chars"] = out["avg_chars"].round(4)
    return out


def q_exact_dedup(sf_dir: str):
    """Exact dedup: min doc_id survivor per distinct text."""
    return exact_dedup(_docs(sf_dir, columns=["doc_id", "text"]), num_buckets=16).map_batches(
        lambda b: b.select(["doc_id", "text"]), batch_format="pyarrow"
    )


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


def q_token_pmi(sf_dir: str, top_k: int = 40, min_co: int = 5):
    """Pointwise mutual information of frequent-term co-occurrence.

    Stage 1: distributed document frequencies (_doc_freq), top-K terms
    by (df desc, term asc) — a bounded K-row driver table, broadcast.
    Stage 2: per batch, a boolean doc×term membership matrix B over the
    K terms; the batch's co-occurrence partial is ONE matmul (B.T @ B)
    — no per-row loops, no pair explosion in the shuffle (≤ K² partial
    rows per batch regardless of corpus size).  groupby-sum of packed
    pair codes, then PMI from exact integer counts: deterministic
    hashes.  Scales: the only shuffle carries ≤ K²-row partials."""
    import pandas as pd

    from ..functions.textstats import _tokens

    top = (
        _doc_freq(sf_dir)
        .sort(["df", "term"], descending=[True, False])
        .limit(top_k)
        .to_pandas()
    )
    # idx assigned in lexicographic term order so packed-code order
    # reproduces the oracle's binary-collation `t1 < t2`
    terms = sorted(top["term"].tolist())
    dfs = dict(zip(top["term"], top["df"].astype(int)))
    n_docs = _docs(sf_dir, columns=["doc_id"]).count()
    k = len(terms)
    term_idx_ref = ray.put({t: i for i, t in enumerate(terms)})

    def pair_partials(b: pa.Table) -> pa.Table:
        lut = ray.get(term_idx_ref)
        texts = b.column("text")
        texts = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
        flat, parents, n_rows = _tokens(texts)
        enc = pc.dictionary_encode(flat)
        enc = enc.combine_chunks() if isinstance(enc, pa.ChunkedArray) else enc
        dict_map = np.array(
            [lut.get(t, -1) for t in enc.dictionary.to_pylist()], dtype=np.int64
        )
        codes = enc.indices.to_numpy(zero_copy_only=False)
        mapped = dict_map[codes] if len(codes) else np.empty(0, np.int64)
        keep = mapped >= 0
        membership = np.zeros((n_rows, k), dtype=np.uint8)
        if keep.any():
            membership[parents[keep], mapped[keep]] = 1
        co = membership.T.astype(np.int64) @ membership.astype(np.int64)
        i1, i2 = np.triu_indices(k, k=1)
        counts = co[i1, i2]
        nz = counts > 0
        return pa.table(
            {
                "pair": pa.array(i1[nz] * k + i2[nz], pa.int64()),
                "co": pa.array(counts[nz], pa.int64()),
            }
        )

    agg = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(pair_partials, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("co"))
        .to_pandas()
    )
    agg = agg[agg["sum(co)"] >= min_co]
    t1 = [terms[p // k] for p in agg["pair"]]
    t2 = [terms[p % k] for p in agg["pair"]]
    co = agg["sum(co)"].to_numpy(dtype=np.int64)
    d1 = np.array([dfs[t] for t in t1], dtype=np.float64)
    d2 = np.array([dfs[t] for t in t2], dtype=np.float64)
    out = pd.DataFrame(
        {
            "t1": t1,
            "t2": t2,
            "co": co,
            "pmi": np.round(np.log(co * float(n_docs) / (d1 * d2)), 4),
        }
    )
    return out.sort_values(["t1", "t2"]).reset_index(drop=True)


def q_skipgram_cooc(sf_dir: str, top_k: int = 40, window: int = 3, min_co: int = 5):
    """Window-based skip-gram co-occurrence counts (word2vec-style
    pair statistics) over the top-``top_k`` document-frequency terms.

    Unlike :func:`q_token_pmi` (doc-level co-membership) this counts
    ORDERED pairs within a ±``window`` token distance, so it needs
    token positions.  Per batch: one flat tokenize (``_tokens``
    preserves in-doc order), top-K id mapping, then for each offset
    d in 1..window a single vectorized shifted-array comparison —
    pairs (t[i], t[i+d]) kept when both ids are in-vocabulary and both
    positions fall in the same document.  Partials are ≤ K² rows per
    batch regardless of corpus size; one small groupby-sum shuffle;
    exact integer counts → deterministic hashes.  Scales: the token
    stream never leaves the map task."""
    import pandas as pd

    from ..functions.textstats import _tokens

    top = (
        _doc_freq(sf_dir)
        .sort(["df", "term"], descending=[True, False])
        .limit(top_k)
        .to_pandas()
    )
    terms = sorted(top["term"].tolist())
    k = len(terms)
    term_idx_ref = ray.put({t: i for i, t in enumerate(terms)})

    def pair_partials(b: pa.Table) -> pa.Table:
        lut = ray.get(term_idx_ref)
        texts = b.column("text")
        texts = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
        flat, parents, _ = _tokens(texts)
        enc = pc.dictionary_encode(flat)
        enc = enc.combine_chunks() if isinstance(enc, pa.ChunkedArray) else enc
        dict_map = np.array(
            [lut.get(t, -1) for t in enc.dictionary.to_pylist()], dtype=np.int64
        )
        codes = enc.indices.to_numpy(zero_copy_only=False)
        mapped = dict_map[codes] if len(codes) else np.empty(0, np.int64)
        acc = np.zeros(k * k, dtype=np.int64)
        for d in range(1, window + 1):
            if len(mapped) <= d:
                break
            left, right = mapped[:-d], mapped[d:]
            keep = (parents[:-d] == parents[d:]) & (left >= 0) & (right >= 0)
            if keep.any():
                acc += np.bincount(left[keep] * k + right[keep], minlength=k * k)
        nz = np.flatnonzero(acc)
        return pa.table(
            {
                "pair": pa.array(nz, pa.int64()),
                "co": pa.array(acc[nz], pa.int64()),
            }
        )

    agg = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(pair_partials, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("co"))
        .to_pandas()
    )
    agg = agg[agg["sum(co)"] >= min_co]
    out = pd.DataFrame(
        {
            "t1": [terms[p // k] for p in agg["pair"]],
            "t2": [terms[p % k] for p in agg["pair"]],
            "co": agg["sum(co)"].to_numpy(dtype=np.int64),
        }
    )
    return out.sort_values(["t1", "t2"]).reset_index(drop=True)


def q_lang_len_quantiles(sf_dir: str):
    """EXACT per-language length quantiles (p25/p50/p75) WITHOUT a
    sort: ``n_chars`` is integer-domain, so each batch emits bounded
    (lang, n_chars) → count partials, one small groupby-sum folds
    them, and the driver interpolates quantile_cont positions from the
    cumulative histogram (≤ langs × distinct-lengths rows — thousands,
    not corpus-sized).  The binary-exact fractions {.25,.5,.75} make
    the interpolation arithmetic exact (no float-rounding flake), so
    results bit-match DuckDB's sort-based quantile_cont.  Scales: the
    only shuffle carries histogram partials; contrast with
    approx_quantiles which trades exactness for fixed O(bins) state on
    non-integer domains."""
    import pandas as pd

    def hist_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"lang": b.column("lang"), "n_chars": b.column("n_chars")})
        g = t.group_by(["lang", "n_chars"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "lang": g.column("lang"),
                "n_chars": g.column("n_chars"),
                "cnt": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    hist = (
        _docs(sf_dir, columns=["lang", "n_chars"])
        .map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["lang", "n_chars"])
        .aggregate(Sum("cnt"))
        .to_pandas()
    )
    rows = []
    for lang, g in hist.groupby("lang", sort=True):
        g = g.sort_values("n_chars")
        vals = g["n_chars"].to_numpy(dtype=np.int64)
        cnts = g["sum(cnt)"].to_numpy(dtype=np.int64)
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        row = {"lang": lang, "n_docs": n}
        for q, col in ((0.25, "p25"), (0.5, "p50"), (0.75, "p75")):
            h = q * (n - 1)
            lo_i, hi_i = int(np.floor(h)), int(np.ceil(h))
            lo_v = float(vals[np.searchsorted(cum, lo_i + 1)])
            hi_v = float(vals[np.searchsorted(cum, hi_i + 1)])
            row[col] = lo_v + (h - np.floor(h)) * (hi_v - lo_v)
        rows.append(row)
    return pd.DataFrame(rows, columns=["lang", "n_docs", "p25", "p50", "p75"])


def q_events_by_type(sf_dir: str):
    """Partial-aggregate rollup of the events stream.  Money sums run
    in exact int64 cents (_money_cents) so the result is block-order
    invariant; one IEEE division at the end mirrors the oracle."""
    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "value"]
    )
    out = (
        ds.map_batches(
            lambda b: pa.table(
                {
                    "event_type": b.column("event_type"),
                    "cents": _money_cents(b.column("value")),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("event_type")
        .aggregate(Count(), Sum("cents"))
        .to_pandas()
        .rename(columns={"count()": "n_events"})
    )
    out["total_value"] = out["sum(cents)"] / 100.0
    out["avg_value"] = out["total_value"] / out["n_events"]
    return out.drop(columns=["sum(cents)"])


def q_events_hourly(sf_dir: str):
    """Hourly time-bucket counts (windowed aggregate, tumbling 1h)."""
    ds = rd.read_parquet(os.path.join(sf_dir, "events.parquet"), columns=["ts"])

    def bucket(b: pa.Table) -> pa.Table:
        hours = pc.strftime(
            pc.floor_temporal(b.column("ts"), unit="hour"), format="%Y-%m-%d %H:00:00"
        )
        return pa.table({"hour": hours})

    return (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby("hour")
        .aggregate(Count())
        .map_batches(
            lambda b: _rename(b, {"count()": "n_events"}), batch_format="pyarrow"
        )
    )


def q_user_sessions(sf_dir: str):
    """Gap-based sessionization (streaming-window analogue): a session
    breaks after >30 min of inactivity per user.  Hash-bucket users,
    one vectorized pass per bucket (sorted diff + boundary count) —
    the SQL oracle uses lag() OVER (PARTITION BY ...) windows."""
    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )

    def add_bucket(b: pa.Table) -> pa.Table:
        bk = bucket_ids(b.column("user_id"), 16)
        return b.append_column("__bucket", pa.array(bk, pa.int32()))

    GAP_US = 30 * 60 * 1_000_000

    def sessions(group: pa.Table) -> pa.Table:
        t = group.sort_by([("user_id", "ascending"), ("ts", "ascending")])
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = t.column("ts").to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        new_user = np.r_[True, u[1:] != u[:-1]]
        gap = np.r_[True, (ts[1:] - ts[:-1]) > GAP_US]
        new_session = new_user | gap
        starts = np.flatnonzero(new_user)
        uids = u[starts]
        seg = np.cumsum(new_user) - 1
        n_sessions = np.bincount(seg, weights=new_session).astype(np.int64)
        n_events = np.bincount(seg).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uids, pa.int64()),
                "n_sessions": pa.array(n_sessions, pa.int64()),
                "n_events": pa.array(n_events, pa.int64()),
            }
        )

    return bucket_map_groups(
        ds.map_batches(add_bucket, batch_format="pyarrow"), "__bucket", sessions
    )


def q_source_lang_pivot(sf_dir: str):
    """PIVOT / wide-reshape: per source, one count column per language
    (the fixed 5-lang vocabulary makes the wide schema static, which is
    what makes pivot scale-safe — a dynamic column set would need a
    driver-side vocabulary pass first).  Map tasks bincount a dense
    (source x lang) partial per batch — the pivot happens MAP-SIDE, so
    the shuffle moves one 6-int row per distinct source per block, and
    the groupby just sums columns."""
    LANGS = ["de", "en", "es", "fr", "zh"]

    def partials(b: pa.Table) -> pa.Table:
        src = _single_chunk_q(pc.dictionary_encode(b.column("source")))
        s_codes = src.indices.to_numpy(zero_copy_only=False)
        k = len(src.dictionary)
        lang = b.column("lang").to_numpy(zero_copy_only=False)
        cols = {"source": src.dictionary}
        for lg in LANGS:
            m = lang == lg
            cols[f"n_{lg}"] = pa.array(
                np.bincount(s_codes[m], minlength=k).astype(np.int64)
            )
        return pa.table(cols)

    aggs = [Sum(f"n_{lg}") for lg in LANGS]
    return (
        _docs(sf_dir, columns=["source", "lang"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("source")
        .aggregate(*aggs)
        .map_batches(
            lambda b: _rename(b, {f"sum(n_{lg})": f"n_{lg}" for lg in LANGS}),
            batch_format="pyarrow",
        )
    )


def q_event_interarrival(sf_dir: str):
    """Per-user inter-arrival gaps — the lag()/lead() window family
    (user_sessions thresholds gaps; this emits the raw per-event delta
    a latency/behavior model trains on).  Same scale shape as
    sessionization: hash-bucket users so each group holds whole users,
    one vectorized sorted-diff pass per bucket; gaps are exact int64
    microseconds (timestamp arithmetic, no floats).  Tie-break
    (ts, event_id) makes the lag total-order deterministic on both
    engines."""
    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts"],
    )

    def add_bucket(b: pa.Table) -> pa.Table:
        bk = bucket_ids(b.column("user_id"), 16)
        return b.append_column("__bucket", pa.array(bk, pa.int32()))

    def gaps(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("user_id", "ascending"), ("ts", "ascending"), ("event_id", "ascending")]
        )
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (
            t.column("ts")
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        has_prev = np.r_[False, u[1:] == u[:-1]]
        gap = np.r_[0, ts[1:] - ts[:-1]]
        idx = pa.array(np.flatnonzero(has_prev), pa.int64())
        return pa.table(
            {
                "event_id": pc.take(t.column("event_id"), idx),
                "user_id": pa.array(u[has_prev]),
                "gap_us": pa.array(gap[has_prev]),
            }
        )

    return bucket_map_groups(
        ds.map_batches(add_bucket, batch_format="pyarrow"), "__bucket", gaps
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


def q_filter_project(sf_dir: str):
    """Filter + projection PUSHED INTO THE SCAN: the predicate goes to
    read_parquet's `filter=` (a pyarrow dataset expression), so row
    groups whose min/max statistics exclude the predicate never leave
    storage and surviving row groups are filtered before Ray sees a
    block — at 100 TB this is the difference between reading the
    selected ~2% and reading everything to throw 98% away.  The
    map_batches re-filter would be redundant; only the projection
    remains Ray-side."""
    import pyarrow.dataset as pds

    return rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "n_chars"],
        filter=(pds.field("n_chars") > 300) & (pds.field("lang") == "en"),
    )


def q_distinct_sources(sf_dir: str):
    """DISTINCT over two columns (set op): unique (lang, source) pairs."""
    ds = _docs(sf_dir, columns=["lang", "source"]).map_batches(
        lambda b: b.select(["lang", "source"]), batch_format="pyarrow"
    )

    def add_key(b: pa.Table) -> pa.Table:
        key = pc.binary_join_element_wise(b.column("lang"), b.column("source"), "\x1f")
        return b.append_column("__k", key).append_column(
            "__one", pa.array(np.zeros(b.num_rows, np.int8))
        )

    return keep_min_by(
        ds.map_batches(add_key, batch_format="pyarrow"), "__k", "__one", num_buckets=8
    ).drop_columns(["__k", "__one"])


def q_top_docs_per_lang(sf_dir: str):
    """Per-group top-k (window rank): the 2 longest docs per lang
    (n_chars desc, doc_id asc tie-break) — grouped vectorized take; the
    oracle uses row_number() OVER (PARTITION BY ...)."""
    def topk(group: pa.Table) -> pa.Table:
        # Arrow sort + run-rank (the merge_topk pattern,
        # similarity.py): rank within each sorted lang run, keep the
        # first 2 — no pandas round-trip in the group task.
        if group.num_rows == 0:
            return group
        t = group.sort_by(
            [("lang", "ascending"), ("n_chars", "descending"), ("doc_id", "ascending")]
        )
        return t.filter(pa.array(_run_rank(t.column("lang")) < 2))

    # map-side pre-select (global winners ⊆ union of block winners):
    # the lang shuffle moves <= langs x 2 rows per block, never a
    # whole stratum
    ds = (
        _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
        .map_batches(
            lambda b: topk(b.select(["doc_id", "lang", "n_chars"])),
            batch_format="pyarrow",
        )
    )

    return ds.groupby("lang").map_groups(topk, batch_format="pyarrow")


def q_top_long_docs(sf_dir: str):
    """Sort + limit: 10 longest documents (doc_id tie-break)."""
    ds = _docs(sf_dir, columns=["doc_id", "n_chars"]).map_batches(
        lambda b: b.select(["doc_id", "n_chars"]), batch_format="pyarrow"
    )
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(10)


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


def q_emb_topk_q8(sf_dir: str):
    """int8-quantized cosine top-10 vs the vec_id=0 embedding — the
    4x-smaller-bytes scale path (similarity.topk_cosine_q8).  Integer
    scores, so the oracle match is exact, not rounded."""
    from .similarity import topk_cosine_q8

    path = os.path.join(sf_dir, "embeddings.parquet")
    ds = rd.read_parquet(path)
    import pyarrow.parquet as pq

    t0 = pq.read_table(path, columns=["vec_id", "embedding"])
    q = np.asarray(
        t0.filter(pc.equal(t0.column("vec_id"), 0)).column("embedding")[0].as_py(),
        dtype=np.float64,
    )
    return topk_cosine_q8(ds, q, k=10)


def q_pdf_text(sf_dir: str):
    """PDF text + layout parse (north-rule operator: "PDF/layout
    parse") over the REAL from-scratch PDF codec
    (functions/pdfcodec.py).  Each doc's first 40 tokens typeset into
    8-token lines across one or two pages (>3 lines spill to page 2),
    md5-routed through FlateDecode or raw content streams, then decoded
    by the stateless task-pool stage: trailer → page-tree walk → stream
    inflate → content-stream tokenizer → per-page lines.  Extracted
    pages join with form-feeds; the oracle rebuilds the exact expected
    text from the source tokens in SQL, so the whole encode → parse
    round trip is value-gated (escaping makes it text-exact for any
    input)."""
    from ..functions.pdfcodec import decode_pdf_text, encode_pdf

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        texts = b.column("text").to_pylist()
        payloads = []
        for d, t in zip(ids, texts):
            toks = (t or "").split()[:40]
            lines = [" ".join(toks[i : i + 8]) for i in range(0, len(toks), 8)]
            pages = [lines[:3]] if len(lines) <= 3 else [lines[:3], lines[3:]]
            comp = int(hashlib.md5(str(d).encode()).hexdigest()[6:8], 16) % 2 == 0
            payloads.append(encode_pdf(pages, compress=comp))
        return pa.table(
            {"doc_id": b.column("doc_id"), "payload": pa.array(payloads, pa.binary())}
        )

    def decode(b: pa.Table) -> pa.Table:
        payloads = _single_chunk_q(b.column("payload"))
        texts, n_pages = [], []
        for i in range(b.num_rows):
            pages = decode_pdf_text(payloads[i].as_py())
            texts.append("\f".join(pages))
            n_pages.append(len(pages))
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "text": pa.array(texts, pa.string()),
                "n_pages": pa.array(n_pages, pa.int64()),
            }
        )

    return (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(synth, batch_format="pyarrow")
        .map_batches(decode, batch_format="pyarrow")
    )


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
    from .similarity import _matrix, quantize_q8

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


def q_text_search(sf_dir: str):
    """On-disk inverted index + storage-pruned term search
    (pipelines.textindex): build term-bucketed postings under /tmp,
    then score docs by total tf over a fixed term set reading ONLY the
    terms' buckets.  Returns the materialized top-20 so the index dir
    can be reclaimed before the caller consumes the result."""
    import shutil
    import tempfile

    from .textindex import build_text_index, search_text_index

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


def q_text_search_bm25(sf_dir: str):
    """BM25-ranked retrieval over the on-disk inverted index: idf and
    length-normalized tf, corpus stats (N, avgdl) from the build
    manifest, storage-pruned to the query terms' buckets."""
    import shutil
    import tempfile

    from .textindex import build_text_index, search_text_index_bm25

    ds = _docs(sf_dir, columns=["doc_id", "text"])
    idx_dir = tempfile.mkdtemp(prefix="twr_textindex_bm25_")
    try:
        build_text_index(ds, idx_dir, num_buckets=32)
        out = search_text_index_bm25(
            idx_dir, ["join", "shuffle", "spark", "window"], k=20
        ).to_pandas()
    finally:
        shutil.rmtree(idx_dir, ignore_errors=True)
    return out


def q_tpch_q1(sf_dir: str):
    """TPC-H Q1-style pricing rollup (group agg with map-side combine).
    Quantities are integral and prices 2-decimal: both aggregate as
    exact int64 (_money_cents), so sums are partition-invariant and the
    hash matches the oracle bit-for-bit across reruns."""
    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "l_linestatus": b.column("l_linestatus"),
                "qty": _money_cents(b.column("l_quantity"), factor=1.0),
                "price_c": _money_cents(b.column("l_extendedprice")),
            }
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("qty"), Sum("price_c"), Count())
        .to_pandas()
        .rename(columns={"count()": "count_order"})
    )
    out["sum_qty"] = out["sum(qty)"].astype(np.float64)
    out["sum_base_price"] = out["sum(price_c)"] / 100.0
    out["avg_qty"] = out["sum_qty"] / out["count_order"]
    return out.drop(columns=["sum(qty)", "sum(price_c)"])


def q_mktsegment_orders(sf_dir: str):
    """Distributed join orders ⋈ customer + rollup by segment, via the
    engine's size-adaptive lookup join (joins.lookup_join_auto: the
    customer dim broadcasts while it fits the byte cap — no fact
    shuffle — and the plan degrades to the bucketed task-shuffle join
    beyond it; nation_order_revenue keeps the pure bucketed plan in
    the bench).  Ray 2.49's built-in ``Dataset.join`` was used in
    round 1 and is kept nowhere in the bench path: besides crashing on
    sparse partitions (see the joins module docstring) its aggregator actors
    are bimodally slow (measured 3.3s vs 111-163s on identical input
    in the same session budget).  Every order key matches a customer
    (TPC-H FK), so the left-outer lookup equals the inner join."""
    from .joins import lookup_join_auto

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        # money as exact int64 cents => block-order-invariant sums
        lambda b: pa.table(
            {
                "o_custkey": b.column("o_custkey"),
                "cents": _money_cents(b.column("o_totalprice")),
            }
        ),
        batch_format="pyarrow",
    )
    customer = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    joined = lookup_join_auto(
        orders, customer, "o_custkey", "c_custkey", "c_mktsegment", "c_mktsegment",
    )
    out = (
        joined.groupby("c_mktsegment")
        .aggregate(Count(), Sum("cents"))
        .to_pandas()
        .rename(columns={"count()": "n_orders"})
    )
    out["total_price"] = out["sum(cents)"] / 100.0
    return out.drop(columns=["sum(cents)"])


def q_events_asof_order(sf_dir: str):
    """Backward as-of join (kdb+ aj / merge_asof semantics): each event
    picks up the o_orderkey of the same customer's latest order at or
    before the event timestamp — via relational.asof_join (one key-hash
    shuffle per side, vectorized lexsort + running-maximum resolve per
    bucket; min-orderkey tie-break at equal order dates).  The oracle
    reproduces it with the classic union + last_value(IGNORE NULLS)
    window, pre-reducing equal (custkey, date) orders to min(orderkey)
    exactly like the pipeline's tie-break."""
    from .relational import asof_join

    events = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "user_id", "ts"]
    )
    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderdate", "o_orderkey"],
    )
    out = asof_join(
        events,
        orders,
        left_key="user_id",
        left_ts="ts",
        right_key="o_custkey",
        right_ts="o_orderdate",
        value_col="o_orderkey",
        out_col="o_orderkey",
        num_buckets=32,
    )
    return out.map_batches(
        lambda b: b.select(["event_id", "user_id", "o_orderkey"]),
        batch_format="pyarrow",
    )


def q_top_suppliers_per_nation(sf_dir: str):
    """Heavy-hitters per group over a join: top-3 suppliers by lineitem
    revenue within each nation.  Shape for scale: the big fact table is
    pre-aggregated to one row per supplier (map-side combine inside
    Ray's groupby-sum), the tiny supplier dim is BROADCAST (`ray.put`
    once, dictionary lookup per batch — no shuffle join), and the final
    per-nation top-k ranks one row per supplier, not per lineitem."""
    import ray

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
    )

    def revenue(b: pa.Table) -> pa.Table:
        # price has 2 decimals, discount 2 decimals: revenue in exact
        # int64 units of 10^-4 dollars = cents * (100 - discount_pct).
        # Integer sums are associative => the per-supplier total (and
        # therefore the rank order AND the hashed value) is identical
        # no matter how Ray lays out blocks (r03 flake fix).
        cents = _money_cents(b.column("l_extendedprice"))
        disc = _money_cents(b.column("l_discount"))
        return pa.table(
            {
                "s_suppkey": b.column("l_suppkey"),
                "revenue": pc.multiply(
                    cents, pc.subtract(pa.scalar(100, pa.int64()), disc)
                ),
            }
        )

    per_supp = (
        li.map_batches(revenue, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("revenue"))
    )

    import pyarrow.parquet as pq

    supp = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    supp_ref = ray.put(
        (
            supp.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64),
            supp.column("s_nationkey").to_numpy(zero_copy_only=False).astype(np.int64),
        )
    )

    def add_nation(b: pa.Table) -> pa.Table:
        keys, nats = ray.get(supp_ref)
        order = np.argsort(keys)
        sk = b.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = order[np.searchsorted(keys, sk, sorter=order)]
        return b.append_column("s_nationkey", pa.array(nats[pos], pa.int64()))

    def topk(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("sum(revenue)", "descending"), ("s_suppkey", "ascending")]
        ).slice(0, 3)
        return pa.table(
            {
                "s_nationkey": t.column("s_nationkey"),
                "s_suppkey": t.column("s_suppkey"),
                # one IEEE division from the exact integer — no round()
                "revenue": pc.divide(
                    pc.cast(t.column("sum(revenue)"), pa.float64()),
                    pa.scalar(10000.0),
                ),
                "rk": pa.array(np.arange(1, t.num_rows + 1), pa.int64()),
            }
        )

    return (
        per_supp.map_batches(add_nation, batch_format="pyarrow")
        .groupby("s_nationkey")
        .map_groups(topk, batch_format="pyarrow")
    )


def q_quantity_quantiles(sf_dir: str):
    """Exact per-flag quantiles of l_quantity via the distributed
    (group, value)->count histogram (relational.exact_group_quantiles):
    the shuffle and the driver both hold one row per distinct (flag,
    quantity) — 150 rows regardless of lineitem size.  Selection rule
    is bit-matched to DuckDB quantile_disc (rank = ceil(q*n))."""
    from .relational import exact_group_quantiles

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_quantity"],
    )
    return exact_group_quantiles(
        li,
        "l_returnflag",
        "l_quantity",
        {"p25": 0.25, "p50": 0.5, "p75": 0.75, "p90": 0.9},
    )


def q_events_sliding_window(sf_dir: str):
    """Sliding-window aggregate (1 h window, 15 min hop): each event
    fans out to its 4 containing windows BEFORE the groupby
    (relational.expand_sliding_windows — one numpy repeat, shuffle
    moves only (window_start, value)), then a plain map-side-combined
    groupby.  The tumbling analogue is events_hourly."""
    from .relational import expand_sliding_windows

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["ts", "value"]
    )
    out = (
        ds.map_batches(
            # money to exact int64 cents before the fan-out so the
            # window sums are block-order invariant
            lambda b: expand_sliding_windows(
                pa.table(
                    {"ts": b.column("ts"), "cents": _money_cents(b.column("value"))}
                ),
                "ts",
                window_us=3_600_000_000,
                slide_us=900_000_000,
            ),
            batch_format="pyarrow",
        )
        .groupby("window_start")
        .aggregate(Count(), Sum("cents"))
        .to_pandas()
        .rename(columns={"count()": "n_events"})
    )
    out["total_value"] = out["sum(cents)"] / 100.0
    return out.drop(columns=["sum(cents)"])


def q_top_terms_per_lang(sf_dir: str):
    """Distributed vocabulary rollup: top-10 terms per language by
    frequency (ties broken alphabetically).  Map-side combine via
    textstats.term_counts (one bincount per batch, shuffle moves one
    row per distinct (lang, term) per block), global sum, then a tiny
    per-lang rank."""
    from ..functions.textstats import term_counts

    counts = (
        _docs(sf_dir, columns=["lang", "text"])
        .map_batches(
            lambda b: term_counts(b, "text", "lang"), batch_format="pyarrow"
        )
        .groupby(["lang", "term"])
        .aggregate(Sum("cnt"))
    )

    def topk(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("sum(cnt)", "descending"), ("term", "ascending")]
        ).slice(0, 10)
        return pa.table(
            {
                "lang": t.column("lang"),
                "term": t.column("term"),
                "n": pc.cast(t.column("sum(cnt)"), pa.int64()),
                "rk": pa.array(np.arange(1, t.num_rows + 1), pa.int64()),
            }
        )

    return counts.groupby("lang").map_groups(
        topk, batch_format="pyarrow"
    )


def q_pattern_scrub(sf_dir: str):
    """Regex redaction over the corpus (the PII-scrub shape: at real
    scale the pattern is emails/SSNs; here a pattern the synthetic text
    actually contains).  Fully vectorized Arrow RE2 kernels
    (count_substring_regex + replace_substring_regex); DuckDB's
    regexp_* are RE2 too, so the oracle is engine-exact."""
    PAT = "[aeiou]{2,}"

    def fn(b: pa.Table) -> pa.Table:
        text = b.column("text")
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "n_redacted": pc.cast(
                    pc.count_substring_regex(text, PAT), pa.int64()
                ),
                "scrubbed": pc.replace_substring_regex(text, PAT, replacement="*"),
            }
        )

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def q_quantity_band_join(sf_dir: str):
    """Broadcast range join: lineitem rows banded by quantity against a
    small static [lo, hi] band table (relational.band_lookup — one
    searchsorted per batch; the band side never shuffles), then a
    map-side-combined rollup per band."""
    from .relational import band_lookup

    BANDS = [
        (1, "low", 1.0, 10.0),
        (2, "mid", 11.0, 25.0),
        (3, "high", 26.0, 40.0),
        (4, "peak", 41.0, 50.0),
    ]
    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=["l_quantity"]
    )
    out = (
        li.map_batches(
            lambda b: band_lookup(b, "l_quantity", BANDS), batch_format="pyarrow"
        )
        .groupby(["band_id", "band_name"])
        .aggregate(Count(), Sum("l_quantity"))
        .to_pandas()
        .rename(columns={"count()": "n_items", "sum(l_quantity)": "sum_qty"})
    )
    out["sum_qty"] = out["sum_qty"].round(2)
    return out


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


def q_doc_chunks(sf_dir: str):
    """Context-window chunking: fan each doc into 32-token windows
    (one output row per chunk) — the fan-out stage before sequence
    packing.  Pure-Arrow offset surgery (textstats.chunk_tokens), no
    shuffle: chunking is embarrassingly parallel per block."""
    from ..functions.textstats import chunk_tokens

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: chunk_tokens(b, chunk_size=32), batch_format="pyarrow"
    )


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


def q_sequence_pack(sf_dir: str):
    """Greedy sequence packing (training-context packing): docs are
    token-counted map-side, hash-shuffled once on source, and packed
    in doc_id order into 256-token sequences (relational
    .pack_sequences — cumsum+searchsorted scan, one loop iteration per
    emitted sequence).  Oracle recomputes the greedy recurrence with a
    recursive CTE."""
    from .relational import pack_sequences

    def fn(b: pa.Table) -> pa.Table:
        return token_count(b).select(["doc_id", "source", "n_tokens"])

    ds = _docs(sf_dir, columns=["doc_id", "source", "text"]).map_batches(fn, batch_format="pyarrow")
    return pack_sequences(
        ds, group_col="source", order_col="doc_id", size_col="n_tokens", budget=256
    )


def q_monthly_revenue_delta(sf_dir: str):
    """Window-over-aggregate: monthly order revenue with month-over-month
    delta (the reporting shape where a lag() window runs on an ALREADY
    aggregated table).  The heavy part is the one map-side-combined
    groupby over exact int64 cents; the month table is bounded
    (one row per month, ~25 rows at any corpus size), so the lag pass
    is a driver-side numpy diff on the collected aggregate — the same
    bounded-result discipline as global_rank's histogram.  Delta is
    cents-exact; both engines divide by 100.0 once."""
    import pandas as pd

    def prep(b: pa.Table) -> pa.Table:
        ts = b.column("o_orderdate").to_numpy(zero_copy_only=False)
        month = ts.astype("datetime64[M]")
        return pa.table(
            {
                "month": pa.array(
                    np.datetime_as_string(month, unit="M"), pa.string()
                ),
                "cents": _money_cents(b.column("o_totalprice")),
            }
        )

    m = (
        rd.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_orderdate", "o_totalprice"],
        )
        .map_batches(prep, batch_format="pyarrow")
        .groupby("month")
        .aggregate(Sum("cents"))
        .to_pandas()  # bounded: one row per month
        .sort_values("month")
        .reset_index(drop=True)
    )
    cents = m["sum(cents)"].to_numpy().astype(np.int64)
    delta = np.diff(cents, prepend=np.int64(0))
    out = pd.DataFrame(
        {
            "month": m["month"],
            "revenue": cents / 100.0,
            "delta": delta / 100.0,
        }
    )
    out.loc[0, "delta"] = np.nan  # first month has no predecessor
    return out


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
    from .joins import lookup_join_auto

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


def q_approx_distinct_users(sf_dir: str):
    """HyperLogLog approximate distinct users per event type — the
    fixed-size-sketch COUNT(DISTINCT) whose shuffle is O(keys x 2**p)
    rows per block regardless of input size.  Deterministic FNV
    hashing makes the DuckDB oracle exact (full sketch recomputed in
    SQL), not a tolerance check."""
    from .approx import approx_distinct

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "user_id"]
    )
    return approx_distinct(ds, "event_type", "user_id", p=9)


def q_approx_quantiles(sf_dir: str):
    """Histogram-sketch quantiles of l_extendedprice — fixed O(bins)
    state per block, no sort, no shuffle; exact-integer count folding
    makes the result partition-invariant and the DuckDB oracle
    recomputes the identical binned estimate."""
    from .approx import approx_quantiles

    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=["l_extendedprice"]
    )
    return approx_quantiles(
        ds, "l_extendedprice", qs=(0.25, 0.5, 0.75, 0.95), lo=0.0, hi=120000.0,
        bins=4096,
    )


_MIX_RATES = {"src0": 2.5, "src1": 1.0, "src2": 0.4, "src3": 0.0}


def q_mixture_sample(sf_dir: str):
    """Per-domain mixture sampling at target rates (upsample src0 2.5x,
    drop src3, thin everything else to 0.25) — map-side only, zero
    shuffles; decisions are md5-prefix string compares shared with the
    SQL oracle."""
    from .mixing import mixture_sample

    ds = _docs(sf_dir, columns=["doc_id", "source"])
    return mixture_sample(ds, _MIX_RATES, default_rate=0.25)


def q_kmeans_clusters(sf_dir: str):
    """Distributed integer k-means over the embeddings table — exact
    across engines (quantized vectors, truncated-division centroids,
    md5-min seeds), so the DuckDB oracle re-runs the full Lloyd chain
    and the assignment gate is bit-for-bit."""
    from .clustering import kmeans_clusters

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    # cache=True: the quantized view at bench scale is tiny; the
    # streaming default re-reads per Lloyd pass (the 100-TB shape).
    return kmeans_clusters(ds, k=8, iters=4, cache=True)


def q_semdedup(sf_dir: str):
    """SemDeDup (cluster-then-dedup, arXiv:2303.09540) over the
    planted-copy augmentation: exact integer k-means makes the cluster
    assignment deterministic, then within-cluster EXISTS cosine >=
    0.98 removal keeps the min-id representative."""
    from .clustering import semdedup

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).map_batches(_plant_embedding_copies, batch_format="pyarrow")
    return semdedup(ds, k=8, iters=4, threshold=0.98, cache=True)


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


def q_audio_features(sf_dir: str):
    """Audio-modality plumbing over REAL from-scratch WAV codecs
    (functions/wavcodec.py): md5(doc_id) routes each doc to either a
    ±A square wave in uncompressed PCM or a constant-A clip in
    COMPRESSED mono IMA ADPCM (format tag 0x0011,
    functions/adpcmcodec.py — the MJPEG-in-AVI analogue for audio; a
    DC signal encodes to all-zero nibbles so the 4-bit round trip is
    bit-exact and the fact-chunk trim restores the exact length).
    Both waveforms have RMS exactly A and peak exactly A, so ONE
    closed-form oracle gates both container paths — amplitude and
    length are md5-derived so DuckDB recomputes them without running
    either codec."""
    from ..functions.wavcodec import encode_wav, encode_wav_adpcm_many
    from ..stages.multimodal import audio_features

    def synth(b: pa.Table) -> pa.Table:
        hx = md5_hex(b.column("doc_id"), prefix=6).to_pylist()
        n_rows = b.num_rows
        payloads: list[bytes | None] = [None] * n_rows
        adpcm_idx: list[int] = []
        adpcm_waves: list[np.ndarray] = []
        alt = ((np.arange(4000 + 255 * 8) % 2) * 2 - 1).astype(np.int16)
        for i, h in enumerate(hx):
            amp = int(h[:2], 16) % 50 + 50
            n = 4000 + int(h[2:4], 16) * 8
            if int(h[4:6], 16) % 2:
                # block_align 64 -> 121 samples/block: enough blocks
                # per clip that the across-block vectorized codec loop
                # stays short; the whole batch's blocks run through ONE
                # recurrence (encode_wav_adpcm_many)
                adpcm_idx.append(i)
                adpcm_waves.append(np.full(n, amp, np.int16))
            else:
                wave = alt[:n] * np.int16(amp)
                payloads[i] = encode_wav(wave, 8000)
        if adpcm_waves:
            for i, p in zip(
                adpcm_idx, encode_wav_adpcm_many(adpcm_waves, 8000, block_align=64)
            ):
                payloads[i] = p
        return pa.table(
            {"doc_id": b.column("doc_id"), "payload": pa.array(payloads, pa.binary())}
        )

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(synth, batch_format="pyarrow")
    return audio_features(ds, id_col="doc_id", batch_size=256)


def q_user_event_diversity(sf_dir: str):
    """Distinct-count aggregation: distinct event types per user, as a
    two-level groupby (dedupe on (user, type) with map-side combine,
    then a count rollup) — the scale-safe shape for COUNT(DISTINCT):
    no per-group hash sets, every stage pre-combines."""
    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "event_type"]
    )
    return (
        ds.groupby(["user_id", "event_type"])
        .aggregate(Count())
        .groupby("user_id")
        .aggregate(Count())
        .map_batches(
            lambda b: _rename(b, {"count()": "n_types"}), batch_format="pyarrow"
        )
    )


def q_nation_order_revenue(sf_dir: str):
    """Three-way join rollup orders ⋈ customer ⋈ nation with MIXED join
    strategies, picked by side size: orders⋈customer is the engine's
    bucketed task-shuffle lookup join (both sides large-ish), while the
    25-row nation dim is resolved by a broadcast numpy lookup inside
    the final aggregation's map stage — no second shuffle."""
    import pyarrow.parquet as pq

    from .joins import bucket_lookup_join

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        # money as exact int64 cents => block-order-invariant sums
        lambda b: pa.table(
            {
                "o_custkey": b.column("o_custkey"),
                "cents": _money_cents(b.column("o_totalprice")),
            }
        ),
        batch_format="pyarrow",
    )
    customer = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    joined = bucket_lookup_join(
        orders, customer, "o_custkey", "c_custkey", "c_nationkey", "c_nationkey",
    )
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nkeys = nation.column("n_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    nnames = np.asarray(nation.column("n_name").to_pylist(), dtype=object)

    def add_name(b: pa.Table) -> pa.Table:
        order = np.argsort(nkeys)
        ck = pc.cast(b.column("c_nationkey"), pa.int64()).to_numpy(zero_copy_only=False)
        pos = order[np.searchsorted(nkeys, ck, sorter=order)]
        return pa.table(
            {
                "n_name": pa.array(list(nnames[pos]), pa.string()),
                "cents": b.column("cents"),
            }
        )

    out = (
        joined.map_batches(add_name, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Count(), Sum("cents"))
        .to_pandas()
        .rename(columns={"count()": "n_orders"})
    )
    out["revenue"] = out["sum(cents)"] / 100.0
    return out.drop(columns=["sum(cents)"])


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


def _doc_freq(sf_dir: str) -> rd.Dataset:
    """Distributed document frequency: one (term, df) row per term.
    Per-batch partial = distinct (doc, term) pairs counted per term
    (each doc lives wholly in one batch, so partial dfs sum exactly)."""
    from ..functions.textstats import _tokens

    def partial(b: pa.Table) -> pa.Table:
        texts = b.column("text")
        texts = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
        flat, parents, _ = _tokens(texts)
        enc = pc.dictionary_encode(flat)
        enc = enc.combine_chunks() if isinstance(enc, pa.ChunkedArray) else enc
        codes = enc.indices.to_numpy(zero_copy_only=False)
        n_terms = len(enc.dictionary)
        if n_terms == 0:
            return pa.table(
                {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
        pair = np.unique(parents.astype(np.int64) * n_terms + codes)
        df = np.bincount(pair % n_terms, minlength=n_terms).astype(np.int64)
        nz = np.flatnonzero(df)
        return pa.table(
            {
                "term": enc.dictionary.take(pa.array(nz)),
                "df": pa.array(df[nz], pa.int64()),
            }
        )

    return (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df"))
        .map_batches(
            lambda b: _rename(b, {"sum(df)": "df"}), batch_format="pyarrow"
        )
    )


def q_term_doc_freq(sf_dir: str):
    """Top-20 terms by document frequency (the df half of TF-IDF):
    distributed distinct-(doc, term) rollup, deterministic ties."""
    top = (
        _doc_freq(sf_dir)
        .sort(["df", "term"], descending=[True, False])
        .limit(20)
        .to_pandas()
    )
    top["rk"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top


def q_tfidf_doc_scores(sf_dir: str):
    """Per-document TF-IDF mass: sum over token instances of
    ln(N / df(term)).  The df table is computed distributed
    (_doc_freq) and BROADCAST via ray.put — a (term -> df) lookup read
    once per task, no shuffle join; at corpus scale where the
    vocabulary outgrows a broadcast, the same rollup feeds a bucketed
    term join instead (joins.bucket_lookup_join).  Scoring is one
    weighted bincount per batch."""
    import math as _math

    import ray

    from ..functions.textstats import _tokens

    df_tbl = _doc_freq(sf_dir).to_pandas()
    n_docs = _docs(sf_dir, columns=["doc_id"]).count()
    idf = {
        t: _math.log(n_docs / d) for t, d in zip(df_tbl["term"], df_tbl["df"])
    }
    idf_ref = ray.put(idf)

    def score(b: pa.Table) -> pa.Table:
        lut = ray.get(idf_ref)
        texts = b.column("text")
        texts = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
        flat, parents, n_rows = _tokens(texts)
        enc = pc.dictionary_encode(flat)
        enc = enc.combine_chunks() if isinstance(enc, pa.ChunkedArray) else enc
        dist_idf = np.array(
            [lut[t] for t in enc.dictionary.to_pylist()], dtype=np.float64
        )
        codes = enc.indices.to_numpy(zero_copy_only=False)
        w = dist_idf[codes] if len(codes) else np.empty(0, np.float64)
        tot = np.zeros(n_rows)
        if len(parents):
            tot = np.bincount(parents, weights=w, minlength=n_rows)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "tfidf": pa.array(np.round(tot, 4), pa.float64()),
            }
        )

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# extraction queries (synthetic interleaved corpus — rows-only checks)
# ---------------------------------------------------------------------------


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


def q_extract_validate(sf_dir: str):
    """Span-sequence equality gate vs golden (north rule): one row of
    counts; docs_mismatched == 0 and docs_missing == 0 is the invariant."""
    paths = corpus_for(sf_dir)
    result = run_extract(paths["documents"], paths["media"], _extract_cfg())
    counts = validate_against_golden(result, paths["golden_spans"])
    return pa.Table.from_pylist([counts])


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


def q_ocr_text(sf_dir: str):
    """OCR map tasks over the media table -> page text + word count."""
    paths = corpus_for(sf_dir)
    return ocr_media(paths["media"], _extract_cfg()).map_batches(
        lambda b: b.select(["media_ref", "text", "n_words"]), batch_format="pyarrow"
    )


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


def q_layout_boxes(sf_dir: str):
    """Layout-only analysis (no model): box counts per page."""
    from ..stages.ocr_actor import LayoutActor

    media = read_media(corpus_for(sf_dir)["media"])
    return ocr_map(media, LayoutActor(), media.count(), ExtractConfig())


def q_hocr(sf_dir: str):
    """hOCR rendering: stable digest per page document."""
    from ..stages.ocr_actor import HocrActor

    cfg = ExtractConfig()
    media = read_media(corpus_for(sf_dir)["media"])
    return ocr_map(media, HocrActor(model_blob=cfg.model_blob), media.count(), cfg)


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


def q_media_decode(sf_dir: str):
    """Multimodal decode -> resize plumbing over REAL codecs: every
    third page (stable crc32 of its ref) is wrapped as a COMPRESSED
    PNG (from-scratch codec on stdlib zlib), one slice of the
    remaining grayscale pages as baseline JPEG (from-scratch DCT +
    Huffman codec, functions/jpegcodec.py — lossy, which is safe here
    because the query output is metadata + thumbnail byte counts),
    another slice as GIF (from-scratch LZW codec with variable code
    widths + dictionary resets, functions/gifcodec.py — lossless), a
    third as TIFF (functions/tiffcodec.py — MSB/early-change LZW with
    horizontal-differencing predictor for gray, PackBits for an RGBA
    slice), an RGBA slice as lossless WebP/VP8L (functions/webpcodec.py
    — prefix codes + LZ77 + subtract-green, from scratch), the other
    gray pages as binary PGM (P5) and RGBA pages as uncompressed
    32-bit BMP; the task pool then decodes all seven from scratch
    (pure numpy + stdlib zlib — see stages.multimodal) and resizes to
    32x32 thumbnails.  Only compressed audio/video essences (mp3/h264)
    remain stubbed per the driver brief (no codec libs here)."""
    from ..functions.gifcodec import encode_gif
    from ..functions.jpegcodec import encode_jpeg
    from ..functions.tiffcodec import encode_tiff
    from ..functions.webpcodec import encode_webp
    from ..stages.multimodal import (
        decode_media,
        encode_bmp,
        encode_png,
        encode_pnm,
        resize_nearest,
    )

    paths = corpus_for(sf_dir)
    media = rd.read_parquet(paths["media"])

    def as_payload(b: pa.Table) -> pa.Table:
        from ..functions.arrow_util import single_chunk

        pixels = single_chunk(b.column("pixels"))
        widths = b.column("width").to_pylist()
        heights = b.column("height").to_pylist()
        chans = b.column("channels").to_pylist()
        payloads, codecs = [], []
        refs = single_chunk(b.column("media_ref")).to_pylist()
        for i in range(b.num_rows):
            w, h, c = widths[i], heights[i], chans[i]
            img = np.frombuffer(pixels[i].as_py(), np.uint8).reshape(h, w, c)
            crc = zlib.crc32(refs[i].encode())
            if crc % 3 == 0:
                payloads.append(encode_png(img))
                codecs.append("png")
            elif c == 1 and crc % 5 == 1:
                payloads.append(encode_jpeg(img, quality=92))
                codecs.append("jpeg")
            elif c == 1 and crc % 5 == 2:
                payloads.append(encode_gif(img))
                codecs.append("gif")
            elif c == 1 and crc % 5 == 3:
                payloads.append(encode_tiff(img, compression="lzw", predictor=True))
                codecs.append("tiff")
            elif c == 4 and crc % 5 == 1:
                payloads.append(encode_tiff(img, compression="packbits"))
                codecs.append("tiff")
            elif c == 4 and crc % 5 == 2:
                payloads.append(encode_webp(img))
                codecs.append("webp")
            elif c == 1:
                payloads.append(encode_pnm(img))
                codecs.append("pgm")
            else:
                payloads.append(encode_bmp(img))
                codecs.append("bmp")
        return pa.table(
            {
                "media_ref": b.column("media_ref"),
                "payload": pa.array(payloads, pa.binary()),
                "codec": pa.array(codecs, pa.string()),
                "width": b.column("width"),
                "height": b.column("height"),
                "channels": b.column("channels"),
            }
        )

    # Task-pool decode (decode_media's default): the codecs are
    # stateless, and at sf0.1 the task pool measured 4.7 s where actor
    # pools measured 13-15 s at every size from 12 to 28 actors (Ray
    # 2.49's ActorPoolMapOperator ramps/queues too slowly for many
    # sub-second tasks).  Tasks also can't starve upstream encode the
    # way a fixed pool did in 8-cpu sessions (measured deadlock,
    # RAY_NOTES.md).
    decoded = decode_media(
        media.map_batches(as_payload, batch_format="pyarrow"),
        batch_size=16,
    )
    thumbs = decoded.map_batches(
        lambda b: resize_nearest(b, 32, 32), batch_format="pyarrow"
    )
    return thumbs.map_batches(
        lambda b: pa.table(
            {
                "media_ref": b.column("media_ref"),
                "width": b.column("width"),
                "height": b.column("height"),
                "thumb_bytes": pc.binary_length(b.column("pixels")),
            }
        ),
        batch_format="pyarrow",
    )


def q_media_features(sf_dir: str):
    """Raster feature extraction (multimodal stage) over synthetic media.
    No rounding: the features are exact integer ratios (see
    stages.multimodal.media_features), so the oracle compares full
    float64 values."""
    from ..stages.multimodal import media_features

    paths = corpus_for(sf_dir)
    media = rd.read_parquet(paths["media"])
    return media.map_batches(media_features, batch_format="pyarrow")


def _plant_image_variants(b: pa.Table) -> pa.Table:
    """Deterministic image-copy planting for phash_dedup (mirrored
    byte-for-byte by the SQL oracle): images whose md5(media_ref) hex
    starts with 0-3 gain a LOW-AMPLITUDE copy (every pixel byte XOR 1 —
    a ±1 intensity wiggle, the arithmetic stand-in for a re-encoded
    thumbnail) that must land within a few ahash bits and be REMOVED;
    images starting with 4-5 gain an INVERTED copy (255 - byte) whose
    block-vs-global-mean bits all flip — the negative control that must
    SURVIVE.  Variant ids sort after their originals, so the original
    is always the cluster survivor."""
    refs = _single_chunk_q(b.column("media_ref")).to_pylist()
    pix = _single_chunk_q(b.column("pixels"))
    keep = [b]
    v_ref, v_pix, v_rows = [], [], []
    for i, r in enumerate(refs):
        h0 = hashlib.md5(r.encode()).hexdigest()[0]
        if h0 in "0123":
            arr = np.frombuffer(pix[i].as_py(), np.uint8) ^ 1
            v_ref.append(r + "~v2")
        elif h0 in "45":
            arr = 255 - np.frombuffer(pix[i].as_py(), np.uint8)
            v_ref.append(r + "~neg")
        else:
            continue
        v_pix.append(arr.tobytes())
        v_rows.append(i)
    if v_rows:
        idx = pa.array(v_rows, pa.int64())
        keep.append(
            pa.table(
                {
                    "media_ref": pa.array(v_ref, pa.string()),
                    "width": pc.take(b.column("width"), idx),
                    "height": pc.take(b.column("height"), idx),
                    "channels": pc.take(b.column("channels"), idx),
                    "pixels": pa.array(v_pix, pa.binary()),
                }
            )
        )
    return pa.concat_tables(
        [t.select(["media_ref", "width", "height", "channels", "pixels"]) for t in keep]
    )


def q_phash_dedup(sf_dir: str):
    """Perceptual-hash image near-dup dedup (the LAION-style multimodal
    dedup pass): plant low-amplitude and inverted copies of a md5-routed
    slice of the media corpus, sketch every raster to a 64-bit integer
    average-hash, and remove any image within hamming <= 3 of a
    smaller-id image (4-block pigeonhole candidates — complete at that
    radius — then exact hamming verify; only int rows shuffle, pixels
    never leave their map task).  The DuckDB oracle re-derives the SAME
    hash from hex-exploded pixel bytes and replays the EXISTS rule, so
    this is value-gated end to end."""
    from .dedup import ahash_image_dedup

    paths = corpus_for(sf_dir)
    media = rd.read_parquet(
        paths["media"], columns=["media_ref", "width", "height", "channels", "pixels"]
    )
    # ahash_image_dedup consumes its input twice (sketch pass +
    # anti-join pass); materialize the planted table once so the
    # read+plant lineage doesn't re-execute per consumer.  At real
    # scale the planted/ingested corpus is already a parquet table on
    # disk, so this cache is a bench-scale stand-in for "read twice".
    planted = media.map_batches(_plant_image_variants, batch_format="pyarrow").materialize()
    survivors = ahash_image_dedup(planted, id_col="media_ref", max_hamming=3)
    return survivors.map_batches(
        lambda b: b.select(["media_ref", "width", "height"]), batch_format="pyarrow"
    )


def q_image_knn(sf_dir: str, broadcast_budget_bytes: int = 256 << 20):
    """Image similarity search (the LAION-style multimodal retrieval
    pass, composing the decode and similarity families): every raster
    sketches to the 64-bit integer average-hash (pixels never leave
    their map task), an md5-routed query subset's sketches broadcast
    in 256 MB-capped CHUNKS (the lookup_join_auto byte-budget
    discipline: the driver holds at most one chunk's (id, hash) rows
    transiently, however large the query set grows), each block
    computes vectorized XOR-popcount hamming distances against the
    chunk's query matrix and emits ONLY its local top-3 per query, and
    the (queries x blocks x 3) partials fold DISTRIBUTED — bucketed by
    query_ref through one small groupby, never through driver pandas
    (VERDICT r04 item 1: results cross the boundary, corpora don't —
    the worker-isolation principle of /root/reference/src/worker.ts:14-20).
    Deterministic tie-break (distance, neighbor id); self-matches
    excluded.  The DuckDB oracle re-derives the SAME hash bits from
    hex-exploded pixel bytes (the phash_dedup chain) and replays the
    rank."""
    from ..functions.sketch import hash_string_array
    from ..stages.multimodal import ahash64

    paths = corpus_for(sf_dir)
    media = rd.read_parquet(
        paths["media"], columns=["media_ref", "width", "height", "channels", "pixels"]
    )

    def hash_pass(b: pa.Table) -> pa.Table:
        # md5 prefix (vectorized kernel) selects the query subset
        # (hex[0] in '67', ~1/8 — mirrored by the oracle); the FNV
        # buffer hash routes queries to broadcast chunks (pure
        # partitioning of the query set: any deterministic key gives
        # the same union, so no md5 parity needed).  Both computed
        # ONCE here — no recompute per chunk pass.
        is_q = pc.is_in(
            md5_hex(b.column("media_ref"), prefix=1), value_set=pa.array(["6", "7"])
        )
        fnv = hash_string_array(_single_chunk_q(b.column("media_ref")))
        return pa.table(
            {
                "media_ref": b.column("media_ref"),
                "h": pa.array(ahash64(b).view(np.int64), pa.int64()),
                "is_q": is_q,
                "qkey": pa.array(
                    ((fnv >> np.uint64(24)) & np.uint64(0xFFF)).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    hashes = media.map_batches(hash_pass, batch_format="pyarrow").materialize()

    # Streaming probe (the lookup_join_auto discipline): pull the
    # DISTRIBUTED-filtered query rows to the driver only until the
    # ~64 B/row budget; the common case (query set fits) costs ONE
    # filter pass and no count.  On overflow the prefix is discarded
    # and the run falls back to FNV-routed broadcast chunks — up to
    # 4096 (~1.1e9 queries at 256 MB) before the knob must move to a
    # pruned read.
    budget_rows = max(1, int(broadcast_budget_bytes) // 64)
    q_batches: list[pa.Table] = []
    got = 0
    overflow = False
    for qb in hashes.map_batches(
        lambda b: b.filter(b.column("is_q")), batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        q_batches.append(qb)
        got += qb.num_rows
        if got > budget_rows:
            overflow = True
            break
    if overflow:
        n_queries = hashes.map_batches(
            lambda b: pa.table(
                {
                    "n": pa.array(
                        [int(pc.sum(pc.cast(b.column("is_q"), pa.int64())).as_py() or 0)],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        ).sum("n")
        n_chunks = min(4096, max(1, -(-int(n_queries or 0) // budget_rows)))
    else:
        n_queries = got
        n_chunks = 1

    K = 3
    partial_schema = pa.schema(
        [
            ("query_ref", pa.string()),
            ("neighbor_ref", pa.string()),
            ("hamming", pa.int64()),
        ]
    )

    pop_lut = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1, dtype=np.uint8
    )

    def make_block_topk(q_ref):
        def block_topk(b: pa.Table) -> pa.Table:
            qids_b, qh = ray.get(q_ref)
            n = b.num_rows
            if n == 0 or len(qids_b) == 0:
                return partial_schema.empty_table()
            ids = np.asarray(b.column("media_ref").to_pylist(), dtype=object)
            # pre-sort the block by id so a stable distance sort yields
            # the (distance, neighbor id) tie-break without object lexsort
            order = np.argsort(ids)
            ids, h = ids[order], b.column("h").to_numpy(zero_copy_only=False)[order]
            hu, qu = h.view(np.uint64), qh.view(np.uint64)
            # query COLUMNS processed in chunks sized so the (n, qc, 8)
            # popcount intermediate stays ~64 MB — the whole (n, Q)
            # matrix would be gigabytes once Q is a corpus-scale query
            # set, and a map task's heap must stay bounded
            if n >= 1 << 20:
                raise ValueError(
                    f"block of {n} rows exceeds the 2^20 composite-key budget; "
                    "lower target_max_block_size"
                )
            qc = int(max(256, min(len(qu), (64 << 20) // max(n * 8, 1))))
            rowpos = np.arange(n, dtype=np.int64)[:, None]
            parts = []
            for q0 in range(0, len(qu), qc):
                qh_c = qu[q0 : q0 + qc]
                qids_c = qids_b[q0 : q0 + qc]
                x = hu[:, None] ^ qh_c[None, :]
                d = pop_lut[x.view(np.uint8)].reshape(n, len(qh_c), 8).sum(
                    axis=2, dtype=np.int64
                )
                # top K+1 per query column by the composite (distance,
                # row-position) key: ids are pre-sorted, so row position
                # IS the id tie-break, the key is collision-free, and
                # argpartition selects in O(n) per column (a full
                # stable argsort was O(n log n) x Q — the wall at a
                # 36k-query corpus run); the K+1 winners then sort
                # exactly.  Self-matches drop after selection.
                kk = min(K + 1, n)
                key = d * (1 << 20) + rowpos
                top = np.argpartition(key, kk - 1, axis=0)[:kk]
                ordr = np.argsort(np.take_along_axis(key, top, axis=0), axis=0)
                top = np.take_along_axis(top, ordr, axis=0)
                cand = ids[top]  # (<=K+1, qc) neighbor ids
                valid = cand != qids_c[None, :]
                sel = valid & (np.cumsum(valid, axis=0) <= K)
                qcol = np.broadcast_to(qids_c[None, :], sel.shape)
                dist = np.take_along_axis(d, top, axis=0)
                parts.append(
                    pa.table(
                        {
                            "query_ref": pa.array(qcol[sel], pa.string()),
                            "neighbor_ref": pa.array(cand[sel], pa.string()),
                            "hamming": pa.array(dist[sel], pa.int64()),
                        }
                    )
                )
            return pa.concat_tables(parts)

        return block_topk

    def chunk_pass(q_tbl: pa.Table):
        qids_all = np.asarray(q_tbl.column("media_ref").to_pylist(), dtype=object)
        qh_all = q_tbl.column("h").to_numpy(zero_copy_only=False)
        q_order = np.argsort(qids_all)
        q_ref = ray.put((qids_all[q_order], qh_all[q_order].astype(np.int64)))
        return hashes.map_batches(make_block_topk(q_ref), batch_format="pyarrow")

    chunk_partials = []
    if n_chunks == 1:
        if got:
            chunk_partials.append(
                chunk_pass(pa.concat_tables(q_batches).combine_chunks())
            )
    else:
        del q_batches  # discard the probed prefix; re-filter per chunk
        for c in range(n_chunks):

            def flt(b: pa.Table, c=c) -> pa.Table:
                m = pc.and_(
                    b.column("is_q"),
                    pc.equal(
                        pa.array(
                            b.column("qkey").to_numpy(zero_copy_only=False)
                            % n_chunks,
                            pa.int32(),
                        ),
                        c,
                    ),
                )
                return b.filter(m)

            parts = list(
                hashes.map_batches(flt, batch_format="pyarrow").iter_batches(
                    batch_format="pyarrow"
                )
            )
            if not parts:
                continue
            q_tbl = pa.concat_tables(parts).combine_chunks()
            if q_tbl.num_rows:
                chunk_partials.append(chunk_pass(q_tbl))

    if not chunk_partials:
        empty = partial_schema.append(pa.field("rk", pa.int64())).empty_table()
        return rd.from_arrow(empty)
    partials = chunk_partials[0]
    if len(chunk_partials) > 1:
        partials = partials.union(*chunk_partials[1:])

    # distributed fold: bucket the bounded (Q x blocks x K) partials by
    # query_ref and keep each query's global top-K inside its bucket —
    # the merge_topk / keep_min_by discipline (similarity.py), with the
    # rank emitted from the same run-rank pass.  NO driver pandas.

    def add_qbucket(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "query_ref" not in b.column_names:
            return partial_schema.append(pa.field("__qb", pa.int32())).empty_table()
        hv = hash_string_array(_single_chunk_q(b.column("query_ref")))
        return b.append_column(
            "__qb", pa.array(((hv >> np.uint64(40)) % np.uint64(16)).astype(np.int32), pa.int32())
        )

    def merge_topk(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [
                ("query_ref", "ascending"),
                ("hamming", "ascending"),
                ("neighbor_ref", "ascending"),
            ]
        )
        rank = _run_rank(t.column("query_ref"))
        t = t.append_column("rk", pa.array(rank + 1, pa.int64()))
        return t.filter(pa.array(rank < K))

    return bucket_map_groups(
        partials.map_batches(add_qbucket, batch_format="pyarrow"), "__qb", merge_topk
    )


# ---------------------------------------------------------------------------
# training-data ops on testdata tables (rows-only checks)
# ---------------------------------------------------------------------------


def q_minhash_dedup(sf_dir: str):
    return minhash_lsh_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), threshold=0.8, num_buckets=16
    ).map_batches(lambda b: b.select(["doc_id"]), batch_format="pyarrow")


def q_minhash_components_dedup(sf_dir: str):
    """MinHash near-dup with connected-components clustering (one
    survivor per transitive near-dup cluster)."""
    return minhash_lsh_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), threshold=0.8, num_buckets=16, cluster="components"
    ).map_batches(lambda b: b.select(["doc_id"]), batch_format="pyarrow")


def q_simhash_dedup(sf_dir: str):
    return simhash_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), max_hamming=3, num_buckets=16
    ).map_batches(lambda b: b.select(["doc_id"]), batch_format="pyarrow")


def q_ngram_jaccard_dedup(sf_dir: str):
    return ngram_jaccard_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), threshold=0.8, num_buckets=16
    ).map_batches(lambda b: b.select(["doc_id"]), batch_format="pyarrow")


def _plant_embedding_copies(b: pa.Table) -> pa.Table:
    """Deterministic near-dup planting (mirrored by the SQL oracle's
    EMB_AUG_CTE): every ``vec_id % 10 == 0`` row is appended again at
    ``vec_id + 1_000_000``; ``% 20 == 0`` copies are scaled x2 — the
    unit vector is bit-identical (binary scaling is exact), so LSH
    recall on the copies is 1 by construction.  The base embeddings
    table has no near-dup pairs (max pairwise cosine ~0.51), so
    planting is what makes the removal path non-vacuous."""
    from .oracles import PLANT_MOD, PLANT_OFFSET, PLANT_SCALE_MOD

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


def q_langid(sf_dir: str):
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: _round(
            detect_language(b).select(["doc_id", "lang_pred", "lang_score"]),
            {"lang_score": 6},
        ),
        batch_format="pyarrow",
    )


def q_rolling_fingerprint(sf_dir: str):
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: fingerprint(b).select(["doc_id", "rolling_hash"]),
        batch_format="pyarrow",
    )


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


def q_knn_join(sf_dir: str):
    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    return knn_self_join(ds, k=3).map_batches(
        lambda b: _round(b, {"cos_sim": 5}), batch_format="pyarrow"
    )


def q_knn_join_cells(sf_dir: str):
    """Distributed IVF-cell k-NN self-join (no broadcast index).  With
    nprobe == n_centroids every query probes every cell, so recall is
    exactly 1 and the brute-force SQL oracle gates it bit-for-bit.  The
    pruned nprobe < n_centroids path is tested by
    tests/test_similarity.py::test_knn_cells_pruned_recall."""
    from .similarity import knn_self_join_cells

    ds = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    out = knn_self_join_cells(ds, k=3, n_centroids=8, nprobe=8)
    return out.map_batches(
        lambda b: _round(b, {"cos_sim": 5}), batch_format="pyarrow"
    )


def q_dup_ngram_frac(sf_dir: str):
    """Cross-document duplicated-n-gram fraction (the RefinedWeb/Gopher
    quality signal `repetition_stats` can't see: n-grams repeated
    ACROSS documents, not within one) — dedup.dup_ngram_stats over the
    documents table.  Grams are FNV shingle hashes (the exact chain
    oracles.sql_dup_ngram_frac recomputes in DuckDB HUGEINT), so only
    int-sized rows ever shuffle; the gram-STRING variant measured ~3x
    slower (14.0 s vs 5.1 s at sf0.1/32 cpus)."""
    from .dedup import dup_ngram_stats

    return dup_ngram_stats(_docs(sf_dir, columns=["doc_id", "text"]), n=5)


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
    from .dedup import chunk_dedup_docs

    return chunk_dedup_docs(
        _docs(sf_dir, columns=["doc_id", "text"]), chunk_size=16
    )


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


class _NEG_STR:
    """Inverts string comparison so max() realizes (cnt DESC, str ASC)."""

    __slots__ = ("s",)

    def __init__(self, s: str):
        self.s = s

    def __lt__(self, other: "_NEG_STR") -> bool:
        return self.s > other.s

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _NEG_STR) and self.s == other.s


def q_tpch_q5(sf_dir: str):
    """TPC-H Q5 shape: 6-way join lineitem ⋈ orders ⋈ customer ⋈
    supplier ⋈ nation ⋈ region with the cross-dimension predicate
    c_nationkey = s_nationkey, restricted to ASIA / order year 1996.
    Strategy mix sized per side: supplier (1k rows) and nation⋈region
    (25 rows) are broadcast numpy lookups applied map-side to lineitem
    BEFORE any shuffle (the region filter prunes ~80% of fact rows
    pre-shuffle); the two bigger joins — lineitem⋈orders on orderkey,
    then ⋈customer on custkey — go through `lookup_join_auto`, which
    broadcasts each dim while it fits the byte cap (no fact shuffle at
    all at this sf — measured 5.8 s -> see BASELINE) and falls back to
    the bucketed task-shuffle join beyond it (the 100-TB path)."""
    import pyarrow.parquet as pq

    from .joins import lookup_join_auto

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    skeys = sup.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    snat = sup.column("s_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    sorder = np.argsort(skeys)
    skeys, snat = skeys[sorder], snat[sorder]

    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    )
    asia_key = reg.filter(pc.equal(reg.column("r_name"), "ASIA")).column(
        "r_regionkey"
    )[0].as_py()
    nat_asia = nat.filter(pc.equal(nat.column("n_regionkey"), asia_key))
    nkeys = nat_asia.column("n_nationkey").to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    nnames = np.asarray(nat_asia.column("n_name").to_pylist(), dtype=object)
    norder = np.argsort(nkeys)
    nkeys, nnames = nkeys[norder], nnames[norder]
    asia_set = set(nkeys.tolist())

    def li_prejoin(b: pa.Table) -> pa.Table:
        lk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(skeys, lk)
        # inner-join semantics on a broadcast dim: a suppkey missing
        # from supplier must DROP the row, not gather a neighbor
        found = (pos < len(skeys)) & (skeys[np.minimum(pos, len(skeys) - 1)] == lk)
        nk = snat[np.minimum(pos, len(skeys) - 1)]
        keep = found & np.isin(nk, nkeys)
        b = b.filter(pa.array(keep))
        # revenue in exact int64 units of 10^-4 dollars (cents x
        # (100 - discount_pct)) => partition-invariant sums (r03 fix)
        rev = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "s_nat": pa.array(nk[keep], pa.int64()),
                "rev": rev,
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_prejoin, batch_format="pyarrow")

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(
                    b.column("o_orderdate"), pa.scalar(np.datetime64("1996-01-01", "us"))
                ),
                pc.less(
                    b.column("o_orderdate"), pa.scalar(np.datetime64("1997-01-01", "us"))
                ),
            )
        ).select(["o_orderkey", "o_custkey"]),
        batch_format="pyarrow",
    )

    with_cust = lookup_join_auto(
        li, orders, "l_orderkey", "o_orderkey", "o_custkey", "o_custkey",
    ).map_batches(
        # inner-join semantics: drop fact rows whose order fell to the
        # date filter (lookup came back null)
        lambda b: b.filter(pc.is_valid(b.column("o_custkey"))),
        batch_format="pyarrow",
    )

    customer = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("c_nationkey"),
            "c_nationkey",
            pc.cast(b.column("c_nationkey"), pa.int64()),
        ),
        batch_format="pyarrow",
    )
    with_nat = lookup_join_auto(
        with_cust, customer, "o_custkey", "c_custkey", "c_nationkey", "c_nat",
    )

    def local_sum(b: pa.Table) -> pa.Table:
        same = pc.equal(b.column("c_nat"), b.column("s_nat"))
        b = b.filter(pc.fill_null(same, False))
        nk = b.column("s_nat").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(nkeys, nk)
        return pa.table(
            {
                "n_name": pa.array(list(nnames[pos]), pa.string()),
                "rev": b.column("rev"),
            }
        )

    out = (
        with_nat.map_batches(local_sum, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Count(), Sum("rev"))
        .to_pandas()
        .rename(columns={"count()": "n_items"})
    )
    out["revenue"] = out["sum(rev)"] / 10000.0
    return out.drop(columns=["sum(rev)"])


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
    from .dedup import incremental_minhash_dedup

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


def q_tpch_q6(sf_dir: str):
    """TPC-H Q6 shape: pure filter + scalar aggregate — the zero-shuffle
    end of the relational spectrum.  Everything happens map-side (the
    date/discount/quantity predicates prune each block independently);
    the only cross-block traffic is one int64 partial sum per block.
    Revenue aggregates as exact int64 units of 10^-4 dollars
    (cents × discount_pct via _money_cents) so the single-row result is
    block-order-invariant and bit-matches the oracle."""
    import pandas as pd

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    def prep(b: pa.Table) -> pa.Table:
        disc_c = _money_cents(b.column("l_discount"))
        qty = _money_cents(b.column("l_quantity"), factor=1.0)
        ship = b.column("l_shipdate")
        keep = pc.and_(
            pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi)),
            pc.and_(
                pc.and_(
                    pc.greater_equal(disc_c, pa.scalar(5, pa.int64())),
                    pc.less_equal(disc_c, pa.scalar(7, pa.int64())),
                ),
                pc.less(qty, pa.scalar(24, pa.int64())),
            ),
        )
        b = b.filter(keep)
        rev = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            _money_cents(b.column("l_discount")),
        )
        return pa.table({"rev": rev})

    total = (
        rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
        )
        .map_batches(prep, batch_format="pyarrow")
        .aggregate(Sum("rev"))
    )
    cents4 = total.get("sum(rev)") or 0
    return pd.DataFrame({"revenue": [cents4 / 10000.0]})


def q_tpch_q3(sf_dir: str):
    """TPC-H Q3 shape: customer(BUILDING) ⋈ orders(date <) ⋈
    lineitem(shipdate >) → per-order revenue → global top-10.  The
    customer dim filter broadcasts as a sorted key array applied to
    orders map-side (no customer shuffle); the surviving (orderkey,
    orderdate) pairs join lineitem through lookup_join_auto (broadcast
    under the byte cap, bucketed task-shuffle beyond — the 100-TB
    path).  The top-10 never materializes the per-order rollup on the
    driver: each output block keeps its own 10 best rows map-side, so
    the driver merge sees ≤ 10 × n_blocks rows.  Revenue is exact
    int64 (cents × (100 − discount_pct)) with an (rev DESC, orderkey
    ASC) tie-break — deterministic hashes."""
    import pyarrow.parquet as pq
    import pandas as pd

    from .joins import lookup_join_auto

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    bkeys = np.sort(
        cust.filter(pc.equal(cust.column("c_mktsegment"), "BUILDING"))
        .column("c_custkey")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    cutoff = pa.scalar(np.datetime64("1996-03-15", "us"))

    def ord_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less(b.column("o_orderdate"), cutoff))
        ck = b.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(bkeys, ck)
        keep = (pos < len(bkeys)) & (bkeys[np.minimum(pos, len(bkeys) - 1)] == ck)
        b = b.filter(pa.array(keep))
        # date as exact int64 micros: Ray's Min aggregate and the
        # block-top-k sort both run in integer domain
        return pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_date_us": pc.cast(b.column("o_orderdate"), pa.int64()),
            }
        )

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ord_prep, batch_format="pyarrow")

    def li_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b.column("l_shipdate"), cutoff))
        rev = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table({"l_orderkey": b.column("l_orderkey"), "rev": rev})

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = lookup_join_auto(
        li, orders, "l_orderkey", "o_orderkey", "o_date_us", "o_date_us",
    ).map_batches(
        # inner semantics: drop lineitems whose order fell to the
        # date/segment filters (lookup came back null)
        lambda b: b.filter(pc.is_valid(b.column("o_date_us"))),
        batch_format="pyarrow",
    )

    def block_top10(b: pa.Table) -> pa.Table:
        return b.sort_by(
            [("rev", "descending"), ("l_orderkey", "ascending")]
        ).slice(0, 10)

    parts = (
        joined.groupby("l_orderkey")
        .aggregate(Sum("rev"), Min("o_date_us"))
        .map_batches(
            lambda b: _rename(
                b, {"sum(rev)": "rev", "min(o_date_us)": "o_date_us"}
            ),
            batch_format="pyarrow",
        )
        .map_batches(block_top10, batch_format="pyarrow")
        .take_all()  # bounded: ≤ 10 rows per output block
    )
    top = (
        pa.Table.from_pylist(parts)
        .sort_by([("rev", "descending"), ("l_orderkey", "ascending")])
        .slice(0, 10)
    )
    return pd.DataFrame(
        {
            "l_orderkey": top.column("l_orderkey").to_numpy(zero_copy_only=False),
            "revenue": top.column("rev").to_numpy(zero_copy_only=False) / 10000.0,
            "o_orderdate": top.column("o_date_us")
            .cast(pa.timestamp("us"))
            .to_pandas(),
        }
    )


def q_tpch_q4(sf_dir: str):
    """TPC-H Q4 shape: order-priority counts over an EXISTS semi-join
    (orders in a quarter having at least one lineitem shipped after the
    order date).  The in-window orders ship ONE packed int64 value per
    key through lookup_join_auto (``o_orderdate`` micros × 8 + priority
    digit — date_us < 2^60 so the pack is lossless), so the fact side
    never re-reads the orders table and the EXISTS reduces to a
    map-side filter; the surviving (orderkey, prio) pairs dedup with
    one bounded groupby (≤ in-window order count) before the 5-row
    priority rollup."""
    import pandas as pd

    from .joins import lookup_join_auto

    lo = pa.scalar(np.datetime64("1996-07-01", "us"))
    hi = pa.scalar(np.datetime64("1996-10-01", "us"))

    def ord_prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate")
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        date_us = pc.cast(b.column("o_orderdate"), pa.int64())
        digit = pc.cast(
            pc.utf8_slice_codeunits(b.column("o_orderpriority"), 0, 1), pa.int64()
        )
        packed = pc.add(pc.multiply(date_us, pa.scalar(8, pa.int64())), digit)
        return pa.table({"o_orderkey": b.column("o_orderkey"), "packed": packed})

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(ord_prep, batch_format="pyarrow")

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "ship_us": pc.cast(b.column("l_shipdate"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def exists_filter(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("packed")))
        date_us = pc.divide(b.column("packed"), pa.scalar(8, pa.int64()))
        b = b.filter(pc.greater(b.column("ship_us"), date_us))
        prio = pc.bit_wise_and(b.column("packed"), pa.scalar(7, pa.int64()))
        return pa.table({"l_orderkey": b.column("l_orderkey"), "prio": prio})

    matched = lookup_join_auto(
        li, orders, "l_orderkey", "o_orderkey", "packed", "packed",
    ).map_batches(exists_filter, batch_format="pyarrow")

    counts = (
        matched.groupby("l_orderkey")
        .aggregate(Min("prio"))  # dedup: one row per qualifying order
        .map_batches(
            lambda b: pa.table({"prio": b.column("min(prio)")}),
            batch_format="pyarrow",
        )
        .groupby("prio")
        .aggregate(Count())
        .to_pandas()
    )
    labels = {
        1: "1-URGENT", 2: "2-HIGH", 3: "3-MEDIUM",
        4: "4-NOT SPECIFIED", 5: "5-LOW",
    }
    return pd.DataFrame(
        {
            "o_orderpriority": counts["prio"].map(labels),
            "order_count": counts["count()"].astype(np.int64),
        }
    )


def q_tpch_q10(sf_dir: str):
    """TPC-H Q10 shape: top-20 customers by returned-item revenue in a
    quarter.  Returned lineitems pick up ``o_custkey`` from the
    window-filtered orders via lookup_join_auto (broadcast under the
    byte cap, bucketed shuffle beyond); revenue aggregates per customer
    in exact int64 10^-4 units; each output block keeps only its own
    top 20 so the driver merge sees ≤ 20 × n_blocks rows.  The final
    20-key enrichment probes the customer dim with a parquet
    row-group predicate pushdown (dim-sized read for 20 keys) and the
    25-row nation table drives a direct index_in — no full-dim
    driver materialization at any scale."""
    import pyarrow.parquet as pq
    import pandas as pd

    from .joins import lookup_join_auto

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"))

    def ord_prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate")
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        return b.select(["o_orderkey", "o_custkey"])

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ord_prep, batch_format="pyarrow")

    def li_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("l_returnflag"), "R"))
        rev = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table({"l_orderkey": b.column("l_orderkey"), "rev": rev})

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = lookup_join_auto(
        li, orders, "l_orderkey", "o_orderkey", "o_custkey", "o_custkey",
    ).map_batches(
        lambda b: b.filter(pc.is_valid(b.column("o_custkey"))),
        batch_format="pyarrow",
    )

    def block_top20(b: pa.Table) -> pa.Table:
        return b.sort_by(
            [("rev", "descending"), ("o_custkey", "ascending")]
        ).slice(0, 20)

    parts = (
        joined.groupby("o_custkey")
        .aggregate(Sum("rev"))
        .map_batches(
            lambda b: _rename(b, {"sum(rev)": "rev"}), batch_format="pyarrow"
        )
        .map_batches(block_top20, batch_format="pyarrow")
        .take_all()  # bounded: ≤ 20 rows per output block
    )
    top = (
        pa.Table.from_pylist(parts)
        .sort_by([("rev", "descending"), ("o_custkey", "ascending")])
        .slice(0, 20)
    )
    keys = top.column("o_custkey").to_pylist()
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        filters=[("c_custkey", "in", keys)],
    )
    pos = pc.index_in(top.column("o_custkey"), cust.column("c_custkey"))
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nk = pc.take(cust.column("c_nationkey"), pos)
    npos = pc.index_in(nk, nation.column("n_nationkey"))
    return pd.DataFrame(
        {
            "c_custkey": top.column("o_custkey").to_numpy(zero_copy_only=False),
            "c_name": pc.take(cust.column("c_name"), pos).to_pandas(),
            "revenue": top.column("rev").to_numpy(zero_copy_only=False) / 10000.0,
            "c_acctbal": pc.take(cust.column("c_acctbal"), pos).to_pandas(),
            "n_name": pc.take(nation.column("n_name"), npos).to_pandas(),
        }
    )


def q_tpch_q12(sf_dir: str):
    """TPC-H Q12 shape (priority class stands in for the shipmode
    column the synthetic schema lacks): lineitems shipped in 1996 pick
    up the order's priority digit through lookup_join_auto, classify
    map-side into high (1-URGENT / 2-HIGH) vs low, and roll up
    conditional counts per returnflag — conditional aggregation after
    a fact⋈dim join, all int64."""
    from .joins import lookup_join_auto

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"],
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "prio": pc.cast(
                    pc.utf8_slice_codeunits(b.column("o_orderpriority"), 0, 1),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def li_prep(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate")
        b = b.filter(pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi)))
        return b.select(["l_orderkey", "l_returnflag"])

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_returnflag", "l_shipdate"],
    ).map_batches(li_prep, batch_format="pyarrow")

    def classify(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("prio")))
        high = pc.cast(
            pc.less_equal(b.column("prio"), pa.scalar(2, pa.int64())), pa.int64()
        )
        low = pc.subtract(pa.scalar(1, pa.int64()), high)
        return pa.table(
            {"l_returnflag": b.column("l_returnflag"), "high": high, "low": low}
        )

    out = (
        lookup_join_auto(
            li, orders, "l_orderkey", "o_orderkey", "prio", "prio",
        )
        .map_batches(classify, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(Sum("high"), Sum("low"))
        .to_pandas()
        .rename(
            columns={"sum(high)": "high_line_count", "sum(low)": "low_line_count"}
        )
    )
    return out


def q_tpch_q14(sf_dir: str):
    """TPC-H Q14 shape: promo revenue share for one ship month.  The
    part dim ships a 0/1 promo flag per key through lookup_join_auto;
    both the promo and total revenue sums aggregate as exact int64
    10^-4 units and the single percentage division happens once on the
    driver (mirrored literally in the oracle: ``100.0 * promo /
    total``)."""
    import pandas as pd

    from .joins import lookup_join_auto

    lo = pa.scalar(np.datetime64("1996-09-01", "us"))
    hi = pa.scalar(np.datetime64("1996-10-01", "us"))

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    ).map_batches(
        lambda b: pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "promo": pc.cast(
                    pc.equal(b.column("p_type"), "PROMO"), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def li_prep(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate")
        b = b.filter(pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi)))
        rev = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table({"l_partkey": b.column("l_partkey"), "rev": rev})

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    def split(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("promo")))
        rev = b.column("rev")
        return pa.table(
            {"rev": rev, "promo_rev": pc.multiply(rev, b.column("promo"))}
        )

    totals = (
        lookup_join_auto(
            li, part, "l_partkey", "p_partkey", "promo", "promo",
        )
        .map_batches(split, batch_format="pyarrow")
        .aggregate(Sum("rev"), Sum("promo_rev"))
    )
    total = totals.get("sum(rev)") or 0
    promo = totals.get("sum(promo_rev)") or 0
    return pd.DataFrame({"promo_revenue": [(100.0 * promo) / total]})


def q_tpch_q18(sf_dir: str):
    """TPC-H Q18 shape (large-volume customers): orders whose total
    lineitem quantity exceeds 300.  One lineitem groupby produces the
    per-order quantity sums (exact int64 ×100); the HAVING survivors —
    output-sized, tiny relative to the fact — become the RIGHT side of
    lookup_join_auto, so the orders table streams through exactly once
    and never shuffles while the survivor set fits the broadcast cap
    (bucketed shuffle beyond).  Block-local top-100 by exact totalprice
    cents bounds the driver merge; the 100-key customer-name probe is
    a parquet predicate-pushdown read."""
    import pyarrow.parquet as pq
    import pandas as pd

    from .joins import lookup_join_auto

    def li_partial(b: pa.Table) -> pa.Table:
        # map-side combine BEFORE the orderkey shuffle: lineitem is
        # clustered by orderkey, so per-batch np.unique collapses the
        # block to ~distinct-order rows and the groupby moves partials
        ok = b.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        qc = (
            _money_cents(b.column("l_quantity"))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        keys, inv = np.unique(ok, return_inverse=True)
        return pa.table(
            {
                "l_orderkey": pa.array(keys, pa.int64()),
                "qty_c": pa.array(np.bincount(inv, weights=qc).astype(np.int64)),
            }
        )

    from .relational import grouped_sum_i64

    qsum = grouped_sum_i64(
        rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_quantity"],
        ).map_batches(li_partial, batch_format="pyarrow"),
        "l_orderkey",
        ["qty_c"],
    ).map_batches(
        lambda b: b.filter(
            pc.greater(b.column("qty_c"), pa.scalar(30000, pa.int64()))
        ),
        batch_format="pyarrow",
    )

    def ord_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_custkey": b.column("o_custkey"),
                "date_us": pc.cast(b.column("o_orderdate"), pa.int64()),
                "t_cents": _money_cents(b.column("o_totalprice")),
            }
        )

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    ).map_batches(ord_prep, batch_format="pyarrow")

    def block_top100(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("qty_c")))
        return b.sort_by(
            [("t_cents", "descending"), ("o_orderkey", "ascending")]
        ).slice(0, 100)

    parts = (
        lookup_join_auto(
            orders, qsum, "o_orderkey", "l_orderkey", "qty_c", "qty_c",
        )
        .map_batches(block_top100, batch_format="pyarrow")
        .take_all()  # bounded: ≤ 100 rows per output block
    )
    top = (
        pa.Table.from_pylist(parts)
        .sort_by([("t_cents", "descending"), ("o_orderkey", "ascending")])
        .slice(0, 100)
    )
    keys = top.column("o_custkey").to_pylist()
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"],
        filters=[("c_custkey", "in", list(set(keys)))],
    )
    pos = pc.index_in(top.column("o_custkey"), cust.column("c_custkey"))
    return pd.DataFrame(
        {
            "c_name": pc.take(cust.column("c_name"), pos).to_pandas(),
            "o_custkey": top.column("o_custkey").to_numpy(zero_copy_only=False),
            "o_orderkey": top.column("o_orderkey").to_numpy(zero_copy_only=False),
            "o_orderdate": top.column("date_us").cast(pa.timestamp("us")).to_pandas(),
            "o_totalprice": top.column("t_cents").to_numpy(zero_copy_only=False)
            / 100.0,
            "sum_qty": top.column("qty_c").to_numpy(zero_copy_only=False) / 100.0,
        }
    )


def q_tpch_q19(sf_dir: str):
    """TPC-H Q19 shape: disjunctive brand/size/quantity predicates over
    lineitem ⋈ part.  The part dim ships ONE packed int64 per key
    (p_size × 1000 + brand number) through lookup_join_auto; the three
    OR branches evaluate as vectorized masks map-side and only int64
    revenue partials cross blocks."""
    import pandas as pd

    from .joins import lookup_join_auto

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"],
    ).map_batches(
        lambda b: pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "code": pc.add(
                    pc.multiply(
                        pc.cast(b.column("p_size"), pa.int64()),
                        pa.scalar(1000, pa.int64()),
                    ),
                    pc.cast(
                        pc.utf8_slice_codeunits(b.column("p_brand"), 6, 12),
                        pa.int64(),
                    ),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_partkey": b.column("l_partkey"),
                "qty": _money_cents(b.column("l_quantity"), factor=1.0),
                "rev": pc.multiply(
                    _money_cents(b.column("l_extendedprice")),
                    pc.subtract(
                        pa.scalar(100, pa.int64()),
                        _money_cents(b.column("l_discount")),
                    ),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    BRANCHES = ((12, 5, 1, 11), (23, 10, 10, 20), (34, 15, 20, 30))

    def branch_filter(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("code")))
        code = b.column("code").to_numpy(zero_copy_only=False)
        qty = b.column("qty").to_numpy(zero_copy_only=False)
        size = code // 1000
        brand = code % 1000
        keep = np.zeros(len(code), dtype=bool)
        for br, smax, qlo, qhi in BRANCHES:
            keep |= (
                (brand == br)
                & (size >= 1)
                & (size <= smax)
                & (qty >= qlo)
                & (qty <= qhi)
            )
        return pa.table({"rev": pc.filter(b.column("rev"), pa.array(keep))})

    total = (
        lookup_join_auto(
            li, part, "l_partkey", "p_partkey", "code", "code",
        )
        .map_batches(branch_filter, batch_format="pyarrow")
        .aggregate(Sum("rev"))
    )
    cents4 = total.get("sum(rev)") or 0
    return pd.DataFrame({"revenue": [cents4 / 10000.0]})


def q_tpch_q7(sf_dir: str):
    """TPC-H Q7 shape (volume shipping between two nations): lineitems
    shipped 1996-1997 where the supplier sits in NATION_1 and the
    customer in NATION_2 or vice versa, rolled up by (supp_nation,
    cust_nation, ship year).  Supplier and nation are tiny dims —
    broadcast numpy lookups applied map-side BEFORE any join, and the
    two-nation filter prunes ~92% of fact rows pre-shuffle; the
    orders→custkey and customer→nationkey hops go through
    lookup_join_auto.  Volume aggregates as exact int64 10^-4 units;
    nation names attach driver-side to the ≤ 2×n_years result."""
    import pyarrow.parquet as pq
    import pandas as pd

    from .joins import lookup_join_auto

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nkeys = nation.column("n_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    nnames = nation.column("n_name").to_pylist()
    by_name = {n: k for k, n in zip(nkeys, nnames)}
    na, nb = by_name["NATION_1"], by_name["NATION_2"]

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    skeys = sup.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    snat = sup.column("s_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    sorder = np.argsort(skeys)
    skeys, snat = skeys[sorder], snat[sorder]

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"))

    def li_prep(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate")
        b = b.filter(pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi)))
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(skeys, sk)
        pos = np.minimum(pos, len(skeys) - 1)
        s_nat = snat[pos]
        keep = (skeys[pos] == sk) & ((s_nat == na) | (s_nat == nb))
        b = b.filter(pa.array(keep))
        vol = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "s_nat": pa.array(s_nat[keep], pa.int64()),
                "l_year": pc.year(b.column("l_shipdate")),
                "volume": vol,
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: pa.table(
            {
                "c_custkey": b.column("c_custkey"),
                "c_nat": pc.cast(b.column("c_nationkey"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def pair_filter(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("c_nat")))
        s = b.column("s_nat").to_numpy(zero_copy_only=False)
        c = b.column("c_nat").to_numpy(zero_copy_only=False)
        keep = ((s == na) & (c == nb)) | ((s == nb) & (c == na))
        return b.filter(pa.array(keep)).select(["s_nat", "c_nat", "l_year", "volume"])

    joined = lookup_join_auto(
        lookup_join_auto(
            li, orders, "l_orderkey", "o_orderkey", "o_custkey", "o_custkey",
        ),
        cust, "o_custkey", "c_custkey", "c_nat", "c_nat",
    ).map_batches(pair_filter, batch_format="pyarrow")

    out = (
        joined.groupby(["s_nat", "c_nat", "l_year"])
        .aggregate(Sum("volume"))
        .to_pandas()
    )
    name_of = {k: n for k, n in zip(nkeys, nnames)}
    return pd.DataFrame(
        {
            "supp_nation": out["s_nat"].map(name_of),
            "cust_nation": out["c_nat"].map(name_of),
            "l_year": out["l_year"].astype(np.int64),
            "revenue": out["sum(volume)"] / 10000.0,
        }
    )


def q_tpch_q8(sf_dir: str):
    """TPC-H Q8 shape (national market share): of all PROMO-part volume
    ordered 1996-1997 by ASIA customers, the share supplied from
    NATION_3, per order year.  Supplier→nation and nation→region are
    map-side numpy lookups; the part promo flag and the packed
    (custkey, order-year) value ride lookup_join_auto; numerator and
    denominator aggregate as exact int64 and divide once per year on
    the driver (mirroring SQL's integer-sum / integer-sum double
    division)."""
    import pyarrow.parquet as pq
    import pandas as pd

    from .joins import lookup_join_auto

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    region = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    )
    asia_rk = region.filter(pc.equal(region.column("r_name"), "ASIA")).column(
        "r_regionkey"
    )[0].as_py()
    nk = nation.column("n_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    asia_nations = np.sort(
        nk[
            nation.column("n_regionkey").to_numpy(zero_copy_only=False).astype(np.int64)
            == asia_rk
        ]
    )
    share_nat = nation.filter(
        pc.equal(nation.column("n_name"), "NATION_3")
    ).column("n_nationkey")[0].as_py()

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    skeys = sup.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    snat = sup.column("s_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    sorder = np.argsort(skeys)
    skeys, snat = skeys[sorder], snat[sorder]

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    ).map_batches(
        lambda b: pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "promo": pc.cast(pc.equal(b.column("p_type"), "PROMO"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"))

    def ord_prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate")
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        packed = pc.add(
            pc.multiply(b.column("o_custkey"), pa.scalar(16, pa.int64())),
            pc.subtract(pc.year(b.column("o_orderdate")), pa.scalar(1992, pa.int64())),
        )
        return pa.table({"o_orderkey": b.column("o_orderkey"), "packed": packed})

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ord_prep, batch_format="pyarrow")

    def li_prep(b: pa.Table) -> pa.Table:
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.minimum(np.searchsorted(skeys, sk), len(skeys) - 1)
        keep = skeys[pos] == sk
        b = b.filter(pa.array(keep))
        vol = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_partkey": b.column("l_partkey"),
                "s_nat": pa.array(snat[pos][keep], pa.int64()),
                "volume": vol,
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: pa.table(
            {
                "c_custkey": b.column("c_custkey"),
                "c_nat": pc.cast(b.column("c_nationkey"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def finish(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(pc.is_valid(b.column("promo")), pc.is_valid(b.column("packed"))),
            pc.is_valid(b.column("c_nat")),
        )
        b = b.filter(m)
        b = b.filter(pc.equal(b.column("promo"), pa.scalar(1, pa.int64())))
        cn = b.column("c_nat").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(asia_nations, cn), len(asia_nations) - 1)
        b = b.filter(pa.array(asia_nations[pos] == cn))
        year = pc.add(
            pc.bit_wise_and(b.column("packed"), pa.scalar(15, pa.int64())),
            pa.scalar(1992, pa.int64()),
        )
        vol = b.column("volume")
        num = pc.multiply(
            vol, pc.cast(pc.equal(b.column("s_nat"), share_nat), pa.int64())
        )
        return pa.table({"o_year": year, "num": num, "den": vol})

    joined = lookup_join_auto(
        lookup_join_auto(
            lookup_join_auto(
                li, part, "l_partkey", "p_partkey", "promo", "promo",
            ),
            orders, "l_orderkey", "o_orderkey", "packed", "packed",
        ).map_batches(
            # custkey for the customer hop comes out of the packed value
            lambda b: b.append_column(
                "o_custkey",
                pc.divide(b.column("packed"), pa.scalar(16, pa.int64())),
            ),
            batch_format="pyarrow",
        ),
        cust, "o_custkey", "c_custkey", "c_nat", "c_nat",
    ).map_batches(finish, batch_format="pyarrow")

    out = (
        joined.groupby("o_year")
        .aggregate(Sum("num"), Sum("den"))
        .to_pandas()
        .sort_values("o_year", ignore_index=True)
    )
    return pd.DataFrame(
        {
            "o_year": out["o_year"].astype(np.int64),
            "mkt_share": out["sum(num)"].astype(float) / out["sum(den)"].astype(float),
        }
    )


def q_tpch_q2(sf_dir: str):
    """TPC-H Q2 shape (minimum-cost supplier): for every size-15 part,
    the EUROPE supplier quoting the lowest price (l_extendedprice
    stands in for ps_supplycost — the synthetic schema has no
    partsupp).  The correlated MIN subquery becomes one argmin-per-key
    groupby: price and supplier pack into a single int64
    (price_c * 2^21 + suppkey, price_c < 2^24, suppkey < 2^21) so
    ``Min(packed)`` IS the lexicographic (price, suppkey) argmin with a
    deterministic tie-break — no join-back against the min value.  The
    nation→region hop is a driver numpy lookup (nations are O(100)
    always); part flag and supplier membership ride lookup_join_auto;
    s_name attaches to the part-bounded result via one more lookup."""
    import pyarrow.parquet as pq

    from .joins import lookup_join_auto

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"],
    )
    region = pq.read_table(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"],
    )
    euro = region.filter(pc.equal(region.column("r_name"), "EUROPE")).column(
        "r_regionkey"
    )
    euro_nations = pa.array(
        nation.filter(pc.is_in(nation.column("n_regionkey"), euro))
        .column("n_nationkey")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )

    def part_prep(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.equal(
                pc.cast(b.column("p_size"), pa.int64()), pa.scalar(15, pa.int64())
            )
        )
        return pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "__flag": pa.array(np.ones(b.num_rows, np.int64)),
            }
        )

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_size"]
    ).map_batches(part_prep, batch_format="pyarrow")
    sup = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    ).map_batches(
        lambda b: pa.table(
            {
                "s_suppkey": b.column("s_suppkey"),
                "__euro": pc.cast(
                    pc.is_in(
                        pc.cast(b.column("s_nationkey"), pa.int64()), euro_nations
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    SHIFT = pa.scalar(1 << 21, pa.int64())

    def pack(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(b.column("__flag")),
            pc.equal(
                pc.coalesce(b.column("__euro"), pa.scalar(0, pa.int64())),
                pa.scalar(1, pa.int64()),
            ),
        )
        b = b.filter(keep)
        price_c = _money_cents(b.column("l_extendedprice"))
        packed = pc.add(
            pc.multiply(price_c, SHIFT),
            pc.cast(b.column("l_suppkey"), pa.int64()),
        )
        return pa.table({"p_partkey": b.column("l_partkey"), "packed": packed})

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )
    li = lookup_join_auto(
        li, part, "l_partkey", "p_partkey", "__flag", "__flag",
    )
    li = lookup_join_auto(
        li, sup, "l_suppkey", "s_suppkey", "__euro", "__euro",
    )

    def unpack(b: pa.Table) -> pa.Table:
        packed = pc.cast(b.column("min(packed)"), pa.int64())
        price_c = pc.divide(packed, SHIFT)
        suppkey = pc.subtract(packed, pc.multiply(price_c, SHIFT))
        return pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "s_suppkey": suppkey,
                "min_price": pc.divide(
                    pc.cast(price_c, pa.float64()), pa.scalar(100.0)
                ),
            }
        )

    best = (
        li.map_batches(pack, batch_format="pyarrow")
        .groupby("p_partkey")
        .aggregate(Min("packed"))
        .map_batches(unpack, batch_format="pyarrow")
    )
    names = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_name"]
    )
    return lookup_join_auto(
        best, names, "s_suppkey", "s_suppkey", "s_name", "s_name",
    )


def q_tpch_q15(sf_dir: str):
    """TPC-H Q15 shape (top supplier): per-supplier revenue for
    1996-Q1 shipments, keeping every supplier tied at the maximum —
    the view + ``= (SELECT max(...))`` selection.  Per-supplier sums
    are exact int64 10^-4 units (supplier-bounded groupby), the global
    max folds to ONE driver scalar via a second tiny aggregate, and
    the equality filter + name lookup stay map-side — the fact table
    shuffles exactly once, ties survive bit-exactly (no float max)."""
    from .joins import lookup_join_auto

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"))

    def li_prep(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate")
        b = b.filter(pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi)))
        vol = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table({"s_suppkey": b.column("l_suppkey"), "vol": vol})

    revs = (
        rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
        )
        .map_batches(li_prep, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("vol"))
        .map_batches(
            lambda b: _rename(b, {"sum(vol)": "total_c"}), batch_format="pyarrow"
        )
        .materialize()  # supplier-bounded; consumed twice (max + filter)
    )
    mx = revs.aggregate(Max("total_c"))["max(total_c)"]

    top = revs.map_batches(
        lambda b: b.filter(
            pc.equal(b.column("total_c"), pa.scalar(mx, pa.int64()))
        ),
        batch_format="pyarrow",
    )
    names = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_name"]
    )
    return lookup_join_auto(
        top, names, "s_suppkey", "s_suppkey", "s_name", "s_name",
    ).map_batches(
        lambda b: pa.table(
            {
                "s_suppkey": b.column("s_suppkey"),
                "s_name": b.column("s_name"),
                "total_revenue": pc.divide(
                    pc.cast(b.column("total_c"), pa.float64()),
                    pa.scalar(10000.0),
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_tpch_q9(sf_dir: str):
    """TPC-H Q9 shape (product-type profit): profit on 'red' parts by
    supplier nation and order year, where profit = discounted revenue
    minus p_retailprice*quantity (retailprice stands in for the absent
    ps_supplycost).  The part hop ships retail cents as the lookup
    value (match == flag, so one join does filter + payload); the
    supplier→nation hop is the q7 numpy broadcast; the order-year hop
    rides lookup_join_auto.  Both profit terms are exact int64 10^-4
    dollars, so the (nation, year)-bounded rollup is block-order
    invariant; nation names attach driver-side to the tiny result."""
    import pyarrow.parquet as pq

    from .joins import lookup_join_auto

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nkeys = nation.column("n_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    nnames = nation.column("n_name").to_pylist()
    name_of = dict(zip(nkeys.tolist(), nnames))

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    skeys = sup.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    snat = sup.column("s_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    sorder = np.argsort(skeys)
    skeys, snat = skeys[sorder], snat[sorder]

    def part_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.match_substring(b.column("p_name"), "red"))
        return pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "retail_c": _money_cents(b.column("p_retailprice")),
            }
        )

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_name", "p_retailprice"],
    ).map_batches(part_prep, batch_format="pyarrow")

    def profit(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("retail_c")))
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.minimum(np.searchsorted(skeys, sk), len(skeys) - 1)
        keep = skeys[pos] == sk
        b = b.filter(pa.array(keep))
        s_nat = snat[pos][keep]
        rev = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        cost = pc.multiply(
            b.column("retail_c"), _money_cents(b.column("l_quantity"))
        )
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "s_nat": pa.array(s_nat, pa.int64()),
                "profit_u": pc.subtract(rev, cost),
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_orderkey", "l_partkey", "l_suppkey",
            "l_quantity", "l_extendedprice", "l_discount",
        ],
    )
    li = lookup_join_auto(
        li, part, "l_partkey", "p_partkey", "retail_c", "retail_c",
    ).map_batches(profit, batch_format="pyarrow")

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate"],
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_year": pc.cast(pc.year(b.column("o_orderdate")), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    out = (
        lookup_join_auto(
            li, orders, "l_orderkey", "o_orderkey", "o_year", "o_year",
        )
        .map_batches(
            lambda b: b.filter(pc.is_valid(b.column("o_year"))).select(
                ["s_nat", "o_year", "profit_u"]
            ),
            batch_format="pyarrow",
        )
        .groupby(["s_nat", "o_year"])
        .aggregate(Sum("profit_u"))
        .to_pandas()
    )
    out["nation"] = out["s_nat"].map(name_of)
    out["sum_profit"] = out["sum(profit_u)"].astype(np.int64) / 10000.0
    return out[["nation", "o_year", "sum_profit"]]


def q_tpch_q11(sf_dir: str):
    """TPC-H Q11 shape (important stock): per-part inventory value from
    NATION_3 suppliers, keeping parts whose value exceeds 0.1%% of the
    nation's total (l_extendedprice*l_quantity stands in for
    ps_supplycost*ps_availqty — no partsupp in the synthetic schema).
    The HAVING-vs-global-scalar-subquery becomes: one part-bounded
    groupby of exact int64 10^-4 values, one scalar Sum fold, and a
    map-side EXACT integer fraction filter ``value_u * 1000 >
    total_u`` — no float threshold, so ties at the boundary are
    deterministic.  Supplier→nation membership is a driver numpy
    lookup applied before the shuffle (q7 pattern)."""
    import pyarrow.parquet as pq

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nat1 = nation.filter(
        pc.equal(nation.column("n_name"), "NATION_3")
    ).column("n_nationkey")
    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )
    keep_sup = np.sort(
        sup.filter(pc.is_in(sup.column("s_nationkey"), nat1))
        .column("s_suppkey")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )

    def value(b: pa.Table) -> pa.Table:
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keep_sup):
            pos = np.minimum(np.searchsorted(keep_sup, sk), len(keep_sup) - 1)
            keep = keep_sup[pos] == sk
        else:
            keep = np.zeros(len(sk), bool)
        b = b.filter(pa.array(keep))
        return pa.table(
            {
                "p_partkey": b.column("l_partkey"),
                "value_u": pc.multiply(
                    _money_cents(b.column("l_extendedprice")),
                    _money_cents(b.column("l_quantity")),
                ),
            }
        )

    vals = (
        rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"],
        )
        .map_batches(value, batch_format="pyarrow")
        .groupby("p_partkey")
        .aggregate(Sum("value_u"))
        .map_batches(
            lambda b: _rename(b, {"sum(value_u)": "value_u"}),
            batch_format="pyarrow",
        )
        .materialize()  # part-bounded; consumed twice (total + filter)
    )
    total = vals.aggregate(Sum("value_u"))["sum(value_u)"] or 0

    def important(b: pa.Table) -> pa.Table:
        keep = pc.greater(
            pc.multiply(b.column("value_u"), pa.scalar(1000, pa.int64())),
            pa.scalar(total, pa.int64()),
        )
        b = b.filter(keep)
        return pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "part_value": pc.divide(
                    pc.cast(b.column("value_u"), pa.float64()),
                    pa.scalar(10000.0),
                ),
            }
        )

    return vals.map_batches(important, batch_format="pyarrow")


def q_tpch_q16(sf_dir: str):
    """TPC-H Q16 shape (part/supplier relationship): distinct supplier
    count per (p_brand, p_size) over non-Brand#12 parts, excluding
    blacklisted suppliers (s_acctbal < 0 stands in for the complaints
    LIKE subquery).  COUNT(DISTINCT) is the two-level scale-safe
    groupby (dedupe (brand, size, suppkey) triples with map-side
    combine, then a bounded count rollup); the NOT-IN set is tiny by
    construction and applies as a vectorized is_in BEFORE the first
    shuffle; part attrs ship as one packed int64 lookup value
    (brand index * 2^8 + size)."""
    import pyarrow.parquet as pq

    from .joins import lookup_join_auto

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_acctbal"],
    )
    bad = pa.array(
        sup.filter(pc.less(sup.column("s_acctbal"), pa.scalar(0.0)))
        .column("s_suppkey")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )

    # brand vocabulary must be deterministic and engine/oracle-shared:
    # derive indexes from the numeric suffix (Brand#N -> N), size rides
    # the low 8 bits
    def part_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.not_equal(b.column("p_brand"), "Brand#12"))
        brand_no = pc.cast(
            pc.utf8_slice_codeunits(b.column("p_brand"), 6, 99), pa.int64()
        )
        packed = pc.add(
            pc.multiply(brand_no, pa.scalar(1 << 8, pa.int64())),
            pc.cast(b.column("p_size"), pa.int64()),
        )
        return pa.table({"p_partkey": b.column("p_partkey"), "packed": packed})

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"],
    ).map_batches(part_prep, batch_format="pyarrow")

    def pair_prep(b: pa.Table) -> pa.Table:
        keep = pc.invert(
            pc.is_in(pc.cast(b.column("l_suppkey"), pa.int64()), bad)
        )
        return pa.table(
            {
                "l_partkey": b.filter(keep).column("l_partkey"),
                "l_suppkey": pc.cast(
                    b.filter(keep).column("l_suppkey"), pa.int64()
                ),
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey"],
        # two-int-column read: 64 default blocks of ~10k rows make the
        # two chained aggregates a task-overhead wall (RAY_NOTES)
        override_num_blocks=16,
    ).map_batches(pair_prep, batch_format="pyarrow")

    def unpack(b: pa.Table) -> pa.Table:
        packed = pc.cast(b.column("packed"), pa.int64())
        brand_no = pc.divide(packed, pa.scalar(1 << 8, pa.int64()))
        size = pc.subtract(
            packed, pc.multiply(brand_no, pa.scalar(1 << 8, pa.int64()))
        )
        return pa.table(
            {
                "p_brand": pc.binary_join_element_wise(
                    pa.array(["Brand#"] * b.num_rows),
                    pc.cast(brand_no, pa.string()),
                    "",
                ),
                "p_size": size,
                "supplier_cnt": b.column("count()"),
            }
        )

    # COUNT(DISTINCT supplier) WITHOUT Ray's generic sort-aggregate:
    # the two-key Aggregate chain measured 55 s of CPU over 522k rows
    # (sf0.1) — the bucketed map_groups idiom (same as keep_min_by)
    # sorts by a 16-value int32 bucket instead and does the distinct +
    # count vectorized per bucket.  5.1 s -> see BASELINE session 8.
    SUPP_BITS = 31  # triple key = packed(brand,size) << 31 | suppkey

    def combine_key(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("packed")))
        packed = b.column("packed").to_numpy(zero_copy_only=False).astype(np.int64)
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(sk) and sk.max() >= (1 << SUPP_BITS):
            raise ValueError("suppkey >= 2^31; widen the triple key")
        # map-side DISTINCT: np.unique cuts shuffle rows to the
        # distinct triples each block saw
        comb = np.unique((packed << SUPP_BITS) | sk)
        with np.errstate(over="ignore"):
            bk = (
                (comb.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(40)
            ) % np.uint64(16)
        return pa.table(
            {
                "comb": pa.array(comb, pa.int64()),
                "__bucket": pa.array(bk.astype(np.int32), pa.int32()),
            }
        )

    def bucket_counts(g: pa.Table) -> pa.Table:
        comb = np.unique(g.column("comb").to_numpy(zero_copy_only=False))
        pair, cnt = np.unique(comb >> SUPP_BITS, return_counts=True)
        return pa.table(
            {
                "packed": pa.array(pair, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    bucketed = lookup_join_auto(
        li, part, "l_partkey", "p_partkey", "packed", "packed"
    ).map_batches(combine_key, batch_format="pyarrow")
    return (
        bucket_map_groups(bucketed, "__bucket", bucket_counts, coalesce=16)
        .groupby("packed")
        .aggregate(Sum("cnt"))  # bounded: <= pairs x buckets partial rows
        .map_batches(
            lambda b: pa.table(
                {"packed": b.column("packed"), "count()": b.column("sum(cnt)")}
            ),
            batch_format="pyarrow",
        )
        .map_batches(unpack, batch_format="pyarrow")
    )


def q_tpch_q13(sf_dir: str):
    """TPC-H Q13 shape (customer order-count distribution): how many
    customers placed 0, 1, 2, ... URGENT orders.  The LEFT OUTER join
    that TPC-H needs (customers with zero matching orders must appear
    with c_count = 0) is exactly lookup_join_auto's left-outer
    semantics: the per-customer count table — customer-bounded, built
    by ONE groupby over the priority-filtered fact — rides the
    broadcast/bucket lookup, unmatched customers surface as null and
    coalesce to 0 map-side.  The final distribution groupby is
    count-domain-bounded (≤ max orders per customer rows)."""
    from .joins import lookup_join_auto

    counts = (
        rd.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey", "o_orderpriority"],
        )
        .map_batches(
            lambda b: b.filter(
                pc.equal(b.column("o_orderpriority"), "1-URGENT")
            ).select(["o_custkey"]),
            batch_format="pyarrow",
        )
        .groupby("o_custkey")
        .aggregate(Count())
        .map_batches(
            lambda b: _rename(b, {"count()": "c_count"}), batch_format="pyarrow"
        )
    )
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )

    def fill_zero(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_count": pc.coalesce(
                    pc.cast(b.column("c_count"), pa.int64()),
                    pa.scalar(0, pa.int64()),
                )
            }
        )

    return (
        lookup_join_auto(
            cust, counts, "c_custkey", "o_custkey", "c_count", "c_count",
        )
        .map_batches(fill_zero, batch_format="pyarrow")
        .groupby("c_count")
        .aggregate(Count())
        .map_batches(
            lambda b: _rename(b, {"count()": "custdist"}), batch_format="pyarrow"
        )
    )


def q_tpch_q17(sf_dir: str):
    """TPC-H Q17 shape (small-quantity-order revenue): average yearly
    revenue lost if orders for Brand#23 small parts (p_size <= 7, the
    container stand-in) below 20%% of the part's average order quantity
    were no longer taken.  The correlated AVG subquery becomes two
    map-side-filtered passes over the fact: pass 1 joins the tiny
    brand-part flag via lookup_join_auto and aggregates per-part
    (sum_qty_c, cnt) — brand-part-bounded; pass 2 re-filters and probes
    the per-part thresholds with the EXACT integer predicate
    ``5 * qty_c * cnt < sum_qty_c`` (0.2·avg without any float), then
    sums cents; the single /700.0 division happens on the driver and is
    mirrored literally in the oracle."""
    import pandas as pd

    from .joins import lookup_join_auto

    def part_prep(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.and_(
                pc.equal(b.column("p_brand"), "Brand#23"),
                pc.less_equal(
                    pc.cast(b.column("p_size"), pa.int64()),
                    pa.scalar(7, pa.int64()),
                ),
            )
        )
        return pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "__flag": pa.array(np.ones(b.num_rows, np.int64)),
            }
        )

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"],
    ).map_batches(part_prep, batch_format="pyarrow")

    def li_flagged() -> rd.Dataset:
        li = rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_partkey", "l_quantity", "l_extendedprice"],
        ).map_batches(
            lambda b: pa.table(
                {
                    "l_partkey": b.column("l_partkey"),
                    "qty_c": _money_cents(b.column("l_quantity")),
                    "price_c": _money_cents(b.column("l_extendedprice")),
                }
            ),
            batch_format="pyarrow",
        )
        return lookup_join_auto(
            li, part, "l_partkey", "p_partkey", "__flag", "__flag",
        ).map_batches(
            lambda b: b.filter(pc.is_valid(b.column("__flag"))).drop_columns(
                ["__flag"]
            ),
            batch_format="pyarrow",
        )

    # the flagged subset is brand-bounded (~4% of the fact) and consumed
    # twice (thresholds + final probe): pin it once instead of running
    # the 600k-row join probe per consumer (RAY_NOTES double-consumption)
    flagged = li_flagged().materialize()

    thresholds = (
        flagged
        .groupby("l_partkey")
        .aggregate(Sum("qty_c"), Count())
        .map_batches(
            lambda b: pa.table(
                {
                    "p_partkey": b.column("l_partkey"),
                    # pack (sum, cnt) into one lookup value: cnt is the
                    # per-part lineitem count (< 2^20 by fact/dim ratio
                    # at any TPC-H scale), sum_qty_c < 2^43 per part
                    "packed": pc.add(
                        pc.multiply(
                            pc.cast(b.column("sum(qty_c)"), pa.int64()),
                            pa.scalar(1 << 20, pa.int64()),
                        ),
                        pc.cast(b.column("count()"), pa.int64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )

    def small_only(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("packed")))
        packed = b.column("packed")
        sum_c = pc.divide(packed, pa.scalar(1 << 20, pa.int64()))
        cnt = pc.subtract(
            packed, pc.multiply(sum_c, pa.scalar(1 << 20, pa.int64()))
        )
        keep = pc.less(
            pc.multiply(
                pc.multiply(b.column("qty_c"), pa.scalar(5, pa.int64())), cnt
            ),
            sum_c,
        )
        return pa.table({"price_c": b.filter(keep).column("price_c")})

    total = (
        lookup_join_auto(
            flagged, thresholds, "l_partkey", "p_partkey",
            "packed", "packed",
        )
        .map_batches(small_only, batch_format="pyarrow")
        .aggregate(Sum("price_c"))
    )
    cents = total.get("sum(price_c)") or 0
    return pd.DataFrame({"avg_yearly": [cents / 700.0]})


def q_tpch_q20(sf_dir: str):
    """TPC-H Q20 shape (potential part promotion): suppliers in one
    region holding "excess availability" of red parts — the nested
    IN-subquery chain ``supplier IN (partsupp WHERE partkey IN (parts)
    AND availqty > 1/2 · qty shipped in the year)``.  The testdata has
    no partsupp table, so availqty is a deterministic stand-in derived
    from the pair key (``((partkey·7 + suppkey·11) mod 991) + 10``) —
    both engines recompute it arithmetically, keeping the correlated
    compare exact.  Plan: the red-part key set broadcasts (``ray.put``
    once, sorted-array membership per batch — part is a dim), the fact
    scan prunes map-side to in-window red-part rows BEFORE the one
    (partkey, suppkey) groupby-sum shuffle, the availability compare is
    an integer rule (``2·avail > qty``) on the grouped rows, and the
    surviving supplier set (bounded by the supplier dim) resolves names
    and the region filter driver-side."""
    import pyarrow.parquet as pq

    red = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_name"]
    )
    red = red.filter(pc.starts_with(red.column("p_name"), "red"))
    red_keys = np.sort(
        red.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    red_ref = ray.put(red_keys)

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    def li_prune(b: pa.Table) -> pa.Table:
        d = b.column("l_shipdate")
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        keys = ray.get(red_ref)
        pk = b.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(keys, pk)
        hit = (pos < len(keys)) & (keys[np.minimum(pos, len(keys) - 1)] == pk)
        b = b.filter(pa.array(hit))
        return pa.table(
            {
                "l_partkey": b.column("l_partkey"),
                "l_suppkey": b.column("l_suppkey"),
                # quantities are integral — exact int64 sums
                "qty": _money_cents(b.column("l_quantity"), factor=1.0),
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    ).map_batches(li_prune, batch_format="pyarrow")

    def excess(b: pa.Table) -> pa.Table:
        pk = pc.cast(b.column("l_partkey"), pa.int64())
        sk = pc.cast(b.column("l_suppkey"), pa.int64())
        avail = pc.add(
            _pc_mod(
                pc.add(
                    pc.multiply(pk, pa.scalar(7, pa.int64())),
                    pc.multiply(sk, pa.scalar(11, pa.int64())),
                ),
                991,
            ),
            pa.scalar(10, pa.int64()),
        )
        keep = pc.greater(
            pc.multiply(avail, pa.scalar(2, pa.int64())), b.column("sum(qty)")
        )
        return pa.table({"l_suppkey": b.filter(keep).column("l_suppkey")})

    supp_hits = (
        li.groupby(["l_partkey", "l_suppkey"])
        .aggregate(Sum("qty"))
        .map_batches(excess, batch_format="pyarrow")
        .groupby("l_suppkey")
        .aggregate(Count())  # distinct suppliers — bounded by the dim
        .to_pandas()
    )

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name", "s_nationkey"],
    ).to_pandas()
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_regionkey"]
    ).to_pandas()
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    ).to_pandas()
    europe = set(
        nat.merge(reg[reg["r_name"] == "EUROPE"], left_on="n_regionkey",
                  right_on="r_regionkey")["n_nationkey"]
    )
    out = sup[
        sup["s_suppkey"].isin(set(supp_hits["l_suppkey"].astype(np.int64)))
        & sup["s_nationkey"].isin(europe)
    ][["s_suppkey", "s_name"]].sort_values("s_name")
    out["s_suppkey"] = out["s_suppkey"].astype(np.int64)
    return out.reset_index(drop=True)


def q_tpch_q21(sf_dir: str):
    """TPC-H Q21 shape (suppliers who kept orders waiting): for
    finished ('F') multi-supplier orders where EXACTLY ONE supplier
    shipped late, blame that supplier — the EXISTS(other supplier) +
    NOT-EXISTS(other LATE supplier) double-correlated pattern.  The
    testdata has no commit/receipt dates, so "late" adapts to
    ``l_shipdate > o_orderdate + 60 days`` (ship lag).  Plan: both
    correlated subqueries collapse into ONE per-order aggregate pass —
    lineitems pick up the finished-order date through lookup_join_auto
    (broadcast under the byte cap, bucketed shuffle beyond), dedup to
    (order, supplier, was-late) via a two-key groupby-max, then a
    per-order aggregate computes n_suppliers / n_late / blamed
    (min late suppkey) in one shuffle over the deduped rows; the
    numwait rollup is supplier-bounded, and the region filter applies
    to the BLAMED supplier only (as in the original), driver-side."""
    import pyarrow.parquet as pq

    from .joins import lookup_join_auto

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.filter(
                    pc.equal(b.column("o_orderstatus"), "F")
                ).column("o_orderkey"),
                "date_us": pc.cast(
                    b.filter(pc.equal(b.column("o_orderstatus"), "F")).column(
                        "o_orderdate"
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_suppkey": b.column("l_suppkey"),
                "ship_us": pc.cast(b.column("l_shipdate"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    LAG_US = 60 * 86_400 * 1_000_000  # 60 days in microseconds
    OK_BITS, SK_BITS = 30, 31  # comb = orderkey << 32 | suppkey << 1 | late

    def key_rows(b: pa.Table) -> pa.Table:
        # inner semantics: drop lineitems of non-'F' orders (null date)
        b = b.filter(pc.is_valid(b.column("date_us")))
        ok = b.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ok) and (ok.max() >= (1 << OK_BITS) or sk.max() >= (1 << SK_BITS)):
            raise ValueError("orderkey/suppkey exceed the packed key budget")
        late = (
            b.column("ship_us").to_numpy(zero_copy_only=False)
            > b.column("date_us").to_numpy(zero_copy_only=False) + LAG_US
        ).astype(np.int64)
        # map-side DISTINCT on the packed triple cuts shuffle rows; the
        # bucket hashes the ORDERKEY so one group sees an order whole
        comb = np.unique((ok << 32) | (sk << 1) | late)
        with np.errstate(over="ignore"):
            bk = (
                ((comb >> 32).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(40)
            ) % np.uint64(16)
        return pa.table(
            {
                "comb": pa.array(comb, pa.int64()),
                "__bucket": pa.array(bk.astype(np.int32), pa.int32()),
            }
        )

    def order_verdicts(g: pa.Table) -> pa.Table:
        # One vectorized pass replaces the two-key Max dedup, the
        # per-order Count/Sum/Min aggregate AND the verdict filter (the
        # generic sort-aggregate chain measured ~10x slower on this
        # shape — see tpch_q16 / BASELINE session 8).
        comb = np.unique(g.column("comb").to_numpy(zero_copy_only=False))
        if not len(comb):  # empty bucket: the segment seams below
            return pa.table({"blamed": pa.array([], pa.int64())})  # need >=1 row
        ok, sk, late = comb >> 32, (comb & 0xFFFFFFFF) >> 1, comb & 1
        # per (order, supplier) max(late): comb sorted => late=1 follows
        # late=0 within a pair, so the LAST row of each pair run wins
        pair = (ok << SK_BITS) | sk
        _, first = np.unique(pair, return_index=True)
        last = np.r_[first[1:], len(pair)] - 1
        ok_u, sk_u, late_u = ok[last], sk[last], late[last]
        # per-order segments (ok_u nondecreasing after unique)
        new_seg = np.r_[True, ok_u[1:] != ok_u[:-1]]
        seg = np.cumsum(new_seg) - 1
        n_supp = np.bincount(seg)
        n_late = np.bincount(seg, weights=late_u).astype(np.int64)
        # blamed = MIN late suppkey per order: rows are (ok, sk)-sorted,
        # so the first late row in a segment carries the min suppkey
        m = late_u == 1
        seg_ids, idx = np.unique(seg[m], return_index=True)
        blamed_of = np.full(len(n_supp), -1, np.int64)
        blamed_of[seg_ids] = sk_u[m][idx]
        elig = (n_supp >= 2) & (n_late == 1)
        return pa.table({"blamed": pa.array(blamed_of[elig], pa.int64())})

    keyed = lookup_join_auto(
        li, orders, "l_orderkey", "o_orderkey", "date_us", "date_us"
    ).map_batches(key_rows, batch_format="pyarrow")
    numwait = (
        bucket_map_groups(keyed, "__bucket", order_verdicts, coalesce=16)
        .groupby("blamed")
        .aggregate(Count())  # supplier-bounded rollup
        .to_pandas()
    )

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name", "s_nationkey"],
    ).to_pandas()
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_regionkey"]
    ).to_pandas()
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    ).to_pandas()
    asia = set(
        nat.merge(reg[reg["r_name"] == "ASIA"], left_on="n_regionkey",
                  right_on="r_regionkey")["n_nationkey"]
    )
    out = numwait.rename(columns={"count()": "numwait"}).merge(
        sup[sup["s_nationkey"].isin(asia)], left_on="blamed", right_on="s_suppkey"
    )
    out["numwait"] = out["numwait"].astype(np.int64)
    return (
        out.sort_values(["numwait", "s_name"], ascending=[False, True])
        .head(10)[["s_name", "numwait"]]
        .reset_index(drop=True)
    )


def q_tpch_q22(sf_dir: str):
    """TPC-H Q22 shape (global-sales-opportunity): customers from seven
    country codes (c_nationkey stands in for the phone prefix) whose
    account balance beats the positive-balance average of that same
    cohort AND who placed no recent order (none since 2000-01-01) —
    scalar aggregate subquery + NOT-EXISTS anti-join + final rollup.
    The global average is two int64 partials (sum cents, count) folded
    on the driver and compared EXACTLY as ``acctbal_c * cnt > sum_c``
    (no float threshold); the anti-join is joins.member_filter against
    the distinct recent-custkey set (fact side never shuffles); the
    rollup is nation-bounded."""
    from .joins import member_filter

    codes = pa.array([1, 3, 5, 7, 9, 11, 13], pa.int64())

    def cohort(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.is_in(pc.cast(b.column("c_nationkey"), pa.int64()), codes)
        )
        return pa.table(
            {
                "c_custkey": b.column("c_custkey"),
                "cntrycode": pc.cast(b.column("c_nationkey"), pa.int64()),
                "bal_c": _money_cents(b.column("c_acctbal")),
            }
        )

    def cust_ds() -> rd.Dataset:
        return rd.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_nationkey", "c_acctbal"],
        ).map_batches(cohort, batch_format="pyarrow")

    def positive(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b.column("bal_c"), pa.scalar(0, pa.int64())))
        return pa.table({"bal_c": b.column("bal_c")})

    avg_parts = (
        cust_ds()
        .map_batches(positive, batch_format="pyarrow")
        .aggregate(Sum("bal_c"), Count())
    )
    sum_c = avg_parts.get("sum(bal_c)") or 0
    cnt = avg_parts.get("count()") or 0

    lo = pa.scalar(np.datetime64("2000-01-01", "us"))
    recent_keys = (
        rd.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey", "o_orderdate"],
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "c_custkey": pc.unique(
                        b.filter(pc.greater_equal(b.column("o_orderdate"), lo))
                        .column("o_custkey")
                        .combine_chunks()
                    )
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("c_custkey")
        .aggregate(Count())
        .map_batches(lambda b: b.select(["c_custkey"]), batch_format="pyarrow")
    )

    def rich(b: pa.Table) -> pa.Table:
        keep = pc.greater(
            pc.multiply(b.column("bal_c"), pa.scalar(cnt, pa.int64())),
            pa.scalar(sum_c, pa.int64()),
        )
        return b.filter(keep)

    out = (
        member_filter(
            cust_ds().map_batches(rich, batch_format="pyarrow"),
            recent_keys,
            "c_custkey",
            keep=False,
        )
        .groupby("cntrycode")
        .aggregate(Count(), Sum("bal_c"))
        .to_pandas()
    )
    out["numcust"] = out["count()"].astype(np.int64)
    out["totacctbal"] = out["sum(bal_c)"].astype(np.int64) / 100.0
    return out[["cntrycode", "numcust", "totacctbal"]]


def q_running_revenue(sf_dir: str):
    """Per-customer running revenue (the window cumulative-sum shape:
    ``sum(...) OVER (PARTITION BY o_custkey ORDER BY o_orderdate,
    o_orderkey)``): one hash shuffle on the partition key, then a fully
    vectorized segmented cumsum inside each group task — sort by
    (custkey, date, orderkey), cumsum exact int64 cents, subtract each
    run's base.  Order keys are unique so the RANGE/ROWS window frame
    distinction is moot; both engines divide the exact cumulative cents
    once at the end."""

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"],
    ).map_batches(
        lambda b: pa.table(
            {
                "o_custkey": b.column("o_custkey"),
                "o_orderkey": b.column("o_orderkey"),
                "date_us": pc.cast(b.column("o_orderdate"), pa.int64()),
                "cents": _money_cents(b.column("o_totalprice")),
            }
        ),
        batch_format="pyarrow",
    )

    def running(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {
                    "o_custkey": pa.array([], pa.int64()),
                    "o_orderkey": pa.array([], pa.int64()),
                    "running_total": pa.array([], pa.float64()),
                }
            )
        t = group.sort_by(
            [
                ("o_custkey", "ascending"),
                ("date_us", "ascending"),
                ("o_orderkey", "ascending"),
            ]
        )
        cents = t.column("cents").to_numpy(zero_copy_only=False)
        cs = np.cumsum(cents)
        # segmented cumsum: subtract the running total just before each
        # customer run (map_groups may hand several groups per call)
        rank = _run_rank(t.column("o_custkey"))
        starts = np.flatnonzero(rank == 0)
        run_of = np.cumsum(rank == 0) - 1
        base = cs[starts] - cents[starts]
        return pa.table(
            {
                "o_custkey": t.column("o_custkey"),
                "o_orderkey": t.column("o_orderkey"),
                "running_total": (cs - base[run_of]) / 100.0,
            }
        )

    return orders.groupby("o_custkey").map_groups(
        running, batch_format="pyarrow"
    )


def q_event_props_stats(sf_dir: str):
    """Semi-structured field extraction (the JSON-ish payload-parsing
    shape every event pipeline runs): pull the integer ``k`` field out
    of the ``props`` JSON string with one vectorized Arrow RE2 kernel
    per batch — no Python json.loads per row — and roll up exact
    integer stats per event type.  Oracle extracts the same field with
    DuckDB's regexp_extract."""
    from ray.data.aggregate import Max

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "props"]
    )

    def prep(b: pa.Table) -> pa.Table:
        hit = pc.extract_regex(
            b.column("props").combine_chunks(), r'"k": (?P<k>\d+)'
        )
        k = pc.cast(pc.struct_field(hit, "k"), pa.int64())
        return pa.table({"event_type": b.column("event_type"), "k": k})

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Count(), Sum("k"), Max("k"))
        .map_batches(
            lambda b: _rename(
                b,
                {"count()": "n_events", "sum(k)": "sum_k", "max(k)": "max_k"},
            ),
            batch_format="pyarrow",
        )
    )


def q_event_transitions(sf_dir: str):
    """Markov transition counts over the event stream: how often does a
    user's event of type X immediately precede type Y?  Same
    hash-bucket shape as user_sessions (users co-partition, one
    vectorized sorted pass per bucket), but each bucket emits only its
    PARTIAL ≤|types|² count matrix — dictionary-encoded pair codes +
    one bincount — so the final groupby shuffles a bounded handful of
    rows regardless of stream length.  Oracle: lag() OVER (PARTITION BY
    user_id ORDER BY ts, event_id)."""
    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_type", "event_id"],
    )

    def add_bucket(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": b.column("user_id"),
                "ts_us": pc.cast(b.column("ts"), pa.int64()),
                "event_type": b.column("event_type"),
                "event_id": b.column("event_id"),
                "__bucket": pa.array(bucket_ids(b.column("user_id"), 16), pa.int32()),
            }
        )

    EMPTY = pa.table(
        {
            "from_type": pa.array([], pa.string()),
            "to_type": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        }
    )

    def transitions(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [
                ("user_id", "ascending"),
                ("ts_us", "ascending"),
                ("event_id", "ascending"),
            ]
        )
        n = t.num_rows
        if n < 2:
            return EMPTY
        u = t.column("user_id").to_numpy(zero_copy_only=False)
        enc = pc.dictionary_encode(t.column("event_type").combine_chunks())
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = enc.dictionary.to_pylist()
        k = len(vocab)
        same = u[1:] == u[:-1]
        pair = codes[:-1][same] * k + codes[1:][same]
        if len(pair) == 0:
            return EMPTY
        counts = np.bincount(pair, minlength=k * k)
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "from_type": pa.array([vocab[p // k] for p in nz], pa.string()),
                "to_type": pa.array([vocab[p % k] for p in nz], pa.string()),
                "n": pa.array(counts[nz], pa.int64()),
            }
        )

    return (
        bucket_map_groups(
            ds.map_batches(add_bucket, batch_format="pyarrow"), "__bucket", transitions
        )
        .groupby(["from_type", "to_type"])
        .aggregate(Sum("n"))
        .map_batches(
            lambda b: _rename(b, {"sum(n)": "n_transitions"}), batch_format="pyarrow"
        )
    )


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


def q_idle_customers(sf_dir: str):
    """Relational ANTI-join: customers who placed NO order in 1996 —
    joins.member_filter(keep=False) applied to a dimension-vs-fact
    membership probe (the distinct active-custkey set broadcasts under
    the byte cap, routes through the fixed-size bloom + bucketed exact
    filter beyond it).  The active-key side pre-aggregates to DISTINCT
    custkeys map-side + one bounded groupby before the probe, so the
    fact table never shuffles."""
    from .joins import member_filter

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    def active(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate")
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        # per-batch distinct before the groupby: only unique keys move
        return pa.table(
            {"c_custkey": pc.unique(b.column("o_custkey").combine_chunks())}
        )

    active_keys = (
        rd.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey", "o_orderdate"],
        )
        .map_batches(active, batch_format="pyarrow")
        .groupby("c_custkey")
        .aggregate(Count())
        .map_batches(lambda b: b.select(["c_custkey"]), batch_format="pyarrow")
    )
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_mktsegment"],
    )
    return member_filter(cust, active_keys, "c_custkey", keep=False)


def q_lang_source_rollup(sf_dir: str):
    """GROUPING SETS rollup: doc counts and exact char sums at three
    granularities — (lang, source), (lang), and grand total — as the
    union of three bounded group-aggregates over ONE shared map-side
    projection (int64 sums, so every level is block-order-invariant).
    Subtotal rows carry NULL keys exactly like SQL ROLLUP."""
    ds = _docs(sf_dir, columns=["lang", "source", "n_chars"])

    def level(keys: list[str]) -> pa.Table:
        d = ds
        if keys:
            agg = d.groupby(keys).aggregate(Count(), Sum("n_chars"))
            t = pa.Table.from_pylist(agg.take_all())
        else:
            res = d.aggregate(Count(), Sum("n_chars"))
            t = pa.table(
                {
                    "count()": pa.array([res["count()"]], pa.int64()),
                    "sum(n_chars)": pa.array([res["sum(n_chars)"]], pa.int64()),
                }
            )
        n = t.num_rows
        cols = {
            "lang": t.column("lang")
            if "lang" in t.column_names
            else pa.nulls(n, pa.string()),
            "source": t.column("source")
            if "source" in t.column_names
            else pa.nulls(n, pa.string()),
            "n_docs": pc.cast(t.column("count()"), pa.int64()),
            "total_chars": pc.cast(t.column("sum(n_chars)"), pa.int64()),
        }
        return pa.table(cols)

    # every level is group-cardinality-sized: concatenating driver-side
    # is bounded by |langs| x |sources| + |langs| + 1 rows at any scale
    return pa.concat_tables(
        [level(["lang", "source"]), level(["lang"]), level([])]
    )


def _events_ts_us(sf_dir: str, event_type: str | None = None) -> rd.Dataset:
    """events with ``ts`` cast to exact int64 micros (``ts_us``) —
    timestamp comparisons and min-aggregates run in integer domain so
    funnel/retention results are block-order-invariant."""
    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_type"],
    )

    def prep(b: pa.Table) -> pa.Table:
        if event_type is not None:
            b = b.filter(pc.equal(b.column("event_type"), event_type))
        return pa.table(
            {
                "user_id": b.column("user_id"),
                "ts_us": pc.cast(b.column("ts"), pa.int64()),
            }
        )

    return ds.map_batches(prep, batch_format="pyarrow")


def q_events_sliding_1h(sf_dir: str):
    """Range-windowed aggregate (an operator Ray Data lacks natively):
    for every event, the number of SAME-TYPE events in the preceding
    hour, boundary inclusive — SQL ``COUNT(*) OVER (PARTITION BY
    event_type ORDER BY ts RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
    AND CURRENT ROW)``.  100-TB shape: partitioning by type alone
    would put 1/|types| of the corpus in one group, so events bucket
    by (type, epoch-DAY) and every event in a day's LAST hour ships
    ONE context replica to the next day's bucket (flagged, counted as
    a predecessor, never emitted) — the overlapping-chunk discipline;
    each bounded group then resolves every window with two vectorized
    searchsorteds over its sorted int64-micro timestamps.  Exact
    integers end-to-end."""
    HOUR = 3_600_000_000
    DAY = 86_400_000_000

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "event_type"],
    )

    def fan(b: pa.Table) -> pa.Table:
        ts = pc.cast(b.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        day = ts // DAY

        def part(tbl_day: np.ndarray, sel: np.ndarray | None, ctx: int) -> pa.Table:
            t = b if sel is None else b.filter(pa.array(sel))
            ts_p = ts if sel is None else ts[sel]
            key = pc.binary_join_element_wise(
                t.column("event_type"),
                pa.array(tbl_day.astype("U"), pa.string()),
                "\x1f",
            )
            return pa.table(
                {
                    "event_id": t.column("event_id"),
                    "event_type": t.column("event_type"),
                    "ts_us": pa.array(ts_p, pa.int64()),
                    "__bk": key,
                    "__ctx": pa.array(np.full(len(ts_p), ctx, np.int8)),
                }
            )

        out = [part(day, None, 0)]
        spill = (ts % DAY) >= DAY - HOUR  # last hour -> next day's context
        if spill.any():
            out.append(part(day[spill] + 1, spill, 1))
        return pa.concat_tables(out)

    def win(group: pa.Table) -> pa.Table:
        t = group.sort_by([("ts_us", "ascending"), ("event_id", "ascending")])
        ts = t.column("ts_us").to_numpy(zero_copy_only=False)
        own = pc.equal(t.column("__ctx"), 0).to_numpy(zero_copy_only=False)
        left = np.searchsorted(ts, ts - HOUR, side="left")
        right = np.searchsorted(ts, ts, side="right")
        n = (right - left).astype(np.int64)
        keep = pa.array(own)
        return pa.table(
            {
                "event_id": t.column("event_id").filter(keep),
                "event_type": t.column("event_type").filter(keep),
                "n_prev_hour": pa.array(n[own], pa.int64()),
            }
        )

    return bucket_map_groups(ds.map_batches(fan, batch_format="pyarrow"), "__bk", win)


def q_events_sliding_sum_1h(sf_dir: str):
    """Windowed SUM sibling of events_sliding_1h: per event, the exact
    cents total of same-type events' ``value`` over the preceding hour
    (RANGE semantics, boundary + ts-peer inclusive).  Same (type,
    epoch-day) bucketing with last-hour context replicas; within each
    sorted group the window sum is two vectorized searchsorteds into a
    PREFIX-SUM of int64 cents (csum[right] - csum[left]) — exact
    integers, block-order-invariant (the _money_cents discipline)."""
    HOUR = 3_600_000_000
    DAY = 86_400_000_000

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "event_type", "value"],
    )

    def fan(b: pa.Table) -> pa.Table:
        ts = pc.cast(b.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        cents = _money_cents(b.column("value"))
        day = ts // DAY

        def part(tbl_day: np.ndarray, sel: np.ndarray | None, ctx: int) -> pa.Table:
            t = b if sel is None else b.filter(pa.array(sel))
            ts_p = ts if sel is None else ts[sel]
            c_p = cents if sel is None else cents.filter(pa.array(sel))
            key = pc.binary_join_element_wise(
                t.column("event_type"),
                pa.array(tbl_day.astype("U"), pa.string()),
                "\x1f",
            )
            return pa.table(
                {
                    "event_id": t.column("event_id"),
                    "event_type": t.column("event_type"),
                    "ts_us": pa.array(ts_p, pa.int64()),
                    "cents": c_p,
                    "__bk": key,
                    "__ctx": pa.array(np.full(len(ts_p), ctx, np.int8)),
                }
            )

        out = [part(day, None, 0)]
        spill = (ts % DAY) >= DAY - HOUR
        if spill.any():
            out.append(part(day[spill] + 1, spill, 1))
        return pa.concat_tables(out)

    def win(group: pa.Table) -> pa.Table:
        t = group.sort_by([("ts_us", "ascending"), ("event_id", "ascending")])
        ts = t.column("ts_us").to_numpy(zero_copy_only=False)
        cents = t.column("cents").to_numpy(zero_copy_only=False)
        own = pc.equal(t.column("__ctx"), 0).to_numpy(zero_copy_only=False)
        csum = np.r_[np.int64(0), np.cumsum(cents)]
        left = np.searchsorted(ts, ts - HOUR, side="left")
        right = np.searchsorted(ts, ts, side="right")
        wsum = csum[right] - csum[left]
        keep = pa.array(own)
        return pa.table(
            {
                "event_id": t.column("event_id").filter(keep),
                "event_type": t.column("event_type").filter(keep),
                "sum_value": pa.array(wsum[own] / 100.0, pa.float64()),
            }
        )

    return bucket_map_groups(ds.map_batches(fan, batch_format="pyarrow"), "__bk", win)


def q_click_attribution(sf_dir: str, window_min: int = 30):
    """Windowed attribution join (the ad-attribution shape): every
    'click' matches the SAME user's most recent 'view' at or before it
    and within ``window_min`` minutes; unmatched clicks emit
    attributed=0 / gap_us=-1 (integer sentinel, no nullable-float
    coercion).  The bounded-lookback variant of the as-of join
    (events_asof_order is the unbounded one).  100-TB shape: one
    user-hash bucket shuffle of 25-byte (user, ts, kind, id) rows;
    each group sorts ONCE by (user, ts, view-before-click) and
    resolves every click with a global running last-view index — no
    per-user reset is needed because, under that sort, a click's
    nearest preceding view globally is either its own user's (valid)
    or an earlier user's (caught by one vectorized user-equality
    check).  Exact int64 micros."""
    WIN = window_min * 60 * 1_000_000

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "ts", "event_type"],
    )

    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.is_in(b.column("event_type"), value_set=pa.array(["view", "click"]))
        )
        u = b.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(over="ignore"):
            mixed = (u.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(
                40
            )
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "user_id": b.column("user_id"),
                "ts_us": pc.cast(b.column("ts"), pa.int64()),
                "is_click": pc.cast(
                    pc.equal(b.column("event_type"), "click"), pa.int8()
                ),
                "__bucket": pa.array(
                    (mixed % np.uint64(16)).astype(np.int32), pa.int32()
                ),
            }
        )

    def resolve(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [
                ("user_id", "ascending"),
                ("ts_us", "ascending"),
                ("is_click", "ascending"),  # a view at the click's ts matches
            ]
        )
        u = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts_us").to_numpy(zero_copy_only=False)
        is_click = t.column("is_click").to_numpy(zero_copy_only=False).astype(bool)
        n = len(u)
        lastv = np.maximum.accumulate(np.where(~is_click, np.arange(n), -1))
        rows = np.flatnonzero(is_click)
        vi = lastv[rows]
        ok = (vi >= 0) & (u[np.maximum(vi, 0)] == u[rows])
        gap = np.where(ok, ts[rows] - ts[np.maximum(vi, 0)], np.int64(-1))
        ok &= gap <= WIN
        gap = np.where(ok, gap, np.int64(-1))
        return pa.table(
            {
                "event_id": pc.cast(
                    t.column("event_id").take(pa.array(rows, pa.int64())), pa.int64()
                ),
                "attributed": pa.array(ok.astype(np.int64), pa.int64()),
                "gap_us": pa.array(gap.astype(np.int64), pa.int64()),
            }
        )

    return bucket_map_groups(ds.map_batches(prep, batch_format="pyarrow"), "__bucket", resolve)


def q_source_drift(sf_dir: str, n_buckets: int = 1024):
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

    nb = np.uint64(n_buckets)
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
        key = codes[parents] * n_buckets + bk
        uk, counts = np.unique(key, return_counts=True)
        return pa.table(
            {
                "source": names.take(pa.array(uk // n_buckets, pa.int64())),
                "bucket": pa.array(uk % n_buckets, pa.int64()),
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
        hists.setdefault(r["source"], np.zeros(n_buckets, np.int64))[
            r["bucket"]
        ] = int(r["sum(cnt)"])
    glob = np.zeros(n_buckets, np.int64)
    for v in hists.values():
        glob += v
    C = int(glob.sum())
    out = []
    for s in sorted(hists):
        hs = hists[s]
        Cs = int(hs.sum())
        inter = sum(
            min(int(hs[i]) * C, int(glob[i]) * Cs) for i in range(n_buckets)
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


def q_event_funnel(sf_dir: str):
    """Staged conversion funnel view → click → purchase with strict
    event-time ordering: stage k counts users whose earliest type-k
    event happens AFTER their stage-(k−1) anchor time.  Each stage is
    one map-side type filter (cheap — no other columns move), one
    lookup_join_auto against the previous stage's (user, anchor_ts)
    table (broadcast while the user set fits the byte cap, bucketed
    task-shuffle beyond — the billion-user path), a map-side ts >
    anchor filter, and a groupby-min.  No per-user event list is ever
    assembled; the conditional-min recurrence replaces the
    sort-within-user a sessionization would need.  All arithmetic is
    int64 micros — deterministic counts."""
    import pandas as pd

    from .joins import lookup_join_auto

    def stage_min(ds: rd.Dataset) -> rd.Dataset:
        return (
            ds.groupby("user_id")
            .aggregate(Min("ts_us"))
            .map_batches(
                lambda b: _rename(b, {"min(ts_us)": "anchor"}),
                batch_format="pyarrow",
            )
            # each stage table is consumed twice (next stage's join +
            # the final count); it is per-user bounded — dim-sized
            # next to the event stream — so pinning it beats
            # re-scanning events per consumer
            .materialize()
        )

    def next_stage(prev: rd.Dataset, event_type: str) -> rd.Dataset:
        ev = _events_ts_us(sf_dir, event_type)
        tagged = lookup_join_auto(
            ev, prev, "user_id", "user_id", "anchor", "anchor",
        )
        after = tagged.map_batches(
            lambda b: b.filter(
                pc.fill_null(pc.greater(b.column("ts_us"), b.column("anchor")), False)
            ).select(["user_id", "ts_us"]),
            batch_format="pyarrow",
        )
        return stage_min(after)

    s1 = stage_min(_events_ts_us(sf_dir, "view"))
    s2 = next_stage(s1, "click")
    s3 = next_stage(s2, "purchase")
    return pd.DataFrame(
        {
            "n_view": [s1.count()],
            "n_view_click": [s2.count()],
            "n_full_funnel": [s3.count()],
        }
    )


def q_cohort_retention(sf_dir: str):
    """Weekly cohort retention matrix: cohort = a user's first active
    epoch-week, n_active = distinct users from that cohort active at
    each week offset.  ONE user-hash-bucketed shuffle does everything:
    map tasks pack (user, epoch-week) into a single int64 and
    pre-dedup with np.unique, each bucket group then resolves — in one
    vectorized pass over its sorted keys — the distinct activity set,
    each user's cohort (first week of the user's run), the per-row
    offsets, and a partial (cohort, offset) count grid.  Users are
    disjoint across buckets, so the final rollup just sums ≤ buckets ×
    weeks² bounded partials.  (Replaces a 3-shuffle plan whose lazy
    activity branch re-executed per consumer: 4.2 s -> ~1 s at sf0.1.)
    Weeks are exact int64 epoch-weeks; the packed key budgets 13 bits
    for the week (valid until 2127) and guards both fields loudly."""

    WEEK_US = 7 * 86400 * 1_000_000
    W_BITS = 13  # epoch-week < 8192 (year 2127); user_id < 2^50

    def key_rows(b: pa.Table) -> pa.Table:
        u = b.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = b.column("ts_us").to_numpy(zero_copy_only=False)
        w = ts // WEEK_US  # numpy floor-divides toward -inf (exact)
        if len(u) and (
            u.min() < 0 or u.max() >= (1 << 50) or w.min() < 0 or w.max() >= (1 << W_BITS)
        ):
            raise ValueError("user_id/epoch-week exceed the packed key budget")
        comb = np.unique((u << W_BITS) | w)
        with np.errstate(over="ignore"):
            bk = (
                ((comb >> W_BITS).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(40)
            ) % np.uint64(16)
        return pa.table(
            {
                "comb": pa.array(comb, pa.int64()),
                "__bucket": pa.array(bk.astype(np.int32), pa.int32()),
            }
        )

    def grid_partials(g: pa.Table) -> pa.Table:
        comb = np.unique(g.column("comb").to_numpy(zero_copy_only=False))
        if not len(comb):
            return pa.table(
                {
                    "cohort_week": pa.array([], pa.int64()),
                    "week_offset": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        u, w = comb >> W_BITS, comb & ((1 << W_BITS) - 1)
        new_seg = np.r_[True, u[1:] != u[:-1]]
        seg = np.cumsum(new_seg) - 1
        cohort = w[new_seg][seg]  # first (= min) week of each user run
        cell = (cohort << W_BITS) | (w - cohort)
        cells, counts = np.unique(cell, return_counts=True)
        return pa.table(
            {
                "cohort_week": pa.array(cells >> W_BITS, pa.int64()),
                "week_offset": pa.array(cells & ((1 << W_BITS) - 1), pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    keyed = _events_ts_us(sf_dir).map_batches(key_rows, batch_format="pyarrow")
    out = (
        bucket_map_groups(keyed, "__bucket", grid_partials, coalesce=16)
        .groupby(["cohort_week", "week_offset"])
        .aggregate(Sum("n"))  # bounded: <= buckets x weeks^2 partials
        .to_pandas()
        .rename(columns={"sum(n)": "n_active"})
    )
    out["n_active"] = out["n_active"].astype(np.int64)
    return out.sort_values(
        ["cohort_week", "week_offset"], ignore_index=True
    )


def q_video_frames(sf_dir: str):
    """Video-modality plumbing over the REAL from-scratch AVI/RIFF
    container codec (functions/avicodec.py): each doc gets a
    deterministic solid-color frame sequence synthesized from
    md5(doc_id) (dimensions, frame count, and the per-frame value ramp
    all md5-derived so DuckDB recomputes them in closed form), encoded
    to AVI, then decoded + frame-sampled (stride 2) by the task stage
    stages.multimodal.video_frames.  Essence routing is
    md5-derived too: docs with an even 11th hex digit encode as
    Motion-JPEG (each frame a standalone baseline JPEG from the
    engine's own T.81 codec — a real COMPRESSED video essence), the
    rest as uncompressed 24-bit DIB.  Solid frames round-trip both
    essences exactly (MJPEG at quality 100 / 4:4:4 keeps a uniform
    block bit-exact: DC-only, all-ones quant tables), so one
    closed-form oracle verifies the whole encode → RIFF walk →
    JPEG/DIB decode → sample chain per frame."""
    from ..functions.avicodec import encode_avi
    from ..stages.multimodal import video_frames

    def synth(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        payloads = []
        for d in ids:
            h = hashlib.md5(str(d).encode()).hexdigest()
            w = 16 + (int(h[0:2], 16) % 4) * 8
            ht = 16 + (int(h[2:4], 16) % 4) * 8
            n = 4 + int(h[4:6], 16) % 8
            base = int(h[6:8], 16)
            step = 1 + int(h[8:10], 16) % 31
            vals = (base + np.arange(n) * step) % 256
            frames = np.broadcast_to(
                vals.astype(np.uint8)[:, None, None, None], (n, ht, w, 3)
            ).copy()
            codec = "mjpg" if int(h[10], 16) % 2 == 0 else "dib"
            payloads.append(encode_avi(frames, fps=12, codec=codec))
        return pa.table(
            {"doc_id": b.column("doc_id"), "payload": pa.array(payloads, pa.binary())}
        )

    ds = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    ).map_batches(synth, batch_format="pyarrow")
    return video_frames(ds, id_col="doc_id", stride=2, batch_size=16)


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
    from .dedup import incremental_exact_dedup

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


def q_exact_substring_dedup(sf_dir: str):
    """Exact-substring dedup (the Lee et al. shape —
    dedup.exact_substring_dedup): every 5-token window occurring more
    than once in the corpus, at ANY alignment, keeps only its first
    occurrence (min (doc_id, position)); all other occurrences' tokens
    are removed and documents are rebuilt from the survivors.  The
    unaligned-span granularity chunk_dedup's fixed windows cannot see;
    gate = the full window-hash -> rank -> interval-anti-join chain
    recomputed in DuckDB (oracles.sql_exact_substring_dedup)."""
    from .dedup import exact_substring_dedup

    return exact_substring_dedup(
        _docs(sf_dir, columns=["doc_id", "text"]), n=5
    )


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


def q_pagerank(sf_dir: str):
    """Distributed PageRank (4 power-iteration rounds, damping 0.85)
    over a deterministic link graph: document ``src`` links to
    ``1 + src % 3`` targets derived by a Knuth-style multiplicative
    hash mod n (doc_ids are contiguous 0..n-1 in the testdata, so
    every target is a real node).  The VARYING out-degree matters: a
    fixed out-degree would make every k-layer of the multiplicative
    map a bijection mod n (gcd(2654435761, n) = 1), giving uniform
    in-degree 3 and the trivial all-ranks-1.0 fixed point; restricting
    layer k to the srcs with outdeg >= k skews in-degrees to 0..3 and
    produces a real rank distribution.  The canonical ITERATIVE-shuffle
    workload: each round is one streaming pass — map tasks compute
    every node's per-edge contribution arithmetically (the edge list
    never materializes as a table; dst = f(src) is recomputed per
    batch), one map-side-combined groupby(dst).sum gathers in-flows,
    and a union with a zero row per node keeps rank mass on nodes with
    no in-links.  Per round the shuffle moves ≤4 int64 rows per node
    (≤3 contributions + 1 zero) — no float, no text, no driver state
    beyond the loop counter — and the rank vector re-materializes once
    per round (the honest cost of power iteration; at 10^12 nodes this
    would be a partitioned parquet checkpoint per round instead of the
    object store, and the arithmetic toy generator a real edge table
    bucket-joined on src).

    ALL arithmetic is int64 fixed-point (rank scaled by 10^9, shares by
    truncating integer division, damping as *85 // 100), so every sum
    is associative and the result is bit-identical regardless of block
    layout; the oracle replays the identical integer recurrence as
    chained CTEs and both sides divide once by 1e9 at the very end."""
    SCALE = 1_000_000_000
    MULT, STEP = 2654435761, 40503
    import pyarrow.parquet as pq

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    docs = _docs(sf_dir, columns=["doc_id"], num_blocks=8)

    def init_ranks(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "r": pa.array(np.full(b.num_rows, SCALE, np.int64)),
            }
        )

    def zero_inflow(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "inc": pa.array(np.zeros(b.num_rows, np.int64)),
            }
        )

    def contributions(b: pa.Table) -> pa.Table:
        src = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        outdeg = 1 + src % 3
        share = b.column("r").to_numpy(zero_copy_only=False) // outdeg
        dst_parts, inc_parts = [], []
        for k in (1, 2, 3):
            m = outdeg >= k
            dst_parts.append((src[m] * MULT + k * STEP) % n)
            inc_parts.append(share[m])
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(dst_parts), pa.int64()),
                "inc": pa.array(np.concatenate(inc_parts), pa.int64()),
            }
        )

    def damp(b: pa.Table) -> pa.Table:
        inflow = b.column("sum(inc)").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "r": pa.array(SCALE * 15 // 100 + 85 * inflow // 100, pa.int64()),
            }
        )

    ranks = docs.map_batches(init_ranks, batch_format="pyarrow")
    for _ in range(4):
        ranks = (
            ranks.map_batches(contributions, batch_format="pyarrow")
            .union(docs.map_batches(zero_inflow, batch_format="pyarrow"))
            .groupby("doc_id")
            .aggregate(Sum("inc"))
            .map_batches(damp, batch_format="pyarrow")
        )
    # each round feeds exactly ONE consumer (the next round's map), so
    # the four-round chain stays LAZY — one streaming execution with 4
    # chained shuffles and no per-round barrier.  A real long-running
    # job would checkpoint ranks to partitioned parquet every few
    # rounds for resumability; at bench scale the barrier costs more
    # than it saves (measured: 4 materialize()s ≈ 5 s/round overhead).

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                # one IEEE division from the exact integer — no round()
                "rank": pc.divide(
                    pc.cast(b.column("r"), pa.float64()), pa.scalar(float(SCALE))
                ),
            }
        )

    return ranks.map_batches(finish, batch_format="pyarrow")


def q_customer_ntile(sf_dir: str):
    """Window-function ntile: quartile bucketing of customers by
    account balance within each nation.  Per-group work is one Arrow
    sort + a closed-form numpy tile assignment (DuckDB's ntile rule:
    the first n % k tiles get one extra row) — no pandas round-trip,
    no per-row loop; the only shuffle is the groupby hash exchange,
    and each group emits exactly its input rows."""
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_nationkey", "c_acctbal"],
    )
    K = 4

    def ntile(group: pa.Table) -> pa.Table:
        t = group.sort_by([("c_acctbal", "descending"), ("c_custkey", "ascending")])
        m = t.num_rows
        idx = np.arange(m, dtype=np.int64)
        big = m % K
        size = m // K
        big_span = big * (size + 1)
        if size == 0:
            tile = idx + 1  # fewer rows than tiles: one row per tile
        else:
            tile = np.where(
                idx < big_span,
                idx // (size + 1) + 1,
                big + (idx - big_span) // size + 1,
            )
        return pa.table(
            {
                "c_custkey": t.column("c_custkey"),
                "c_nationkey": pc.cast(t.column("c_nationkey"), pa.int64()),
                "tile": pa.array(tile, pa.int64()),
            }
        )

    return cust.groupby("c_nationkey").map_groups(
        ntile, batch_format="pyarrow"
    )


def q_graph_triangles(sf_dir: str):
    """Per-node triangle counting over the same deterministic link
    graph as pagerank — the canonical JOIN-HEAVY graph-analytics shape
    (compact-forward / edge-wedge-edge intersection).  Four int-only
    shuffles, no driver state:

    1. canonical edge dedup: map tasks emit (lo, hi) with self-loops
       dropped and map-side np.unique; one groupby makes edges
       distinct.
    2. wedge generation: groupby(lo) — for a canonical triangle
       a<b<c, BOTH a-edges (a,b),(a,c) carry lo=a, so each group emits
       its triu pairs (a, b, c).  Group size = the min-vertex's
       forward degree, so wedge count is sum(deg_lo^2)/2 — the known
       cost of triangle enumeration; skewed hubs would need the salt /
       degree-cap treatment documented in SURVEY.
    3. wedge↔edge intersection WITHOUT a per-key map_groups storm:
       wedges and edges union into one dataset tagged by is_edge,
       bucketed by a crc of the packed (b, c) key (the
       _dup_ids_from_buckets discipline), and each bucket group
       resolves all its runs vectorized — sort by key, a run with an
       edge row converts every wedge row into a triangle, emitting
       per-corner (node, partial-count) rows via one bincount.
    4. final groupby(doc_id).sum — nodes in at least one triangle.

    The DuckDB oracle replays the same 3-way self-join declaratively."""
    import pyarrow.parquet as pq

    MULT, STEP = 2654435761, 40503
    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    docs = _docs(sf_dir, columns=["doc_id"], num_blocks=8)

    def gen_edges(b: pa.Table) -> pa.Table:
        src = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        outdeg = 1 + src % 3
        parts = []
        for k in (1, 2, 3):
            m = outdeg >= k
            parts.append(np.stack([src[m], (src[m] * MULT + k * STEP) % n], axis=1))
        e = np.concatenate(parts)
        e = e[e[:, 0] != e[:, 1]]  # drop self-loops
        lo = np.minimum(e[:, 0], e[:, 1])
        hi = np.maximum(e[:, 0], e[:, 1])
        canon = np.unique(np.stack([lo, hi], axis=1), axis=0)  # map-side dedup
        return pa.table(
            {"lo": pa.array(canon[:, 0]), "hi": pa.array(canon[:, 1])}
        )

    # edges feed TWO consumers (wedge generation + the tagged probe
    # side), so materialize the distinct edge set once instead of
    # re-running the dedup shuffle per consumer.  At 10^12 nodes the
    # edge set would persist as bucket-partitioned parquet instead.
    edges = (
        docs.map_batches(gen_edges, batch_format="pyarrow")
        .groupby(["lo", "hi"])
        .aggregate(Count())
        .drop_columns(["count()"])
        .materialize()
    )

    NB = 32

    def wedges(group: pa.Table) -> pa.Table:
        # group = all canonical edges with the same lo; emit triu pairs
        # per lo run
        t = group.sort_by([("lo", "ascending"), ("hi", "ascending")])
        lo = t.column("lo").to_numpy(zero_copy_only=False)
        hi = t.column("hi").to_numpy(zero_copy_only=False)
        a_out, b_out, c_out = [], [], []
        starts = np.flatnonzero(np.r_[True, lo[1:] != lo[:-1]])
        ends = np.r_[starts[1:], len(lo)]
        for s, e in zip(starts, ends):
            L = e - s
            if L < 2:
                continue
            i, j = np.triu_indices(L, k=1)
            a_out.append(np.full(len(i), lo[s]))
            b_out.append(hi[s + i])
            c_out.append(hi[s + j])
        if not a_out:
            return pa.table(
                {
                    "b": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                    "a": pa.array([], pa.int64()),
                    "is_edge": pa.array([], pa.int8()),
                }
            )
        return pa.table(
            {
                "b": pa.array(np.concatenate(b_out), pa.int64()),
                "c": pa.array(np.concatenate(c_out), pa.int64()),
                "a": pa.array(np.concatenate(a_out), pa.int64()),
                "is_edge": pa.array(
                    np.zeros(sum(len(x) for x in a_out), np.int8)
                ),
            }
        )

    wedge_rows = edges.groupby("lo").map_groups(
        wedges, batch_format="pyarrow"
    )

    def tag_edges(b: pa.Table) -> pa.Table:
        m = b.num_rows
        return pa.table(
            {
                "b": b.column("lo"),
                "c": b.column("hi"),
                "a": pa.array(np.full(m, -1, np.int64)),
                "is_edge": pa.array(np.ones(m, np.int8)),
            }
        )

    def add_bucket(b: pa.Table) -> pa.Table:
        key = (
            b.column("b").to_numpy(zero_copy_only=False) * np.int64(n)
            + b.column("c").to_numpy(zero_copy_only=False)
        )
        return b.append_column(
            "__bucket", pa.array((key % NB).astype(np.int32), pa.int32())
        )

    def intersect(group: pa.Table) -> pa.Table:
        t = group.sort_by([("b", "ascending"), ("c", "ascending")])
        bb = t.column("b").to_numpy(zero_copy_only=False)
        cc = t.column("c").to_numpy(zero_copy_only=False)
        aa = t.column("a").to_numpy(zero_copy_only=False)
        ie = t.column("is_edge").to_numpy(zero_copy_only=False).astype(bool)
        if len(bb) == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "part": pa.array([], pa.int64())}
            )
        new = np.r_[True, (bb[1:] != bb[:-1]) | (cc[1:] != cc[:-1])]
        run = np.cumsum(new) - 1
        nruns = run[-1] + 1
        has_edge = np.zeros(nruns, bool)
        np.logical_or.at(has_edge, run[ie], True)
        tri = ~ie & has_edge[run]  # wedge rows whose (b,c) is an edge
        if not tri.any():
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "part": pa.array([], pa.int64())}
            )
        corners = np.concatenate([aa[tri], bb[tri], cc[tri]])
        nodes, cnts = np.unique(corners, return_counts=True)
        return pa.table(
            {"doc_id": pa.array(nodes), "part": pa.array(cnts.astype(np.int64))}
        )

    tagged = wedge_rows.union(edges.map_batches(tag_edges, batch_format="pyarrow"))
    partials = bucket_map_groups(
        tagged.map_batches(add_bucket, batch_format="pyarrow"), "__bucket", intersect
    )
    return (
        partials.groupby("doc_id")
        .aggregate(Sum("part"))
        .map_batches(
            lambda b: _rename(b, {"sum(part)": "n_triangles"}), batch_format="pyarrow"
        )
    )


def q_lang_regression(sf_dir: str):
    """Per-group least-squares regression (n_tokens ~ n_chars per
    language) from EXACT integer moments — the closed-form ML-stats
    shape: map tasks bincount five int64 moment partials (c, Sx, Sy,
    Sxx, Sxy) per dictionary-encoded lang, one vocabulary-sized
    groupby folds them, and the driver evaluates slope = (c*Sxy -
    Sx*Sy) / (c*Sxx - Sx^2) from exact integers with ONE
    int->float conversion per operand and one IEEE division —
    bit-identical to the oracle evaluating the same expression.  No
    per-row floats anywhere, so the result is block-order invariant
    at any scale (the float-sum regression trap this repo's money
    queries document)."""
    from ..functions.textstats import token_count

    def partials(b: pa.Table) -> pa.Table:
        y = (
            token_count(b)
            .column("n_tokens")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        x = b.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        enc = _single_chunk_q(pc.dictionary_encode(b.column("lang")))
        codes = enc.indices.to_numpy(zero_copy_only=False)
        k = len(enc.dictionary)
        bc = lambda w: pa.array(
            np.bincount(codes, weights=w, minlength=k).astype(np.int64)
        )
        return pa.table(
            {
                "lang": enc.dictionary,
                "c": pa.array(np.bincount(codes, minlength=k).astype(np.int64)),
                "sx": bc(x),
                "sy": bc(y),
                "sxx": bc(x * x),
                "sxy": bc(x * y),
            }
        )

    import pandas as pd

    m = (
        _docs(sf_dir, columns=["doc_id", "lang", "n_chars", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("c"), Sum("sx"), Sum("sy"), Sum("sxx"), Sum("sxy"))
        .to_pandas()  # one row per language
    )
    rows = []
    for _, r in m.iterrows():
        c, sx, sy, sxx, sxy = (
            int(r["sum(c)"]),
            int(r["sum(sx)"]),
            int(r["sum(sy)"]),
            int(r["sum(sxx)"]),
            int(r["sum(sxy)"]),
        )
        slope = float(c * sxy - sx * sy) / float(c * sxx - sx * sx)
        intercept = (float(sy) - slope * float(sx)) / float(c)
        rows.append(
            {"lang": r["lang"], "n_docs": c, "slope": slope, "intercept": intercept}
        )
    out = pd.DataFrame(rows)
    out["n_docs"] = out["n_docs"].astype(np.int64)
    return out


def q_graph_components(sf_dir: str):
    """Connected components by min-label propagation, iterated UNTIL
    FIXPOINT with a distributed convergence test — the
    iterate-to-convergence pattern (label propagation / semi-clustering)
    that fixed-round queries like pagerank don't exercise.  Graph:
    every doc links to its 7-group hub, and md5-routed bridges join
    consecutive hubs into chains (435 components, diameter <= ~14 at
    sf0.1 — sparse on purpose; the arithmetic link graph is one giant
    component, which would make the output a constant).

    Per round: ONE bucket groupby resolves every node's current label
    against the edge rows keyed by the same node (the tagged-union
    discipline — no join operator), emitting (neighbor, label)
    messages plus the node's own label, and a second groupby takes the
    min per node.  Labels only ever DECREASE, so the convergence test
    is one scalar: sum(labels) is strictly monotone until fixpoint —
    one Sum aggregate per round, no pairwise old-vs-new comparison, no
    driver-side label vector.  The per-round materialize is the
    checkpoint a real long-running job would write to parquet.  The
    oracle computes the same fixpoint declaratively (recursive-CTE
    reachability -> min reachable id)."""
    import pyarrow.parquet as pq

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    docs = _docs(sf_dir, columns=["doc_id"], num_blocks=8)

    def gen_edges(b: pa.Table) -> pa.Table:
        i = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        hub = i - (i % 7)
        e1 = np.stack([i, hub], axis=1)
        e1 = e1[e1[:, 0] != e1[:, 1]]
        # bridges owned by the batch holding the left hub
        hubs = i[i % 7 == 0]
        gg = hubs // 7
        br = (
            pc.is_in(
                md5_hex(pa.array(gg, pa.int64()), prefix=1),
                value_set=pa.array(list("012345")),
            ).to_numpy(zero_copy_only=False)
            if len(gg)
            else np.zeros(0, bool)
        )
        h2 = hubs[br] + 7
        e2 = np.stack([hubs[br][h2 < n], h2[h2 < n]], axis=1)
        e = np.concatenate([e1, e2])
        und = np.concatenate([e, e[:, ::-1]])
        return pa.table(
            {"src": pa.array(und[:, 0]), "dst": pa.array(und[:, 1])}
        )

    edges = docs.map_batches(gen_edges, batch_format="pyarrow").materialize()

    NB = 16

    # One FUSED shuffle per round (was two: a resolve groupby + a Min
    # groupby — halving the all-to-all barriers took the 12-round run
    # 8.4 s -> see BASELINE session 8).  State rows live in the bucket
    # of their `node`: edge rows (lbl = -1, constant) and candidate
    # label rows (other = -1).  Each bucket group resolves every
    # node's min candidate AND emits the next round's messages in the
    # same vectorized pass; labels only decrease, so Sum(lbl) over the
    # whole state (edge rows contribute a constant) is strictly
    # monotone until fixpoint.

    def tag_edge(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": b.column("src"),
                "other": b.column("dst"),
                "lbl": pa.array(np.full(b.num_rows, -1, np.int64)),
            }
        )

    def tag_label(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": b.column("doc_id"),
                "other": pa.array(np.full(b.num_rows, -1, np.int64)),
                "lbl": b.column("doc_id"),
            }
        )

    def add_bucket(b: pa.Table) -> pa.Table:
        key = b.column("node").to_numpy(zero_copy_only=False)
        return b.append_column(
            "__bucket", pa.array((key % NB).astype(np.int32), pa.int32())
        )

    def step(g: pa.Table) -> pa.Table:
        node = g.column("node").to_numpy(zero_copy_only=False)
        other = g.column("other").to_numpy(zero_copy_only=False)
        lbl = g.column("lbl").to_numpy(zero_copy_only=False)
        is_edge = lbl < 0
        cn, cl = node[~is_edge], lbl[~is_edge]
        order = np.lexsort((cl, cn))
        cn, cl = cn[order], cl[order]
        new = np.r_[True, cn[1:] != cn[:-1]]
        u_node, u_min = cn[new], cl[new]  # min candidate leads its run
        en, eo = node[is_edge], other[is_edge]
        m_src = u_min[np.searchsorted(u_node, en)]  # every src has a row
        out_node = np.concatenate([eo, u_node, en])
        out_other = np.concatenate(
            [np.full(len(eo), -1, np.int64), np.full(len(u_node), -1, np.int64), eo]
        )
        out_lbl = np.concatenate([m_src, u_min, np.full(len(en), -1, np.int64)])
        return pa.table(
            {
                "node": pa.array(out_node),
                "other": pa.array(out_other),
                "lbl": pa.array(out_lbl),
                "__bucket": pa.array((out_node % NB).astype(np.int32), pa.int32()),
            }
        )

    state = (
        docs.map_batches(tag_label, batch_format="pyarrow")
        .union(edges.map_batches(tag_edge, batch_format="pyarrow"))
        .map_batches(add_bucket, batch_format="pyarrow")
        .materialize()
    )
    prev_sum = None
    while True:
        # consumed twice: fixpoint test + next round
        state = bucket_map_groups(state, "__bucket", step).materialize()
        s = state.aggregate(Sum("lbl"))["sum(lbl)"]
        if s == prev_sum:
            break
        prev_sum = s

    def resolve(g: pa.Table) -> pa.Table:
        lbl = g.column("lbl").to_numpy(zero_copy_only=False)
        node = g.column("node").to_numpy(zero_copy_only=False)
        keep = lbl >= 0
        cn, cl = node[keep], lbl[keep]
        order = np.lexsort((cl, cn))
        cn, cl = cn[order], cl[order]
        new = np.r_[True, cn[1:] != cn[:-1]] if len(cn) else np.zeros(0, bool)
        return pa.table(
            {
                "doc_id": pa.array(cn[new], pa.int64()),
                "component": pa.array(cl[new], pa.int64()),
            }
        )

    return bucket_map_groups(state, "__bucket", resolve)


def q_snapshot_diff(sf_dir: str):
    """Cross-snapshot reconciliation (the FULL OUTER JOIN shape, done
    without a join): classify every doc_id across two crawl snapshots
    as added / removed / changed.  The new snapshot is derived
    deterministically from the old (doc_id % 11 == 0 rows removed,
    % 5 == 0 rows get n_chars + 7, % 13 == 0 rows re-appear shifted by
    +1,000,000 as adds).  Both sides union into (doc_id, side,
    n_chars) rows and ONE map-side-combined groupby computes count,
    side-sum and the signed n_chars delta per id — presence and change
    detection fall out of three int aggregates, so the full-outer
    semantics costs exactly one shuffle of 3-int rows and no driver
    state.  At 10^12 ids this is the scalable way to diff snapshots —
    a real outer join would move both payloads; this moves one int."""
    docs = _docs(sf_dir, columns=["doc_id", "n_chars"], num_blocks=8)

    def tag(b: pa.Table) -> pa.Table:
        did = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        nch = b.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        # old side
        out_id = [did]
        out_side = [np.zeros(len(did), np.int64)]
        out_nch = [-nch]  # signed: new minus old
        # new side: survivors (with % 5 change), then the adds
        keep = did % 11 != 0
        nid, nnch = did[keep], nch[keep].copy()
        chg = nid % 5 == 0
        nnch[chg] += 7
        out_id.append(nid)
        out_side.append(np.ones(len(nid), np.int64))
        out_nch.append(nnch)
        add = did % 13 == 0
        out_id.append(did[add] + 1_000_000)
        out_side.append(np.ones(int(add.sum()), np.int64))
        out_nch.append(nch[add])
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_id)),
                "side": pa.array(np.concatenate(out_side)),
                "d": pa.array(np.concatenate(out_nch)),
            }
        )

    def classify(b: pa.Table) -> pa.Table:
        cnt = b.column("count()").to_numpy(zero_copy_only=False)
        s = b.column("sum(side)").to_numpy(zero_copy_only=False)
        d = b.column("sum(d)").to_numpy(zero_copy_only=False)
        keep = (cnt == 1) | (d != 0)
        status = np.where(
            cnt == 1, np.where(s == 1, "added", "removed"), "changed"
        )
        idx = pa.array(np.flatnonzero(keep), pa.int64())
        return pa.table(
            {
                "doc_id": pc.take(b.column("doc_id"), idx),
                "status": pa.array(status[keep], pa.string()),
            }
        )

    return (
        docs.map_batches(tag, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Count(), Sum("side"), Sum("d"))
        .map_batches(classify, batch_format="pyarrow")
    )


def q_ocr_spell_candidates(sf_dir: str):
    """Post-OCR spell-correction candidate mining via SymSpell
    deletion-neighborhood hashing — find (misread, correction) term
    pairs at edit distance 1 WITHOUT an all-pairs vocabulary join.
    Docs whose md5(doc_id) routes into a 1/8 slice get OCR-style
    corruption planted (first char of every token of length >= 4
    becomes 'x' — SQL-replicable, unlike a real misread).  Map tasks
    count terms (vocabulary-sized partials), every distinct term emits
    itself + its single-char-deletion variants as bucket keys (two
    terms within edit distance 1 ALWAYS share a key — substitution:
    both delete the differing position; indel: the longer's deletion
    IS the shorter), and each bucket verifies its candidate runs with
    an exact distance-1 check plus the frequency rule (suggestion
    count >= 4x the misread's).  Only (key-hash, term, cnt) rows
    shuffle; the vocabulary never concentrates on the driver.  The
    oracle replays corruption + levenshtein(a,b)=1 declaratively."""
    tok_re = r"\s+"

    def term_counts(b: pa.Table) -> pa.Table:
        texts = pc.utf8_lower(b.column("text"))
        did = b.column("doc_id").to_numpy(zero_copy_only=False)
        corrupt = pc.is_in(
            md5_hex(b.column("doc_id"), prefix=1), value_set=pa.array(["0", "1"])
        ).to_numpy(zero_copy_only=False)
        toks = pc.split_pattern_regex(texts, tok_re)
        flat = pc.list_flatten(toks)
        par = np.repeat(
            np.arange(b.num_rows), pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        )
        mask = pc.not_equal(flat, "")
        flat = flat.filter(mask)
        par = par[mask.to_numpy(zero_copy_only=False)]
        # plant the OCR misread on the corrupted slice's long tokens
        is_long = pc.greater_equal(pc.utf8_length(flat), 4).to_numpy(zero_copy_only=False)
        do = corrupt[par] & is_long
        if do.any():
            xed = pc.binary_join_element_wise(
                "x", pc.utf8_slice_codeunits(flat, 1), ""
            )
            flat = pc.if_else(pa.array(do), xed, flat)
        t = pa.table({"term": flat})
        enc = _single_chunk_q(pc.dictionary_encode(t.column("term")))
        codes = enc.indices.to_numpy(zero_copy_only=False)
        k = len(enc.dictionary)
        return pa.table(
            {
                "term": enc.dictionary,
                "cnt": pa.array(np.bincount(codes, minlength=k).astype(np.int64)),
            }
        )

    vocab = (
        _docs(sf_dir, columns=["doc_id", "text"])
        .map_batches(term_counts, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("cnt"))
    )

    NB = 16

    def emit_keys(b: pa.Table) -> pa.Table:
        terms = _single_chunk_q(b.column("term")).to_pylist()
        cnts = b.column("sum(cnt)").to_numpy(zero_copy_only=False)
        keys, t_out, c_out = [], [], []
        for t, c in zip(terms, cnts):
            variants = {t}
            for i in range(len(t)):
                variants.add(t[:i] + t[i + 1 :])
            for v in variants:
                keys.append(zlib.crc32(v.encode()))
                t_out.append(t)
                c_out.append(int(c))
        return pa.table(
            {
                "key": pa.array(np.asarray(keys, np.int64)),
                "term": pa.array(t_out, pa.string()),
                "cnt": pa.array(c_out, pa.int64()),
                "__bucket": pa.array(
                    (np.asarray(keys, np.int64) % NB).astype(np.int32)
                ),
            }
        )

    def _dist1(a: str, b: str) -> bool:
        if a == b:
            return False
        la, lb = len(a), len(b)
        if la == lb:
            return sum(x != y for x, y in zip(a, b)) == 1
        if abs(la - lb) != 1:
            return False
        s, l = (a, b) if la < lb else (b, a)
        for i in range(len(l)):
            if l[:i] + l[i + 1 :] == s:
                return True
        return False

    def verify(group: pa.Table) -> pa.Table:
        t = group.sort_by([("key", "ascending"), ("term", "ascending")])
        keys = t.column("key").to_numpy(zero_copy_only=False)
        terms = _single_chunk_q(t.column("term")).to_pylist()
        cnts = t.column("cnt").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        ends = np.r_[starts[1:], len(keys)]
        rows = set()
        for s, e in zip(starts, ends):
            for i in range(s, e):
                for j in range(s, e):
                    if (
                        i != j
                        and cnts[j] >= 4 * cnts[i]
                        and _dist1(terms[i], terms[j])
                    ):
                        rows.add((terms[i], terms[j], int(cnts[i]), int(cnts[j])))
        rows = sorted(rows)
        return pa.table(
            {
                "term": pa.array([r[0] for r in rows], pa.string()),
                "suggestion": pa.array([r[1] for r in rows], pa.string()),
                "term_cnt": pa.array([r[2] for r in rows], pa.int64()),
                "suggestion_cnt": pa.array([r[3] for r in rows], pa.int64()),
            }
        )

    pairs = bucket_map_groups(
        vocab.map_batches(emit_keys, batch_format="pyarrow"), "__bucket", verify
    )
    # the same pair can surface from several deletion keys/buckets
    return keep_min_by(
        pairs.map_batches(
            lambda b: b.append_column(
                "__k",
                pc.binary_join_element_wise(
                    b.column("term"), b.column("suggestion"), "\x1f"
                ),
            ),
            batch_format="pyarrow",
        ),
        "__k",
        "term_cnt",
        num_buckets=8,
    ).drop_columns(["__k"])


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


def q_dsir_select(
    sf_dir: str, n_buckets: int = 1024, top_n: int = 50, scale: int = 10_000
):
    """DSIR-style hashed-ngram importance selection (Xie et al. 2023,
    "Data Selection for Language Models via Importance Resampling",
    public arXiv:2302.03169): score every document by how much its
    hashed-unigram distribution looks like a TARGET distribution (here
    the lang='en' slice stands in for the high-quality target) relative
    to the raw corpus, and keep the top-N.  Exact-integer variant for
    cross-engine parity: per-bucket importance is the Laplace-smoothed
    probability ratio quantized once on the driver —
    ``q_b = (t_b * R * scale) // (r_b * T)`` in Python bigints (t/r =
    bucket counts + 1, T/R their totals) — and a doc's score is the
    plain int64 SUM of q over its token instances (order-free, no
    transcendental in the gate; the paper's log-weight is a one-line
    swap).  100-TB shape: pass 1 emits one (n_buckets)-int partial
    per block for BOTH distributions in a single read (driver folds
    blocks x 1024 ints); pass 2 re-tokenizes map-side against the
    broadcast q-table and emits each block's local top-N — the global
    top-N is a subset of the union, so the driver folds blocks x N
    tiny rows.  FNV-1a token hashes (sketch.token_hashes), mirrored in
    HUGEINT by the oracle's codepoint fold."""
    from ..functions.sketch import token_hashes

    nb = np.uint64(n_buckets)
    docs = _docs(sf_dir, columns=["doc_id", "lang", "text"])

    def bucket_counts(b: pa.Table) -> pa.Table:
        h, parents, _ = token_hashes(_single_chunk_q(b.column("text")))
        bk = (h % nb).astype(np.int64)
        is_t = pc.equal(b.column("lang"), "en").to_numpy(zero_copy_only=False)
        raw = np.bincount(bk, minlength=n_buckets).astype(np.int64)
        tgt = np.bincount(
            bk[is_t[parents]] if len(parents) else bk[:0], minlength=n_buckets
        ).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(np.arange(n_buckets, dtype=np.int64)),
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
    tgt = np.zeros(n_buckets, np.int64)
    raw = np.zeros(n_buckets, np.int64)
    for r in folded:
        tgt[r["bucket"]] = int(r["sum(tgt)"])
        raw[r["bucket"]] = int(r["sum(raw)"])
    # quantized ratio table in PYTHON ints (no int64 overflow at any
    # corpus size); values are bounded by scale * R/T so the shipped
    # table is plain int64
    t_b = [int(x) + 1 for x in tgt]
    r_b = [int(x) + 1 for x in raw]
    T, R = sum(t_b), sum(r_b)
    q_tab = np.array(
        [(t_b[i] * R * scale) // (r_b[i] * T) for i in range(n_buckets)], np.int64
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


def q_corr_matrix(sf_dir: str):
    """Pairwise Pearson correlation matrix over lineitem's three small
    integer measures (quantity, discount pct, tax pct) — the
    distributed-moments shape: each map task folds its batch to ONE
    partial row of exact int64 sums (n, Sx, Sxx, Sxy per pair), a
    scalar Sum aggregate folds partials, and the driver applies the
    closed-form r = (n·Sxy − Sx·Sy) / (σx·σy) once per pair from exact
    integers — no float accumulation anywhere, so the rounded r is
    bit-stable under any block layout.  Small-int columns keep every
    moment < 2^63 even at 10^12 rows (quantity ≤ 50, pcts ≤ 10)."""
    import pandas as pd

    cols = ["l_quantity", "l_discount", "l_tax"]
    names = ["quantity", "discount", "tax"]

    def partials(b: pa.Table) -> pa.Table:
        q = _money_cents(b.column("l_quantity"), factor=1.0).to_numpy(
            zero_copy_only=False
        )
        d = _money_cents(b.column("l_discount")).to_numpy(zero_copy_only=False)
        t = _money_cents(b.column("l_tax")).to_numpy(zero_copy_only=False)
        v = {"q": q, "d": d, "t": t}
        row: dict[str, list[int]] = {"n": [len(q)]}
        for a in "qdt":
            row[f"s_{a}"] = [int(v[a].sum())]
            row[f"s_{a}{a}"] = [int((v[a] * v[a]).sum())]
        for a, bb in (("q", "d"), ("q", "t"), ("d", "t")):
            row[f"s_{a}{bb}"] = [int((v[a] * v[bb]).sum())]
        return pa.table({k: pa.array(vv, pa.int64()) for k, vv in row.items()})

    agg_cols = [
        "n", "s_q", "s_d", "s_t", "s_qq", "s_dd", "s_tt", "s_qd", "s_qt", "s_dt",
    ]
    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=cols
    ).map_batches(partials, batch_format="pyarrow")
    tot = ds.aggregate(*[Sum(c) for c in agg_cols])
    g = {c: int(tot[f"sum({c})"]) for c in agg_cols}

    def corr(a: str, bb: str) -> float:
        n = g["n"]
        num = n * g[f"s_{a}{bb}"] - g[f"s_{a}"] * g[f"s_{bb}"]
        vx = n * g[f"s_{a}{a}"] - g[f"s_{a}"] ** 2
        vy = n * g[f"s_{bb}{bb}"] - g[f"s_{bb}"] ** 2
        if vx == 0 or vy == 0:
            return 0.0
        return round(float(num) / (np.sqrt(float(vx)) * np.sqrt(float(vy))), 6)

    pairs = [("q", "d"), ("q", "t"), ("d", "t")]
    label = dict(zip("qdt", names))
    return pd.DataFrame(
        {
            "col_x": [label[a] for a, _ in pairs],
            "col_y": [label[bb] for _, bb in pairs],
            "corr": [corr(a, bb) for a, bb in pairs],
        }
    )


def q_mad_outliers(sf_dir: str):
    """Robust outlier detection by median absolute deviation — the
    two-pass distributed shape: pass 1 folds the corpus to a bounded
    (lang, n_chars) histogram for exact per-lang medians (the
    exact_group_quantiles machinery — shuffle and driver hold one row
    per distinct pair, never per doc), the 5-entry median table
    broadcasts into pass 2's deviation histogram for the exact MAD,
    and the final map flags ``|n_chars − median| > 3·MAD`` as a pure
    integer comparison per doc.  Same rank rule as DuckDB
    quantile_disc on both passes => bit-identical flags."""
    from .relational import exact_group_quantiles

    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
    med = exact_group_quantiles(ds, "lang", "n_chars", {"m": 0.5})
    med_map = {r["lang"]: int(r["m"]) for _, r in med.iterrows()}

    def dev(b: pa.Table) -> pa.Table:
        lang = b.column("lang").to_pylist()
        m = np.array([med_map[lg] for lg in lang], np.int64)
        nc = b.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "lang": b.column("lang"),
                "n_chars": pa.array(nc, pa.int64()),
                "dv": pa.array(np.abs(nc - m), pa.int64()),
            }
        )

    devs = ds.map_batches(dev, batch_format="pyarrow")
    mad = exact_group_quantiles(devs, "lang", "dv", {"mad": 0.5})
    mad_map = {r["lang"]: int(r["mad"]) for _, r in mad.iterrows()}

    def flag(b: pa.Table) -> pa.Table:
        lang = b.column("lang").to_pylist()
        thr = np.array([3 * mad_map[lg] for lg in lang], np.int64)
        dv = b.column("dv").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "lang": b.column("lang"),
                "n_chars": b.column("n_chars"),
                "is_outlier": pa.array(dv > thr),
            }
        )

    return devs.map_batches(flag, batch_format="pyarrow")


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
    from .mixing import mixture_sample, temperature_rates

    ds = _docs(sf_dir, columns=["doc_id", "lang"])
    cnt = ds.groupby("lang").aggregate(Count()).to_pandas()  # ≤ |langs| rows
    counts = {r["lang"]: int(r["count()"]) for _, r in cnt.iterrows()}
    budget = sum(counts.values()) // 2
    resolved = temperature_rates(counts, budget)
    return mixture_sample(
        ds, {}, default_rate=0.0, source_col="lang", resolved_rates=resolved
    )


def q_event_log_dedup(sf_dir: str):
    """Windowed event-log deduplication (the CDC / log-ingest dedup
    shape): keep the FIRST event per (user, event_type, 1-hour tumbling
    window), first = min (ts, event_id).  One three-key groupby whose
    aggregate is a single Min over a PACKED int64 — in-window offset
    (< 3.6e9 µs) × 2^31 + event_id — so the winner and its timestamp
    decode exactly from one aggregate value; no per-group sort, no
    row shuffle beyond the grouped min.  Scales: the shuffle carries
    one packed int per input row, output is one row per active
    (user, type, hour)."""
    HOUR_US = 3_600_000_000
    SHIFT = 1 << 31

    def prep(b: pa.Table) -> pa.Table:
        ts = pc.cast(b.column("ts"), pa.int64())
        eid = pc.cast(b.column("event_id"), pa.int64())
        # guard the packing invariant (same discipline as chunk_dedup):
        # an event_id >= 2^31 would corrupt the in-window order key
        if b.num_rows and pc.max(eid).as_py() >= SHIFT:
            raise ValueError("event_id >= 2^31; widen the packed order key")
        win = pc.divide(ts, pa.scalar(HOUR_US, pa.int64()))
        off = pc.subtract(ts, pc.multiply(win, pa.scalar(HOUR_US, pa.int64())))
        packed = pc.add(
            pc.multiply(off, pa.scalar(SHIFT, pa.int64())), eid
        )
        return pa.table(
            {
                "user_id": b.column("user_id"),
                "event_type": b.column("event_type"),
                "win": win,
                "packed": packed,
            }
        )

    def unpack(b: pa.Table) -> pa.Table:
        packed = b.column("min(packed)")
        off = pc.divide(packed, pa.scalar(SHIFT, pa.int64()))
        eid = pc.subtract(packed, pc.multiply(off, pa.scalar(SHIFT, pa.int64())))
        ts = pc.add(
            pc.multiply(b.column("win"), pa.scalar(HOUR_US, pa.int64())), off
        )
        return pa.table(
            {
                "event_id": eid,
                "user_id": b.column("user_id"),
                "event_type": b.column("event_type"),
                "ts": pc.cast(ts, pa.timestamp("us")),
            }
        )

    return (
        rd.read_parquet(
            os.path.join(sf_dir, "events.parquet"),
            columns=["event_id", "user_id", "event_type", "ts"],
        )
        .map_batches(prep, batch_format="pyarrow")
        .groupby(["user_id", "event_type", "win"])
        .aggregate(Min("packed"))
        .map_batches(unpack, batch_format="pyarrow")
    )


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
    from .mixing import mixture_sample, temperature_rates

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


def q_lang_percent_rank(sf_dir: str):
    """Per-group rank normalization (the CDF / percent_rank score
    calibration step): pr = (rank−1)/(n−1) of n_chars within each
    language.  Scale shape: NO per-group sort — the bounded
    (lang, n_chars) histogram (same device as the exact quantiles)
    folds map-side, the driver turns it into per-(lang, value)
    minimum-rank offsets, and one broadcast + vectorized gather maps
    every row; ties share the minimum rank exactly as SQL rank()
    does.  The division is one IEEE op from exact ints on both
    engines, rounded to 6 dp."""
    ds = _docs(sf_dir, columns=["doc_id", "lang", "n_chars"])
    hist = (
        ds.groupby(["lang", "n_chars"]).aggregate(Count()).to_pandas()
    )  # bounded: |langs| x |distinct n_chars|
    lut: dict[str, tuple[np.ndarray, np.ndarray, int]] = {}
    for lg, sub in hist.groupby("lang", sort=True):
        sub = sub.sort_values("n_chars")
        vals = sub["n_chars"].to_numpy(np.int64)
        counts = sub["count()"].to_numpy(np.int64)
        rank_minus1 = np.concatenate([[0], np.cumsum(counts)[:-1]])
        lut[lg] = (vals, rank_minus1, int(counts.sum()))
    lut_ref = ray.put(lut)

    def pr(b: pa.Table) -> pa.Table:
        table = ray.get(lut_ref)
        lang = b.column("lang").to_pylist()
        nc = b.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        out = np.zeros(len(nc), np.float64)
        for lg in set(lang):
            vals, r1, n = table[lg]
            m = np.array([x == lg for x in lang])
            if n > 1:
                out[m] = r1[np.searchsorted(vals, nc[m])] / (n - 1)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "lang": b.column("lang"),
                "n_chars": pc.cast(b.column("n_chars"), pa.int64()),
                "pr": pa.array(np.round(out, 6), pa.float64()),
            }
        )

    return ds.map_batches(pr, batch_format="pyarrow")


def q_cms_term_counts(sf_dir: str):
    """Count-Min Sketch term-frequency estimation — the FIXED-MEMORY
    frequency sketch the suite's other sketches (HLL, histogram
    quantiles, MinHash) don't cover: 4 rows x 512 buckets of int64,
    multiplicative top-9-bit bucketing over the engine's FNV-1a token
    hashes.  Map tasks fold each block to ≤ 2048 (row, bucket, count)
    partial rows (fixed regardless of block size — the property that
    makes the shuffle O(1) per block at 100 TB); one bounded groupby
    sums the sketch; the driver holds only the 2048-entry table plus
    the 20 candidate terms (top document-frequency, reused machinery)
    and reports est = min over rows of the hashed bucket next to the
    exact occurrence count (CMS guarantees est >= exact).  All integer
    arithmetic: the oracle rebuilds the identical sketch in SQL."""
    import pandas as pd

    from ..functions.sketch import hash_string_array, token_hashes

    # 32-bit odd multipliers (multiply-shift universal family): the
    # 128-bit SQL mirror must hold h*salt without overflow, so salts
    # stay below 2^32 (h < 2^64 -> product < 2^96 < INT128 max)
    SALTS = (0x9E3779B9, 0x85EBCA6B, 0xC2B2AE35, 0x27D4EB2F)
    W_BITS = 9  # 512 buckets per row

    def partials(b: pa.Table) -> pa.Table:
        texts = _single_chunk_q(b.column("text"))
        h, _parents, _n = token_hashes(texts)
        rows, buckets, counts = [], [], []
        for r, salt in enumerate(SALTS):
            with np.errstate(over="ignore"):
                bk = (h * np.uint64(salt)) >> np.uint64(64 - W_BITS)
            cnt = np.bincount(bk.astype(np.int64), minlength=1 << W_BITS)
            nz = np.flatnonzero(cnt)
            rows.append(np.full(len(nz), r, np.int64))
            buckets.append(nz.astype(np.int64))
            counts.append(cnt[nz].astype(np.int64))
        return pa.table(
            {
                "r": pa.array(np.concatenate(rows), pa.int64()),
                "bucket": pa.array(np.concatenate(buckets), pa.int64()),
                "cnt": pa.array(np.concatenate(counts), pa.int64()),
            }
        )

    cms_df = (
        _docs(sf_dir, columns=["text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["r", "bucket"])
        .aggregate(Sum("cnt"))  # bounded: <= 4 x 512 groups
        .to_pandas()
    )
    cms = np.zeros((len(SALTS), 1 << W_BITS), np.int64)
    cms[cms_df["r"].to_numpy(np.int64), cms_df["bucket"].to_numpy(np.int64)] = (
        cms_df["sum(cnt)"].to_numpy(np.int64)
    )

    # candidates: top-20 terms by document frequency (df desc, term asc)
    cand = (
        _doc_freq(sf_dir)
        .sort(["df", "term"], descending=[True, False])
        .limit(20)
        .to_pandas()
    )
    terms = sorted(cand["term"].tolist())
    term_set = ray.put(pa.array(terms, pa.string()))

    def exact_partial(b: pa.Table) -> pa.Table:
        from ..functions.textstats import _tokens

        flat, _p, _n = _tokens(_single_chunk_q(b.column("text")))
        tset = ray.get(term_set)
        hit = flat.filter(pc.is_in(flat, value_set=tset))
        enc = _single_chunk_q(pc.dictionary_encode(hit))
        cnt = np.bincount(
            enc.indices.to_numpy(zero_copy_only=False),
            minlength=len(enc.dictionary),
        ).astype(np.int64)
        return pa.table({"term": enc.dictionary, "n": pa.array(cnt, pa.int64())})

    exact = (
        _docs(sf_dir, columns=["text"])
        .map_batches(exact_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n"))  # bounded: 20 candidate terms
        .to_pandas()
        .set_index("term")["sum(n)"]
    )

    th = hash_string_array(pa.array(terms, pa.string()))
    ests = []
    for t, hv in zip(terms, th):
        vals = []
        for r, salt in enumerate(SALTS):
            with np.errstate(over="ignore"):
                bk = int((hv * np.uint64(salt)) >> np.uint64(64 - W_BITS))
            vals.append(int(cms[r, bk]))
        ests.append(min(vals))
    return pd.DataFrame(
        {
            "term": terms,
            "cms_est": np.asarray(ests, np.int64),
            "exact_cnt": np.asarray([int(exact[t]) for t in terms], np.int64),
        }
    )


def q_lang_trimmed_mean(sf_dir: str):
    """Per-group trimmed (winsor-bounded) mean — the robust average
    used to calibrate length/quality thresholds without outlier drag:
    mean of n_chars within the [p05, p95] closed band per language.
    Same bounded-histogram device as the exact quantiles: the shuffle
    and driver hold one row per distinct (lang, n_chars); the p05/p95
    bounds use the ceil(q·n) rank rule (DuckDB quantile_disc parity);
    the trimmed mean is an exact integer sum divided once (IEEE,
    rounded 6 dp) — identical on any engine and any block layout."""
    import pandas as pd

    hist = (
        _docs(sf_dir, columns=["lang", "n_chars"])
        .groupby(["lang", "n_chars"])
        .aggregate(Count())
        .to_pandas()
    )
    rows = []
    import math

    for lg, sub in hist.groupby("lang", sort=True):
        sub = sub.sort_values("n_chars")
        vals = sub["n_chars"].to_numpy(np.int64)
        counts = sub["count()"].to_numpy(np.int64)
        cum = np.cumsum(counts)
        n = int(cum[-1])
        lo = int(vals[np.searchsorted(cum, math.ceil(0.05 * n), side="left")])
        hi = int(vals[np.searchsorted(cum, math.ceil(0.95 * n), side="left")])
        band = (vals >= lo) & (vals <= hi)
        s = int((vals[band] * counts[band]).sum())
        c = int(counts[band].sum())
        rows.append(
            {
                "lang": lg,
                "p05": lo,
                "p95": hi,
                "n_in_band": c,
                "trimmed_mean": round(s / c, 6),
            }
        )
    out = pd.DataFrame(rows)
    out["p05"] = out["p05"].astype(np.int64)
    out["p95"] = out["p95"].astype(np.int64)
    out["n_in_band"] = out["n_in_band"].astype(np.int64)
    return out


def q_source_diversity(sf_dir: str):
    """Per-source language-diversity monitoring — the mixture-health
    rollup a multilingual corpus team watches: docs, distinct
    languages, and the Gini–Simpson index per source.  Chosen over
    Shannon entropy deliberately: 1 − Σ c_i(c_i−1) / (n(n−1)) is an
    EXACT RATIONAL of integer counts (one IEEE division, rounded 6 dp)
    — no transcendental whose last-ulp behavior could differ between
    engines.  One bounded (source, lang) groupby (map-side combined);
    everything downstream is per-source-bounded."""
    import pandas as pd

    cnt = (
        _docs(sf_dir, columns=["source", "lang"])
        .groupby(["source", "lang"])
        .aggregate(Count())
        .to_pandas()
    )
    rows = []
    for src_, sub in cnt.groupby("source", sort=True):
        c = sub["count()"].to_numpy(np.int64)
        n = int(c.sum())
        pairs = int((c * (c - 1)).sum())
        simpson = round(1.0 - pairs / (n * (n - 1)), 6) if n > 1 else 0.0
        rows.append(
            {
                "source": src_,
                "n_docs": n,
                "n_langs": len(c),
                "simpson": simpson,
            }
        )
    out = pd.DataFrame(rows)
    out["n_docs"] = out["n_docs"].astype(np.int64)
    out["n_langs"] = out["n_langs"].astype(np.int64)
    return out


# ---------------------------------------------------------------------------
# catalogue + oracles
# ---------------------------------------------------------------------------

QUERIES = {
    # SQL-oracled
    "doc_token_stats": q_doc_token_stats,
    "doc_quality": q_doc_quality,
    "doc_fingerprint": q_doc_fingerprint,
    "lang_stats": q_lang_stats,
    "exact_dedup": q_exact_dedup,
    "dedup_prefix": q_dedup_prefix,
    "dedup_keep_best": q_dedup_keep_best,
    "token_pmi": q_token_pmi,
    "skipgram_cooc": q_skipgram_cooc,
    "lang_len_quantiles": q_lang_len_quantiles,
    "events_by_type": q_events_by_type,
    "events_hourly": q_events_hourly,
    "top_long_docs": q_top_long_docs,
    "distinct_sources": q_distinct_sources,
    "top_docs_per_lang": q_top_docs_per_lang,
    "sample_docs": q_sample_docs,
    "filter_project": q_filter_project,
    "user_sessions": q_user_sessions,
    "emb_topk_cosine": q_emb_topk,
    "emb_topk_q8": q_emb_topk_q8,
    "emb_gram_q8": q_emb_gram_q8,
    "pdf_text": q_pdf_text,
    "text_search": q_text_search,
    "text_search_bm25": q_text_search_bm25,
    "tpch_q1": q_tpch_q1,
    "mktsegment_orders": q_mktsegment_orders,
    "events_asof_order": q_events_asof_order,
    "top_suppliers_per_nation": q_top_suppliers_per_nation,
    "quantity_quantiles": q_quantity_quantiles,
    "events_sliding_window": q_events_sliding_window,
    "top_terms_per_lang": q_top_terms_per_lang,
    "pattern_scrub": q_pattern_scrub,
    "quantity_band_join": q_quantity_band_join,
    "emb_label_centroids": q_emb_label_centroids,
    "term_doc_freq": q_term_doc_freq,
    "tfidf_doc_scores": q_tfidf_doc_scores,
    "user_event_diversity": q_user_event_diversity,
    "nation_order_revenue": q_nation_order_revenue,
    "audio_features": q_audio_features,
    "dataset_split": q_dataset_split,
    "repetition_stats": q_repetition_stats,
    "doc_chunks": q_doc_chunks,
    "domain_cap": q_domain_cap,
    "sequence_pack": q_sequence_pack,
    "lm_perplexity": q_lm_perplexity,
    "decontaminate": q_decontaminate,
    "global_rank": q_global_rank,
    "heavy_hitters": q_heavy_hitters,
    "approx_distinct_users": q_approx_distinct_users,
    "curate": q_curate,
    "dup_ngram_frac": q_dup_ngram_frac,
    "chunk_dedup": q_chunk_dedup,
    "bpe_pairs": q_bpe_pairs,
    "bpe_train": q_bpe_train,
    "bpe_vocab": q_bpe_vocab,
    "tpch_q5": q_tpch_q5,
    "tpch_q3": q_tpch_q3,
    "tpch_q6": q_tpch_q6,
    "tpch_q4": q_tpch_q4,
    "tpch_q10": q_tpch_q10,
    "tpch_q12": q_tpch_q12,
    "tpch_q14": q_tpch_q14,
    "tpch_q18": q_tpch_q18,
    "tpch_q19": q_tpch_q19,
    "tpch_q7": q_tpch_q7,
    "tpch_q8": q_tpch_q8,
    "tpch_q13": q_tpch_q13,
    "tpch_q17": q_tpch_q17,
    "tpch_q20": q_tpch_q20,
    "tpch_q21": q_tpch_q21,
    "tpch_q22": q_tpch_q22,
    "tpch_q2": q_tpch_q2,
    "tpch_q9": q_tpch_q9,
    "tpch_q15": q_tpch_q15,
    "tpch_q11": q_tpch_q11,
    "tpch_q16": q_tpch_q16,
    "running_revenue": q_running_revenue,
    "event_transitions": q_event_transitions,
    "event_props_stats": q_event_props_stats,
    "stratified_sample": q_stratified_sample,
    "idle_customers": q_idle_customers,
    "lang_source_rollup": q_lang_source_rollup,
    "incremental_neardup": q_incremental_neardup,
    "event_funnel": q_event_funnel,
    "events_sliding_1h": q_events_sliding_1h,
    "events_sliding_sum_1h": q_events_sliding_sum_1h,
    "dsir_select": q_dsir_select,
    "click_attribution": q_click_attribution,
    "source_drift": q_source_drift,
    "cohort_retention": q_cohort_retention,
    "quality_zscore": q_quality_zscore,
    "video_frames": q_video_frames,
    "incremental_dedup": q_incremental_dedup,
    "exact_substring_dedup": q_exact_substring_dedup,
    "pagerank": q_pagerank,
    "customer_ntile": q_customer_ntile,
    "graph_triangles": q_graph_triangles,
    "graph_components": q_graph_components,
    "lang_regression": q_lang_regression,
    "event_interarrival": q_event_interarrival,
    "source_lang_pivot": q_source_lang_pivot,
    "token_stream_pack": q_token_stream_pack,
    "gopher_filter": q_gopher_filter,
    "monthly_revenue_delta": q_monthly_revenue_delta,
    "snapshot_diff": q_snapshot_diff,
    "ocr_spell_candidates": q_ocr_spell_candidates,
    "classifier_score": q_classifier_score,
    "corr_matrix": q_corr_matrix,
    "mad_outliers": q_mad_outliers,
    "temperature_mixture": q_temperature_mixture,
    "event_log_dedup": q_event_log_dedup,
    "normalized_dedup": q_normalized_dedup,
    "image_knn": q_image_knn,
    "curate_v2": q_curate_v2,
    "dedup_cluster_sizes": q_dedup_cluster_sizes,
    "lang_percent_rank": q_lang_percent_rank,
    "cms_term_counts": q_cms_term_counts,
    "lang_trimmed_mean": q_lang_trimmed_mean,
    "source_diversity": q_source_diversity,
    # extraction (rows-only)
    "extract_flagship": q_extract_flagship,
    "extract_validate": q_extract_validate,
    "extract_quarantine": q_extract_quarantine,
    "ocr_text": q_ocr_text,
    "ocr_boxes": q_ocr_boxes,
    "orientation_detect": q_orientation,
    "layout_boxes": q_layout_boxes,
    "hocr_render": q_hocr,
    "boilerplate_strip": q_boilerplate_strip,
    "media_features": q_media_features,
    "media_decode": q_media_decode,
    "phash_dedup": q_phash_dedup,
    # training-data ops (rows-only)
    "minhash_dedup": q_minhash_dedup,
    "minhash_components_dedup": q_minhash_components_dedup,
    "simhash_dedup": q_simhash_dedup,
    "ngram_jaccard_dedup": q_ngram_jaccard_dedup,
    "embedding_neardup": q_embedding_neardup,
    "langid": q_langid,
    "rolling_fingerprint": q_rolling_fingerprint,
    "ivf_topk_cosine": q_ivf_topk,
    "knn_self_join": q_knn_join,
    "knn_self_join_cells": q_knn_join_cells,
    "kmeans_clusters": q_kmeans_clusters,
    "semdedup": q_semdedup,
    "mixture_sample": q_mixture_sample,
    "approx_quantiles": q_approx_quantiles,
}

_TOK = r"\S+"
_BPE = r"[A-Za-z0-9_]+|[^A-Za-z0-9_\s]"


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

ORACLE_SQL = {
    "doc_token_stats": f"""
        SELECT doc_id,
               len(regexp_extract_all(text, '{_TOK}')) AS n_tokens,
               len(regexp_extract_all(text, '{_BPE}')) AS n_bpe_tokens
        FROM documents
    """,
    "doc_quality": f"""
        WITH toks AS (
            SELECT doc_id,
                   regexp_extract_all(lower(text), '{_TOK}') AS ts,
                   len(regexp_extract_all(text, '[^A-Za-z0-9_\\s]')) AS n_punct
            FROM documents
        )
        SELECT doc_id,
               len(ts) AS n_tokens,
               len(list_distinct(ts)) AS n_distinct,
               n_punct,
               round(len(list_distinct(ts))::DOUBLE / greatest(len(ts), 1), 6) AS distinct_ratio,
               round(list_aggregate(list_transform(ts, x -> len(x)::DOUBLE), 'sum')
                     / greatest(len(ts), 1), 6) AS mean_token_len
        FROM toks
    """,
    "doc_fingerprint": "SELECT doc_id, md5(text) AS md5 FROM documents",
    "lang_stats": """
        SELECT lang, count(*) AS n_docs, sum(n_chars)::BIGINT AS total_chars,
               round(avg(n_chars), 4) AS avg_chars
        FROM documents GROUP BY lang
    """,
    "exact_dedup": """
        SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text
    """,
    "dedup_prefix": """
        SELECT min(doc_id) AS doc_id, substr(text, 1, 24) AS pfx
        FROM documents GROUP BY pfx
    """,
    "dedup_keep_best": """
        SELECT doc_id, pfx, n_chars FROM (
            SELECT doc_id, substr(text, 1, 24) AS pfx, n_chars,
                   row_number() OVER (
                       PARTITION BY substr(text, 1, 24)
                       ORDER BY n_chars DESC, doc_id ASC
                   ) AS rn
            FROM documents
        ) WHERE rn = 1
    """,
    "token_pmi": """
        WITH toks AS (
            SELECT DISTINCT doc_id,
                   unnest(regexp_split_to_array(lower(text), '\\s+')) AS term
            FROM documents
        ),
        t AS (SELECT doc_id, term FROM toks WHERE term <> ''),
        df AS (SELECT term, count(*) AS df FROM t GROUP BY term),
        top AS (
            SELECT term, df FROM (
                SELECT *, row_number() OVER (ORDER BY df DESC, term ASC) AS rk
                FROM df
            ) WHERE rk <= 40
        ),
        ft AS (SELECT t.doc_id, t.term FROM t JOIN top ON t.term = top.term),
        pairs AS (
            SELECT a.term AS t1, b.term AS t2, count(*) AS co
            FROM ft a JOIN ft b ON a.doc_id = b.doc_id AND a.term < b.term
            GROUP BY 1, 2
        ),
        n AS (SELECT count(*)::DOUBLE AS n FROM documents)
        SELECT t1, t2, co,
               round(ln(co * n.n / (d1.df * d2.df)), 4) AS pmi
        FROM pairs
        JOIN top d1 ON pairs.t1 = d1.term
        JOIN top d2 ON pairs.t2 = d2.term
        CROSS JOIN n
        WHERE co >= 5
    """,
    "skipgram_cooc": """
        WITH tok0 AS (
            SELECT doc_id,
                   unnest(regexp_split_to_array(lower(text), '\\s+')) AS term,
                   generate_subscripts(
                       regexp_split_to_array(lower(text), '\\s+'), 1) AS pos
            FROM documents
        ),
        tok AS (
            SELECT doc_id, term,
                   row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
            FROM tok0 WHERE term <> ''
        ),
        df AS (
            SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term
        ),
        top AS (
            SELECT term FROM (
                SELECT *, row_number() OVER (ORDER BY df DESC, term ASC) AS rk
                FROM df
            ) WHERE rk <= 40
        )
        SELECT a.term AS t1, b.term AS t2, count(*) AS co
        FROM tok a JOIN tok b
          ON a.doc_id = b.doc_id AND b.rn > a.rn AND b.rn <= a.rn + 3
        WHERE a.term IN (SELECT term FROM top)
          AND b.term IN (SELECT term FROM top)
        GROUP BY 1, 2 HAVING count(*) >= 5
    """,
    "lang_len_quantiles": """
        SELECT lang, count(*) AS n_docs,
               quantile_cont(n_chars, 0.25) AS p25,
               quantile_cont(n_chars, 0.5)  AS p50,
               quantile_cont(n_chars, 0.75) AS p75
        FROM documents GROUP BY lang
    """,
    "events_by_type": """
        SELECT event_type, count(*) AS n_events,
               sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS total_value,
               sum(CAST(round(value * 100) AS BIGINT)) / 100.0 / count(*) AS avg_value
        FROM events GROUP BY event_type
    """,
    "events_hourly": """
        SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00') AS hour,
               count(*) AS n_events
        FROM events GROUP BY 1
    """,
    "top_long_docs": """
        SELECT doc_id, n_chars FROM documents
        ORDER BY n_chars DESC, doc_id ASC LIMIT 10
    """,
    "distinct_sources": """
        SELECT DISTINCT lang, source FROM documents
    """,
    "top_docs_per_lang": """
        SELECT doc_id, lang, n_chars FROM (
            SELECT doc_id, lang, n_chars,
                   row_number() OVER (PARTITION BY lang
                       ORDER BY n_chars DESC, doc_id ASC) AS rn
            FROM documents
        ) WHERE rn <= 2
    """,
    "sample_docs": """
        SELECT doc_id, n_chars FROM documents
        WHERE substr(md5(text), 1, 2) < '1a'
    """,
    "filter_project": """
        SELECT doc_id, lang, n_chars FROM documents
        WHERE n_chars > 300 AND lang = 'en'
    """,
    "user_sessions": """
        WITH d AS (
            SELECT user_id, ts,
                   CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts) IS NULL
                          OR ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                             > INTERVAL 30 MINUTE
                        THEN 1 ELSE 0 END AS new_s
            FROM events
        )
        SELECT user_id, sum(new_s)::BIGINT AS n_sessions, count(*) AS n_events
        FROM d GROUP BY user_id
    """,
    "emb_topk_cosine": """
        SELECT e.vec_id,
               round(list_cosine_similarity(e.embedding::DOUBLE[],
                     (SELECT embedding FROM embeddings WHERE vec_id = 0)::DOUBLE[]), 5) AS cos_sim
        FROM embeddings e
        ORDER BY cos_sim DESC, e.vec_id ASC LIMIT 10
    """,
    # Recomputes the int8 quantizer from scratch: scale = max(|x|)
    # (floored at 1e-30), q = floor(x * 127.0 / scale + 0.5) — the
    # SAME deterministic rule and fp64 evaluation order as
    # similarity.quantize_q8, so integer scores match exactly.
    "emb_topk_q8": """
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
    """,
    # Same tokenizer contract as top_terms_per_lang: lowercase
    # whitespace split, empties dropped (moot here — query terms are
    # non-empty).  Scoring = total tf over the term set.
    "text_search": """
        WITH toks AS (
            SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\\s+')) AS term
            FROM documents
        )
        SELECT doc_id, count(*)::BIGINT AS score
        FROM toks WHERE term IN ('join', 'shuffle', 'spark', 'window')
        GROUP BY doc_id
        ORDER BY score DESC, doc_id ASC LIMIT 20
    """,
    # money sums in exact int64 cents on BOTH engines (block-order /
    # group-order invariant), converted back with one IEEE division —
    # no round() anywhere, so hashes are bit-stable across reruns
    "tpch_q1": """
        SELECT l_returnflag, l_linestatus,
               sum(CAST(round(l_quantity) AS BIGINT))::DOUBLE AS sum_qty,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0 AS sum_base_price,
               sum(CAST(round(l_quantity) AS BIGINT))::DOUBLE / count(*) AS avg_qty,
               count(*) AS count_order
        FROM lineitem GROUP BY l_returnflag, l_linestatus
    """,
    "mktsegment_orders": """
        SELECT c_mktsegment, count(*) AS n_orders,
               sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0 AS total_price
        FROM orders JOIN customer ON o_custkey = c_custkey
        GROUP BY c_mktsegment
    """,
    # Classic as-of-join-as-window formulation: union both sides, fill
    # the latest right value forward per key.  Right rows sort BEFORE
    # left rows at equal timestamps (side 0 < 1) => "<=" semantics, and
    # equal (custkey, date) orders pre-reduce to min(o_orderkey) — both
    # exactly the pipeline's tie-break.
    "events_asof_order": """
        WITH r AS (
            SELECT o_custkey AS k, o_orderdate AS t, min(o_orderkey) AS okey
            FROM orders GROUP BY 1, 2
        ),
        m AS (
            SELECT k, t, 0 AS side, okey, NULL::BIGINT AS event_id FROM r
            UNION ALL
            SELECT user_id, ts, 1, NULL, event_id FROM events
        ),
        f AS (
            SELECT *, last_value(okey IGNORE NULLS) OVER (
                       PARTITION BY k ORDER BY t, side
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
                   ) AS fill
            FROM m
        )
        SELECT event_id, k AS user_id, fill AS o_orderkey FROM f WHERE side = 1
    """,
    # revenue as exact int64 units of 10^-4 dollars on both engines:
    # cents x (100 - discount_pct); ranks compare the exact integer
    "top_suppliers_per_nation": """
        SELECT s_nationkey, s_suppkey, rev / 10000.0 AS revenue, rk FROM (
            SELECT s.s_nationkey::BIGINT AS s_nationkey, l.l_suppkey AS s_suppkey,
                   sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS rev,
                   row_number() OVER (
                       PARTITION BY s.s_nationkey
                       ORDER BY sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                                    * (100 - CAST(round(l_discount * 100) AS BIGINT))) DESC,
                                l.l_suppkey ASC
                   ) AS rk
            FROM lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey
            GROUP BY s.s_nationkey, l.l_suppkey
        ) WHERE rk <= 3
    """,
    "quantity_quantiles": """
        SELECT l_returnflag,
               quantile_disc(l_quantity, 0.25) AS p25,
               quantile_disc(l_quantity, 0.5)  AS p50,
               quantile_disc(l_quantity, 0.75) AS p75,
               quantile_disc(l_quantity, 0.9)  AS p90
        FROM lineitem GROUP BY l_returnflag
    """,
    # time_bucket's default origin (2000-01-03 for DuckDB) is a whole
    # multiple of 15 min from the epoch, so it equals the pipeline's
    # epoch-aligned floor.
    "events_sliding_window": """
        SELECT strftime(time_bucket(INTERVAL 15 MINUTE, ts) - k * INTERVAL 15 MINUTE,
                        '%Y-%m-%d %H:%M:%S') AS window_start,
               count(*) AS n_events,
               sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS total_value
        FROM events CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS k)
        GROUP BY 1
    """,
    # Tokenizer parity with textstats._tokens: lowercase whitespace
    # split, empty pieces dropped.
    "top_terms_per_lang": """
        WITH toks AS (
            SELECT lang, unnest(regexp_split_to_array(lower(text), '\\s+')) AS term
            FROM documents
        ),
        c AS (
            SELECT lang, term, count(*) AS n FROM toks WHERE term <> '' GROUP BY 1, 2
        )
        SELECT lang, term, n, rk FROM (
            SELECT *, row_number() OVER (
                       PARTITION BY lang ORDER BY n DESC, term ASC) AS rk
            FROM c
        ) WHERE rk <= 10
    """,
    "pattern_scrub": """
        SELECT doc_id,
               len(regexp_extract_all(text, '[aeiou]{2,}')) AS n_redacted,
               regexp_replace(text, '[aeiou]{2,}', '*', 'g') AS scrubbed
        FROM documents
    """,
    "quantity_band_join": """
        WITH bands(band_id, band_name, lo, hi) AS (VALUES
            (1::BIGINT, 'low',  1.0, 10.0),
            (2::BIGINT, 'mid',  11.0, 25.0),
            (3::BIGINT, 'high', 26.0, 40.0),
            (4::BIGINT, 'peak', 41.0, 50.0))
        SELECT band_id, band_name, count(*) AS n_items,
               round(sum(l_quantity), 2) AS sum_qty
        FROM lineitem JOIN bands ON l_quantity BETWEEN lo AND hi
        GROUP BY 1, 2
    """,
    "emb_label_centroids": """
        SELECT label::BIGINT AS label, dim::BIGINT AS dim,
               round(avg(v::DOUBLE), 6) AS centroid
        FROM (
            SELECT label, unnest(embedding) AS v,
                   generate_subscripts(embedding, 1) AS dim
            FROM embeddings
        ) GROUP BY 1, 2
    """,
    "term_doc_freq": """
        WITH toks AS (
            SELECT DISTINCT doc_id,
                   unnest(regexp_split_to_array(lower(text), '\\s+')) AS term
            FROM documents
        ),
        c AS (
            SELECT term, count(*) AS df FROM toks WHERE term <> '' GROUP BY term
        )
        SELECT term, df, rk FROM (
            SELECT *, row_number() OVER (ORDER BY df DESC, term ASC) AS rk FROM c
        ) WHERE rk <= 20
    """,
    "tfidf_doc_scores": """
        WITH toks AS (
            SELECT doc_id,
                   unnest(regexp_split_to_array(lower(text), '\\s+')) AS term
            FROM documents
        ),
        t AS (SELECT doc_id, term FROM toks WHERE term <> ''),
        df AS (SELECT term, count(DISTINCT doc_id) AS df FROM t GROUP BY term),
        n AS (SELECT count(*)::DOUBLE AS n FROM documents)
        SELECT d.doc_id,
               round(coalesce(sum(ln(n.n / df.df)), 0), 4) AS tfidf
        FROM documents d
        LEFT JOIN t ON d.doc_id = t.doc_id
        LEFT JOIN df ON t.term = df.term
        CROSS JOIN n
        GROUP BY d.doc_id
    """,
    "user_event_diversity": """
        SELECT user_id, count(DISTINCT event_type) AS n_types
        FROM events GROUP BY user_id
    """,
    "nation_order_revenue": """
        SELECT n_name, count(*) AS n_orders,
               sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0 AS revenue
        FROM orders
        JOIN customer ON o_custkey = c_custkey
        JOIN nation ON c_nationkey = n_nationkey
        GROUP BY n_name
    """,
    # closed-form truth for the WAV chain: amplitude/length are
    # md5-derived, a ±A square wave has RMS = peak = A exactly
    "audio_features": """
        SELECT doc_id,
               8000::BIGINT AS sample_rate,
               4000 + ('0x' || substr(md5(doc_id::VARCHAR), 3, 2))::INT * 8 AS n_samples,
               1::BIGINT AS n_channels,
               (('0x' || substr(md5(doc_id::VARCHAR), 1, 2))::INT % 50 + 50)::DOUBLE AS rms,
               (('0x' || substr(md5(doc_id::VARCHAR), 1, 2))::INT % 50 + 50)::BIGINT AS peak
        FROM documents
    """,
    # closed-form truth for the AVI chain: dimensions / frame count /
    # per-frame value ramp are md5-derived; a solid frame of value v
    # has mean exactly v (stride-2 sampling mirrored by the series step)
    "video_frames": """
        WITH p AS (
            SELECT doc_id,
                   16 + (('0x' || substr(md5(doc_id::VARCHAR), 1, 2))::INT % 4) * 8 AS width,
                   16 + (('0x' || substr(md5(doc_id::VARCHAR), 3, 2))::INT % 4) * 8 AS height,
                   4 + ('0x' || substr(md5(doc_id::VARCHAR), 5, 2))::INT % 8 AS n_frames,
                   ('0x' || substr(md5(doc_id::VARCHAR), 7, 2))::INT AS base,
                   1 + ('0x' || substr(md5(doc_id::VARCHAR), 9, 2))::INT % 31 AS step
            FROM documents
        )
        SELECT doc_id,
               unnest(generate_series(0, n_frames - 1, 2))::BIGINT AS frame_idx,
               n_frames::BIGINT AS n_frames,
               width::BIGINT AS width,
               height::BIGINT AS height,
               12.0::DOUBLE AS fps,
               ((base + unnest(generate_series(0, n_frames - 1, 2)) * step) % 256)::DOUBLE AS mean_val
        FROM p
    """,
    "dataset_split": """
        SELECT lang,
               CASE WHEN substr(md5(text), 1, 2) < 'cc' THEN 'train'
                    WHEN substr(md5(text), 1, 2) < 'e6' THEN 'val'
                    ELSE 'test' END AS split,
               count(*) AS n_docs
        FROM documents GROUP BY 1, 2
    """,
    # Gopher-style repetition metrics: DuckDB recomputes the top-unigram
    # and duplicate-bigram fractions from scratch with list kernels
    # (bigrams via a list comprehension over generate_series).
    "repetition_stats": r"""
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
    """,
    "doc_chunks": r"""
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
    """,
    "domain_cap": """
        SELECT doc_id, source FROM (
            SELECT doc_id, source,
                   row_number() OVER (PARTITION BY source
                       ORDER BY md5(text), doc_id) AS rn
            FROM documents
        ) WHERE rn <= 10
    """,
    # greedy first-fit packing recurrence, re-run row-by-row per source
    # with a recursive CTE (rows step in doc_id order; all sources
    # advance in parallel per recursion round)
    "sequence_pack": r"""
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
    """,
    # corpus-trained bigram LM, rebuilt from scratch in SQL: P(w2|w1) =
    # c(w1,w2) / c(w1 as a bigram head); perplexity = exp(mean surprisal)
    "lm_perplexity": r"""
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
    """,
    "global_rank": """
        SELECT doc_id, n_chars,
               row_number() OVER (ORDER BY n_chars DESC, doc_id ASC) AS rank
        FROM documents
    """,
    # exact heavy hitters: terms with global frequency > total/30
    "heavy_hitters": r"""
        WITH toks AS (
            SELECT unnest(regexp_extract_all(lower(text), '\S+')) AS term
            FROM documents
        ), tot AS (SELECT count(*) AS n FROM toks)
        SELECT term, count(*)::BIGINT AS cnt
        FROM toks, tot
        GROUP BY term, n
        HAVING count(*) > n / 30.0
    """,
    # 5-token shingle overlap against the held-out benchmark slice
    "decontaminate": r"""
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
    """,
    # chunk-level exact dedup: 16-token windows, keep first occurrence
    # by (doc_id, chunk_id), docs reassembled from surviving chunks
    "chunk_dedup": r"""
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
    """,
    # adjacent character pairs within lowercase tokens, global top-50
    "bpe_pairs": r"""
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
    """,
    # incremental exact dedup: new batch anti-joined against the
    # snapshot slice's md5 fingerprints.  Null-text rows are kept
    # unconditionally and null snapshot keys ignored — mirrors the
    # engine (dedup.incremental_exact_dedup emits null fingerprints,
    # member_filter's anti-join never drops null-key rows); a bare NOT IN would
    # nullify the whole predicate on a NULL operand.
    "incremental_dedup": """
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
    """,
    # TPC-H Q5 shape: 6-way join with cross-dimension predicate
    "tpch_q5": r"""
        SELECT n_name,
               count(*)::BIGINT AS n_items,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0 AS revenue
        FROM lineitem, orders, customer, supplier, nation, region
        WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
          AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = 'ASIA'
          AND o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate < TIMESTAMP '1997-01-01'
        GROUP BY n_name
    """,
    # TPC-H Q3 shape: segment+date joins, per-order revenue, top-10;
    # revenue in exact int64 10^-4 units, (rev DESC, orderkey) tie-break
    "tpch_q3": """
        SELECT l_orderkey,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0
                   AS revenue,
               min(o_orderdate) AS o_orderdate
        FROM customer, orders, lineitem
        WHERE c_mktsegment = 'BUILDING'
          AND c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND o_orderdate < TIMESTAMP '1996-03-15'
          AND l_shipdate > TIMESTAMP '1996-03-15'
        GROUP BY l_orderkey
        ORDER BY sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT))) DESC,
                 l_orderkey ASC
        LIMIT 10
    """,
    # TPC-H Q6 shape: pure filter + scalar agg, exact 10^-4 units
    "tpch_q6": """
        SELECT coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * CAST(round(l_discount * 100) AS BIGINT)), 0)
                   / 10000.0 AS revenue
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1997-01-01'
          AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
          AND CAST(round(l_quantity) AS BIGINT) < 24
    """,
    # iterative BPE training: 4 chained merge rounds.  Symbol strings
    # use DOUBLE-space separators + single-space padding so replace()
    # reproduces greedy left-to-right non-overlapping merging (every
    # symbol owns one space on each side; consecutive matches stay
    # matchable).  Tie-break (cnt DESC, l ASC, r ASC) mirrors the
    # engine's driver-side winner pick exactly.
    "bpe_train": _BPE_CHAIN
    + """
        SELECT * FROM (
            SELECT 1::BIGINT AS round, l AS left_sym, r AS right_sym, cnt FROM b1
            UNION ALL SELECT 2::BIGINT, l, r, cnt FROM b2
            UNION ALL SELECT 3::BIGINT, l, r, cnt FROM b3
            UNION ALL SELECT 4::BIGINT, l, r, cnt FROM b4
        ) ORDER BY round
    """,
    # the APPLY half: unnest t4's merged symbol strings and count
    "bpe_vocab": _BPE_CHAIN
    + """
        SELECT sym AS symbol, count(*)::BIGINT AS cnt
        FROM (SELECT unnest(str_split(s, '  ')) AS sym FROM t4)
        GROUP BY sym
        ORDER BY cnt DESC, symbol ASC
        LIMIT 30
    """,
    # TPC-H Q4 shape: priority counts over an EXISTS semi-join
    "tpch_q4": """
        SELECT o_orderpriority, count(*)::BIGINT AS order_count
        FROM orders
        WHERE o_orderdate >= TIMESTAMP '1996-07-01'
          AND o_orderdate < TIMESTAMP '1996-10-01'
          AND EXISTS (SELECT 1 FROM lineitem
                      WHERE l_orderkey = o_orderkey
                        AND l_shipdate > o_orderdate)
        GROUP BY o_orderpriority
    """,
    # TPC-H Q10 shape: top-20 customers by returned-item revenue;
    # revenue in exact int64 10^-4 units, (rev DESC, custkey) tie-break
    "tpch_q10": """
        SELECT c_custkey, c_name,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0
                   AS revenue,
               c_acctbal, n_name
        FROM customer, orders, lineitem, nation
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate < TIMESTAMP '1996-04-01'
          AND l_returnflag = 'R' AND c_nationkey = n_nationkey
        GROUP BY c_custkey, c_name, c_acctbal, n_name
        ORDER BY sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT))) DESC,
                 c_custkey ASC
        LIMIT 20
    """,
    # TPC-H Q12 shape: conditional class counts after a fact⋈dim join
    # (order priority stands in for the absent shipmode column)
    "tpch_q12": """
        SELECT l_returnflag,
               sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END)::BIGINT AS high_line_count,
               sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END)::BIGINT AS low_line_count
        FROM lineitem, orders
        WHERE l_orderkey = o_orderkey
          AND l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1997-01-01'
        GROUP BY l_returnflag
    """,
    # TPC-H Q14 shape: promo revenue share, one exact division at the end
    "tpch_q14": """
        SELECT (100.0 * sum(CASE WHEN p_type = 'PROMO'
                       THEN CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100) AS BIGINT))
                       ELSE 0 END))
               / sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT)))
               AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND l_shipdate >= TIMESTAMP '1996-09-01'
          AND l_shipdate < TIMESTAMP '1996-10-01'
    """,
    # TPC-H Q18 shape: large-volume customers (HAVING sum(qty) > 300);
    # quantities exact int64 ×100, sort on exact totalprice cents
    "tpch_q18": """
        SELECT c_name, o_custkey, o_orderkey, o_orderdate, o_totalprice,
               t.qty_c / 100.0 AS sum_qty
        FROM orders
        JOIN (SELECT l_orderkey,
                     sum(CAST(round(l_quantity * 100) AS BIGINT)) AS qty_c
              FROM lineitem GROUP BY l_orderkey
              HAVING sum(CAST(round(l_quantity * 100) AS BIGINT)) > 30000) t
          ON o_orderkey = t.l_orderkey
        JOIN customer ON c_custkey = o_custkey
        ORDER BY CAST(round(o_totalprice * 100) AS BIGINT) DESC, o_orderkey ASC
        LIMIT 100
    """,
    # TPC-H Q19 shape: disjunctive brand/size/quantity predicates
    "tpch_q19": """
        SELECT coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100) AS BIGINT))), 0)
                   / 10000.0 AS revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND ((p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
                AND CAST(round(l_quantity) AS BIGINT) BETWEEN 1 AND 11)
            OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
                AND CAST(round(l_quantity) AS BIGINT) BETWEEN 10 AND 20)
            OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15
                AND CAST(round(l_quantity) AS BIGINT) BETWEEN 20 AND 30))
    """,
    # PDF round trip: expected text rebuilt from source tokens (8-token
    # lines, >3 lines spill to a second page joined by form-feed)
    "pdf_text": r"""
        WITH lim AS (
            SELECT doc_id, tk[1:least(len(tk), 40)] AS tk,
                   least(len(tk), 40) AS nt
            FROM (SELECT doc_id, regexp_extract_all(text, '\S+') AS tk
                  FROM documents)
        ), lines AS (
            SELECT doc_id,
                   [array_to_string(tk[(i*8+1):least(i*8+8, nt)], ' ')
                    FOR i IN generate_series(0, CAST(ceil(nt / 8.0) AS INT) - 1)]
                       AS ls
            FROM lim
        )
        SELECT doc_id,
               array_to_string(ls[1:least(len(ls), 3)], chr(10)) ||
               CASE WHEN len(ls) > 3
                    THEN chr(12) || array_to_string(ls[4:len(ls)], chr(10))
                    ELSE '' END AS text,
               (CASE WHEN len(ls) > 3 THEN 2 ELSE 1 END)::BIGINT AS n_pages
        FROM lines
    """,
    # exact q8 Gram matrix: quantizer identical to emb_topk_q8's
    "emb_gram_q8": """
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
    """,
    # relational anti-join: customers with no 1996 order
    "idle_customers": """
        SELECT c_custkey, c_name, c_mktsegment
        FROM customer
        WHERE NOT EXISTS (
            SELECT 1 FROM orders
            WHERE o_custkey = c_custkey
              AND o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate < TIMESTAMP '1997-01-01'
        )
    """,
    # GROUPING SETS rollup: (lang, source) / (lang) / grand total
    "lang_source_rollup": """
        SELECT lang, source,
               count(*)::BIGINT AS n_docs,
               sum(n_chars)::BIGINT AS total_chars
        FROM documents
        GROUP BY GROUPING SETS ((lang, source), (lang), ())
    """,
    # semi-structured field extraction from the props JSON string
    "event_props_stats": r"""
        SELECT event_type,
               count(*)::BIGINT AS n_events,
               sum(regexp_extract(props, '"k": (\d+)', 1)::BIGINT)::BIGINT
                   AS sum_k,
               max(regexp_extract(props, '"k": (\d+)', 1)::BIGINT)::BIGINT
                   AS max_k
        FROM events
        GROUP BY event_type
    """,
    # Markov transition counts: lag window partitioned by user
    "event_transitions": """
        WITH seq AS (
            SELECT user_id, event_type,
                   lag(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                   ) AS prev_type
            FROM events
        )
        SELECT prev_type AS from_type, event_type AS to_type,
               count(*)::BIGINT AS n_transitions
        FROM seq WHERE prev_type IS NOT NULL
        GROUP BY prev_type, event_type
    """,
    # stratified deterministic sample: 5 smallest md5(text) per lang
    "stratified_sample": """
        SELECT lang, doc_id, fp FROM (
            SELECT lang, doc_id, md5(text) AS fp,
                   row_number() OVER (
                       PARTITION BY lang ORDER BY md5(text), doc_id
                   ) AS rk
            FROM documents
        ) WHERE rk <= 5
    """,
    # TPC-H Q7 shape: two-nation volume shipping by ship year
    "tpch_q7": """
        SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
               year(l_shipdate) AS l_year,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0
                   AS revenue
        FROM supplier, lineitem, orders, customer, nation n1, nation n2
        WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
          AND c_custkey = o_custkey
          AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
          AND ((n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2')
            OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1'))
          AND l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1998-01-01'
        GROUP BY supp_nation, cust_nation, l_year
    """,
    # TPC-H Q8 shape: NATION_3's share of ASIA-customer PROMO volume
    "tpch_q8": """
        SELECT o_year,
               sum(CASE WHEN nat = 'NATION_3' THEN vol ELSE 0 END) / sum(vol)
                   AS mkt_share
        FROM (SELECT year(o_orderdate) AS o_year,
                     CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS vol,
                     n2.n_name AS nat
              FROM part, supplier, lineitem, orders, customer,
                   nation n1, nation n2, region
              WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
                AND l_orderkey = o_orderkey AND o_custkey = c_custkey
                AND c_nationkey = n1.n_nationkey
                AND n1.n_regionkey = r_regionkey AND r_name = 'ASIA'
                AND s_nationkey = n2.n_nationkey
                AND o_orderdate >= TIMESTAMP '1996-01-01'
                AND o_orderdate < TIMESTAMP '1998-01-01'
                AND p_type = 'PROMO')
        GROUP BY o_year
        ORDER BY o_year
    """,
    # TPC-H Q2 shape: argmin-per-part min-cost EUROPE supplier with a
    # deterministic (price, suppkey) tie-break, mirrored as row_number()
    "tpch_q2": """
        SELECT t.p_partkey, t.s_suppkey, t.price_c / 100.0 AS min_price,
               sup.s_name
        FROM (SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c,
                     row_number() OVER (
                         PARTITION BY l_partkey
                         ORDER BY CAST(round(l_extendedprice * 100) AS BIGINT),
                                  l_suppkey) AS rn
              FROM lineitem, part, supplier, nation, region
              WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
                AND p_size = 15
                AND s_nationkey = n_nationkey
                AND n_regionkey = r_regionkey AND r_name = 'EUROPE') t
        JOIN supplier sup ON sup.s_suppkey = t.s_suppkey
        WHERE t.rn = 1
    """,
    # TPC-H Q9 shape: product-type profit by supplier nation and order
    # year; profit = discounted revenue - retailprice*qty, exact 10^-4
    "tpch_q9": """
        SELECT n_name AS nation,
               year(o_orderdate)::BIGINT AS o_year,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))
                   - CAST(round(p_retailprice * 100) AS BIGINT)
                     * CAST(round(l_quantity * 100) AS BIGINT)) / 10000.0
                   AS sum_profit
        FROM part, supplier, lineitem, orders, nation
        WHERE s_suppkey = l_suppkey AND p_partkey = l_partkey
          AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
          AND p_name LIKE '%red%'
        GROUP BY n_name, year(o_orderdate)
    """,
    # TPC-H Q15 shape: top supplier(s) by 1996-Q1 revenue, ties kept
    # via an exact integer = (SELECT max(...)) selection
    "tpch_q15": """
        WITH revenue AS (
            SELECT l_suppkey AS s_suppkey,
                   sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                       AS total_c
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1996-04-01'
            GROUP BY l_suppkey)
        SELECT r.s_suppkey, s.s_name, r.total_c / 10000.0 AS total_revenue
        FROM revenue r JOIN supplier s ON s.s_suppkey = r.s_suppkey
        WHERE r.total_c = (SELECT max(total_c) FROM revenue)
    """,
    # TPC-H Q11 shape: per-part value with an exact integer
    # fraction-of-global-total filter (value*1000 > total)
    "tpch_q11": """
        WITH v AS (
            SELECT l_partkey AS p_partkey,
                   sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                       * CAST(round(l_quantity * 100) AS BIGINT)) AS value_u
            FROM lineitem, supplier, nation
            WHERE s_suppkey = l_suppkey AND s_nationkey = n_nationkey
              AND n_name = 'NATION_3'
            GROUP BY l_partkey)
        SELECT p_partkey, value_u / 10000.0 AS part_value
        FROM v
        WHERE value_u * 1000 > (SELECT sum(value_u) FROM v)
    """,
    # TPC-H Q16 shape: COUNT(DISTINCT supplier) per (brand, size) with
    # a NOT-IN supplier exclusion (negative balance stands in for the
    # complaints subquery)
    "tpch_q16": """
        SELECT p_brand, p_size::BIGINT AS p_size,
               count(DISTINCT l_suppkey)::BIGINT AS supplier_cnt
        FROM lineitem, part
        WHERE p_partkey = l_partkey AND p_brand <> 'Brand#12'
          AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                                WHERE s_acctbal < 0)
        GROUP BY p_brand, p_size
    """,
    # TPC-H Q13 shape: LEFT OUTER join + distribution of per-customer
    # order counts (zero-order customers appear with c_count = 0)
    "tpch_q13": """
        SELECT c_count, count(*)::BIGINT AS custdist
        FROM (SELECT c_custkey, count(o_orderkey)::BIGINT AS c_count
              FROM customer LEFT OUTER JOIN orders
                ON c_custkey = o_custkey
               AND o_orderpriority = '1-URGENT'
              GROUP BY c_custkey) t
        GROUP BY c_count
    """,
    # TPC-H Q17 shape: correlated per-part AVG subquery, exact integer
    # predicate 5*qty*cnt < sum_qty (== qty < 0.2*avg, no float)
    "tpch_q17": """
        SELECT coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)), 0)
                   / 700.0 AS avg_yearly
        FROM lineitem
        JOIN part ON p_partkey = l_partkey
        JOIN (SELECT l_partkey AS pk,
                     sum(CAST(round(l_quantity * 100) AS BIGINT)) AS s,
                     count(*)::BIGINT AS c
              FROM lineitem JOIN part ON p_partkey = l_partkey
              WHERE p_brand = 'Brand#23' AND p_size <= 7
              GROUP BY l_partkey) t ON t.pk = l_partkey
        WHERE p_brand = 'Brand#23' AND p_size <= 7
          AND 5 * CAST(round(l_quantity * 100) AS BIGINT) * t.c < t.s
    """,
    # TPC-H Q22 shape: scalar-subquery threshold (exact integer compare
    # bal*cnt > sum) + NOT EXISTS anti-join + nation-bounded rollup
    # q20 adapted: availqty is a deterministic pair-key function (no
    # partsupp table in the testdata); the correlated compare is exact
    # integer arithmetic on both sides
    "tpch_q20": """
        WITH qty AS (
            SELECT l_partkey, l_suppkey,
                   sum(CAST(round(l_quantity) AS BIGINT)) AS q
            FROM lineitem
            WHERE l_partkey IN (SELECT p_partkey FROM part
                                WHERE p_name LIKE 'red%')
              AND l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate <  TIMESTAMP '1997-01-01'
            GROUP BY 1, 2
        ), qual AS (
            SELECT DISTINCT l_suppkey FROM qty
            WHERE 2 * (((l_partkey * 7 + l_suppkey * 11) % 991) + 10) > q
        )
        SELECT s_suppkey::BIGINT AS s_suppkey, s_name
        FROM qual
        JOIN supplier ON l_suppkey = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        WHERE r_name = 'EUROPE'
        ORDER BY s_name
    """,
    # q21 adapted: "late" = shipped more than 60 days after the order
    # date (no commit/receipt dates in the testdata); the double
    # correlated EXISTS/NOT-EXISTS collapses to per-order aggregates
    "tpch_q21": """
        WITH f AS (SELECT o_orderkey, o_orderdate FROM orders
                   WHERE o_orderstatus = 'F'),
        li AS (
            SELECT l_orderkey, l_suppkey,
                   max(CASE WHEN l_shipdate > o_orderdate + INTERVAL 60 DAY
                            THEN 1 ELSE 0 END) AS late
            FROM lineitem JOIN f ON l_orderkey = o_orderkey
            GROUP BY 1, 2
        ), agg AS (
            SELECT l_orderkey, count(*) AS n_supp, sum(late) AS n_late,
                   min(CASE WHEN late = 1 THEN l_suppkey END) AS blamed
            FROM li GROUP BY 1
        )
        SELECT s_name, count(*)::BIGINT AS numwait
        FROM agg
        JOIN supplier ON blamed = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        WHERE n_supp >= 2 AND n_late = 1 AND r_name = 'ASIA'
        GROUP BY s_name
        ORDER BY numwait DESC, s_name
        LIMIT 10
    """,
    "tpch_q22": """
        SELECT c_nationkey::BIGINT AS cntrycode, count(*)::BIGINT AS numcust,
               sum(CAST(round(c_acctbal * 100) AS BIGINT)) / 100.0
                   AS totacctbal
        FROM customer c
        WHERE c_nationkey IN (1, 3, 5, 7, 9, 11, 13)
          AND CAST(round(c_acctbal * 100) AS BIGINT)
              * (SELECT count(*) FROM customer
                 WHERE c_nationkey IN (1, 3, 5, 7, 9, 11, 13)
                   AND CAST(round(c_acctbal * 100) AS BIGINT) > 0)
              > (SELECT sum(CAST(round(c_acctbal * 100) AS BIGINT))
                 FROM customer
                 WHERE c_nationkey IN (1, 3, 5, 7, 9, 11, 13)
                   AND CAST(round(c_acctbal * 100) AS BIGINT) > 0)
          AND NOT EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey
                            AND o.o_orderdate >= TIMESTAMP '2000-01-01')
        GROUP BY c_nationkey
    """,
    # per-customer running revenue: window cumsum over exact cents
    "running_revenue": """
        SELECT o_custkey, o_orderkey,
               sum(CAST(round(o_totalprice * 100) AS BIGINT))
                   OVER (PARTITION BY o_custkey
                         ORDER BY o_orderdate, o_orderkey) / 100.0
                   AS running_total
        FROM orders
    """,
    # staged view -> click -> purchase funnel with strict event-time
    # ordering; each stage anchors at the min qualifying timestamp
    # range-window parity: RANGE 1h PRECEDING includes the boundary row
    # and all CURRENT-ROW ts peers — mirrored by the engine's
    # searchsorted(left at ts-1h, right at ts) bounds
    "events_sliding_1h": """
        SELECT event_id, event_type,
               (COUNT(*) OVER (PARTITION BY event_type ORDER BY ts
                    RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                          AND CURRENT ROW))::BIGINT AS n_prev_hour
        FROM events
    """,
    "events_sliding_sum_1h": """
        SELECT event_id, event_type,
               (SUM(CAST(round(value * 100) AS BIGINT)) OVER (
                    PARTITION BY event_type ORDER BY ts
                    RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                          AND CURRENT ROW)) / 100.0 AS sum_value
        FROM events
    """,
    # bounded-lookback as-of: LATERAL max(view.ts) within the window;
    # unmatched clicks -> (0, -1) integer sentinels on both engines
    "click_attribution": """
        SELECT c.event_id,
               (CASE WHEN v.ts IS NULL THEN 0 ELSE 1 END)::BIGINT AS attributed,
               coalesce(epoch_us(c.ts) - epoch_us(v.ts), -1)::BIGINT AS gap_us
        FROM events c
        LEFT JOIN LATERAL (
            SELECT max(ts) AS ts FROM events v
            WHERE v.user_id = c.user_id AND v.event_type = 'view'
              AND v.ts <= c.ts AND v.ts >= c.ts - INTERVAL 30 MINUTE
        ) v ON true
        WHERE c.event_type = 'click'
    """,
    "event_funnel": """
        WITH v AS (
            SELECT user_id, min(ts) AS t1 FROM events
            WHERE event_type = 'view' GROUP BY user_id
        ), c AS (
            SELECT e.user_id, min(e.ts) AS t2
            FROM events e JOIN v ON e.user_id = v.user_id AND e.ts > v.t1
            WHERE e.event_type = 'click' GROUP BY e.user_id
        ), p AS (
            SELECT e.user_id, min(e.ts) AS t3
            FROM events e JOIN c ON e.user_id = c.user_id AND e.ts > c.t2
            WHERE e.event_type = 'purchase' GROUP BY e.user_id
        )
        SELECT (SELECT count(*) FROM v) AS n_view,
               (SELECT count(*) FROM c) AS n_view_click,
               (SELECT count(*) FROM p) AS n_full_funnel
    """,
    # weekly cohort retention; weeks are epoch-weeks (floor of epoch
    # seconds / 604800) so both engines share the integer week id
    "cohort_retention": """
        WITH w AS (
            SELECT user_id,
                   CAST(floor(epoch(ts) / 604800) AS BIGINT) AS week
            FROM events
        ), coh AS (
            SELECT user_id, min(week) AS cohort_week FROM w GROUP BY user_id
        ), act AS (
            SELECT DISTINCT user_id, week FROM w
        )
        SELECT coh.cohort_week,
               act.week - coh.cohort_week AS week_offset,
               count(*)::BIGINT AS n_active
        FROM act JOIN coh ON act.user_id = coh.user_id
        GROUP BY 1, 2
        ORDER BY 1, 2
    """,
    # per-lang z-score of n_chars; mean/var from exact integer moments
    # with the same naive-formula IEEE order as the Ray side
    "quality_zscore": r"""
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
    """,
    # 4 PageRank power-iteration rounds replayed as chained CTEs over
    # the same arithmetic link graph (outdeg = 1 + src % 3, dst =
    # (src*2654435761 + k*40503) % n for k <= outdeg); ALL integer
    # fixed-point — `//` truncation and 85*//100 damping match the Ray
    # side's numpy int64 ops exactly, so the single final /1e9
    # division is bit-identical
    "pagerank": (
        """
        WITH nn AS (SELECT count(*) AS c FROM documents),
        e AS (
            SELECT doc_id AS src, 1 + doc_id % 3 AS outdeg,
                   (doc_id * 2654435761 + k * 40503) % (SELECT c FROM nn) AS dst
            FROM documents CROSS JOIN (SELECT unnest([1, 2, 3]) AS k)
            WHERE k <= 1 + doc_id % 3
        ),
        r0 AS (SELECT doc_id, 1000000000::BIGINT AS r FROM documents),"""
        + ",".join(
            f"""
        r{i} AS (
            SELECT d.doc_id,
                   CAST(150000000 + 85 * coalesce(s.inc, 0) // 100 AS BIGINT) AS r
            FROM documents d LEFT JOIN (
                SELECT e.dst AS doc_id, sum(r{i - 1}.r // e.outdeg) AS inc
                FROM e JOIN r{i - 1} ON e.src = r{i - 1}.doc_id GROUP BY e.dst
            ) s USING (doc_id)
        )"""
            for i in range(1, 5)
        )
        + """
        SELECT doc_id, r / 1000000000.0 AS rank FROM r4
    """
    ),
    # triangle counting as the declarative 3-way self-join over the
    # same canonical (lo < hi) distinct edge set the pipeline derives;
    # corner fan-out + groupby mirrors the per-corner partial counts
    "graph_triangles": """
        WITH nn AS (SELECT count(*) AS c FROM documents),
        e0 AS (
            SELECT doc_id AS src,
                   (doc_id * 2654435761 + k * 40503) % (SELECT c FROM nn) AS dst
            FROM documents CROSS JOIN (SELECT unnest([1, 2, 3]) AS k)
            WHERE k <= 1 + doc_id % 3
        ),
        e AS (
            SELECT DISTINCT least(src, dst) AS lo, greatest(src, dst) AS hi
            FROM e0 WHERE src <> dst
        ),
        tri AS (
            SELECT e1.lo AS a, e1.hi AS b, e2.hi AS c
            FROM e e1 JOIN e e2 ON e1.lo = e2.lo AND e1.hi < e2.hi
            JOIN e e3 ON e3.lo = e1.hi AND e3.hi = e2.hi
        ),
        corners AS (
            SELECT a AS v FROM tri
            UNION ALL SELECT b FROM tri
            UNION ALL SELECT c FROM tri
        )
        SELECT v AS doc_id, count(*)::BIGINT AS n_triangles
        FROM corners GROUP BY v
    """,
    # the label-propagation fixpoint computed declaratively: recursive
    # reachability over the same hub+bridge edge set, then min
    # reachable id per node — DuckDB's UNION-dedup recursion IS the
    # fixpoint the engine's monotone-sum loop detects
    "graph_components": """
        WITH RECURSIVE nn AS (SELECT count(*) AS c FROM documents),
        e0 AS (
            SELECT doc_id AS src, doc_id - doc_id % 7 AS dst
            FROM documents WHERE doc_id % 7 <> 0
            UNION ALL
            SELECT doc_id, doc_id + 7 FROM documents
            WHERE doc_id % 7 = 0
              AND substr(md5(CAST(doc_id // 7 AS VARCHAR)), 1, 1)
                  IN ('0','1','2','3','4','5')
              AND doc_id + 7 < (SELECT c FROM nn)
        ),
        e AS (SELECT src, dst FROM e0 UNION SELECT dst, src FROM e0),
        reach AS (
            SELECT doc_id AS v, doc_id AS u FROM documents
            UNION
            SELECT r.v, e.dst FROM reach r JOIN e ON r.u = e.src
        )
        SELECT v AS doc_id, min(u)::BIGINT AS component
        FROM reach GROUP BY v
    """,
    # lag over the aggregate, cents-exact, one /100.0 at the end;
    # month key as the same YYYY-MM string
    "monthly_revenue_delta": """
        WITH m AS (
            SELECT strftime(date_trunc('month', o_orderdate), '%Y-%m') AS month,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
            FROM orders GROUP BY 1
        )
        SELECT month,
               cents / 100.0 AS revenue,
               (cents - lag(cents) OVER (ORDER BY month)) / 100.0 AS delta
        FROM m
    """,
    # same tokenizer contract as doc_quality (lowercase \S+ split,
    # empties dropped; punct on RAW text), every rule as the identical
    # integer comparison; sum of token lengths = length of the
    # separator-free concat
    "gopher_filter": r"""
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
    """,
    # the global token stream rebuilt declaratively: per-doc ordinality
    # via the struct-comprehension unnest (chunk_dedup's pattern), one
    # row_number() over (doc_id, position), fixed 32-token windows
    "token_stream_pack": r"""
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
    """,
    # declarative pivot over the same fixed lang vocabulary
    "source_lang_pivot": """
        SELECT source,
               sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END)::BIGINT AS n_de,
               sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT AS n_en,
               sum(CASE WHEN lang = 'es' THEN 1 ELSE 0 END)::BIGINT AS n_es,
               sum(CASE WHEN lang = 'fr' THEN 1 ELSE 0 END)::BIGINT AS n_fr,
               sum(CASE WHEN lang = 'zh' THEN 1 ELSE 0 END)::BIGINT AS n_zh
        FROM documents GROUP BY source
    """,
    # lag() window replayed with the identical (ts, event_id) total
    # order; gaps as exact integer microseconds
    "event_interarrival": """
        WITH w AS (
            SELECT event_id, user_id, epoch_us(ts) AS t,
                   lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                   ) AS prev_t
            FROM events
        )
        SELECT event_id, user_id, (t - prev_t)::BIGINT AS gap_us
        FROM w WHERE prev_t IS NOT NULL
    """,
    # the same exact-integer moments, the same float expression shape
    # (one int->double conversion per operand, one division) — both
    # engines feed identical doubles into identical IEEE ops
    "lang_regression": f"""
        WITH m AS (
            SELECT lang,
                   count(*)::BIGINT AS c,
                   sum(n_chars)::BIGINT AS sx,
                   sum(y)::BIGINT AS sy,
                   sum(n_chars * n_chars)::BIGINT AS sxx,
                   sum(n_chars * y)::BIGINT AS sxy
            FROM (
                SELECT lang, n_chars,
                       len(regexp_extract_all(text, '{_TOK}'))::BIGINT AS y
                FROM documents
            ) GROUP BY lang
        )
        SELECT lang, c AS n_docs,
               (c*sxy - sx*sy)::DOUBLE / (c*sxx - sx*sx)::DOUBLE AS slope,
               (sy::DOUBLE - ((c*sxy - sx*sy)::DOUBLE / (c*sxx - sx*sx)::DOUBLE)
                             * sx::DOUBLE) / c::DOUBLE AS intercept
        FROM m
    """,
    # full-outer snapshot reconciliation, declaratively: derive the new
    # snapshot with the same % rules, group the tagged union, classify
    "snapshot_diff": """
        WITH newsnap AS (
            SELECT doc_id,
                   CASE WHEN doc_id % 5 = 0 THEN n_chars + 7 ELSE n_chars END AS n_chars
            FROM documents WHERE doc_id % 11 <> 0
            UNION ALL
            SELECT doc_id + 1000000, n_chars FROM documents WHERE doc_id % 13 = 0
        ),
        u AS (
            SELECT doc_id, 0 AS side, -n_chars AS d FROM documents
            UNION ALL
            SELECT doc_id, 1, n_chars FROM newsnap
        ),
        g AS (
            SELECT doc_id, count(*) AS cnt, sum(side) AS s, sum(d) AS d
            FROM u GROUP BY doc_id
        )
        SELECT doc_id,
               CASE WHEN cnt = 1 AND s = 0 THEN 'removed'
                    WHEN cnt = 1 AND s = 1 THEN 'added'
                    ELSE 'changed' END AS status
        FROM g WHERE cnt = 1 OR d <> 0
    """,
    # SymSpell result replayed declaratively: same tokenizer contract
    # (lowercase whitespace split, empties dropped), same md5-routed
    # first-char corruption, then an exact levenshtein(a,b)=1 self-join
    # over the (tiny) vocabulary with the 4x frequency rule
    "ocr_spell_candidates": r"""
        WITH toks0 AS (
            SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\s+')) AS t
            FROM documents
        ),
        toks AS (
            SELECT CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) IN ('0','1')
                             AND length(t) >= 4
                        THEN 'x' || substr(t, 2) ELSE t END AS t
            FROM toks0 WHERE t <> ''
        ),
        vocab AS (SELECT t, count(*)::BIGINT AS cnt FROM toks GROUP BY t)
        SELECT a.t AS term, b.t AS suggestion,
               a.cnt AS term_cnt, b.cnt AS suggestion_cnt
        FROM vocab a JOIN vocab b
          ON levenshtein(a.t, b.t) = 1 AND b.cnt >= 4 * a.cnt
    """,
    # DuckDB's ntile: first n%k tiles get one extra row; ties broken
    # by c_custkey so the assignment is total-order deterministic
    "customer_ntile": """
        SELECT c_custkey, c_nationkey::BIGINT AS c_nationkey,
               ntile(4) OVER (
                   PARTITION BY c_nationkey
                   ORDER BY c_acctbal DESC, c_custkey ASC
               ) AS tile
        FROM customer
    """,
}

# Independent-engine oracles for the hash-sketch / similarity / text
# operators: DuckDB recomputes the full chain (FNV token hashes, MinHash
# perms, LSH bands, SimHash bits, cosine EXISTS) from scratch — see
# pipelines/oracles.py for the bit-exactness notes.
from . import oracles as _orc  # noqa: E402
from .mixing import sql_mixture_sample as _sql_mix  # noqa: E402

# Extraction-family oracles against the fixture golden tables (written
# at generation time: golden_spans/golden_boxes are CLOSED-FORM truth —
# fixtures.py computes rects/text/orientation from the raster grid, not
# by running the recognizer; golden_pages adds hOCR rendered from those
# golden items, serial projection-layout counts, and exact integer
# feature sums).  The driver's correctness gate runs at sf=0.01, so the
# paths pin that corpus; __ray_entry__.oracle_sql() generates it inline
# (no Ray needed at 500 docs) before returning.
_G01 = os.path.join(FIXTURE_ROOT, "sf0.01")

ORACLE_SQL.update(
    {
        "extract_flagship": f"""
            WITH s AS (
                SELECT doc_id, unnest(spans) AS sp
                FROM read_parquet('{_G01}/golden_spans/*.parquet')
            )
            SELECT doc_id,
                   md5(string_agg(sp['kind'] || chr(31) || sp['text'] || chr(31) || sp['media_ref'] || chr(30),
                                  '' ORDER BY sp['offset'])) AS seq_hash,
                   count(*)::INTEGER AS n_spans
            FROM s GROUP BY doc_id
        """,
        "extract_validate": f"""
            SELECT (SELECT count(*) FROM read_parquet('{_G01}/golden_spans/*.parquet'))::BIGINT AS docs_ok,
                   0::BIGINT AS docs_mismatched,
                   0::BIGINT AS docs_missing
        """,
        # dead-letter accounting in closed form: the poisoned refs are
        # exactly those whose md5 hex starts with '0' (the same routing
        # hash the Ray side uses to corrupt the media copy); a poisoned
        # doc quarantines WHOLE, so n_spans is the doc's full span count
        "extract_quarantine": f"""
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
        """,
        "ocr_text": f"""
            SELECT media_ref, text, n_words
            FROM read_parquet('{_G01}/golden_boxes/*.parquet')
        """,
        "ocr_boxes": f"""
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
        """,
        "orientation_detect": f"""
            SELECT media_ref,
                   orientation['rotation'] AS rotation,
                   round(orientation['confidence']::DOUBLE, 4) AS confidence
            FROM read_parquet('{_G01}/golden_boxes/*.parquet')
        """,
        "layout_boxes": f"""
            SELECT media_ref, n_word_boxes, n_line_boxes
            FROM read_parquet('{_G01}/golden_pages/*.parquet')
        """,
        "hocr_render": f"""
            SELECT media_ref, hocr, hocr_md5
            FROM read_parquet('{_G01}/golden_pages/*.parquet')
        """,
        "boilerplate_strip": f"""
            WITH s AS (
                SELECT doc_id, unnest(spans) AS sp
                FROM read_parquet('{_G01}/golden_spans/*.parquet')
            )
            SELECT doc_id, sp['offset'] AS "offset", sp['text'] AS text
            FROM s WHERE sp['kind'] = 'text'
        """,
        "media_decode": f"""
            SELECT media_ref, 32::INTEGER AS width, 32::INTEGER AS height,
                   (1024 * channels)::INTEGER AS thumb_bytes
            FROM read_parquet('{_G01}/media/*.parquet')
        """,
        "media_features": f"""
            SELECT media_ref,
                   mean_sum::DOUBLE / mean_denom AS mean_intensity,
                   n_dark::DOUBLE / n_pix AS ink_density,
                   width::DOUBLE / height AS aspect_ratio
            FROM read_parquet('{_G01}/golden_pages/*.parquet')
        """,
        # Full independent-engine recompute of the 64-bit average-hash
        # from hex-exploded pixel bytes.  The two-level chunked explode
        # (raster row -> 32-pixel segment -> byte) exists because
        # DuckDB's unnest flattening COPIES the carried string per
        # emitted row: exploding straight to pixels drags the whole
        # ~40 KB hex blob through 2.6M rows (~100 GB of memcpy, 80+ s);
        # cutting to a ~1.4 KB row string, then a ~256 B segment, makes
        # the same query ~2 s.  Planting (byte XOR 1 / 255-byte,
        # md5-routed), luma (299/587/114 // 1000), the (coord*8)//extent
        # block grid, the integer cross-multiplied bit rule and the
        # EXISTS-smaller-id-within-hamming-3 keep rule all mirror
        # stages.multimodal.ahash64 + dedup.ahash_image_dedup exactly.
        "phash_dedup": f"""
            WITH base AS (
                SELECT media_ref AS id, width, height, channels::BIGINT AS c,
                       width::BIGINT * height::BIGINT AS npx, hex(pixels) AS hx, 0 AS mode
                FROM read_parquet('{_G01}/media/*.parquet')
            ),
            aug AS (
                SELECT * FROM base
                UNION ALL
                SELECT id || '~v2', width, height, c, npx, hx, 1 FROM base
                WHERE substr(md5(id), 1, 1) IN ('0','1','2','3')
                UNION ALL
                SELECT id || '~neg', width, height, c, npx, hx, 2 FROM base
                WHERE substr(md5(id), 1, 1) IN ('4','5')
            ),
            lvl1 AS (
                SELECT id, npx, width, height, c, mode, r,
                       substr(hx, CAST(r*width*c*2 + 1 AS BIGINT), CAST(width*c*2 AS BIGINT)) AS rowhex
                FROM (SELECT id, npx, width::BIGINT AS width, height::BIGINT AS height, c, mode, hx,
                             unnest(range(height)) AS r FROM aug)
            ),
            lvl2 AS (
                SELECT id, npx, width, height, c, mode, r, k,
                       substr(rowhex, CAST(k*64*c + 1 AS BIGINT), CAST(64*c AS BIGINT)) AS seg
                FROM (SELECT *, unnest(range((width + 31) // 32)) AS k FROM lvl1)
            ),
            px AS (
                SELECT id, npx, width, height, c, mode, r, k*32 + j AS col,
                       CAST('0x' || substr(seg, CAST(j*c*2 + 1 AS BIGINT), 2) AS BIGINT) AS r0,
                       CASE WHEN c >= 3 THEN CAST('0x' || substr(seg, CAST((j*c+1)*2 + 1 AS BIGINT), 2) AS BIGINT) ELSE 0 END AS r1,
                       CASE WHEN c >= 3 THEN CAST('0x' || substr(seg, CAST((j*c+2)*2 + 1 AS BIGINT), 2) AS BIGINT) ELSE 0 END AS r2
                FROM (SELECT *, unnest(range(least(32, width - k*32))) AS j FROM lvl2)
            ),
            lum AS (
                SELECT id, npx, width, height,
                   ((r * 8) // height) * 8 + ((col * 8) // width) AS bidx,
                   CASE WHEN c = 1 THEN b0 ELSE (299*b0 + 587*b1 + 114*b2) // 1000 END AS v
                FROM (
                  SELECT id, npx, width, height, c, r, col,
                    CASE mode WHEN 1 THEN r0 + 1 - 2*(r0 % 2) WHEN 2 THEN 255 - r0 ELSE r0 END AS b0,
                    CASE mode WHEN 1 THEN r1 + 1 - 2*(r1 % 2) WHEN 2 THEN 255 - r1 ELSE r1 END AS b1,
                    CASE mode WHEN 1 THEN r2 + 1 - 2*(r2 % 2) WHEN 2 THEN 255 - r2 ELSE r2 END AS b2
                  FROM px
                )
            ),
            blocks AS (
                SELECT id, bidx, sum(v) AS bsum, count(*) AS bcnt, max(npx) AS npx
                FROM lum GROUP BY 1, 2
            ),
            tot AS (SELECT id, sum(v) AS tsum FROM lum GROUP BY id),
            bit AS (
                SELECT b.id, b.bidx,
                       CASE WHEN b.bsum * b.npx > t.tsum * b.bcnt THEN 1 ELSE 0 END AS bit
                FROM blocks b JOIN tot t USING (id)
            ),
            ham AS (
                SELECT x.id AS hi, sum(CASE WHEN x.bit <> y.bit THEN 1 ELSE 0 END) AS d
                FROM bit x JOIN bit y ON x.bidx = y.bidx AND x.id > y.id
                GROUP BY x.id, y.id
            )
            SELECT a.id AS media_ref, a.width, a.height
            FROM aug a
            WHERE a.id NOT IN (SELECT DISTINCT hi FROM ham WHERE d <= 3)
        """,
    }
)

ORACLE_SQL.update(
    {
        "minhash_dedup": _orc.sql_minhash_dedup(threshold=0.8),
        "minhash_components_dedup": _orc.sql_minhash_components_dedup(threshold=0.8),
        "simhash_dedup": _orc.sql_simhash_dedup(max_hamming=3),
        "ngram_jaccard_dedup": _orc.sql_ngram_jaccard_dedup(threshold=0.8, shingle_n=3),
        "incremental_neardup": _orc.sql_incremental_minhash_dedup(threshold=0.8),
        "dsir_select": _orc.sql_dsir_select(),
        "source_drift": _orc.sql_source_drift(),
        "embedding_neardup": _orc.sql_embedding_neardup(threshold=0.98),
        "knn_self_join": _orc.sql_knn_self_join(k=3),
        "knn_self_join_cells": _orc.sql_knn_self_join(k=3),
        "ivf_topk_cosine": _orc.sql_ivf_topk(k=10),
        "langid": _orc.sql_langid(),
        "rolling_fingerprint": _orc.sql_rolling_fingerprint(),
        "curate": _orc.sql_curate(threshold=0.8),
        "approx_distinct_users": _orc.sql_approx_distinct_users(p=9),
        "text_search_bm25": _orc.sql_text_search_bm25(),
        "mixture_sample": _sql_mix(_MIX_RATES, default_rate=0.25),
        "approx_quantiles": _orc.sql_approx_quantiles(
            qs=(0.25, 0.5, 0.75, 0.95), lo=0.0, hi=120000.0, bins=4096
        ),
        "kmeans_clusters": _orc.sql_kmeans_clusters(k=8, iters=4),
        "semdedup": _orc.sql_semdedup(k=8, iters=4, threshold=0.98),
        "dup_ngram_frac": _orc.sql_dup_ngram_frac(n=5),
        "exact_substring_dedup": _orc.sql_exact_substring_dedup(n=5),
    }
)

ORACLE_SQL.update(
    {
        # logistic classifier: same integer dot product recomputed in
        # SQL (weights inline); DuckDB's BIGINT/DOUBLE division mirrors
        # the engine's single IEEE division of the exact logit
        "classifier_score": r"""
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
        """,
        # Pearson r from the SAME exact integer moments (never corr():
        # its float accumulation is block-order-dependent)
        "corr_matrix": """
            WITH m AS (
                SELECT count(*)::BIGINT AS n,
                       sum(CAST(round(l_quantity) AS BIGINT)) AS s_q,
                       sum(CAST(round(l_discount*100) AS BIGINT)) AS s_d,
                       sum(CAST(round(l_tax*100) AS BIGINT)) AS s_t,
                       sum(CAST(round(l_quantity) AS BIGINT)
                           * CAST(round(l_quantity) AS BIGINT)) AS s_qq,
                       sum(CAST(round(l_discount*100) AS BIGINT)
                           * CAST(round(l_discount*100) AS BIGINT)) AS s_dd,
                       sum(CAST(round(l_tax*100) AS BIGINT)
                           * CAST(round(l_tax*100) AS BIGINT)) AS s_tt,
                       sum(CAST(round(l_quantity) AS BIGINT)
                           * CAST(round(l_discount*100) AS BIGINT)) AS s_qd,
                       sum(CAST(round(l_quantity) AS BIGINT)
                           * CAST(round(l_tax*100) AS BIGINT)) AS s_qt,
                       sum(CAST(round(l_discount*100) AS BIGINT)
                           * CAST(round(l_tax*100) AS BIGINT)) AS s_dt
                FROM lineitem
            )
            SELECT col_x, col_y, corr FROM (
                SELECT 'quantity' AS col_x, 'discount' AS col_y,
                       round((n*s_qd - s_q*s_d)
                             / (sqrt((n*s_qq - s_q*s_q)::DOUBLE)
                                * sqrt((n*s_dd - s_d*s_d)::DOUBLE)), 6) AS corr
                FROM m
                UNION ALL
                SELECT 'quantity', 'tax',
                       round((n*s_qt - s_q*s_t)
                             / (sqrt((n*s_qq - s_q*s_q)::DOUBLE)
                                * sqrt((n*s_tt - s_t*s_t)::DOUBLE)), 6)
                FROM m
                UNION ALL
                SELECT 'discount', 'tax',
                       round((n*s_dt - s_d*s_t)
                             / (sqrt((n*s_dd - s_d*s_d)::DOUBLE)
                                * sqrt((n*s_tt - s_t*s_t)::DOUBLE)), 6)
                FROM m
            )
        """,
        # exact medians via quantile_disc (same ceil(q*n) rank rule as
        # relational.exact_group_quantiles), integer flag rule
        "mad_outliers": """
            WITH med AS (
                SELECT lang, CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS m
                FROM documents GROUP BY lang
            ), dev AS (
                SELECT doc_id, d.lang AS lang, n_chars::BIGINT AS n_chars,
                       abs(n_chars - m)::BIGINT AS dv
                FROM documents d JOIN med ON d.lang = med.lang
            ), mad AS (
                SELECT lang, CAST(quantile_disc(dv, 0.5) AS BIGINT) AS mad
                FROM dev GROUP BY lang
            )
            SELECT doc_id, dev.lang AS lang, n_chars, dv > 3 * mad AS is_outlier
            FROM dev JOIN mad ON dev.lang = mad.lang
        """,
    }
)

ORACLE_SQL.update(
    {
        # temperature mixing: thresholds re-derived in SQL with exact
        # HUGEINT arithmetic (16^13 = 4503599627370496); floor(sqrt)
        # equals isqrt for any count < 2^40
        "temperature_mixture": """
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
        """,
    }
)

ORACLE_SQL.update(
    {
        # windowed log dedup: row_number() over the tumbling hour
        "event_log_dedup": """
            WITH w AS (
                SELECT event_id, user_id, event_type, ts,
                       epoch_us(ts) // 3600000000 AS win
                FROM events
            ), r AS (
                SELECT *, row_number() OVER (
                           PARTITION BY user_id, event_type, win
                           ORDER BY ts, event_id) AS rn
                FROM w
            )
            SELECT event_id::BIGINT AS event_id, user_id, event_type, ts
            FROM r WHERE rn = 1
        """,
    }
)

ORACLE_SQL.update(
    {
        # normalize-then-dedup: same RE2 canonicalization (keep_min_by
        # on md5(norm) == min doc_id per distinct canonical form)
        "normalized_dedup": r"""
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
        """,
    }
)

ORACLE_SQL.update(
    {
        # image similarity search: the phash_dedup hash chain (no
        # planting) + a hamming rank over the md5-routed query subset
        "image_knn": f"""
            WITH base AS (
                SELECT media_ref AS id, width::BIGINT AS width,
                       height::BIGINT AS height, channels::BIGINT AS c,
                       width::BIGINT * height::BIGINT AS npx, hex(pixels) AS hx
                FROM read_parquet('{_G01}/media/*.parquet')
            ),
            lvl1 AS (
                SELECT id, npx, width, height, c, r,
                       substr(hx, CAST(r*width*c*2 + 1 AS BIGINT),
                              CAST(width*c*2 AS BIGINT)) AS rowhex
                FROM (SELECT *, unnest(range(height)) AS r FROM base)
            ),
            lvl2 AS (
                SELECT id, npx, width, height, c, r, k,
                       substr(rowhex, CAST(k*64*c + 1 AS BIGINT),
                              CAST(64*c AS BIGINT)) AS seg
                FROM (SELECT *, unnest(range((width + 31) // 32)) AS k FROM lvl1)
            ),
            px AS (
                SELECT id, npx, width, height, c, r, k*32 + j AS col,
                       CAST('0x' || substr(seg, CAST(j*c*2 + 1 AS BIGINT), 2) AS BIGINT) AS b0,
                       CASE WHEN c >= 3 THEN CAST('0x' || substr(seg, CAST((j*c+1)*2 + 1 AS BIGINT), 2) AS BIGINT) ELSE 0 END AS b1,
                       CASE WHEN c >= 3 THEN CAST('0x' || substr(seg, CAST((j*c+2)*2 + 1 AS BIGINT), 2) AS BIGINT) ELSE 0 END AS b2
                FROM (SELECT *, unnest(range(least(32, width - k*32))) AS j FROM lvl2)
            ),
            lum AS (
                SELECT id, npx,
                       ((r * 8) // height) * 8 + ((col * 8) // width) AS bidx,
                       CASE WHEN c = 1 THEN b0
                            ELSE (299*b0 + 587*b1 + 114*b2) // 1000 END AS v
                FROM px
            ),
            blocks AS (
                SELECT id, bidx, sum(v) AS bsum, count(*) AS bcnt, max(npx) AS npx
                FROM lum GROUP BY 1, 2
            ),
            tot AS (SELECT id, sum(v) AS tsum FROM lum GROUP BY id),
            bit AS (
                SELECT b.id, b.bidx,
                       CASE WHEN b.bsum * b.npx > t.tsum * b.bcnt
                            THEN 1 ELSE 0 END AS bit
                FROM blocks b JOIN tot t USING (id)
            ),
            ham AS (
                SELECT a.id AS query_ref, b.id AS neighbor_ref,
                       sum(CASE WHEN a.bit <> b.bit THEN 1 ELSE 0 END)::BIGINT
                           AS hamming
                FROM bit a JOIN bit b USING (bidx)
                WHERE substr(md5(a.id), 1, 1) IN ('6','7') AND b.id <> a.id
                GROUP BY 1, 2
            ),
            r AS (
                SELECT *, row_number() OVER (
                           PARTITION BY query_ref
                           ORDER BY hamming, neighbor_ref) AS rk
                FROM ham
            )
            SELECT query_ref, neighbor_ref, hamming, rk::BIGINT AS rk
            FROM r WHERE rk <= 3
        """,
    }
)

ORACLE_SQL.update(
    {
        # curation capstone v2: the full classifier -> normalized-dedup
        # -> temperature-mixture chain replayed in SQL (each block is
        # the proven oracle of its standalone operator)
        "curate_v2": r"""
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
        """,
    }
)

ORACLE_SQL.update(
    {
        # dedup observability: duplicate-cluster size histogram
        "dedup_cluster_sizes": """
            WITH c AS (
                SELECT substr(coalesce(text, ''), 1, 24) AS pfx,
                       count(*)::BIGINT AS cluster_size
                FROM documents GROUP BY 1
            )
            SELECT cluster_size, count(*)::BIGINT AS n_clusters
            FROM c GROUP BY cluster_size
        """,
    }
)

ORACLE_SQL.update(
    {
        # per-group CDF normalization: SQL percent_rank, same
        # (rank-1)/(n-1) division from exact ints, rounded 6 dp
        "lang_percent_rank": """
            SELECT doc_id, lang, n_chars::BIGINT AS n_chars,
                   round(percent_rank() OVER (PARTITION BY lang
                                              ORDER BY n_chars), 6) AS pr
            FROM documents
        """,
    }
)

ORACLE_SQL.update(
    {
        # Count-Min Sketch: identical sketch rebuilt in SQL (FNV-1a
        # token hashes as in oracles._fnv_cte, multiplicative top-9-bit
        # bucketing, min over 4 rows); exact counts alongside
        "cms_term_counts": r"""
            WITH toks AS (
                SELECT doc_id,
                       list_filter(string_split_regex(lower(text), '\s+'),
                                   w -> len(w) > 0) AS w
                FROM documents
            ),
            th AS (
                SELECT doc_id,
                       list_transform(w, t -> list_reduce(
                           list_prepend(14695981039346656037::HUGEINT,
                               list_transform(string_split_regex(t, ''),
                                              c -> unicode(c)::HUGEINT)),
                           (acc, c) -> (xor(acc, c) * 1099511628211::HUGEINT)
                                       % 18446744073709551616::HUGEINT)) AS hs
                FROM toks
            ),
            inst AS (SELECT unnest(hs) AS h FROM th),
            salts(r, s) AS (VALUES
                (0, 2654435769::HUGEINT),
                (1, 2246822507::HUGEINT),
                (2, 3266489909::HUGEINT),
                (3, 668265263::HUGEINT)),
            cms AS (
                SELECT sa.r,
                       ((i.h * sa.s) % 18446744073709551616::HUGEINT)
                           // 36028797018963968::HUGEINT AS bucket,
                       count(*)::BIGINT AS cnt
                FROM inst i CROSS JOIN salts sa GROUP BY 1, 2
            ),
            flatoks AS (SELECT doc_id, unnest(w) AS t FROM toks),
            df AS (
                SELECT t AS term, count(DISTINCT doc_id) AS df
                FROM flatoks GROUP BY 1
            ),
            cand AS (
                SELECT term FROM (
                    SELECT term, row_number() OVER (ORDER BY df DESC, term ASC)
                               AS rk
                    FROM df
                ) WHERE rk <= 20
            ),
            candh AS (
                SELECT term, list_reduce(
                    list_prepend(14695981039346656037::HUGEINT,
                        list_transform(string_split_regex(term, ''),
                                       c -> unicode(c)::HUGEINT)),
                    (acc, c) -> (xor(acc, c) * 1099511628211::HUGEINT)
                                % 18446744073709551616::HUGEINT) AS h
                FROM cand
            ),
            est AS (
                SELECT c.term, min(m.cnt)::BIGINT AS cms_est
                FROM candh c
                CROSS JOIN salts sa
                JOIN cms m ON m.r = sa.r
                          AND m.bucket = ((c.h * sa.s)
                               % 18446744073709551616::HUGEINT)
                               // 36028797018963968::HUGEINT
                GROUP BY c.term
            ),
            exact AS (
                SELECT t AS term, count(*)::BIGINT AS exact_cnt
                FROM flatoks WHERE t IN (SELECT term FROM cand) GROUP BY 1
            )
            SELECT est.term, cms_est, exact_cnt
            FROM est JOIN exact USING (term)
            ORDER BY est.term
        """,
    }
)

ORACLE_SQL.update(
    {
        # trimmed mean: quantile_disc bounds (same ceil-rank rule),
        # exact integer band sum, one division rounded 6 dp
        "lang_trimmed_mean": """
            WITH b AS (
                SELECT lang,
                       CAST(quantile_disc(n_chars, 0.05) AS BIGINT) AS p05,
                       CAST(quantile_disc(n_chars, 0.95) AS BIGINT) AS p95
                FROM documents GROUP BY lang
            ),
            band AS (
                SELECT d.lang AS lang, p05, p95,
                       count(*)::BIGINT AS n_in_band,
                       sum(n_chars::BIGINT)::BIGINT AS s
                FROM documents d JOIN b ON d.lang = b.lang
                WHERE n_chars BETWEEN p05 AND p95
                GROUP BY d.lang, p05, p95
            )
            SELECT lang, p05, p95, n_in_band,
                   round(s / n_in_band, 6) AS trimmed_mean
            FROM band
        """,
    }
)

ORACLE_SQL.update(
    {
        # diversity: exact-rational Gini-Simpson from integer counts
        "source_diversity": """
            WITH c AS (
                SELECT source, lang, count(*)::BIGINT AS c
                FROM documents GROUP BY source, lang
            ),
            agg AS (
                SELECT source, sum(c)::BIGINT AS n,
                       count(*)::BIGINT AS n_langs,
                       sum(c * (c - 1))::BIGINT AS pairs
                FROM c GROUP BY source
            )
            SELECT source, n AS n_docs, n_langs,
                   CASE WHEN n > 1
                        THEN round(1.0 - pairs / (n * (n - 1)), 6)
                        ELSE 0.0 END AS simpson
            FROM agg
        """,
    }
)
