"""Document text statistics and term analytics: token and quality
stats, co-occurrence, per-language aggregates, TF-IDF, sketches and
outlier rules, each beside its DuckDB oracle.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Mean, Sum

from ..functions.arrow_util import single_chunk as _single_chunk_q
from ..functions.fastmd5 import md5_hex
from ..functions.textstats import detect_language, text_quality, token_count
from ..pipelines import oracles as _orc
from ..pipelines.dedup import keep_min_by
from ..pipelines.joins import bucket_map_groups
from ..pipelines.relational import exact_group_quantiles
from . import register
from .common import _docs, _rename, _round, _run_rank


# the top-K document-frequency terms token_pmi and skipgram_cooc pair up
COOC_TOP_K = 40


_TOK = r"\S+"
_BPE = r"[A-Za-z0-9_]+|[^A-Za-z0-9_\s]"


def q_doc_token_stats(sf_dir: str):
    """Token counting (whitespace + BPE-ish regex) per document."""
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: token_count(b).select(["doc_id", "n_tokens", "n_bpe_tokens"]),
        batch_format="pyarrow",
    )


register("doc_token_stats", q_doc_token_stats, oracle=f"""
        SELECT doc_id,
               len(regexp_extract_all(text, '{_TOK}')) AS n_tokens,
               len(regexp_extract_all(text, '{_BPE}')) AS n_bpe_tokens
        FROM documents
    """)


def q_doc_quality(sf_dir: str):
    """Quality-scoring metrics per document (SQL-checkable subset)."""

    def fn(b: pa.Table) -> pa.Table:
        t = text_quality(b).select(
            ["doc_id", "n_tokens", "n_distinct", "n_punct", "distinct_ratio", "mean_token_len"]
        )
        return _round(t, {"distinct_ratio": 6, "mean_token_len": 6})

    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


register("doc_quality", q_doc_quality, oracle=f"""
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
    """)


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


register("lang_stats", q_lang_stats, oracle="""
        SELECT lang, count(*) AS n_docs, sum(n_chars)::BIGINT AS total_chars,
               round(avg(n_chars), 4) AS avg_chars
        FROM documents GROUP BY lang
    """)


def q_token_pmi(sf_dir: str, min_co: int = 5):
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
        .limit(COOC_TOP_K)
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


register("token_pmi", q_token_pmi, oracle=f"""
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
            ) WHERE rk <= {COOC_TOP_K}
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
    """)


def q_skipgram_cooc(sf_dir: str, window: int = 3, min_co: int = 5):
    """Window-based skip-gram co-occurrence counts (word2vec-style
    pair statistics) over the top-``COOC_TOP_K`` document-frequency terms.

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
        .limit(COOC_TOP_K)
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


register("skipgram_cooc", q_skipgram_cooc, oracle=f"""
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
            ) WHERE rk <= {COOC_TOP_K}
        )
        SELECT a.term AS t1, b.term AS t2, count(*) AS co
        FROM tok a JOIN tok b
          ON a.doc_id = b.doc_id AND b.rn > a.rn AND b.rn <= a.rn + 3
        WHERE a.term IN (SELECT term FROM top)
          AND b.term IN (SELECT term FROM top)
        GROUP BY 1, 2 HAVING count(*) >= 5
    """)


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


register("lang_len_quantiles", q_lang_len_quantiles, oracle="""
        SELECT lang, count(*) AS n_docs,
               quantile_cont(n_chars, 0.25) AS p25,
               quantile_cont(n_chars, 0.5)  AS p50,
               quantile_cont(n_chars, 0.75) AS p75
        FROM documents GROUP BY lang
    """)


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


# declarative pivot over the same fixed lang vocabulary
register("source_lang_pivot", q_source_lang_pivot, oracle="""
        SELECT source,
               sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END)::BIGINT AS n_de,
               sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT AS n_en,
               sum(CASE WHEN lang = 'es' THEN 1 ELSE 0 END)::BIGINT AS n_es,
               sum(CASE WHEN lang = 'fr' THEN 1 ELSE 0 END)::BIGINT AS n_fr,
               sum(CASE WHEN lang = 'zh' THEN 1 ELSE 0 END)::BIGINT AS n_zh
        FROM documents GROUP BY source
    """)


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


register("filter_project", q_filter_project, oracle="""
        SELECT doc_id, lang, n_chars FROM documents
        WHERE n_chars > 300 AND lang = 'en'
    """)


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


register("distinct_sources", q_distinct_sources, oracle="""
        SELECT DISTINCT lang, source FROM documents
    """)


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


register("top_docs_per_lang", q_top_docs_per_lang, oracle="""
        SELECT doc_id, lang, n_chars FROM (
            SELECT doc_id, lang, n_chars,
                   row_number() OVER (PARTITION BY lang
                       ORDER BY n_chars DESC, doc_id ASC) AS rn
            FROM documents
        ) WHERE rn <= 2
    """)


def q_top_long_docs(sf_dir: str):
    """Sort + limit: 10 longest documents (doc_id tie-break)."""
    ds = _docs(sf_dir, columns=["doc_id", "n_chars"]).map_batches(
        lambda b: b.select(["doc_id", "n_chars"]), batch_format="pyarrow"
    )
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(10)


register("top_long_docs", q_top_long_docs, oracle="""
        SELECT doc_id, n_chars FROM documents
        ORDER BY n_chars DESC, doc_id ASC LIMIT 10
    """)


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


# Tokenizer parity with textstats._tokens: lowercase whitespace
# split, empty pieces dropped.
register("top_terms_per_lang", q_top_terms_per_lang, oracle="""
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
    """)


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


register("pattern_scrub", q_pattern_scrub, oracle="""
        SELECT doc_id,
               len(regexp_extract_all(text, '[aeiou]{2,}')) AS n_redacted,
               regexp_replace(text, '[aeiou]{2,}', '*', 'g') AS scrubbed
        FROM documents
    """)


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


register("term_doc_freq", q_term_doc_freq, oracle="""
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
    """)


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


register("tfidf_doc_scores", q_tfidf_doc_scores, oracle="""
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
    """)


def q_langid(sf_dir: str):
    return _docs(sf_dir, columns=["doc_id", "text"]).map_batches(
        lambda b: _round(
            detect_language(b).select(["doc_id", "lang_pred", "lang_score"]),
            {"lang_score": 6},
        ),
        batch_format="pyarrow",
    )


register("langid", q_langid, oracle=_orc.sql_langid())


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


# GROUPING SETS rollup: (lang, source) / (lang) / grand total
register("lang_source_rollup", q_lang_source_rollup, oracle="""
        SELECT lang, source,
               count(*)::BIGINT AS n_docs,
               sum(n_chars)::BIGINT AS total_chars
        FROM documents
        GROUP BY GROUPING SETS ((lang, source), (lang), ())
    """)


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


# the same exact-integer moments, the same float expression shape
# (one int->double conversion per operand, one division) — both
# engines feed identical doubles into identical IEEE ops
register("lang_regression", q_lang_regression, oracle=f"""
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
    """)


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


# full-outer snapshot reconciliation, declaratively: derive the new
# snapshot with the same % rules, group the tagged union, classify
register("snapshot_diff", q_snapshot_diff, oracle="""
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
    """)


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


# SymSpell result replayed declaratively: same tokenizer contract
# (lowercase whitespace split, empties dropped), same md5-routed
# first-char corruption, then an exact levenshtein(a,b)=1 self-join
# over the (tiny) vocabulary with the 4x frequency rule
register("ocr_spell_candidates", q_ocr_spell_candidates, oracle=r"""
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
    """)


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


# exact medians via quantile_disc (same ceil(q*n) rank rule as
# relational.exact_group_quantiles), integer flag rule
register("mad_outliers", q_mad_outliers, oracle="""
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
        """)


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


# per-group CDF normalization: SQL percent_rank, same
# (rank-1)/(n-1) division from exact ints, rounded 6 dp
register("lang_percent_rank", q_lang_percent_rank, oracle="""
            SELECT doc_id, lang, n_chars::BIGINT AS n_chars,
                   round(percent_rank() OVER (PARTITION BY lang
                                              ORDER BY n_chars), 6) AS pr
            FROM documents
        """)


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


# Count-Min Sketch: identical sketch rebuilt in SQL (FNV-1a
# token hashes as in oracles._fnv_cte, multiplicative top-9-bit
# bucketing, min over 4 rows); exact counts alongside
register("cms_term_counts", q_cms_term_counts, oracle=r"""
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
        """)


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


# trimmed mean: quantile_disc bounds (same ceil-rank rule),
# exact integer band sum, one division rounded 6 dp
register("lang_trimmed_mean", q_lang_trimmed_mean, oracle="""
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
        """)


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


# diversity: exact-rational Gini-Simpson from integer counts
register("source_diversity", q_source_diversity, oracle="""
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
        """)
