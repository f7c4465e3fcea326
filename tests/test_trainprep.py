"""Training-prep operator tests: bigram LM partials/perplexity,
benchmark decontamination — hand-computed expectations on tiny
corpora."""

import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from tesseract_wasm_ray.functions.textstats import bigram_partials


def test_bigram_partials_counts():
    t = pa.table({"doc_id": [0, 1], "text": ["a b a b", "a c"]})
    out = bigram_partials(t).to_pandas().set_index(["w1", "w2"])["cnt"]
    assert out[("a", "b")] == 2
    assert out[("b", "a")] == 1
    assert out[("a", "c")] == 1
    assert len(out) == 3


def test_bigram_partials_no_cross_row_pairs():
    # last token of row 0 and first of row 1 must not pair
    t = pa.table({"doc_id": [0, 1], "text": ["x y", "y z"]})
    out = bigram_partials(t).to_pandas()
    pairs = set(zip(out.w1, out.w2))
    assert ("y", "y") not in pairs
    assert pairs == {("x", "y"), ("y", "z")}


def _write_docs(tmp_path, rows):
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows)),
            "source": pa.array(["s"] * len(rows)),
            "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    return str(tmp_path)


def test_lm_perplexity_hand_computed(ray_session, tmp_path):
    from tesseract_wasm_ray.catalog.trainprep import q_lm_perplexity

    sf = _write_docs(tmp_path, [(0, "a b a b"), (1, "a c")])
    out = q_lm_perplexity(sf).to_pandas().set_index("doc_id")
    # corpus bigrams: (a,b) x2, (b,a) x1, (a,c) x1; heads: a -> 3, b -> 1
    # doc0: surprisals [-ln(2/3), -ln(1/1), -ln(2/3)]
    exp0 = math.exp((2 * math.log(3 / 2)) / 3)
    # doc1: [-ln(1/3)]
    exp1 = 3.0
    assert out.loc[0, "n_bigrams"] == 3
    assert abs(out.loc[0, "perplexity"] - round(exp0, 4)) < 1e-9
    assert abs(out.loc[1, "perplexity"] - round(exp1, 4)) < 1e-9


def test_decontaminate_planted_overlap(ray_session, tmp_path):
    from tesseract_wasm_ray.catalog.trainprep import q_decontaminate

    shared = "one two three four five"
    rows = [
        (0, f"lead {shared} tail"),        # benchmark doc (0 % 29 == 0)
        (1, f"{shared} something else"),   # shares the 5-gram -> flagged
        (2, "totally different words here with no overlap at all"),
        (3, "one two three foul five gap"),  # 4-gram overlap only -> clean
    ]
    out = (
        q_decontaminate(_write_docs(tmp_path, rows))
        .to_pandas()
        .set_index("doc_id")["contaminated"]
    )
    assert out.loc[0] == 1  # benchmark self-flags
    assert out.loc[1] == 1
    assert out.loc[2] == 0
    assert out.loc[3] == 0


def test_global_rank_matches_duckdb(ray_session, tmp_path):
    import duckdb

    from tesseract_wasm_ray.catalog.trainprep import q_global_rank

    rows = [(i, "x " * ((i * 7) % 13 + 1)) for i in range(60)]  # many ties
    sf = _write_docs(tmp_path, rows)
    got = (
        q_global_rank(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)[["doc_id", "n_chars", "rank"]]
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'"
    )
    exp = (
        con.execute(
            "SELECT doc_id, n_chars, row_number() OVER "
            "(ORDER BY n_chars DESC, doc_id ASC) AS rank FROM documents"
        )
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (got["rank"].to_numpy() == exp["rank"].to_numpy()).all()


def test_heavy_hitters_exact_vs_bruteforce(ray_session, tmp_path):
    from collections import Counter

    from tesseract_wasm_ray.catalog.trainprep import q_heavy_hitters

    # skewed corpus: 'hot' terms dominate, long tail of rare terms
    rows = []
    for i in range(40):
        toks = (["hot"] * 6 + ["warm"] * 3 + [f"rare{i}_{j}" for j in range(4)])
        rows.append((i, " ".join(toks)))
    sf = _write_docs(tmp_path, rows)
    got = q_heavy_hitters(sf, k=10).set_index("term")["cnt"]

    counts = Counter()
    for _, text in rows:
        counts.update(text.lower().split())
    total = sum(counts.values())
    expect = {t: c for t, c in counts.items() if c > total / 10}
    assert dict(got) == expect
    assert "hot" in got.index and "warm" in got.index
    assert not any(t.startswith("rare") for t in got.index)


def test_dup_ngram_frac_hand_computed(ray_session, tmp_path):
    # doc0/doc1 share the 5-gram "a b c d e"; doc2 shares nothing
    sf = _write_docs(
        tmp_path,
        [(0, "a b c d e f"), (1, "a b c d e x"), (2, "p q r s t")],
    )
    from tesseract_wasm_ray.catalog.trainprep import q_dup_ngram_frac

    out = (
        q_dup_ngram_frac(sf).to_pandas().set_index("doc_id").sort_index()
    )
    assert out.loc[0, "n_grams"] == 2 and out.loc[0, "n_dup_grams"] == 1
    assert out.loc[1, "n_grams"] == 2 and out.loc[1, "n_dup_grams"] == 1
    assert out.loc[2, "n_grams"] == 1 and out.loc[2, "n_dup_grams"] == 0
    assert out.loc[0, "dup_frac"] == 0.5 and out.loc[2, "dup_frac"] == 0.0


def test_dup_ngram_frac_counts_distinct_grams_once(ray_session, tmp_path):
    # the shared gram appears TWICE inside doc0 (repeated phrase) but
    # must count once per doc (distinct-grams semantics)
    phrase = "a b c d e"
    sf = _write_docs(
        tmp_path,
        [(0, f"{phrase} {phrase}"), (1, phrase)],
    )
    from tesseract_wasm_ray.catalog.trainprep import q_dup_ngram_frac

    out = q_dup_ngram_frac(sf).to_pandas().set_index("doc_id").sort_index()
    # doc0 tokens: a b c d e a b c d e -> 6 windows but 5 DISTINCT
    # grams ("a b c d e" occurs at offsets 0 and 5 -> counted once)
    assert out.loc[0, "n_grams"] == 5
    assert out.loc[0, "n_dup_grams"] == 1  # only "a b c d e" is shared
    assert out.loc[1, "n_grams"] == 1 and out.loc[1, "n_dup_grams"] == 1


def test_chunk_dedup_keeps_first_and_restitches(ray_session, tmp_path):
    toks = [f"t{i}" for i in range(20)]  # doc0: 2 chunks (16 + 4)
    dup16 = " ".join(toks[:16])  # doc1: exactly doc0's first chunk
    sf = _write_docs(
        tmp_path,
        [(0, " ".join(toks)), (1, dup16), (2, "unique text here")],
    )
    from tesseract_wasm_ray.catalog.dedup import q_chunk_dedup

    out = q_chunk_dedup(sf).to_pandas().set_index("doc_id").sort_index()
    # doc1's only chunk is a duplicate of doc0 chunk 0 -> doc1 vanishes
    assert list(out.index) == [0, 2]
    assert out.loc[0, "n_chunks_kept"] == 2
    assert out.loc[0, "clean_text"] == " ".join(toks)
    assert out.loc[2, "clean_text"] == "unique text here"


def test_bpe_pairs_counts(ray_session, tmp_path):
    sf = _write_docs(tmp_path, [(0, "ab ab b"), (1, "abc")])
    from tesseract_wasm_ray.catalog.trainprep import q_bpe_pairs

    out = q_bpe_pairs(sf).set_index("pair")["cnt"]
    assert out["ab"] == 3  # two "ab" tokens + one inside "abc"
    assert out["bc"] == 1
    assert len(out) == 2


def test_quality_zscore_two_stage_matches_numpy(ray_session, tmp_path):
    rows = [(i, "x" * (10 + 7 * i)) for i in range(6)]
    sf = _write_docs(tmp_path, rows)
    from tesseract_wasm_ray.catalog.trainprep import q_quality_zscore

    out = q_quality_zscore(sf).to_pandas().set_index("doc_id").sort_index()
    nc = np.array([len(t) for _, t in rows], dtype=np.float64)
    s1, s2, c = int(nc.sum()), int((nc * nc).sum()), len(nc)
    mean = s1 / c
    sd = math.sqrt(s2 / c - mean * mean)
    want = np.round((nc - mean) / sd, 6)
    assert np.array_equal(out["zscore"].to_numpy(), want)


def test_tpch_q5_matches_duckdb(ray_session):
    import duckdb

    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    got = (
        e.queries()["tpch_q5"](sf)
        .sort_values("n_name", ignore_index=True)
    )
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "supplier", "nation", "region"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    want = con.sql(e.oracle_sql()["tpch_q5"]).df().sort_values(
        "n_name", ignore_index=True
    )
    assert got["n_name"].tolist() == want["n_name"].tolist()
    assert got["n_items"].tolist() == want["n_items"].tolist()
    assert np.allclose(got["revenue"], want["revenue"])


def test_incremental_dedup_removes_planted_recrawl(ray_session, tmp_path):
    sf = _write_docs(
        tmp_path,
        [(0, "snapshot doc zero"), (7, "snapshot doc seven"),
         (1, "fresh doc one"), (2, "fresh doc two")],
    )
    from tesseract_wasm_ray.catalog.dedup import q_incremental_dedup

    out = q_incremental_dedup(sf).to_pandas()
    # planted re-crawls (1000000, 1000007) are removed; fresh docs stay
    assert sorted(out["doc_id"].tolist()) == [1, 2]


def test_keep_first_by_multi_key_matches_pandas(ray_session):
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.dedup import keep_first_by

    rng = np.random.default_rng(7)
    n = 500
    t = pa.table(
        {
            "k": pa.array([f"g{int(x)}" for x in rng.integers(0, 40, n)]),
            "q": pa.array(rng.integers(0, 9, n), pa.int64()),
            "i": pa.array(np.arange(n), pa.int64()),
        }
    )
    got = (
        keep_first_by(
            rd.from_arrow(t), "k", [("q", "descending"), ("i", "ascending")],
            num_buckets=8,
        )
        .to_pandas()
        .sort_values("k", ignore_index=True)
    )
    exp = (
        t.to_pandas()
        .sort_values(["q", "i"], ascending=[False, True])
        .groupby("k", as_index=False)
        .first()
        .sort_values("k", ignore_index=True)
    )
    assert got[["k", "q", "i"]].equals(exp[["k", "q", "i"]])


def test_token_pmi_hand_computed(ray_session, tmp_path):
    from tesseract_wasm_ray.catalog.text import q_token_pmi

    sf = _write_docs(tmp_path, [(0, "a b"), (1, "a b"), (2, "a c"), (3, "b")])
    out = q_token_pmi(sf, min_co=1).set_index(["t1", "t2"])
    # df: a=3, b=3, c=1; n=4; co(a,b)=2 (distinct doc membership), co(a,c)=1
    assert out.loc[("a", "b"), "co"] == 2
    assert abs(out.loc[("a", "b"), "pmi"] - round(math.log(2 * 4 / 9), 4)) < 1e-12
    assert abs(out.loc[("a", "c"), "pmi"] - round(math.log(4 / 3), 4)) < 1e-12
    assert ("b", "c") not in out.index  # never co-occur


def test_skipgram_cooc_hand_computed(ray_session, tmp_path):
    from tesseract_wasm_ray.catalog.text import q_skipgram_cooc

    sf = _write_docs(tmp_path, [(0, "a b a c"), (1, "c a")])
    out = q_skipgram_cooc(sf, window=2, min_co=1)
    got = {(r.t1, r.t2): r.co for r in out.itertuples()}
    # doc0 d=1: (a,b) (b,a) (a,c); d=2: (a,a) (b,c); doc1 d=1: (c,a)
    assert got == {
        ("a", "b"): 1, ("b", "a"): 1, ("a", "c"): 1,
        ("a", "a"): 1, ("b", "c"): 1, ("c", "a"): 1,
    }


def test_skipgram_no_cross_doc_pairs(ray_session, tmp_path):
    from tesseract_wasm_ray.catalog.text import q_skipgram_cooc

    # 'x' only ends doc0 and 'y' only starts doc1: any (x,y) pair would
    # be a cross-document leak through the flat token stream
    sf = _write_docs(tmp_path, [(0, "a a x"), (1, "y a a")])
    out = q_skipgram_cooc(sf, window=3, min_co=1)
    pairs = set(zip(out["t1"], out["t2"]))
    assert ("x", "y") not in pairs and ("y", "a") in pairs


def test_lang_len_quantiles_bit_matches_duckdb(ray_session, tmp_path):
    import duckdb
    import pandas as pd

    from tesseract_wasm_ray.catalog.text import q_lang_len_quantiles

    rng = np.random.default_rng(3)
    langs = [["en", "fr", "de"][int(x)] for x in rng.integers(0, 3, 200)]
    n_chars = rng.integers(1, 400, 200).astype(np.int64)
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(200), pa.int64()),
            "text": pa.array(["t"] * 200),
            "lang": pa.array(langs),
            "source": pa.array(["s"] * 200),
            "n_chars": pa.array(n_chars, pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    got = (
        q_lang_len_quantiles(str(tmp_path))
        .sort_values("lang", ignore_index=True)
    )
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'")
    exp = con.execute(
        "SELECT lang, count(*) AS n_docs, quantile_cont(n_chars, 0.25) AS p25,"
        " quantile_cont(n_chars, 0.5) AS p50, quantile_cont(n_chars, 0.75) AS p75"
        " FROM documents GROUP BY lang ORDER BY lang"
    ).df()
    # integer domain + binary-exact fractions -> bit equality, not approx
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, rtol=0, atol=0)


def test_incremental_minhash_dedup_cross_side_only(ray_session):
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.dedup import incremental_minhash_dedup

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(400)]

    def doc(n=120):
        return " ".join(vocab[i] for i in rng.integers(0, 400, n))

    a, b, c = doc(), doc(), doc()
    snap = rd.from_arrow(
        pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array([a, b])})
    )
    twin = doc()  # identical pair INSIDE the new batch: must both stay
    new = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([10, 11, 12, 13], pa.int64()),
                "text": pa.array([a + " xyzzy", c, twin, twin]),
            }
        )
    )
    kept = sorted(
        incremental_minhash_dedup(new, snap).to_pandas()["doc_id"].tolist()
    )
    # 10 is a near-copy of snapshot doc 0 -> removed; 11 unrelated ->
    # kept; 12/13 duplicate each other but match NO snapshot doc ->
    # both kept (cross-side pairs only, no self-dedup of the batch)
    assert kept == [11, 12, 13]


def test_incremental_minhash_dedup_null_and_empty_kept(ray_session):
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.dedup import incremental_minhash_dedup

    snap = rd.from_arrow(
        pa.table({"doc_id": pa.array([0], pa.int64()),
                  "text": pa.array(["x y z w v u t s"])})
    )
    new = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array([None, ""], pa.string()),
            }
        )
    )
    kept = sorted(
        incremental_minhash_dedup(new, snap).to_pandas()["doc_id"].tolist()
    )
    # zero-shingle docs never become candidates
    assert kept == [1, 2]


def test_token_stream_pack_reconstructs_corpus(ray_session):
    """Joining all windows in window_id order must reproduce the
    concatenation of every document's tokens in doc_id order — no
    token lost, duplicated, or reordered at any doc/window boundary."""
    import re

    import pyarrow.parquet as pq

    from tesseract_wasm_ray.catalog.trainprep import q_token_stream_pack

    SF = "/root/testdata/sf0.001"
    got = q_token_stream_pack(SF).to_pandas().sort_values("window_id")
    assert (got["n_tokens"][:-1] == 32).all()  # only the tail is short
    stream = " ".join(got["text"])
    docs = (
        pq.read_table(SF + "/documents.parquet", columns=["doc_id", "text"])
        .to_pandas()
        .sort_values("doc_id")
    )
    tok = re.compile(r"\S+")
    want = " ".join(t for txt in docs["text"] for t in tok.findall(txt or ""))
    assert stream == want


def test_token_stream_pack_two_level_prefix_sum_1m_docs(ray_session, tmp_path):
    """The VERDICT r04 item-4 gate: a >=1M-doc corpus runs through the
    two-level prefix sum with a small bucket width (forcing thousands
    of driver-side bucket bases but NEVER one int per doc on the
    driver) and the token stream still reconstructs exactly.  Checks
    totals plus exact window content at the head, the tail, and around
    several bucket boundaries."""
    import re

    import pyarrow.parquet as pq

    from tesseract_wasm_ray.catalog.trainprep import q_token_stream_pack

    n = 1_000_000
    ids = np.arange(n, dtype=np.int64)
    # deterministic variable-length texts: 1-4 short tokens per doc
    ntok = (ids % 4 + 1).astype(np.int64)
    texts = [
        " ".join(f"t{(7 * i + j) % 97}" for j in range(k))
        for i, k in zip(ids, ntok)
    ]
    t = pa.table(
        {
            "doc_id": pa.array(ids),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n),
            "source": pa.array(["s"] * n),
            "n_chars": pa.array([len(x) for x in texts], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))

    W = 32
    got = (
        q_token_stream_pack(str(tmp_path), bucket_width=4096)
        .to_pandas()
        .sort_values("window_id", ignore_index=True)
    )
    total = int(ntok.sum())
    assert int(got["n_tokens"].sum()) == total
    assert len(got) == -(-total // W)
    assert (got["n_tokens"][:-1] == W).all()
    assert (got["window_id"].to_numpy() == np.arange(len(got))).all()

    # exact content spot-checks: global token positions are a closed
    # form (cumsum of ntok), so any window is independently derivable
    starts = np.r_[np.int64(0), ntok.cumsum()]
    tok = re.compile(r"\S+")

    def window_want(w):
        lo, hi = w * W, min((w + 1) * W, total)
        # docs overlapping [lo, hi)
        d0 = int(np.searchsorted(starts, lo, side="right") - 1)
        out = []
        d, p = d0, lo
        while p < hi:
            within = p - int(starts[d])
            toks = tok.findall(texts[d])
            take = toks[within : within + (hi - p)]
            out.extend(take)
            p += len(take)
            d += 1
        return " ".join(out)

    probe = [0, 1, len(got) - 1]
    # windows straddling bucket boundaries (doc_id 4096k edges)
    for bk in (1, 7, 123, 200):
        probe.append(int(starts[bk * 4096] // W))
    for w in probe:
        assert got.loc[w, "text"] == window_want(w), w


def test_dsir_select_prefers_target_like_docs(ray_session, tmp_path):
    """Docs written in the target slice's vocabulary must outrank docs
    with off-distribution tokens: plant 6 'en' docs over vocabulary A,
    6 'de' docs over vocabulary B, and 3 'fr' docs that REUSE
    vocabulary A — the A-vocabulary docs (en + fr) should fill the
    top ranks."""
    from tesseract_wasm_ray.catalog.trainprep import q_dsir_select

    rows = []
    for i in range(6):
        rows.append((i, "alpha beta gamma delta alpha beta", "en"))
    for i in range(6, 12):
        rows.append((i, "zulu yankee xray whisky zulu yankee", "de"))
    for i in range(12, 15):
        rows.append((i, "alpha beta gamma delta alpha beta", "fr"))
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array([r[2] for r in rows], pa.string()),
            "source": pa.array(["s"] * len(rows)),
            "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = q_dsir_select(str(tmp_path), top_n=9).to_pandas()
    assert list(out["rk"]) == list(range(1, 10))
    a_vocab_docs = set(range(6)) | set(range(12, 15))
    assert set(out["doc_id"]) == a_vocab_docs
    # scores strictly separate the vocabularies
    full = q_dsir_select(str(tmp_path), top_n=15).to_pandas()
    a_scores = full[full["doc_id"].isin(a_vocab_docs)]["score"]
    b_scores = full[~full["doc_id"].isin(a_vocab_docs)]["score"]
    assert a_scores.min() > b_scores.max()
