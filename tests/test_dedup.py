"""Sketch kernels + dedup pipelines: planted exact/near duplicates must
be removed (min-id survivor), distinct docs must survive."""

import numpy as np
import pyarrow as pa
import pytest

from tesseract_wasm_ray.functions.sketch import (
    hamming_distance,
    minhash_signatures,
    shingle_hashes,
    signature_jaccard,
    simhash,
)

WORDS = ["tok%d" % i for i in range(200)]


def _text(rng, n=30):
    return " ".join(rng.choice(WORDS, size=n))


def _perturb(rng, text, n_edits=1):
    toks = text.split()
    for _ in range(n_edits):
        toks[int(rng.integers(0, len(toks)))] = str(rng.choice(WORDS))
    return " ".join(toks)


def _corpus():
    """60 distinct docs + planted dups: ids 1000/1001 exact copies of 0/1,
    ids 2000/2001 near-copies (1-word edit) of 2/3."""
    rng = np.random.default_rng(17)
    texts = [_text(rng) for _ in range(60)]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    rows += [{"doc_id": 1000, "text": texts[0]}, {"doc_id": 1001, "text": texts[1]}]
    rows += [
        {"doc_id": 2000, "text": _perturb(rng, texts[2])},
        {"doc_id": 2001, "text": _perturb(rng, texts[3])},
    ]
    return pa.Table.from_pylist(rows)


# -- kernel-level ----------------------------------------------------------


def test_shingle_hashes_counts_and_short_rows():
    t = pa.table({"text": ["a b c d e", "a b", ""]})
    h, p, n = shingle_hashes(t.column("text").combine_chunks(), n=3)
    assert n == 3
    # row0: 3 windows; row1 (<n tokens): 1 whole-row shingle; row2: 0
    assert (p == 0).sum() == 3 and (p == 1).sum() == 1 and (p == 2).sum() == 0


def test_minhash_estimates_jaccard():
    rng = np.random.default_rng(5)
    a = _text(rng, 80)
    b = _perturb(rng, a, n_edits=4)  # high overlap
    c = _text(rng, 80)  # unrelated
    t = pa.table({"text": [a, b, c]})
    h, p, n = shingle_hashes(t.column("text").combine_chunks(), n=3)
    sig = minhash_signatures(h, p, n, k=128)
    est_ab = signature_jaccard(sig[0:1], sig[1:2])[0]
    est_ac = signature_jaccard(sig[0:1], sig[2:3])[0]
    sa = set(h[p == 0].tolist())
    sb = set(h[p == 1].tolist())
    true_ab = len(sa & sb) / len(sa | sb)
    assert abs(est_ab - true_ab) < 0.15
    assert est_ac < 0.1 < est_ab


def test_simhash_hamming_orders_similarity():
    rng = np.random.default_rng(9)
    a = _text(rng, 60)
    b = _perturb(rng, a, n_edits=2)
    c = _text(rng, 60)
    sigs = simhash(pa.table({"text": [a, b, c]}).column("text").combine_chunks())
    d_ab = hamming_distance(sigs[0:1], sigs[1:2])[0]
    d_ac = hamming_distance(sigs[0:1], sigs[2:3])[0]
    assert d_ab < d_ac
    assert d_ab <= 6


# -- pipeline-level --------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_ds(ray_session):
    import ray.data as rd

    return rd.from_arrow(_corpus())


def test_exact_dedup(corpus_ds):
    from tesseract_wasm_ray.pipelines.dedup import exact_dedup

    kept = set(exact_dedup(corpus_ds, num_buckets=8).to_pandas()["doc_id"])
    assert 1000 not in kept and 1001 not in kept  # exact copies dropped
    assert {0, 1, 2, 3, 2000, 2001} <= kept  # near-dups survive exact dedup
    assert len(kept) == 62


def test_minhash_lsh_dedup(corpus_ds):
    from tesseract_wasm_ray.pipelines.dedup import minhash_lsh_dedup

    kept = set(
        minhash_lsh_dedup(
            corpus_ds, threshold=0.7, num_buckets=8
        ).to_pandas()["doc_id"]
    )
    assert {1000, 1001, 2000, 2001}.isdisjoint(kept)  # exact + near dropped
    assert {0, 1, 2, 3} <= kept  # min-id survivors kept
    assert len(kept) == 60


def test_simhash_dedup(corpus_ds):
    from tesseract_wasm_ray.pipelines.dedup import simhash_dedup

    kept = set(
        simhash_dedup(
            corpus_ds, max_hamming=6, num_buckets=8
        ).to_pandas()["doc_id"]
    )
    assert 1000 not in kept and 1001 not in kept
    assert {0, 1} <= kept
    assert len(kept) <= 62


def test_ngram_jaccard_dedup_exact_verification(corpus_ds):
    from tesseract_wasm_ray.pipelines.dedup import ngram_jaccard_dedup

    kept = set(
        ngram_jaccard_dedup(
            corpus_ds, threshold=0.6, num_buckets=8
        ).to_pandas()["doc_id"]
    )
    assert {1000, 1001, 2000, 2001}.isdisjoint(kept)
    assert {0, 1, 2, 3} <= kept
    assert len(kept) == 60


def test_embedding_neardup(ray_session):
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.dedup import embedding_neardup

    rng = np.random.default_rng(23)
    base = rng.standard_normal((40, 32))
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(40)]
    # near-dup of vec 0 (tiny perturbation), plus an exact copy of vec 1
    rows.append({"vec_id": 500, "embedding": (base[0] + 0.001).tolist()})
    rows.append({"vec_id": 501, "embedding": base[1].tolist()})
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    kept = set(
        embedding_neardup(
            ds, threshold=0.98, num_buckets=8
        ).to_pandas()["vec_id"]
    )
    assert 500 not in kept and 501 not in kept
    assert {0, 1} <= kept
    assert len(kept) == 40


def test_minhash_components_collapses_transitive_chain(ray_session):
    """A~B~C chain (each adjacent pair near-identical, ends less so):
    components clustering must keep ONLY the min id of the chain."""
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.dedup import minhash_lsh_dedup

    rng = np.random.default_rng(41)
    base = _text(rng, 60)
    b = _perturb(rng, base, 1)
    c = _perturb(rng, b, 1)
    others = [_text(rng, 60) for _ in range(20)]
    rows = [{"doc_id": i + 10, "text": t} for i, t in enumerate(others)]
    rows += [{"doc_id": 0, "text": base}, {"doc_id": 1, "text": b}, {"doc_id": 2, "text": c}]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    kept = set(
        minhash_lsh_dedup(
            ds, threshold=0.7, num_buckets=8, cluster="components"
        ).to_pandas()["doc_id"]
    )
    assert 0 in kept and 1 not in kept and 2 not in kept
    assert len(kept) == 21


def _member_case(kind: str):
    """(ds rows, key rows, schema): int64 ids, or string ids plus one
    null-id corpus row and one null key."""
    if kind == "int":
        schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
        rows = [{"doc_id": i, "text": f"t{i}"} for i in range(2000)]
        keys = [{"doc_id": i} for i in range(0, 2000, 7)] + [{"doc_id": 5000}]
        return rows, keys, schema
    schema = pa.schema([("doc_id", pa.string()), ("text", pa.string())])
    ids = [f"doc-{i:04d}" for i in range(400)] + [None]
    rows = [{"doc_id": d, "text": str(d)} for d in ids]
    keys = [{"doc_id": f"doc-{i:04d}"} for i in range(0, 400, 3)] + [{"doc_id": None}]
    return rows, keys, schema


@pytest.mark.parametrize("cap", ["default", "zero"])
@pytest.mark.parametrize("kind", ["int", "str"])
@pytest.mark.parametrize("keep", [True, False])
def test_member_filter(ray_session, monkeypatch, keep, kind, cap):
    """member_filter equals a Python-set reference on both plans: the
    broadcast (default cap) and the bloom-routed bucketed filter (cap
    forced to 0).  A null id never matches: anti keeps the row, semi
    drops it."""
    import ray.data as rd

    from tesseract_wasm_ray.pipelines import joins

    if cap == "zero":
        monkeypatch.setattr(joins, "BROADCAST_BYTE_CAP", 0)
    rows, keys, schema = _member_case(kind)
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=schema)).repartition(4)
    key_ds = rd.from_arrow(
        pa.Table.from_pylist(keys, schema=pa.schema([schema.field("doc_id")]))
    )
    got = joins.member_filter(ds, key_ds, "doc_id", keep=keep).to_pandas()

    key_set = {k["doc_id"] for k in keys if k["doc_id"] is not None}
    want = sorted(
        r["text"] for r in rows
        if (r["doc_id"] is not None and r["doc_id"] in key_set) == keep
    )
    assert sorted(got["text"]) == want
    assert list(got.columns) == schema.names


@pytest.mark.parametrize("keep", [True, False])
def test_member_filter_empty_keys(ray_session, keep):
    """No keys: the anti-join returns every row, the semi-join an empty
    dataset that still carries the input schema."""
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.joins import member_filter

    schema = pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    ds = rd.from_arrow(
        pa.Table.from_pylist([{"doc_id": i, "text": f"t{i}"} for i in range(10)], schema=schema)
    )
    keys = rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64())}))
    out = member_filter(ds, keys, "doc_id", keep=keep)
    assert out.count() == (0 if keep else 10)
    assert out.schema().names == schema.names


def test_ngram_dedup_no_duplicates_corpus(ray_session):
    """A corpus with zero near-dups must survive intact (exercises the
    empty-candidate-pair path through the exploded single-join verify —
    Ray emits schema-less empty blocks there)."""
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.dedup import ngram_jaccard_dedup

    rng = np.random.default_rng(17)
    rows = [{"doc_id": i, "text": _text(rng, 30)} for i in range(40)]
    ds = rd.from_arrow(pa.Table.from_pylist(rows))
    kept = ngram_jaccard_dedup(ds, threshold=0.8, num_buckets=8)
    assert kept.count() == 40


# -- in-run pair machinery (exact EXISTS across all regimes) ---------------


def _mod_verify(t, lo, hi):
    """Toy predicate over a table with a 'val' column: pair verified iff
    val difference is a multiple of 7 (deliberately non-transitive-ish:
    links depend on values, not adjacency)."""
    v = t.column("val").to_numpy(zero_copy_only=False)
    return (v[hi] - v[lo]) % 7 == 0


def _serial_exists(vals, keys):
    """Reference EXISTS dup mask: row i dup iff some j<i with equal key
    and verified pair."""
    n = len(vals)
    dup = np.zeros(n, bool)
    for i in range(n):
        for j in range(i):
            if keys[j] == keys[i] and (vals[i] - vals[j]) % 7 == 0:
                dup[i] = True
                break
    return dup


@pytest.mark.parametrize("run_len", [50, 1500])
def test_run_dup_rows_matches_serial_exists(run_len):
    """Small runs (all-pairs) and PAIR_CAP<run<=EXACT_RUN_CAP (chunked
    exact) must BOTH reproduce serial EXISTS semantics exactly."""
    from tesseract_wasm_ray.pipelines import dedup as dd

    assert dd.PAIR_CAP < 1500 <= dd.EXACT_RUN_CAP
    rng = np.random.default_rng(3)
    keys = np.sort(rng.integers(0, 3, size=run_len))
    vals = rng.integers(0, 40, size=run_len)
    order = np.lexsort((vals, keys))
    keys, vals = keys[order], vals[order]
    t = pa.table({"val": pa.array(vals, pa.int64())})
    got = dd._run_dup_rows(t, keys, _mod_verify)
    want = np.flatnonzero(_serial_exists(vals, keys))
    assert np.array_equal(got, want)


def test_run_verified_pairs_preserves_connectivity():
    """For a large run the spanning representation must produce the same
    connected components as the full verified pair set."""
    from tesseract_wasm_ray.pipelines import dedup as dd

    rng = np.random.default_rng(9)
    L = 1500
    keys = np.zeros(L, np.int64)
    vals = np.sort(rng.integers(0, 200, size=L))
    t = pa.table({"val": pa.array(vals, pa.int64())})
    lo, hi = dd._run_verified_pairs(t, keys, _mod_verify)
    # union-find over emitted pairs
    parent = list(range(L))

    def find(p, x):
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    for a, b in zip(lo, hi):
        ra, rb = find(parent, int(a)), find(parent, int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    got_roots = np.array([find(parent, i) for i in range(L)])
    # serial full-pair union-find
    parent2 = list(range(L))
    for i in range(L):
        for j in range(i):
            if (vals[i] - vals[j]) % 7 == 0:
                ra, rb = find(parent2, j), find(parent2, i)
                if ra != rb:
                    parent2[max(ra, rb)] = min(ra, rb)
    want_roots = np.array([find(parent2, i) for i in range(L)])
    assert np.array_equal(got_roots, want_roots)


def test_chain_fallback_beyond_exact_cap(monkeypatch):
    """Runs beyond EXACT_RUN_CAP degrade to first+chain pairs: every
    member still links to the run min and its predecessor."""
    from tesseract_wasm_ray.pipelines import dedup as dd

    monkeypatch.setattr(dd, "EXACT_RUN_CAP", 100)
    monkeypatch.setattr(dd, "PAIR_CAP", 10)
    L = 200
    keys = np.zeros(L, np.int64)
    vals = np.arange(L, dtype=np.int64) * 7  # every pair verifies
    t = pa.table({"val": pa.array(vals, pa.int64())})
    got = dd._run_dup_rows(t, keys, _mod_verify)
    assert np.array_equal(got, np.arange(1, L))


def test_build_bloom_no_false_negatives(ray_session):
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.joins import (
        _bloom_h12,
        _bloom_word_bit,
        build_bloom,
    )

    ids = pa.array(range(0, 10000, 3), pa.int64())
    bloom = build_bloom(
        rd.from_arrow(pa.table({"doc_id": ids})), "doc_id", m_bits=1 << 20
    )
    h1, h2 = _bloom_h12(ids)
    w, bit = _bloom_word_bit(h1, h2, 7, 1 << 20)
    assert ((bloom[w] & bit) != 0).all(), "members must always hit"
    # false-positive rate sane at this sizing (~3.3k ids in 1M bits)
    probe = pa.array(range(1, 100000, 3), pa.int64())
    h1, h2 = _bloom_h12(probe)
    w, bit = _bloom_word_bit(h1, h2, 7, 1 << 20)
    fp = ((bloom[w] & bit) != 0).reshape(len(probe), -1).all(axis=1).mean()
    assert fp < 0.01, fp


def test_exact_substring_dedup_matches_naive(ray_session):
    """Keep-first-occurrence window semantics vs a brute-force
    reference: unaligned cross-doc repeats removed, keeper intact,
    fully-shadowed docs vanish."""
    from collections import defaultdict

    import ray.data as rd

    from tesseract_wasm_ray.pipelines.dedup import exact_substring_dedup

    rows = [
        (0, "the quick brown fox jumps over the lazy dog"),
        (1, "something else the quick brown fox jumps again here"),
        (2, "no overlap at all in this one really"),
        (3, "the quick brown fox jumps"),  # one dup window -> vanishes
        (4, "repeat me now ok go repeat me now ok go tail"),  # within-doc
    ]
    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows]),
            }
        )
    )
    out = exact_substring_dedup(ds, n=5).to_pandas().set_index("doc_id")

    grams = []
    for d, t in rows:
        toks = t.lower().split()
        for p in range(len(toks) - 4):
            grams.append((" ".join(toks[p : p + 5]), d, p))
    seen: set = set()
    removals = defaultdict(list)
    for g, d, p in sorted(grams):
        if g in seen:
            removals[d].append(p)
        else:
            seen.add(g)
    for d, t in rows:
        toks = t.lower().split()
        cov = [False] * len(toks)
        for p in removals.get(d, []):
            for i in range(p, min(p + 5, len(toks))):
                cov[i] = True
        kept = [w for w, c in zip(toks, cov) if not c]
        if kept:
            assert out.loc[d, "clean_text"] == " ".join(kept)
            assert out.loc[d, "n_tokens_kept"] == len(kept)
        else:
            assert d not in out.index


def test_exact_substring_dedup_all_identical_keeps_one(ray_session):
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.dedup import exact_substring_dedup

    text = "alpha beta gamma delta epsilon zeta"
    ds = rd.from_arrow(
        pa.table(
            {"doc_id": pa.array(list(range(6)), pa.int64()),
             "text": pa.array([text] * 6)}
        )
    )
    out = exact_substring_dedup(ds, n=5).to_pandas()
    # every window of docs 1..5 duplicates doc 0 -> only doc 0 survives
    assert out["doc_id"].tolist() == [0]
    assert out["clean_text"].iloc[0] == text


def test_dup_ngram_stats_single_doc_no_dups(ray_session):
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.dedup import dup_ngram_stats

    ds = rd.from_arrow(
        pa.table(
            {"doc_id": pa.array([7], pa.int64()),
             "text": pa.array(["one two three four five six"])}
        )
    )
    out = dup_ngram_stats(ds, n=5).to_pandas()
    assert out["n_dup_grams"].iloc[0] == 0 and out["dup_frac"].iloc[0] == 0.0


def test_chunk_dedup_docs_handles_empty_text(ray_session):
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.dedup import chunk_dedup_docs

    ds = rd.from_arrow(
        pa.table(
            {"doc_id": pa.array([0, 1], pa.int64()),
             "text": pa.array(["", "real words here"])}
        )
    )
    out = chunk_dedup_docs(ds, chunk_size=16).to_pandas()
    # empty doc emits no chunks and vanishes; the other passes through
    assert out["doc_id"].tolist() == [1]
    assert out["clean_text"].iloc[0] == "real words here"


def test_normalized_dedup_collapses_formatting_variants(ray_session):
    """Case/punctuation/whitespace variants of one doc collapse to the
    min-id survivor; distinct content survives; CJK text is not
    destroyed by the punctuation strip."""
    import pyarrow as pa
    import ray.data as rd

    from tesseract_wasm_ray.catalog import dedup as q

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "text": pa.array(
                [
                    "Hello,  World!",
                    "hello world",
                    "HELLO   WORLD.",
                    "goodbye world",
                    "你好， 世界。",
                    "你好 世界",
                ],
                pa.string(),
            ),
        }
    )
    # drive the same add_key + keep_min_by chain on an in-memory table
    orig = q._docs
    try:
        q._docs = lambda sf_dir, columns=None: rd.from_arrow(t).repartition(3)
        out = q.q_normalized_dedup("unused").to_pandas().sort_values("doc_id")
    finally:
        q._docs = orig
    assert list(out["doc_id"]) == [1, 4, 5]
    # survivor keeps its RAW text
    assert out[out["doc_id"] == 1]["text"].iloc[0] == "Hello,  World!"
