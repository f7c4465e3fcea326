"""Property-based tests (hypothesis): invariants that must hold for
arbitrary inputs, mirroring the reference's property-style rect checks
(/root/reference/test/ocr-engine-test.js:153-168)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from tesseract_wasm_ray.functions.boilerplate import strip_boilerplate
from tesseract_wasm_ray.functions.sketch import (
    hash_string_array,
    minhash_signatures,
    shingle_hashes,
    signature_jaccard,
)
from tesseract_wasm_ray.functions.textstats import text_quality, token_count

html_chars = st.text(
    alphabet=st.sampled_from("abc <>/='\"-_&;#!\nxyz"), max_size=200
)
plain_words = st.lists(
    st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=10),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(html_chars)
def test_strip_boilerplate_never_crashes_and_emits_no_tags(s):
    out = strip_boilerplate(s)
    assert isinstance(out, str)
    # No complete tag should survive (angle brackets may remain only
    # from non-tag text like "a < b").
    import re

    assert not re.search(r"<[a-zA-Z][a-zA-Z0-9]*(\s[^>]*)?>", out)


@settings(max_examples=100, deadline=None)
@given(plain_words)
def test_token_count_matches_python_split(words):
    text = " ".join(words)
    t = pa.table({"text": [text]})
    got = token_count(t).column("n_tokens").to_pylist()[0]
    assert got == len(text.split())


@settings(max_examples=100, deadline=None)
@given(plain_words)
def test_quality_metrics_bounded(words):
    text = " ".join(words)
    out = text_quality(pa.table({"text": [text]})).to_pylist()[0]
    assert 0.0 <= out["quality"] <= 1.0
    assert 0.0 <= out["distinct_ratio"] <= 1.0
    assert out["n_distinct"] <= out["n_tokens"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.text(alphabet="abcdef", min_size=0, max_size=12), min_size=1, max_size=50))
def test_fnv_hash_injective_on_distinct_strings_and_stable(strings):
    arr = pa.array(strings, pa.string())
    h1 = hash_string_array(arr)
    h2 = hash_string_array(arr)
    np.testing.assert_array_equal(h1, h2)  # deterministic
    uniq = {}
    for s, h in zip(strings, h1.tolist()):
        if s in uniq:
            assert uniq[s] == h  # equal strings -> equal hashes
        uniq[s] = h


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(["tok%d" % i for i in range(30)]), min_size=10, max_size=60),
    st.integers(min_value=0, max_value=9),
)
def test_minhash_identical_docs_estimate_one(tokens, _salt):
    text = " ".join(tokens)
    t = pa.table({"text": [text, text]})
    h, p, n = shingle_hashes(t.column("text").combine_chunks(), 3)
    sig = minhash_signatures(h, p, n, k=32)
    assert signature_jaccard(sig[0:1], sig[1:2])[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=40))
def test_explode_stitch_roundtrip_random_span_shapes(sizes):
    from tesseract_wasm_ray.stages.explode import explode_spans
    from tesseract_wasm_ray.stages.reassemble import stitch_bucket

    docs = []
    for i, n in enumerate(sizes):
        spans = [
            {"kind": "text" if (i + k) % 3 else "media_ref",
             "text": f"t{i}-{k}", "media_ref": "", "offset": k}
            for k in range(n)
        ]
        if spans:
            docs.append({"doc_id": f"d{i:04d}", "spans": spans})
    if not docs:
        return
    from tesseract_wasm_ray.schema import DOCUMENTS_SCHEMA

    t = pa.Table.from_pylist(docs, schema=DOCUMENTS_SCHEMA)
    back = stitch_bucket(explode_spans(t))
    assert sorted(back.to_pylist(), key=lambda r: r["doc_id"]) == sorted(
        docs, key=lambda r: r["doc_id"]
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 30), max_size=40), min_size=1, max_size=8),
    st.integers(2, 12),
)
def test_chunk_tokens_partitions_exactly(token_lists, chunk_size):
    from tesseract_wasm_ray.functions.textstats import chunk_tokens

    texts = [" ".join(f"w{x}" for x in toks) for toks in token_lists]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    df = chunk_tokens(t, chunk_size=chunk_size).to_pandas()
    for i, toks in enumerate(token_lists):
        sub = df[df.doc_id == i].sort_values("chunk_id")
        # chunk ids are 0..k-1, all full except possibly the last,
        # concatenation reproduces the token stream exactly
        assert list(sub.chunk_id) == list(range(len(sub)))
        assert (sub.n_chunk_tokens.iloc[:-1] == chunk_size).all() if len(sub) > 1 else True
        rebuilt = " ".join(sub.chunk_text) if len(sub) else ""
        assert rebuilt == " ".join(f"w{x}" for x in toks)
        assert sub.n_chunk_tokens.sum() == len(toks)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 50), min_size=1, max_size=60),
    st.integers(10, 120),
)
def test_greedy_pack_scan_matches_row_reference(sizes, budget):
    """The cumsum+searchsorted scan inside pack_sequences must equal the
    row-by-row greedy recurrence for any sizes/budget."""
    import numpy as np

    cum = np.cumsum(sizes)
    n = len(sizes)
    seq = np.empty(n, np.int64)
    i, s = 0, 0
    while i < n:
        base = cum[i - 1] if i else 0
        j = int(np.searchsorted(cum, base + budget, side="right"))
        j = max(j, i + 1)
        seq[i:j] = s
        s += 1
        i = j
    # reference recurrence
    acc, ref_s, ref = 0, 0, []
    for sz in sizes:
        if acc and acc + sz > budget:
            ref_s += 1
            acc = 0
        acc += sz
        ref.append(ref_s)
    assert seq.tolist() == ref


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_gif_roundtrip_property(w, h, seed):
    from tesseract_wasm_ray.functions.gifcodec import decode_gif, encode_gif

    img = np.random.default_rng(seed).integers(0, 256, (h, w, 1), dtype=np.uint8)
    assert np.array_equal(decode_gif(encode_gif(img)), img)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 32),
    st.integers(1, 32),
    st.sampled_from([1, 3, 4]),
    st.sampled_from(["none", "packbits", "lzw"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_tiff_roundtrip_property(w, h, c, comp, pred, seed):
    from tesseract_wasm_ray.functions.tiffcodec import decode_tiff, encode_tiff

    img = np.random.default_rng(seed).integers(0, 256, (h, w, c), dtype=np.uint8)
    assert np.array_equal(
        decode_tiff(encode_tiff(img, compression=comp, predictor=pred)), img
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(8, 48),
    st.integers(8, 48),
    st.sampled_from([1, 3, 4]),
    st.integers(0, 2**32 - 1),
)
def test_ahash64_properties(w, h, c, seed):
    """Perceptual-hash invariants: deterministic; alpha-blind; a
    constant image has no block above the global mean (signature 0);
    an inverted NON-constant image flips every strict comparison, so
    set bits of the original and the inverse are disjoint."""
    from tesseract_wasm_ray.stages.multimodal import ahash64

    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, (h, w, c), dtype=np.uint8)

    def tbl(entries):
        return pa.table(
            {
                "media_ref": pa.array([r for r, _ in entries], pa.string()),
                "width": pa.array([a.shape[1] for _, a in entries], pa.int32()),
                "height": pa.array([a.shape[0] for _, a in entries], pa.int32()),
                "channels": pa.array([a.shape[2] for _, a in entries], pa.int32()),
                "pixels": pa.array([a.tobytes() for _, a in entries], pa.binary()),
            }
        )

    s1 = ahash64(tbl([("x", img)]))[0]
    s2 = ahash64(tbl([("x", img)]))[0]
    assert s1 == s2
    if c == 4:
        img2 = img.copy()
        img2[..., 3] = 255 - img2[..., 3]
        assert ahash64(tbl([("x", img2)]))[0] == s1
    const = np.full((h, w, c), 77, np.uint8)
    assert ahash64(tbl([("c", const)]))[0] == 0
    inv = (255 - img).astype(np.uint8)
    si = ahash64(tbl([("i", inv)]))[0]
    # luma(inv) = 255 - luma up to the //1000 truncation for c >= 3;
    # for c == 1 it is exact, so original and inverse bits are disjoint
    if c == 1:
        assert int(s1) & int(si) == 0


# --- round-5 window operators: randomized end-to-end vs DuckDB -------
# Few examples (each spins the real Ray pipeline), but each example is
# a fully random event set spanning day boundaries — the replica
# machinery, sort tie-breaks and window bounds all get fuzzed.

_event_sets = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3 * 24 * 60),  # minute offset, 3 days
        st.sampled_from(["view", "click"]),
        st.integers(min_value=0, max_value=9999),  # cents
    ),
    min_size=1,
    max_size=40,
)


def _events_table(rows):
    base = np.datetime64("2024-03-05T00:00:00", "us").astype(np.int64)
    n = len(rows)
    return pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(
                base + np.array([r[0] for r in rows], np.int64) * 60_000_000
            ).cast(pa.timestamp("us")),
            "user_id": pa.array(np.array([r[0] % 3 for r in rows], np.int64)),
            "event_type": pa.array([r[1] for r in rows], pa.string()),
            "value": pa.array([r[2] / 100.0 for r in rows], pa.float64()),
            "props": pa.array([""] * n),
        }
    )


@settings(max_examples=5, deadline=None)
@given(_event_sets)
def test_sliding_windows_match_duckdb_on_random_events(ray_session, tmp_path_factory, rows):
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    from tesseract_wasm_ray.catalog.events import (
        q_events_sliding_1h,
        q_events_sliding_sum_1h,
    )

    d = tmp_path_factory.mktemp("ev")
    t = _events_table(rows)
    pq.write_table(t, str(d / "events.parquet"))
    con = duckdb.connect()
    con.register("events", t)

    got = q_events_sliding_1h(str(d)).to_pandas().sort_values("event_id", ignore_index=True)
    want = con.sql(
        """SELECT event_id, event_type,
                  (COUNT(*) OVER (PARTITION BY event_type ORDER BY ts
                       RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW))::BIGINT
                      AS n_prev_hour
           FROM events ORDER BY event_id"""
    ).df()
    pd.testing.assert_frame_equal(got, want)

    got2 = q_events_sliding_sum_1h(str(d)).to_pandas().sort_values("event_id", ignore_index=True)
    want2 = con.sql(
        """SELECT event_id, event_type,
                  (SUM(CAST(round(value * 100) AS BIGINT)) OVER (
                       PARTITION BY event_type ORDER BY ts
                       RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)) / 100.0
                      AS sum_value
           FROM events ORDER BY event_id"""
    ).df()
    pd.testing.assert_frame_equal(got2, want2)


@settings(max_examples=5, deadline=None)
@given(_event_sets)
def test_click_attribution_matches_duckdb_on_random_events(ray_session, tmp_path_factory, rows):
    import duckdb
    import pandas as pd
    import pyarrow.parquet as pq

    from tesseract_wasm_ray.catalog.events import q_click_attribution

    d = tmp_path_factory.mktemp("ev")
    t = _events_table(rows)
    pq.write_table(t, str(d / "events.parquet"))
    cols = ["event_id", "attributed", "gap_us"]
    got = q_click_attribution(str(d)).to_pandas()
    if got.empty and not set(cols) <= set(got.columns):
        # Ray's to_pandas() on an all-empty dataset drops columns
        got = pd.DataFrame({c: pd.Series(dtype="int64") for c in cols})
    got = got.sort_values("event_id", ignore_index=True)
    con = duckdb.connect()
    con.register("events", t)
    want = con.sql(
        """SELECT c.event_id,
                  (CASE WHEN v.ts IS NULL THEN 0 ELSE 1 END)::BIGINT AS attributed,
                  coalesce(epoch_us(c.ts) - epoch_us(v.ts), -1)::BIGINT AS gap_us
           FROM events c
           LEFT JOIN LATERAL (
               SELECT max(ts) AS ts FROM events v
               WHERE v.user_id = c.user_id AND v.event_type = 'view'
                 AND v.ts <= c.ts AND v.ts >= c.ts - INTERVAL 30 MINUTE
           ) v ON true
           WHERE c.event_type = 'click' ORDER BY c.event_id"""
    ).df()
    pd.testing.assert_frame_equal(got, want)
