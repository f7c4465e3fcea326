"""DuckDB oracle SQL for the hash-sketch / similarity / text operators.

Each builder returns an ANSI-ish DuckDB SQL string that recomputes the
corresponding Ray pipeline FROM SCRATCH inside DuckDB — tokenization,
FNV-1a token hashing, shingle mixing, MinHash permutations, LSH band
keys, SimHash bit sums, cosine EXISTS joins — so the driver's
correctness gate compares two genuinely independent engines, not a
golden file produced by one of them.

Bit-exactness notes (all verified against the numpy kernels):

- uint64 arithmetic runs in HUGEINT with explicit ``% 2**64`` masking;
  the one multiply whose operands can reach 2**64 x 2**63 (the band-key
  mix) is split into 32-bit halves to stay inside INT128.
- FNV-1a iterates *codepoints* via ``unicode(c)``; the numpy kernel
  iterates utf-8 bytes.  Identical for the ASCII corpora the driver
  uses (asserted nowhere — if non-ASCII text ever enters the tables the
  oracle, not the pipeline, needs the byte-level variant).
- MinHash permutation constants (a_i, b_i) are embedded as literals from
  the same seeded generator the sketch kernel uses, because SQL cannot
  reproduce numpy's PCG64 stream.
- EXISTS semantics: a doc is removed iff SOME smaller-id doc is a
  verified near-duplicate (pipelines/dedup.py pair semantics), which SQL
  expresses as a pair join + ``NOT IN`` anti-join.
"""

from __future__ import annotations

from ..functions.sketch import _minhash_params
from ..functions.textstats import LANG_PROFILES

_M64 = 1 << 64          # 2**64 wrap modulus
_P61 = 1 << 61          # MERSENNE + 1
_MERS = (1 << 61) - 1   # MinHash universal-hash modulus
_FNV_OFF = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_BAND_MIX = 0x9E3779B97F4A7C15  # lsh_band_keys multiplier
_ROLL_BASE = 1099511628211      # textstats rolling-hash base (== FNV prime)

# Parameters a catalogue query shares with the builder below that
# checks it: one definition, read by both sides.
DSIR_BUCKETS = 1024   # dsir_select: FNV-unigram buckets
DSIR_SCALE = 10_000   # dsir_select: importance-ratio quantization
DRIFT_BUCKETS = 1024  # source_drift: FNV-unigram buckets
BM25_TERMS = ("join", "shuffle", "spark", "window")  # text_search_bm25
BM25_K = 20
QUANTILE_COL = "l_extendedprice"  # approx_quantiles over lineitem
QUANTILE_QS = (0.25, 0.5, 0.75, 0.95)
QUANTILE_LO, QUANTILE_HI = 0.0, 120000.0
QUANTILE_BINS = 4096


def _tok_cte(table: str = "documents") -> str:
    """Lowercase whitespace tokens per row (empty tokens dropped) —
    mirrors functions.textstats._tokens / sketch.token_hashes."""
    return f"""
toks AS (
    SELECT doc_id, list_filter(string_split_regex(lower(text), '\\s+'), w -> len(w) > 0) AS w
    FROM {table}
)"""


def _fnv_cte() -> str:
    """Per-token FNV-1a hash lists (uint64 in HUGEINT) — mirrors
    sketch.hash_string_array."""
    return f""",
th AS (
    SELECT doc_id,
           list_transform(w, t -> list_reduce(
               list_prepend({_FNV_OFF}::HUGEINT,
                            list_transform(string_split_regex(t, ''), c -> unicode(c)::HUGEINT)),
               (acc, c) -> (xor(acc, c) * {_FNV_PRIME}::HUGEINT) % {_M64}::HUGEINT)) AS hs
    FROM toks
)"""


def _minhash_sketch_cte(threshold: float, table: str = "documents") -> str:
    """Shared CTE chain ending in verified near-dup pairs (lo < hi):
    shingles -> 64 MinHash perms -> 16x4 LSH band keys -> band-colliding
    pairs -> signature-Jaccard >= threshold.  Mirrors
    sketch.shingle_hashes / minhash_signatures / lsh_band_keys and
    dedup.minhash_band_rows (including the uint32 signature truncation
    the pipeline ships to halve the shuffle)."""
    a, b = _minhash_params(64)
    perm_values = ",\n        ".join(
        f"({i}, {int(a[i])}::HUGEINT, {int(b[i])}::HUGEINT)" for i in range(64)
    )
    mix_lo = _BAND_MIX % (1 << 32)
    return f"""{_tok_cte(table)}{_fnv_cte()},
sh AS (
    SELECT doc_id,
           CASE WHEN len(hs) >= 3 THEN
               list_transform(range(1, len(hs) - 1),
                   i -> xor((xor((hs[i] * {_ROLL_BASE}::HUGEINT) % {_M64}::HUGEINT, hs[i+1]) * {_ROLL_BASE}::HUGEINT) % {_M64}::HUGEINT, hs[i+2]))
           WHEN len(hs) > 0 THEN
               [list_reduce(list_prepend(0::HUGEINT, hs),
                            (acc, h) -> xor((acc * {_ROLL_BASE}::HUGEINT) % {_M64}::HUGEINT, h))]
           ELSE [] END AS sgl
    FROM th
),
xs AS (
    SELECT doc_id, list_transform(sgl, s -> s % {_P61}::HUGEINT) AS x
    FROM sh WHERE len(sgl) > 0
),
perms(i, pa, pb) AS (VALUES
        {perm_values}
),
sig AS (
    SELECT x.doc_id, p.i,
           list_min(list_transform(x.x, v -> (((p.pa * v + p.pb) % {_M64}::HUGEINT) % {_MERS}::HUGEINT)::HUGEINT)) AS s
    FROM xs x CROSS JOIN perms p
),
sigv AS (
    SELECT doc_id, array_agg(s % 4294967296 ORDER BY i) AS sv,
           array_agg(s ORDER BY i) AS sfull
    FROM sig GROUP BY doc_id
),
bands AS (
    SELECT doc_id, bi,
           list_reduce(
               list_prepend((bi + 1)::HUGEINT,
                            [sfull[4*bi + 1], sfull[4*bi + 2], sfull[4*bi + 3], sfull[4*bi + 4]]),
               (acc, v) -> ((xor(acc, v) % 4294967296) * {_BAND_MIX}::HUGEINT
                            + ((xor(acc, v) // 4294967296) * {mix_lo}::HUGEINT % 4294967296) * 4294967296
                           ) % {_M64}::HUGEINT) AS bkey
    FROM sigv, range(0, 16) r(bi)
),
pairs AS (
    SELECT DISTINCT least(a.doc_id, b.doc_id) AS lo, greatest(a.doc_id, b.doc_id) AS hi
    FROM bands a JOIN bands b ON a.bi = b.bi AND a.bkey = b.bkey AND a.doc_id < b.doc_id
),
verified AS (
    SELECT p.lo, p.hi FROM pairs p
    JOIN sigv sa ON sa.doc_id = p.lo
    JOIN sigv sb ON sb.doc_id = p.hi
    WHERE list_sum(list_transform(range(1, 65),
              j -> CASE WHEN sa.sv[j] = sb.sv[j] THEN 1 ELSE 0 END)) / 64.0 >= {threshold}
)"""


def sql_minhash_dedup(threshold: float = 0.8) -> str:
    return f"""
WITH {_minhash_sketch_cte(threshold)},
removed AS (SELECT DISTINCT hi AS doc_id FROM verified)
SELECT doc_id FROM documents WHERE doc_id NOT IN (SELECT doc_id FROM removed)
"""


def sql_incremental_minhash_dedup(threshold: float = 0.8) -> str:
    """Incremental near-dup: the MinHash sketch chain runs over the
    UNION of the snapshot slice (doc_id % 7 == 0, side 0) and the
    incoming batch (remaining docs plus a one-token-perturbed re-crawl
    of every snapshot doc at doc_id + 1,000,000, side 1 — near- but
    not exact-duplicates, so incremental_exact_dedup would keep them);
    only CROSS-side verified pairs remove their side-1 member.
    Mirrors dedup.incremental_minhash_dedup (parity-encoded sides,
    same uint32 signature verify)."""
    return f"""
WITH corpus AS (
    SELECT doc_id, text, 0 AS side FROM documents WHERE doc_id % 7 = 0
    UNION ALL
    SELECT doc_id, text, 1 AS side FROM documents WHERE doc_id % 7 <> 0
    UNION ALL
    SELECT doc_id + 1000000, text || ' xyzzy', 1 AS side
    FROM documents WHERE doc_id % 7 = 0
),
{_minhash_sketch_cte(threshold, table="corpus")},
sides AS (SELECT doc_id, side FROM corpus),
removed AS (
    SELECT DISTINCT CASE WHEN sa.side = 1 THEN v.lo ELSE v.hi END AS doc_id
    FROM verified v
    JOIN sides sa ON sa.doc_id = v.lo
    JOIN sides sb ON sb.doc_id = v.hi
    WHERE sa.side <> sb.side
)
SELECT doc_id, length(text) AS n_chars
FROM corpus
WHERE side = 1 AND doc_id NOT IN (SELECT doc_id FROM removed)
"""


def sql_minhash_components_dedup(threshold: float = 0.8) -> str:
    """Connected components over the verified pair graph via a recursive
    min-label reachability CTE (mirrors dedup.cluster_components)."""
    return f"""
WITH RECURSIVE {_minhash_sketch_cte(threshold)},
nodes AS (SELECT lo AS n FROM verified UNION SELECT hi FROM verified),
edges AS (SELECT lo AS u, hi AS v FROM verified UNION SELECT hi, lo FROM verified),
reach(n, l) AS (
    SELECT n, n FROM nodes
    UNION
    SELECT e.u, r.l FROM edges e JOIN reach r ON r.n = e.v
),
removed AS (SELECT n AS doc_id FROM reach GROUP BY n HAVING min(l) < n)
SELECT doc_id FROM documents WHERE doc_id NOT IN (SELECT doc_id FROM removed)
"""


def sql_simhash_dedup(max_hamming: int = 3) -> str:
    """SimHash near-dup removal — mirrors sketch.simhash_from_tokens
    (per-instance ±1 bit sums, sign -> 64-bit signature), the 4x16-bit
    pigeonhole blocking and the exact-hamming verify."""
    bits_values = ",\n        ".join(f"({b}, {1 << b}::HUGEINT)" for b in range(64))
    return f"""
WITH {_tok_cte()}{_fnv_cte()},
tok AS (SELECT doc_id, unnest(hs) AS h FROM th WHERE len(hs) > 0),
bits(b, p) AS (VALUES
        {bits_values}
),
bitsum AS (
    SELECT t.doc_id, bits.b,
           sum(CASE WHEN (t.h // bits.p) % 2 = 1 THEN 1 ELSE -1 END) AS s
    FROM tok t CROSS JOIN bits GROUP BY t.doc_id, bits.b
),
sigbits AS (SELECT doc_id, b, (s > 0) AS bit FROM bitsum),
blocks AS (
    SELECT doc_id, b // 16 AS bi,
           sum(CASE WHEN bit THEN (1::BIGINT << (b % 16)) ELSE 0 END) AS bv
    FROM sigbits GROUP BY doc_id, b // 16
),
pairs AS (
    SELECT DISTINCT a.doc_id AS lo, b.doc_id AS hi
    FROM blocks a JOIN blocks b ON a.bi = b.bi AND a.bv = b.bv AND a.doc_id < b.doc_id
),
ham AS (
    SELECT p.lo, p.hi, count(*) FILTER (WHERE ba.bit <> bb.bit) AS d
    FROM pairs p
    JOIN sigbits ba ON ba.doc_id = p.lo
    JOIN sigbits bb ON bb.doc_id = p.hi AND bb.b = ba.b
    GROUP BY p.lo, p.hi
),
removed AS (SELECT DISTINCT hi AS doc_id FROM ham WHERE d <= {max_hamming})
SELECT doc_id FROM documents WHERE doc_id NOT IN (SELECT doc_id FROM removed)
"""


def sql_ngram_jaccard_dedup(threshold: float = 0.8, shingle_n: int = 3) -> str:
    """Exact word n-gram Jaccard dedup with the SAME candidate set as
    the pipeline: MinHash band collision + a signature-Jaccard screen at
    ``threshold/2`` (dedup.ngram_jaccard_dedup), then exact
    shingle-HASH-set Jaccard over those pairs.  Candidate parity matters:
    an any-shared-shingle oracle would (with small probability) remove a
    pair whose 64-sample signature estimate dipped below the screen and
    missed every band — both engines must see identical candidates for a
    deterministic gate.  Exact up to key runs of dedup.PAIR_CAP rows
    (beyond that the pipeline emits a spanning candidate subset; see
    dedup._run_verified_pairs)."""
    if shingle_n != 3:
        raise ValueError("oracle mirrors the k=64 MinHash chain at shingle_n=3 only")
    screen = threshold * 0.5
    return f"""
WITH {_minhash_sketch_cte(screen)},
dsh AS (
    SELECT DISTINCT doc_id, shingle
    FROM (SELECT doc_id, unnest(sgl) AS shingle FROM sh)
),
cnt AS (SELECT doc_id, count(*) AS n FROM dsh GROUP BY doc_id),
inter AS (
    SELECT v.hi, v.lo, count(*) AS i
    FROM verified v
    JOIN dsh a ON a.doc_id = v.hi
    JOIN dsh b ON b.doc_id = v.lo AND b.shingle = a.shingle
    GROUP BY 1, 2
),
removed AS (
    SELECT DISTINCT v.hi AS doc_id
    FROM verified v
    JOIN cnt ca ON ca.doc_id = v.hi
    JOIN cnt cb ON cb.doc_id = v.lo
    LEFT JOIN inter p ON p.hi = v.hi AND p.lo = v.lo
    WHERE coalesce(p.i, 0)::DOUBLE / (ca.n + cb.n - coalesce(p.i, 0)) >= {threshold}
)
SELECT doc_id FROM documents WHERE doc_id NOT IN (SELECT doc_id FROM removed)
"""


# Planted-copy augmentation shared by the Ray query and the SQL oracle:
# every vec_id % 10 == 0 row is duplicated at vec_id + PLANT_OFFSET;
# vec_id % 20 == 0 copies are scaled x2 (cosine-invariant), the rest are
# exact copies.  The base table has no near-dup pairs (max pairwise
# cosine ~0.51 at sf0.01), so without planting the query would remove
# nothing and the oracle would be vacuous.
PLANT_OFFSET = 1_000_000
PLANT_MOD = 10
PLANT_SCALE_MOD = 20

EMB_AUG_CTE = f"""
aug AS (
    SELECT vec_id, embedding::DOUBLE[] AS embedding FROM embeddings
    UNION ALL
    SELECT vec_id + {PLANT_OFFSET},
           CASE WHEN vec_id % {PLANT_SCALE_MOD} = 0
                THEN list_transform(embedding, x -> x * 2.0)
                ELSE embedding::DOUBLE[] END
    FROM embeddings WHERE vec_id % {PLANT_MOD} = 0
)"""


def sql_embedding_neardup(threshold: float = 0.98) -> str:
    """EXISTS cosine near-dup over the planted-copy augmentation."""
    return f"""
WITH {EMB_AUG_CTE}
SELECT a.vec_id FROM aug a
WHERE NOT EXISTS (
    SELECT 1 FROM aug b
    WHERE b.vec_id < a.vec_id
      AND list_cosine_similarity(a.embedding, b.embedding) >= {threshold}
)
"""


def sql_knn_self_join(k: int = 3) -> str:
    return f"""
WITH sims AS (
    SELECT a.vec_id, b.vec_id AS neighbor_id,
           list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]) AS s
    FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
),
ranked AS (
    SELECT *, row_number() OVER (PARTITION BY vec_id ORDER BY s DESC, neighbor_id ASC) AS r
    FROM sims
)
SELECT vec_id, neighbor_id, round(s, 5) AS cos_sim FROM ranked WHERE r <= {k}
"""


def sql_ivf_topk(k: int = 10) -> str:
    """With nprobe == n_centroids the IVF result equals exact top-k."""
    return f"""
SELECT e.vec_id,
       round(list_cosine_similarity(e.embedding::DOUBLE[],
             (SELECT embedding FROM embeddings WHERE vec_id = 0)::DOUBLE[]), 5) AS cos_sim
FROM embeddings e
ORDER BY cos_sim DESC, e.vec_id ASC LIMIT {k}
"""


def sql_langid() -> str:
    """Stopword-profile language ID — mirrors textstats.detect_language
    (instance hit-rate per language, argmax with first-of-sorted-langs
    tie-break, 'und' when every score is zero)."""
    langs = sorted(LANG_PROFILES)  # argmax tie-break order
    score_cols = []
    for lang in langs:
        words = ", ".join(f"'{w}'" for w in sorted(LANG_PROFILES[lang]))
        score_cols.append(
            f"len(list_filter(w, t -> t IN ({words})))::DOUBLE / greatest(len(w), 1) AS s_{lang}"
        )
    score_sql = ",\n           ".join(score_cols)
    best = "greatest(" + ", ".join(f"s_{lang}" for lang in langs) + ")"
    pred_cases = " ".join(f"WHEN s_{lang} = best THEN '{lang}'" for lang in langs)
    return f"""
WITH {_tok_cte()},
sc AS (
    SELECT doc_id,
           {score_sql}
    FROM toks
),
scored AS (SELECT *, {best} AS best FROM sc)
SELECT doc_id,
       CASE WHEN best = 0 THEN 'und' {pred_cases} END AS lang_pred,
       round(best, 6) AS lang_score
FROM scored
"""


def sql_rolling_fingerprint() -> str:
    """Order-sensitive Horner rolling hash over md5-based token hashes —
    mirrors textstats.fingerprint; final value converted to int64 two's
    complement to match the Arrow column."""
    half = 1 << 63
    return f"""
WITH {_tok_cte()},
th AS (
    SELECT doc_id,
           list_transform(w, t -> ('0x' || substr(md5(t), 1, 16))::UBIGINT::HUGEINT) AS hs
    FROM toks
),
r AS (
    SELECT doc_id,
           list_reduce(list_prepend(0::HUGEINT, hs),
                       (acc, h) -> xor((acc * {_ROLL_BASE}::HUGEINT) % {_M64}::HUGEINT, h)) AS v
    FROM th
)
SELECT doc_id,
       (CASE WHEN v >= {half}::HUGEINT THEN v - {_M64}::HUGEINT ELSE v END)::BIGINT AS rolling_hash
FROM r
"""


def sql_curate(threshold: float = 0.8) -> str:
    """End-to-end curation chain recomputed in SQL: MinHash near-dedup
    survivors (the full sketch chain from ``_minhash_sketch_cte``) ->
    Gopher-style repetition filter (rounded thresholds, mirroring
    textstats.repetition_stats) -> md5-prefix train/val/test split ->
    per-split (docs, tokens) rollup."""
    return rf"""
WITH {_minhash_sketch_cte(threshold)},
removed AS (SELECT DISTINCT hi AS doc_id FROM verified),
surv AS (
    SELECT doc_id, text FROM documents
    WHERE doc_id NOT IN (SELECT doc_id FROM removed)
),
rtoks AS (
    SELECT doc_id, text, regexp_extract_all(lower(text), '\S+') AS ts FROM surv
),
rbi AS (
    SELECT doc_id, text, ts,
           [ts[i] || ' ' || ts[i+1] FOR i IN generate_series(1, len(ts)-1)] AS bg
    FROM rtoks
),
rep AS (
    SELECT doc_id, text, len(ts) AS n_tokens,
           round(list_max(list_transform(list_distinct(ts),
                 u -> len(list_filter(ts, x -> x = u))))::DOUBLE
                 / greatest(len(ts), 1), 6) AS top_frac,
           round(CASE WHEN len(bg) = 0 THEN 0.0
                 ELSE 1.0 - len(list_distinct(bg))::DOUBLE / len(bg) END,
                 6) AS dup_frac
    FROM rbi
),
kept AS (
    SELECT doc_id, text, n_tokens FROM rep
    WHERE top_frac <= 0.12 AND dup_frac <= 0.05
)
SELECT CASE WHEN substr(md5(text), 1, 2) < 'cc' THEN 'train'
            WHEN substr(md5(text), 1, 2) < 'e6' THEN 'val'
            ELSE 'test' END AS split,
       count(*) AS n_docs,
       sum(n_tokens)::BIGINT AS total_tokens
FROM kept GROUP BY 1
"""


def _xorshift(expr: str, s: int) -> str:
    """uint64 ``x ^ (x >> s)`` on a HUGEINT-held value."""
    return f"xor({expr}, ({expr}) // (1::HUGEINT << {s}))"


def _mul64_mod(expr: str, const: int) -> str:
    """Low 64 bits of ``expr * const`` for a ~2**64 constant, via
    32-bit half products (a full INT128 product of two 64-bit operands
    overflows): lo64(a*b) = a_lo*b_lo + ((a_lo*b_hi + a_hi*b_lo) mod
    2**32) << 32, all mod 2**64."""
    b_lo, b_hi = const & 0xFFFFFFFF, const >> 32
    a = f"({expr})"
    return (
        f"((({a} % 4294967296) * {b_lo}::HUGEINT"
        f" + ((({a} % 4294967296) * {b_hi}::HUGEINT"
        f"     + ({a} // 4294967296) * {b_lo}::HUGEINT) % 4294967296)"
        f"   * 4294967296::HUGEINT) % {_M64}::HUGEINT)"
    )


def sql_approx_distinct_users(p: int = 9) -> str:
    """DuckDB re-computation of the full HyperLogLog chain in
    pipelines/approx.py:approx_distinct — FNV-1a over the value's
    decimal string, top-p register index, leading-zero rank via
    ``length(bin(w))`` (exact, no float log), max-merge per register,
    exact-integer 2**(scale-M) inner sum in HUGEINT, one double
    division, linear-counting small-range branch.  Constants and
    operation order mirror hll_estimate exactly."""
    m = 1 << p
    wp = 64 - p              # width of the rho field
    scale = wp + 1           # max register value; 2**(scale-M) integral
    alpha = f"(0.7213 / (1 + 1.079 / {m}.0))"
    _MIX_C1 = 0xFF51AFD7ED558CCD
    _MIX_C2 = 0xC4CEB9FE1A85EC53
    return f"""
WITH vals AS (
    SELECT DISTINCT event_type, user_id::VARCHAR AS s FROM events
),
h AS (
    SELECT event_type,
           list_reduce(
               list_prepend({_FNV_OFF}::HUGEINT,
                            list_transform(string_split_regex(s, ''),
                                           c -> unicode(c)::HUGEINT)),
               (acc, c) -> (xor(acc, c) * {_FNV_PRIME}::HUGEINT) % {_M64}::HUGEINT
           ) AS hv
    FROM vals
),
-- murmur3 fmix64 finalizer (mirrors approx._mix64): FNV-1a alone has
-- weak high-bit avalanche on short keys, which skews HLL registers.
-- The 64x64->low-64 multiply is split into 32-bit halves because the
-- full product of two ~2**64 operands overflows INT128.
mx1 AS (SELECT event_type, {_mul64_mod(_xorshift('hv', 33), _MIX_C1)} AS hv FROM h),
mx2 AS (SELECT event_type, {_mul64_mod(_xorshift('hv', 33), _MIX_C2)} AS hv FROM mx1),
mx AS (SELECT event_type, {_xorshift('hv', 33)} AS hv FROM mx2),
rr AS (
    SELECT event_type,
           (hv // (1::HUGEINT << {wp}))::INTEGER AS reg,
           hv % (1::HUGEINT << {wp}) AS w
    FROM mx
),
regs AS (
    SELECT event_type, reg,
           max(CASE WHEN w = 0 THEN {scale}
                    ELSE {wp} - length(bin(w::BIGINT)) + 1 END) AS mr
    FROM rr GROUP BY 1, 2
),
agg AS (
    SELECT event_type,
           sum(1::HUGEINT << ({scale} - mr)) AS s_present,
           count(*) AS n_present
    FROM regs GROUP BY 1
),
est AS (
    SELECT event_type,
           ({m} - n_present) AS v_zero,
           {alpha} * {m} * {m}
             / ((s_present + ({m} - n_present) * (1::HUGEINT << {scale}))::DOUBLE
                / (1::HUGEINT << {scale})::DOUBLE) AS e
    FROM agg
)
SELECT event_type,
       round(CASE WHEN e <= 2.5 * {m} AND v_zero > 0
                  THEN {m} * ln({m}.0 / v_zero) ELSE e END, 3) AS approx_distinct
FROM est
"""


def _kmeans_ctes(k: int, iters: int, scale: int, base: str = "embeddings") -> str:
    """CTE chain re-running pipelines/clustering.py's integer Lloyd's
    bit-for-bit: float64 quantization, md5-min seeds, exact BIGINT
    squared-distance argmin with (dist, cid) tie-break, truncated
    integer-division centroid update (DuckDB ``//`` truncates toward
    zero; the pipeline's _trunc_div mirrors that), empty clusters
    keeping their previous centroid.  ``iters`` update rounds plus the
    final assignment ``af`` — integer state makes the chain exact
    regardless of join/aggregation order."""

    def assign_cte(name: str, cfrom: str) -> str:
        return f"""{name} AS (
    SELECT vec_id, qv, cid FROM (
        SELECT e.vec_id, e.qv, c.cid,
               row_number() OVER (PARTITION BY e.vec_id ORDER BY
                   list_sum(list_transform(list_zip(e.qv, c.cv),
                                           p -> (p[1]-p[2])*(p[1]-p[2]))),
                   c.cid) AS rn
        FROM qz e CROSS JOIN {cfrom} c
    ) WHERE rn = 1
)"""

    ctes = [
        f"""qz AS (
    SELECT vec_id,
           list_transform(embedding, v -> (floor(v::DOUBLE * {scale} + 0.5))::BIGINT) AS qv
    FROM {base}
)""",
        f"""seeds AS (
    SELECT vec_id, qv,
           row_number() OVER (ORDER BY md5(vec_id::VARCHAR), vec_id) - 1 AS cid
    FROM qz QUALIFY cid < {k}
)""",
        "c0 AS (SELECT cid, qv AS cv FROM seeds)",
    ]
    for t in range(1, iters + 1):
        ctes.append(assign_cte(f"a{t}", f"c{t-1}"))
        ctes.append(
            f"""s{t} AS (
    SELECT cid, i, sum(v)::BIGINT AS sv
    FROM (SELECT cid, generate_subscripts(qv, 1) AS i, unnest(qv) AS v FROM a{t})
    GROUP BY cid, i
)"""
        )
        ctes.append(
            f"n{t} AS (SELECT cid, count(*)::BIGINT AS n FROM a{t} GROUP BY cid)"
        )
        ctes.append(
            f"""c{t} AS (
    SELECT prev.cid, coalesce(nc.cv, prev.cv) AS cv
    FROM c{t-1} prev LEFT JOIN (
        SELECT s.cid, list(s.sv // n.n ORDER BY s.i) AS cv
        FROM s{t} s JOIN n{t} n USING (cid) GROUP BY s.cid, n.n
    ) nc USING (cid)
)"""
        )
    ctes.append(assign_cte("af", f"c{iters}"))
    return ",\n".join(ctes)


def sql_kmeans_clusters(k: int = 8, iters: int = 4, scale: int = 1000) -> str:
    """Exact integer k-means assignment over the embeddings table."""
    return f"""
WITH {_kmeans_ctes(k, iters, scale)}
SELECT vec_id, cid::INTEGER AS cluster FROM af
"""


def sql_semdedup(
    k: int = 8, iters: int = 4, threshold: float = 0.98, scale: int = 1000
) -> str:
    """SemDeDup over the planted-copy augmentation: the SAME integer
    k-means chain (clusters are bit-identical between engines), then
    EXISTS within-cluster cosine removal — float compares rely on the
    planted-vs-natural threshold margin, like sql_embedding_neardup."""
    return f"""
WITH {EMB_AUG_CTE},
{_kmeans_ctes(k, iters, scale, base="aug")}
SELECT a.vec_id FROM af a
WHERE NOT EXISTS (
    SELECT 1
    FROM af b
    JOIN aug ea ON ea.vec_id = a.vec_id
    JOIN aug eb ON eb.vec_id = b.vec_id
    WHERE b.cid = a.cid AND b.vec_id < a.vec_id
      AND list_cosine_similarity(ea.embedding, eb.embedding) >= {threshold}
)
"""


def sql_text_search_bm25(k1: float = 1.2, b: float = 0.75) -> str:
    """BM25 recomputed from the documents table — same tokenizer
    contract as sql text_search (lowercase whitespace split, empties
    dropped), Lucene idf ``ln(1 + (N - df + 0.5)/(df + 0.5))``, N over
    ALL documents.  Float expressions mirror the pipeline's operator
    shape left-to-right (decimal literals 0.75 / 1.2 convert to the
    same doubles numpy uses; 0.75*dl is dyadic-exact in both engines);
    the one remaining per-doc sum over <= |terms| addends is the usual
    sub-ulp risk absorbed by round(..., 4)."""
    in_list = ", ".join(f"'{t}'" for t in sorted(BM25_TERMS))
    k1p1 = repr(k1 + 1.0)
    return f"""
WITH toks AS (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\\s+')) AS term
    FROM documents
),
tok2 AS (SELECT doc_id, term FROM toks WHERE term <> ''),
dlen AS (SELECT doc_id, count(*)::BIGINT AS dl FROM tok2 GROUP BY doc_id),
stats AS (
    SELECT (SELECT count(*) FROM documents)::BIGINT AS n_docs,
           (SELECT coalesce(sum(dl), 0) FROM dlen)::BIGINT AS total_len
),
tf AS (
    SELECT doc_id, term, count(*)::BIGINT AS tf
    FROM tok2 WHERE term IN ({in_list}) GROUP BY doc_id, term
),
df AS (SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term),
scored AS (
    SELECT t.doc_id,
           sum(ln(1 + (s.n_docs - d.df + 0.5) / (d.df + 0.5))
               * t.tf * {k1p1}
               / (t.tf + {k1} * ((1.0 - {b}) + {b} * l.dl
                                 / (s.total_len::DOUBLE / s.n_docs)))) AS raw
    FROM tf t JOIN df d USING (term) JOIN dlen l USING (doc_id) CROSS JOIN stats s
    GROUP BY t.doc_id
)
SELECT doc_id, round(raw, 4) AS score
FROM scored ORDER BY score DESC, doc_id ASC LIMIT {BM25_K}
"""


def sql_approx_quantiles() -> str:
    """Histogram-sketch quantiles recomputed in SQL: same float64 bin
    expression (operator order mirrored), integer counts, cumulative
    min-bin pick at rank ceil(q*n).  q casts ::DOUBLE — DuckDB decimal
    literals would compute 0.95*n exactly while numpy computes it in
    float64, and the two DISAGREE at integer boundaries (e.g.
    fl(0.95)*500 rounds above 475), so both engines must bin the rank
    in float64."""
    lo, bins, col = QUANTILE_LO, QUANTILE_BINS, QUANTILE_COL
    span = float(QUANTILE_HI) - float(lo)
    width = span / bins
    q_values = ", ".join(f"({q!r}::DOUBLE)" for q in QUANTILE_QS)
    return f"""
WITH vals AS (
    SELECT {col}::DOUBLE AS v FROM lineitem WHERE {col} IS NOT NULL
),
hist AS (
    SELECT least(greatest(floor((v - {lo!r}) / {span!r} * {bins})::BIGINT, 0),
                 {bins - 1}) AS bin,
           count(*)::BIGINT AS c
    FROM vals GROUP BY 1
),
tot AS (SELECT sum(c)::BIGINT AS n FROM hist),
cum AS (SELECT bin, sum(c) OVER (ORDER BY bin) AS cum FROM hist),
qv(q) AS (VALUES {q_values}),
pick AS (
    SELECT q, min(bin) AS bin
    FROM qv, cum, tot
    WHERE cum >= greatest(ceil(q * n), 1)
    GROUP BY q
)
SELECT q AS quantile, {lo!r} + (bin + 0.5) * {width!r} AS approx_value
FROM pick
"""


def sql_dup_ngram_frac(n: int = 5) -> str:
    """Cross-document duplicated-n-gram fraction: recomputes the FNV
    token hashes and the n-token shingle fold (sketch.shingle_hashes,
    including the whole-row short-document rule) in HUGEINT, then
    counts per doc the distinct shingles shared with >= 1 other doc.
    Mirrors catalog.trainprep.q_dup_ngram_frac bit-for-bit."""
    # windowed fold: acc = hs[i]; k=1..n-1: acc = (acc*B mod 2^64) xor hs[i+k]
    expr = "hs[i]"
    for k in range(1, n):
        expr = f"xor(({expr} * {_ROLL_BASE}::HUGEINT) % {_M64}::HUGEINT, hs[i+{k}])"
    return f"""
WITH {_tok_cte()}{_fnv_cte()},
sh AS (
    SELECT doc_id,
           CASE WHEN len(hs) >= {n} THEN
               list_transform(range(1, len(hs) - {n - 2}), i -> {expr})
           WHEN len(hs) > 0 THEN
               [list_reduce(list_prepend(0::HUGEINT, hs),
                            (acc, h) -> xor((acc * {_ROLL_BASE}::HUGEINT) % {_M64}::HUGEINT, h))]
           ELSE [] END AS sgl
    FROM th
),
grams AS (
    SELECT DISTINCT doc_id, g
    FROM (SELECT doc_id, unnest(sgl) AS g FROM sh WHERE len(sgl) > 0)
),
dup AS (
    SELECT g FROM grams GROUP BY g HAVING count(*) >= 2
)
SELECT gr.doc_id,
       count(*)::BIGINT AS n_grams,
       sum(CASE WHEN d.g IS NULL THEN 0 ELSE 1 END)::BIGINT AS n_dup_grams,
       round(sum(CASE WHEN d.g IS NULL THEN 0 ELSE 1 END)::DOUBLE / count(*), 6) AS dup_frac
FROM grams gr LEFT JOIN dup d USING (g)
GROUP BY gr.doc_id
"""


def sql_exact_substring_dedup(n: int = 5) -> str:
    """Exact-substring dedup (keep-first-occurrence, remove every other
    occurrence's tokens, rebuild docs): recomputes the FNV window-hash
    fold with POSITIONS, ranks every occurrence by (doc_id, position),
    and anti-joins tokens covered by any non-first occurrence's
    [p, p+n-1] interval.  Mirrors dedup.exact_substring_dedup
    bit-for-bit (lowercased tokens; docs left empty vanish)."""
    expr = "hs[i]"
    for k in range(1, n):
        expr = f"xor(({expr} * {_ROLL_BASE}::HUGEINT) % {_M64}::HUGEINT, hs[i+{k}])"
    return f"""
WITH {_tok_cte()}{_fnv_cte()},
grams AS (
    SELECT doc_id, u['p'] AS p, u['g'] AS g FROM (
        SELECT doc_id,
               unnest([{{'p': i, 'g': {expr}}}
                       FOR i IN generate_series(1, len(hs) - {n - 1})]) AS u
        FROM th WHERE len(hs) >= {n}
    )
),
ranked AS (
    SELECT doc_id, p,
           row_number() OVER (PARTITION BY g ORDER BY doc_id, p) AS rn
    FROM grams
),
dup AS (SELECT doc_id, p FROM ranked WHERE rn > 1),
tok AS (
    SELECT doc_id, u['i'] AS i, u['t'] AS t FROM (
        SELECT doc_id,
               unnest([{{'i': i, 't': w[i]}} FOR i IN generate_series(1, len(w))]) AS u
        FROM toks WHERE len(w) > 0
    )
),
kept AS (
    SELECT k.doc_id, k.i, k.t
    FROM tok k
    WHERE NOT EXISTS (
        SELECT 1 FROM dup d
        WHERE d.doc_id = k.doc_id AND k.i BETWEEN d.p AND d.p + {n - 1}
    )
)
SELECT doc_id,
       string_agg(t, ' ' ORDER BY i) AS clean_text,
       count(*)::BIGINT AS n_tokens_kept
FROM kept GROUP BY doc_id
"""


def sql_dsir_select(top_n: int = 50) -> str:
    """DSIR hashed-unigram importance selection: FNV token buckets,
    Laplace-smoothed target(lang='en')/raw count ratio quantized by
    integer division, per-doc int score sum, deterministic top-N —
    the whole chain re-derived in HUGEINT (mirrors
    catalog.trainprep.q_dsir_select; both engines do ``//`` on positive ints, so
    floor == trunc)."""
    return f"""
WITH {_tok_cte()}{_fnv_cte()},
tb AS (
    SELECT doc_id, unnest(hs) % {DSIR_BUCKETS} AS bucket FROM th
),
grid AS (SELECT unnest(range({DSIR_BUCKETS})) AS bucket),
cnt AS (
    SELECT g.bucket,
           coalesce(t.tc, 0) + 1 AS tbn,
           coalesce(r.rc, 0) + 1 AS rbn
    FROM grid g
    LEFT JOIN (
        SELECT tb.bucket, count(*) AS tc
        FROM tb JOIN documents USING (doc_id)
        WHERE lang = 'en' GROUP BY 1
    ) t ON g.bucket = t.bucket
    LEFT JOIN (SELECT bucket, count(*) AS rc FROM tb GROUP BY 1) r
        ON g.bucket = r.bucket
),
tot AS (SELECT sum(tbn)::HUGEINT AS tt, sum(rbn)::HUGEINT AS rt FROM cnt),
q AS (
    SELECT bucket,
           (tbn::HUGEINT * rt * {DSIR_SCALE}) // (rbn::HUGEINT * tt) AS qv
    FROM cnt, tot
),
sc AS (
    SELECT doc_id, sum(qv) AS score FROM tb JOIN q USING (bucket) GROUP BY 1
),
sc2 AS (
    SELECT d.doc_id, coalesce(s.score, 0)::BIGINT AS score
    FROM documents d LEFT JOIN sc s USING (doc_id)
)
SELECT doc_id, score,
       (row_number() OVER (ORDER BY score DESC, doc_id))::BIGINT AS rk
FROM sc2 ORDER BY score DESC, doc_id LIMIT {top_n}
"""


def sql_source_drift() -> str:
    """Per-source FNV-unigram histogram intersection vs the global
    corpus, in exact integer ppm (mirrors catalog.trainprep.q_source_drift —
    missing (source, bucket) pairs contribute min(0, ..) = 0, so the
    plain join over present pairs is exact)."""
    return f"""
WITH {_tok_cte()}{_fnv_cte()},
tb AS (
    SELECT doc_id, unnest(hs) % {DRIFT_BUCKETS} AS bucket FROM th
),
sb AS (
    SELECT d.source, tb.bucket, count(*)::HUGEINT AS c
    FROM tb JOIN documents d USING (doc_id) GROUP BY 1, 2
),
st AS (SELECT source, sum(c) AS cs FROM sb GROUP BY 1),
gb AS (SELECT bucket, sum(c) AS c FROM sb GROUP BY 1),
gt AS (SELECT sum(c) AS ct FROM gb),
inter AS (
    SELECT sb.source, sum(least(sb.c * gt.ct, gb.c * st.cs)) AS i
    FROM sb JOIN gb USING (bucket) JOIN st USING (source) CROSS JOIN gt
    GROUP BY 1
)
SELECT st.source, st.cs::BIGINT AS n_tokens,
       ((1000000::HUGEINT * i.i) // (st.cs * gt.ct))::BIGINT AS overlap_ppm
FROM st JOIN inter i USING (source) CROSS JOIN gt
ORDER BY source
"""
