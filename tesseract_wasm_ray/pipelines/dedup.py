"""Deduplication pipelines over a documents-style table.

Five dedup families (driver brief: first-class training-data operators):

- :func:`exact_dedup` — md5-of-text hash-partition + keep-min-id;
- :func:`minhash_lsh_dedup` — word-shingle MinHash -> banded LSH buckets
  -> signature-Jaccard verify vs the bucket representative;
- :func:`simhash_dedup` — 64-bit SimHash -> pigeonhole block buckets ->
  hamming-distance verify;
- :func:`ngram_jaccard_dedup` — MinHash-LSH candidates -> EXACT word
  n-gram Jaccard verification via pair joins back to the text;
- :func:`embedding_neardup` — random-hyperplane sign-LSH buckets ->
  exact cosine verify.

Scale shape (100 TB): every family is
``map_batches (sketch, vectorized) -> groupby(bucket) (the one
all-to-all, moving only small sketch rows — never full text except in
the exact-Jaccard verify joins, which move only candidate PAIRS) ->
anti-join of the dup-id set against the corpus (joins.member_filter:
broadcast is_in filter under one byte cap, bloom-routed bucketed filter
past it)``.  "Keep"
semantics are deterministic: the surviving row of a duplicate group is
the one with the minimum id.

Buckets are crc32-stable across processes (stages/reassemble.py
pattern), so re-runs produce identical partitions.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.arrow_util import bucket_ids
from ..functions.arrow_util import single_chunk as _single_chunk
from ..functions.sketch import (
    hamming_distance,
    lsh_band_keys,
    minhash_signatures,
    shingle_hashes,
    signature_jaccard,
    simhash_blocks,
)
from .joins import bucket_lookup_join, bucket_map_groups, member_filter


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def keep_min_by(
    ds: rd.Dataset, key_col: str, order_col: str, num_buckets: int = 64
) -> rd.Dataset:
    """Keep, per distinct ``key_col`` value, the single row with the
    minimum ``order_col`` (see :func:`keep_first_by` for multi-key /
    descending orderings)."""
    return keep_first_by(ds, key_col, [(order_col, "ascending")], num_buckets=num_buckets)


def keep_first_by(
    ds: rd.Dataset,
    key_col: str,
    sort_keys: list[tuple[str, str]],
    num_buckets: int = 64,
) -> rd.Dataset:
    """Keep, per distinct ``key_col`` value, the single row ranked first
    under ``sort_keys`` (a list of ``(column, "ascending"|"descending")``
    pairs — e.g. quality descending, id ascending for a
    best-representative pick).  Hash-bucket the key (bounded group
    count), one vectorized sort + boundary-take per bucket.  Input
    blocks are coalesced first (sort-shuffle cost is per-block,
    docs/RAY_NOTES.md §3).

    Keys must be non-null: a null key has no well-defined group and the
    boundary arithmetic would silently misgroup it — asserted loudly per
    batch (keys here are engine-generated, so a null means an upstream
    bug, not data).
    """

    def add_bucket(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col)
        if keys.null_count:
            raise ValueError(
                f"keep_min_by: {keys.null_count} null values in key column "
                f"{key_col!r} (keys must be non-null)"
            )
        b = bucket_ids(keys, num_buckets)
        return batch.append_column("__bucket", pa.array(b, pa.int32()))

    def first_per_key(group: pa.Table) -> pa.Table:
        t = group.sort_by([(key_col, "ascending"), *sort_keys])
        keys = _single_chunk(t.column(key_col))
        neq = pc.not_equal(keys.slice(1), keys.slice(0, len(keys) - 1)).to_numpy(
            zero_copy_only=False
        )
        starts = np.flatnonzero(np.r_[True, neq])
        return t.take(pa.array(starts, pa.int64()))

    return bucket_map_groups(
        ds.map_batches(add_bucket, batch_format="pyarrow"),
        "__bucket",
        first_per_key,
        coalesce=16,
    )


def exact_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 64,
) -> rd.Dataset:
    """Exact dedup on md5(text): one survivor (min id) per distinct text."""

    def add_md5(b: pa.Table) -> pa.Table:
        # md5 once per DISTINCT text per batch: on dup-heavy corpora
        # (the whole point of this operator) the dictionary is much
        # smaller than the row count.
        # fill_null BEFORE encoding: dictionary_encode propagates nulls
        # as null indices (the dictionary never contains them), so a
        # null text would otherwise become a null md5 key and trip
        # keep_min_by's non-null key check.  Null text hashes as ''.
        from ..functions.fastmd5 import md5_hex

        enc = _single_chunk(
            pc.dictionary_encode(pc.fill_null(_single_chunk(b.column(text_col)), ""))
        )
        md5s = pa.DictionaryArray.from_arrays(enc.indices, md5_hex(enc.dictionary))
        return b.append_column("md5", pc.cast(md5s, pa.string()))

    with_md5 = ds.map_batches(add_md5, batch_format="pyarrow")
    return keep_min_by(with_md5, "md5", id_col, num_buckets).drop_columns(["md5"])


# ---------------------------------------------------------------------------
# bucketed candidate machinery (MinHash / SimHash / embedding LSH)
# ---------------------------------------------------------------------------


# In-run pair evaluation regimes.  Up to PAIR_CAP the full L*(L-1)/2
# pair set is materialized at once (one vectorized verify call across
# all small runs).  Between PAIR_CAP and EXACT_RUN_CAP every pair is
# STILL evaluated — exactly the EXISTS semantics the SQL oracles use —
# but in memory-bounded chunks so a 16k-row run never materializes
# 10^8 index pairs at once.  Only beyond EXACT_RUN_CAP (a run of >16384
# rows sharing ONE sketch key — essentially identical documents) does
# the engine degrade to first-vs-rest + adjacent-chain pairs; that
# divergence window is documented on every dedup entry point and logged
# loudly when hit.
PAIR_CAP = 1024
EXACT_RUN_CAP = 16384
# Chunked evaluation targets about this many pairs per verify call.
_PAIR_CHUNK = 4_000_000


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``keys`` sorted ascending -> (starts, lens) of equal-key runs
    with length >= 2 (singleton runs produce no pairs)."""
    n = len(keys)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    new = np.r_[True, keys[1:] != keys[:-1]]
    starts = np.flatnonzero(new)
    lens = np.diff(np.r_[starts, n])
    multi = lens >= 2
    return starts[multi].astype(np.int64), lens[multi].astype(np.int64)


def _iter_run_pair_chunks(start: int, L: int):
    """Yield (lo_idx, hi_idx) absolute-index chunks covering ALL
    j < i pairs of a run of length ``L`` at ``start``, ~_PAIR_CHUNK
    pairs per chunk."""
    step = max(1, _PAIR_CHUNK // max(L, 1))
    for c0 in range(1, L, step):
        c1 = min(c0 + step, L)
        hi_rel = np.arange(c0, c1, dtype=np.int64)
        j = np.arange(c1 - 1, dtype=np.int64)
        J, I = np.meshgrid(j, hi_rel)
        m = J < I
        yield start + J[m], start + I[m]


def _chain_pairs(start: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Degraded candidate set for runs beyond EXACT_RUN_CAP:
    first-vs-rest plus adjacent-chain — O(L) pairs that keep every
    member linked to the run representative and its predecessor."""
    hi = start + 1 + np.arange(L - 1, dtype=np.int64)
    lo_first = np.full(L - 1, start, np.int64)
    lo_chain = start + np.arange(L - 1, dtype=np.int64)
    lo = np.concatenate([lo_first, lo_chain[1:]])
    hi = np.concatenate([hi, hi[1:]])
    return lo, hi


def _run_dup_rows(t: pa.Table, keys: np.ndarray, verify) -> np.ndarray:
    """Exact EXISTS dup detection: row i (within an equal-key run,
    sorted by id) is a duplicate iff ``verify`` links it to SOME
    smaller-id member of the run.  All pairs are evaluated for runs up
    to EXACT_RUN_CAP (chunked); see the regime comment above."""
    starts, lens = _runs(keys)
    dup_rows: list[np.ndarray] = []
    small_lo: list[np.ndarray] = []
    small_hi: list[np.ndarray] = []
    small_n = 0

    def flush_small():
        nonlocal small_n
        if not small_lo:
            return
        lo = np.concatenate(small_lo)
        hi = np.concatenate(small_hi)
        small_lo.clear()
        small_hi.clear()
        small_n = 0
        ok = verify(t, lo, hi)
        if ok.any():
            dup_rows.append(np.unique(hi[ok]))

    for s, L in zip(starts, lens):
        s, L = int(s), int(L)
        if L <= PAIR_CAP:
            a, b = np.triu_indices(L, k=1)
            small_lo.append(s + a)
            small_hi.append(s + b)
            small_n += len(a)
            if small_n >= _PAIR_CHUNK:
                flush_small()
            continue
        if L <= EXACT_RUN_CAP:
            for lo, hi in _iter_run_pair_chunks(s, L):
                ok = verify(t, lo, hi)
                if ok.any():
                    dup_rows.append(np.unique(hi[ok]))
            continue
        import logging

        logging.getLogger(__name__).warning(
            "dedup: key run of %d rows exceeds EXACT_RUN_CAP=%d; "
            "degrading to first+chain candidate pairs for this run",
            L, EXACT_RUN_CAP,
        )
        lo, hi = _chain_pairs(s, L)
        ok = verify(t, lo, hi)
        if ok.any():
            dup_rows.append(np.unique(hi[ok]))
    flush_small()
    if not dup_rows:
        return np.empty(0, np.int64)
    return np.unique(np.concatenate(dup_rows))


def _run_verified_pairs(
    t: pa.Table, keys: np.ndarray, verify
) -> tuple[np.ndarray, np.ndarray]:
    """Verified (lo_idx, hi_idx) pairs per equal-key run, for the
    pair-emitting consumers (connected components, ngram exact verify).

    Runs <= PAIR_CAP emit every verified pair.  Larger runs (up to
    EXACT_RUN_CAP) still EVALUATE every pair, but emit only a spanning
    representation — member -> root of its verified-subgraph component
    within the run (local union-find) — which preserves global
    connectivity exactly while keeping the output O(run) instead of
    O(run^2).  Beyond EXACT_RUN_CAP: verified first+chain pairs
    (logged; see regime comment)."""
    starts, lens = _runs(keys)
    lo_out: list[np.ndarray] = []
    hi_out: list[np.ndarray] = []
    small_lo: list[np.ndarray] = []
    small_hi: list[np.ndarray] = []
    small_n = 0

    def flush_small():
        nonlocal small_n
        if not small_lo:
            return
        lo = np.concatenate(small_lo)
        hi = np.concatenate(small_hi)
        small_lo.clear()
        small_hi.clear()
        small_n = 0
        ok = verify(t, lo, hi)
        if ok.any():
            lo_out.append(lo[ok])
            hi_out.append(hi[ok])

    for s, L in zip(starts, lens):
        s, L = int(s), int(L)
        if L <= PAIR_CAP:
            a, b = np.triu_indices(L, k=1)
            small_lo.append(s + a)
            small_hi.append(s + b)
            small_n += len(a)
            if small_n >= _PAIR_CHUNK:
                flush_small()
            continue
        if L <= EXACT_RUN_CAP:
            # Local union-find over verified pairs; roots are the
            # smallest member of each verified component.
            parent = np.arange(L, dtype=np.int64)

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for lo, hi in _iter_run_pair_chunks(s, L):
                ok = verify(t, lo, hi)
                for a_, b_ in zip((lo[ok] - s), (hi[ok] - s)):
                    ra, rb = find(int(a_)), find(int(b_))
                    if ra != rb:
                        lo_r, hi_r = (ra, rb) if ra < rb else (rb, ra)
                        parent[hi_r] = lo_r
            roots = np.array([find(i) for i in range(L)], dtype=np.int64)
            member = np.flatnonzero(roots != np.arange(L))
            if len(member):
                lo_out.append(s + roots[member])
                hi_out.append(s + member)
            continue
        import logging

        logging.getLogger(__name__).warning(
            "dedup pairs: key run of %d rows exceeds EXACT_RUN_CAP=%d; "
            "degrading to first+chain candidate pairs for this run",
            L, EXACT_RUN_CAP,
        )
        lo, hi = _chain_pairs(s, L)
        ok = verify(t, lo, hi)
        if ok.any():
            lo_out.append(lo[ok])
            hi_out.append(hi[ok])
    flush_small()
    if not lo_out:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(lo_out), np.concatenate(hi_out)


def _dup_ids_from_buckets(
    bucket_rows: rd.Dataset,
    key_col: str,
    id_col: str,
    verify,
    num_buckets: int = 64,
    id_type: pa.DataType | None = None,
) -> rd.Dataset:
    """Generic LSH dup-finder.  ``bucket_rows`` has (key_col, id_col,
    payload...).  Rows sharing a key are candidates; ``verify(group_tbl,
    lo_idx, hi_idx) -> bool mask`` confirms each candidate pair.  A row
    is a duplicate iff some verified pair links it to a SMALLER id
    (EXISTS semantics — the serial golden oracle in golden_dedup.py and
    the SQL oracles reproduce this exactly).  The min id of every
    confirmed group always survives.  Returns distinct dup ids."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        bk = bucket_ids(batch.column(key_col), num_buckets)
        return batch.append_column("__bucket", pa.array(bk, pa.int32()))

    def find_dups(group: pa.Table) -> pa.Table:
        t = group.sort_by([(key_col, "ascending"), (id_col, "ascending")])
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        dup_rows = _run_dup_rows(t, keys, verify)
        if len(dup_rows) == 0:
            return pa.table({id_col: pa.array([], t.column(id_col).type)})
        return pa.table({id_col: _single_chunk(t.column(id_col)).take(pa.array(dup_rows, pa.int64()))})

    dups = bucket_map_groups(
        bucket_rows.map_batches(add_bucket, batch_format="pyarrow"),
        "__bucket",
        find_dups,
        coalesce=min(num_buckets, 32),
    )
    # An id can be flagged by several bands/blocks — dedupe the dup list.
    deduped = keep_min_by(dups.map_batches(
        lambda b: b.append_column("__one", pa.array(np.zeros(b.num_rows, np.int8))),
        batch_format="pyarrow",
    ), id_col, "__one").drop_columns(["__one"])
    if id_type is not None:
        # Empty groupby partitions emit 0-row blocks with an EMPTY
        # schema, which breaks the downstream anti-join ("no match for
        # FieldRef").  Normalize every block to the typed id schema and
        # union a typed seed block so even an all-empty dataset joins.
        def normalize(b: pa.Table) -> pa.Table:
            if b.num_rows == 0 or id_col not in b.column_names:
                return pa.table({id_col: pa.array([], id_type)})
            return b.select([id_col])

        seed = rd.from_arrow(pa.table({id_col: pa.array([], id_type)}))
        deduped = seed.union(deduped.map_batches(normalize, batch_format="pyarrow"))
    return deduped


def _sig_matrix(t: pa.Table, col: str) -> np.ndarray:
    arr = _single_chunk(t.column(col))
    k = arr.type.list_size
    return np.asarray(arr.values).reshape(-1, k)




def candidate_pairs_from_buckets(
    bucket_rows: rd.Dataset,
    key_col: str,
    id_col: str,
    verify,
    num_buckets: int = 64,
) -> rd.Dataset:
    """(id, rep_id) candidate pairs with id > rep_id: all index pairs
    within each equal-key run (_run_verified_pairs — exact EXISTS up to
    EXACT_RUN_CAP, spanning representation for huge runs), screened by
    ``verify(group_tbl, lo_idx, hi_idx)``.  Shared machinery for
    pair-based clustering (ngram exact verify, connected components)."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        bk = bucket_ids(batch.column(key_col), num_buckets)
        return batch.append_column("__bucket", pa.array(bk, pa.int32()))

    def pairs_of(group: pa.Table) -> pa.Table:
        t = group.sort_by([(key_col, "ascending"), (id_col, "ascending")])
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        lo, hi = _run_verified_pairs(t, keys, verify)
        if len(hi) == 0:
            return pa.table(
                {id_col: pa.array([], t.column(id_col).type),
                 "rep_id": pa.array([], t.column(id_col).type)}
            )
        ids = _single_chunk(t.column(id_col))
        return pa.table(
            {
                id_col: ids.take(pa.array(hi, pa.int64())),
                "rep_id": ids.take(pa.array(lo, pa.int64())),
            }
        )

    return bucket_map_groups(
        bucket_rows.map_batches(add_bucket, batch_format="pyarrow"),
        "__bucket",
        pairs_of,
        coalesce=min(num_buckets, 32),
    )


def cluster_components(
    pairs: rd.Dataset,
    id_col: str,
    id_type: pa.DataType,
    max_driver_pairs: int = 500_000,
    num_buckets: int = 64,
    max_rounds: int = 64,
) -> rd.Dataset:
    """Connected components over candidate pairs -> dup ids (everything
    except the min id of each component).  Transitive chains A~B~C
    collapse to ONE survivor even when A and C never share a bucket.

    Two strategies, same deterministic output:

    - pair sets <= ``max_driver_pairs``: driver-side union-find (the
      pair stream is sketch-sized, tiny next to the corpus);
    - beyond that: DISTRIBUTED iterative min-label propagation — each
      round resolves every edge endpoint's current label with a bucketed
      lookup join and takes the per-node min (keep_min_by).  Labels only
      decrease, so the int64-sum watermark detects convergence without a
      diff join; rounds are O(component diameter), which for near-dup
      clusters is small.  No driver state beyond a per-round scalar."""
    pairs = pairs.materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        return rd.from_arrow(pa.table({id_col: pa.array([], id_type)}))
    if n_pairs > max_driver_pairs:
        return _components_distributed(pairs, id_col, id_type, num_buckets, max_rounds)
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            # Deterministic: smaller id becomes the root.
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            parent[hi] = lo

    for b in pairs.iter_batches(batch_format="pyarrow", batch_size=65536):
        if b.num_rows == 0 or id_col not in b.column_names:
            continue
        for a_, r_ in zip(b[id_col].to_pylist(), b["rep_id"].to_pylist()):
            parent.setdefault(a_, a_)
            parent.setdefault(r_, r_)
            union(a_, r_)
    dups = [x for x in parent if find(x) != x]
    return rd.from_arrow(pa.table({id_col: pa.array(sorted(dups), id_type)}))


def _components_distributed(
    pairs: rd.Dataset,
    id_col: str,
    id_type: pa.DataType,
    num_buckets: int,
    max_rounds: int,
) -> rd.Dataset:
    """Iterative min-label propagation: label(x) <- min(label(x),
    min_{(x,y) in edges} label(y)) until no label changes.  Every step is
    a bucketed task shuffle over edge/label rows (sketch-sized — never
    the corpus); the driver holds only a per-round changed-count."""

    def normalize(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or id_col not in b.column_names:
            return pa.table({id_col: pa.array([], id_type), "rep_id": pa.array([], id_type)})
        return pa.table(
            {
                id_col: pc.cast(_single_chunk(b.column(id_col)), id_type),
                "rep_id": pc.cast(_single_chunk(b.column("rep_id")), id_type),
            }
        )

    p = pairs.map_batches(normalize, batch_format="pyarrow")
    edges = (
        p.map_batches(
            lambda b: pa.table({"u": b.column(id_col), "v": b.column("rep_id")}),
            batch_format="pyarrow",
        )
        .union(
            p.map_batches(
                lambda b: pa.table({"u": b.column("rep_id"), "v": b.column(id_col)}),
                batch_format="pyarrow",
            )
        )
        .materialize()
    )
    # Initial labels: every node labels itself (symmetric edges cover all
    # nodes on the u side).
    labels = keep_min_by(
        edges.map_batches(
            lambda b: pa.table(
                {"node": b.column("u"), "label": b.column("u"),
                 "__one": pa.array(np.zeros(b.num_rows, np.int8))}
            ),
            batch_format="pyarrow",
        ),
        "node", "__one", num_buckets=num_buckets,
    ).map_batches(lambda b: b.select(["node", "label"]), batch_format="pyarrow").materialize()

    def min_per_node(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("node", "ascending"), ("label", "ascending"), ("__src", "ascending")]
        )
        nodes = t.column("node").to_numpy(zero_copy_only=False)
        first = np.r_[True, nodes[1:] != nodes[:-1]] if len(nodes) else np.empty(0, bool)
        return t.take(pa.array(np.flatnonzero(first), pa.int64()))

    def add_b(b: pa.Table) -> pa.Table:
        bk = bucket_ids(_single_chunk(b.column("node")), num_buckets)
        return b.append_column("__b", pa.array(bk, pa.int32()))

    changed = -1
    for _ in range(max_rounds):
        nbr = bucket_lookup_join(
            edges, labels, "v", "node", "label", "cand", num_buckets=num_buckets
        ).map_batches(
            lambda b: pa.table(
                {"node": b.column("u"),
                 "label": b.column("cand"),
                 "__src": pa.array(np.ones(b.num_rows, np.int8))}
            ),
            batch_format="pyarrow",
        )
        # Pointer doubling: label(x) <- label(label(x)).  Labels are
        # always node ids (they propagate from self-labels), so the
        # lookup hits; coalesce guards the degenerate empty join.
        # Halves the remaining chain depth every round, so convergence
        # is O(log diameter) and max_rounds is effectively unreachable.
        hop = bucket_lookup_join(
            labels, labels, "label", "node", "label", "cand", num_buckets=num_buckets
        ).map_batches(
            lambda b: pa.table(
                {"node": b.column("node"),
                 "label": pc.coalesce(b.column("cand"), b.column("label")),
                 "__src": pa.array(np.ones(b.num_rows, np.int8))}
            ),
            batch_format="pyarrow",
        )
        self_rows = labels.map_batches(
            lambda b: b.append_column("__src", pa.array(np.zeros(b.num_rows, np.int8))),
            batch_format="pyarrow",
        )
        merged = bucket_map_groups(
            self_rows.union(nbr).union(hop).map_batches(add_b, batch_format="pyarrow"),
            "__b",
            min_per_node,
            coalesce=16,
        ).materialize()
        # Ties sort the self row (__src=0) first, so a winning __src=1 row
        # means the label strictly decreased this round.
        changed = merged.sum("__src", ignore_nulls=True) or 0
        labels = merged.map_batches(
            lambda b: b.select(["node", "label"]), batch_format="pyarrow"
        ).materialize()
        if changed == 0:
            break
    else:
        # Silent under-merging would emit a WRONG dup set (components
        # with diameter > max_rounds stay split) — fail loudly instead.
        raise RuntimeError(
            f"cluster_components: min-label propagation did not converge "
            f"after {max_rounds} rounds ({changed} labels still changing)"
        )
    dups = labels.map_batches(
        lambda b: b.filter(
            pc.invert(pc.equal(b.column("node"), b.column("label")))
        ).select(["node"]).rename_columns([id_col]),
        batch_format="pyarrow",
    )
    seed = rd.from_arrow(pa.table({id_col: pa.array([], id_type)}))
    return seed.union(dups)


def minhash_band_rows(
    ds: rd.Dataset,
    text_col: str,
    id_col: str,
    k: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
) -> rd.Dataset:
    """(id, band_key, sig) rows — ``bands`` rows per input row.  Only
    ids + sketches leave the map stage; text stays columnar-pruned out."""
    rows_per_band = k // bands

    def sketch(batch: pa.Table) -> pa.Table:
        texts = _single_chunk(batch.column(text_col))
        sh, par, n = shingle_hashes(texts, n=shingle_n)
        sig = minhash_signatures(sh, par, n, k=k)
        # Rows with zero shingles (empty/whitespace-only docs) all share
        # the sentinel signature — they must never become candidates
        # (near-dup semantics; exact_dedup handles identical empties).
        present = np.zeros(n, dtype=bool)
        if len(par):
            present[np.unique(par)] = True
        sig = sig[present]
        n = int(present.sum())
        keys = lsh_band_keys(sig, bands, rows_per_band)  # (n, bands)
        ids = pc.take(batch.column(id_col), pa.array(np.flatnonzero(present), pa.int64()))
        out_ids = pc.take(ids, pa.array(np.repeat(np.arange(n), bands), pa.int64()))
        sig32 = (sig & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        sig_rep = np.repeat(sig32, bands, axis=0)
        sig_col = pa.FixedSizeListArray.from_arrays(
            pa.array(sig_rep.ravel(), pa.uint32()), k
        )
        return pa.table(
            {
                id_col: _single_chunk(out_ids),
                "band_key": pa.array(keys.ravel(), pa.int64()),
                "sig": sig_col,
            }
        )

    return ds.map_batches(sketch, batch_format="pyarrow")


def minhash_lsh_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    k: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    num_buckets: int = 64,
    cluster: str = "bucket",  # "bucket" | "components"
) -> rd.Dataset:
    """MinHash+LSH near-dup removal: keep one survivor (min id) per
    group of docs whose estimated shingle-Jaccard ≥ ``threshold``.

    ``cluster="bucket"`` (default) drops non-representative members per
    band-bucket group — fast, but a transitive chain A~B~C whose ends
    never share a band can keep both A and C.  ``cluster="components"``
    builds verified candidate pairs and collapses each CONNECTED
    COMPONENT to its min id (cluster_components)."""
    band_rows = minhash_band_rows(ds, text_col, id_col, k, bands, shingle_n)

    def verify(t: pa.Table, rep_idx: np.ndarray, member_idx: np.ndarray) -> np.ndarray:
        sig = _sig_matrix(t, "sig")
        return signature_jaccard(sig[member_idx], sig[rep_idx]) >= threshold

    id_type = ds.schema().base_schema.field(id_col).type
    if cluster == "components":
        pairs = candidate_pairs_from_buckets(
            band_rows, "band_key", id_col, verify, num_buckets
        )
        dup_ids = cluster_components(pairs, id_col, id_type)
    else:
        dup_ids = _dup_ids_from_buckets(
            band_rows, "band_key", id_col, verify, num_buckets, id_type=id_type
        )
    return member_filter(ds, dup_ids, id_col, keep=False)


def simhash_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_hamming: int = 3,
    num_buckets: int = 64,
) -> rd.Dataset:
    """SimHash near-dup removal: 4-block pigeonhole candidates (complete
    for hamming ≤ 3), verified by exact hamming distance."""
    n_blocks = 4

    def sketch(batch: pa.Table) -> pa.Table:
        texts = _single_chunk(batch.column(text_col))
        # Tokenize ONCE (token hashing dominates sketch cost): signature
        # and presence mask both derive from the same token stream.
        from ..functions.sketch import simhash_from_tokens, token_hashes

        th, tpar, tn = token_hashes(texts)
        sig = simhash_from_tokens(th, tpar, tn)
        # Token-less docs share the all-zero signature — exclude them
        # from candidacy (same rationale as the MinHash sentinel rows).
        present = np.zeros(tn, dtype=bool)
        if len(tpar):
            present[np.unique(tpar)] = True
        sig = sig[present]
        n = len(sig)
        blocks = simhash_blocks(sig, n_blocks)  # (n, 4)
        # Namespace each block position so block i only matches block i.
        keyed = blocks + (np.arange(n_blocks, dtype=np.int64) << 48)[None, :]
        pres_ids = pc.take(
            batch.column(id_col), pa.array(np.flatnonzero(present), pa.int64())
        )
        ids = pc.take(
            pres_ids, pa.array(np.repeat(np.arange(n), n_blocks), pa.int64())
        )
        return pa.table(
            {
                id_col: _single_chunk(ids),
                "block_key": pa.array(keyed.ravel(), pa.int64()),
                "sim": pa.array(np.repeat(sig.view(np.int64), n_blocks), pa.int64()),
            }
        )

    rows = ds.map_batches(sketch, batch_format="pyarrow")

    def verify(t: pa.Table, rep_idx: np.ndarray, member_idx: np.ndarray) -> np.ndarray:
        sim = t.column("sim").to_numpy(zero_copy_only=False).view(np.uint64)
        return hamming_distance(sim[member_idx], sim[rep_idx]) <= max_hamming

    id_type = ds.schema().base_schema.field(id_col).type
    dup_ids = _dup_ids_from_buckets(
        rows, "block_key", id_col, verify, num_buckets, id_type=id_type
    )
    return member_filter(ds, dup_ids, id_col, keep=False)


def ahash_image_dedup(
    ds: rd.Dataset,
    id_col: str = "media_ref",
    max_hamming: int = 3,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Perceptual-hash image near-dup removal (the multimodal sibling of
    simhash_dedup): each raster row (pixels/width/height/channels)
    sketches to a 64-bit average-hash (stages.multimodal.ahash64 —
    integer-exact, so re-encoded or low-amplitude-perturbed copies land
    within a few bits), candidates come from the same 4-block
    pigeonhole keys (complete for hamming <= 3), and verified dups
    (EXISTS a smaller-id image within ``max_hamming`` bits) are
    anti-joined away.  Only (id, block_key, sig) int rows shuffle — the
    pixel payloads never leave their map task."""
    from ..functions.sketch import hamming_distance, simhash_blocks
    from ..stages.multimodal import ahash64

    n_blocks = 4

    def sketch(batch: pa.Table) -> pa.Table:
        sig = ahash64(batch)
        n = len(sig)
        blocks = simhash_blocks(sig, n_blocks)
        keyed = blocks + (np.arange(n_blocks, dtype=np.int64) << 48)[None, :]
        ids = pc.take(
            batch.column(id_col), pa.array(np.repeat(np.arange(n), n_blocks), pa.int64())
        )
        return pa.table(
            {
                id_col: _single_chunk(ids),
                "block_key": pa.array(keyed.ravel(), pa.int64()),
                "sim": pa.array(np.repeat(sig.view(np.int64), n_blocks), pa.int64()),
            }
        )

    rows = ds.map_batches(sketch, batch_format="pyarrow")

    def verify(t: pa.Table, rep_idx: np.ndarray, member_idx: np.ndarray) -> np.ndarray:
        sim = t.column("sim").to_numpy(zero_copy_only=False).view(np.uint64)
        return hamming_distance(sim[member_idx], sim[rep_idx]) <= max_hamming

    id_type = ds.schema().base_schema.field(id_col).type
    dup_ids = _dup_ids_from_buckets(
        rows, "block_key", id_col, verify, num_buckets, id_type=id_type
    )
    return member_filter(ds, dup_ids, id_col, keep=False)


def _pair_jaccard(text_a: pa.Array, text_b: pa.Array, shingle_n: int) -> np.ndarray:
    """Exact word-shingle-set Jaccard per aligned (text_a[i], text_b[i])
    pair — fully vectorized: distinct shingles per row via np.unique over
    (row, hash), intersection via duplicate detection on the merged sorted
    stream.  Two shingle-less docs score 0 (exact dedup owns identical
    empties)."""
    ha, par_a, n = shingle_hashes(text_a, shingle_n)
    hb, par_b, _ = shingle_hashes(text_b, shingle_n)
    A = np.unique(np.stack([par_a, ha.view(np.int64)], axis=1), axis=0) if len(ha) else np.empty((0, 2), np.int64)
    B = np.unique(np.stack([par_b, hb.view(np.int64)], axis=1), axis=0) if len(hb) else np.empty((0, 2), np.int64)
    na = np.bincount(A[:, 0], minlength=n) if len(A) else np.zeros(n, np.int64)
    nb = np.bincount(B[:, 0], minlength=n) if len(B) else np.zeros(n, np.int64)
    C = np.concatenate([A, B])
    inter = np.zeros(n, np.int64)
    if len(C):
        order = np.lexsort((C[:, 1], C[:, 0]))
        C = C[order]
        dup = (C[1:] == C[:-1]).all(axis=1)
        if dup.any():
            inter = np.bincount(C[:-1][dup][:, 0], minlength=n)
    union = na + nb - inter
    return np.where(union > 0, inter / np.maximum(union, 1), 0.0)


def ngram_jaccard_dedup(
    ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    shingle_n: int = 3,
    num_buckets: int = 64,
) -> rd.Dataset:
    """EXACT word n-gram Jaccard dedup.  Candidates come from MinHash
    LSH (cheap, sketch-only shuffle) with a permissive signature screen
    at half the threshold; every candidate pair is then verified with
    the exact shingle-set Jaccard.  A doc is removed iff some verified
    pair links it to a smaller id (EXISTS semantics — the DuckDB oracle
    reproduces this as an O(pairs) shingle self-join).

    Scale shape: each candidate pair explodes into two (pair, side, key)
    rows; ONE bucketed task-shuffle join (joins.bucket_lookup_join)
    resolves both texts, and a second tiny shuffle regroups the pair
    rows (bucketed by the pair's member id) for the vectorized exact
    verify — no driver-side pair materialization, no id->text broadcast
    dict.  The regroup's first-of-run dedupe also collapses the same
    pair surfacing from several LSH bands, so no separate pair-dedupe
    shuffle is needed (EXISTS semantics tolerate duplicates; deduping
    just avoids repeated verify work)."""

    band_rows = minhash_band_rows(ds, text_col, id_col, k=64, bands=16, shingle_n=shingle_n)
    screen = threshold * 0.5

    def verify(t: pa.Table, lo_idx: np.ndarray, hi_idx: np.ndarray) -> np.ndarray:
        sig = _sig_matrix(t, "sig")
        return signature_jaccard(sig[hi_idx], sig[lo_idx]) >= screen

    pairs = candidate_pairs_from_buckets(
        band_rows, "band_key", id_col, verify, num_buckets
    )
    id_type = ds.schema().base_schema.field(id_col).type

    def explode_pairs(b: pa.Table) -> pa.Table:
        empty = pa.schema(
            [("__key", id_type), ("__pid", id_type), ("__prep", id_type),
             ("__side", pa.int8())]
        ).empty_table()
        if b.num_rows == 0 or id_col not in b.column_names:
            return empty
        did = _single_chunk(pc.cast(b.column(id_col), id_type))
        rid = _single_chunk(pc.cast(b.column("rep_id"), id_type))
        n = len(did)
        return pa.table(
            {
                "__key": pa.concat_arrays([did, rid]),
                "__pid": pa.concat_arrays([did, did]),
                "__prep": pa.concat_arrays([rid, rid]),
                "__side": pa.array(
                    np.concatenate([np.ones(n, np.int8), np.zeros(n, np.int8)])
                ),
            }
        )

    texts = ds.map_batches(
        lambda b: b.select([id_col, text_col]), batch_format="pyarrow"
    )
    with_text = bucket_lookup_join(
        pairs.map_batches(explode_pairs, batch_format="pyarrow"),
        texts, "__key", id_col, text_col, "__t",
        num_buckets=num_buckets,
        # Explicit schema: with zero candidate pairs Ray has no block to
        # infer it from.
        left_schema=pa.schema(
            [("__key", id_type), ("__pid", id_type), ("__prep", id_type),
             ("__side", pa.int8())]
        ),
        value_type=pa.string(),
    )

    def add_pair_bucket(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or "__pid" not in b.column_names:
            # Empty blocks can arrive schema-less (Ray 2.49 quirk).
            return pa.schema(
                [("__key", id_type), ("__pid", id_type), ("__prep", id_type),
                 ("__side", pa.int8()), ("__t", pa.string()),
                 ("__pb", pa.int32())]
            ).empty_table()
        bk = bucket_ids(_single_chunk(b.column("__pid")), num_buckets)
        return b.append_column("__pb", pa.array(bk, pa.int32()))

    def verify_group(group: pa.Table) -> pa.Table:
        t = group.sort_by(
            [("__pid", "ascending"), ("__prep", "ascending"), ("__side", "ascending")]
        )
        # First-of-run dedupe over (pid, prep, side): the same pair can
        # arrive once per colliding LSH band.
        pid = _single_chunk(t.column("__pid"))
        prep = _single_chunk(t.column("__prep"))
        side = t.column("__side").to_numpy(zero_copy_only=False)
        new = np.r_[
            True,
            pc.not_equal(pid.slice(1), pid.slice(0, len(pid) - 1)).to_numpy(zero_copy_only=False)
            | pc.not_equal(prep.slice(1), prep.slice(0, len(prep) - 1)).to_numpy(zero_copy_only=False)
            | (side[1:] != side[:-1]),
        ]
        t = t.take(pa.array(np.flatnonzero(new), pa.int64()))
        side = t.column("__side").to_numpy(zero_copy_only=False)
        # Rows now alternate side0 (rep), side1 (member) per pair.  An
        # explicit raise (NOT assert — stripped under ``python -O``): a
        # violation means a join dropped one side and rep/member texts
        # would silently misalign, computing Jaccard over wrong pairs.
        if t.num_rows % 2 != 0 or not (
            (side[0::2] == 0).all() and (side[1::2] == 1).all()
        ):
            raise ValueError(
                "ngram verify: pair rows lost side-0/side-1 alternation "
                f"({t.num_rows} rows) — a pair side was dropped upstream"
            )
        texts_col = pc.fill_null(_single_chunk(t.column("__t")), "")
        ta = texts_col.take(pa.array(np.arange(1, t.num_rows, 2), pa.int64()))
        tb = texts_col.take(pa.array(np.arange(0, t.num_rows, 2), pa.int64()))
        jac = _pair_jaccard(ta, tb, shingle_n)
        member_ids = _single_chunk(t.column("__pid")).take(
            pa.array(np.arange(1, t.num_rows, 2), pa.int64())
        )
        return pa.table({id_col: member_ids.filter(pa.array(jac >= threshold))})

    dup_ids = bucket_map_groups(
        with_text.map_batches(add_pair_bucket, batch_format="pyarrow"),
        "__pb",
        verify_group,
    )
    return member_filter(ds, dup_ids, id_col, keep=False)


def embedding_neardup(
    ds: rd.Dataset,
    emb_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    planes: int = 12,
    n_tables: int = 8,
    seed: int = 11,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Embedding-cosine near-dup removal: BANDED random-hyperplane
    sign-LSH (``n_tables`` independent tables of ``planes`` bits each —
    LSH amplification: a true pair at cosine c collides in at least one
    table with prob 1-(1-(1-acos(c)/pi)^planes)^n_tables, ~1-5e-6 at
    c=0.99), exact cosine verify over every in-bucket pair (EXISTS
    semantics — removal means a smaller-id vector with cosine >=
    threshold was found, which the DuckDB O(n^2) oracle reproduces).
    The hyperplane matrix is seeded and rebuilt in every task (tiny) —
    no state to ship.  Unit vectors travel float32 to halve the one
    sketch shuffle."""

    def sketch(batch: pa.Table) -> pa.Table:
        emb = _single_chunk(batch.column(emb_col))
        n = len(emb)
        dim = len(emb[0]) if n else 0
        mat = np.asarray(emb.values, dtype=np.float64).reshape(n, dim) if n else np.zeros((0, 0))
        rng = np.random.default_rng(seed)
        planes_m = (
            rng.standard_normal((dim, n_tables * planes)) if dim else np.zeros((0, n_tables * planes))
        )
        bits = (mat @ planes_m > 0).astype(np.uint64).reshape(n, n_tables, planes)
        keys = (bits << np.arange(planes, dtype=np.uint64)[None, None, :]).sum(
            axis=2, dtype=np.uint64
        )  # (n, n_tables)
        # Namespace each table so table i only matches table i.
        keys = keys | (np.arange(n_tables, dtype=np.uint64)[None, :] << np.uint64(48))
        norms = np.linalg.norm(mat, axis=1)
        unit = (mat / np.maximum(norms, 1e-12)[:, None]).astype(np.float32)
        ids_rep = pc.take(
            batch.column(id_col),
            pa.array(np.repeat(np.arange(n), n_tables), pa.int64()),
        )
        unit_rep = np.repeat(unit, n_tables, axis=0)
        return pa.table(
            {
                id_col: _single_chunk(ids_rep),
                "plane_key": pa.array(keys.ravel().view(np.int64), pa.int64()),
                "unit": pa.FixedSizeListArray.from_arrays(
                    pa.array(unit_rep.ravel(), pa.float32()), dim
                ),
            }
        )

    rows = ds.map_batches(sketch, batch_format="pyarrow")

    def verify(t: pa.Table, lo_idx: np.ndarray, hi_idx: np.ndarray) -> np.ndarray:
        unit = _single_chunk(t.column("unit"))
        dim = unit.type.list_size
        m = np.asarray(unit.values, dtype=np.float64).reshape(-1, dim)
        cos = (m[hi_idx] * m[lo_idx]).sum(axis=1)
        return cos >= threshold

    dup_ids = _dup_ids_from_buckets(
        rows, "plane_key", id_col, verify, num_buckets,
        id_type=ds.schema().base_schema.field(id_col).type,
    )
    # member_filter (not Dataset.join): nested list payloads and sparse
    # dup sets are both fine — broadcast is_in filter, no corpus shuffle.
    return member_filter(ds, dup_ids, id_col, keep=False)


# ---------------------------------------------------------------------------
# span-granularity / cross-snapshot dedup (training-prep suite)
# ---------------------------------------------------------------------------


def dup_ngram_stats(
    ds: rd.Dataset,
    n: int = 5,
    num_buckets: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Cross-document duplicated-n-gram fraction per doc: of each doc's
    DISTINCT n-gram shingle hashes (sketch.shingle_hashes — FNV chain,
    whole-row shingle for short docs), the fraction occurring in at
    least one other document.  -> (doc_id, n_grams, n_dup_grams,
    dup_frac).

    Scale plan: only int-sized rows ever shuffle (hashes, never gram
    strings); ONE bucket groupby co-locates equal hashes so a
    vectorized ``np.unique`` marks dups and two bincounts emit per-doc
    partials; a tiny ``groupby(doc_id).sum`` finishes.  See
    queries.q_dup_ngram_frac for the DuckDB-oracled instantiation."""
    from ray.data.aggregate import Sum

    from ..functions.sketch import shingle_hashes

    def doc_grams(b: pa.Table) -> pa.Table:
        texts = _single_chunk(b.column(text_col))
        h, parents, _ = shingle_hashes(texts, n)
        ids = pc.cast(_single_chunk(b.column(id_col)), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if len(h) == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "h": pa.array([], pa.uint64()),
                    "__b": pa.array([], pa.int32()),
                }
            )
        order = np.lexsort((h, parents))
        hs, ps = h[order], parents[order]
        first = np.r_[True, (ps[1:] != ps[:-1]) | (hs[1:] != hs[:-1])]
        hs, ps = hs[first], ps[first]
        return pa.table(
            {
                id_col: pa.array(ids[ps], pa.int64()),
                "h": pa.array(hs, pa.uint64()),
                "__b": pa.array((hs % np.uint64(num_buckets)).astype(np.int32)),
            }
        )

    def doc_totals(b: pa.Table) -> pa.Table:
        # a doc lives wholly in one batch, so its distinct-gram count
        # is exact map-side: one (doc_id, n_tot) row per doc, which
        # keeps the final doc-keyed shuffle corpus-sized instead of
        # gram-partial-sized (measured 59 s -> see BASELINE, the
        # per-(doc, bucket) n_tot partials were ~98% of that shuffle)
        texts = _single_chunk(b.column(text_col))
        h, parents, n_rows = shingle_hashes(texts, n)
        ids = pc.cast(_single_chunk(b.column(id_col)), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if len(h) == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "n_dup": pa.array([], pa.int64()),
                    "n_tot": pa.array([], pa.int64()),
                }
            )
        order = np.lexsort((h, parents))
        hs, ps = h[order], parents[order]
        first = np.r_[True, (ps[1:] != ps[:-1]) | (hs[1:] != hs[:-1])]
        n_tot = np.bincount(ps[first], minlength=n_rows)
        live = np.flatnonzero(n_tot)
        return pa.table(
            {
                id_col: pa.array(ids[live], pa.int64()),
                "n_dup": pa.array(np.zeros(len(live), np.int64), pa.int64()),
                "n_tot": pa.array(n_tot[live].astype(np.int64), pa.int64()),
            }
        )

    def mark(g: pa.Table) -> pa.Table:
        # emit ONLY docs that have at least one duplicated gram in this
        # bucket — with totals handled map-side, clean docs ship nothing
        h = _single_chunk(g.column("h")).to_numpy(zero_copy_only=False)
        ids = _single_chunk(g.column(id_col)).to_numpy(zero_copy_only=False)
        _, inv, counts = np.unique(h, return_inverse=True, return_counts=True)
        dup = counts[inv] >= 2
        ids = ids[dup]
        du, dinv = np.unique(ids, return_inverse=True)
        return pa.table(
            {
                id_col: pa.array(du, pa.int64()),
                "n_dup": pa.array(np.bincount(dinv).astype(np.int64), pa.int64()),
                "n_tot": pa.array(np.zeros(len(du), np.int64), pa.int64()),
            }
        )

    totals = ds.map_batches(doc_totals, batch_format="pyarrow")
    dup_partials = bucket_map_groups(
        ds.map_batches(doc_grams, batch_format="pyarrow"), "__b", mark, coalesce=16
    )
    marked = (
        totals.union(dup_partials)
        .repartition(16)
        .groupby(id_col)
        .aggregate(Sum("n_dup"), Sum("n_tot"))
    )

    def finish(b: pa.Table) -> pa.Table:
        dupn = pc.cast(b.column("sum(n_dup)"), pa.int64())
        tot = pc.cast(b.column("sum(n_tot)"), pa.int64())
        frac = pc.round(
            pc.divide(pc.cast(dupn, pa.float64()), pc.cast(tot, pa.float64())),
            ndigits=6,
        )
        return pa.table(
            {
                id_col: b.column(id_col),
                "n_grams": tot,
                "n_dup_grams": dupn,
                "dup_frac": frac,
            }
        )

    return marked.map_batches(finish, batch_format="pyarrow")


def chunk_dedup_docs(
    ds: rd.Dataset,
    chunk_size: int = 16,
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Chunk-granularity exact dedup with in-order document
    reassembly: split docs into fixed token windows, keep the FIRST
    occurrence of each distinct chunk text corpus-wide (min (doc_id,
    chunk_id) via keep_min_by's bucketed shuffle), then stitch
    surviving chunks back per doc — one vectorized sort + binary_join
    per doc-hash BUCKET, not per doc.  Docs whose every chunk is
    removed disappear.  -> (doc_id, clean_text, n_chunks_kept)."""
    import pyarrow.compute as pc

    from ..functions.textstats import chunk_tokens

    SHIFT = 1 << 20  # chunk_id fits: 2^20 chunks x chunk_size tokens/doc

    def chunks(b: pa.Table) -> pa.Table:
        t = chunk_tokens(b, chunk_size=chunk_size, id_col=id_col)
        # guard the packing invariant: a >=2^20-chunk document (>16M
        # tokens at chunk_size=16) would silently collide into the next
        # doc_id's order range and corrupt first-occurrence selection
        if t.num_rows and pc.max(t.column("chunk_id")).as_py() >= SHIFT:
            raise ValueError(
                f"document exceeds {SHIFT} chunks; raise chunk_size or widen "
                "the (doc_id, chunk_id) order key"
            )
        order = pc.add(
            pc.multiply(pc.cast(t.column(id_col), pa.int64()), SHIFT),
            t.column("chunk_id"),
        )
        return t.append_column("__ord", order)

    kept = keep_min_by(
        ds.map_batches(chunks, batch_format="pyarrow"),
        key_col="chunk_text",
        order_col="__ord",
    )

    def add_doc_bucket(b: pa.Table) -> pa.Table:
        bk = bucket_ids(_single_chunk(pc.cast(b.column(id_col), pa.int64())), 64)
        return b.append_column("__db", pa.array(bk, pa.int32()))

    def stitch_bucket(g: pa.Table) -> pa.Table:
        t = g.sort_by([(id_col, "ascending"), ("chunk_id", "ascending")])
        ids = _single_chunk(pc.cast(t.column(id_col), pa.int64())).to_numpy(
            zero_copy_only=False
        )
        starts = np.r_[0, np.flatnonzero(ids[1:] != ids[:-1]) + 1]
        offsets = np.r_[starts, len(ids)].astype(np.int32)
        joined = pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(offsets), _single_chunk(t.column("chunk_text"))
            ),
            " ",
        )
        return pa.table(
            {
                id_col: pa.array(ids[starts], pa.int64()),
                "clean_text": joined,
                "n_chunks_kept": pa.array(np.diff(offsets).astype(np.int64)),
            }
        )

    return bucket_map_groups(
        kept.map_batches(add_doc_bucket, batch_format="pyarrow"), "__db", stitch_bucket
    )


def incremental_exact_dedup(
    new_ds: rd.Dataset,
    snapshot_ds: rd.Dataset,
    text_col: str = "text",
) -> rd.Dataset:
    """Ingest-time exact dedup: drop every row of ``new_ds`` whose
    md5(text) already exists in ``snapshot_ds`` (the prior corpus) —
    without re-shuffling the snapshot.  Fingerprints are md5 hex of the
    text column on both sides; the membership is joins.member_filter
    (broadcast under the byte cap, bloom-routed bucketed filter past it).

    Null texts are kept UNCONDITIONALLY (no fingerprint): SQL's
    ``md5(NULL) IS NULL`` never matches a snapshot key, so hashing
    nulls as md5('') would drop rows the oracle keeps — null keys stay
    out of the membership probe on both engines."""

    def with_key(b: pa.Table) -> pa.Table:
        from ..functions.fastmd5 import md5_hex

        texts = _single_chunk(b.column(text_col))
        # vectorized digest, then nulls restored (md5_hex hashes null
        # as ''; THIS site must keep null keys null — see docstring).
        keys = pc.if_else(
            pc.is_null(texts), pa.scalar(None, pa.string()), md5_hex(texts)
        )
        return b.append_column("__k", keys)

    def key_only(b: pa.Table) -> pa.Table:
        return with_key(b).select(["__k"])

    keyed = new_ds.map_batches(with_key, batch_format="pyarrow")
    snap_keys = snapshot_ds.map_batches(key_only, batch_format="pyarrow")
    kept = member_filter(keyed, snap_keys, "__k", keep=False)
    return kept.map_batches(
        lambda b: b.drop_columns(["__k"]), batch_format="pyarrow"
    )


def incremental_minhash_dedup(
    new_ds: rd.Dataset,
    snapshot_ds: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    threshold: float = 0.8,
    k: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    num_buckets: int = 64,
) -> rd.Dataset:
    """Ingest-time NEAR-dup dedup: drop every row of ``new_ds`` whose
    MinHash signature-Jaccard vs some ``snapshot_ds`` row is ≥
    ``threshold`` (band-collision candidates, exactly
    minhash_lsh_dedup's sketch chain) — the incremental companion to
    incremental_exact_dedup for re-crawls that differ by a few tokens.

    CROSS-SIDE pairs only: new-vs-new and snapshot-vs-snapshot
    collisions remove nothing (self-dedup of the incoming batch is a
    separate minhash_lsh_dedup pass; the snapshot is already deduped).
    Side is encoded in the pair id's parity (snapshot → 2·id, new →
    2·id+1) so candidate_pairs_from_buckets is reused verbatim; the
    verify screen rejects same-parity pairs before the signature test.

    Scale shape: only (2·id±1, band_key, uint32 sig) sketch rows
    shuffle — the snapshot's TEXT never moves, and the snapshot sketch
    could be a precomputed on-disk table in a real ingest loop.  The
    final membership filter is joins.member_filter (broadcast under
    the byte cap, bloom-routed bucketed filter beyond)."""

    def tag(parity: int):
        def add(b: pa.Table) -> pa.Table:
            ids = pc.cast(b.column(id_col), pa.int64())
            id2 = pc.add(pc.multiply(ids, pa.scalar(2, pa.int64())),
                         pa.scalar(parity, pa.int64()))
            return b.set_column(b.schema.get_field_index(id_col), id_col, id2)

        return add

    snap_rows = minhash_band_rows(
        snapshot_ds, text_col, id_col, k, bands, shingle_n
    ).map_batches(tag(0), batch_format="pyarrow")
    new_rows = minhash_band_rows(
        new_ds, text_col, id_col, k, bands, shingle_n
    ).map_batches(tag(1), batch_format="pyarrow")
    both = snap_rows.union(new_rows)

    def verify(t: pa.Table, lo_idx: np.ndarray, hi_idx: np.ndarray) -> np.ndarray:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        cross = (ids[lo_idx] & 1) != (ids[hi_idx] & 1)
        if not cross.any():
            return cross
        sig = _sig_matrix(t, "sig")
        return cross & (signature_jaccard(sig[hi_idx], sig[lo_idx]) >= threshold)

    pairs = candidate_pairs_from_buckets(both, "band_key", id_col, verify, num_buckets)

    def new_member(b: pa.Table) -> pa.Table:
        if b.num_rows == 0 or id_col not in b.column_names:
            return pa.schema([(id_col, pa.int64())]).empty_table()
        a = b.column(id_col).to_numpy(zero_copy_only=False)
        r = b.column("rep_id").to_numpy(zero_copy_only=False)
        # cross-side is guaranteed by verify: exactly one member is odd
        orig = np.where((a & 1) == 1, a, r) >> 1
        return pa.table({id_col: pa.array(orig, pa.int64())})

    removed = pairs.map_batches(new_member, batch_format="pyarrow")
    return member_filter(new_ds, removed, id_col, keep=False)


def exact_substring_dedup(
    ds: rd.Dataset,
    n: int = 5,
    num_buckets: int = 64,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """Exact-substring dedup (the Lee et al. "Deduplicating Training
    Data" shape): every length-``n`` token window that occurs more than
    once in the corpus — ACROSS documents or within one, at ANY
    alignment — keeps its first occurrence (minimum (doc_id, position))
    and every other occurrence's tokens are removed; documents are
    rebuilt from the surviving tokens (lowercased, whitespace-joined;
    docs left with zero tokens disappear).  Window granularity is what
    `chunk_dedup_docs`' aligned windows cannot see.

    Plan (all int-sized rows in the all-to-alls, no broadcast):
    1. instance stream (doc_id, window_hash, token_pos) — one row per
       window occurrence (sketch.ngram_hash_positions, the FNV fold
       DuckDB recomputes in HUGEINT);
    2. bucket groupby on hash: within each co-located hash run, rank
       by (doc_id, pos) and emit every NON-first instance as a removal
       (doc_id, pos) order;
    3. union the removals with the docs (tagged by null pos), bucket
       groupby on doc-id hash, and rebuild each doc vectorized: an
       interval-diff array marks tokens covered by [pos, pos+n), one
       binary_join per bucket re-stitches the survivors."""
    from ..functions.sketch import ngram_hash_positions

    def instances(b: pa.Table) -> pa.Table:
        texts = _single_chunk(b.column(text_col))
        h, parents, pos, _ = ngram_hash_positions(texts, n)
        ids = pc.cast(_single_chunk(b.column(id_col)), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        return pa.table(
            {
                id_col: pa.array(ids[parents] if len(h) else [], pa.int64()),
                "h": pa.array(h, pa.uint64()),
                "pos": pa.array(pos.astype(np.int64), pa.int64()),
                "__b": pa.array((h % np.uint64(num_buckets)).astype(np.int32)),
            }
        )

    def mark(g: pa.Table) -> pa.Table:
        h = _single_chunk(g.column("h")).to_numpy(zero_copy_only=False)
        ids = _single_chunk(g.column(id_col)).to_numpy(zero_copy_only=False)
        pos = _single_chunk(g.column("pos")).to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, ids, h))
        hs = h[order]
        non_first = np.r_[False, hs[1:] == hs[:-1]]  # not the keeper of its run
        sel = order[non_first]
        return pa.table(
            {
                id_col: pa.array(ids[sel], pa.int64()),
                "pos": pa.array(pos[sel], pa.int64()),
            }
        )

    removals = bucket_map_groups(
        ds.map_batches(instances, batch_format="pyarrow"), "__b", mark, coalesce=16
    )

    def tag_docs(b: pa.Table) -> pa.Table:
        ids = pc.cast(_single_chunk(b.column(id_col)), pa.int64())
        return pa.table(
            {
                id_col: ids,
                "text": b.column(text_col),
                "pos": pa.nulls(b.num_rows, pa.int64()),
                "__db": pa.array(bucket_ids(ids, num_buckets), pa.int32()),
            }
        )

    def tag_removals(b: pa.Table) -> pa.Table:
        ids = pc.cast(_single_chunk(b.column(id_col)), pa.int64())
        return pa.table(
            {
                id_col: ids,
                "text": pa.nulls(b.num_rows, pa.string()),
                "pos": b.column("pos"),
                "__db": pa.array(bucket_ids(ids, num_buckets), pa.int32()),
            }
        )

    def rebuild(g: pa.Table) -> pa.Table:
        is_doc = pc.is_null(g.column("pos")).to_numpy(zero_copy_only=False)
        docs = g.filter(pa.array(is_doc))
        rem = g.filter(pa.array(~is_doc))
        texts = _single_chunk(docs.column("text"))
        toks = pc.utf8_split_whitespace(pc.utf8_lower(texts))
        flat = _single_chunk(pc.list_flatten(toks))
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        ok = pc.greater(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
        flat, parents = flat.filter(pa.array(ok)), parents[ok]
        n_rows = docs.num_rows
        n_tok = np.bincount(parents, minlength=n_rows)
        row_starts = np.r_[0, np.cumsum(n_tok)]
        covered_diff = np.zeros(len(flat) + 1, np.int64)
        if rem.num_rows:
            doc_ids = _single_chunk(docs.column(id_col)).to_numpy(zero_copy_only=False)
            rid = _single_chunk(rem.column(id_col)).to_numpy(zero_copy_only=False)
            rpos = _single_chunk(rem.column("pos")).to_numpy(zero_copy_only=False)
            id_order = np.argsort(doc_ids)
            at = np.searchsorted(doc_ids, rid, sorter=id_order)
            row = id_order[np.minimum(at, len(doc_ids) - 1)]
            if not np.array_equal(doc_ids[row], rid):
                raise ValueError(
                    "exact_substring_dedup: removal for a doc missing "
                    "from its bucket (bucketing functions diverged)"
                )
            starts = row_starts[row] + rpos
            ends = np.minimum(starts + n, row_starts[row] + n_tok[row])
            np.add.at(covered_diff, starts, 1)
            np.add.at(covered_diff, ends, -1)
        covered = np.cumsum(covered_diff[:-1]) > 0
        keep = ~covered
        kept_per_row = np.bincount(parents[keep], minlength=n_rows)
        live = np.flatnonzero(kept_per_row > 0)
        offsets = np.r_[0, np.cumsum(kept_per_row[live])].astype(np.int32)
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets), flat.filter(pa.array(keep))),
            " ",
        )
        ids_out = _single_chunk(docs.column(id_col)).take(pa.array(live, pa.int64()))
        return pa.table(
            {
                id_col: ids_out,
                "clean_text": joined,
                "n_tokens_kept": pa.array(kept_per_row[live].astype(np.int64)),
            }
        )

    tagged = ds.map_batches(tag_docs, batch_format="pyarrow").union(
        removals.map_batches(tag_removals, batch_format="pyarrow")
    )
    return bucket_map_groups(tagged, "__db", rebuild, coalesce=16)
