"""Joins and membership filters without driver-side payloads or
aggregator actors.

Ray 2.49's ``Dataset.join`` hash-join aggregator crashes on sparse /
empty partitions (it builds schema-less empty tables, and pyarrow then
fails with "No match for FieldRef"), and long-lived aggregator actors
compose badly with fixed-size task stages on small CPU budgets.  The
engine therefore joins with its own primitives, which share one size
policy: stream the small side's key columns to the driver up to
``BROADCAST_BYTE_CAP`` Arrow bytes (``_collect_capped``) and broadcast
them; past the cap, union both sides tagged, hash-bucket them on
``bucket_ids`` and resolve each bucket group with vectorized lookups.
Buckets are process-stable (crc32 / Fibonacci mix), so re-runs and
resumes see identical groups.

- ``bucket_map_groups`` is the one bucket shuffle: the caller tags
  each row with an int bucket id inside a map it already runs, and
  ``fn`` sees each bucket's rows once, without the tag.
- ``member_filter`` keeps (semi-join) or drops (anti-join) the rows
  whose key appears in a key Dataset: dedup's dup-id removal, the
  incremental snapshot filter and the flagship's resume pruning.
- ``bucket_lookup_join`` is a LEFT lookup join: every left row comes
  back exactly once, with ``out_col`` filled from the right side's
  ``value_col`` (null when the key has no right row; ties broken by
  minimum value so the result is deterministic under duplicate right
  keys).  ``lookup_join_auto`` broadcasts the right side instead while
  it fits under the cap.
"""

from __future__ import annotations

import functools
import zlib
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.arrow_util import bucket_ids
from ..functions.arrow_util import single_chunk as _single_chunk

# Driver-side budget for a broadcast key side (accumulated Arrow bytes).
BROADCAST_BYTE_CAP = 256 << 20


def _collect_capped(ds: rd.Dataset, cols: list[str]) -> list[pa.Table] | None:
    """Stream ``cols`` of ``ds`` to the driver -> the non-empty batches,
    or None once they pass ``BROADCAST_BYTE_CAP`` (the caller then
    re-plans as a shuffle; the key side is small next to the data it
    filters, so re-executing its plan is cheap).  Projection runs in the
    workers; empty blocks may arrive schema-less and are skipped."""
    proj = ds.map_batches(
        lambda b: b.select(cols) if b.num_rows else b.slice(0, 0),
        batch_format="pyarrow",
    )
    tbls: list[pa.Table] = []
    total = 0
    for b in proj.iter_batches(batch_format="pyarrow", batch_size=65536):
        if b.num_rows == 0:
            continue
        tbls.append(b)
        total += b.nbytes
        if total > BROADCAST_BYTE_CAP:
            return None
    return tbls


def bucket_map_groups(
    ds: rd.Dataset,
    key: str,
    fn: Callable[[pa.Table], pa.Table],
    coalesce: int | None = None,
) -> rd.Dataset:
    """Group ``ds`` on its int tag column ``key`` and call ``fn`` once
    per bucket on that bucket's rows with the tag dropped (pyarrow in,
    pyarrow out).  ``fn`` never sees zero rows: an empty input makes no
    call and yields an empty Dataset.  The caller appends the tag
    inside a map it already runs, from ``bucket_ids`` or its own rule,
    so this adds no operator of its own; ``fn`` keeps its name in the
    plan.

    There is no partition count to set.  Under Ray 2.49's default
    sort-based shuffle ``map_groups`` is a ``Sort`` with one reducer
    per input block, and ``groupby(num_partitions=)`` is read only
    under ``HASH_SHUFFLE``, which the engine never enables
    (docs/RAY_NOTES.md §3, §7).  The one fan-out setting is
    ``coalesce``: repartition ``ds`` to that many blocks first, so many
    tiny blocks do not each cost a sort task."""
    if coalesce:
        ds = ds.repartition(coalesce)

    @functools.wraps(fn)
    def per_bucket(group: pa.Table) -> pa.Table:
        return fn(group.drop_columns([key]))

    return ds.groupby(key).map_groups(per_bucket, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# bloom routing (the over-cap membership path)
# ---------------------------------------------------------------------------


def _bloom_h12(ids: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Two independent uint64 base hashes per id for double-hashed
    bloom probes (Kirsch-Mitzenmacher: h_i = h1 + i*h2).  Int ids mix
    vectorized (splitmix-style, two odd constants); other types hash
    their utf-8 repr with C-level crc32/adler32 — one Python pass per
    row, probe arithmetic stays numpy.  Null ids hash as the empty
    string (member_filter forces them to miss)."""
    if pa.types.is_integer(ids.type):
        k = ids.to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            h1 = k * np.uint64(0x9E3779B97F4A7C15)
            h1 ^= h1 >> np.uint64(31)
            h2 = k * np.uint64(0xC2B2AE3D27D4EB4F) + np.uint64(0x165667B19E3779F9)
            h2 ^= h2 >> np.uint64(29)
        return h1, h2 | np.uint64(1)
    enc = [("" if v is None else str(v)).encode() for v in ids.to_pylist()]
    h1 = np.array([zlib.crc32(s) for s in enc], np.uint64)
    h2 = np.array([zlib.adler32(s) for s in enc], np.uint64)
    with np.errstate(over="ignore"):
        h1 = (h1 * np.uint64(0x9E3779B97F4A7C15)) ^ (h1 >> np.uint64(13))
        h2 = (h2 * np.uint64(0xC2B2AE3D27D4EB4F)) ^ (h2 >> np.uint64(11))
    return h1, h2 | np.uint64(1)


def _bloom_word_bit(
    h1: np.ndarray, h2: np.ndarray, k_hashes: int, m_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """(n,) base hashes -> (n*k,) word indices + bit masks."""
    i = np.arange(k_hashes, dtype=np.uint64)
    with np.errstate(over="ignore"):
        pos = (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)
    pos = pos.ravel()
    return (pos >> np.uint64(6)).astype(np.int64), np.uint64(1) << (pos & np.uint64(63))


def build_bloom(
    ids_ds: rd.Dataset,
    id_col: str,
    m_bits: int = 1 << 27,
    k_hashes: int = 7,
) -> np.ndarray:
    """Distributed bloom build over an id Dataset -> packed uint64
    bitmap (m_bits/8 bytes, e.g. 16 MB at the default — a FIXED-size
    broadcast no matter how many ids).  Each block folds its ids into
    a local bitmap; bitmaps OR-combine in one grouped tree level, so
    at most 16 arrays come back to be ORed, not one per block."""
    n_words = m_bits >> 6

    def block_bitmap(b: pa.Table) -> pa.Table:
        words = np.zeros(n_words, np.uint64)
        if id_col in b.column_names and b.num_rows:
            h1, h2 = _bloom_h12(_single_chunk(b.column(id_col)))
            w, bit = _bloom_word_bit(h1, h2, k_hashes, m_bits)
            np.bitwise_or.at(words, w, bit)
        return pa.table(
            {
                "__part": pa.array([zlib.crc32(words.tobytes()) % 16], pa.int32()),
                "bitmap": pa.array([words.tobytes()], pa.binary()),
            }
        )

    def or_group(g: pa.Table) -> pa.Table:
        acc = np.zeros(n_words, np.uint64)
        for buf in g.column("bitmap").to_pylist():
            acc |= np.frombuffer(buf, np.uint64)
        return pa.table({"bitmap": pa.array([acc.tobytes()], pa.binary())})

    parts = bucket_map_groups(
        ids_ds.map_batches(block_bitmap, batch_format="pyarrow"), "__part", or_group
    ).take_all()
    acc = np.zeros(n_words, np.uint64)
    for row in parts:
        acc |= np.frombuffer(row["bitmap"], np.uint64)
    return acc


# ---------------------------------------------------------------------------
# membership: semi / anti join as a filter
# ---------------------------------------------------------------------------


def member_filter(
    ds: rd.Dataset, keys: rd.Dataset, key_col: str, keep: bool
) -> rd.Dataset:
    """Keep (``keep=True``, semi-join) or drop (``keep=False``,
    anti-join) the rows of ``ds`` whose ``key_col`` value appears in
    ``keys`` (a Dataset carrying ``key_col``; duplicates fine).  A null
    key never matches: anti keeps the row, semi drops it.

    - Under ``BROADCAST_BYTE_CAP`` the key column is ``ray.put`` once
      and every batch filters with a vectorized ``is_in`` — no shuffle.
    - Over the cap, a fixed 16 MB bloom over the keys (``build_bloom``)
      routes: it has no false negatives, so bloom misses pass (anti) or
      drop (semi) with NO shuffle, and only the hits (true members plus
      the false-positive tail) go through the exact bucketed filter.
      ``ds`` then scans twice for anti (miss and hit branches share
      lineage), which at scale beats moving it through an all-to-all.
    """
    tbls = _collect_capped(keys, [key_col])
    if tbls is not None:
        arrs = [pc.drop_null(_single_chunk(t.column(key_col))) for t in tbls]
        if not any(len(a) for a in arrs):
            if keep:
                return rd.from_arrow(ds.schema().base_schema.empty_table())
            return ds
        ref = ray.put(pa.concat_arrays(arrs))

        def filt(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return b
            hit = pc.is_in(b.column(key_col), value_set=ray.get(ref))
            return b.filter(hit if keep else pc.invert(hit))

        return ds.map_batches(filt, batch_format="pyarrow")

    schema = ds.schema().base_schema
    bloom = build_bloom(keys, key_col)
    m_bits = len(bloom) << 6
    bloom_ref = ray.put(bloom)

    def bloom_hit(b: pa.Table) -> pa.Array:
        words = ray.get(bloom_ref)
        ids = _single_chunk(b.column(key_col))
        w, bit = _bloom_word_bit(*_bloom_h12(ids), 7, m_bits)
        hit = ((words[w] & bit) != 0).reshape(b.num_rows, -1).all(axis=1)
        return pa.array(hit & pc.is_valid(ids).to_numpy(zero_copy_only=False))

    hits = ds.map_batches(
        lambda b: b.filter(bloom_hit(b)) if b.num_rows else b,
        batch_format="pyarrow",
    )
    checked = _bucket_member(hits, keys, key_col, keep, schema)
    if keep:
        return checked
    misses = ds.map_batches(
        lambda b: b.filter(pc.invert(bloom_hit(b))) if b.num_rows else b,
        batch_format="pyarrow",
    )
    return misses.union(checked)


def _bucket_member(
    ds: rd.Dataset, keys: rd.Dataset, key_col: str, keep: bool, schema: pa.Schema
) -> rd.Dataset:
    """Exact membership by one shuffle: key rows null-padded to
    ``schema``, unioned with ``ds``, bucketed on ``bucket_ids`` and
    resolved per bucket group with ``is_in``.  ``ds`` must carry no
    null keys (member_filter routes them around this).  Robust to Ray
    2.49's schema-less empty partitions."""
    num_buckets = 64
    key_type = schema.field(key_col).type

    def tag_rows(b: pa.Table) -> pa.Table:
        return b.append_column("__m", pa.array(np.zeros(b.num_rows, np.int8)))

    def pad_keys(b: pa.Table) -> pa.Table:
        k = (
            pc.drop_null(pc.cast(_single_chunk(b.column(key_col)), key_type))
            if b.num_rows and key_col in b.column_names
            else pa.array([], key_type)
        )
        cols = {f.name: k if f.name == key_col else pa.nulls(len(k), f.type) for f in schema}
        return pa.table(cols, schema=schema).append_column(
            "__m", pa.array(np.ones(len(k), np.int8))
        )

    def add_bucket(b: pa.Table) -> pa.Table:
        bk = bucket_ids(b.column(key_col), num_buckets)
        return b.append_column("__mb", pa.array(bk, pa.int32()))

    def filter_group(group: pa.Table) -> pa.Table:
        is_key = pc.equal(group.column("__m"), 1)
        rows = group.filter(pc.invert(is_key)).drop_columns(["__m"])
        hit = pc.is_in(
            rows.column(key_col),
            value_set=_single_chunk(group.filter(is_key).column(key_col)),
        )
        return rows.filter(hit if keep else pc.invert(hit))

    return bucket_map_groups(
        ds.map_batches(tag_rows, batch_format="pyarrow")
        .union(keys.map_batches(pad_keys, batch_format="pyarrow"))
        .map_batches(add_bucket, batch_format="pyarrow"),
        "__mb",
        filter_group,
        coalesce=16,
    )


def bucket_lookup_join(
    left: rd.Dataset,
    right: rd.Dataset,
    left_key: str,
    right_key: str,
    value_col: str,
    out_col: str,
    num_buckets: int = 64,
    left_schema: pa.Schema | None = None,
    value_type: pa.DataType | None = None,
) -> rd.Dataset:
    """Fill ``out_col`` on every left row with the right side's
    ``value_col`` for the matching key (left outer; min value on
    duplicate right keys; null when unmatched).

    Movement: both sides shuffle ONCE on the key hash — no driver
    materialization of either side, no broadcast.  Right side should be
    pruned to (key, value) by the caller.

    ``left_schema`` / ``value_type`` override schema inference — needed
    when a side can be ALL-empty (Ray then has no schema to infer, e.g.
    a candidate-pair stream with zero candidates)."""
    if left_schema is None:
        left_schema = left.schema().base_schema
    key_type = left_schema.field(left_key).type
    if value_type is None:
        value_type = right.schema().base_schema.field(value_col).type
    left_names = left_schema.names

    def tag_left(b: pa.Table) -> pa.Table:
        k = pc.cast(_single_chunk(b.column(left_key)), key_type)
        bk = bucket_ids(k, num_buckets)
        return (
            b.append_column("__k", k)
            .append_column("__v", pa.nulls(b.num_rows, value_type))
            .append_column("__s", pa.array(np.zeros(b.num_rows, np.int8)))
            .append_column("__jb", pa.array(bk, pa.int32()))
        )

    def tag_right(b: pa.Table) -> pa.Table:
        k = pc.cast(_single_chunk(b.column(right_key)), key_type)
        bk = bucket_ids(k, num_buckets)
        cols = {name: pa.nulls(b.num_rows, left_schema.field(name).type) for name in left_names}
        t = pa.table(cols)
        return (
            t.append_column("__k", k)
            .append_column("__v", pc.cast(_single_chunk(b.column(value_col)), value_type))
            .append_column("__s", pa.array(np.ones(b.num_rows, np.int8)))
            .append_column("__jb", pa.array(bk, pa.int32()))
        )

    both = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    def fill(t: pa.Table) -> pa.Table:
        side = t.column("__s").to_numpy(zero_copy_only=False)
        is_left = side == 0
        left_rows = t.filter(pa.array(is_left))
        if left_rows.num_rows == 0:
            return left_rows.drop_columns(["__k", "__v", "__s"]).rename_columns(
                left_names
            ).append_column(out_col, pa.array([], value_type))
        enc = _single_chunk(pc.dictionary_encode(t.column("__k")))
        codes = enc.indices.to_numpy(zero_copy_only=False)
        r_codes = codes[~is_left]
        vals_src = _single_chunk(t.column("__v")).filter(pa.array(~is_left))
        # Deterministic winner per key under duplicate right keys: the
        # MIN value.  Sort (code, value, position) with Arrow (value may
        # be any orderable type), then first row per code run wins.
        rt = pa.table(
            {
                "c": pa.array(r_codes, pa.int64()),
                "v": vals_src,
                "p": pa.array(np.arange(len(r_codes)), pa.int64()),
            }
        ).sort_by([("c", "ascending"), ("v", "ascending")])
        cs = rt.column("c").to_numpy(zero_copy_only=False)
        ps = rt.column("p").to_numpy(zero_copy_only=False)
        first = np.r_[True, cs[1:] != cs[:-1]] if len(cs) else np.empty(0, bool)
        lut = np.full(len(enc.dictionary), -1, np.int64)
        if len(cs):
            lut[cs[first]] = ps[first]
        l_codes = codes[is_left]
        hit = lut[l_codes] if len(lut) else np.full(len(l_codes), -1, np.int64)
        found = hit >= 0
        taken = vals_src.take(pa.array(np.where(found, hit, 0), pa.int64())) if len(
            vals_src
        ) else pa.nulls(len(l_codes), value_type)
        filled = pc.if_else(pa.array(found), taken, pa.nulls(len(l_codes), value_type))
        out = left_rows.drop_columns(["__k", "__v", "__s"])
        return out.append_column(out_col, filled)

    return bucket_map_groups(both, "__jb", fill, coalesce=16)


def lookup_join_auto(
    left: rd.Dataset,
    right: rd.Dataset,
    left_key: str,
    right_key: str,
    value_col: str,
    out_col: str,
) -> rd.Dataset:
    """Size-adaptive LEFT lookup join (same semantics as
    bucket_lookup_join: left outer, MIN value on duplicate right keys,
    null when unmatched) — the caller never has to know the dim-table
    size up front:

    - stream the right side's (key, value) columns to the driver up to
      ``BROADCAST_BYTE_CAP`` (``_collect_capped``, the cap member_filter
      uses); under it, ``ray.put`` one deduplicated lookup table and
      fill every left batch map-side with ``pc.index_in`` — NO shuffle
      of either side;
    - over the cap, fall back to the bucketed task-shuffle join (both
      sides move once)."""
    tbls = _collect_capped(right, [right_key, value_col])
    if tbls is None:
        return bucket_lookup_join(left, right, left_key, right_key, value_col, out_col)

    key_type = left.schema().base_schema.field(left_key).type
    if tbls:
        lut = pa.concat_tables(tbls)
        # drop null right keys BEFORE building the lookup: a null key
        # never matches under left-outer semantics (bucket_lookup_join
        # agrees), the run-dedup's equal() kernel would otherwise emit
        # null-masked booleans, and index_in would let a null left key
        # "match" a null right key
        lut = lut.filter(pc.is_valid(lut.column(right_key)))
        lut = lut.sort_by(
            [(right_key, "ascending"), (value_col, "ascending")]
        )
        keys = _single_chunk(pc.cast(lut.column(right_key), key_type))
        vals = _single_chunk(lut.column(value_col))
        if len(keys):
            # first row per key run == MIN value (sorted above)
            eq = pc.equal(keys.slice(1), keys.slice(0, len(keys) - 1))
            first = np.r_[True, np.invert(eq.to_numpy(zero_copy_only=False))]
            sel = pa.array(np.flatnonzero(first), pa.int64())
            keys, vals = keys.take(sel), vals.take(sel)
    else:
        keys = pa.array([], key_type)
        # a fully-empty right side can surface schema() == None (Ray
        # reports no schema when every block is empty); the lookup then
        # matches nothing, so any concrete value type works — int64
        schema = right.schema()
        vtype = (
            schema.base_schema.field(value_col).type
            if schema is not None
            else pa.int64()
        )
        vals = pa.array([], vtype)
    ref = ray.put((keys, vals))

    def fill(b: pa.Table) -> pa.Table:
        k, v = ray.get(ref)
        lk = pc.cast(_single_chunk(b.column(left_key)), key_type)
        idx = pc.index_in(lk, value_set=k)
        # take propagates null indices -> unmatched rows fill with null
        return b.append_column(out_col, v.take(idx))

    return left.map_batches(fill, batch_format="pyarrow")
