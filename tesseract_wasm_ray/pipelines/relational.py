"""Relational operators Ray Data lacks natively: as-of join, exact
distributed quantiles, sliding-window expansion, broadcast range join.

All follow the engine's shuffle discipline (see joins.py): keys are
hash-bucketed with the same stable crc32/Fibonacci mixing, each bucket
resolves with one vectorized numpy pass, and nothing materializes on
the driver except explicitly-bounded small results (group × distinct
histograms, band tables).

As-of join semantics (matching a time-series "most recent fact" lookup,
e.g. kdb+ aj / pandas merge_asof / DuckDB ASOF JOIN): every LEFT row
gets the right side's ``value_col`` from the right row with the same
key and the largest right timestamp <= the left timestamp.  Ties:
right rows sharing (key, ts) resolve to the MINIMUM value, the same
deterministic convention bucket_lookup_join uses for duplicate keys.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Count

from ..functions.arrow_util import bucket_ids
from ..functions.arrow_util import single_chunk as _single_chunk
from .joins import bucket_map_groups

# ---------------------------------------------------------------------------
# as-of join
# ---------------------------------------------------------------------------


def _arrow_schema(ds: rd.Dataset) -> pa.Schema:
    """Dataset schema as a pyarrow.Schema (pandas-block datasets, e.g.
    ``from_pandas``, report a PandasBlockSchema instead)."""
    s = ds.schema()
    base = s.base_schema
    if isinstance(base, pa.Schema):
        return base
    return pa.schema(
        [pa.field(n, pa.from_numpy_dtype(t)) for n, t in zip(base.names, base.types)]
    )


def _ts_int64(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Timestamps (any unit) or ints -> comparable int64 (us for ts)."""
    col = _single_chunk(col) if isinstance(col, pa.ChunkedArray) else col
    if pa.types.is_timestamp(col.type):
        col = pc.cast(col, pa.timestamp("us"))
    return pc.cast(col, pa.int64())


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    value_col: str,
    out_col: str,
    num_buckets: int = 32,
) -> rd.Dataset:
    """Backward as-of LEFT join: fill ``out_col`` on every left row with
    the right ``value_col`` whose (key, ts) is the latest at-or-before
    the left row's (key, ts); null when no right row precedes it.

    Movement: both sides shuffle ONCE on the key hash (sketch columns
    only on the right — callers prune to (key, ts, value)).  Each bucket
    group resolves in one numpy pass: lexsort by (key, ts, side) with
    right rows ordered before left rows at equal timestamps (<= is
    inclusive) and by DESCENDING value among themselves (so the running
    maximum lands on the minimum value — the deterministic tie-break),
    then a single ``maximum.accumulate`` carries "last right row seen"
    forward; a carried row from a previous key segment is detected by
    key mismatch and yields null.  O(n log n) per bucket, no Python
    loop, no driver state.

    Right ``value_col`` must be non-null numeric (the tie-break negates
    it); both ts columns may be timestamp[any] or int64.
    """
    left_schema = _arrow_schema(left)
    left_names = list(left_schema.names)
    val_type = _arrow_schema(right).field(value_col).type
    if out_col in left_names:
        raise ValueError(f"out_col {out_col!r} collides with a left column")

    common = pa.schema(
        [left_schema.field(n) for n in left_names]
        + [
            pa.field("__key", pa.int64()),
            pa.field("__ts", pa.int64()),
            pa.field("__side", pa.int8()),
            pa.field("__val", pa.float64()),
            pa.field("__bucket", pa.int32()),
        ]
    )

    def tag_left(b: pa.Table) -> pa.Table:
        k = pc.cast(_single_chunk(b.column(left_key)), pa.int64())
        cols = [b.column(n) for n in left_names] + [
            k,
            _ts_int64(b.column(left_ts)),
            pa.nulls(b.num_rows, pa.int8()).fill_null(1),
            pa.nulls(b.num_rows, pa.float64()),
            pa.array(bucket_ids(k, num_buckets), pa.int32()),
        ]
        return pa.Table.from_arrays(cols, schema=common)

    def tag_right(b: pa.Table) -> pa.Table:
        k = pc.cast(_single_chunk(b.column(right_key)), pa.int64())
        cols = [pa.nulls(b.num_rows, f.type) for f in left_schema] + [
            k,
            _ts_int64(b.column(right_ts)),
            pa.nulls(b.num_rows, pa.int8()).fill_null(0),
            pc.cast(b.column(value_col), pa.float64()),
            pa.array(bucket_ids(k, num_buckets), pa.int32()),
        ]
        return pa.Table.from_arrays(cols, schema=common)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    out_schema = pa.schema(
        [left_schema.field(c) for c in left_names] + [pa.field(out_col, val_type)]
    )

    def resolve(group: pa.Table) -> pa.Table:
        n = group.num_rows
        key = group.column("__key").to_numpy(zero_copy_only=False)
        ts = group.column("__ts").to_numpy(zero_copy_only=False)
        side = group.column("__side").to_numpy(zero_copy_only=False)
        vcol = group.column("__val")
        # an ALL-null column (e.g. empty right side) may arrive as
        # Arrow null type, which fill_null can't fill with a float
        if pa.types.is_null(vcol.type):
            val = np.zeros(n)
        else:
            val = pc.fill_null(vcol, 0.0).to_numpy(zero_copy_only=False)
        # right-before-left at equal ts; min value wins among equal
        # (key, ts) right rows because -val ascending puts it LAST and
        # maximum.accumulate keeps the last right row seen.
        order = np.lexsort((-val, side, ts, key))
        ks, ss = key[order], side[order]
        idx = np.arange(n)
        last_right = np.maximum.accumulate(np.where(ss == 0, idx, -1))
        safe = np.clip(last_right, 0, n - 1)
        valid = (last_right >= 0) & (ks[safe] == ks)
        left_pos = np.flatnonzero(ss == 1)
        match = np.where(valid[left_pos], safe[left_pos], -1)
        v_sorted = val[order]
        filled = v_sorted[np.clip(match, 0, n - 1)]
        out_val = pa.array(filled, mask=match < 0)
        rows = group.take(pa.array(order[left_pos]))
        return pa.Table.from_arrays(
            # explicit casts: a group whose left columns were all-null
            # (or went through a pandas block) may carry widened types
            [
                pc.cast(rows.column(c), left_schema.field(c).type)
                for c in left_names
            ]
            + [pc.cast(out_val, val_type)],
            schema=out_schema,
        )

    return bucket_map_groups(tagged, "__bucket", resolve)


# ---------------------------------------------------------------------------
# exact distributed quantiles (histogram method)
# ---------------------------------------------------------------------------


def exact_group_quantiles(
    ds: rd.Dataset,
    group_col: str,
    value_col: str,
    quantiles: dict[str, float],
) -> pd.DataFrame:
    """Exact per-group quantiles of a LOW-CARDINALITY value column via
    a distributed (group, value) -> count histogram.

    The all-to-all moves only one row per distinct (group, value) pair
    (Ray's groupby count does map-side combine per block), and the
    driver holds only that histogram — bounded by |groups| x |distinct
    values|, NOT the row count, which is the property that makes exact
    quantiles feasible at 100 TB for discrete/decimal columns.  For
    continuous values, bin first (then the result is per-bin exact).

    Selection rule matches DuckDB ``quantile_disc``: the value at
    1-based rank ``ceil(q * n)`` in value order — computed with the
    same float multiplication for bit parity.
    """
    hist = ds.groupby([group_col, value_col]).aggregate(Count()).to_pandas()
    out_rows = []
    for g, sub in hist.groupby(group_col, sort=True):
        sub = sub.sort_values(value_col)
        counts = sub["count()"].to_numpy(np.int64)
        vals = sub[value_col].to_numpy()
        cum = np.cumsum(counts)
        n = int(cum[-1])
        row = {group_col: g}
        for name, q in quantiles.items():
            rank = math.ceil(q * n)
            row[name] = float(vals[np.searchsorted(cum, rank, side="left")])
        out_rows.append(row)
    return pd.DataFrame(out_rows)


# ---------------------------------------------------------------------------
# sliding-window expansion
# ---------------------------------------------------------------------------


def expand_sliding_windows(
    b: pa.Table,
    ts_col: str,
    window_us: int,
    slide_us: int,
) -> pa.Table:
    """Map each row to every sliding window containing it (window
    length ``window_us``, hop ``slide_us``; both epoch-aligned).  Pure
    numpy repeat — rows fan out by window/slide (e.g. 4x for 1h/15min)
    BEFORE the groupby, so the shuffle moves (window_start, agg cols)
    only; callers prune columns first."""
    if window_us % slide_us:
        raise ValueError("window must be a multiple of slide")
    fan = window_us // slide_us
    ts = _ts_int64(b.column(ts_col)).to_numpy(zero_copy_only=False)
    base = (ts // slide_us) * slide_us
    starts = (base[:, None] - np.arange(fan, dtype=np.int64)[None, :] * slide_us).ravel()
    keep = [c for c in b.column_names if c != ts_col]
    arrays = [
        pa.array(
            np.repeat(
                _single_chunk(b.column(c)).to_numpy(zero_copy_only=False), fan
            )
        )
        for c in keep
    ]
    # cast to second resolution: Arrow's %S renders fractional digits
    # for sub-second timestamp units (DuckDB's does not)
    win = pc.strftime(
        pc.cast(pa.array(starts, pa.timestamp("us")), pa.timestamp("s")),
        format="%Y-%m-%d %H:%M:%S",
    )
    return pa.Table.from_arrays([win] + arrays, names=["window_start"] + keep)


# ---------------------------------------------------------------------------
# greedy sequence packing
# ---------------------------------------------------------------------------


def pack_sequences(
    ds: rd.Dataset,
    group_col: str,
    order_col: str,
    size_col: str,
    budget: int,
) -> rd.Dataset:
    """Greedy in-order sequence packing — the operator a training
    pipeline runs to pack token-counted documents into fixed-budget
    context sequences (GPT-style sequence packing).  Within each group
    (rows hash-shuffle ONCE on ``group_col``), rows are taken in
    ascending ``order_col`` order and assigned a ``seq_id``: a row opens
    a new sequence when adding its ``size_col`` would push the running
    total over ``budget``; a row larger than the whole budget gets a
    sequence of its own.  Deterministic (no RNG, no block-order
    dependence), so a resumed run reproduces identical packing.

    Per group the assignment is the classic cumsum + searchsorted scan:
    the driver holds nothing, and the per-group loop iterates once per
    EMITTED SEQUENCE (not per row) with the row range between two
    boundaries assigned in one vectorized slice.
    """

    def pack(group: pa.Table) -> pa.Table:
        # defensive multi-group handling (same convention as the other
        # map_groups callables): sort by (group, order) and reset the
        # scan at each group boundary
        order = pc.sort_indices(
            group,
            sort_keys=[(group_col, "ascending"), (order_col, "ascending")],
        )
        g = group.take(order)
        sizes = pc.cast(_single_chunk(g.column(size_col)), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        n = len(sizes)
        codes = (
            _single_chunk(pc.dictionary_encode(pc.cast(g.column(group_col), pa.string())))
            .indices.to_numpy(zero_copy_only=False)
        )
        bounds = np.r_[0, np.flatnonzero(codes[1:] != codes[:-1]) + 1, n]
        cum = np.cumsum(sizes)
        seq = np.empty(n, np.int64)
        for a, b in zip(bounds[:-1], bounds[1:]):
            i, s = int(a), 0
            while i < b:
                base = cum[i - 1] if i > a else cum[a] - sizes[a]
                j = int(np.searchsorted(cum[:b], base + budget, side="right"))
                j = max(j, i + 1)  # an oversized row still packs alone
                seq[i:j] = s
                s += 1
                i = j
            # seq_id restarts at 0 for each group
        return g.append_column("seq_id", pa.array(seq, pa.int64()))

    return ds.groupby(group_col).map_groups(pack, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# broadcast range join
# ---------------------------------------------------------------------------


def band_lookup(
    b: pa.Table,
    value_col: str,
    bands: list[tuple[int, str, float, float]],
) -> pa.Table:
    """Tag each row with its (band_id, band_name) from a SMALL static
    band table of inclusive [lo, hi] ranges — the broadcast form of a
    range join (the band list ships with the task closure; at cluster
    scale it would be a ``ray.put`` object read once per task, never a
    shuffle).  Rows outside every band are dropped (inner semantics).
    Bands must be sorted by lo and non-overlapping."""
    los = np.array([x[2] for x in bands], np.float64)
    his = np.array([x[3] for x in bands], np.float64)
    ids = np.array([x[0] for x in bands], np.int64)
    names = np.array([x[1] for x in bands], object)
    v = pc.cast(_single_chunk(b.column(value_col)), pa.float64()).to_numpy(
        zero_copy_only=False
    )
    slot = np.searchsorted(los, v, side="right") - 1
    ok = (slot >= 0) & (v <= his[np.clip(slot, 0, len(bands) - 1)])
    t = b.filter(pa.array(ok))
    slot = slot[ok]
    return t.append_column(
        "band_id", pa.array(ids[slot], pa.int64())
    ).append_column("band_name", pa.array(list(names[slot]), pa.string()))


# ---------------------------------------------------------------------------
# exact grouped int64 sums (the bucket-it-yourself aggregate)
# ---------------------------------------------------------------------------


def grouped_sum_i64(
    ds: rd.Dataset,
    key_col: str,
    val_cols: list[str],
) -> rd.Dataset:
    """Exact int64 SUM per integer key — the bucketed map_groups
    replacement for ``groupby(key).aggregate(Sum(...))`` on fact-sized
    inputs (the generic sort-aggregate measured ~100 µs/row;
    docs/RAY_NOTES.md session 8).

    Map side combines each block to one row per distinct key
    (np.unique + np.add.at — integer adds, never bincount's float
    weights, so sums stay EXACT past 2^53) and tags a 16-value int32
    bucket; each bucket group folds its partials the same way.  Output
    columns: ``(key_col, *val_cols)`` with the summed values under
    their input names.  Associative integer addition => the result is
    block-layout-invariant (hash-deterministic)."""

    def _fold(b: pa.Table, tag_bucket: bool) -> pa.Table:
        k = b.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        keys, inv = np.unique(k, return_inverse=True)
        cols: dict[str, pa.Array] = {key_col: pa.array(keys, pa.int64())}
        for v in val_cols:
            vals = b.column(v).to_numpy(zero_copy_only=False).astype(np.int64)
            acc = np.zeros(len(keys), np.int64)
            np.add.at(acc, inv, vals)
            cols[v] = pa.array(acc, pa.int64())
        if tag_bucket:
            cols["__bucket"] = pa.array(bucket_ids(cols[key_col], 16), pa.int32())
        return pa.table(cols)

    return bucket_map_groups(
        ds.map_batches(lambda b: _fold(b, True), batch_format="pyarrow"),
        "__bucket",
        lambda g: _fold(g, False),
        coalesce=16,
    )
