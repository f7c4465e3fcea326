"""Event-log queries over ``events.parquet``: windows, sessions,
as-of and attribution joins, funnels and retention, each beside its
DuckDB oracle.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from ..functions.arrow_util import bucket_ids
from ..pipelines import oracles as _orc
from ..pipelines.approx import approx_distinct
from ..pipelines.joins import bucket_map_groups, lookup_join_auto
from ..pipelines.relational import asof_join, expand_sliding_windows
from . import register
from .common import _money_cents, _rename


# click_attribution's lookback window, in minutes
CLICK_WINDOW_MIN = 30


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


register("events_by_type", q_events_by_type, oracle="""
        SELECT event_type, count(*) AS n_events,
               sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS total_value,
               sum(CAST(round(value * 100) AS BIGINT)) / 100.0 / count(*) AS avg_value
        FROM events GROUP BY event_type
    """)


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


register("events_hourly", q_events_hourly, oracle="""
        SELECT strftime(date_trunc('hour', ts), '%Y-%m-%d %H:00:00') AS hour,
               count(*) AS n_events
        FROM events GROUP BY 1
    """)


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


register("user_sessions", q_user_sessions, oracle="""
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
    """)


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


# lag() window replayed with the identical (ts, event_id) total
# order; gaps as exact integer microseconds
register("event_interarrival", q_event_interarrival, oracle="""
        WITH w AS (
            SELECT event_id, user_id, epoch_us(ts) AS t,
                   lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                   ) AS prev_t
            FROM events
        )
        SELECT event_id, user_id, (t - prev_t)::BIGINT AS gap_us
        FROM w WHERE prev_t IS NOT NULL
    """)


def q_events_asof_order(sf_dir: str):
    """Backward as-of join (kdb+ aj / merge_asof semantics): each event
    picks up the o_orderkey of the same customer's latest order at or
    before the event timestamp — via relational.asof_join (one key-hash
    shuffle per side, vectorized lexsort + running-maximum resolve per
    bucket; min-orderkey tie-break at equal order dates).  The oracle
    reproduces it with the classic union + last_value(IGNORE NULLS)
    window, pre-reducing equal (custkey, date) orders to min(orderkey)
    exactly like the pipeline's tie-break."""

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


# Classic as-of-join-as-window formulation: union both sides, fill
# the latest right value forward per key.  Right rows sort BEFORE
# left rows at equal timestamps (side 0 < 1) => "<=" semantics, and
# equal (custkey, date) orders pre-reduce to min(o_orderkey) — both
# exactly the pipeline's tie-break.
register("events_asof_order", q_events_asof_order, oracle="""
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
    """)


def q_events_sliding_window(sf_dir: str):
    """Sliding-window aggregate (1 h window, 15 min hop): each event
    fans out to its 4 containing windows BEFORE the groupby
    (relational.expand_sliding_windows — one numpy repeat, shuffle
    moves only (window_start, value)), then a plain map-side-combined
    groupby.  The tumbling analogue is events_hourly."""

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


# time_bucket's default origin (2000-01-03 for DuckDB) is a whole
# multiple of 15 min from the epoch, so it equals the pipeline's
# epoch-aligned floor.
register("events_sliding_window", q_events_sliding_window, oracle="""
        SELECT strftime(time_bucket(INTERVAL 15 MINUTE, ts) - k * INTERVAL 15 MINUTE,
                        '%Y-%m-%d %H:%M:%S') AS window_start,
               count(*) AS n_events,
               sum(CAST(round(value * 100) AS BIGINT)) / 100.0 AS total_value
        FROM events CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS k)
        GROUP BY 1
    """)


def q_approx_distinct_users(sf_dir: str):
    """HyperLogLog approximate distinct users per event type — the
    fixed-size-sketch COUNT(DISTINCT) whose shuffle is O(keys x 2**p)
    rows per block regardless of input size.  Deterministic FNV
    hashing makes the DuckDB oracle exact (full sketch recomputed in
    SQL), not a tolerance check."""

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "user_id"]
    )
    return approx_distinct(ds, "event_type", "user_id", p=9)


register("approx_distinct_users", q_approx_distinct_users, oracle=_orc.sql_approx_distinct_users(p=9))


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


register("user_event_diversity", q_user_event_diversity, oracle="""
        SELECT user_id, count(DISTINCT event_type) AS n_types
        FROM events GROUP BY user_id
    """)


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


# semi-structured field extraction from the props JSON string
register("event_props_stats", q_event_props_stats, oracle=r"""
        SELECT event_type,
               count(*)::BIGINT AS n_events,
               sum(regexp_extract(props, '"k": (\d+)', 1)::BIGINT)::BIGINT
                   AS sum_k,
               max(regexp_extract(props, '"k": (\d+)', 1)::BIGINT)::BIGINT
                   AS max_k
        FROM events
        GROUP BY event_type
    """)


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


# Markov transition counts: lag window partitioned by user
register("event_transitions", q_event_transitions, oracle="""
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
    """)


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


# range-window parity: RANGE 1h PRECEDING includes the boundary row
# and all CURRENT-ROW ts peers — mirrored by the engine's
# searchsorted(left at ts-1h, right at ts) bounds
register("events_sliding_1h", q_events_sliding_1h, oracle="""
        SELECT event_id, event_type,
               (COUNT(*) OVER (PARTITION BY event_type ORDER BY ts
                    RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                          AND CURRENT ROW))::BIGINT AS n_prev_hour
        FROM events
    """)


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


register("events_sliding_sum_1h", q_events_sliding_sum_1h, oracle="""
        SELECT event_id, event_type,
               (SUM(CAST(round(value * 100) AS BIGINT)) OVER (
                    PARTITION BY event_type ORDER BY ts
                    RANGE BETWEEN INTERVAL 1 HOUR PRECEDING
                          AND CURRENT ROW)) / 100.0 AS sum_value
        FROM events
    """)


def q_click_attribution(sf_dir: str):
    """Windowed attribution join (the ad-attribution shape): every
    'click' matches the SAME user's most recent 'view' at or before it
    and within ``CLICK_WINDOW_MIN`` minutes; unmatched clicks emit
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
    WIN = CLICK_WINDOW_MIN * 60 * 1_000_000

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


# bounded-lookback as-of: LATERAL max(view.ts) within the window;
# unmatched clicks -> (0, -1) integer sentinels on both engines
register("click_attribution", q_click_attribution, oracle=f"""
        SELECT c.event_id,
               (CASE WHEN v.ts IS NULL THEN 0 ELSE 1 END)::BIGINT AS attributed,
               coalesce(epoch_us(c.ts) - epoch_us(v.ts), -1)::BIGINT AS gap_us
        FROM events c
        LEFT JOIN LATERAL (
            SELECT max(ts) AS ts FROM events v
            WHERE v.user_id = c.user_id AND v.event_type = 'view'
              AND v.ts <= c.ts AND v.ts >= c.ts - INTERVAL {CLICK_WINDOW_MIN} MINUTE
        ) v ON true
        WHERE c.event_type = 'click'
    """)


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


# staged view -> click -> purchase funnel with strict event-time
# ordering; each stage anchors at the min qualifying timestamp
register("event_funnel", q_event_funnel, oracle="""
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
    """)


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


# weekly cohort retention; weeks are epoch-weeks (floor of epoch
# seconds / 604800) so both engines share the integer week id
register("cohort_retention", q_cohort_retention, oracle="""
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
    """)


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


# windowed log dedup: row_number() over the tumbling hour
register("event_log_dedup", q_event_log_dedup, oracle="""
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
        """)
