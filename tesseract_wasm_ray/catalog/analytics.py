"""Analytic shapes over the TPC-H tables beyond the 22 benchmark
queries: windows, quantiles, band and anti-joins, correlation, each
beside its DuckDB oracle.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Sum

from ..pipelines import oracles as _orc
from ..pipelines.approx import approx_quantiles
from ..pipelines.joins import bucket_lookup_join, lookup_join_auto, member_filter
from ..pipelines.oracles import (
    QUANTILE_BINS,
    QUANTILE_COL,
    QUANTILE_HI,
    QUANTILE_LO,
    QUANTILE_QS,
)
from ..pipelines.relational import band_lookup, exact_group_quantiles
from . import register
from .common import _money_cents, _run_rank


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


register("mktsegment_orders", q_mktsegment_orders, oracle="""
        SELECT c_mktsegment, count(*) AS n_orders,
               sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0 AS total_price
        FROM orders JOIN customer ON o_custkey = c_custkey
        GROUP BY c_mktsegment
    """)


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


# revenue as exact int64 units of 10^-4 dollars on both engines:
# cents x (100 - discount_pct); ranks compare the exact integer
register("top_suppliers_per_nation", q_top_suppliers_per_nation, oracle="""
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
    """)


def q_quantity_quantiles(sf_dir: str):
    """Exact per-flag quantiles of l_quantity via the distributed
    (group, value)->count histogram (relational.exact_group_quantiles):
    the shuffle and the driver both hold one row per distinct (flag,
    quantity) — 150 rows regardless of lineitem size.  Selection rule
    is bit-matched to DuckDB quantile_disc (rank = ceil(q*n))."""

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


register("quantity_quantiles", q_quantity_quantiles, oracle="""
        SELECT l_returnflag,
               quantile_disc(l_quantity, 0.25) AS p25,
               quantile_disc(l_quantity, 0.5)  AS p50,
               quantile_disc(l_quantity, 0.75) AS p75,
               quantile_disc(l_quantity, 0.9)  AS p90
        FROM lineitem GROUP BY l_returnflag
    """)


def q_quantity_band_join(sf_dir: str):
    """Broadcast range join: lineitem rows banded by quantity against a
    small static [lo, hi] band table (relational.band_lookup — one
    searchsorted per batch; the band side never shuffles), then a
    map-side-combined rollup per band."""

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


register("quantity_band_join", q_quantity_band_join, oracle="""
        WITH bands(band_id, band_name, lo, hi) AS (VALUES
            (1::BIGINT, 'low',  1.0, 10.0),
            (2::BIGINT, 'mid',  11.0, 25.0),
            (3::BIGINT, 'high', 26.0, 40.0),
            (4::BIGINT, 'peak', 41.0, 50.0))
        SELECT band_id, band_name, count(*) AS n_items,
               round(sum(l_quantity), 2) AS sum_qty
        FROM lineitem JOIN bands ON l_quantity BETWEEN lo AND hi
        GROUP BY 1, 2
    """)


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


# lag over the aggregate, cents-exact, one /100.0 at the end;
# month key as the same YYYY-MM string
register("monthly_revenue_delta", q_monthly_revenue_delta, oracle="""
        WITH m AS (
            SELECT strftime(date_trunc('month', o_orderdate), '%Y-%m') AS month,
                   sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
            FROM orders GROUP BY 1
        )
        SELECT month,
               cents / 100.0 AS revenue,
               (cents - lag(cents) OVER (ORDER BY month)) / 100.0 AS delta
        FROM m
    """)


def q_approx_quantiles(sf_dir: str):
    """Histogram-sketch quantiles of l_extendedprice — fixed O(bins)
    state per block, no sort, no shuffle; exact-integer count folding
    makes the result partition-invariant and the DuckDB oracle
    recomputes the identical binned estimate."""

    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=[QUANTILE_COL]
    )
    return approx_quantiles(
        ds, QUANTILE_COL, qs=QUANTILE_QS, lo=QUANTILE_LO, hi=QUANTILE_HI,
        bins=QUANTILE_BINS,
    )


register("approx_quantiles", q_approx_quantiles, oracle=_orc.sql_approx_quantiles())


def q_nation_order_revenue(sf_dir: str):
    """Three-way join rollup orders ⋈ customer ⋈ nation with MIXED join
    strategies, picked by side size: orders⋈customer is the engine's
    bucketed task-shuffle lookup join (both sides large-ish), while the
    25-row nation dim is resolved by a broadcast numpy lookup inside
    the final aggregation's map stage — no second shuffle."""
    import pyarrow.parquet as pq

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


register("nation_order_revenue", q_nation_order_revenue, oracle="""
        SELECT n_name, count(*) AS n_orders,
               sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0 AS revenue
        FROM orders
        JOIN customer ON o_custkey = c_custkey
        JOIN nation ON c_nationkey = n_nationkey
        GROUP BY n_name
    """)


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


# per-customer running revenue: window cumsum over exact cents
register("running_revenue", q_running_revenue, oracle="""
        SELECT o_custkey, o_orderkey,
               sum(CAST(round(o_totalprice * 100) AS BIGINT))
                   OVER (PARTITION BY o_custkey
                         ORDER BY o_orderdate, o_orderkey) / 100.0
                   AS running_total
        FROM orders
    """)


def q_idle_customers(sf_dir: str):
    """Relational ANTI-join: customers who placed NO order in 1996 —
    joins.member_filter(keep=False) applied to a dimension-vs-fact
    membership probe (the distinct active-custkey set broadcasts under
    the byte cap, routes through the fixed-size bloom + bucketed exact
    filter beyond it).  The active-key side pre-aggregates to DISTINCT
    custkeys map-side + one bounded groupby before the probe, so the
    fact table never shuffles."""

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


# relational anti-join: customers with no 1996 order
register("idle_customers", q_idle_customers, oracle="""
        SELECT c_custkey, c_name, c_mktsegment
        FROM customer
        WHERE NOT EXISTS (
            SELECT 1 FROM orders
            WHERE o_custkey = c_custkey
              AND o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate < TIMESTAMP '1997-01-01'
        )
    """)


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


# DuckDB's ntile: first n%k tiles get one extra row; ties broken
# by c_custkey so the assignment is total-order deterministic
register("customer_ntile", q_customer_ntile, oracle="""
        SELECT c_custkey, c_nationkey::BIGINT AS c_nationkey,
               ntile(4) OVER (
                   PARTITION BY c_nationkey
                   ORDER BY c_acctbal DESC, c_custkey ASC
               ) AS tile
        FROM customer
    """)


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


# Pearson r from the SAME exact integer moments (never corr():
# its float accumulation is block-order-dependent)
register("corr_matrix", q_corr_matrix, oracle="""
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
        """)
