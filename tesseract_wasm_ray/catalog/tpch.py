"""The 22 TPC-H query shapes over the testdata tables, adapted where a
column is absent: money in exact int64 cents or 10^-4 units,
deterministic tie-breaks, each beside its DuckDB oracle.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from ..pipelines.joins import bucket_map_groups, lookup_join_auto, member_filter
from ..pipelines.relational import grouped_sum_i64
from . import register
from .common import _money_cents, _rename


def _pc_mod(arr, n: int):
    """Integer ``arr % n`` via Arrow kernels (truncated division — exact
    for the non-negative int64 operands used here; pyarrow ships no
    modulo kernel)."""
    nn = pa.scalar(n, pa.int64())
    return pc.subtract(arr, pc.multiply(pc.divide(arr, nn), nn))


def q_tpch_q1(sf_dir: str):
    """TPC-H Q1-style pricing rollup (group agg with map-side combine).
    Quantities are integral and prices 2-decimal: both aggregate as
    exact int64 (_money_cents), so sums are partition-invariant and the
    hash matches the oracle bit-for-bit across reruns."""
    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )

    def prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": b.column("l_returnflag"),
                "l_linestatus": b.column("l_linestatus"),
                "qty": _money_cents(b.column("l_quantity"), factor=1.0),
                "price_c": _money_cents(b.column("l_extendedprice")),
            }
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("qty"), Sum("price_c"), Count())
        .to_pandas()
        .rename(columns={"count()": "count_order"})
    )
    out["sum_qty"] = out["sum(qty)"].astype(np.float64)
    out["sum_base_price"] = out["sum(price_c)"] / 100.0
    out["avg_qty"] = out["sum_qty"] / out["count_order"]
    return out.drop(columns=["sum(qty)", "sum(price_c)"])


# money sums in exact int64 cents on BOTH engines (block-order /
# group-order invariant), converted back with one IEEE division —
# no round() anywhere, so hashes are bit-stable across reruns
register("tpch_q1", q_tpch_q1, oracle="""
        SELECT l_returnflag, l_linestatus,
               sum(CAST(round(l_quantity) AS BIGINT))::DOUBLE AS sum_qty,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0 AS sum_base_price,
               sum(CAST(round(l_quantity) AS BIGINT))::DOUBLE / count(*) AS avg_qty,
               count(*) AS count_order
        FROM lineitem GROUP BY l_returnflag, l_linestatus
    """)


def q_tpch_q5(sf_dir: str):
    """TPC-H Q5 shape: 6-way join lineitem ⋈ orders ⋈ customer ⋈
    supplier ⋈ nation ⋈ region with the cross-dimension predicate
    c_nationkey = s_nationkey, restricted to ASIA / order year 1996.
    Strategy mix sized per side: supplier (1k rows) and nation⋈region
    (25 rows) are broadcast numpy lookups applied map-side to lineitem
    BEFORE any shuffle (the region filter prunes ~80% of fact rows
    pre-shuffle); the two bigger joins — lineitem⋈orders on orderkey,
    then ⋈customer on custkey — go through `lookup_join_auto`, which
    broadcasts each dim while it fits the byte cap (no fact shuffle at
    all at this sf — measured 5.8 s -> see BASELINE) and falls back to
    the bucketed task-shuffle join beyond it (the 100-TB path)."""
    import pyarrow.parquet as pq

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    skeys = sup.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    snat = sup.column("s_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    sorder = np.argsort(skeys)
    skeys, snat = skeys[sorder], snat[sorder]

    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    )
    asia_key = reg.filter(pc.equal(reg.column("r_name"), "ASIA")).column(
        "r_regionkey"
    )[0].as_py()
    nat_asia = nat.filter(pc.equal(nat.column("n_regionkey"), asia_key))
    nkeys = nat_asia.column("n_nationkey").to_numpy(zero_copy_only=False).astype(
        np.int64
    )
    nnames = np.asarray(nat_asia.column("n_name").to_pylist(), dtype=object)
    norder = np.argsort(nkeys)
    nkeys, nnames = nkeys[norder], nnames[norder]
    asia_set = set(nkeys.tolist())

    def li_prejoin(b: pa.Table) -> pa.Table:
        lk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(skeys, lk)
        # inner-join semantics on a broadcast dim: a suppkey missing
        # from supplier must DROP the row, not gather a neighbor
        found = (pos < len(skeys)) & (skeys[np.minimum(pos, len(skeys) - 1)] == lk)
        nk = snat[np.minimum(pos, len(skeys) - 1)]
        keep = found & np.isin(nk, nkeys)
        b = b.filter(pa.array(keep))
        # revenue in exact int64 units of 10^-4 dollars (cents x
        # (100 - discount_pct)) => partition-invariant sums (r03 fix)
        rev = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "s_nat": pa.array(nk[keep], pa.int64()),
                "rev": rev,
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_prejoin, batch_format="pyarrow")

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(
        lambda b: b.filter(
            pc.and_(
                pc.greater_equal(
                    b.column("o_orderdate"), pa.scalar(np.datetime64("1996-01-01", "us"))
                ),
                pc.less(
                    b.column("o_orderdate"), pa.scalar(np.datetime64("1997-01-01", "us"))
                ),
            )
        ).select(["o_orderkey", "o_custkey"]),
        batch_format="pyarrow",
    )

    with_cust = lookup_join_auto(
        li, orders, "l_orderkey", "o_orderkey", "o_custkey", "o_custkey",
    ).map_batches(
        # inner-join semantics: drop fact rows whose order fell to the
        # date filter (lookup came back null)
        lambda b: b.filter(pc.is_valid(b.column("o_custkey"))),
        batch_format="pyarrow",
    )

    customer = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("c_nationkey"),
            "c_nationkey",
            pc.cast(b.column("c_nationkey"), pa.int64()),
        ),
        batch_format="pyarrow",
    )
    with_nat = lookup_join_auto(
        with_cust, customer, "o_custkey", "c_custkey", "c_nationkey", "c_nat",
    )

    def local_sum(b: pa.Table) -> pa.Table:
        same = pc.equal(b.column("c_nat"), b.column("s_nat"))
        b = b.filter(pc.fill_null(same, False))
        nk = b.column("s_nat").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(nkeys, nk)
        return pa.table(
            {
                "n_name": pa.array(list(nnames[pos]), pa.string()),
                "rev": b.column("rev"),
            }
        )

    out = (
        with_nat.map_batches(local_sum, batch_format="pyarrow")
        .groupby("n_name")
        .aggregate(Count(), Sum("rev"))
        .to_pandas()
        .rename(columns={"count()": "n_items"})
    )
    out["revenue"] = out["sum(rev)"] / 10000.0
    return out.drop(columns=["sum(rev)"])


# TPC-H Q5 shape: 6-way join with cross-dimension predicate
register("tpch_q5", q_tpch_q5, oracle=r"""
        SELECT n_name,
               count(*)::BIGINT AS n_items,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0 AS revenue
        FROM lineitem, orders, customer, supplier, nation, region
        WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey
          AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
          AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
          AND r_name = 'ASIA'
          AND o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate < TIMESTAMP '1997-01-01'
        GROUP BY n_name
    """)


def q_tpch_q6(sf_dir: str):
    """TPC-H Q6 shape: pure filter + scalar aggregate — the zero-shuffle
    end of the relational spectrum.  Everything happens map-side (the
    date/discount/quantity predicates prune each block independently);
    the only cross-block traffic is one int64 partial sum per block.
    Revenue aggregates as exact int64 units of 10^-4 dollars
    (cents × discount_pct via _money_cents) so the single-row result is
    block-order-invariant and bit-matches the oracle."""
    import pandas as pd

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    def prep(b: pa.Table) -> pa.Table:
        disc_c = _money_cents(b.column("l_discount"))
        qty = _money_cents(b.column("l_quantity"), factor=1.0)
        ship = b.column("l_shipdate")
        keep = pc.and_(
            pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi)),
            pc.and_(
                pc.and_(
                    pc.greater_equal(disc_c, pa.scalar(5, pa.int64())),
                    pc.less_equal(disc_c, pa.scalar(7, pa.int64())),
                ),
                pc.less(qty, pa.scalar(24, pa.int64())),
            ),
        )
        b = b.filter(keep)
        rev = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            _money_cents(b.column("l_discount")),
        )
        return pa.table({"rev": rev})

    total = (
        rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
        )
        .map_batches(prep, batch_format="pyarrow")
        .aggregate(Sum("rev"))
    )
    cents4 = total.get("sum(rev)") or 0
    return pd.DataFrame({"revenue": [cents4 / 10000.0]})


# TPC-H Q6 shape: pure filter + scalar agg, exact 10^-4 units
register("tpch_q6", q_tpch_q6, oracle="""
        SELECT coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * CAST(round(l_discount * 100) AS BIGINT)), 0)
                   / 10000.0 AS revenue
        FROM lineitem
        WHERE l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1997-01-01'
          AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
          AND CAST(round(l_quantity) AS BIGINT) < 24
    """)


def q_tpch_q3(sf_dir: str):
    """TPC-H Q3 shape: customer(BUILDING) ⋈ orders(date <) ⋈
    lineitem(shipdate >) → per-order revenue → global top-10.  The
    customer dim filter broadcasts as a sorted key array applied to
    orders map-side (no customer shuffle); the surviving (orderkey,
    orderdate) pairs join lineitem through lookup_join_auto (broadcast
    under the byte cap, bucketed task-shuffle beyond — the 100-TB
    path).  The top-10 never materializes the per-order rollup on the
    driver: each output block keeps its own 10 best rows map-side, so
    the driver merge sees ≤ 10 × n_blocks rows.  Revenue is exact
    int64 (cents × (100 − discount_pct)) with an (rev DESC, orderkey
    ASC) tie-break — deterministic hashes."""
    import pyarrow.parquet as pq
    import pandas as pd

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    )
    bkeys = np.sort(
        cust.filter(pc.equal(cust.column("c_mktsegment"), "BUILDING"))
        .column("c_custkey")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    cutoff = pa.scalar(np.datetime64("1996-03-15", "us"))

    def ord_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less(b.column("o_orderdate"), cutoff))
        ck = b.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(bkeys, ck)
        keep = (pos < len(bkeys)) & (bkeys[np.minimum(pos, len(bkeys) - 1)] == ck)
        b = b.filter(pa.array(keep))
        # date as exact int64 micros: Ray's Min aggregate and the
        # block-top-k sort both run in integer domain
        return pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_date_us": pc.cast(b.column("o_orderdate"), pa.int64()),
            }
        )

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ord_prep, batch_format="pyarrow")

    def li_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b.column("l_shipdate"), cutoff))
        rev = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table({"l_orderkey": b.column("l_orderkey"), "rev": rev})

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = lookup_join_auto(
        li, orders, "l_orderkey", "o_orderkey", "o_date_us", "o_date_us",
    ).map_batches(
        # inner semantics: drop lineitems whose order fell to the
        # date/segment filters (lookup came back null)
        lambda b: b.filter(pc.is_valid(b.column("o_date_us"))),
        batch_format="pyarrow",
    )

    def block_top10(b: pa.Table) -> pa.Table:
        return b.sort_by(
            [("rev", "descending"), ("l_orderkey", "ascending")]
        ).slice(0, 10)

    parts = (
        joined.groupby("l_orderkey")
        .aggregate(Sum("rev"), Min("o_date_us"))
        .map_batches(
            lambda b: _rename(
                b, {"sum(rev)": "rev", "min(o_date_us)": "o_date_us"}
            ),
            batch_format="pyarrow",
        )
        .map_batches(block_top10, batch_format="pyarrow")
        .take_all()  # bounded: ≤ 10 rows per output block
    )
    top = (
        pa.Table.from_pylist(parts)
        .sort_by([("rev", "descending"), ("l_orderkey", "ascending")])
        .slice(0, 10)
    )
    return pd.DataFrame(
        {
            "l_orderkey": top.column("l_orderkey").to_numpy(zero_copy_only=False),
            "revenue": top.column("rev").to_numpy(zero_copy_only=False) / 10000.0,
            "o_orderdate": top.column("o_date_us")
            .cast(pa.timestamp("us"))
            .to_pandas(),
        }
    )


# TPC-H Q3 shape: segment+date joins, per-order revenue, top-10;
# revenue in exact int64 10^-4 units, (rev DESC, orderkey) tie-break
register("tpch_q3", q_tpch_q3, oracle="""
        SELECT l_orderkey,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0
                   AS revenue,
               min(o_orderdate) AS o_orderdate
        FROM customer, orders, lineitem
        WHERE c_mktsegment = 'BUILDING'
          AND c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND o_orderdate < TIMESTAMP '1996-03-15'
          AND l_shipdate > TIMESTAMP '1996-03-15'
        GROUP BY l_orderkey
        ORDER BY sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT))) DESC,
                 l_orderkey ASC
        LIMIT 10
    """)


def q_tpch_q4(sf_dir: str):
    """TPC-H Q4 shape: order-priority counts over an EXISTS semi-join
    (orders in a quarter having at least one lineitem shipped after the
    order date).  The in-window orders ship ONE packed int64 value per
    key through lookup_join_auto (``o_orderdate`` micros × 8 + priority
    digit — date_us < 2^60 so the pack is lossless), so the fact side
    never re-reads the orders table and the EXISTS reduces to a
    map-side filter; the surviving (orderkey, prio) pairs dedup with
    one bounded groupby (≤ in-window order count) before the 5-row
    priority rollup."""
    import pandas as pd

    lo = pa.scalar(np.datetime64("1996-07-01", "us"))
    hi = pa.scalar(np.datetime64("1996-10-01", "us"))

    def ord_prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate")
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        date_us = pc.cast(b.column("o_orderdate"), pa.int64())
        digit = pc.cast(
            pc.utf8_slice_codeunits(b.column("o_orderpriority"), 0, 1), pa.int64()
        )
        packed = pc.add(pc.multiply(date_us, pa.scalar(8, pa.int64())), digit)
        return pa.table({"o_orderkey": b.column("o_orderkey"), "packed": packed})

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(ord_prep, batch_format="pyarrow")

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "ship_us": pc.cast(b.column("l_shipdate"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def exists_filter(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("packed")))
        date_us = pc.divide(b.column("packed"), pa.scalar(8, pa.int64()))
        b = b.filter(pc.greater(b.column("ship_us"), date_us))
        prio = pc.bit_wise_and(b.column("packed"), pa.scalar(7, pa.int64()))
        return pa.table({"l_orderkey": b.column("l_orderkey"), "prio": prio})

    matched = lookup_join_auto(
        li, orders, "l_orderkey", "o_orderkey", "packed", "packed",
    ).map_batches(exists_filter, batch_format="pyarrow")

    counts = (
        matched.groupby("l_orderkey")
        .aggregate(Min("prio"))  # dedup: one row per qualifying order
        .map_batches(
            lambda b: pa.table({"prio": b.column("min(prio)")}),
            batch_format="pyarrow",
        )
        .groupby("prio")
        .aggregate(Count())
        .to_pandas()
    )
    labels = {
        1: "1-URGENT", 2: "2-HIGH", 3: "3-MEDIUM",
        4: "4-NOT SPECIFIED", 5: "5-LOW",
    }
    return pd.DataFrame(
        {
            "o_orderpriority": counts["prio"].map(labels),
            "order_count": counts["count()"].astype(np.int64),
        }
    )


# TPC-H Q4 shape: priority counts over an EXISTS semi-join
register("tpch_q4", q_tpch_q4, oracle="""
        SELECT o_orderpriority, count(*)::BIGINT AS order_count
        FROM orders
        WHERE o_orderdate >= TIMESTAMP '1996-07-01'
          AND o_orderdate < TIMESTAMP '1996-10-01'
          AND EXISTS (SELECT 1 FROM lineitem
                      WHERE l_orderkey = o_orderkey
                        AND l_shipdate > o_orderdate)
        GROUP BY o_orderpriority
    """)


def q_tpch_q10(sf_dir: str):
    """TPC-H Q10 shape: top-20 customers by returned-item revenue in a
    quarter.  Returned lineitems pick up ``o_custkey`` from the
    window-filtered orders via lookup_join_auto (broadcast under the
    byte cap, bucketed shuffle beyond); revenue aggregates per customer
    in exact int64 10^-4 units; each output block keeps only its own
    top 20 so the driver merge sees ≤ 20 × n_blocks rows.  The final
    20-key enrichment probes the customer dim with a parquet
    row-group predicate pushdown (dim-sized read for 20 keys) and the
    25-row nation table drives a direct index_in — no full-dim
    driver materialization at any scale."""
    import pyarrow.parquet as pq
    import pandas as pd

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"))

    def ord_prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate")
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        return b.select(["o_orderkey", "o_custkey"])

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ord_prep, batch_format="pyarrow")

    def li_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("l_returnflag"), "R"))
        rev = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table({"l_orderkey": b.column("l_orderkey"), "rev": rev})

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    joined = lookup_join_auto(
        li, orders, "l_orderkey", "o_orderkey", "o_custkey", "o_custkey",
    ).map_batches(
        lambda b: b.filter(pc.is_valid(b.column("o_custkey"))),
        batch_format="pyarrow",
    )

    def block_top20(b: pa.Table) -> pa.Table:
        return b.sort_by(
            [("rev", "descending"), ("o_custkey", "ascending")]
        ).slice(0, 20)

    parts = (
        joined.groupby("o_custkey")
        .aggregate(Sum("rev"))
        .map_batches(
            lambda b: _rename(b, {"sum(rev)": "rev"}), batch_format="pyarrow"
        )
        .map_batches(block_top20, batch_format="pyarrow")
        .take_all()  # bounded: ≤ 20 rows per output block
    )
    top = (
        pa.Table.from_pylist(parts)
        .sort_by([("rev", "descending"), ("o_custkey", "ascending")])
        .slice(0, 20)
    )
    keys = top.column("o_custkey").to_pylist()
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        filters=[("c_custkey", "in", keys)],
    )
    pos = pc.index_in(top.column("o_custkey"), cust.column("c_custkey"))
    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nk = pc.take(cust.column("c_nationkey"), pos)
    npos = pc.index_in(nk, nation.column("n_nationkey"))
    return pd.DataFrame(
        {
            "c_custkey": top.column("o_custkey").to_numpy(zero_copy_only=False),
            "c_name": pc.take(cust.column("c_name"), pos).to_pandas(),
            "revenue": top.column("rev").to_numpy(zero_copy_only=False) / 10000.0,
            "c_acctbal": pc.take(cust.column("c_acctbal"), pos).to_pandas(),
            "n_name": pc.take(nation.column("n_name"), npos).to_pandas(),
        }
    )


# TPC-H Q10 shape: top-20 customers by returned-item revenue;
# revenue in exact int64 10^-4 units, (rev DESC, custkey) tie-break
register("tpch_q10", q_tpch_q10, oracle="""
        SELECT c_custkey, c_name,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0
                   AS revenue,
               c_acctbal, n_name
        FROM customer, orders, lineitem, nation
        WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
          AND o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate < TIMESTAMP '1996-04-01'
          AND l_returnflag = 'R' AND c_nationkey = n_nationkey
        GROUP BY c_custkey, c_name, c_acctbal, n_name
        ORDER BY sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT))) DESC,
                 c_custkey ASC
        LIMIT 20
    """)


def q_tpch_q12(sf_dir: str):
    """TPC-H Q12 shape (priority class stands in for the shipmode
    column the synthetic schema lacks): lineitems shipped in 1996 pick
    up the order's priority digit through lookup_join_auto, classify
    map-side into high (1-URGENT / 2-HIGH) vs low, and roll up
    conditional counts per returnflag — conditional aggregation after
    a fact⋈dim join, all int64."""

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderpriority"],
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "prio": pc.cast(
                    pc.utf8_slice_codeunits(b.column("o_orderpriority"), 0, 1),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def li_prep(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate")
        b = b.filter(pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi)))
        return b.select(["l_orderkey", "l_returnflag"])

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_returnflag", "l_shipdate"],
    ).map_batches(li_prep, batch_format="pyarrow")

    def classify(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("prio")))
        high = pc.cast(
            pc.less_equal(b.column("prio"), pa.scalar(2, pa.int64())), pa.int64()
        )
        low = pc.subtract(pa.scalar(1, pa.int64()), high)
        return pa.table(
            {"l_returnflag": b.column("l_returnflag"), "high": high, "low": low}
        )

    out = (
        lookup_join_auto(
            li, orders, "l_orderkey", "o_orderkey", "prio", "prio",
        )
        .map_batches(classify, batch_format="pyarrow")
        .groupby("l_returnflag")
        .aggregate(Sum("high"), Sum("low"))
        .to_pandas()
        .rename(
            columns={"sum(high)": "high_line_count", "sum(low)": "low_line_count"}
        )
    )
    return out


# TPC-H Q12 shape: conditional class counts after a fact⋈dim join
# (order priority stands in for the absent shipmode column)
register("tpch_q12", q_tpch_q12, oracle="""
        SELECT l_returnflag,
               sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END)::BIGINT AS high_line_count,
               sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                        THEN 1 ELSE 0 END)::BIGINT AS low_line_count
        FROM lineitem, orders
        WHERE l_orderkey = o_orderkey
          AND l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1997-01-01'
        GROUP BY l_returnflag
    """)


def q_tpch_q14(sf_dir: str):
    """TPC-H Q14 shape: promo revenue share for one ship month.  The
    part dim ships a 0/1 promo flag per key through lookup_join_auto;
    both the promo and total revenue sums aggregate as exact int64
    10^-4 units and the single percentage division happens once on the
    driver (mirrored literally in the oracle: ``100.0 * promo /
    total``)."""
    import pandas as pd

    lo = pa.scalar(np.datetime64("1996-09-01", "us"))
    hi = pa.scalar(np.datetime64("1996-10-01", "us"))

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    ).map_batches(
        lambda b: pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "promo": pc.cast(
                    pc.equal(b.column("p_type"), "PROMO"), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def li_prep(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate")
        b = b.filter(pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi)))
        rev = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table({"l_partkey": b.column("l_partkey"), "rev": rev})

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    def split(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("promo")))
        rev = b.column("rev")
        return pa.table(
            {"rev": rev, "promo_rev": pc.multiply(rev, b.column("promo"))}
        )

    totals = (
        lookup_join_auto(
            li, part, "l_partkey", "p_partkey", "promo", "promo",
        )
        .map_batches(split, batch_format="pyarrow")
        .aggregate(Sum("rev"), Sum("promo_rev"))
    )
    total = totals.get("sum(rev)") or 0
    promo = totals.get("sum(promo_rev)") or 0
    return pd.DataFrame({"promo_revenue": [(100.0 * promo) / total]})


# TPC-H Q14 shape: promo revenue share, one exact division at the end
register("tpch_q14", q_tpch_q14, oracle="""
        SELECT (100.0 * sum(CASE WHEN p_type = 'PROMO'
                       THEN CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100) AS BIGINT))
                       ELSE 0 END))
               / sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT)))
               AS promo_revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND l_shipdate >= TIMESTAMP '1996-09-01'
          AND l_shipdate < TIMESTAMP '1996-10-01'
    """)


def q_tpch_q18(sf_dir: str):
    """TPC-H Q18 shape (large-volume customers): orders whose total
    lineitem quantity exceeds 300.  One lineitem groupby produces the
    per-order quantity sums (exact int64 ×100); the HAVING survivors —
    output-sized, tiny relative to the fact — become the RIGHT side of
    lookup_join_auto, so the orders table streams through exactly once
    and never shuffles while the survivor set fits the broadcast cap
    (bucketed shuffle beyond).  Block-local top-100 by exact totalprice
    cents bounds the driver merge; the 100-key customer-name probe is
    a parquet predicate-pushdown read."""
    import pyarrow.parquet as pq
    import pandas as pd

    def li_partial(b: pa.Table) -> pa.Table:
        # map-side combine BEFORE the orderkey shuffle: lineitem is
        # clustered by orderkey, so per-batch np.unique collapses the
        # block to ~distinct-order rows and the groupby moves partials
        ok = b.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        qc = (
            _money_cents(b.column("l_quantity"))
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        keys, inv = np.unique(ok, return_inverse=True)
        return pa.table(
            {
                "l_orderkey": pa.array(keys, pa.int64()),
                "qty_c": pa.array(np.bincount(inv, weights=qc).astype(np.int64)),
            }
        )

    qsum = grouped_sum_i64(
        rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_orderkey", "l_quantity"],
        ).map_batches(li_partial, batch_format="pyarrow"),
        "l_orderkey",
        ["qty_c"],
    ).map_batches(
        lambda b: b.filter(
            pc.greater(b.column("qty_c"), pa.scalar(30000, pa.int64()))
        ),
        batch_format="pyarrow",
    )

    def ord_prep(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_custkey": b.column("o_custkey"),
                "date_us": pc.cast(b.column("o_orderdate"), pa.int64()),
                "t_cents": _money_cents(b.column("o_totalprice")),
            }
        )

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    ).map_batches(ord_prep, batch_format="pyarrow")

    def block_top100(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("qty_c")))
        return b.sort_by(
            [("t_cents", "descending"), ("o_orderkey", "ascending")]
        ).slice(0, 100)

    parts = (
        lookup_join_auto(
            orders, qsum, "o_orderkey", "l_orderkey", "qty_c", "qty_c",
        )
        .map_batches(block_top100, batch_format="pyarrow")
        .take_all()  # bounded: ≤ 100 rows per output block
    )
    top = (
        pa.Table.from_pylist(parts)
        .sort_by([("t_cents", "descending"), ("o_orderkey", "ascending")])
        .slice(0, 100)
    )
    keys = top.column("o_custkey").to_pylist()
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"],
        filters=[("c_custkey", "in", list(set(keys)))],
    )
    pos = pc.index_in(top.column("o_custkey"), cust.column("c_custkey"))
    return pd.DataFrame(
        {
            "c_name": pc.take(cust.column("c_name"), pos).to_pandas(),
            "o_custkey": top.column("o_custkey").to_numpy(zero_copy_only=False),
            "o_orderkey": top.column("o_orderkey").to_numpy(zero_copy_only=False),
            "o_orderdate": top.column("date_us").cast(pa.timestamp("us")).to_pandas(),
            "o_totalprice": top.column("t_cents").to_numpy(zero_copy_only=False)
            / 100.0,
            "sum_qty": top.column("qty_c").to_numpy(zero_copy_only=False) / 100.0,
        }
    )


# TPC-H Q18 shape: large-volume customers (HAVING sum(qty) > 300);
# quantities exact int64 ×100, sort on exact totalprice cents
register("tpch_q18", q_tpch_q18, oracle="""
        SELECT c_name, o_custkey, o_orderkey, o_orderdate, o_totalprice,
               t.qty_c / 100.0 AS sum_qty
        FROM orders
        JOIN (SELECT l_orderkey,
                     sum(CAST(round(l_quantity * 100) AS BIGINT)) AS qty_c
              FROM lineitem GROUP BY l_orderkey
              HAVING sum(CAST(round(l_quantity * 100) AS BIGINT)) > 30000) t
          ON o_orderkey = t.l_orderkey
        JOIN customer ON c_custkey = o_custkey
        ORDER BY CAST(round(o_totalprice * 100) AS BIGINT) DESC, o_orderkey ASC
        LIMIT 100
    """)


def q_tpch_q19(sf_dir: str):
    """TPC-H Q19 shape: disjunctive brand/size/quantity predicates over
    lineitem ⋈ part.  The part dim ships ONE packed int64 per key
    (p_size × 1000 + brand number) through lookup_join_auto; the three
    OR branches evaluate as vectorized masks map-side and only int64
    revenue partials cross blocks."""
    import pandas as pd

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"],
    ).map_batches(
        lambda b: pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "code": pc.add(
                    pc.multiply(
                        pc.cast(b.column("p_size"), pa.int64()),
                        pa.scalar(1000, pa.int64()),
                    ),
                    pc.cast(
                        pc.utf8_slice_codeunits(b.column("p_brand"), 6, 12),
                        pa.int64(),
                    ),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_partkey": b.column("l_partkey"),
                "qty": _money_cents(b.column("l_quantity"), factor=1.0),
                "rev": pc.multiply(
                    _money_cents(b.column("l_extendedprice")),
                    pc.subtract(
                        pa.scalar(100, pa.int64()),
                        _money_cents(b.column("l_discount")),
                    ),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    BRANCHES = ((12, 5, 1, 11), (23, 10, 10, 20), (34, 15, 20, 30))

    def branch_filter(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("code")))
        code = b.column("code").to_numpy(zero_copy_only=False)
        qty = b.column("qty").to_numpy(zero_copy_only=False)
        size = code // 1000
        brand = code % 1000
        keep = np.zeros(len(code), dtype=bool)
        for br, smax, qlo, qhi in BRANCHES:
            keep |= (
                (brand == br)
                & (size >= 1)
                & (size <= smax)
                & (qty >= qlo)
                & (qty <= qhi)
            )
        return pa.table({"rev": pc.filter(b.column("rev"), pa.array(keep))})

    total = (
        lookup_join_auto(
            li, part, "l_partkey", "p_partkey", "code", "code",
        )
        .map_batches(branch_filter, batch_format="pyarrow")
        .aggregate(Sum("rev"))
    )
    cents4 = total.get("sum(rev)") or 0
    return pd.DataFrame({"revenue": [cents4 / 10000.0]})


# TPC-H Q19 shape: disjunctive brand/size/quantity predicates
register("tpch_q19", q_tpch_q19, oracle="""
        SELECT coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(round(l_discount * 100) AS BIGINT))), 0)
                   / 10000.0 AS revenue
        FROM lineitem, part
        WHERE l_partkey = p_partkey
          AND ((p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 5
                AND CAST(round(l_quantity) AS BIGINT) BETWEEN 1 AND 11)
            OR (p_brand = 'Brand#23' AND p_size BETWEEN 1 AND 10
                AND CAST(round(l_quantity) AS BIGINT) BETWEEN 10 AND 20)
            OR (p_brand = 'Brand#34' AND p_size BETWEEN 1 AND 15
                AND CAST(round(l_quantity) AS BIGINT) BETWEEN 20 AND 30))
    """)


def q_tpch_q7(sf_dir: str):
    """TPC-H Q7 shape (volume shipping between two nations): lineitems
    shipped 1996-1997 where the supplier sits in NATION_1 and the
    customer in NATION_2 or vice versa, rolled up by (supp_nation,
    cust_nation, ship year).  Supplier and nation are tiny dims —
    broadcast numpy lookups applied map-side BEFORE any join, and the
    two-nation filter prunes ~92% of fact rows pre-shuffle; the
    orders→custkey and customer→nationkey hops go through
    lookup_join_auto.  Volume aggregates as exact int64 10^-4 units;
    nation names attach driver-side to the ≤ 2×n_years result."""
    import pyarrow.parquet as pq
    import pandas as pd

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nkeys = nation.column("n_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    nnames = nation.column("n_name").to_pylist()
    by_name = {n: k for k, n in zip(nkeys, nnames)}
    na, nb = by_name["NATION_1"], by_name["NATION_2"]

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    skeys = sup.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    snat = sup.column("s_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    sorder = np.argsort(skeys)
    skeys, snat = skeys[sorder], snat[sorder]

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"))

    def li_prep(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate")
        b = b.filter(pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi)))
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(skeys, sk)
        pos = np.minimum(pos, len(skeys) - 1)
        s_nat = snat[pos]
        keep = (skeys[pos] == sk) & ((s_nat == na) | (s_nat == nb))
        b = b.filter(pa.array(keep))
        vol = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "s_nat": pa.array(s_nat[keep], pa.int64()),
                "l_year": pc.year(b.column("l_shipdate")),
                "volume": vol,
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: pa.table(
            {
                "c_custkey": b.column("c_custkey"),
                "c_nat": pc.cast(b.column("c_nationkey"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def pair_filter(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("c_nat")))
        s = b.column("s_nat").to_numpy(zero_copy_only=False)
        c = b.column("c_nat").to_numpy(zero_copy_only=False)
        keep = ((s == na) & (c == nb)) | ((s == nb) & (c == na))
        return b.filter(pa.array(keep)).select(["s_nat", "c_nat", "l_year", "volume"])

    joined = lookup_join_auto(
        lookup_join_auto(
            li, orders, "l_orderkey", "o_orderkey", "o_custkey", "o_custkey",
        ),
        cust, "o_custkey", "c_custkey", "c_nat", "c_nat",
    ).map_batches(pair_filter, batch_format="pyarrow")

    out = (
        joined.groupby(["s_nat", "c_nat", "l_year"])
        .aggregate(Sum("volume"))
        .to_pandas()
    )
    name_of = {k: n for k, n in zip(nkeys, nnames)}
    return pd.DataFrame(
        {
            "supp_nation": out["s_nat"].map(name_of),
            "cust_nation": out["c_nat"].map(name_of),
            "l_year": out["l_year"].astype(np.int64),
            "revenue": out["sum(volume)"] / 10000.0,
        }
    )


# TPC-H Q7 shape: two-nation volume shipping by ship year
register("tpch_q7", q_tpch_q7, oracle="""
        SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
               year(l_shipdate) AS l_year,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))) / 10000.0
                   AS revenue
        FROM supplier, lineitem, orders, customer, nation n1, nation n2
        WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
          AND c_custkey = o_custkey
          AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
          AND ((n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2')
            OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1'))
          AND l_shipdate >= TIMESTAMP '1996-01-01'
          AND l_shipdate < TIMESTAMP '1998-01-01'
        GROUP BY supp_nation, cust_nation, l_year
    """)


def q_tpch_q8(sf_dir: str):
    """TPC-H Q8 shape (national market share): of all PROMO-part volume
    ordered 1996-1997 by ASIA customers, the share supplied from
    NATION_3, per order year.  Supplier→nation and nation→region are
    map-side numpy lookups; the part promo flag and the packed
    (custkey, order-year) value ride lookup_join_auto; numerator and
    denominator aggregate as exact int64 and divide once per year on
    the driver (mirroring SQL's integer-sum / integer-sum double
    division)."""
    import pyarrow.parquet as pq
    import pandas as pd

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    region = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    )
    asia_rk = region.filter(pc.equal(region.column("r_name"), "ASIA")).column(
        "r_regionkey"
    )[0].as_py()
    nk = nation.column("n_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    asia_nations = np.sort(
        nk[
            nation.column("n_regionkey").to_numpy(zero_copy_only=False).astype(np.int64)
            == asia_rk
        ]
    )
    share_nat = nation.filter(
        pc.equal(nation.column("n_name"), "NATION_3")
    ).column("n_nationkey")[0].as_py()

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    skeys = sup.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    snat = sup.column("s_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    sorder = np.argsort(skeys)
    skeys, snat = skeys[sorder], snat[sorder]

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_type"]
    ).map_batches(
        lambda b: pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "promo": pc.cast(pc.equal(b.column("p_type"), "PROMO"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1998-01-01", "us"))

    def ord_prep(b: pa.Table) -> pa.Table:
        d = b.column("o_orderdate")
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        packed = pc.add(
            pc.multiply(b.column("o_custkey"), pa.scalar(16, pa.int64())),
            pc.subtract(pc.year(b.column("o_orderdate")), pa.scalar(1992, pa.int64())),
        )
        return pa.table({"o_orderkey": b.column("o_orderkey"), "packed": packed})

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    ).map_batches(ord_prep, batch_format="pyarrow")

    def li_prep(b: pa.Table) -> pa.Table:
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.minimum(np.searchsorted(skeys, sk), len(skeys) - 1)
        keep = skeys[pos] == sk
        b = b.filter(pa.array(keep))
        vol = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_partkey": b.column("l_partkey"),
                "s_nat": pa.array(snat[pos][keep], pa.int64()),
                "volume": vol,
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pyarrow")

    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: pa.table(
            {
                "c_custkey": b.column("c_custkey"),
                "c_nat": pc.cast(b.column("c_nationkey"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    def finish(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(pc.is_valid(b.column("promo")), pc.is_valid(b.column("packed"))),
            pc.is_valid(b.column("c_nat")),
        )
        b = b.filter(m)
        b = b.filter(pc.equal(b.column("promo"), pa.scalar(1, pa.int64())))
        cn = b.column("c_nat").to_numpy(zero_copy_only=False)
        pos = np.minimum(np.searchsorted(asia_nations, cn), len(asia_nations) - 1)
        b = b.filter(pa.array(asia_nations[pos] == cn))
        year = pc.add(
            pc.bit_wise_and(b.column("packed"), pa.scalar(15, pa.int64())),
            pa.scalar(1992, pa.int64()),
        )
        vol = b.column("volume")
        num = pc.multiply(
            vol, pc.cast(pc.equal(b.column("s_nat"), share_nat), pa.int64())
        )
        return pa.table({"o_year": year, "num": num, "den": vol})

    joined = lookup_join_auto(
        lookup_join_auto(
            lookup_join_auto(
                li, part, "l_partkey", "p_partkey", "promo", "promo",
            ),
            orders, "l_orderkey", "o_orderkey", "packed", "packed",
        ).map_batches(
            # custkey for the customer hop comes out of the packed value
            lambda b: b.append_column(
                "o_custkey",
                pc.divide(b.column("packed"), pa.scalar(16, pa.int64())),
            ),
            batch_format="pyarrow",
        ),
        cust, "o_custkey", "c_custkey", "c_nat", "c_nat",
    ).map_batches(finish, batch_format="pyarrow")

    out = (
        joined.groupby("o_year")
        .aggregate(Sum("num"), Sum("den"))
        .to_pandas()
        .sort_values("o_year", ignore_index=True)
    )
    return pd.DataFrame(
        {
            "o_year": out["o_year"].astype(np.int64),
            "mkt_share": out["sum(num)"].astype(float) / out["sum(den)"].astype(float),
        }
    )


# TPC-H Q8 shape: NATION_3's share of ASIA-customer PROMO volume
register("tpch_q8", q_tpch_q8, oracle="""
        SELECT o_year,
               sum(CASE WHEN nat = 'NATION_3' THEN vol ELSE 0 END) / sum(vol)
                   AS mkt_share
        FROM (SELECT year(o_orderdate) AS o_year,
                     CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT)) AS vol,
                     n2.n_name AS nat
              FROM part, supplier, lineitem, orders, customer,
                   nation n1, nation n2, region
              WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
                AND l_orderkey = o_orderkey AND o_custkey = c_custkey
                AND c_nationkey = n1.n_nationkey
                AND n1.n_regionkey = r_regionkey AND r_name = 'ASIA'
                AND s_nationkey = n2.n_nationkey
                AND o_orderdate >= TIMESTAMP '1996-01-01'
                AND o_orderdate < TIMESTAMP '1998-01-01'
                AND p_type = 'PROMO')
        GROUP BY o_year
        ORDER BY o_year
    """)


def q_tpch_q2(sf_dir: str):
    """TPC-H Q2 shape (minimum-cost supplier): for every size-15 part,
    the EUROPE supplier quoting the lowest price (l_extendedprice
    stands in for ps_supplycost — the synthetic schema has no
    partsupp).  The correlated MIN subquery becomes one argmin-per-key
    groupby: price and supplier pack into a single int64
    (price_c * 2^21 + suppkey, price_c < 2^24, suppkey < 2^21) so
    ``Min(packed)`` IS the lexicographic (price, suppkey) argmin with a
    deterministic tie-break — no join-back against the min value.  The
    nation→region hop is a driver numpy lookup (nations are O(100)
    always); part flag and supplier membership ride lookup_join_auto;
    s_name attaches to the part-bounded result via one more lookup."""
    import pyarrow.parquet as pq

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"),
        columns=["n_nationkey", "n_regionkey"],
    )
    region = pq.read_table(
        os.path.join(sf_dir, "region.parquet"),
        columns=["r_regionkey", "r_name"],
    )
    euro = region.filter(pc.equal(region.column("r_name"), "EUROPE")).column(
        "r_regionkey"
    )
    euro_nations = pa.array(
        nation.filter(pc.is_in(nation.column("n_regionkey"), euro))
        .column("n_nationkey")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )

    def part_prep(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.equal(
                pc.cast(b.column("p_size"), pa.int64()), pa.scalar(15, pa.int64())
            )
        )
        return pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "__flag": pa.array(np.ones(b.num_rows, np.int64)),
            }
        )

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_size"]
    ).map_batches(part_prep, batch_format="pyarrow")
    sup = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    ).map_batches(
        lambda b: pa.table(
            {
                "s_suppkey": b.column("s_suppkey"),
                "__euro": pc.cast(
                    pc.is_in(
                        pc.cast(b.column("s_nationkey"), pa.int64()), euro_nations
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    SHIFT = pa.scalar(1 << 21, pa.int64())

    def pack(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(b.column("__flag")),
            pc.equal(
                pc.coalesce(b.column("__euro"), pa.scalar(0, pa.int64())),
                pa.scalar(1, pa.int64()),
            ),
        )
        b = b.filter(keep)
        price_c = _money_cents(b.column("l_extendedprice"))
        packed = pc.add(
            pc.multiply(price_c, SHIFT),
            pc.cast(b.column("l_suppkey"), pa.int64()),
        )
        return pa.table({"p_partkey": b.column("l_partkey"), "packed": packed})

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )
    li = lookup_join_auto(
        li, part, "l_partkey", "p_partkey", "__flag", "__flag",
    )
    li = lookup_join_auto(
        li, sup, "l_suppkey", "s_suppkey", "__euro", "__euro",
    )

    def unpack(b: pa.Table) -> pa.Table:
        packed = pc.cast(b.column("min(packed)"), pa.int64())
        price_c = pc.divide(packed, SHIFT)
        suppkey = pc.subtract(packed, pc.multiply(price_c, SHIFT))
        return pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "s_suppkey": suppkey,
                "min_price": pc.divide(
                    pc.cast(price_c, pa.float64()), pa.scalar(100.0)
                ),
            }
        )

    best = (
        li.map_batches(pack, batch_format="pyarrow")
        .groupby("p_partkey")
        .aggregate(Min("packed"))
        .map_batches(unpack, batch_format="pyarrow")
    )
    names = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_name"]
    )
    return lookup_join_auto(
        best, names, "s_suppkey", "s_suppkey", "s_name", "s_name",
    )


# TPC-H Q2 shape: argmin-per-part min-cost EUROPE supplier with a
# deterministic (price, suppkey) tie-break, mirrored as row_number()
register("tpch_q2", q_tpch_q2, oracle="""
        SELECT t.p_partkey, t.s_suppkey, t.price_c / 100.0 AS min_price,
               sup.s_name
        FROM (SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS price_c,
                     row_number() OVER (
                         PARTITION BY l_partkey
                         ORDER BY CAST(round(l_extendedprice * 100) AS BIGINT),
                                  l_suppkey) AS rn
              FROM lineitem, part, supplier, nation, region
              WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
                AND p_size = 15
                AND s_nationkey = n_nationkey
                AND n_regionkey = r_regionkey AND r_name = 'EUROPE') t
        JOIN supplier sup ON sup.s_suppkey = t.s_suppkey
        WHERE t.rn = 1
    """)


def q_tpch_q15(sf_dir: str):
    """TPC-H Q15 shape (top supplier): per-supplier revenue for
    1996-Q1 shipments, keeping every supplier tied at the maximum —
    the view + ``= (SELECT max(...))`` selection.  Per-supplier sums
    are exact int64 10^-4 units (supplier-bounded groupby), the global
    max folds to ONE driver scalar via a second tiny aggregate, and
    the equality filter + name lookup stay map-side — the fact table
    shuffles exactly once, ties survive bit-exactly (no float max)."""

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1996-04-01", "us"))

    def li_prep(b: pa.Table) -> pa.Table:
        ship = b.column("l_shipdate")
        b = b.filter(pc.and_(pc.greater_equal(ship, lo), pc.less(ship, hi)))
        vol = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        return pa.table({"s_suppkey": b.column("l_suppkey"), "vol": vol})

    revs = (
        rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
        )
        .map_batches(li_prep, batch_format="pyarrow")
        .groupby("s_suppkey")
        .aggregate(Sum("vol"))
        .map_batches(
            lambda b: _rename(b, {"sum(vol)": "total_c"}), batch_format="pyarrow"
        )
        .materialize()  # supplier-bounded; consumed twice (max + filter)
    )
    mx = revs.aggregate(Max("total_c"))["max(total_c)"]

    top = revs.map_batches(
        lambda b: b.filter(
            pc.equal(b.column("total_c"), pa.scalar(mx, pa.int64()))
        ),
        batch_format="pyarrow",
    )
    names = rd.read_parquet(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_name"]
    )
    return lookup_join_auto(
        top, names, "s_suppkey", "s_suppkey", "s_name", "s_name",
    ).map_batches(
        lambda b: pa.table(
            {
                "s_suppkey": b.column("s_suppkey"),
                "s_name": b.column("s_name"),
                "total_revenue": pc.divide(
                    pc.cast(b.column("total_c"), pa.float64()),
                    pa.scalar(10000.0),
                ),
            }
        ),
        batch_format="pyarrow",
    )


# TPC-H Q15 shape: top supplier(s) by 1996-Q1 revenue, ties kept
# via an exact integer = (SELECT max(...)) selection
register("tpch_q15", q_tpch_q15, oracle="""
        WITH revenue AS (
            SELECT l_suppkey AS s_suppkey,
                   sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(round(l_discount * 100) AS BIGINT)))
                       AS total_c
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate < TIMESTAMP '1996-04-01'
            GROUP BY l_suppkey)
        SELECT r.s_suppkey, s.s_name, r.total_c / 10000.0 AS total_revenue
        FROM revenue r JOIN supplier s ON s.s_suppkey = r.s_suppkey
        WHERE r.total_c = (SELECT max(total_c) FROM revenue)
    """)


def q_tpch_q9(sf_dir: str):
    """TPC-H Q9 shape (product-type profit): profit on 'red' parts by
    supplier nation and order year, where profit = discounted revenue
    minus p_retailprice*quantity (retailprice stands in for the absent
    ps_supplycost).  The part hop ships retail cents as the lookup
    value (match == flag, so one join does filter + payload); the
    supplier→nation hop is the q7 numpy broadcast; the order-year hop
    rides lookup_join_auto.  Both profit terms are exact int64 10^-4
    dollars, so the (nation, year)-bounded rollup is block-order
    invariant; nation names attach driver-side to the tiny result."""
    import pyarrow.parquet as pq

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nkeys = nation.column("n_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    nnames = nation.column("n_name").to_pylist()
    name_of = dict(zip(nkeys.tolist(), nnames))

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    skeys = sup.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
    snat = sup.column("s_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    sorder = np.argsort(skeys)
    skeys, snat = skeys[sorder], snat[sorder]

    def part_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.match_substring(b.column("p_name"), "red"))
        return pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "retail_c": _money_cents(b.column("p_retailprice")),
            }
        )

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_name", "p_retailprice"],
    ).map_batches(part_prep, batch_format="pyarrow")

    def profit(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("retail_c")))
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.minimum(np.searchsorted(skeys, sk), len(skeys) - 1)
        keep = skeys[pos] == sk
        b = b.filter(pa.array(keep))
        s_nat = snat[pos][keep]
        rev = pc.multiply(
            _money_cents(b.column("l_extendedprice")),
            pc.subtract(
                pa.scalar(100, pa.int64()), _money_cents(b.column("l_discount"))
            ),
        )
        cost = pc.multiply(
            b.column("retail_c"), _money_cents(b.column("l_quantity"))
        )
        return pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "s_nat": pa.array(s_nat, pa.int64()),
                "profit_u": pc.subtract(rev, cost),
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=[
            "l_orderkey", "l_partkey", "l_suppkey",
            "l_quantity", "l_extendedprice", "l_discount",
        ],
    )
    li = lookup_join_auto(
        li, part, "l_partkey", "p_partkey", "retail_c", "retail_c",
    ).map_batches(profit, batch_format="pyarrow")

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate"],
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.column("o_orderkey"),
                "o_year": pc.cast(pc.year(b.column("o_orderdate")), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    out = (
        lookup_join_auto(
            li, orders, "l_orderkey", "o_orderkey", "o_year", "o_year",
        )
        .map_batches(
            lambda b: b.filter(pc.is_valid(b.column("o_year"))).select(
                ["s_nat", "o_year", "profit_u"]
            ),
            batch_format="pyarrow",
        )
        .groupby(["s_nat", "o_year"])
        .aggregate(Sum("profit_u"))
        .to_pandas()
    )
    out["nation"] = out["s_nat"].map(name_of)
    out["sum_profit"] = out["sum(profit_u)"].astype(np.int64) / 10000.0
    return out[["nation", "o_year", "sum_profit"]]


# TPC-H Q9 shape: product-type profit by supplier nation and order
# year; profit = discounted revenue - retailprice*qty, exact 10^-4
register("tpch_q9", q_tpch_q9, oracle="""
        SELECT n_name AS nation,
               year(o_orderdate)::BIGINT AS o_year,
               sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                   * (100 - CAST(round(l_discount * 100) AS BIGINT))
                   - CAST(round(p_retailprice * 100) AS BIGINT)
                     * CAST(round(l_quantity * 100) AS BIGINT)) / 10000.0
                   AS sum_profit
        FROM part, supplier, lineitem, orders, nation
        WHERE s_suppkey = l_suppkey AND p_partkey = l_partkey
          AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
          AND p_name LIKE '%red%'
        GROUP BY n_name, year(o_orderdate)
    """)


def q_tpch_q11(sf_dir: str):
    """TPC-H Q11 shape (important stock): per-part inventory value from
    NATION_3 suppliers, keeping parts whose value exceeds 0.1%% of the
    nation's total (l_extendedprice*l_quantity stands in for
    ps_supplycost*ps_availqty — no partsupp in the synthetic schema).
    The HAVING-vs-global-scalar-subquery becomes: one part-bounded
    groupby of exact int64 10^-4 values, one scalar Sum fold, and a
    map-side EXACT integer fraction filter ``value_u * 1000 >
    total_u`` — no float threshold, so ties at the boundary are
    deterministic.  Supplier→nation membership is a driver numpy
    lookup applied before the shuffle (q7 pattern)."""
    import pyarrow.parquet as pq

    nation = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    nat1 = nation.filter(
        pc.equal(nation.column("n_name"), "NATION_3")
    ).column("n_nationkey")
    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_nationkey"],
    )
    keep_sup = np.sort(
        sup.filter(pc.is_in(sup.column("s_nationkey"), nat1))
        .column("s_suppkey")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )

    def value(b: pa.Table) -> pa.Table:
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(keep_sup):
            pos = np.minimum(np.searchsorted(keep_sup, sk), len(keep_sup) - 1)
            keep = keep_sup[pos] == sk
        else:
            keep = np.zeros(len(sk), bool)
        b = b.filter(pa.array(keep))
        return pa.table(
            {
                "p_partkey": b.column("l_partkey"),
                "value_u": pc.multiply(
                    _money_cents(b.column("l_extendedprice")),
                    _money_cents(b.column("l_quantity")),
                ),
            }
        )

    vals = (
        rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_partkey", "l_suppkey", "l_extendedprice", "l_quantity"],
        )
        .map_batches(value, batch_format="pyarrow")
        .groupby("p_partkey")
        .aggregate(Sum("value_u"))
        .map_batches(
            lambda b: _rename(b, {"sum(value_u)": "value_u"}),
            batch_format="pyarrow",
        )
        .materialize()  # part-bounded; consumed twice (total + filter)
    )
    total = vals.aggregate(Sum("value_u"))["sum(value_u)"] or 0

    def important(b: pa.Table) -> pa.Table:
        keep = pc.greater(
            pc.multiply(b.column("value_u"), pa.scalar(1000, pa.int64())),
            pa.scalar(total, pa.int64()),
        )
        b = b.filter(keep)
        return pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "part_value": pc.divide(
                    pc.cast(b.column("value_u"), pa.float64()),
                    pa.scalar(10000.0),
                ),
            }
        )

    return vals.map_batches(important, batch_format="pyarrow")


# TPC-H Q11 shape: per-part value with an exact integer
# fraction-of-global-total filter (value*1000 > total)
register("tpch_q11", q_tpch_q11, oracle="""
        WITH v AS (
            SELECT l_partkey AS p_partkey,
                   sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                       * CAST(round(l_quantity * 100) AS BIGINT)) AS value_u
            FROM lineitem, supplier, nation
            WHERE s_suppkey = l_suppkey AND s_nationkey = n_nationkey
              AND n_name = 'NATION_3'
            GROUP BY l_partkey)
        SELECT p_partkey, value_u / 10000.0 AS part_value
        FROM v
        WHERE value_u * 1000 > (SELECT sum(value_u) FROM v)
    """)


def q_tpch_q16(sf_dir: str):
    """TPC-H Q16 shape (part/supplier relationship): distinct supplier
    count per (p_brand, p_size) over non-Brand#12 parts, excluding
    blacklisted suppliers (s_acctbal < 0 stands in for the complaints
    LIKE subquery).  COUNT(DISTINCT) is the two-level scale-safe
    groupby (dedupe (brand, size, suppkey) triples with map-side
    combine, then a bounded count rollup); the NOT-IN set is tiny by
    construction and applies as a vectorized is_in BEFORE the first
    shuffle; part attrs ship as one packed int64 lookup value
    (brand index * 2^8 + size)."""
    import pyarrow.parquet as pq

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_acctbal"],
    )
    bad = pa.array(
        sup.filter(pc.less(sup.column("s_acctbal"), pa.scalar(0.0)))
        .column("s_suppkey")
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )

    # brand vocabulary must be deterministic and engine/oracle-shared:
    # derive indexes from the numeric suffix (Brand#N -> N), size rides
    # the low 8 bits
    def part_prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.not_equal(b.column("p_brand"), "Brand#12"))
        brand_no = pc.cast(
            pc.utf8_slice_codeunits(b.column("p_brand"), 6, 99), pa.int64()
        )
        packed = pc.add(
            pc.multiply(brand_no, pa.scalar(1 << 8, pa.int64())),
            pc.cast(b.column("p_size"), pa.int64()),
        )
        return pa.table({"p_partkey": b.column("p_partkey"), "packed": packed})

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"],
    ).map_batches(part_prep, batch_format="pyarrow")

    def pair_prep(b: pa.Table) -> pa.Table:
        keep = pc.invert(
            pc.is_in(pc.cast(b.column("l_suppkey"), pa.int64()), bad)
        )
        return pa.table(
            {
                "l_partkey": b.filter(keep).column("l_partkey"),
                "l_suppkey": pc.cast(
                    b.filter(keep).column("l_suppkey"), pa.int64()
                ),
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey"],
        # two-int-column read: 64 default blocks of ~10k rows make the
        # two chained aggregates a task-overhead wall (RAY_NOTES)
        override_num_blocks=16,
    ).map_batches(pair_prep, batch_format="pyarrow")

    def unpack(b: pa.Table) -> pa.Table:
        packed = pc.cast(b.column("packed"), pa.int64())
        brand_no = pc.divide(packed, pa.scalar(1 << 8, pa.int64()))
        size = pc.subtract(
            packed, pc.multiply(brand_no, pa.scalar(1 << 8, pa.int64()))
        )
        return pa.table(
            {
                "p_brand": pc.binary_join_element_wise(
                    pa.array(["Brand#"] * b.num_rows),
                    pc.cast(brand_no, pa.string()),
                    "",
                ),
                "p_size": size,
                "supplier_cnt": b.column("count()"),
            }
        )

    # COUNT(DISTINCT supplier) WITHOUT Ray's generic sort-aggregate:
    # the two-key Aggregate chain measured 55 s of CPU over 522k rows
    # (sf0.1) — the bucketed map_groups idiom (same as keep_min_by)
    # sorts by a 16-value int32 bucket instead and does the distinct +
    # count vectorized per bucket.  5.1 s -> see BASELINE session 8.
    SUPP_BITS = 31  # triple key = packed(brand,size) << 31 | suppkey

    def combine_key(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("packed")))
        packed = b.column("packed").to_numpy(zero_copy_only=False).astype(np.int64)
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(sk) and sk.max() >= (1 << SUPP_BITS):
            raise ValueError("suppkey >= 2^31; widen the triple key")
        # map-side DISTINCT: np.unique cuts shuffle rows to the
        # distinct triples each block saw
        comb = np.unique((packed << SUPP_BITS) | sk)
        with np.errstate(over="ignore"):
            bk = (
                (comb.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(40)
            ) % np.uint64(16)
        return pa.table(
            {
                "comb": pa.array(comb, pa.int64()),
                "__bucket": pa.array(bk.astype(np.int32), pa.int32()),
            }
        )

    def bucket_counts(g: pa.Table) -> pa.Table:
        comb = np.unique(g.column("comb").to_numpy(zero_copy_only=False))
        pair, cnt = np.unique(comb >> SUPP_BITS, return_counts=True)
        return pa.table(
            {
                "packed": pa.array(pair, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    bucketed = lookup_join_auto(
        li, part, "l_partkey", "p_partkey", "packed", "packed"
    ).map_batches(combine_key, batch_format="pyarrow")
    return (
        bucket_map_groups(bucketed, "__bucket", bucket_counts, coalesce=16)
        .groupby("packed")
        .aggregate(Sum("cnt"))  # bounded: <= pairs x buckets partial rows
        .map_batches(
            lambda b: pa.table(
                {"packed": b.column("packed"), "count()": b.column("sum(cnt)")}
            ),
            batch_format="pyarrow",
        )
        .map_batches(unpack, batch_format="pyarrow")
    )


# TPC-H Q16 shape: COUNT(DISTINCT supplier) per (brand, size) with
# a NOT-IN supplier exclusion (negative balance stands in for the
# complaints subquery)
register("tpch_q16", q_tpch_q16, oracle="""
        SELECT p_brand, p_size::BIGINT AS p_size,
               count(DISTINCT l_suppkey)::BIGINT AS supplier_cnt
        FROM lineitem, part
        WHERE p_partkey = l_partkey AND p_brand <> 'Brand#12'
          AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                                WHERE s_acctbal < 0)
        GROUP BY p_brand, p_size
    """)


def q_tpch_q13(sf_dir: str):
    """TPC-H Q13 shape (customer order-count distribution): how many
    customers placed 0, 1, 2, ... URGENT orders.  The LEFT OUTER join
    that TPC-H needs (customers with zero matching orders must appear
    with c_count = 0) is exactly lookup_join_auto's left-outer
    semantics: the per-customer count table — customer-bounded, built
    by ONE groupby over the priority-filtered fact — rides the
    broadcast/bucket lookup, unmatched customers surface as null and
    coalesce to 0 map-side.  The final distribution groupby is
    count-domain-bounded (≤ max orders per customer rows)."""

    counts = (
        rd.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey", "o_orderpriority"],
        )
        .map_batches(
            lambda b: b.filter(
                pc.equal(b.column("o_orderpriority"), "1-URGENT")
            ).select(["o_custkey"]),
            batch_format="pyarrow",
        )
        .groupby("o_custkey")
        .aggregate(Count())
        .map_batches(
            lambda b: _rename(b, {"count()": "c_count"}), batch_format="pyarrow"
        )
    )
    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )

    def fill_zero(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_count": pc.coalesce(
                    pc.cast(b.column("c_count"), pa.int64()),
                    pa.scalar(0, pa.int64()),
                )
            }
        )

    return (
        lookup_join_auto(
            cust, counts, "c_custkey", "o_custkey", "c_count", "c_count",
        )
        .map_batches(fill_zero, batch_format="pyarrow")
        .groupby("c_count")
        .aggregate(Count())
        .map_batches(
            lambda b: _rename(b, {"count()": "custdist"}), batch_format="pyarrow"
        )
    )


# TPC-H Q13 shape: LEFT OUTER join + distribution of per-customer
# order counts (zero-order customers appear with c_count = 0)
register("tpch_q13", q_tpch_q13, oracle="""
        SELECT c_count, count(*)::BIGINT AS custdist
        FROM (SELECT c_custkey, count(o_orderkey)::BIGINT AS c_count
              FROM customer LEFT OUTER JOIN orders
                ON c_custkey = o_custkey
               AND o_orderpriority = '1-URGENT'
              GROUP BY c_custkey) t
        GROUP BY c_count
    """)


def q_tpch_q17(sf_dir: str):
    """TPC-H Q17 shape (small-quantity-order revenue): average yearly
    revenue lost if orders for Brand#23 small parts (p_size <= 7, the
    container stand-in) below 20%% of the part's average order quantity
    were no longer taken.  The correlated AVG subquery becomes two
    map-side-filtered passes over the fact: pass 1 joins the tiny
    brand-part flag via lookup_join_auto and aggregates per-part
    (sum_qty_c, cnt) — brand-part-bounded; pass 2 re-filters and probes
    the per-part thresholds with the EXACT integer predicate
    ``5 * qty_c * cnt < sum_qty_c`` (0.2·avg without any float), then
    sums cents; the single /700.0 division happens on the driver and is
    mirrored literally in the oracle."""
    import pandas as pd

    def part_prep(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.and_(
                pc.equal(b.column("p_brand"), "Brand#23"),
                pc.less_equal(
                    pc.cast(b.column("p_size"), pa.int64()),
                    pa.scalar(7, pa.int64()),
                ),
            )
        )
        return pa.table(
            {
                "p_partkey": b.column("p_partkey"),
                "__flag": pa.array(np.ones(b.num_rows, np.int64)),
            }
        )

    part = rd.read_parquet(
        os.path.join(sf_dir, "part.parquet"),
        columns=["p_partkey", "p_brand", "p_size"],
    ).map_batches(part_prep, batch_format="pyarrow")

    def li_flagged() -> rd.Dataset:
        li = rd.read_parquet(
            os.path.join(sf_dir, "lineitem.parquet"),
            columns=["l_partkey", "l_quantity", "l_extendedprice"],
        ).map_batches(
            lambda b: pa.table(
                {
                    "l_partkey": b.column("l_partkey"),
                    "qty_c": _money_cents(b.column("l_quantity")),
                    "price_c": _money_cents(b.column("l_extendedprice")),
                }
            ),
            batch_format="pyarrow",
        )
        return lookup_join_auto(
            li, part, "l_partkey", "p_partkey", "__flag", "__flag",
        ).map_batches(
            lambda b: b.filter(pc.is_valid(b.column("__flag"))).drop_columns(
                ["__flag"]
            ),
            batch_format="pyarrow",
        )

    # the flagged subset is brand-bounded (~4% of the fact) and consumed
    # twice (thresholds + final probe): pin it once instead of running
    # the 600k-row join probe per consumer (RAY_NOTES double-consumption)
    flagged = li_flagged().materialize()

    thresholds = (
        flagged
        .groupby("l_partkey")
        .aggregate(Sum("qty_c"), Count())
        .map_batches(
            lambda b: pa.table(
                {
                    "p_partkey": b.column("l_partkey"),
                    # pack (sum, cnt) into one lookup value: cnt is the
                    # per-part lineitem count (< 2^20 by fact/dim ratio
                    # at any TPC-H scale), sum_qty_c < 2^43 per part
                    "packed": pc.add(
                        pc.multiply(
                            pc.cast(b.column("sum(qty_c)"), pa.int64()),
                            pa.scalar(1 << 20, pa.int64()),
                        ),
                        pc.cast(b.column("count()"), pa.int64()),
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )

    def small_only(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column("packed")))
        packed = b.column("packed")
        sum_c = pc.divide(packed, pa.scalar(1 << 20, pa.int64()))
        cnt = pc.subtract(
            packed, pc.multiply(sum_c, pa.scalar(1 << 20, pa.int64()))
        )
        keep = pc.less(
            pc.multiply(
                pc.multiply(b.column("qty_c"), pa.scalar(5, pa.int64())), cnt
            ),
            sum_c,
        )
        return pa.table({"price_c": b.filter(keep).column("price_c")})

    total = (
        lookup_join_auto(
            flagged, thresholds, "l_partkey", "p_partkey",
            "packed", "packed",
        )
        .map_batches(small_only, batch_format="pyarrow")
        .aggregate(Sum("price_c"))
    )
    cents = total.get("sum(price_c)") or 0
    return pd.DataFrame({"avg_yearly": [cents / 700.0]})


# TPC-H Q17 shape: correlated per-part AVG subquery, exact integer
# predicate 5*qty*cnt < sum_qty (== qty < 0.2*avg, no float)
register("tpch_q17", q_tpch_q17, oracle="""
        SELECT coalesce(sum(CAST(round(l_extendedprice * 100) AS BIGINT)), 0)
                   / 700.0 AS avg_yearly
        FROM lineitem
        JOIN part ON p_partkey = l_partkey
        JOIN (SELECT l_partkey AS pk,
                     sum(CAST(round(l_quantity * 100) AS BIGINT)) AS s,
                     count(*)::BIGINT AS c
              FROM lineitem JOIN part ON p_partkey = l_partkey
              WHERE p_brand = 'Brand#23' AND p_size <= 7
              GROUP BY l_partkey) t ON t.pk = l_partkey
        WHERE p_brand = 'Brand#23' AND p_size <= 7
          AND 5 * CAST(round(l_quantity * 100) AS BIGINT) * t.c < t.s
    """)


def q_tpch_q20(sf_dir: str):
    """TPC-H Q20 shape (potential part promotion): suppliers in one
    region holding "excess availability" of red parts — the nested
    IN-subquery chain ``supplier IN (partsupp WHERE partkey IN (parts)
    AND availqty > 1/2 · qty shipped in the year)``.  The testdata has
    no partsupp table, so availqty is a deterministic stand-in derived
    from the pair key (``((partkey·7 + suppkey·11) mod 991) + 10``) —
    both engines recompute it arithmetically, keeping the correlated
    compare exact.  Plan: the red-part key set broadcasts (``ray.put``
    once, sorted-array membership per batch — part is a dim), the fact
    scan prunes map-side to in-window red-part rows BEFORE the one
    (partkey, suppkey) groupby-sum shuffle, the availability compare is
    an integer rule (``2·avail > qty``) on the grouped rows, and the
    surviving supplier set (bounded by the supplier dim) resolves names
    and the region filter driver-side."""
    import pyarrow.parquet as pq

    red = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_name"]
    )
    red = red.filter(pc.starts_with(red.column("p_name"), "red"))
    red_keys = np.sort(
        red.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
    )
    red_ref = ray.put(red_keys)

    lo = pa.scalar(np.datetime64("1996-01-01", "us"))
    hi = pa.scalar(np.datetime64("1997-01-01", "us"))

    def li_prune(b: pa.Table) -> pa.Table:
        d = b.column("l_shipdate")
        b = b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))
        keys = ray.get(red_ref)
        pk = b.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(keys, pk)
        hit = (pos < len(keys)) & (keys[np.minimum(pos, len(keys) - 1)] == pk)
        b = b.filter(pa.array(hit))
        return pa.table(
            {
                "l_partkey": b.column("l_partkey"),
                "l_suppkey": b.column("l_suppkey"),
                # quantities are integral — exact int64 sums
                "qty": _money_cents(b.column("l_quantity"), factor=1.0),
            }
        )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"],
    ).map_batches(li_prune, batch_format="pyarrow")

    def excess(b: pa.Table) -> pa.Table:
        pk = pc.cast(b.column("l_partkey"), pa.int64())
        sk = pc.cast(b.column("l_suppkey"), pa.int64())
        avail = pc.add(
            _pc_mod(
                pc.add(
                    pc.multiply(pk, pa.scalar(7, pa.int64())),
                    pc.multiply(sk, pa.scalar(11, pa.int64())),
                ),
                991,
            ),
            pa.scalar(10, pa.int64()),
        )
        keep = pc.greater(
            pc.multiply(avail, pa.scalar(2, pa.int64())), b.column("sum(qty)")
        )
        return pa.table({"l_suppkey": b.filter(keep).column("l_suppkey")})

    supp_hits = (
        li.groupby(["l_partkey", "l_suppkey"])
        .aggregate(Sum("qty"))
        .map_batches(excess, batch_format="pyarrow")
        .groupby("l_suppkey")
        .aggregate(Count())  # distinct suppliers — bounded by the dim
        .to_pandas()
    )

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name", "s_nationkey"],
    ).to_pandas()
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_regionkey"]
    ).to_pandas()
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    ).to_pandas()
    europe = set(
        nat.merge(reg[reg["r_name"] == "EUROPE"], left_on="n_regionkey",
                  right_on="r_regionkey")["n_nationkey"]
    )
    out = sup[
        sup["s_suppkey"].isin(set(supp_hits["l_suppkey"].astype(np.int64)))
        & sup["s_nationkey"].isin(europe)
    ][["s_suppkey", "s_name"]].sort_values("s_name")
    out["s_suppkey"] = out["s_suppkey"].astype(np.int64)
    return out.reset_index(drop=True)


# q20 adapted: availqty is a deterministic pair-key function (no
# partsupp table in the testdata); the correlated compare is exact
# integer arithmetic on both sides
register("tpch_q20", q_tpch_q20, oracle="""
        WITH qty AS (
            SELECT l_partkey, l_suppkey,
                   sum(CAST(round(l_quantity) AS BIGINT)) AS q
            FROM lineitem
            WHERE l_partkey IN (SELECT p_partkey FROM part
                                WHERE p_name LIKE 'red%')
              AND l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate <  TIMESTAMP '1997-01-01'
            GROUP BY 1, 2
        ), qual AS (
            SELECT DISTINCT l_suppkey FROM qty
            WHERE 2 * (((l_partkey * 7 + l_suppkey * 11) % 991) + 10) > q
        )
        SELECT s_suppkey::BIGINT AS s_suppkey, s_name
        FROM qual
        JOIN supplier ON l_suppkey = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        WHERE r_name = 'EUROPE'
        ORDER BY s_name
    """)


def q_tpch_q21(sf_dir: str):
    """TPC-H Q21 shape (suppliers who kept orders waiting): for
    finished ('F') multi-supplier orders where EXACTLY ONE supplier
    shipped late, blame that supplier — the EXISTS(other supplier) +
    NOT-EXISTS(other LATE supplier) double-correlated pattern.  The
    testdata has no commit/receipt dates, so "late" adapts to
    ``l_shipdate > o_orderdate + 60 days`` (ship lag).  Plan: both
    correlated subqueries collapse into ONE per-order aggregate pass —
    lineitems pick up the finished-order date through lookup_join_auto
    (broadcast under the byte cap, bucketed shuffle beyond), dedup to
    (order, supplier, was-late) via a two-key groupby-max, then a
    per-order aggregate computes n_suppliers / n_late / blamed
    (min late suppkey) in one shuffle over the deduped rows; the
    numwait rollup is supplier-bounded, and the region filter applies
    to the BLAMED supplier only (as in the original), driver-side."""
    import pyarrow.parquet as pq

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderstatus"],
    ).map_batches(
        lambda b: pa.table(
            {
                "o_orderkey": b.filter(
                    pc.equal(b.column("o_orderstatus"), "F")
                ).column("o_orderkey"),
                "date_us": pc.cast(
                    b.filter(pc.equal(b.column("o_orderstatus"), "F")).column(
                        "o_orderdate"
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    ).map_batches(
        lambda b: pa.table(
            {
                "l_orderkey": b.column("l_orderkey"),
                "l_suppkey": b.column("l_suppkey"),
                "ship_us": pc.cast(b.column("l_shipdate"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    LAG_US = 60 * 86_400 * 1_000_000  # 60 days in microseconds
    OK_BITS, SK_BITS = 30, 31  # comb = orderkey << 32 | suppkey << 1 | late

    def key_rows(b: pa.Table) -> pa.Table:
        # inner semantics: drop lineitems of non-'F' orders (null date)
        b = b.filter(pc.is_valid(b.column("date_us")))
        ok = b.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        sk = b.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ok) and (ok.max() >= (1 << OK_BITS) or sk.max() >= (1 << SK_BITS)):
            raise ValueError("orderkey/suppkey exceed the packed key budget")
        late = (
            b.column("ship_us").to_numpy(zero_copy_only=False)
            > b.column("date_us").to_numpy(zero_copy_only=False) + LAG_US
        ).astype(np.int64)
        # map-side DISTINCT on the packed triple cuts shuffle rows; the
        # bucket hashes the ORDERKEY so one group sees an order whole
        comb = np.unique((ok << 32) | (sk << 1) | late)
        with np.errstate(over="ignore"):
            bk = (
                ((comb >> 32).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(40)
            ) % np.uint64(16)
        return pa.table(
            {
                "comb": pa.array(comb, pa.int64()),
                "__bucket": pa.array(bk.astype(np.int32), pa.int32()),
            }
        )

    def order_verdicts(g: pa.Table) -> pa.Table:
        # One vectorized pass replaces the two-key Max dedup, the
        # per-order Count/Sum/Min aggregate AND the verdict filter (the
        # generic sort-aggregate chain measured ~10x slower on this
        # shape — see tpch_q16 / BASELINE session 8).
        comb = np.unique(g.column("comb").to_numpy(zero_copy_only=False))
        if not len(comb):  # empty bucket: the segment seams below
            return pa.table({"blamed": pa.array([], pa.int64())})  # need >=1 row
        ok, sk, late = comb >> 32, (comb & 0xFFFFFFFF) >> 1, comb & 1
        # per (order, supplier) max(late): comb sorted => late=1 follows
        # late=0 within a pair, so the LAST row of each pair run wins
        pair = (ok << SK_BITS) | sk
        _, first = np.unique(pair, return_index=True)
        last = np.r_[first[1:], len(pair)] - 1
        ok_u, sk_u, late_u = ok[last], sk[last], late[last]
        # per-order segments (ok_u nondecreasing after unique)
        new_seg = np.r_[True, ok_u[1:] != ok_u[:-1]]
        seg = np.cumsum(new_seg) - 1
        n_supp = np.bincount(seg)
        n_late = np.bincount(seg, weights=late_u).astype(np.int64)
        # blamed = MIN late suppkey per order: rows are (ok, sk)-sorted,
        # so the first late row in a segment carries the min suppkey
        m = late_u == 1
        seg_ids, idx = np.unique(seg[m], return_index=True)
        blamed_of = np.full(len(n_supp), -1, np.int64)
        blamed_of[seg_ids] = sk_u[m][idx]
        elig = (n_supp >= 2) & (n_late == 1)
        return pa.table({"blamed": pa.array(blamed_of[elig], pa.int64())})

    keyed = lookup_join_auto(
        li, orders, "l_orderkey", "o_orderkey", "date_us", "date_us"
    ).map_batches(key_rows, batch_format="pyarrow")
    numwait = (
        bucket_map_groups(keyed, "__bucket", order_verdicts, coalesce=16)
        .groupby("blamed")
        .aggregate(Count())  # supplier-bounded rollup
        .to_pandas()
    )

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"),
        columns=["s_suppkey", "s_name", "s_nationkey"],
    ).to_pandas()
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_regionkey"]
    ).to_pandas()
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    ).to_pandas()
    asia = set(
        nat.merge(reg[reg["r_name"] == "ASIA"], left_on="n_regionkey",
                  right_on="r_regionkey")["n_nationkey"]
    )
    out = numwait.rename(columns={"count()": "numwait"}).merge(
        sup[sup["s_nationkey"].isin(asia)], left_on="blamed", right_on="s_suppkey"
    )
    out["numwait"] = out["numwait"].astype(np.int64)
    return (
        out.sort_values(["numwait", "s_name"], ascending=[False, True])
        .head(10)[["s_name", "numwait"]]
        .reset_index(drop=True)
    )


# q21 adapted: "late" = shipped more than 60 days after the order
# date (no commit/receipt dates in the testdata); the double
# correlated EXISTS/NOT-EXISTS collapses to per-order aggregates
register("tpch_q21", q_tpch_q21, oracle="""
        WITH f AS (SELECT o_orderkey, o_orderdate FROM orders
                   WHERE o_orderstatus = 'F'),
        li AS (
            SELECT l_orderkey, l_suppkey,
                   max(CASE WHEN l_shipdate > o_orderdate + INTERVAL 60 DAY
                            THEN 1 ELSE 0 END) AS late
            FROM lineitem JOIN f ON l_orderkey = o_orderkey
            GROUP BY 1, 2
        ), agg AS (
            SELECT l_orderkey, count(*) AS n_supp, sum(late) AS n_late,
                   min(CASE WHEN late = 1 THEN l_suppkey END) AS blamed
            FROM li GROUP BY 1
        )
        SELECT s_name, count(*)::BIGINT AS numwait
        FROM agg
        JOIN supplier ON blamed = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        WHERE n_supp >= 2 AND n_late = 1 AND r_name = 'ASIA'
        GROUP BY s_name
        ORDER BY numwait DESC, s_name
        LIMIT 10
    """)


def q_tpch_q22(sf_dir: str):
    """TPC-H Q22 shape (global-sales-opportunity): customers from seven
    country codes (c_nationkey stands in for the phone prefix) whose
    account balance beats the positive-balance average of that same
    cohort AND who placed no recent order (none since 2000-01-01) —
    scalar aggregate subquery + NOT-EXISTS anti-join + final rollup.
    The global average is two int64 partials (sum cents, count) folded
    on the driver and compared EXACTLY as ``acctbal_c * cnt > sum_c``
    (no float threshold); the anti-join is joins.member_filter against
    the distinct recent-custkey set (fact side never shuffles); the
    rollup is nation-bounded."""

    codes = pa.array([1, 3, 5, 7, 9, 11, 13], pa.int64())

    def cohort(b: pa.Table) -> pa.Table:
        b = b.filter(
            pc.is_in(pc.cast(b.column("c_nationkey"), pa.int64()), codes)
        )
        return pa.table(
            {
                "c_custkey": b.column("c_custkey"),
                "cntrycode": pc.cast(b.column("c_nationkey"), pa.int64()),
                "bal_c": _money_cents(b.column("c_acctbal")),
            }
        )

    def cust_ds() -> rd.Dataset:
        return rd.read_parquet(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_nationkey", "c_acctbal"],
        ).map_batches(cohort, batch_format="pyarrow")

    def positive(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater(b.column("bal_c"), pa.scalar(0, pa.int64())))
        return pa.table({"bal_c": b.column("bal_c")})

    avg_parts = (
        cust_ds()
        .map_batches(positive, batch_format="pyarrow")
        .aggregate(Sum("bal_c"), Count())
    )
    sum_c = avg_parts.get("sum(bal_c)") or 0
    cnt = avg_parts.get("count()") or 0

    lo = pa.scalar(np.datetime64("2000-01-01", "us"))
    recent_keys = (
        rd.read_parquet(
            os.path.join(sf_dir, "orders.parquet"),
            columns=["o_custkey", "o_orderdate"],
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "c_custkey": pc.unique(
                        b.filter(pc.greater_equal(b.column("o_orderdate"), lo))
                        .column("o_custkey")
                        .combine_chunks()
                    )
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("c_custkey")
        .aggregate(Count())
        .map_batches(lambda b: b.select(["c_custkey"]), batch_format="pyarrow")
    )

    def rich(b: pa.Table) -> pa.Table:
        keep = pc.greater(
            pc.multiply(b.column("bal_c"), pa.scalar(cnt, pa.int64())),
            pa.scalar(sum_c, pa.int64()),
        )
        return b.filter(keep)

    out = (
        member_filter(
            cust_ds().map_batches(rich, batch_format="pyarrow"),
            recent_keys,
            "c_custkey",
            keep=False,
        )
        .groupby("cntrycode")
        .aggregate(Count(), Sum("bal_c"))
        .to_pandas()
    )
    out["numcust"] = out["count()"].astype(np.int64)
    out["totacctbal"] = out["sum(bal_c)"].astype(np.int64) / 100.0
    return out[["cntrycode", "numcust", "totacctbal"]]


# TPC-H Q22 shape: scalar-subquery threshold (exact integer compare
# bal*cnt > sum) + NOT EXISTS anti-join + nation-bounded rollup
register("tpch_q22", q_tpch_q22, oracle="""
        SELECT c_nationkey::BIGINT AS cntrycode, count(*)::BIGINT AS numcust,
               sum(CAST(round(c_acctbal * 100) AS BIGINT)) / 100.0
                   AS totacctbal
        FROM customer c
        WHERE c_nationkey IN (1, 3, 5, 7, 9, 11, 13)
          AND CAST(round(c_acctbal * 100) AS BIGINT)
              * (SELECT count(*) FROM customer
                 WHERE c_nationkey IN (1, 3, 5, 7, 9, 11, 13)
                   AND CAST(round(c_acctbal * 100) AS BIGINT) > 0)
              > (SELECT sum(CAST(round(c_acctbal * 100) AS BIGINT))
                 FROM customer
                 WHERE c_nationkey IN (1, 3, 5, 7, 9, 11, 13)
                   AND CAST(round(c_acctbal * 100) AS BIGINT) > 0)
          AND NOT EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey
                            AND o.o_orderdate >= TIMESTAMP '2000-01-01')
        GROUP BY c_nationkey
    """)
