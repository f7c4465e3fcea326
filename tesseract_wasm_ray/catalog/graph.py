"""Graph analytics over the arithmetic link graph of the documents
table: PageRank, triangle counts, connected components, each beside
its DuckDB oracle.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Count, Sum

from ..functions.fastmd5 import md5_hex
from ..pipelines.joins import bucket_map_groups
from . import register
from .common import _docs, _rename


def q_pagerank(sf_dir: str):
    """Distributed PageRank (4 power-iteration rounds, damping 0.85)
    over a deterministic link graph: document ``src`` links to
    ``1 + src % 3`` targets derived by a Knuth-style multiplicative
    hash mod n (doc_ids are contiguous 0..n-1 in the testdata, so
    every target is a real node).  The VARYING out-degree matters: a
    fixed out-degree would make every k-layer of the multiplicative
    map a bijection mod n (gcd(2654435761, n) = 1), giving uniform
    in-degree 3 and the trivial all-ranks-1.0 fixed point; restricting
    layer k to the srcs with outdeg >= k skews in-degrees to 0..3 and
    produces a real rank distribution.  The canonical ITERATIVE-shuffle
    workload: each round is one streaming pass — map tasks compute
    every node's per-edge contribution arithmetically (the edge list
    never materializes as a table; dst = f(src) is recomputed per
    batch), one map-side-combined groupby(dst).sum gathers in-flows,
    and a union with a zero row per node keeps rank mass on nodes with
    no in-links.  Per round the shuffle moves ≤4 int64 rows per node
    (≤3 contributions + 1 zero) — no float, no text, no driver state
    beyond the loop counter — and the rank vector re-materializes once
    per round (the honest cost of power iteration; at 10^12 nodes this
    would be a partitioned parquet checkpoint per round instead of the
    object store, and the arithmetic toy generator a real edge table
    bucket-joined on src).

    ALL arithmetic is int64 fixed-point (rank scaled by 10^9, shares by
    truncating integer division, damping as *85 // 100), so every sum
    is associative and the result is bit-identical regardless of block
    layout; the oracle replays the identical integer recurrence as
    chained CTEs and both sides divide once by 1e9 at the very end."""
    SCALE = 1_000_000_000
    MULT, STEP = 2654435761, 40503
    import pyarrow.parquet as pq

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    docs = _docs(sf_dir, columns=["doc_id"], num_blocks=8)

    def init_ranks(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "r": pa.array(np.full(b.num_rows, SCALE, np.int64)),
            }
        )

    def zero_inflow(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "inc": pa.array(np.zeros(b.num_rows, np.int64)),
            }
        )

    def contributions(b: pa.Table) -> pa.Table:
        src = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        outdeg = 1 + src % 3
        share = b.column("r").to_numpy(zero_copy_only=False) // outdeg
        dst_parts, inc_parts = [], []
        for k in (1, 2, 3):
            m = outdeg >= k
            dst_parts.append((src[m] * MULT + k * STEP) % n)
            inc_parts.append(share[m])
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(dst_parts), pa.int64()),
                "inc": pa.array(np.concatenate(inc_parts), pa.int64()),
            }
        )

    def damp(b: pa.Table) -> pa.Table:
        inflow = b.column("sum(inc)").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                "r": pa.array(SCALE * 15 // 100 + 85 * inflow // 100, pa.int64()),
            }
        )

    ranks = docs.map_batches(init_ranks, batch_format="pyarrow")
    for _ in range(4):
        ranks = (
            ranks.map_batches(contributions, batch_format="pyarrow")
            .union(docs.map_batches(zero_inflow, batch_format="pyarrow"))
            .groupby("doc_id")
            .aggregate(Sum("inc"))
            .map_batches(damp, batch_format="pyarrow")
        )
    # each round feeds exactly ONE consumer (the next round's map), so
    # the four-round chain stays LAZY — one streaming execution with 4
    # chained shuffles and no per-round barrier.  A real long-running
    # job would checkpoint ranks to partitioned parquet every few
    # rounds for resumability; at bench scale the barrier costs more
    # than it saves (measured: 4 materialize()s ≈ 5 s/round overhead).

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id"),
                # one IEEE division from the exact integer — no round()
                "rank": pc.divide(
                    pc.cast(b.column("r"), pa.float64()), pa.scalar(float(SCALE))
                ),
            }
        )

    return ranks.map_batches(finish, batch_format="pyarrow")


# 4 PageRank power-iteration rounds replayed as chained CTEs over
# the same arithmetic link graph (outdeg = 1 + src % 3, dst =
# (src*2654435761 + k*40503) % n for k <= outdeg); ALL integer
# fixed-point — `//` truncation and 85*//100 damping match the Ray
# side's numpy int64 ops exactly, so the single final /1e9
# division is bit-identical
register("pagerank", q_pagerank, oracle="""
        WITH nn AS (SELECT count(*) AS c FROM documents),
        e AS (
            SELECT doc_id AS src, 1 + doc_id % 3 AS outdeg,
                   (doc_id * 2654435761 + k * 40503) % (SELECT c FROM nn) AS dst
            FROM documents CROSS JOIN (SELECT unnest([1, 2, 3]) AS k)
            WHERE k <= 1 + doc_id % 3
        ),
        r0 AS (SELECT doc_id, 1000000000::BIGINT AS r FROM documents),"""
        + ",".join(
            f"""
        r{i} AS (
            SELECT d.doc_id,
                   CAST(150000000 + 85 * coalesce(s.inc, 0) // 100 AS BIGINT) AS r
            FROM documents d LEFT JOIN (
                SELECT e.dst AS doc_id, sum(r{i - 1}.r // e.outdeg) AS inc
                FROM e JOIN r{i - 1} ON e.src = r{i - 1}.doc_id GROUP BY e.dst
            ) s USING (doc_id)
        )"""
            for i in range(1, 5)
        )
        + """
        SELECT doc_id, r / 1000000000.0 AS rank FROM r4
    """)


def q_graph_triangles(sf_dir: str):
    """Per-node triangle counting over the same deterministic link
    graph as pagerank — the canonical JOIN-HEAVY graph-analytics shape
    (compact-forward / edge-wedge-edge intersection).  Four int-only
    shuffles, no driver state:

    1. canonical edge dedup: map tasks emit (lo, hi) with self-loops
       dropped and map-side np.unique; one groupby makes edges
       distinct.
    2. wedge generation: groupby(lo) — for a canonical triangle
       a<b<c, BOTH a-edges (a,b),(a,c) carry lo=a, so each group emits
       its triu pairs (a, b, c).  Group size = the min-vertex's
       forward degree, so wedge count is sum(deg_lo^2)/2 — the known
       cost of triangle enumeration; skewed hubs would need the salt /
       degree-cap treatment documented in SURVEY.
    3. wedge↔edge intersection WITHOUT a per-key map_groups storm:
       wedges and edges union into one dataset tagged by is_edge,
       bucketed by a crc of the packed (b, c) key (the
       _dup_ids_from_buckets discipline), and each bucket group
       resolves all its runs vectorized — sort by key, a run with an
       edge row converts every wedge row into a triangle, emitting
       per-corner (node, partial-count) rows via one bincount.
    4. final groupby(doc_id).sum — nodes in at least one triangle.

    The DuckDB oracle replays the same 3-way self-join declaratively."""
    import pyarrow.parquet as pq

    MULT, STEP = 2654435761, 40503
    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    docs = _docs(sf_dir, columns=["doc_id"], num_blocks=8)

    def gen_edges(b: pa.Table) -> pa.Table:
        src = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        outdeg = 1 + src % 3
        parts = []
        for k in (1, 2, 3):
            m = outdeg >= k
            parts.append(np.stack([src[m], (src[m] * MULT + k * STEP) % n], axis=1))
        e = np.concatenate(parts)
        e = e[e[:, 0] != e[:, 1]]  # drop self-loops
        lo = np.minimum(e[:, 0], e[:, 1])
        hi = np.maximum(e[:, 0], e[:, 1])
        canon = np.unique(np.stack([lo, hi], axis=1), axis=0)  # map-side dedup
        return pa.table(
            {"lo": pa.array(canon[:, 0]), "hi": pa.array(canon[:, 1])}
        )

    # edges feed TWO consumers (wedge generation + the tagged probe
    # side), so materialize the distinct edge set once instead of
    # re-running the dedup shuffle per consumer.  At 10^12 nodes the
    # edge set would persist as bucket-partitioned parquet instead.
    edges = (
        docs.map_batches(gen_edges, batch_format="pyarrow")
        .groupby(["lo", "hi"])
        .aggregate(Count())
        .drop_columns(["count()"])
        .materialize()
    )

    NB = 32

    def wedges(group: pa.Table) -> pa.Table:
        # group = all canonical edges with the same lo; emit triu pairs
        # per lo run
        t = group.sort_by([("lo", "ascending"), ("hi", "ascending")])
        lo = t.column("lo").to_numpy(zero_copy_only=False)
        hi = t.column("hi").to_numpy(zero_copy_only=False)
        a_out, b_out, c_out = [], [], []
        starts = np.flatnonzero(np.r_[True, lo[1:] != lo[:-1]])
        ends = np.r_[starts[1:], len(lo)]
        for s, e in zip(starts, ends):
            L = e - s
            if L < 2:
                continue
            i, j = np.triu_indices(L, k=1)
            a_out.append(np.full(len(i), lo[s]))
            b_out.append(hi[s + i])
            c_out.append(hi[s + j])
        if not a_out:
            return pa.table(
                {
                    "b": pa.array([], pa.int64()),
                    "c": pa.array([], pa.int64()),
                    "a": pa.array([], pa.int64()),
                    "is_edge": pa.array([], pa.int8()),
                }
            )
        return pa.table(
            {
                "b": pa.array(np.concatenate(b_out), pa.int64()),
                "c": pa.array(np.concatenate(c_out), pa.int64()),
                "a": pa.array(np.concatenate(a_out), pa.int64()),
                "is_edge": pa.array(
                    np.zeros(sum(len(x) for x in a_out), np.int8)
                ),
            }
        )

    wedge_rows = edges.groupby("lo").map_groups(
        wedges, batch_format="pyarrow"
    )

    def tag_edges(b: pa.Table) -> pa.Table:
        m = b.num_rows
        return pa.table(
            {
                "b": b.column("lo"),
                "c": b.column("hi"),
                "a": pa.array(np.full(m, -1, np.int64)),
                "is_edge": pa.array(np.ones(m, np.int8)),
            }
        )

    def add_bucket(b: pa.Table) -> pa.Table:
        key = (
            b.column("b").to_numpy(zero_copy_only=False) * np.int64(n)
            + b.column("c").to_numpy(zero_copy_only=False)
        )
        return b.append_column(
            "__bucket", pa.array((key % NB).astype(np.int32), pa.int32())
        )

    def intersect(group: pa.Table) -> pa.Table:
        t = group.sort_by([("b", "ascending"), ("c", "ascending")])
        bb = t.column("b").to_numpy(zero_copy_only=False)
        cc = t.column("c").to_numpy(zero_copy_only=False)
        aa = t.column("a").to_numpy(zero_copy_only=False)
        ie = t.column("is_edge").to_numpy(zero_copy_only=False).astype(bool)
        if len(bb) == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "part": pa.array([], pa.int64())}
            )
        new = np.r_[True, (bb[1:] != bb[:-1]) | (cc[1:] != cc[:-1])]
        run = np.cumsum(new) - 1
        nruns = run[-1] + 1
        has_edge = np.zeros(nruns, bool)
        np.logical_or.at(has_edge, run[ie], True)
        tri = ~ie & has_edge[run]  # wedge rows whose (b,c) is an edge
        if not tri.any():
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "part": pa.array([], pa.int64())}
            )
        corners = np.concatenate([aa[tri], bb[tri], cc[tri]])
        nodes, cnts = np.unique(corners, return_counts=True)
        return pa.table(
            {"doc_id": pa.array(nodes), "part": pa.array(cnts.astype(np.int64))}
        )

    tagged = wedge_rows.union(edges.map_batches(tag_edges, batch_format="pyarrow"))
    partials = bucket_map_groups(
        tagged.map_batches(add_bucket, batch_format="pyarrow"), "__bucket", intersect
    )
    return (
        partials.groupby("doc_id")
        .aggregate(Sum("part"))
        .map_batches(
            lambda b: _rename(b, {"sum(part)": "n_triangles"}), batch_format="pyarrow"
        )
    )


# triangle counting as the declarative 3-way self-join over the
# same canonical (lo < hi) distinct edge set the pipeline derives;
# corner fan-out + groupby mirrors the per-corner partial counts
register("graph_triangles", q_graph_triangles, oracle="""
        WITH nn AS (SELECT count(*) AS c FROM documents),
        e0 AS (
            SELECT doc_id AS src,
                   (doc_id * 2654435761 + k * 40503) % (SELECT c FROM nn) AS dst
            FROM documents CROSS JOIN (SELECT unnest([1, 2, 3]) AS k)
            WHERE k <= 1 + doc_id % 3
        ),
        e AS (
            SELECT DISTINCT least(src, dst) AS lo, greatest(src, dst) AS hi
            FROM e0 WHERE src <> dst
        ),
        tri AS (
            SELECT e1.lo AS a, e1.hi AS b, e2.hi AS c
            FROM e e1 JOIN e e2 ON e1.lo = e2.lo AND e1.hi < e2.hi
            JOIN e e3 ON e3.lo = e1.hi AND e3.hi = e2.hi
        ),
        corners AS (
            SELECT a AS v FROM tri
            UNION ALL SELECT b FROM tri
            UNION ALL SELECT c FROM tri
        )
        SELECT v AS doc_id, count(*)::BIGINT AS n_triangles
        FROM corners GROUP BY v
    """)


def q_graph_components(sf_dir: str):
    """Connected components by min-label propagation, iterated UNTIL
    FIXPOINT with a distributed convergence test — the
    iterate-to-convergence pattern (label propagation / semi-clustering)
    that fixed-round queries like pagerank don't exercise.  Graph:
    every doc links to its 7-group hub, and md5-routed bridges join
    consecutive hubs into chains (435 components, diameter <= ~14 at
    sf0.1 — sparse on purpose; the arithmetic link graph is one giant
    component, which would make the output a constant).

    Per round: ONE bucket groupby resolves every node's current label
    against the edge rows keyed by the same node (the tagged-union
    discipline — no join operator), emitting (neighbor, label)
    messages plus the node's own label, and a second groupby takes the
    min per node.  Labels only ever DECREASE, so the convergence test
    is one scalar: sum(labels) is strictly monotone until fixpoint —
    one Sum aggregate per round, no pairwise old-vs-new comparison, no
    driver-side label vector.  The per-round materialize is the
    checkpoint a real long-running job would write to parquet.  The
    oracle computes the same fixpoint declaratively (recursive-CTE
    reachability -> min reachable id)."""
    import pyarrow.parquet as pq

    n = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    docs = _docs(sf_dir, columns=["doc_id"], num_blocks=8)

    def gen_edges(b: pa.Table) -> pa.Table:
        i = b.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        hub = i - (i % 7)
        e1 = np.stack([i, hub], axis=1)
        e1 = e1[e1[:, 0] != e1[:, 1]]
        # bridges owned by the batch holding the left hub
        hubs = i[i % 7 == 0]
        gg = hubs // 7
        br = (
            pc.is_in(
                md5_hex(pa.array(gg, pa.int64()), prefix=1),
                value_set=pa.array(list("012345")),
            ).to_numpy(zero_copy_only=False)
            if len(gg)
            else np.zeros(0, bool)
        )
        h2 = hubs[br] + 7
        e2 = np.stack([hubs[br][h2 < n], h2[h2 < n]], axis=1)
        e = np.concatenate([e1, e2])
        und = np.concatenate([e, e[:, ::-1]])
        return pa.table(
            {"src": pa.array(und[:, 0]), "dst": pa.array(und[:, 1])}
        )

    edges = docs.map_batches(gen_edges, batch_format="pyarrow").materialize()

    NB = 16

    # One FUSED shuffle per round (was two: a resolve groupby + a Min
    # groupby — halving the all-to-all barriers took the 12-round run
    # 8.4 s -> see BASELINE session 8).  State rows live in the bucket
    # of their `node`: edge rows (lbl = -1, constant) and candidate
    # label rows (other = -1).  Each bucket group resolves every
    # node's min candidate AND emits the next round's messages in the
    # same vectorized pass; labels only decrease, so Sum(lbl) over the
    # whole state (edge rows contribute a constant) is strictly
    # monotone until fixpoint.

    def tag_edge(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": b.column("src"),
                "other": b.column("dst"),
                "lbl": pa.array(np.full(b.num_rows, -1, np.int64)),
            }
        )

    def tag_label(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": b.column("doc_id"),
                "other": pa.array(np.full(b.num_rows, -1, np.int64)),
                "lbl": b.column("doc_id"),
            }
        )

    def add_bucket(b: pa.Table) -> pa.Table:
        key = b.column("node").to_numpy(zero_copy_only=False)
        return b.append_column(
            "__bucket", pa.array((key % NB).astype(np.int32), pa.int32())
        )

    def step(g: pa.Table) -> pa.Table:
        node = g.column("node").to_numpy(zero_copy_only=False)
        other = g.column("other").to_numpy(zero_copy_only=False)
        lbl = g.column("lbl").to_numpy(zero_copy_only=False)
        is_edge = lbl < 0
        cn, cl = node[~is_edge], lbl[~is_edge]
        order = np.lexsort((cl, cn))
        cn, cl = cn[order], cl[order]
        new = np.r_[True, cn[1:] != cn[:-1]]
        u_node, u_min = cn[new], cl[new]  # min candidate leads its run
        en, eo = node[is_edge], other[is_edge]
        m_src = u_min[np.searchsorted(u_node, en)]  # every src has a row
        out_node = np.concatenate([eo, u_node, en])
        out_other = np.concatenate(
            [np.full(len(eo), -1, np.int64), np.full(len(u_node), -1, np.int64), eo]
        )
        out_lbl = np.concatenate([m_src, u_min, np.full(len(en), -1, np.int64)])
        return pa.table(
            {
                "node": pa.array(out_node),
                "other": pa.array(out_other),
                "lbl": pa.array(out_lbl),
                "__bucket": pa.array((out_node % NB).astype(np.int32), pa.int32()),
            }
        )

    state = (
        docs.map_batches(tag_label, batch_format="pyarrow")
        .union(edges.map_batches(tag_edge, batch_format="pyarrow"))
        .map_batches(add_bucket, batch_format="pyarrow")
        .materialize()
    )
    prev_sum = None
    while True:
        # consumed twice: fixpoint test + next round
        state = bucket_map_groups(state, "__bucket", step).materialize()
        s = state.aggregate(Sum("lbl"))["sum(lbl)"]
        if s == prev_sum:
            break
        prev_sum = s

    def resolve(g: pa.Table) -> pa.Table:
        lbl = g.column("lbl").to_numpy(zero_copy_only=False)
        node = g.column("node").to_numpy(zero_copy_only=False)
        keep = lbl >= 0
        cn, cl = node[keep], lbl[keep]
        order = np.lexsort((cl, cn))
        cn, cl = cn[order], cl[order]
        new = np.r_[True, cn[1:] != cn[:-1]] if len(cn) else np.zeros(0, bool)
        return pa.table(
            {
                "doc_id": pa.array(cn[new], pa.int64()),
                "component": pa.array(cl[new], pa.int64()),
            }
        )

    return bucket_map_groups(state, "__bucket", resolve)


# the label-propagation fixpoint computed declaratively: recursive
# reachability over the same hub+bridge edge set, then min
# reachable id per node — DuckDB's UNION-dedup recursion IS the
# fixpoint the engine's monotone-sum loop detects
register("graph_components", q_graph_components, oracle="""
        WITH RECURSIVE nn AS (SELECT count(*) AS c FROM documents),
        e0 AS (
            SELECT doc_id AS src, doc_id - doc_id % 7 AS dst
            FROM documents WHERE doc_id % 7 <> 0
            UNION ALL
            SELECT doc_id, doc_id + 7 FROM documents
            WHERE doc_id % 7 = 0
              AND substr(md5(CAST(doc_id // 7 AS VARCHAR)), 1, 1)
                  IN ('0','1','2','3','4','5')
              AND doc_id + 7 < (SELECT c FROM nn)
        ),
        e AS (SELECT src, dst FROM e0 UNION SELECT dst, src FROM e0),
        reach AS (
            SELECT doc_id AS v, doc_id AS u FROM documents
            UNION
            SELECT r.v, e.dst FROM reach r JOIN e ON r.u = e.src
        )
        SELECT v AS doc_id, min(u)::BIGINT AS component
        FROM reach GROUP BY v
    """)
