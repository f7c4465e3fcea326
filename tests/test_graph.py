"""Graph-analytics queries: the integer-exact PageRank recurrence is
checked against an independent driver-side numpy replay (the DuckDB
chained-CTE oracle is the second independent engine; this is the
third), and ntile bucketing against the closed-form size rule."""

import numpy as np
import pyarrow.parquet as pq

SF = "/root/testdata/sf0.001"


def _numpy_pagerank(doc_ids: np.ndarray, rounds: int = 4) -> np.ndarray:
    n = len(doc_ids)
    SCALE, MULT, STEP = 1_000_000_000, 2654435761, 40503
    r = np.full(n, SCALE, np.int64)  # indexed by doc_id (contiguous 0..n-1)
    outdeg = 1 + doc_ids % 3
    for _ in range(rounds):
        inflow = np.zeros(n, np.int64)
        share = r // outdeg
        for k in (1, 2, 3):
            m = outdeg >= k
            dst = (doc_ids[m] * MULT + k * STEP) % n
            np.add.at(inflow, dst, share[m])
        r = SCALE * 15 // 100 + 85 * inflow // 100
    return r


def test_pagerank_matches_numpy_replay(ray_session):
    from tesseract_wasm_ray.catalog.graph import q_pagerank

    got = q_pagerank(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    ids = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
        .column("doc_id")
        .to_numpy()
        .astype(np.int64)
    )
    ids.sort()
    assert (got["doc_id"].to_numpy() == ids).all()
    want = _numpy_pagerank(ids) / 1e9
    # both sides produce the same int64 then one /1e9 division: exact
    assert (got["rank"].to_numpy() == want).all()


def test_pagerank_rank_mass_sane(ray_session):
    from tesseract_wasm_ray.catalog.graph import q_pagerank

    ranks = q_pagerank(SF).to_pandas()["rank"].to_numpy()
    # damped power iteration keeps mean rank near 1.0 (truncating
    # integer division only ever loses mass, never creates it)
    assert 0.9 < ranks.mean() <= 1.0
    assert (ranks >= 0.15).all()  # the teleport floor
    # the skewed-out-degree graph must yield a real distribution —
    # a uniform result would mean the generator degenerated into a
    # bijection again
    assert len(np.unique(ranks)) > len(ranks) // 10


def test_ntile_sizes_follow_duckdb_rule(ray_session):
    from tesseract_wasm_ray.catalog.analytics import q_customer_ntile

    df = q_customer_ntile(SF).to_pandas()
    for _, g in df.groupby("c_nationkey"):
        n = len(g)
        sizes = g["tile"].value_counts().sort_index()
        k = min(4, n)
        assert list(sizes.index) == list(range(1, k + 1))
        big = n % 4
        small = n // 4
        expect = [small + 1] * big + [small] * (4 - big) if small else [1] * n
        assert list(sizes.values) == [s for s in expect if s][: len(sizes)]


def test_graph_triangles_matches_numpy_replay(ray_session):
    from tesseract_wasm_ray.catalog.graph import q_graph_triangles

    got = (
        q_graph_triangles(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    ids = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
        .column("doc_id")
        .to_numpy()
        .astype(np.int64)
    )
    n = len(ids)
    MULT, STEP = 2654435761, 40503
    parts = []
    for k in (1, 2, 3):
        m = (1 + ids % 3) >= k
        parts.append(np.stack([ids[m], (ids[m] * MULT + k * STEP) % n], 1))
    e = np.concatenate(parts)
    e = e[e[:, 0] != e[:, 1]]
    E = set(
        map(
            tuple,
            np.unique(
                np.stack([np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])], 1),
                axis=0,
            ),
        )
    )
    adj: dict[int, list[int]] = {}
    for a, b in E:
        adj.setdefault(int(a), []).append(int(b))
    counts: dict[int, int] = {}
    for a, nbrs in adj.items():
        nb = sorted(nbrs)
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                if (nb[i], nb[j]) in E:
                    for v in (a, nb[i], nb[j]):
                        counts[v] = counts.get(v, 0) + 1
    want = sorted(counts.items())
    assert list(zip(got["doc_id"], got["n_triangles"])) == want


def test_graph_components_matches_union_find(ray_session):
    from tesseract_wasm_ray.catalog.graph import q_graph_components

    got = (
        q_graph_components(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    import hashlib

    ids = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
        .column("doc_id")
        .to_numpy()
        .astype(np.int64)
    )
    n = len(ids)
    hub = ids - (ids % 7)
    e = [(int(a), int(b)) for a, b in zip(ids, hub) if a != b]
    for h in ids[ids % 7 == 0]:
        g = int(h) // 7
        if hashlib.md5(str(g).encode()).hexdigest()[0] in "012345" and h + 7 < n:
            e.append((int(h), int(h) + 7))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in e:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    want = [(i, find(i)) for i in range(n)]
    # union-find roots ARE the min id per component here because unions
    # always point the larger root at the smaller
    assert list(zip(got["doc_id"], got["component"])) == want
