"""Relational operators (pipelines/relational.py): as-of join semantics
vs pandas merge_asof, exact quantiles vs DuckDB quantile_disc, sliding
window fan-out invariants, band (range) join boundaries, and the
map-side term-count combine."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from tesseract_wasm_ray.functions.textstats import term_counts
from tesseract_wasm_ray.pipelines.relational import (
    asof_join,
    band_lookup,
    exact_group_quantiles,
    expand_sliding_windows,
)


def _asof(left_df, right_df, **kw):
    left = rd.from_pandas(left_df)
    right = rd.from_pandas(right_df)
    defaults = dict(
        left_key="k",
        left_ts="t",
        right_key="rk",
        right_ts="rt",
        value_col="v",
        out_col="v",
        num_buckets=4,
    )
    defaults.update(kw)
    out = asof_join(left, right, **defaults).to_pandas()
    return out.sort_values(list(left_df.columns), ignore_index=True)


def test_asof_matches_merge_asof(ray_session):
    rng = np.random.default_rng(7)
    left = pd.DataFrame(
        {
            "id": np.arange(300),
            "k": rng.integers(0, 12, 300),
            "t": rng.integers(0, 1000, 300).astype(np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "rk": rng.integers(0, 15, 120),  # some keys never on the left
            "rt": rng.integers(0, 1000, 120).astype(np.int64),
            "v": np.arange(120, dtype=np.int64) + 1000,
        }
    )
    # merge_asof demands unique (key, ts) on the right for a defined
    # answer; dedupe to min v like the pipeline's tie-break.
    r = right.sort_values("v").drop_duplicates(["rk", "rt"]).sort_values("rt")
    want = pd.merge_asof(
        left.sort_values("t"),
        r.rename(columns={"rk": "k", "rt": "t"}),
        on="t",
        by="k",
        direction="backward",
    ).sort_values(["id"], ignore_index=True)[["id", "k", "t", "v"]]
    got = _asof(left, right).sort_values("id", ignore_index=True)
    pd.testing.assert_frame_equal(
        got.astype({"v": "float64"}), want.astype({"v": "float64"})
    )


def test_asof_inclusive_and_tiebreak(ray_session):
    left = pd.DataFrame({"k": [1, 1, 1, 2], "t": [5, 9, 4, 5]})
    right = pd.DataFrame(
        {
            # two right rows at the same (k=1, rt=5): min v (=30) wins
            "rk": [1, 1, 1, 3],
            "rt": [5, 5, 7, 1],
            "v": [40, 30, 99, 7],
        }
    )
    got = _asof(left, right)
    # rows sorted by (k, t): (1,4)->null  (1,5)->30 inclusive  (1,9)->99  (2,5)->null
    assert got["k"].tolist() == [1, 1, 1, 2]
    vals = got.sort_values(["k", "t"])["v"].tolist()
    assert pd.isna(vals[0])
    assert vals[1] == 30 and vals[2] == 99
    assert pd.isna(vals[3])


def test_asof_empty_right(ray_session):
    left = pd.DataFrame({"k": [1, 2], "t": [5, 6]})
    right = pd.DataFrame(
        {"rk": pd.array([], dtype="int64"), "rt": pd.array([], dtype="int64"),
         "v": pd.array([], dtype="int64")}
    )
    got = _asof(left, right)
    assert len(got) == 2 and got["v"].isna().all()


def test_exact_group_quantiles_matches_duckdb(ray_session):
    rng = np.random.default_rng(3)
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c"], 5000),
            "x": rng.integers(1, 43, 5000).astype(np.float64),
        }
    )
    got = (
        exact_group_quantiles(
            rd.from_pandas(df), "g", "x", {"p25": 0.25, "p50": 0.5, "p90": 0.9}
        )
        .sort_values("g", ignore_index=True)
    )
    want = duckdb.sql(
        """SELECT g, quantile_disc(x, 0.25) AS p25, quantile_disc(x, 0.5) AS p50,
                  quantile_disc(x, 0.9) AS p90
           FROM df GROUP BY g ORDER BY g"""
    ).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_sliding_window_fanout_invariant():
    ts = pd.to_datetime(
        ["2024-01-01 00:07:00", "2024-01-01 00:59:59", "2024-01-01 01:00:00"]
    )
    b = pa.table({"ts": pa.array(ts, pa.timestamp("us")), "value": [1.0, 2.0, 3.0]})
    out = expand_sliding_windows(b, "ts", window_us=3_600_000_000, slide_us=900_000_000)
    assert out.num_rows == 12  # 4x fan-out
    ws = pd.to_datetime(out.column("window_start").to_pylist())
    orig = np.repeat(ts.values.astype("datetime64[us]"), 4)
    # every emitted window contains its event: ws <= ts < ws + 1h
    delta = (orig - ws.values.astype("datetime64[us]")).astype("timedelta64[us]")
    assert (delta >= np.timedelta64(0, "us")).all()
    assert (delta < np.timedelta64(1, "h")).all()
    # each event's 4 windows are distinct 15-min steps
    assert len(set(ws)) >= 4
    with pytest.raises(ValueError, match="multiple"):
        expand_sliding_windows(b, "ts", window_us=3_600_000_000, slide_us=700_000_000)


def test_band_lookup_boundaries():
    bands = [(1, "low", 1.0, 10.0), (2, "high", 26.0, 40.0)]
    b = pa.table({"l_quantity": [0.5, 1.0, 10.0, 10.5, 26.0, 40.0, 41.0]})
    out = band_lookup(b, "l_quantity", bands)
    assert out.column("l_quantity").to_pylist() == [1.0, 10.0, 26.0, 40.0]
    assert out.column("band_id").to_pylist() == [1, 1, 2, 2]
    assert out.column("band_name").to_pylist() == ["low", "low", "high", "high"]


def test_term_counts_partials():
    b = pa.table(
        {
            "text": ["the cat  sat", "el gato", "the the dog", None, ""],
            "lang": ["en", "es", "en", "en", "es"],
        }
    )
    out = term_counts(b).to_pandas().set_index(["lang", "term"])["cnt"]
    assert out[("en", "the")] == 3
    assert out[("en", "cat")] == 1
    assert out[("es", "gato")] == 1
    assert len(out) == 6
    empty = term_counts(pa.table({"text": pa.array([], pa.string()),
                                  "lang": pa.array([], pa.string())}))
    assert empty.num_rows == 0


def test_pack_sequences_matches_reference_greedy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.relational import pack_sequences

    rng = np.random.default_rng(11)
    n = 300
    groups = rng.integers(0, 7, n)
    sizes = rng.integers(1, 90, n)
    sizes[5] = 400  # oversized row must pack alone
    t = pa.table(
        {
            "g": pa.array([f"g{x}" for x in groups]),
            "oid": pa.array(np.arange(n), pa.int64()),
            "sz": pa.array(sizes, pa.int64()),
        }
    )
    out = (
        pack_sequences(
            rd.from_arrow(t), group_col="g", order_col="oid", size_col="sz", budget=128
        )
        .to_pandas()
        .sort_values(["g", "oid"])
    )

    # reference greedy per group, row by row
    for g, sub in out.groupby("g"):
        acc, seq = 0, 0
        for _, row in sub.iterrows():
            if acc and acc + row.sz > 128:
                seq += 1
                acc = 0
            acc += row.sz
            assert row.seq_id == seq, (g, row.oid)
        # every sequence except possibly the last is within budget unless
        # it holds a single oversized row
        tot = sub.groupby("seq_id").sz.agg(["sum", "count"])
        assert all((tot["sum"] <= 128) | (tot["count"] == 1))


SF001 = "/root/testdata/sf0.001"


def _oracle_df(name, sf_dir):
    from tesseract_wasm_ray.catalog import table

    con = duckdb.connect()
    for t in "customer orders lineitem events".split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'"
        )
    return con.execute(table()[name].oracle).df()


def test_tpch_q6_matches_duckdb(ray_session):
    from tesseract_wasm_ray.catalog.tpch import q_tpch_q6

    got = q_tpch_q6(SF001)
    exp = _oracle_df("tpch_q6", SF001)
    assert got["revenue"].iloc[0] == exp["revenue"].iloc[0]


def test_tpch_q3_matches_duckdb(ray_session):
    from tesseract_wasm_ray.catalog.tpch import q_tpch_q3

    got = q_tpch_q3(SF001).reset_index(drop=True)
    exp = _oracle_df("tpch_q3", SF001)
    assert got["l_orderkey"].tolist() == exp["l_orderkey"].tolist()
    assert got["revenue"].tolist() == exp["revenue"].tolist()
    assert list(got["o_orderdate"]) == list(exp["o_orderdate"])


def test_event_funnel_matches_duckdb(ray_session):
    from tesseract_wasm_ray.catalog.events import q_event_funnel

    got = q_event_funnel(SF001)
    exp = _oracle_df("event_funnel", SF001)
    assert got.iloc[0].to_dict() == exp.iloc[0].to_dict()
    # funnel is monotone by construction
    assert got["n_view"].iloc[0] >= got["n_view_click"].iloc[0] >= got["n_full_funnel"].iloc[0]


def test_event_funnel_strict_ordering(ray_session, tmp_path):
    """A user whose purchase precedes their first view must not convert."""
    import pyarrow.parquet as pq

    from tesseract_wasm_ray.catalog.events import q_event_funnel

    def ts(s):
        return np.datetime64(s, "us")

    t = pa.table(
        {
            "event_id": pa.array(range(7), pa.int64()),
            "ts": pa.array(
                [
                    ts("2024-01-01T00"), ts("2024-01-01T01"), ts("2024-01-01T02"),
                    # user 2: purchase BEFORE view/click
                    ts("2024-01-02T00"), ts("2024-01-02T01"), ts("2024-01-02T02"),
                    # user 3: view only
                    ts("2024-01-03T00"),
                ]
            ),
            "user_id": pa.array([1, 1, 1, 2, 2, 2, 3], pa.int64()),
            "event_type": pa.array(
                ["view", "click", "purchase", "purchase", "view", "click", "view"]
            ),
            "value": pa.array([0.0] * 7),
            "props": pa.array(["{}"] * 7),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = q_event_funnel(str(tmp_path))
    assert got.iloc[0].to_dict() == {"n_view": 3, "n_view_click": 2, "n_full_funnel": 1}


def test_cohort_retention_matches_duckdb(ray_session):
    from tesseract_wasm_ray.catalog.events import q_cohort_retention

    got = q_cohort_retention(SF001)
    exp = _oracle_df("cohort_retention", SF001)
    pd.testing.assert_frame_equal(
        got, exp.astype({"n_active": "int64"}), check_dtype=False
    )
    # offset 0 row exists for every cohort (a user is active in their
    # own first week by definition)
    assert (got[got["week_offset"] == 0]["n_active"] > 0).all()


def test_grouped_sum_i64_exact_and_layout_invariant(ray_session):
    """Sums stay exact past 2^53 (float-weight bincount would round)
    and results are identical under different block layouts."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.relational import grouped_sum_i64

    big = (1 << 53) + 1  # not representable as float64
    t = pa.table(
        {
            "k": pa.array([1, 1, 2, 2, 2, 3] * 50, pa.int64()),
            "v": pa.array([big, 1, 5, 7, -2, 0] * 50, pa.int64()),
            "w": pa.array([1, 2, 3, 4, 5, 6] * 50, pa.int64()),
        }
    )
    outs = []
    for parts in (1, 7):
        out = (
            grouped_sum_i64(rd.from_arrow(t).repartition(parts), "k", ["v", "w"])
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        outs.append(out)
    a, b = outs
    assert a.equals(b)
    assert list(a["k"]) == [1, 2, 3]
    assert list(a["v"]) == [50 * (big + 1), 50 * 10, 0]
    assert list(a["w"]) == [150, 600, 300]


def test_events_sliding_1h_crosses_day_boundary(ray_session, tmp_path):
    """The (type, epoch-day) bucketing ships last-hour context replicas
    into the next day's bucket; windows that straddle midnight must
    still count their previous-day predecessors, and types must stay
    isolated.  Verified against DuckDB's RANGE window on the same
    table."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tesseract_wasm_ray.catalog.events import q_events_sliding_1h

    base = np.datetime64("2024-03-05T23:30:00", "us").astype(np.int64)
    mins = np.array([0, 29, 40, 75, 200, 0], np.int64) * 60_000_000
    ts = base + mins  # 23:30, 23:59, 00:10(+1d), 00:45(+1d), 02:50(+1d)
    types = ["view", "view", "view", "view", "view", "click"]
    t = pa.table(
        {
            "event_id": pa.array(np.arange(6, dtype=np.int64)),
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            "user_id": pa.array(np.ones(6, np.int64)),
            "event_type": pa.array(types),
            "value": pa.array(np.zeros(6)),
            "props": pa.array([""] * 6),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))

    got = (
        q_events_sliding_1h(str(tmp_path))
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )
    con = duckdb.connect()
    con.register("events", t)
    want = con.sql(
        """
        SELECT event_id, event_type,
               (COUNT(*) OVER (PARTITION BY event_type ORDER BY ts
                    RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW))::BIGINT
                   AS n_prev_hour
        FROM events ORDER BY event_id
        """
    ).df()
    pd.testing.assert_frame_equal(got, want)
    # the midnight-straddling window really counted prior-day events
    assert got.loc[2, "n_prev_hour"] == 3  # 23:30 + 23:59 + itself


def test_click_attribution_window_and_user_isolation(ray_session, tmp_path):
    """Attribution must honor the 30-min lookback, match at equal ts,
    and NEVER cross users — including the trap where a click's nearest
    preceding event in the global (user, ts) order is another user's
    view (the running-index resolve must reject it)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tesseract_wasm_ray.catalog.events import q_click_attribution

    MIN = 60_000_000
    base = np.datetime64("2024-03-05T12:00:00", "us").astype(np.int64)
    rows = [
        # user 1: view at t0, click 10 min later -> attributed gap 10min
        (0, 1, 0, "view"),
        (1, 1, 10 * MIN // 1, "click"),
        # user 1: second click 50 min after the view -> outside window
        (2, 1, 50 * MIN, "click"),
        # user 2: click at the exact ts of their view -> gap 0
        (3, 2, 0, "view"),
        (4, 2, 0, "click"),
        # user 3: click with NO view of their own; user 2's view at the
        # same earlier ts is the global predecessor -> must NOT match
        (5, 3, 5 * MIN, "click"),
        # user 4: only a LATER view -> not attributed
        (6, 4, 20 * MIN, "click"),
        (7, 4, 25 * MIN, "view"),
    ]
    t = pa.table(
        {
            "event_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(base + np.array([r[2] for r in rows], np.int64)).cast(
                pa.timestamp("us")
            ),
            "user_id": pa.array([r[1] for r in rows], pa.int64()),
            "event_type": pa.array([r[3] for r in rows], pa.string()),
            "value": pa.array(np.zeros(len(rows))),
            "props": pa.array([""] * len(rows)),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = (
        q_click_attribution(str(tmp_path))
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )
    want = pd.DataFrame(
        {
            "event_id": [1, 2, 4, 5, 6],
            "attributed": [1, 0, 1, 0, 0],
            "gap_us": [10 * MIN, -1, 0, -1, -1],
        }
    ).astype("int64")
    pd.testing.assert_frame_equal(got, want)


def test_source_drift_identical_vs_disjoint_vocab(ray_session, tmp_path):
    """Two sources with the same token distribution each overlap the
    global corpus fully up to the third source's share; a
    disjoint-vocabulary source scores lower than either."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tesseract_wasm_ray.catalog.trainprep import q_source_drift

    rows = []
    for i in range(8):
        rows.append((i, "alpha beta gamma delta", "s_a"))
        rows.append((100 + i, "alpha beta gamma delta", "s_b"))
    for i in range(4):
        rows.append((200 + i, "zulu yankee xray whisky", "s_c"))
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows)),
            "source": pa.array([r[2] for r in rows], pa.string()),
            "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = q_source_drift(str(tmp_path)).to_pandas().set_index("source")
    # s_a == s_b distribution; global = 80% A-vocab + 20% C-vocab
    assert out.loc["s_a", "overlap_ppm"] == out.loc["s_b", "overlap_ppm"] == 800_000
    assert out.loc["s_c", "overlap_ppm"] == 200_000
    assert out.loc["s_a", "n_tokens"] == 32


def test_events_sliding_sum_crosses_day_boundary(ray_session, tmp_path):
    """Windowed SUM sibling: midnight-straddling windows must include
    prior-day values exactly (int64-cents prefix sums vs DuckDB's
    RANGE SUM window)."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from tesseract_wasm_ray.catalog.events import q_events_sliding_sum_1h

    base = np.datetime64("2024-03-05T23:30:00", "us").astype(np.int64)
    mins = np.array([0, 29, 40, 75, 200], np.int64) * 60_000_000
    vals = [1.25, 2.50, 3.75, 10.00, 0.05]
    t = pa.table(
        {
            "event_id": pa.array(np.arange(5, dtype=np.int64)),
            "ts": pa.array(base + mins).cast(pa.timestamp("us")),
            "user_id": pa.array(np.ones(5, np.int64)),
            "event_type": pa.array(["view"] * 5),
            "value": pa.array(vals, pa.float64()),
            "props": pa.array([""] * 5),
        }
    )
    pq.write_table(t, str(tmp_path / "events.parquet"))
    got = (
        q_events_sliding_sum_1h(str(tmp_path))
        .to_pandas()
        .sort_values("event_id", ignore_index=True)
    )
    con = duckdb.connect()
    con.register("events", t)
    want = con.sql(
        """
        SELECT event_id, event_type,
               (SUM(CAST(round(value * 100) AS BIGINT)) OVER (
                    PARTITION BY event_type ORDER BY ts
                    RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)) / 100.0
                   AS sum_value
        FROM events ORDER BY event_id
        """
    ).df()
    pd.testing.assert_frame_equal(got, want)
    assert got.loc[2, "sum_value"] == 1.25 + 2.50 + 3.75  # crossed midnight
