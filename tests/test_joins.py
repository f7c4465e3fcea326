"""bucket_lookup_join: left-outer lookup semantics, tie-breaks,
key-type coverage, and determinism across bucket counts; and the
bucket shuffle under it, ``bucket_map_groups``."""

import numpy as np
import pyarrow as pa
import pytest


def _run(left_rows, right_rows, left_key, right_key, value_col, out_col, **kw):
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.joins import bucket_lookup_join

    left = rd.from_arrow(pa.Table.from_pylist(left_rows))
    right = rd.from_arrow(pa.Table.from_pylist(right_rows))
    out = bucket_lookup_join(left, right, left_key, right_key, value_col, out_col, **kw)
    return out.to_pandas()


def test_left_outer_fill_int_keys(ray_session):
    left = [{"id": i, "payload": f"p{i}"} for i in range(10)]
    right = [{"k": i, "v": f"text-{i}"} for i in range(0, 10, 2)]  # evens only
    df = _run(left, right, "id", "k", "v", "joined").set_index("id").sort_index()
    assert len(df) == 10  # every left row exactly once
    for i in range(10):
        expect = f"text-{i}" if i % 2 == 0 else None
        got = df.loc[i, "joined"]
        assert (got == expect) or (expect is None and got is None), i
    assert list(df["payload"]) == [f"p{i}" for i in range(10)]  # columns preserved


def test_min_value_tie_break_on_duplicate_right_keys(ray_session):
    left = [{"id": 1}]
    right = [{"k": 1, "v": "zebra"}, {"k": 1, "v": "apple"}, {"k": 1, "v": "mango"}]
    df = _run(left, right, "id", "k", "v", "x")
    assert df["x"].tolist() == ["apple"]  # deterministic minimum


def test_string_keys_and_empty_right(ray_session):
    left = [{"ref": f"img-{i}"} for i in range(5)]
    df = _run(left, [{"k": "nope", "v": 1}], "ref", "k", "v", "val")
    assert len(df) == 5 and df["val"].isna().all()


def test_determinism_across_partitioning(ray_session):
    rng = np.random.default_rng(5)
    left = [{"id": int(i)} for i in rng.permutation(200)]
    right = [{"k": int(i), "v": int(i) * 7} for i in range(0, 200, 3)]
    a = _run(left, right, "id", "k", "v", "v7", num_buckets=8)
    b = _run(left, right, "id", "k", "v", "v7", num_buckets=64)
    a = a.sort_values("id").reset_index(drop=True)
    b = b.sort_values("id").reset_index(drop=True)
    assert a.equals(b)
    hit = a[a["id"] % 3 == 0]
    assert (hit["v7"] == hit["id"] * 7).all()


def _run_auto(left_rows, right_rows, *cols, **kw):
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.joins import lookup_join_auto

    left = rd.from_arrow(pa.Table.from_pylist(left_rows))
    right = rd.from_arrow(pa.Table.from_pylist(right_rows))
    return lookup_join_auto(left, right, *cols, **kw).to_pandas()


def test_auto_broadcast_matches_bucket(ray_session):
    rng = np.random.default_rng(7)
    left = [{"id": int(i)} for i in rng.permutation(100)]
    right = [{"k": int(i), "v": int(i) * 3} for i in range(0, 100, 4)]
    # duplicate right key with a larger value: min must win on both paths
    right.append({"k": 4, "v": 999})
    a = _run_auto(left, right, "id", "k", "v", "v3").sort_values("id", ignore_index=True)
    b = _run(left, right, "id", "k", "v", "v3").sort_values("id", ignore_index=True)
    assert a.equals(b)
    assert a.loc[a["id"] == 4, "v3"].iloc[0] == 12  # min, not 999


def test_auto_falls_back_to_shuffle_over_cap(ray_session, monkeypatch):
    from tesseract_wasm_ray.pipelines import joins

    monkeypatch.setattr(joins, "BROADCAST_BYTE_CAP", 1)
    left = [{"id": i} for i in range(50)]
    right = [{"k": i, "v": i + 1} for i in range(50)]
    out = _run_auto(left, right, "id", "k", "v", "v1").sort_values("id", ignore_index=True)
    assert (out["v1"] == out["id"] + 1).all()


def test_auto_null_right_keys_never_match(ray_session):
    """Null keys on either side must behave like bucket_lookup_join:
    a null right key is dropped from the lookup (never matched, never
    crashes the run-dedup), and a null left key fills null instead of
    'matching' a null right key."""
    left = [{"id": 1}, {"id": None}, {"id": 2}]
    right = [{"k": 1, "v": 10}, {"k": None, "v": 99}]
    out = _run_auto(left, right, "id", "k", "v", "val")
    by = {r["id"]: r["val"] for _, r in out.iterrows() if r["id"] is not None}
    import pandas as pd

    assert by[1] == 10
    assert pd.isna(by[2])
    null_rows = out[out["id"].isna()]
    assert len(null_rows) == 1 and null_rows["val"].isna().all()


def test_auto_string_keys_and_unmatched(ray_session):
    left = [{"ref": f"img-{i}"} for i in range(6)]
    right = [{"k": "img-2", "v": "x"}, {"k": "img-5", "v": "y"}]
    out = _run_auto(left, right, "ref", "k", "v", "val").set_index("ref")
    assert out.loc["img-2", "val"] == "x" and out.loc["img-5", "val"] == "y"
    assert out["val"].isna().sum() == 4


def test_bucket_ids_match_reference():
    """bucket_ids is the one bucket function: crc32 of the utf-8 key for
    strings (equal to reassemble.bucket_of, the manifest partition_id),
    the Fibonacci mix for integers, and empty input yields no ids."""
    import zlib

    from tesseract_wasm_ray.functions.arrow_util import bucket_ids
    from tesseract_wasm_ray.stages.reassemble import bucket_of

    n = 37
    strs = [f"doc-{i}" for i in range(50)] + ["doc-3", "é"]
    chunked = pa.chunked_array([strs[:20], strs[20:]])
    got = bucket_ids(chunked, n)
    assert got.dtype == np.int32
    assert got.tolist() == [zlib.crc32(s.encode()) % n for s in strs]
    assert got.tolist() == [bucket_of(s, n) for s in strs]

    ints = np.array([0, 1, 2, 12345, -7, 2**62], np.int64)
    want = [
        ((int(k) % 2**64) * 0x9E3779B97F4A7C15 % 2**64 >> 40) % n for k in ints
    ]
    assert bucket_ids(pa.array(ints), n).tolist() == want

    assert len(bucket_ids(pa.array([], pa.string()), n)) == 0
    assert len(bucket_ids(pa.chunked_array([], pa.int64()), n)) == 0


def _tagged(n_rows, n_buckets, blocks):
    import ray.data as rd

    from tesseract_wasm_ray.functions.arrow_util import bucket_ids

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column("__b", pa.array(bucket_ids(b.column("id"), n_buckets)))

    return rd.range(n_rows, override_num_blocks=blocks).map_batches(
        tag, batch_format="pyarrow"
    )


@pytest.mark.parametrize("coalesce", [None, 3])
def test_bucket_map_groups_one_call_per_bucket(ray_session, coalesce):
    """Each ``fn`` call gets exactly one bucket's rows, without the tag
    column, and every input row reaches exactly one call."""
    from tesseract_wasm_ray.functions.arrow_util import bucket_ids
    from tesseract_wasm_ray.pipelines.joins import bucket_map_groups

    def summarize(g: pa.Table) -> pa.Table:
        return pa.table(
            {
                "bucket": [int(bucket_ids(g.column("id"), 7)[0])],
                "n_buckets": [len(np.unique(bucket_ids(g.column("id"), 7)))],
                "columns": [",".join(g.column_names)],
                "ids": [g.column("id").to_pylist()],
            }
        )

    out = bucket_map_groups(_tagged(300, 7, 8), "__b", summarize, coalesce).to_pandas()
    assert sorted(out["bucket"]) == list(range(7))  # once per bucket
    assert (out["n_buckets"] == 1).all()
    assert (out["columns"] == "id").all()
    ids = sorted(i for row in out["ids"] for i in row)
    assert ids == list(range(300))


@pytest.mark.parametrize("coalesce", [None, 4])
def test_bucket_map_groups_empty_input(ray_session, coalesce):
    from tesseract_wasm_ray.pipelines.joins import bucket_map_groups

    empty = _tagged(50, 7, 4).map_batches(lambda b: b.slice(0, 0), batch_format="pyarrow")
    assert bucket_map_groups(empty, "__b", lambda g: g, coalesce).count() == 0
