"""Local stand-in for the driver's correctness gate: run every
__ray_entry__ query at a given sf and, where an oracle exists, compare
against DuckDB (row count + sorted-column schema + order-insensitive
value comparison).  Usage::

    python tools/check_oracle.py [sf_dir] [--repeat N] [query ...]

``--repeat N`` reruns each query N times and asserts the canonical
value hash (md5 over float BITS, not displayed digits) is identical on
every run — the determinism gate for float-aggregate queries whose
block order Ray does not fix (VERDICT r03 item 1).

Each ``OK`` line carries the first 12 hex digits of the query's value
hash, so two commits' outputs diff line by line, and ends with the
query's wall seconds (first run), so a run without names is also the
catalogue timing sweep."""

from __future__ import annotations

import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import duckdb
import pandas as pd


def to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        df = res.to_pandas()
        if df.empty and len(df.columns) == 0 and hasattr(res, "schema"):
            # Ray's to_pandas() on an all-empty Dataset drops columns;
            # rebuild the typed empty frame from the Dataset schema so
            # a legitimately-empty result still schema/dtype-compares
            # (observed: tpch_q11 at sf0.1, where BOTH engines return
            # zero qualifying parts).
            schema = res.schema()
            arrow = getattr(schema, "base_schema", schema)
            df = arrow.empty_table().to_pandas()
        return df
    raise TypeError(type(res))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
    return df.sort_values(by=list(df.columns), ignore_index=True)


def dtype_kinds(df: pd.DataFrame) -> list[str]:
    """int-vs-float kind per column BEFORE canon's coercion — the
    driver's value-hash is dtype-sensitive (a DuckDB HUGEINT sum
    arriving as float64 hash-mismatches an int64 Ray column even when
    values are equal), so kinds must match exactly."""
    return [
        "int" if pd.api.types.is_integer_dtype(df[c])
        else "float" if pd.api.types.is_float_dtype(df[c])
        else str(df[c].dtype)
        for c in sorted(df.columns)
    ]


def value_hash(df: pd.DataFrame) -> str:
    """Bit-exact content hash of a canonical frame (order-insensitive
    because canon() already sorted rows and columns)."""
    import hashlib

    h = hashlib.md5()
    for c in df.columns:
        h.update(c.encode())
        h.update(pd.util.hash_pandas_object(df[c], index=False).values.tobytes())
    return h.hexdigest()


def main() -> int:
    argv = list(sys.argv[1:])
    repeat = 1
    if "--repeat" in argv:
        i = argv.index("--repeat")
        repeat = int(argv[i + 1])
        del argv[i : i + 2]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    only = set(argv[1:])

    # Ray workers import the package from REPO whatever the working directory.
    path = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([REPO] + path)
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    qs, oracles = e.queries(), e.oracle_sql()
    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events documents embeddings"
    ).split():
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.monotonic()
        try:
            raw = to_pandas(fn(sf_dir))
            got = canon(raw)
        except Exception as ex:
            failures.append(name)
            print(f"[FAIL-run ] {name}: {type(ex).__name__}: {ex}")
            continue
        dt = time.monotonic() - t0
        h0 = value_hash(got)
        if name not in oracles:
            print(
                f"[rows-only] {name}: {len(got)} rows, cols={list(got.columns)}, "
                f"hash {h0[:12]} ({dt:.1f}s)"
            )
            continue
        raw_want = con.sql(oracles[name]).df()
        want = canon(raw_want)
        if dtype_kinds(raw) != dtype_kinds(raw_want):
            failures.append(name)
            print(
                f"[FAIL-dtyp] {name}: ray={dtype_kinds(raw)} oracle={dtype_kinds(raw_want)}"
            )
            continue
        if len(got) != len(want):
            failures.append(name)
            print(f"[FAIL-rows] {name}: ray={len(got)} oracle={len(want)}")
            continue
        if list(got.columns) != list(want.columns):
            failures.append(name)
            print(f"[FAIL-cols] {name}: ray={list(got.columns)} oracle={list(want.columns)}")
            continue
        try:
            pd.testing.assert_frame_equal(got, want, check_dtype=False, rtol=0, atol=0)
        except AssertionError as ex:
            failures.append(name)
            print(f"[FAIL-vals] {name}: {str(ex).splitlines()[-1]}")
            continue
        if repeat > 1:
            stable = True
            for _ in range(repeat - 1):
                hi = value_hash(canon(to_pandas(fn(sf_dir))))
                if hi != h0:
                    stable = False
                    break
            if not stable:
                failures.append(name)
                print(f"[FAIL-hash] {name}: value hash varies across {repeat} runs")
                continue
            print(
                f"[OK x{repeat:<4}] {name}: {len(got)} rows match oracle, "
                f"hash {h0[:12]} bit-stable ({dt:.1f}s)"
            )
            continue
        print(f"[OK       ] {name}: {len(got)} rows match oracle, hash {h0[:12]} ({dt:.1f}s)")
    print(f"\n{len(failures)} failures: {failures}" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
