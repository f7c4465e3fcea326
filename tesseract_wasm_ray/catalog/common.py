"""Helpers shared by several catalogue families: column-pruned document
reads, exact money cents, run ranks, rounding and renames, and the
sf0.01 golden-table root the extraction and media oracles read.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..fixtures import FIXTURE_ROOT
from ..functions.arrow_util import single_chunk as _single_chunk_q


def _docs(
    sf_dir: str,
    columns: list[str] | None = None,
    num_blocks: int | None = None,
) -> rd.Dataset:
    """Documents read with column pruning at the parquet scan — pass
    only the columns the query touches (the text column is ~80% of the
    table's bytes, so a stats-only query should never read it).

    ``num_blocks`` caps the read's block split: Ray defaults to ~2x
    num_cpus blocks regardless of table size, and for the narrow
    int-only reads feeding shuffle-chained queries (pagerank, graph
    triangles, snapshot diff) 64 blocks of 80 rows each turn every
    downstream stage into a task-overhead benchmark.  Shapes whose
    per-row work is CPU-heavy should leave it None."""
    return rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=columns,
        override_num_blocks=num_blocks,
    )


def _run_rank(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """0-based rank within each run of equal values in an
    ALREADY-SORTED column (the vectorized per-group top-k trick from
    similarity.merge_topk): one C++ compare + numpy cumsum, no pandas."""
    arr = _single_chunk_q(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
    n = len(arr)
    if n == 0:
        return np.empty(0, np.int64)
    neq = pc.not_equal(arr.slice(1), arr.slice(0, n - 1)).to_numpy(zero_copy_only=False)
    new = np.r_[True, neq]
    starts = np.flatnonzero(new)
    run_of = np.cumsum(new) - 1
    return np.arange(n) - starts[run_of]


def _money_cents(arr, factor: float = 100.0) -> pa.Array:
    """Exact int64 cents from fixed-decimal money doubles.

    Summing money as float64 is block-order-dependent: when a group's
    sum lands within float noise of a ``.xx5`` rounding boundary, the
    final cent flips between runs (the r03 ``top_suppliers_per_nation``
    driver-hash flake).  The testdata money columns carry exactly two
    decimals, so ``round(x * 100)`` recovers the exact integer; int64
    sums are associative, hence partition- and block-order-invariant.
    The SQL oracles apply the identical transform
    (``CAST(round(col * 100) AS BIGINT)``), and both sides convert back
    with one IEEE division at the very end — bit-identical hashes.
    """
    return pc.cast(
        pc.round(pc.multiply(arr, pa.scalar(factor))), pa.int64()
    )


def _round(t: pa.Table, cols: dict[str, int]) -> pa.Table:
    for c, nd in cols.items():
        i = t.schema.get_field_index(c)
        t = t.set_column(i, c, pc.round(pc.cast(t.column(c), pa.float64()), ndigits=nd))
    return t


def _rename(t: pa.Table, mapping: dict[str, str]) -> pa.Table:
    return t.rename_columns([mapping.get(c, c) for c in t.column_names])


# The extraction and media oracles SELECT from the fixture golden tables.
# The driver's correctness gate runs at sf=0.01, so the paths pin that
# corpus; __ray_entry__.oracle_sql() generates it inline (no Ray needed
# at 500 docs) before returning.
_G01 = os.path.join(FIXTURE_ROOT, "sf0.01")
