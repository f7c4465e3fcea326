"""Approximate (sketch) aggregates over Ray Data Datasets.

HyperLogLog approximate-distinct is the canonical "wide aggregate that
never has to be wide": the per-batch partial is a fixed ``m``-register
sketch, so the all-to-all moves at most ``keys x m`` tiny rows per
block no matter how many billions of values flow through — the 100 TB
shape for COUNT(DISTINCT).  The sketch is fully deterministic (FNV-1a
value hashing, max-register merge), so the DuckDB oracle re-computes
it bit-for-bit and the correctness gate is exact, not tolerance-based.

Reference scope note: the reference engine (robertknight/tesseract-wasm)
has no aggregate surface; this module is part of the training-data
operator suite the driver brief adds on top (novel-sketch bullet).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.arrow_util import single_chunk
from ..functions.sketch import hash_string_array

__all__ = ["approx_distinct", "hll_estimate"]


_MIX_C1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX_C2 = np.uint64(0xC4CEB9FE1A85EC53)


def _mix64(h: np.ndarray) -> np.ndarray:
    """murmur3 fmix64 finalizer.  FNV-1a alone has weak avalanche into
    the high bits for short keys (measured: only 410/512 registers hit
    at n=50k, p=9 — a catastrophic HLL bias); this full-avalanche mix
    makes register index and rho-field bits uniform.  Mirrored
    operation-for-operation in the SQL oracle."""
    h = h.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        h ^= h >> np.uint64(33)
        h *= _MIX_C1
        h ^= h >> np.uint64(33)
        h *= _MIX_C2
        h ^= h >> np.uint64(33)
    return h


def _bitlen_u64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64 — float ``log2`` is
    unsafe above 2**53, so reduce with 6 binary shift/compare passes."""
    out = np.zeros(w.shape, np.int64)
    v = w.copy()
    for s in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(s))
        out[big] += s
        v[big] >>= np.uint64(s)
    out[v > 0] += 1
    return out


def hll_estimate(registers: np.ndarray, p: int) -> float:
    """Estimate from a dense register vector (len 2**p, values in
    [0, 64-p+1]).  Exact-integer inner sum: every 2**-M[j] term is
    scaled by 2**(64-p+1) and accumulated in Python ints (no float
    accumulation order to disagree with the SQL oracle), then ONE
    float division.  Small-range (linear counting) correction as in
    Flajolet et al. 2007; the 64-bit hash makes the large-range
    correction unnecessary."""
    m = 1 << p
    if len(registers) != m:
        raise ValueError(f"expected {m} registers, got {len(registers)}")
    scale = 64 - p + 1  # max register value; 2**(scale - M) stays integral
    counts = np.bincount(registers.astype(np.int64), minlength=scale + 1)
    s_int = sum(int(c) << (scale - v) for v, c in enumerate(counts) if c)
    v_zero = int(counts[0])
    alpha = 0.7213 / (1 + 1.079 / m)
    # Mirror the oracle's expression shape exactly: HUGEINT -> DOUBLE
    # rounding first, one division, left-associated multiplies.
    est = alpha * m * m / (float(s_int) / float(1 << scale))
    if est <= 2.5 * m and v_zero > 0:
        est = m * math.log(m / v_zero)
    return est


def approx_distinct(
    ds: rd.Dataset,
    key_col: str,
    value_col: str,
    p: int = 9,
) -> rd.Dataset:
    """Per-key approximate COUNT(DISTINCT value) via HyperLogLog.

    Plan: each batch hashes values (vectorized FNV-1a over the Arrow
    string buffer — values are cast to their decimal/utf8 string form
    so int and string keys sketch identically to SQL ``::VARCHAR``),
    derives (register, rho) and pre-combines to max-rho per (key,
    register) INSIDE the batch — the shuffle then carries at most
    ``keys x 2**p`` rows per block regardless of input size.  One
    small ``groupby(key)`` merges registers and emits the estimate.

    Output columns: ``(key_col, approx_distinct: double)`` with the
    estimate rounded to 3 dp (absorbs the <=1-ulp libm ``ln``
    difference between engines on the linear-counting branch).
    """
    m = 1 << p
    shift = np.uint64(64 - p)
    w_mask = np.uint64((1 << (64 - p)) - 1)
    rho_cap = 64 - p + 1
    key_type = ds.schema().base_schema.field(key_col).type
    partial_schema = pa.schema(
        [(key_col, key_type), ("__reg", pa.int32()), ("__rho", pa.int32())]
    )

    def partials(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return partial_schema.empty_table()
        vals = pc.cast(b.column(value_col), pa.string())
        h = _mix64(hash_string_array(single_chunk(vals)))
        reg = (h >> shift).astype(np.int32)
        w = h & w_mask
        rho = np.where(w == 0, rho_cap, 64 - p - _bitlen_u64(w) + 1).astype(
            np.int32
        )
        t = pa.table(
            {
                key_col: b.column(key_col),
                "__reg": pa.array(reg, pa.int32()),
                "__rho": pa.array(rho, pa.int32()),
            }
        )
        combined = t.group_by([key_col, "__reg"]).aggregate([("__rho", "max")])
        return combined.rename_columns([key_col, "__reg", "__rho"])

    def estimate(g: pa.Table) -> pa.Table:
        regs = np.zeros(m, np.int64)
        np.maximum.at(
            regs,
            g.column("__reg").to_numpy(zero_copy_only=False),
            g.column("__rho").to_numpy(zero_copy_only=False),
        )
        est = round(hll_estimate(regs, p), 3)
        return pa.table(
            {
                key_col: g.column(key_col).slice(0, 1),
                "approx_distinct": pa.array([est], pa.float64()),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(key_col)
        .map_groups(estimate, batch_format="pyarrow")
    )


def approx_quantiles(
    ds: rd.Dataset,
    value_col: str,
    qs: tuple[float, ...] = (0.25, 0.5, 0.75, 0.95),
    lo: float = 0.0,
    hi: float = 1.0,
    bins: int = 4096,
) -> pa.Table:
    """Fixed-bin histogram quantile sketch — the O(bins)-state path to
    quantiles that needs NO sort and NO all-to-all: each block emits
    its sparse (bin, count) histogram (<= bins tiny rows), the driver
    folds exact integer counts (order-insensitive), and quantile q is
    the midpoint of the first bin whose cumulative count reaches
    ``ceil(q * n)`` (type-1 on the binned distribution).

    Determinism contract with the SQL oracle: bin index =
    ``floor((v - lo) / span * bins)`` clipped to [0, bins-1], computed
    in float64 with identical operator order; ranks use float64
    ``q * n`` in BOTH engines (the oracle casts q::DOUBLE — decimal
    arithmetic there would diverge on non-dyadic q like 0.95).
    Out-of-range values clip into the edge bins; nulls drop.

    Accuracy is span/bins (absolute) — the classic trade for a sketch
    whose shuffle cost is independent of row count."""
    span = float(hi) - float(lo)
    if span <= 0 or bins <= 0:
        raise ValueError("need hi > lo and bins > 0")

    def hist(b: pa.Table) -> pa.Table:
        col = b.column(value_col)
        v = pc.cast(col, pa.float64()).to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        idx = np.clip(
            np.floor((v - lo) / span * bins).astype(np.int64), 0, bins - 1
        )
        present, counts = np.unique(idx, return_counts=True)
        return pa.table(
            {
                "__bin": pa.array(present, pa.int64()),
                "__c": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    full = np.zeros(bins, np.int64)
    for t in ds.map_batches(hist, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        # np.add.at: iter_batches coalesces blocks, so bin ids repeat.
        np.add.at(
            full,
            t.column("__bin").to_numpy(zero_copy_only=False),
            t.column("__c").to_numpy(zero_copy_only=False),
        )
    n = int(full.sum())
    cum = np.cumsum(full)
    width = span / bins
    out_q, out_v = [], []
    for q in qs:
        rank = math.ceil(q * float(n))
        b = int(np.searchsorted(cum, max(rank, 1)))
        out_q.append(float(q))
        out_v.append(lo + (b + 0.5) * width)
    return pa.table(
        {
            "quantile": pa.array(out_q, pa.float64()),
            "approx_value": pa.array(out_v, pa.float64()),
        }
    )
