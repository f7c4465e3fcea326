"""Shared Arrow helpers."""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def single_chunk(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Flatten a (possibly chunked) column to ONE contiguous Array —
    the precondition for zero-copy numpy views and offset arithmetic.
    Empty chunked columns yield a typed empty array."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks else pa.array([], col.type)
    return col


def bucket_ids(keys: pa.ChunkedArray | pa.Array, num_buckets: int) -> np.ndarray:
    """The engine's one stable bucket id per non-null key -> int32.

    Integers: Fibonacci mix ``(k * 0x9E3779B97F4A7C15) >> 40``; strings:
    ``crc32(utf-8) % num_buckets``, hashed once per DISTINCT key over
    the dictionary.  Both are process-stable, so every shuffle, the
    reassembly buckets and the manifest ``partition_id``
    (``reassemble.bucket_of``) agree across runs and resumes."""
    if pa.types.is_integer(keys.type):
        k = keys.to_numpy(zero_copy_only=False).astype(np.int64)
        with np.errstate(over="ignore"):
            mixed = (k.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)
        return (mixed % np.uint64(num_buckets)).astype(np.int32)
    enc = single_chunk(pc.dictionary_encode(keys))
    lut = np.array(
        [zlib.crc32(str(v).encode()) % num_buckets for v in enc.dictionary.to_pylist()],
        dtype=np.int32,
    )
    codes = enc.indices.to_numpy(zero_copy_only=False)
    return lut[codes] if len(lut) else np.empty(0, np.int32)
