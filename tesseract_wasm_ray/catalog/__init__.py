"""The query catalogue: one table of every operator/pipeline and its oracle.

Each family module defines its ``q_*`` queries and registers each one
right beside the DuckDB SQL that checks it::

    register("tpch_q1", q_tpch_q1, oracle="SELECT ...")

A query takes ``sf_dir`` (a /root/testdata/sf* directory) and returns a
Dataset, pandas DataFrame or pyarrow Table; its oracle returns the same
columns, with float aggregates rounded identically on both sides.  Ray
is initialised by the caller (driver, bench, tests); nothing here calls
``ray.init()``.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from typing import Any, NamedTuple

FAMILIES = (
    "analytics",
    "dedup",
    "events",
    "extraction",
    "graph",
    "multimodal",
    "retrieval",
    "text",
    "tpch",
    "trainprep",
)


class Entry(NamedTuple):
    fn: Callable[[str], Any]
    oracle: str


_TABLE: dict[str, Entry] = {}


def register(name: str, fn: Callable[[str], Any], oracle: str) -> None:
    """Add query ``name`` with the DuckDB SQL that checks it."""
    if name in _TABLE:
        raise ValueError(f"query {name!r} is already registered")
    _TABLE[name] = Entry(fn, oracle)


def table() -> dict[str, Entry]:
    """Every registered query, after importing each family module."""
    for family in FAMILIES:
        importlib.import_module(f"{__name__}.{family}")
    return _TABLE
