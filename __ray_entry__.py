"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself BEFORE importing this module:
nothing here (or in the library) calls ``ray.init``/``ray.shutdown``.

- ``entry()``       — flagship interleaved-extraction pipeline on the
                      deterministic synthetic corpus sized for sf0.001.
- ``queries()``     — one callable per implemented operator/pipeline
                      (SURVEY.md §2 + training-data operator suite);
                      each takes an sf_dir and returns a Dataset /
                      DataFrame / pyarrow Table.
- ``oracle_sql()``  — a DuckDB equivalent for EVERY query: plain SQL
                      over the testdata views where expressible, DuckDB
                      re-implementations of the full sketch chains (FNV
                      -> MinHash/SimHash -> LSH -> EXISTS) for the dedup
                      family (pipelines/oracles.py), and golden-table
                      SQL for the OCR/extraction family (closed-form
                      fixture truth at /tmp/twr_fixtures/sf0.01).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline: interleaved docs -> explode -> strip ⊕ OCR ->
    reassemble, on the sf0.001-scale synthetic corpus."""
    from tesseract_wasm_ray.catalog.extraction import q_extract_flagship

    return q_extract_flagship("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from tesseract_wasm_ray.catalog import table

    return {name: entry.fn for name, entry in table().items()}


def oracle_sql() -> dict[str, str]:
    from tesseract_wasm_ray.catalog import table
    from tesseract_wasm_ray.fixtures import corpus_for

    # The extraction-family oracles SELECT from the sf0.01 fixture golden
    # tables; make sure they exist regardless of whether the driver runs
    # the oracle or the Ray query first.  Inline generation (500 docs),
    # no Ray session required; idempotent across calls.
    corpus_for("/root/testdata/sf0.01")
    return {name: entry.oracle for name, entry in table().items()}
