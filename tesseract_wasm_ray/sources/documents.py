"""Dataset sources for the interleaved corpus.

Parquet stands in for Lance in this sandbox (SURVEY.md §7.0): the Arrow
schema is identical, and these wrappers are the single place a
``read_lance`` call would slot in.  Column pruning is pushed to the read.
"""

from __future__ import annotations

import ray.data as rd


# A read task holds its decoded row group in its heap and splits it into
# blocks.  Ray Data's default lets a task hand over at most 2 blocks per
# scheduling tick (0.1 s) from its streaming generator, so a one-file
# table trickles out for about a second; -1 lifts that limit, and the
# task releases each block as it splits it (docs/RAY_NOTES.md, round 8).
_READ_REMOTE_ARGS = {"_generator_backpressure_num_objects": -1}


def _read_table(path: str, columns: list[str] | None) -> rd.Dataset:
    """Lance when available + requested (the north rule's storage), else
    parquet with the identical Arrow schema.  A ``.lance`` path uses
    ``ray.data.read_lance`` (fragment-level lineage maps 1:1 onto the
    manifest's per-bucket input ranges); this sandbox has no lance
    wheel, so parquet is the tested path."""
    if path.endswith(".lance"):
        try:
            return rd.read_lance(path, columns=columns, ray_remote_args=_READ_REMOTE_ARGS)
        except (AttributeError, ImportError) as e:  # pragma: no cover
            raise RuntimeError(
                "lance reader requested but pylance is not installed"
            ) from e
    return rd.read_parquet(path, columns=columns, ray_remote_args=_READ_REMOTE_ARGS)


def read_documents(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """documents table: (doc_id: string, spans: list<struct<...>>)."""
    return _read_table(path, columns)


def read_media(path: str, columns: list[str] | None = None) -> rd.Dataset:
    """media table: (media_ref, width, height, channels, pixels, rotation).

    ``pixels`` rows are wide (raw rasters); the OCR-family stages bound
    their batch by ``ExtractConfig.ocr_batch_size`` (SURVEY.md §4.2).
    """
    return _read_table(path, columns)


def scan_parquet_safe(
    in_dir: str, quarantine_manifest: str | None = None
) -> tuple[list[str], list[dict]]:
    """File-level ingest quarantine: probe every parquet file's FOOTER
    (metadata only — no data read) and split the listing into readable
    files and quarantined ones.  The row-level dead-letter path
    (stages/ocr_actor.py, stages/multimodal.py) isolates corrupt
    PAYLOADS; this isolates corrupt FILES — a truncated upload or a
    partial write would otherwise kill the whole read task and, under
    Ray's deterministic retry, the whole job.  Returns
    ``(good_paths, quarantine_rows)``; the rows optionally append to a
    jsonl manifest so a resumed run can skip or re-fetch the bad
    shards.  Scale shape: one footer read per file (metadata-sized),
    no data movement; at real scale run it as the listing step before
    ``read_parquet(good_paths)``."""
    import json as _json
    import os as _os

    import pyarrow.parquet as _pq

    files = sorted(
        e.path
        for e in _os.scandir(in_dir)
        if e.is_file() and e.name.endswith(".parquet")
    )
    good: list[str] = []
    bad: list[dict] = []
    for f in files:
        try:
            _pq.read_metadata(f)
            good.append(f)
        except Exception as ex:  # noqa: BLE001 — quarantine, don't die
            bad.append(
                {
                    "path": f,
                    "bytes": _os.stat(f).st_size,
                    "error": f"{type(ex).__name__}: {ex}",
                }
            )
    if quarantine_manifest and bad:
        with open(quarantine_manifest, "a", encoding="utf-8") as fh:
            for row in bad:
                fh.write(_json.dumps(row) + "\n")
    return good, bad
