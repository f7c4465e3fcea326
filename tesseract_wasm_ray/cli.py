"""CLI entry point — the shape a ``ray job submit`` run uses.

North-star operational model: the extraction job is submitted to a
fixed-size cluster as ``ray job submit -- python -m tesseract_wasm_ray.cli
extract --docs ... --media ... --out ...``; resume is automatic via the
output manifest (stages/manifest.py).  This module OWNS a Ray session
(guarded init — the library itself never calls ray.init).

Mirrors the reference's CLI entry (/root/reference/examples/node-cli/ocr.js:25-62):
parse args -> init engine/model -> run -> print summary.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="tesseract_wasm_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("extract", help="run the flagship extraction pipeline")
    ex.add_argument("--docs", required=True, help="documents table (parquet dir/file)")
    ex.add_argument("--media", required=True, help="media table (parquet dir/file)")
    ex.add_argument("--out", required=True, help="output directory (parquet + manifest)")
    ex.add_argument("--golden", help="optional golden spans table: validate equality")
    ex.add_argument("--no-resume", action="store_true")
    ex.add_argument("--num-buckets", type=int, default=64)
    ex.add_argument(
        "--on-error",
        choices=("quarantine", "raise"),
        default="quarantine",
        help="malformed-payload policy: 'quarantine' (default) dead-letters "
        "the row into the bucket's quarantine file and keeps going; "
        "'raise' stops the run on the first corrupt page (strict CI mode)",
    )
    ex.add_argument(
        "--quarantine-alert-frac",
        type=float,
        default=0.01,
        help="summary sets quarantine_alert=true when quarantined docs "
        "exceed this fraction of all docs (operator signal that the "
        "corpus, not the odd payload, is malformed)",
    )

    q = sub.add_parser(
        "query",
        help="run any catalogue operator (the training-data suite) over a "
        "testdata-shaped table directory and write the result as parquet",
    )
    q.add_argument("--name", required=True, help="operator name (see --list)")
    q.add_argument("--sf-dir", required=True, help="table directory (documents.parquet etc.)")
    q.add_argument("--out", help="output directory for the result parquet")
    q.add_argument(
        "--partition-by",
        help="comma-separated columns: write hive-partitioned parquet "
        "(one directory per value — the resumable-output layout)",
    )
    q.add_argument("--limit-preview", type=int, default=5)

    ls = sub.add_parser("list", help="list catalogue operators")  # noqa: F841

    cp = sub.add_parser(
        "compact",
        help="rewrite a parquet directory into ~target-size files "
        "(the small-files compaction a resumable job's per-partition "
        "outputs eventually need)",
    )
    cp.add_argument("--in", dest="in_dir", required=True)
    cp.add_argument("--out", required=True)
    cp.add_argument("--target-mb", type=int, default=128)

    args = ap.parse_args(argv)

    if args.cmd == "list":
        from .catalog import table

        for name in sorted(table()):
            print(name)
        return 0

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from .tuning import apply_data_context_tuning

    apply_data_context_tuning()

    if args.cmd == "compact":
        # metadata-only planning + one task per output file + atomic
        # publish: resumable at file granularity and shuffle-free,
        # unlike the earlier read->repartition->write (which moved all
        # data through the object store and restarted from zero)
        from .pipelines.compaction import compact_parquet

        manifest = compact_parquet(
            args.in_dir, args.out, target_bytes=args.target_mb << 20
        )
        print(
            json.dumps(
                {
                    "rows": sum(r["n_rows"] for r in manifest),
                    "files_out": len(manifest),
                    "skipped": sum(1 for r in manifest if r["skipped"]),
                    "out": args.out,
                }
            )
        )
        ray.shutdown()
        return 0

    if args.cmd == "query":
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from .catalog import table

        catalog = table()
        if args.name not in catalog:
            print(f"unknown operator {args.name!r}; see `list`", file=sys.stderr)
            return 2
        res = catalog[args.name].fn(args.sf_dir)
        part_cols = args.partition_by.split(",") if args.partition_by else None
        if hasattr(res, "write_parquet"):  # ray.data.Dataset
            if args.out:
                # write first, count from what was written — count()
                # before write_parquet() executes the lazy pipeline
                # twice end-to-end
                if part_cols:
                    res.write_parquet(args.out, partition_cols=part_cols)
                else:
                    res.write_parquet(args.out)
                n = rd.read_parquet(args.out).count()
            else:
                n = res.count()
        else:  # pandas DataFrame / pyarrow Table (small results)
            if part_cols:
                print(
                    f"--partition-by ignored: operator {args.name!r} returns a "
                    "driver-side result, written as one file",
                    file=sys.stderr,
                )
            df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
            n = len(df)
            if args.out:
                import os

                import pyarrow.parquet as pq

                os.makedirs(args.out, exist_ok=True)
                pq.write_table(
                    pa.Table.from_pandas(df, preserve_index=False),
                    os.path.join(args.out, "result.parquet"),
                )
        print(json.dumps({"operator": args.name, "rows": int(n), "out": args.out}))
        ray.shutdown()
        return 0

    from .pipelines.extract import ExtractConfig, run_extract, validate_against_golden

    cfg = ExtractConfig(num_buckets=args.num_buckets, on_error=args.on_error)
    manifest_rows = run_extract(
        args.docs, args.media, cfg, out_dir=args.out, resume=not args.no_resume
    )
    from .stages.manifest import completed_files, config_fingerprint, load_manifest

    import os

    fp = config_fingerprint(cfg.fingerprint_dict())
    # One row per partition (append-only manifest: LATEST row wins) and
    # only partitions whose output file still exists.
    by_part: dict[int, dict] = {}
    for r in load_manifest(args.out).to_pylist():
        if r["config_fingerprint"] == fp and os.path.exists(
            os.path.join(args.out, r["output_file"])
        ):
            by_part[r["partition_id"]] = r
    all_rows = list(by_part.values())
    summary = {
        "buckets_written": len(manifest_rows),
        "buckets_total": len(all_rows),
        "docs": int(sum(r["n_docs"] for r in all_rows)),
        "spans": int(sum(r["n_spans"] for r in all_rows)),
        "words": int(sum(r["n_words"] for r in all_rows)),
        # dead-letter accounting: docs quarantined by corrupt media
        "quarantined": int(sum(r.get("n_quarantined") or 0 for r in all_rows)),
        "out": args.out,
    }
    # operator alert: a high quarantined fraction means the CORPUS is
    # malformed (wrong schema, systematic corruption), not the odd
    # payload — surface it in the summary instead of burying it in
    # per-bucket quarantine files.
    total_docs = summary["docs"] + summary["quarantined"]
    frac = summary["quarantined"] / total_docs if total_docs else 0.0
    summary["quarantined_frac"] = round(frac, 6)
    summary["quarantine_alert"] = bool(frac > args.quarantine_alert_frac)
    if args.golden:
        import ray.data as rd

        files = completed_files(args.out, fp)
        if files:
            result = rd.read_parquet(files)
            summary["validation"] = validate_against_golden(result, args.golden)
        else:
            summary["validation"] = {"docs_ok": 0, "docs_mismatched": 0, "docs_missing": -1}
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
