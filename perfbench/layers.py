"""Per-layer ledger for the traced run (``run.py --trace 1``).

Each layer is timed from outside, by calling its public functions on the
workload's own pages and spans, in the driver process:

- ``functions``: the OCR kernels and the boilerplate stripper;
- ``engine``: ``OCREngine``;
- ``stages``: ``OcrActor``, explode + strip, bucket column, stitch, and
  the bucket-file and manifest writes;
- ``client``: ``OCRClient`` (a Ray actor round trip per call);
- ``sources``: the document and media reads;
- ``pipeline``: per-operator wall, rows and blocks of ``run_extract``,
  from the Ray Data stats of each execution;
- ``ray``: a bare framework floor (identity map, empty bucket-groupby).

README.md maps each metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import time

from ray.data._internal.execution.execution_callback import (
    EXECUTION_CALLBACKS_CONFIG_KEY,
    ExecutionCallback,
    get_execution_callbacks,
)

PROBE_PAGES = 150
PROBE_SPANS = 5000
CLIENT_WARMUP = 5

# run_extract's operators in plan order: (ledger name, a substring of
# Ray Data's operator name).  Both ReadParquet and both Sort operators
# are told apart by their order.
PIPELINE_OPS = [
    ("read_docs", "ReadParquet"),
    ("explode_strip", "explode_and_strip"),
    ("read_media", "ReadParquet"),
    ("ocr", "OcrActor"),
    ("pad_ocr", "MapBatches(<lambda>)"),
    ("repartition", "Repartition"),
    ("join_groupby", "Sort"),
    ("fill_bucket", "fill_text"),
    ("bucket_groupby", "Sort"),
    ("stitch", "MapBatches("),
]
_BLOCKS = re.compile(r"(\d+) blocks produced")


class StatsCapture(ExecutionCallback):
    """Keeps the stats summary of every Ray Data execution that succeeds.

    Registered on the driver's DataContext.  Datasets deep-copy that
    context (the copy must keep pointing here) and ship it to workers,
    which get a no-op callback instead of this object."""

    def __init__(self):
        import ray.data as rd

        self.summaries: list = []
        ctx = rd.DataContext.get_current()
        ctx.set_config(EXECUTION_CALLBACKS_CONFIG_KEY, get_execution_callbacks(ctx) + [self])

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return (ExecutionCallback, ())

    def after_execution_succeeds(self, executor) -> None:
        self.summaries.append(executor.get_stats().to_summary())

    def clear(self) -> None:
        self.summaries.clear()


def _operators(summary) -> list[tuple[str, list]]:
    """A DatasetStatsSummary -> [(operator name, its stats summaries)] in
    plan order; a shuffle has one summary per sub-operator."""
    out = []
    for p in summary.parents:
        out += _operators(p)
    ops = [o for o in summary.operators_stats if o.earliest_start_time]
    if ops:
        out.append((ops[0].operator_name if len(ops) == 1 else summary.base_name, ops))
    return out


def parse_pipeline_stats(summary) -> dict[str, float]:
    """One run_extract execution -> pipeline.exec_s (the whole execution)
    and pipeline.<op>.{wall_s,rows,blocks}:
    wall from the operator's first task start to its last task end (for
    a shuffle, across its map and reduce sub-operators); rows and blocks
    of its (last sub-operator's) output."""
    ops = _operators(summary)
    out: dict[str, float] = {"pipeline.exec_s": summary.time_total_s}
    pos = 0
    for name, pattern in PIPELINE_OPS:
        while pos < len(ops) and pattern not in ops[pos][0]:
            pos += 1
        if pos == len(ops):
            raise ValueError(f"operator {pattern!r} ({name}) not in {[o[0] for o in ops]}")
        stats = ops[pos][1]
        pos += 1
        last = stats[-1]
        out[f"pipeline.{name}.wall_s"] = max(o.latest_end_time for o in stats) - min(
            o.earliest_start_time for o in stats
        )
        out[f"pipeline.{name}.rows"] = (last.output_num_rows or {}).get("sum", 0)
        out[f"pipeline.{name}.blocks"] = int(_BLOCKS.search(last.block_execution_summary_str).group(1))
    return out


def _median_dicts(ds: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in ds) for k in ds[0]}


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


# --------------------------------------------------------------------------
# per-layer probes
# --------------------------------------------------------------------------


def probe_functions_engine(pages: list[dict], blob: bytes, hocr_every: int):
    """-> (functions.* and engine.* metrics, per-page seconds of the
    client's request sequence run in-process)."""
    from tesseract_wasm_ray.engine import OCREngine
    from tesseract_wasm_ray.functions.binarize import binarize
    from tesseract_wasm_ray.functions.hocr import render_hocr
    from tesseract_wasm_ray.functions.layout import analyze_layout
    from tesseract_wasm_ray.functions.orientation import derotate, detect_orientation
    from tesseract_wasm_ray.functions.recognize import recognize_page
    from tesseract_wasm_ray.state.glyph_model import GlyphModel

    model = GlyphModel.from_bytes(blob)
    t = dict.fromkeys(("binarize", "layout", "recognize", "orientation", "hocr"), 0.0)
    for p in pages:
        dt, ink = _timed(binarize, p["img"])
        t["binarize"] += dt
        t["layout"] += _timed(analyze_layout, ink)[0]
        upright = derotate(ink, p["rotation"])
        dt, (words, lines, _) = _timed(recognize_page, upright, model)
        t["recognize"] += dt
        t["orientation"] += _timed(detect_orientation, ink, model)[0]
        t["hocr"] += _timed(render_hocr, words, lines, upright.shape[1], upright.shape[0])[0]
    n = len(pages)
    out = {f"functions.{k}_ms_per_page": v * 1000 / n for k, v in t.items()}

    eng = OCREngine()
    eng.load_model(blob)
    page_s, request_s = [], []
    for i, p in enumerate(pages):
        t0 = time.perf_counter()
        eng.load_image(p["img"])
        eng.orient_and_recognize()
        eng.get_text()
        page_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        eng.load_image(p["img"])
        eng.get_orientation()
        eng.get_text()
        eng.get_text_boxes("word")
        if i % hocr_every == 0:
            eng.get_hocr()
        request_s.append(time.perf_counter() - t0)
    loads = []
    for _ in range(20):
        t0 = time.perf_counter()
        OCREngine().load_model(GlyphModel.build().to_bytes())
        loads.append(time.perf_counter() - t0)
    out["engine.page_ms"] = statistics.mean(page_s) * 1000
    out["engine.request_ms"] = statistics.median(request_s) * 1000
    out["engine.model_load_ms"] = statistics.median(loads) * 1000
    return out, request_s


def probe_client(pages: list[dict], blob: bytes, hocr_every: int, client, engine_request_s) -> dict:
    import ray

    own = client is None
    if own:
        from tesseract_wasm_ray.client import OCRClient

        client = OCRClient()
        ray.get(client.load_model(blob))
    try:
        for p in pages[:CLIENT_WARMUP]:
            ray.get(client.load_image(p["img"]))
            ray.get(client.get_text())
        req = []
        for i, p in enumerate(pages):
            t0 = time.perf_counter()
            ray.get(client.load_image(p["img"]))
            ray.get(client.get_orientation())
            ray.get(client.get_text())
            ray.get(client.get_text_boxes("word"))
            if i % hocr_every == 0:
                ray.get(client.get_hocr())
            req.append(time.perf_counter() - t0)
    finally:
        if own:
            client.destroy()
    return {
        "client.request_ms": statistics.median(req) * 1000,
        "client.rpc_ms": statistics.median(c - e for c, e in zip(req, engine_request_s)) * 1000,
    }


def probe_stages(docs, media_batch, blob: bytes, num_buckets: int, batch_size: int, work_dir: str):
    """-> (stages.* and functions.strip metrics, the bucketed span rows)."""
    import pyarrow.compute as pc

    from tesseract_wasm_ray.functions.boilerplate import strip_boilerplate
    from tesseract_wasm_ray.stages.explode import explode_spans, only_kind
    from tesseract_wasm_ray.stages.manifest import append_manifest, write_bucket_atomic
    from tesseract_wasm_ray.stages.ocr_actor import OcrActor
    from tesseract_wasm_ray.stages.reassemble import add_bucket_column, stitch_bucket
    from tesseract_wasm_ray.stages.strip import strip_text_spans

    out = {}
    actor = OcrActor(model_blob=blob, emit_boxes=False)
    actor(media_batch.slice(0, 2))  # first-call warm-up
    dt = 0.0
    for off in range(0, media_batch.num_rows, batch_size):
        dt += _timed(actor, media_batch.slice(off, batch_size))[0]
    out["stages.ocr_actor_ms_per_page"] = dt * 1000 / media_batch.num_rows

    dt, rows = _timed(explode_spans, docs)
    dt += _timed(strip_text_spans, only_kind("text")(rows))[0]
    kspans = rows.num_rows / 1000
    out["stages.explode_strip_ms_per_kspan"] = dt * 1000 / kspans

    raw = only_kind("text")(rows).column("text").to_pylist()[:PROBE_SPANS]
    dt = _timed(lambda: [strip_boilerplate(h) for h in raw])[0]
    out["functions.strip_ms_per_kspan"] = dt * 1000 / (len(raw) / 1000)

    dt, bucketed = _timed(add_bucket_column(num_buckets), rows)
    out["stages.bucket_ms_per_kspan"] = dt * 1000 / kspans

    bk = bucketed.column("bucket")
    groups = [
        bucketed.filter(pc.equal(bk, b)).drop_columns(["bucket"])
        for b in pc.unique(bk).to_pylist()
    ]
    stitched, dt = [], 0.0
    for g in groups:
        d, s = _timed(stitch_bucket, g)
        dt += d
        stitched.append(s)
    out["stages.stitch_ms_per_kspan"] = dt * 1000 / kspans

    wdir = os.path.join(work_dir, "stage-writes")
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    t0 = time.perf_counter()
    manifest = []
    for b, s in enumerate(stitched):
        name = write_bucket_atomic(wdir, b, s)
        manifest.append(
            {"partition_id": b, "config_fingerprint": "", "model_version": "",
             "input_files": [], "n_docs": s.num_rows, "n_spans": 0, "n_words": 0,
             "n_quarantined": 0, "quarantine_file": "", "wall_ms": 0.0, "output_file": name}
        )
    append_manifest(wdir, manifest)
    out["stages.write_bucket_ms_per_kspan"] = (time.perf_counter() - t0) * 1000 / kspans
    shutil.rmtree(wdir, ignore_errors=True)
    return out, bucketed


def probe_sources(docs_path: str, media_path: str) -> dict:
    from tesseract_wasm_ray.sources import read_documents, read_media

    def consume(ds) -> int:
        return sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow", batch_size=None))

    return {
        "sources.read_docs_s": _timed(lambda: consume(read_documents(docs_path)))[0],
        "sources.read_media_s": _timed(lambda: consume(read_media(media_path)))[0],
    }


def probe_floor(docs, span_rows, n_blocks: int, num_buckets: int) -> dict:
    import ray.data as rd

    def consume(ds) -> int:
        return sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow", batch_size=None))

    def blocks(t, n):
        step = -(-t.num_rows // n)
        return [t.slice(i, step) for i in range(0, t.num_rows, step)]

    ds = rd.from_arrow(blocks(docs, n_blocks))
    floor_map = _timed(lambda: consume(ds.map_batches(lambda b: b, batch_format="pyarrow")))[0]
    ds = rd.from_arrow(blocks(span_rows, 16))
    floor_gb = _timed(
        lambda: consume(
            ds.groupby("bucket", num_partitions=min(num_buckets, 64)).map_groups(
                lambda g: g.slice(0, 0), batch_format="pyarrow"
            )
        )
    )[0]
    return {"ray.floor_map_s": floor_map, "ray.floor_groupby_s": floor_gb}


UNITS = (
    ("_ms_per_page", "ms/page"),
    ("_ms_per_kspan", "ms/kspan"),
    ("_ms", "ms"),
    ("_s", "s"),
    (".rows", "rows"),
    (".blocks", "blocks"),
    ("_frac", "fraction"),
)


def unit_of(name: str) -> str:
    return next(u for suffix, u in UNITS if name.endswith(suffix))


def measure_all(workload: str, in_dir: str, wl, capture: StatsCapture, pool: int,
                hocr_every: int, work_dir: str) -> dict[str, tuple[float, str]]:
    """Every per-layer metric for one workload -> {name: (value, unit)}."""
    import pyarrow.parquet as pq

    from gen import load_pages
    from tesseract_wasm_ray.pipelines.extract import ExtractConfig, run_extract

    docs_path = os.path.join(in_dir, "documents.parquet")
    media_path = os.path.join(in_dir, "media.parquet")
    cfg = ExtractConfig(ocr_concurrency=pool)
    if workload == "page_requests":
        # no Ray Data on the request path: time the pipeline on the
        # workload's small side corpus
        capture.clear()
        for _ in range(2):
            for _ in run_extract(docs_path, media_path, cfg).iter_batches(batch_size=None):
                pass
        pages = wl.pages[:PROBE_PAGES]
        client = wl.client
    else:
        pages = load_pages(pq.read_table(media_path).slice(0, PROBE_PAGES))
        client = None
    out = _median_dicts([parse_pipeline_stats(t) for t in capture.summaries])

    blob = cfg.model_blob
    fe, engine_request_s = probe_functions_engine(pages, blob, hocr_every)
    out.update(fe)
    out.update(probe_client(pages, blob, hocr_every, client, engine_request_s))
    docs = pq.read_table(docs_path)
    media = pq.read_table(media_path).slice(0, PROBE_PAGES)
    st, span_rows = probe_stages(docs, media, blob, cfg.num_buckets, cfg.ocr_batch_size, work_dir)
    out.update(st)
    out.update(probe_sources(docs_path, media_path))
    out.update(probe_floor(docs, span_rows, int(out["pipeline.explode_strip.blocks"]), cfg.num_buckets))
    out["pipeline.ocr_pool_busy_frac"] = (
        out["stages.ocr_actor_ms_per_page"] * out["pipeline.ocr.rows"] / 1000
    ) / (pool * out["pipeline.ocr.wall_s"])
    return {k: (float(v), unit_of(k)) for k, v in sorted(out.items())}
