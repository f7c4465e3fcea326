#!/usr/bin/env python3
"""Extraction benchmark: one command, three workloads, outputs checked
against the seeded generator's truth.

    python3 perfbench/run.py --workload extract_media --seed 1 --seconds 30 --trace 0

Workloads (see README.md for their make-up and why each exists):

- ``extract_media``: a media-heavy corpus through ``run_extract`` (lazy
  path), output consumed to counts;
- ``extract_text``: a text-heavy HTML corpus through
  ``run_extract(out_dir=..., resume=False)`` (bucket files, quarantine,
  manifest);
- ``page_requests``: a closed loop of single-page requests on one warm
  ``OCRClient``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same workload and then
reports the per-layer metrics (``layers.py``), and prints its
end-to-end figures on standard error so the tracing overhead can be read
off.  Everything the run writes stays under ``<repo>/.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")

# Ray gets a fixed logical CPU count, never more than this process may
# run on: at one logical CPU the OCR pool starves its feeding tasks.
NUM_CPUS = 4
# 3 actors x 0.5 CPU claim 1.5 of the 4 logical CPUs and leave the rest
# to the read / explode / strip tasks that feed the pool.
OCR_POOL = 3
OBJECT_STORE_BYTES = 768 << 20
# page_requests: one request in HOCR_EVERY also renders hOCR.
HOCR_EVERY = 4
WARMUP_REQUESTS = 20
WARMUP_DOCS = 25
MIN_PASSES = 3
KEEP_INPUTS = 32
RSS_PERIOD_S = 0.5


def process_age_s() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def tree_rss_bytes(root_pid: int) -> int:
    """Summed RSS of ``root_pid`` and all its descendants (the Ray
    processes this driver started)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(name))
    total, todo = 0, [root_pid]
    page = os.sysconf("SC_PAGE_SIZE")
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1]) * page
        except (OSError, ValueError, IndexError):
            continue
    return total


class RssPeak:
    """Samples the process tree's summed RSS every RSS_PERIOD_S seconds."""

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        pid = os.getpid()
        while True:
            self.peak = max(self.peak, tree_rss_bytes(pid))
            if self._stop.wait(RSS_PERIOD_S):
                return

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return self.peak / 2**20


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------


def inputs_dir(workload: str, seed: int) -> str:
    """Generated inputs for (workload, seed), cached under .perfbench/inputs."""
    import gen

    base = os.path.join(WORK, "inputs")
    d = os.path.join(base, f"{workload}-{seed}")
    if not os.path.isdir(d):
        os.makedirs(base, exist_ok=True)
        gen.generate(workload, seed, d)
        cached = sorted(
            (e for e in os.scandir(base) if e.is_dir() and ".tmp-" not in e.name),
            key=lambda e: e.stat().st_mtime,
        )
        for e in cached[:-KEEP_INPUTS]:
            shutil.rmtree(e.path, ignore_errors=True)
    return d


def read_truth(path: str) -> dict[str, list[dict]]:
    import pyarrow.parquet as pq

    t = pq.read_table(path)
    return dict(zip(t.column("doc_id").to_pylist(), t.column("spans").to_pylist()))


# --------------------------------------------------------------------------
# Ray session
# --------------------------------------------------------------------------


def start_ray() -> int:
    """Start a private local Ray session.  Returns the logical CPU count."""
    import ray
    import ray.data as rd

    num_cpus = min(NUM_CPUS, len(os.sched_getaffinity(0)))
    kwargs = {}
    tmp = os.path.join(WORK, "ray")
    # Ray's socket paths below the temp dir must fit in 107 bytes.
    if len(tmp) <= 40:
        shutil.rmtree(tmp, ignore_errors=True)
        kwargs["_temp_dir"] = tmp
    ray.init(
        address="local",
        num_cpus=num_cpus,
        num_gpus=0,
        include_dashboard=False,
        object_store_memory=OBJECT_STORE_BYTES,
        logging_level=logging.WARNING,
        **kwargs,
    )
    from tesseract_wasm_ray.tuning import apply_data_context_tuning

    apply_data_context_tuning()
    rd.DataContext.get_current().enable_progress_bars = False
    return num_cpus


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


class ExtractWorkload:
    """One pass = one ``run_extract`` call over the whole corpus."""

    def __init__(self, name: str, in_dir: str, work_dir: str):
        import pyarrow.parquet as pq

        self.name = name
        self.docs = os.path.join(in_dir, "documents.parquet")
        self.media = os.path.join(in_dir, "media.parquet")
        self.truth = read_truth(os.path.join(in_dir, "truth.parquet"))
        self.n_docs = len(self.truth)
        self.n_spans = sum(len(v) for v in self.truth.values())
        self.n_pages = pq.read_metadata(self.media).num_rows
        self.work_dir = work_dir
        self.cfg = None

    def setup(self) -> None:
        """Model build, then one warm-up pass over the first WARMUP_DOCS
        documents (spawns the pool and the task workers)."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from tesseract_wasm_ray.pipelines.extract import ExtractConfig, run_extract

        self.cfg = ExtractConfig(ocr_concurrency=OCR_POOL)
        docs = pq.read_table(self.docs).slice(0, WARMUP_DOCS)
        refs = pc.struct_field(pc.list_flatten(docs["spans"]), "media_ref")
        media = pq.read_table(self.media)
        media = media.filter(pc.is_in(media["media_ref"], value_set=refs))
        warm = os.path.join(self.work_dir, "warmup")
        os.makedirs(warm)
        pq.write_table(docs, os.path.join(warm, "documents.parquet"))
        pq.write_table(media, os.path.join(warm, "media.parquet"))
        ds = run_extract(os.path.join(warm, "documents.parquet"), os.path.join(warm, "media.parquet"), self.cfg)
        ds.materialize()

    def run_pass(self, k: int):
        """-> (seconds, checker); the checker returns errors and runs
        outside the timed region."""
        from tesseract_wasm_ray.pipelines.extract import run_extract

        if self.name == "extract_media":
            t0 = time.perf_counter()
            ds = run_extract(self.docs, self.media, self.cfg)
            batches = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
            dt = time.perf_counter() - t0
            return dt, lambda: self._check_batches(batches)
        out = os.path.join(self.work_dir, f"pass-{k}")
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        run_extract(self.docs, self.media, self.cfg, out_dir=out, resume=False)
        dt = time.perf_counter() - t0
        return dt, lambda: self._check_out_dir(out)

    def _check_batches(self, batches) -> list[str]:
        from checks import check_documents

        rows = [r for b in batches for r in b.to_pylist()]
        return check_documents(rows, self.truth)

    def _check_out_dir(self, out: str) -> list[str]:
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from checks import check_documents, check_manifest

        manifest = pq.read_table(os.path.join(out, "manifest.parquet")).to_pylist()
        counts, rows = {}, []
        for name in sorted(os.listdir(out)):
            if name.startswith("part-") and name.endswith(".parquet"):
                t = pq.read_table(os.path.join(out, name))
                counts[name] = (t.num_rows, int(pc.sum(pc.list_value_length(t["spans"])).as_py() or 0))
                rows.extend(t.to_pylist())
        qdir = os.path.join(out, "quarantine")
        quarantined = sorted(os.listdir(qdir)) if os.path.isdir(qdir) else []
        errors = check_manifest(manifest, counts, self.n_docs, self.n_spans, quarantined)
        errors += check_documents(rows, self.truth)
        shutil.rmtree(out, ignore_errors=True)
        return errors

    def measure(self, seconds: float) -> dict:
        walls: list[float] = []
        errors: list[str] = []
        while len(walls) < MIN_PASSES or sum(walls) < seconds:
            dt, check = self.run_pass(len(walls))
            walls.append(dt)
            errors += check()
        print(f"perfbench: {self.name} pass walls (s): {[round(w, 3) for w in walls]}", file=sys.stderr)
        total = sum(walls)
        p50 = statistics.median(walls) * 1000
        return {
            "attempted": len(walls) * self.n_docs,
            "failed": 0,
            "errors": errors,
            "metrics": {
                "docs_per_s": len(walls) * self.n_docs / total,
                "pages_per_s": len(walls) * self.n_pages / total,
                # a pass is one request; a run makes too few passes for a p99
                "request_p50_ms": p50,
            },
        }


class PageRequests:
    """Closed loop, one caller, one warm OCRClient.  A request loads a
    page, then gets its orientation, text and word boxes (and, for one
    request in HOCR_EVERY, its hOCR), awaiting each call in turn."""

    def __init__(self, in_dir: str):
        import pyarrow.parquet as pq

        from gen import load_pages

        self.pages = load_pages(pq.read_table(os.path.join(in_dir, "pages.parquet")))
        self.client = None

    def setup(self) -> None:
        import ray

        from tesseract_wasm_ray.client import OCRClient
        from tesseract_wasm_ray.state.glyph_model import GlyphModel

        self.client = OCRClient()
        ray.get(self.client.load_model(GlyphModel.build().to_bytes()))
        for i in range(WARMUP_REQUESTS):
            self.request(i)

    def request(self, i: int) -> dict:
        import ray

        c = self.client
        p = self.pages[i % len(self.pages)]
        ray.get(c.load_image(p["img"]))
        out = {
            "rotation": ray.get(c.get_orientation())["rotation"],
            "text": ray.get(c.get_text()),
            "boxes": ray.get(c.get_text_boxes("word")),
        }
        if i % HOCR_EVERY == 0:
            out["hocr"] = ray.get(c.get_hocr())
        return out

    def measure(self, seconds: float) -> dict:
        from checks import check_page

        lat: list[float] = []
        results = []
        failed = 0
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            i = len(lat)
            t0 = time.perf_counter()
            try:
                res = self.request(i)
            except Exception as ex:  # a failed request still counts as attempted
                if not failed:
                    print(f"perfbench: request {i} failed: {ex!r}", file=sys.stderr)
                res = ex
                failed += 1
            lat.append(time.perf_counter() - t0)
            results.append(res)
        wall = time.perf_counter() - t_start
        errors: list[str] = []
        for i, res in enumerate(results):
            if isinstance(res, Exception):
                continue
            p = self.pages[i % len(self.pages)]
            errors += check_page(res, p)
        ms = [x * 1000 for x in lat]
        rate = len(lat) / wall
        return {
            "attempted": len(lat),
            "failed": failed,
            "errors": errors[:5],
            "metrics": {
                "docs_per_s": rate,
                "pages_per_s": rate,
                "request_p50_ms": statistics.median(ms),
                "request_p99_ms": statistics.quantiles(ms, n=100)[98],
            },
        }

    def close(self) -> None:
        if self.client is not None:
            self.client.destroy()


UNITS = {
    "setup_s": "s",
    "docs_per_s": "docs/s",
    "pages_per_s": "pages/s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("extract_media", "extract_text", "page_requests"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "tesseract_wasm_ray", "__init__.py")):
        print(f"perfbench: no tesseract_wasm_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, HERE]
    # Before Ray is imported: a private session, no usage reporting, and
    # workers that import the package from ROOT whatever the working
    # directory.
    os.environ.pop("RAY_ADDRESS", None)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    path = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join([ROOT] + path)
    rss = RssPeak()

    t_gen = time.perf_counter()
    in_dir = inputs_dir(args.workload, args.seed)
    t_gen = time.perf_counter() - t_gen

    import ray

    work_dir = os.path.join(WORK, "runs", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    wl = None
    try:
        print(f"perfbench: Ray session with {start_ray()} logical CPUs", file=sys.stderr)
        if args.workload == "page_requests":
            wl = PageRequests(in_dir)
        else:
            wl = ExtractWorkload(args.workload, in_dir, work_dir)
        capture = None
        if args.trace:
            import layers

            capture = layers.StatsCapture()
        wl.setup()
        setup_s = process_age_s() - t_gen
        if capture:
            capture.clear()
        res = wl.measure(args.seconds)
        peak_mb = rss.stop()
        metrics = dict(res["metrics"], setup_s=setup_s, peak_rss_mb=peak_mb)
        if args.trace:
            print("traced end-to-end: " + json.dumps(metrics), file=sys.stderr)
            layer_metrics = layers.measure_all(
                args.workload, in_dir, wl, capture, OCR_POOL, HOCR_EVERY, work_dir
            )
            out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        else:
            out_metrics = {k: {"value": metrics[k], "unit": UNITS[k]} for k in UNITS if k in metrics}
    finally:
        if isinstance(wl, PageRequests):
            wl.close()
        ray.shutdown()
        shutil.rmtree(work_dir, ignore_errors=True)
    for e in res["errors"]:
        print(f"perfbench: WRONG OUTPUT: {e}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not res["errors"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": out_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
