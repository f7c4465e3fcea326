"""N -> 4N scaling efficiency and the memory-bounded soak of the flagship
extraction.  Usage::

    python tools/scaling.py scaling
    python tools/scaling.py soak

Each prints one JSON line on stdout (progress goes to stderr).

``scaling`` runs ``run_extract`` over one cached corpus in fresh
processes at N and 4N logical CPUs, the single-host stand-in for N and
4N nodes (the framing of *A Model for Query Execution Over
Heterogeneous Instances*, CIDR 2024).  Runs go in interleaved lo/hi
pairs so each quotient stays inside one host window; a pair's
efficiency is (docs/s hi / docs/s lo) / (hi / lo), and the median and
the minimum over pairs are reported.  After each pair a spin-loop probe
reads how well the host itself scales from lo to hi processes.  A pair
whose reading is below 0.9 ran in a noisy window and is re-run once;
the re-run replaces it whatever its efficiency, so the rule is fixed
before any result is seen.

``soak`` runs the flagship with golden span validation, then five heavy
catalogue shapes, in one session while sampling the object store, and
reports the peak store watermark, spill accounting and the driver's
peak RSS.

Environment: ``TWR_SCALING_CPUS="lo,hi"`` (default a quarter of this
process's CPU affinity, and four times that), ``TWR_SCALING_PAIRS`` (6),
``TWR_SCALING_DOCS`` (240000) and ``TWR_SOAK_DOCS`` (500000).  Corpora
are cached under the fixture root (``TWR_FIXTURE_ROOT``, default
/tmp/twr_fixtures) and built before any timing starts.
"""

from __future__ import annotations

import glob
import json
import multiprocessing as mp
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, REPO)

import pyarrow as pa
import ray
import ray.data as rd
from ray.data import DataContext

from tesseract_wasm_ray.fixtures import FIXTURE_ROOT, corpus_for
from tesseract_wasm_ray.pipelines.extract import ExtractConfig, run_extract
from tesseract_wasm_ray.tuning import apply_data_context_tuning


def _log(msg: str) -> None:
    print(f"[scaling] {msg}", file=sys.stderr)


def _init_ray(num_cpus: int) -> None:
    # Ray workers import the package from REPO whatever the working directory.
    path = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p and p != REPO]
    os.environ["PYTHONPATH"] = os.pathsep.join([REPO] + path)
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    apply_data_context_tuning()


def _config(num_cpus: int) -> ExtractConfig:
    return ExtractConfig(
        num_buckets=max(32, num_cpus * 2),
        coalesce_partitions=max(8, num_cpus // 2),
    )


def _corpus(n_docs: int) -> dict[str, str]:
    # A corpus with an explicit size is keyed by that size alone.
    return corpus_for(FIXTURE_ROOT, n_docs=n_docs)


def docs_per_sec(num_cpus: int, n_docs: int) -> float:
    """One timed flagship run in a fresh ``num_cpus`` session.  Docs are
    counted map-side, so nothing materialises on the driver."""
    _init_ray(num_cpus)
    paths = _corpus(n_docs)
    t0 = time.monotonic()
    result = run_extract(paths["documents"], paths["media"], _config(num_cpus))
    docs = result.map_batches(
        lambda b: pa.table({"docs": [b.num_rows]}), batch_format="pyarrow"
    ).sum("docs")
    wall = time.monotonic() - t0
    ray.shutdown()
    if docs != n_docs:
        raise RuntimeError(f"extracted {docs} of {n_docs} docs")
    return round(docs / wall, 2)


def _spin(secs: float, q) -> None:
    end = time.monotonic() + secs
    n = 0
    while time.monotonic() < end:
        for _ in range(100_000):
            n += 1
    q.put(n)


def _spin_scale(cpus_lo: int, cpus_hi: int) -> float:
    """Aggregate spin-loop throughput at hi vs lo processes, over the
    ideal ratio (1.0 = the host scales linearly)."""

    def total(k: int) -> int:
        q = mp.Queue()
        ps = [mp.Process(target=_spin, args=(2.0, q)) for _ in range(k)]
        for p in ps:
            p.start()
        n = sum(q.get() for _ in ps)
        for p in ps:
            p.join()
        return n

    return round((total(cpus_hi) / max(total(cpus_lo), 1)) / (cpus_hi / cpus_lo), 3)


def run_scaling() -> dict:
    ncpu = len(os.sched_getaffinity(0))
    n = max(1, ncpu // 4)
    lo, hi = (int(c) for c in os.environ.get("TWR_SCALING_CPUS", f"{n},{4 * n}").split(","))
    n_pairs = int(os.environ.get("TWR_SCALING_PAIRS", "6"))
    n_docs = int(os.environ.get("TWR_SCALING_DOCS", "240000"))

    _init_ray(ncpu)
    paths = _corpus(n_docs)
    ray.shutdown()
    # Warm the page cache over the corpus once: one shared disk does not
    # grow with the CPU count, so both timed runs measure compute.
    for f in glob.glob(os.path.join(os.path.dirname(paths["documents"]), "*", "*.parquet")):
        with open(f, "rb") as fh:
            while fh.read(1 << 24):
                pass

    def run_one(cpus: int) -> float:
        code = f"import scaling; print(scaling.docs_per_sec({cpus}, {n_docs}))"
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{cpus}-CPU run failed:\n{proc.stderr[-2000:]}")
        return float(proc.stdout.split()[-1])

    def run_pair(i: int) -> dict:
        _log(f"pair {i + 1}/{n_pairs}: {lo} then {hi} cpus, {n_docs} docs")
        dps_lo, dps_hi = run_one(lo), run_one(hi)
        spin = _spin_scale(lo, hi)
        return {
            "efficiency": round(dps_hi / dps_lo / (hi / lo), 4),
            "docs_per_sec_lo": dps_lo,
            "docs_per_sec_hi": dps_hi,
            "host_spin_health": spin,
            "clean": spin >= 0.9,
        }

    pairs, n_retried = [], 0
    for i in range(n_pairs):
        p = run_pair(i)
        if not p["clean"]:
            _log(f"pair {i + 1}: spin health {p['host_spin_health']} < 0.9, one re-run")
            p = {**run_pair(i), "retried": True}
            n_retried += 1
        pairs.append(p)
        _log(f"pair {i + 1}: efficiency {p['efficiency']}, spin health {p['host_spin_health']}")

    effs = [p["efficiency"] for p in pairs]
    return {
        "metric": f"scaling efficiency {lo}->{hi} cpus, median of {n_pairs} interleaved pairs",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "n_docs": n_docs,
        "scaling_efficiency": round(statistics.median(effs), 4),
        "min_pair_efficiency": min(effs),
        "pairs_retried_dirty_window": n_retried,
        "pair_efficiencies": effs,
        "pairs": pairs,
    }


def _soak_corpus(n_docs: int) -> tuple[str, str]:
    """The flat ``(doc_id, text)`` dedup corpus, and an sf directory whose
    ``documents.parquet`` widens it to the catalogue's document schema."""
    import pyarrow.compute as pc

    from tesseract_wasm_ray.fixtures import generate_text_corpus

    path = generate_text_corpus(os.path.join(FIXTURE_ROOT, f"text{n_docs}"), n_docs)
    sf_dir = os.path.join(FIXTURE_ROOT, f"soaksf{n_docs}")
    if not os.path.exists(os.path.join(sf_dir, "_done")):

        def widen(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "text": b.column("text"),
                    "lang": pa.array(["en"] * b.num_rows),
                    "source": pa.array(["soak"] * b.num_rows),
                    "n_chars": pc.cast(pc.utf8_length(b.column("text")), pa.int64()),
                }
            )

        docs_dir = os.path.join(sf_dir, "documents.parquet")
        os.makedirs(docs_dir, exist_ok=True)
        rd.read_parquet(path).map_batches(widen, batch_format="pyarrow").write_parquet(docs_dir)
        with open(os.path.join(sf_dir, "_done"), "w") as f:
            f.write("ok")
    return path, sf_dir


def run_soak() -> dict:
    from tesseract_wasm_ray.catalog.trainprep import q_token_stream_pack
    from tesseract_wasm_ray.pipelines.dedup import (
        exact_dedup,
        exact_substring_dedup,
        minhash_lsh_dedup,
        ngram_jaccard_dedup,
    )
    from tesseract_wasm_ray.pipelines.extract import validate_against_golden

    n_docs = int(os.environ.get("TWR_SOAK_DOCS", "500000"))
    num_cpus = len(os.sched_getaffinity(0))
    _init_ray(num_cpus)
    paths = _corpus(n_docs)
    text, sf_dir = _soak_corpus(n_docs)

    store_total = float(ray.cluster_resources().get("object_store_memory", 0))
    peak = 0.0
    stop = threading.Event()

    def sample() -> None:
        nonlocal peak
        while not stop.is_set():
            avail = float(ray.available_resources().get("object_store_memory", store_total))
            peak = max(peak, store_total - avail)
            stop.wait(0.25)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()

    steps: dict = {}
    # One extraction: validation consumes the lazy result, so the wall
    # covers extract and golden comparison together.
    t0 = time.monotonic()
    result = run_extract(paths["documents"], paths["media"], _config(num_cpus))
    counts = validate_against_golden(result, paths["golden_spans"])
    wall = time.monotonic() - t0
    steps["flagship_validate"] = {
        **counts,
        "wall_sec": round(wall, 1),
        "docs_per_sec": round(n_docs / wall, 1),
    }
    _log(f"soak flagship_validate: {steps['flagship_validate']}")

    heavy = [
        ("exact_dedup", lambda: exact_dedup(rd.read_parquet(text))),
        ("minhash_lsh_dedup", lambda: minhash_lsh_dedup(rd.read_parquet(text), threshold=0.7)),
        ("ngram_jaccard_dedup", lambda: ngram_jaccard_dedup(rd.read_parquet(text), threshold=0.7)),
        ("exact_substring_dedup", lambda: exact_substring_dedup(rd.read_parquet(text))),
        ("token_stream_pack", lambda: q_token_stream_pack(sf_dir)),
    ]
    for name, fn in heavy:
        t0 = time.monotonic()
        n = fn().count()
        dt = time.monotonic() - t0
        steps[name] = {"sec": round(dt, 2), "rows_out": n, "rows_per_sec": round(n_docs / dt, 1)}
        _log(f"soak {name}: {steps[name]}")

    stop.set()
    sampler.join(timeout=2)

    # Spilling is allowed; it has to be the object store spilling, not
    # the driver growing.
    sess = ray._private.worker.global_worker.node.get_session_dir_path()
    spilled = glob.glob(os.path.join(sess, "**", "ray_spilled_objects*"), recursive=True)
    spilled += glob.glob(os.path.join(sess, "object_spilling", "*"))
    spill_lines = 0
    for lf in glob.glob(os.path.join(sess, "logs", "raylet*")):
        with open(lf, errors="ignore") as fh:
            spill_lines += sum(1 for line in fh if "Spilled" in line)
    ray.shutdown()
    with open("/proc/self/status") as fh:
        vm_hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM"))
    return {
        "metric": f"{n_docs}-doc soak: flagship + 5 heavy shapes, store watermark",
        "num_cpus": num_cpus,
        "n_docs": n_docs,
        "peak_object_store_bytes": int(peak),
        "object_store_total_bytes": int(store_total),
        "peak_store_fraction": round(peak / max(store_total, 1), 4),
        "spill_bytes_on_disk": sum(os.path.getsize(f) for f in spilled),
        "raylet_spill_log_lines": spill_lines,
        "driver_peak_rss_mb": round(vm_hwm_kb / 1024, 1),
        "steps": steps,
    }


def main() -> int:
    runs = {"scaling": run_scaling, "soak": run_soak}
    if len(sys.argv) != 2 or sys.argv[1] not in runs:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(runs[sys.argv[1]]()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
