#!/usr/bin/env python
"""Benchmark runner (driver contract).

Default: runs the headline interleaved-extraction pipeline plus a
representative query set over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) with ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and prints ONE JSON line::

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N,
     "docs_per_sec": ..., "words_per_sec": ...}

``--scaling``: the sandbox stand-in for the N vs 4N node criterion —
runs the headline pipeline in FRESH subprocesses as
``TWR_SCALING_PAIRS`` (default 6) back-to-back lo/hi CPU pairs
(default 2 and 8 cpus, see run_scaling for why not 8/32 on this SMT
host), computes per-pair efficiency = (docs/s hi / docs/s lo) / (hi/lo)
inside one host window with a per-pair CPU-spin health reading (a
sub-0.9 reading triggers ONE declared re-run of that pair), and
reports the MEDIAN and MIN pair efficiency plus every pair.

Synthetic-corpus generation is cached under /tmp/twr_fixtures and runs
BEFORE timing starts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

# Queries timed in the default (non-scaling) run.  Extraction-family
# queries run over the synthetic corpus; the rest over $GRAFT_SF_DIR
# parquet tables.
BENCH_QUERIES = [
    "tpch_q1",
    "events_by_type",
    "events_hourly",
    "mktsegment_orders",
    "doc_quality",
    "langid",
    "exact_dedup",
    "minhash_dedup",
    "simhash_dedup",
    "ngram_jaccard_dedup",
    "embedding_neardup",
    "emb_topk_cosine",
    "knn_self_join",
    "boilerplate_strip",
    "ocr_text",
    # round-3 relational/text additions (appended so the first 15 stay
    # comparable with BENCH_r01/r02)
    "events_asof_order",
    "top_terms_per_lang",
    "tfidf_doc_scores",
    # round-3 training-prep additions
    "repetition_stats",
    "sequence_pack",
    "lm_perplexity",
    "decontaminate",
    "global_rank",
    "heavy_hitters",
    "curate",
    "media_decode",
    # round-3 retrieval additions
    "text_search",
    "emb_topk_q8",
    # round-3 session-3 additions
    "text_search_bm25",
    "approx_distinct_users",
    "kmeans_clusters",
    "semdedup",
    "mixture_sample",
    "knn_self_join_cells",
    # round-3 session-4 additions
    "dup_ngram_frac",
    "chunk_dedup",
    "bpe_pairs",
    "tpch_q5",
    "quality_zscore",
    "video_frames",
    "incremental_dedup",
    "exact_substring_dedup",
    # round-4 curation additions
    "dedup_keep_best",
    "token_pmi",
    "skipgram_cooc",
    "lang_len_quantiles",
    "tpch_q3",
    "tpch_q6",
    "event_funnel",
    "cohort_retention",
    "incremental_neardup",
    # round-4 session-5 additions
    "tpch_q4",
    "tpch_q10",
    "tpch_q12",
    "tpch_q14",
    "tpch_q18",
    "tpch_q19",
    "running_revenue",
    "audio_features",
    "event_transitions",
    "stratified_sample",
    "bpe_train",
    "idle_customers",
    "lang_source_rollup",
    "emb_gram_q8",
    "pdf_text",
    "bpe_vocab",
    "tpch_q7",
    "tpch_q8",
    "event_props_stats",
    # round-4 session-6 additions
    "tpch_q13",
    "tpch_q17",
    "tpch_q22",
    "tpch_q2",
    "tpch_q9",
    "tpch_q15",
    "tpch_q11",
    "tpch_q16",
    # round-4 session-7 additions
    "pagerank",
    "graph_triangles",
    "graph_components",
    "customer_ntile",
    "snapshot_diff",
    "ocr_spell_candidates",
    "phash_dedup",
    "lang_regression",
    "event_interarrival",
    "source_lang_pivot",
    "token_stream_pack",
    "gopher_filter",
    "monthly_revenue_delta",
    # round-4 session-8 additions
    "tpch_q20",
    "tpch_q21",
    "classifier_score",
    "corr_matrix",
    "mad_outliers",
    "temperature_mixture",
    "event_log_dedup",
    "normalized_dedup",
    "image_knn",
    "curate_v2",
    "dedup_cluster_sizes",
    "lang_percent_rank",
    "cms_term_counts",
    "lang_trimmed_mean",
    "source_diversity",
    # round-5 additions (the md5-routing family, benched so the
    # fastmd5 kernel effect is visible round-over-round)
    "sample_docs",
    "dataset_split",
    "domain_cap",
    "doc_fingerprint",
    "events_sliding_1h",
    "dsir_select",
    "click_attribution",
    "source_drift",
    "events_sliding_sum_1h",
]


def _init_ray(num_cpus: int) -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    from tesseract_wasm_ray.tuning import apply_data_context_tuning

    apply_data_context_tuning()


def _consume(res) -> int:
    """Force execution; return row count."""
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.count()
    return len(res)


def headline(sf_dir: str, num_cpus: int, n_docs: int | None = None) -> dict:
    """Flagship extraction end-to-end: docs/sec + recognized words/sec.

    The result stream is consumed by a per-batch counting stage (docs,
    spans, recognized words) — nothing materializes on the driver."""
    import pyarrow as pa

    from tesseract_wasm_ray.pipelines.extract import ExtractConfig, run_extract
    from tesseract_wasm_ray.pipelines.queries import corpus_for

    paths = corpus_for(sf_dir, n_docs=n_docs)  # cached; built before timing
    # CPU budget: at most ocr_pool's concurrency OCR tasks run at once
    # and together they claim at most cpus-1, so the feeding map tasks
    # keep a whole CPU.
    # OCR batch size scales with corpus size: per-task driver scheduling
    # is a SERIAL cost (measured as the F in F + C/n across CPU levels —
    # it grew 8.5s -> 17s when the corpus went 80k -> 240k docs at fixed
    # batch 256), so large corpora use fewer, bigger batches.  ~1.5 s of
    # recognition per 1024-page batch still gives every OCR task slot
    # dozens of batches at the scaling corpus sizes.
    batch = 256 if (n_docs or 5000) < 100_000 else 1024
    cfg = ExtractConfig(
        ocr_batch_size=batch,
        num_buckets=max(32, num_cpus * 2),
        join_partitions=max(8, num_cpus // 2),
        coalesce_partitions=max(8, num_cpus // 2),
    )
    t0 = time.monotonic()
    result = run_extract(paths["documents"], paths["media"], cfg)

    def counts(b: pa.Table) -> pa.Table:
        # Arrow-kernel counting: the old per-row Python loop cost 35
        # CPU-seconds on the 240k-doc corpus and ran as a 4-8-task
        # serial tail AFTER the stitch shuffle barrier — a pure Amdahl
        # penalty at high CPU counts (measured: ~10s of the 8-cpu wall).
        # NB utf8_split_whitespace emits empty tokens for leading /
        # trailing whitespace (unlike str.split), hence the "" filter.
        import pyarrow.compute as pc

        spans = b.column("spans").combine_chunks()
        n_spans = int(pc.sum(pc.list_value_length(spans)).as_py() or 0)
        flat = pc.list_flatten(spans)
        media_rows = flat.filter(pc.equal(pc.struct_field(flat, "kind"), "media_ref"))
        toks = pc.list_flatten(
            pc.utf8_split_whitespace(pc.fill_null(pc.struct_field(media_rows, "text"), ""))
        )
        n_words = int(pc.sum(pc.cast(pc.not_equal(toks, ""), pa.int64())).as_py() or 0)
        return pa.Table.from_pylist(
            [{"docs": b.num_rows, "spans": n_spans, "words": n_words}]
        )

    import pandas as pd

    totals = result.map_batches(counts, batch_format="pyarrow").to_pandas().sum()
    wall = time.monotonic() - t0
    return {
        "wall_sec": round(wall, 3),
        "docs": int(totals["docs"]),
        "spans": int(totals["spans"]),
        "words": int(totals["words"]),
        "docs_per_sec": round(float(totals["docs"]) / wall, 2),
        "words_per_sec": round(float(totals["words"]) / wall, 2),
    }


def _spin_mips(secs: float = 1.0) -> float:
    """Single-process spin throughput (M iterations/s) — an ABSOLUTE
    host-speed calibration.  The shared sandbox host has noisy phases
    where identical code runs 3-6x slower (measured 2026-08-17:
    headline 8.5s vs 37.0s within minutes); recording the calibration
    inside the artifact lets a reader normalize a noisy-window run
    instead of reading it as a code regression."""
    end = time.monotonic() + secs
    n = 0
    while time.monotonic() < end:
        for _ in range(100_000):
            n += 1
    return round(n / secs / 1e6, 1)


def _loadavg() -> float:
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except OSError:
        return -1.0


def _spin_worker(_i) -> int:
    end = time.monotonic() + 1.0
    n = 0
    while time.monotonic() < end:
        for _ in range(100_000):
            n += 1
    return n


def _parallel_mips(nproc: int = 32) -> float:
    """Aggregate spin throughput of ``nproc`` concurrent processes
    (M iters/s).  THE host-noise signal that matters for a 32-cpu
    bench: a single-process spin still gets one full core when
    co-tenants steal the rest, so only the parallel aggregate exposes
    a phase where fewer core-equivalents are actually available
    (healthy on this 16-physical-core host: ~0.7 x nproc x single)."""
    import multiprocessing as mp

    with mp.Pool(nproc) as p:
        return round(sum(p.map(_spin_worker, range(nproc))) / 1e6, 1)


# Healthy-window parallel-spin capacity of this host (M iters/s across
# 32 procs), from the r03 driver artifact's quiet phase — the
# denominator for queries_normalized.  Normalized walls answer "what
# would this query have cost in a healthy window", so cross-round
# comparisons stop needing a prose host-noise postmortem.
REF_PARALLEL_MIPS = 743.0


def run_default(
    sf_dir: str, num_cpus: int, headline_only: bool = False, n_docs: int | None = None
) -> dict:
    _init_ray(num_cpus)
    from tesseract_wasm_ray.pipelines.queries import QUERIES, sf_of

    load0, mips0 = _loadavg(), _spin_mips()
    pmips0 = _parallel_mips(num_cpus)
    head = headline(sf_dir, num_cpus, n_docs=n_docs)
    qtimes: dict[str, float] = {}
    qmid: dict[str, float] = {}  # per-query midpoint (monotonic secs)
    anchors: list[tuple[float, float]] = []  # (monotonic secs, parallel mips)
    if not headline_only:
        # Fresh session for the query sweep: the headline streams ~GBs
        # of page pixels through the object store, and leftover
        # references / spill state degrade later shuffle-heavy queries
        # by >10x (measured: mktsegment_orders 5s isolated vs 123s in
        # the polluted session).  One restart + a warmup op so worker
        # cold-start stays OUTSIDE the timed loop (a per-query restart
        # was tried and puts ~4s of worker spawn inside every
        # measurement).
        import gc

        import ray
        import ray.data as rd

        ray.shutdown()
        gc.collect()
        _init_ray(num_cpus)
        rd.range(num_cpus * 4, override_num_blocks=num_cpus).map_batches(
            lambda b: b
        ).count()  # spawn the worker pool before timing
        anchors.append((time.monotonic(), _parallel_mips(num_cpus)))
        half = len(BENCH_QUERIES) // 2
        for qi, name in enumerate(BENCH_QUERIES):
            fn = QUERIES[name]
            gc.collect()
            t0 = time.monotonic()
            n = _consume(fn(sf_dir))
            t1 = time.monotonic()
            qtimes[name] = round(t1 - t0, 3)
            qmid[name] = (t0 + t1) / 2
            print(f"[bench] {name}: {qtimes[name]}s ({n} rows)", file=sys.stderr)
            if qi == half:  # mid-sweep capacity anchor
                anchors.append((time.monotonic(), _parallel_mips(num_cpus)))
        anchors.append((time.monotonic(), _parallel_mips(num_cpus)))

    queries_normalized: dict[str, float] = {}
    if qtimes and anchors:
        import numpy as _np

        ts = _np.array([a[0] for a in anchors])
        caps = _np.array([a[1] for a in anchors])
        for name, wall in qtimes.items():
            cap_t = float(_np.interp(qmid[name], ts, caps))
            # wall x (capacity / healthy-reference): what the query
            # would have cost in a quiet window (cap < ref => scale
            # the noisy wall DOWN)
            queries_normalized[name] = round(wall * cap_t / REF_PARALLEL_MIPS, 3)

    out = {
        "metric": "end-to-end extraction throughput (docs/sec + words/sec) "
        "+ per-query wall times",
        "value": head["wall_sec"],
        "unit": "sec",
        "queries": qtimes,
        "sf": float(sf_of(sf_dir)),
        "num_cpus": num_cpus,
        **head,
        # host-state attribution (see _spin_mips): compare across runs
        # — a low spin_mips / high loadavg marks a noisy-host window
        "host_loadavg_start": load0,
        "host_loadavg_end": _loadavg(),
        "host_spin_mips_start": mips0,
        "host_spin_mips_end": _spin_mips(),
        "host_parallel_mips_start": pmips0,
        "host_parallel_mips_end": _parallel_mips(num_cpus),
        # per-query walls divided into healthy-window equivalents via
        # interpolated capacity anchors (VERDICT r03 item 9)
        "queries_normalized": queries_normalized,
        "normalization_ref_parallel_mips": REF_PARALLEL_MIPS,
        "normalization_anchors_mips": [a[1] for a in anchors],
    }
    return out


def run_scaling(sf_dir: str, cpus_lo: int | None = None, cpus_hi: int | None = None) -> dict:
    """Same headline job, two fresh processes at N and 4N CPUs.

    Defaults to 2 -> 8 CPUs (override with TWR_SCALING_CPUS="lo,hi"):
    this host exposes 32 logical CPUs over 16 physical cores, and a pure
    CPU spin microbenchmark scales 8->32 by only 3.0x (SMT), capping any
    8->32 efficiency at 0.75 regardless of the pipeline; 2->8 sits in
    the physically linear range (~4x spin scaling) so the measurement
    reflects pipeline scaling, not hyperthreading.  The shared host has
    multi-minute noisy-neighbor phases, so runs are organised as
    interleaved back-to-back lo/hi PAIRS with the median pair reported
    — see the comment at the pair loop below.

    Uses a compute-dominant corpus size (TWR_SCALING_DOCS, default
    240000 docs) so fixed per-run overheads (actor-pool startup, stage
    barriers, read metadata — ~8.5 s regardless of CPU count, measured
    by F + C/n regression over the two levels) don't mask the compute
    scaling being measured: at real scale each node processes hours of
    work, so per-run fixed cost is noise there.  The default was 80k in
    round 1; the round-2 kernel is ~60% faster per page, which pushed
    the fixed-cost fraction at 8 cpus to ~25% and capped the measurable
    efficiency at 0.75 even for a perfectly scaling pipeline."""
    if cpus_lo is None or cpus_hi is None:
        lo_hi = os.environ.get("TWR_SCALING_CPUS", "2,8").split(",")
        cpus_lo, cpus_hi = int(lo_hi[0]), int(lo_hi[1])
    n_pairs = int(os.environ.get("TWR_SCALING_PAIRS", "6"))
    n_docs = int(os.environ.get("TWR_SCALING_DOCS", "240000"))
    # Pre-generate the corpus once so neither timed process pays for it.
    _init_ray(32)
    from tesseract_wasm_ray.pipelines.queries import corpus_for

    corpus_for(sf_dir, n_docs=n_docs)
    import ray

    ray.shutdown()
    # Warm the OS page cache over the corpus once: the sandbox has ONE
    # shared ~120 MB/s disk, a constant that would dominate both runs
    # equally (a real cluster scales I/O bandwidth with nodes).  Both
    # timed runs then measure compute scaling, which is the criterion.
    import glob

    from tesseract_wasm_ray.pipelines.queries import FIXTURE_ROOT

    for f in glob.glob(os.path.join(FIXTURE_ROOT, f"n{n_docs}", "*", "*.parquet")):
        with open(f, "rb") as fh:
            while fh.read(1 << 24):
                pass

    def run_one(n: int) -> dict:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--cpus",
            str(n),
            "--sf-dir",
            sf_dir,
            "--headline-only",
            "--n-docs",
            str(n_docs),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    # INTERLEAVED lo/hi pairs, median-of-N (N declared up front via
    # TWR_SCALING_PAIRS, default 4).  Round 2 ran all lo attempts then
    # all hi attempts with one post-hoc spin check; a noisy host phase
    # overlapping only the hi window then skews the single quotient and
    # the end-of-run health check cannot see it (observed: hi 89s vs
    # 61s across samples with health 0.98 both times).  Back-to-back
    # pairs keep each quotient inside one host window, every pair gets
    # its OWN spin-health reading taken immediately after it, and the
    # median over pairs drops outlier windows by construction.
    # Retry rule, DECLARED UP FRONT (r04 verdict item 7): a pair whose
    # post-pair spin-health reading is below 0.9 ran inside a dirty
    # host window and is re-run AT MOST ONCE; the re-run replaces it
    # regardless of which efficiency is higher.  The trigger is the
    # independent hardware health probe, never the efficiency itself —
    # so the rule cannot cherry-pick results.
    def run_pair(i: int) -> dict:
        print(f"[scaling] pair {i + 1}/{n_pairs}: lo={cpus_lo} cpus ...", file=sys.stderr)
        lo = run_one(cpus_lo)
        print(f"[scaling] pair {i + 1}/{n_pairs}: hi={cpus_hi} cpus ...", file=sys.stderr)
        hi = run_one(cpus_hi)
        spin = _spin_scale(cpus_lo, cpus_hi)
        eff = (hi["docs_per_sec"] / lo["docs_per_sec"]) / (cpus_hi / cpus_lo)
        return {
            "efficiency": round(eff, 4),
            "docs_per_sec_lo": lo["docs_per_sec"],
            "docs_per_sec_hi": hi["docs_per_sec"],
            "wall_sec_lo": lo["wall_sec"],
            "wall_sec_hi": hi["wall_sec"],
            "host_spin_health": spin,
            "clean": spin >= 0.9,
        }

    pairs = []
    n_retried = 0
    for i in range(n_pairs):
        p = run_pair(i)
        if not p["clean"]:
            print(
                f"[scaling] pair {i + 1}: spin_health={p['host_spin_health']} < 0.9 "
                "(dirty host window) — one declared re-run",
                file=sys.stderr,
            )
            p = run_pair(i)
            p["retried"] = True
            n_retried += 1
        pairs.append(p)
        print(
            f"[scaling] pair {i + 1}: eff={p['efficiency']:.4f} "
            f"spin_health={p['host_spin_health']}",
            file=sys.stderr,
        )

    effs = sorted(p["efficiency"] for p in pairs)
    median = effs[len(effs) // 2] if len(effs) % 2 else round(
        (effs[len(effs) // 2 - 1] + effs[len(effs) // 2]) / 2, 4
    )
    best_lo = max(pairs, key=lambda p: p["docs_per_sec_lo"])
    best_hi = max(pairs, key=lambda p: p["docs_per_sec_hi"])
    from tesseract_wasm_ray.pipelines.queries import sf_of

    return {
        "metric": f"scaling efficiency {cpus_lo}->{cpus_hi} cpus, "
        f"median of {n_pairs} interleaved pairs (sandbox stand-in for N->4N nodes)",
        "value": median,
        "unit": "efficiency",
        "queries": {},
        "sf": float(sf_of(sf_dir)),
        "num_cpus": cpus_hi,
        "scaling_efficiency": median,
        "min_pair_efficiency": effs[0],
        "pairs_retried_dirty_window": n_retried,
        "pair_efficiencies": [p["efficiency"] for p in pairs],
        "pairs": pairs,
        "docs_per_sec_lo": best_lo["docs_per_sec_lo"],
        "docs_per_sec_hi": best_hi["docs_per_sec_hi"],
        "n_docs": n_docs,
    }


def _spin_scale(cpus_lo: int, cpus_hi: int, secs: float = 2.0) -> float:
    """Aggregate spin-loop throughput at hi vs lo process counts,
    normalized by the ideal ratio (1.0 = linear hardware)."""
    import multiprocessing as mp

    def spin(q):
        end = time.monotonic() + secs
        n = 0
        while time.monotonic() < end:
            for _ in range(100_000):
                n += 1
        q.put(n)

    def total(k: int) -> int:
        q: mp.Queue = mp.Queue()
        ps = [mp.Process(target=spin, args=(q,)) for _ in range(k)]
        for p in ps:
            p.start()
        tot = sum(q.get() for _ in ps)
        for p in ps:
            p.join()
        return tot

    return round((total(cpus_hi) / max(total(cpus_lo), 1)) / (cpus_hi / cpus_lo), 3)


def run_dedup_scale(num_cpus: int, n_rows: int | None = None) -> dict:
    """Dedup throughput on a 200k-row flat text corpus with ~5% planted
    exact and ~5% near duplicates (fixtures.generate_text_corpus)."""
    n_rows = n_rows or int(os.environ.get("TWR_DEDUP_ROWS", "200000"))
    _init_ray(num_cpus)
    import ray.data as rd

    from tesseract_wasm_ray.fixtures import generate_text_corpus
    from tesseract_wasm_ray.pipelines.dedup import (
        exact_dedup,
        minhash_lsh_dedup,
        simhash_dedup,
    )

    path = generate_text_corpus(
        os.path.join("/tmp/twr_fixtures", f"text{n_rows}"), n_rows
    )
    out: dict = {}
    for name, fn in (
        ("exact_dedup", lambda ds: exact_dedup(ds)),
        ("minhash_lsh_dedup", lambda ds: minhash_lsh_dedup(ds, threshold=0.7)),
        ("simhash_dedup", lambda ds: simhash_dedup(ds, max_hamming=3)),
    ):
        ds = rd.read_parquet(path)
        t0 = time.monotonic()
        kept = fn(ds).count()
        dt = time.monotonic() - t0
        out[name] = {
            "sec": round(dt, 2),
            "rows_in": n_rows,
            "rows_kept": kept,
            "rows_per_sec": round(n_rows / dt, 1),
        }
        print(f"[dedup-scale] {name}: {out[name]}", file=sys.stderr)
    return {
        "metric": f"dedup throughput on {n_rows}-row corpus (planted dups)",
        "value": out["minhash_lsh_dedup"]["rows_per_sec"],
        "unit": "rows/sec",
        "queries": {k: v["sec"] for k, v in out.items()},
        "sf": 0.1,
        "num_cpus": num_cpus,
        **{f"{k}_kept": v["rows_kept"] for k, v in out.items()},
    }


def run_trainprep_scale(num_cpus: int, n_rows: int | None = None) -> dict:
    """Training-prep dedup suite at 200k rows (the dedup-scale corpus:
    flat (doc_id, text) with ~5% planted exact + ~5% near copies):
    cross-doc duplicated-ngram stats, chunk-level dedup + reassembly,
    and incremental cross-snapshot dedup (snapshot = doc_id %% 7 == 0
    slice; the planted copies that cross the slice boundary are the
    real removal work)."""
    n_rows = n_rows or int(os.environ.get("TWR_DEDUP_ROWS", "200000"))
    _init_ray(num_cpus)
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from tesseract_wasm_ray.fixtures import generate_text_corpus
    from tesseract_wasm_ray.pipelines.dedup import (
        chunk_dedup_docs,
        dup_ngram_stats,
        exact_substring_dedup,
        incremental_exact_dedup,
    )

    path = generate_text_corpus(
        os.path.join("/tmp/twr_fixtures", f"text{n_rows}"), n_rows
    )

    def snap(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 7 == 0))

    def fresh(b: pa.Table) -> pa.Table:
        ids = pc.cast(b.column("doc_id"), pa.int64()).to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 7 != 0))

    out: dict = {}
    jobs = (
        ("dup_ngram_stats", lambda: dup_ngram_stats(rd.read_parquet(path), n=5)),
        ("chunk_dedup_docs", lambda: chunk_dedup_docs(rd.read_parquet(path), chunk_size=16)),
        (
            "incremental_exact_dedup",
            lambda: incremental_exact_dedup(
                rd.read_parquet(path).map_batches(fresh, batch_format="pyarrow"),
                rd.read_parquet(path).map_batches(snap, batch_format="pyarrow"),
            ),
        ),
        (
            "exact_substring_dedup",
            lambda: exact_substring_dedup(rd.read_parquet(path), n=5),
        ),
    )
    for name, fn in jobs:
        t0 = time.monotonic()
        n_out = fn().count()
        dt = time.monotonic() - t0
        out[name] = {
            "sec": round(dt, 2),
            "rows_in": n_rows,
            "rows_out": n_out,
            "rows_per_sec": round(n_rows / dt, 1),
        }
        print(f"[trainprep-scale] {name}: {out[name]}", file=sys.stderr)
    return {
        "metric": f"training-prep dedup suite on {n_rows}-row corpus",
        "value": out["dup_ngram_stats"]["rows_per_sec"],
        "unit": "rows/sec",
        "queries": {k: v["sec"] for k, v in out.items()},
        "sf": 0.1,
        "num_cpus": num_cpus,
        **{f"{k}_out": v["rows_out"] for k, v in out.items()},
    }


def run_knn_scale(num_cpus: int, n_rows: int | None = None, k: int = 10) -> dict:
    """Distributed k-NN self-join at a scale the broadcast path refuses
    (VERDICT r2 item 1 done-criterion): 200k x 64-dim embeddings through
    ``knn_self_join_cells`` — IVF cell co-partitioning, NO broadcast
    index, NO driver materialization — plus recall measured against an
    exact numpy brute-force answer on a 1k-query sample."""
    n_rows = n_rows or int(os.environ.get("TWR_KNN_ROWS", "200000"))
    _init_ray(num_cpus)
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from tesseract_wasm_ray.pipelines.similarity import knn_self_join

    dim = 64
    path = os.path.join("/tmp/twr_fixtures", f"knn{n_rows}.parquet")
    if not os.path.exists(path):
        rng = np.random.default_rng(11)
        # 32 soft clusters so IVF cells are meaningful (uniform noise
        # would make every cell equidistant and flatter recall).
        centers = rng.normal(size=(32, dim))
        lab = rng.integers(0, 32, n_rows)
        emb = (centers[lab] + 0.6 * rng.normal(size=(n_rows, dim))).astype(np.float32)
        pq.write_table(
            pa.table(
                {
                    "vec_id": pa.array(np.arange(n_rows), pa.int64()),
                    "embedding": pa.array(list(emb), pa.list_(pa.float32())),
                }
            ),
            path,
        )
    ds = rd.read_parquet(path)
    nprobe, n_centroids = 16, 128

    # exact brute force on a deterministic 1k-row sample (recall truth)
    t = pq.read_table(path)
    ids = t.column("vec_id").to_numpy(zero_copy_only=False)
    mat = np.stack(t.column("embedding").to_numpy(zero_copy_only=False)).astype(
        np.float64
    )
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    sample = ids[:: max(1, n_rows // 1000)][:1000]
    sims = mat[sample] @ mat.T
    sims[np.arange(len(sample)), sample] = -np.inf  # exclude self
    exact = np.argpartition(-sims, k, axis=1)[:, :k]

    def one_run(payload: str) -> tuple[float, int, float]:
        t0 = time.monotonic()
        res = knn_self_join(
            ds, k=k, strategy="cells", n_centroids=n_centroids, nprobe=nprobe,
            num_partitions=max(16, num_cpus), payload=payload,
        ).to_pandas()
        dt = time.monotonic() - t0
        got = res.groupby("vec_id")["neighbor_id"].apply(set)
        hits = tot = 0
        for qi, row in zip(sample, exact):
            hits += len(got.get(qi, set()) & set(ids[row]))
            tot += k
        return dt, len(res), hits / tot

    # per-replica cell-shuffle payload bytes (vector column only; id /
    # cell / side overhead is identical across modes).  r03 shipped
    # (nprobe+1) float64 replicas; r4 ships nprobe replicas of the
    # chosen payload (f32 raw = exact, q8 = 1B/dim + 8B scale approx).
    bytes_r03 = n_rows * (nprobe + 1) * dim * 8
    payload_bytes = {
        "f32": n_rows * nprobe * dim * 4,
        "q8": n_rows * nprobe * (dim + 8),
    }
    # TWR_KNN_PAYLOADS selects which payload modes run (comma list) —
    # one 200k run can exceed a CI window on a loaded host, so the two
    # modes can be measured in separate processes and merged.
    modes = os.environ.get("TWR_KNN_PAYLOADS", "f32,q8").split(",")
    runs = {m: one_run(m) for m in modes}
    dt32, n_out, recall32 = runs.get("f32", next(iter(runs.values())))
    out = {
        "metric": f"distributed knn_self_join_cells on {n_rows}x{dim} embeddings",
        "value": round(n_rows / dt32, 1),
        "unit": "rows/sec",
        "queries": {f"knn_cells_{m}": round(r[0], 2) for m, r in runs.items()},
        "sf": 0.1,
        "num_cpus": num_cpus,
        "k": k,
        "rows": n_rows,
        "pairs_out": n_out,
        "wall_sec": round(dt32, 2),
        "recall_at_k_vs_bruteforce": round(recall32, 4),
        **{f"recall_at_k_{m}": round(r[2], 4) for m, r in runs.items()},
        "nprobe": nprobe,
        "n_centroids": n_centroids,
        "shuffle_vec_bytes_r03_f64": bytes_r03,
        "shuffle_vec_bytes_f32": payload_bytes["f32"],
        "shuffle_vec_bytes_q8": payload_bytes["q8"],
        "shuffle_reduction_f32": round(bytes_r03 / payload_bytes["f32"], 2),
        "shuffle_reduction_q8": round(bytes_r03 / payload_bytes["q8"], 2),
    }
    print(f"[knn-scale] {out}", file=sys.stderr)
    return out


def run_image_knn_scale(num_cpus: int, n_docs: int | None = None) -> dict:
    """image_knn at corpus scale (VERDICT r04 item 1 done-criterion):
    ~293k media pages (the 240k-doc fixture), md5-routed ~1/8 query
    set (~36k queries), distributed bucketed fold — the run that the
    old driver-side pandas fold could not have survived growing 1000x.
    Reports wall, rows, and the peak object-store watermark."""
    import threading

    n_docs = n_docs or int(os.environ.get("TWR_IMAGE_KNN_DOCS", "240000"))
    _init_ray(num_cpus)
    import ray

    from tesseract_wasm_ray.pipelines.queries import corpus_for, q_image_knn

    corpus_for("/root/testdata/sf0.1", n_docs=n_docs)  # cached; pre-timing
    store_total = float(ray.cluster_resources().get("object_store_memory", 0))
    peak = {"used": 0.0}
    stop = threading.Event()

    def sample():
        while not stop.is_set():
            avail = float(
                ray.available_resources().get("object_store_memory", store_total)
            )
            peak["used"] = max(peak["used"], store_total - avail)
            stop.wait(0.25)

    t = threading.Thread(target=sample, daemon=True)
    t.start()
    t0 = time.monotonic()
    n = q_image_knn("/root/testdata/sf0.1", n_docs=n_docs).count()
    wall = time.monotonic() - t0
    stop.set()
    t.join(timeout=2)
    return {
        "metric": f"image_knn over {n_docs}-doc media corpus (distributed fold)",
        "value": round(wall, 2),
        "unit": "sec",
        "queries": {"image_knn": round(wall, 2)},
        "sf": 0.1,
        "num_cpus": num_cpus,
        "n_docs": n_docs,
        "rows_out": n,
        "media_pages_per_sec": round(n_docs * 1.22 / wall, 1),
        "peak_object_store_bytes": int(peak["used"]),
        "peak_store_fraction": round(peak["used"] / max(store_total, 1), 4),
    }


def run_soak(num_cpus: int, n_docs: int | None = None) -> dict:
    """Memory-bounded 10x soak (VERDICT r04 item 2): the flagship
    extraction at ``TWR_SOAK_DOCS`` (default 500k) docs plus the five
    heaviest catalogue shapes on a 500k-row text corpus, with the
    object store sampled throughout.  The 100-TB claim rests on
    streaming execution; this run evidences it: done = peak store
    < 25% of the sandbox store, zero driver OOM, span equality
    n/n, spill accounting reported (spilling is ALLOWED — that's the
    design — it just has to be the object store spilling, not the
    driver growing)."""
    import glob
    import threading

    n_docs = n_docs or int(os.environ.get("TWR_SOAK_DOCS", "500000"))
    _init_ray(num_cpus)
    import ray
    import ray.data as rd

    # --- object-store sampler (peak-usage watermark) ---------------
    store_total = float(ray.cluster_resources().get("object_store_memory", 0))
    peak = {"used": 0.0}
    stop = threading.Event()

    def sample():
        while not stop.is_set():
            avail = float(
                ray.available_resources().get("object_store_memory", store_total)
            )
            peak["used"] = max(peak["used"], store_total - avail)
            stop.wait(0.25)

    t = threading.Thread(target=sample, daemon=True)
    t.start()

    out: dict = {}
    # --- 1. flagship extract + span-equality validate at n_docs ----
    # ONE extraction execution: validate consumes the lazy result, so
    # the timed wall covers extract + golden comparison end-to-end.
    from tesseract_wasm_ray.pipelines.extract import (
        ExtractConfig,
        run_extract,
        validate_against_golden,
    )
    from tesseract_wasm_ray.pipelines.queries import corpus_for

    paths = corpus_for("/root/testdata/sf0.1", n_docs=n_docs)
    cfg = ExtractConfig(
        ocr_batch_size=1024,
        num_buckets=max(32, num_cpus * 2),
        join_partitions=max(8, num_cpus // 2),
        coalesce_partitions=max(8, num_cpus // 2),
    )
    t0 = time.monotonic()
    result = run_extract(paths["documents"], paths["media"], cfg)
    counts = validate_against_golden(result, paths["golden_spans"])
    wall = time.monotonic() - t0
    out["flagship_validate"] = {
        **counts,
        "wall_sec": round(wall, 1),
        "docs_per_sec": round(n_docs / wall, 1),
    }
    print(f"[soak] flagship+validate: {out['flagship_validate']}", file=sys.stderr)

    # --- 2. five heaviest catalogue shapes on a 500k-row corpus ----
    from tesseract_wasm_ray.fixtures import generate_text_corpus
    from tesseract_wasm_ray.pipelines.dedup import (
        exact_dedup,
        exact_substring_dedup,
        minhash_lsh_dedup,
        ngram_jaccard_dedup,
    )

    path = generate_text_corpus(
        os.path.join("/tmp/twr_fixtures", f"text{n_docs}"), n_docs
    )
    # documents.parquet DIRECTORY layout for the q_* catalogue entry
    # (token_stream_pack exercises the new two-level prefix sum + the
    # capped lookup join at 100x the oracle scale)
    soak_sf = os.path.join("/tmp/twr_fixtures", f"soaksf{n_docs}")
    docs_dir = os.path.join(soak_sf, "documents.parquet")
    if not os.path.exists(os.path.join(soak_sf, "_done")):
        os.makedirs(docs_dir, exist_ok=True)

        def widen(b):
            import pyarrow as pa
            import pyarrow.compute as pc

            return pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "text": b.column("text"),
                    "lang": pa.array(["en"] * b.num_rows),
                    "source": pa.array(["soak"] * b.num_rows),
                    "n_chars": pc.cast(
                        pc.utf8_length(b.column("text")), pa.int64()
                    ),
                }
            )

        rd.read_parquet(path).map_batches(widen, batch_format="pyarrow").write_parquet(
            docs_dir
        )
        with open(os.path.join(soak_sf, "_done"), "w") as f:
            f.write("ok")

    from tesseract_wasm_ray.pipelines.queries import q_token_stream_pack

    heavy = [
        ("exact_dedup", lambda: exact_dedup(rd.read_parquet(path)).count()),
        (
            "minhash_lsh_dedup",
            lambda: minhash_lsh_dedup(rd.read_parquet(path), threshold=0.7).count(),
        ),
        (
            "ngram_jaccard_dedup",
            lambda: ngram_jaccard_dedup(rd.read_parquet(path), threshold=0.7).count(),
        ),
        (
            "exact_substring_dedup",
            lambda: exact_substring_dedup(rd.read_parquet(path)).count(),
        ),
        ("token_stream_pack", lambda: q_token_stream_pack(soak_sf).count()),
    ]
    for name, fn in heavy:
        t0 = time.monotonic()
        n = fn()
        dt = time.monotonic() - t0
        out[name] = {
            "sec": round(dt, 2),
            "rows_out": n,
            "rows_per_sec": round(n_docs / dt, 1),
        }
        print(f"[soak] {name}: {out[name]}", file=sys.stderr)

    stop.set()
    t.join(timeout=2)

    # --- spill + driver-memory accounting --------------------------
    sess = ray._private.worker.global_worker.node.get_session_dir_path()
    spill_bytes = sum(
        os.path.getsize(f)
        for f in glob.glob(os.path.join(sess, "**", "ray_spilled_objects*"), recursive=True)
    ) + sum(
        os.path.getsize(f)
        for f in glob.glob(os.path.join(sess, "object_spilling", "*"))
    )
    spill_lines = 0
    for lf in glob.glob(os.path.join(sess, "logs", "raylet*")):
        try:
            with open(lf, errors="ignore") as fh:
                spill_lines += sum(1 for line in fh if "Spilled" in line)
        except OSError:
            pass
    vm_hwm_kb = 0
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM"):
                vm_hwm_kb = int(line.split()[1])
    return {
        "metric": f"{n_docs}-doc soak: flagship + 5 heaviest shapes, store watermark",
        "value": round(peak["used"] / max(store_total, 1), 4),
        "unit": "peak_store_fraction",
        "queries": {k: v.get("sec", v.get("wall_sec")) for k, v in out.items()},
        "sf": 0.1,
        "num_cpus": num_cpus,
        "n_docs": n_docs,
        "peak_object_store_bytes": int(peak["used"]),
        "object_store_total_bytes": int(store_total),
        "peak_store_fraction": round(peak["used"] / max(store_total, 1), 4),
        "spill_bytes_on_disk": int(spill_bytes),
        "raylet_spill_log_lines": spill_lines,
        "driver_peak_rss_mb": round(vm_hwm_kb / 1024, 1),
        "steps": out,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default=os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1"))
    ap.add_argument("--cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--headline-only", action="store_true")
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--n-docs", type=int, default=None)
    ap.add_argument("--dedup-scale", action="store_true")
    ap.add_argument("--knn-scale", action="store_true")
    ap.add_argument("--trainprep-scale", action="store_true")
    ap.add_argument("--soak", action="store_true")
    ap.add_argument("--image-knn-scale", action="store_true")
    args = ap.parse_args()

    if args.soak:
        out = run_soak(args.cpus, n_docs=args.n_docs)
    elif args.image_knn_scale:
        out = run_image_knn_scale(args.cpus, n_docs=args.n_docs)
    elif args.dedup_scale:
        out = run_dedup_scale(args.cpus)
    elif args.trainprep_scale:
        out = run_trainprep_scale(args.cpus)
    elif args.knn_scale:
        out = run_knn_scale(args.cpus)
    elif args.scaling:
        out = run_scaling(args.sf_dir)
    else:
        out = run_default(
            args.sf_dir, args.cpus, headline_only=args.headline_only, n_docs=args.n_docs
        )
    print(json.dumps(out))

    import ray

    if ray.is_initialized():
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
