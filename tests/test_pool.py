"""Pool sizing and compute shape: the OCR stage runs as bounded map
tasks sized by one rule (``extract.ocr_pool``) that always leaves the
feeding tasks a whole CPU, and the media stages run as task pools, so
the flagship and the media queries complete at any session size —
including the 1- and 2-CPU sessions where a pool that claims every CPU
makes no progress."""

import json
import math
import os
import subprocess
import sys

import pytest

from tesseract_wasm_ray.pipelines.extract import ExtractConfig, ocr_batch, ocr_pool

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ocr_pool_claim_leaves_one_cpu():
    for cpus in range(1, 65):
        for asked in (None, 1, 3, 24):
            conc, num_cpus = ocr_pool(asked, cpus=cpus)
            assert conc >= 1 and 0 <= num_cpus <= 1.0
            assert conc * num_cpus <= cpus - 1, (cpus, asked, conc, num_cpus)
            if asked:
                assert conc == asked


def test_ocr_pool_at_four_cpus():
    assert ocr_pool(cpus=4) == (3, 1.0)
    assert ocr_pool(3, cpus=4) == (3, 1.0)
    assert ocr_pool(cpus=1) == (1, 0)
    assert ocr_pool(2, cpus=8) == (2, 1.0)


def test_ocr_batch_is_one_even_wave():
    """The batch splits the media table evenly over the pool (one wave
    of equal tasks), up to the ``ocr_batch_size`` cap."""
    cap = ExtractConfig().ocr_batch_size
    assert ocr_batch(1059, 3, cap) == 353
    assert math.ceil(1059 / ocr_batch(1059, 3, cap)) == 3
    assert ocr_batch(10**7, 3, cap) == cap
    assert ocr_batch(0, 3, cap) == 1


def test_source_reads_release_blocks_unthrottled(small_corpus):
    """Both source reads lift the streaming-generator buffer, so a read
    task hands over its blocks as it splits them instead of two per
    scheduling tick."""
    from tesseract_wasm_ray.sources import read_documents, read_media

    for read, path in ((read_documents, small_corpus["documents"]), (read_media, small_corpus["media"])):
        (op,) = [op for op in _plan(read(path))[0] if op.name.startswith("Read")]
        assert op._ray_remote_args["_generator_backpressure_num_objects"] == -1


def _plan(ds):
    """(logical ops, physical op names) of ``ds``'s plan, without
    executing it.  Reads Ray Data internals (``Dataset._logical_plan``,
    ``op._compute``, ``get_execution_plan``) as laid out in Ray 2.49;
    a Ray upgrade that moves them breaks only this helper."""
    from ray.data._internal.logical.optimizers import get_execution_plan

    logical = list(ds._logical_plan.dag.post_order_iter())
    physical = [op.name for op in get_execution_plan(ds._logical_plan).dag.post_order_iter()]
    return logical, physical


def _is_task_pool(op, size):
    from ray.data._internal.compute import TaskPoolStrategy

    return isinstance(op._compute, TaskPoolStrategy) and op._compute.size == size


def test_ocr_stage_runs_as_tasks(small_corpus):
    """The OCR operator of ``run_extract`` is task compute (no actor
    pool to start and kill per execution), keeps its exact name (the
    benchmark ledger finds it by ``MapBatches(OcrActor)``), and stays
    its own physical operator, unfused with the read or ``pad_ocr``."""
    from tesseract_wasm_ray.pipelines.extract import ExtractConfig, run_extract

    for cfg in (ExtractConfig(), ExtractConfig(ocr_concurrency=3)):
        ds = run_extract(small_corpus["documents"], small_corpus["media"], cfg)
        logical, physical = _plan(ds)
        ocr = [op for op in logical if "OcrActor" in op.name]
        assert [op.name for op in ocr] == ["MapBatches(OcrActor)"]
        assert _is_task_pool(ocr[0], ocr_pool(cfg.ocr_concurrency)[0])
        assert [n for n in physical if "OcrActor" in n] == ["MapBatches(OcrActor)"]


@pytest.mark.parametrize("cpus", [2, 4, 8])
def test_ocr_stage_unfused_at_session_sizes(cpus, small_corpus, monkeypatch):
    """A whole-CPU OCR task claims what the read before it claims, so
    only the concurrency cap keeps the two apart: at every session size
    ``MapBatches(OcrActor)`` stays its own physical operator."""
    import ray

    from tesseract_wasm_ray.pipelines.extract import run_extract

    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(cpus)})
    assert ocr_pool()[1] == 1.0
    _, physical = _plan(run_extract(small_corpus["documents"], small_corpus["media"]))
    assert [n for n in physical if "OcrActor" in n] == ["MapBatches(OcrActor)"]


def test_run_extract_all_to_all_ops(small_corpus, tmp_path, monkeypatch):
    """``run_extract`` crosses exactly three all-to-all operators, lazy
    and with ``out_dir``: the coalescing ``Repartition``, the ``Sort``
    behind the media_ref join and the ``Sort`` behind reassembly.  The
    ``out_dir`` plan is read where it is executed, without running it."""
    import ray.data as rd
    from ray.data._internal.logical.operators.all_to_all_operator import AbstractAllToAll

    from tesseract_wasm_ray.pipelines.extract import run_extract

    def all_to_all(ds):
        return [op.name for op in _plan(ds)[0] if isinstance(op, AbstractAllToAll)]

    docs, media = small_corpus["documents"], small_corpus["media"]
    assert all_to_all(run_extract(docs, media)) == ["Repartition", "Sort", "Sort"]

    planned = []

    class Planned(Exception):
        pass

    def capture(ds, *args, **kwargs):
        planned.append(ds)
        raise Planned

    monkeypatch.setattr(rd.Dataset, "take_all", capture)
    with pytest.raises(Planned):
        run_extract(docs, media, out_dir=str(tmp_path / "out"))
    assert all_to_all(planned[0]) == ["Repartition", "Sort", "Sort"]


def test_shuffle_strategy_is_sort_based(ray_session):
    """Every bucket shuffle relies on the sort-based strategy, which
    makes one reducer per input block and ignores a groupby partition
    count.  ``HASH_SHUFFLE`` would read that count instead and, with
    none given, fall back to ``default_hash_shuffle_parallelism``."""
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy

    from tesseract_wasm_ray.tuning import apply_data_context_tuning

    apply_data_context_tuning()
    assert DataContext.get_current().shuffle_strategy in (
        ShuffleStrategy.SORT_SHUFFLE_PULL_BASED,
        ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED,
    )


def test_short_last_bundle_leaves_no_queued_input(ray_session):
    """10 rows in 5 blocks at ``batch_size=4`` bundle as 4, 4 and a short
    last 2.  After ``apply_data_context_tuning()`` no operator ends the
    execution with inputs still queued; Ray 2.49 left the short bundle
    in the map operator's in-queue, which kept its blocks in the object
    store after the pass."""
    import ray.data as rd
    from ray.data._internal.execution.execution_callback import (
        EXECUTION_CALLBACKS_CONFIG_KEY,
        ExecutionCallback,
        get_execution_callbacks,
    )

    from tesseract_wasm_ray.tuning import apply_data_context_tuning

    apply_data_context_tuning()
    queued = {}

    class Capture(ExecutionCallback):
        def __deepcopy__(self, memo):
            return self

        def __reduce__(self):
            return (ExecutionCallback, ())

        def after_execution_succeeds(self, executor):
            for op in executor._topology:
                queued[op.name] = op.metrics.obj_store_mem_internal_inqueue_blocks

    ctx = rd.DataContext.get_current()
    before = get_execution_callbacks(ctx)
    ctx.set_config(EXECUTION_CALLBACKS_CONFIG_KEY, before + [Capture()])
    try:
        ds = rd.range(10, override_num_blocks=5).map_batches(lambda b: b, batch_size=4)
        assert len(ds.take_all()) == 10
    finally:
        ctx.set_config(EXECUTION_CALLBACKS_CONFIG_KEY, before)
    assert any("MapBatches" in name for name in queued)
    assert all(n == 0 for n in queued.values()), queued


def test_media_stages_run_as_tasks(ray_session):
    """The media stages are task compute with or without a
    ``concurrency`` cap (it bounds tasks, it never asks for actors)."""
    import pyarrow as pa
    import ray.data as rd

    from tesseract_wasm_ray.stages.multimodal import audio_features, decode_media, video_frames

    ds = rd.from_arrow(pa.table({"media_ref": ["m"], "payload": [b""]}))
    for wire in (decode_media, audio_features, video_frames):
        for concurrency in (None, 2):
            logical, _ = _plan(wire(ds, concurrency=concurrency))
            assert _is_task_pool(logical[-1], concurrency), (wire.__name__, concurrency)


_RUN_EXTRACT = """
import json, sys
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR")
from tesseract_wasm_ray.fixtures import generate_corpus
from tesseract_wasm_ray.pipelines.extract import run_extract, validate_against_golden
paths = generate_corpus(sys.argv[2], 40)
result = run_extract(paths["documents"], paths["media"])
print(json.dumps(validate_against_golden(result, paths["golden_spans"])))
ray.shutdown()
"""


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_run_extract_completes_in_small_session(num_cpus, tmp_path):
    """Default ExtractConfig in a fresh 1- or 2-CPU session: every doc
    span-equal, well inside the timeout (a few seconds of work)."""
    out = subprocess.run(
        [sys.executable, "-c", _RUN_EXTRACT, str(num_cpus), str(tmp_path / "corpus")],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=180,
        env={**os.environ, "PYTHONPATH": REPO, "RAY_DEDUP_LOGS": "0"},
    )
    assert out.returncode == 0, out.stderr[-2000:]
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report == {"docs_ok": 40, "docs_mismatched": 0, "docs_missing": 0}


_RUN_MEDIA = """
import json, sys
import ray
ray.init(address="local", num_cpus=int(sys.argv[1]), include_dashboard=False,
         logging_level="ERROR")
from tesseract_wasm_ray.catalog.multimodal import q_audio_features, q_video_frames
print(json.dumps({"audio": q_audio_features(sys.argv[2]).count(),
                  "video": q_video_frames(sys.argv[2]).count()}))
ray.shutdown()
"""


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_media_queries_complete_in_small_session(num_cpus, tmp_path):
    """The audio and video stages in a fresh 1- or 2-CPU session: one
    feature row per clip and one row per sampled frame (stride 2 over
    4 + md5-derived 0..7 frames), well inside the timeout."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    ids = [f"doc-{i:04d}" for i in range(60)]
    pq.write_table(pa.table({"doc_id": ids}), str(tmp_path / "documents.parquet"))
    frames = [4 + int(hashlib.md5(d.encode()).hexdigest()[4:6], 16) % 8 for d in ids]
    out = subprocess.run(
        [sys.executable, "-c", _RUN_MEDIA, str(num_cpus), str(tmp_path)],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=180,
        env={**os.environ, "PYTHONPATH": REPO},
    )
    assert out.returncode == 0, out.stderr[-2000:]
    counts = json.loads(out.stdout.strip().splitlines()[-1])
    assert counts == {"audio": len(ids), "video": sum((n + 1) // 2 for n in frames)}
