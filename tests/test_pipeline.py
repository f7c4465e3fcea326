"""End-to-end Ray Data pipeline tests: span-sequence equality gate,
resume idempotence, stage units."""

import os

import numpy as np
import pyarrow as pa

from tesseract_wasm_ray.fixtures import documents_batch
from tesseract_wasm_ray.pipelines.extract import (
    ExtractConfig,
    ocr_media,
    run_extract,
    validate_against_golden,
)
from tesseract_wasm_ray.stages.explode import explode_spans, only_kind
from tesseract_wasm_ray.stages.reassemble import reassemble, stitch_bucket
from tesseract_wasm_ray.schema import SPAN_ROWS_SCHEMA


def _cfg():
    return ExtractConfig(ocr_concurrency=2, ocr_batch_size=32, num_buckets=8)


def test_explode_then_stitch_roundtrip():
    docs = documents_batch(np.arange(30))
    rows = explode_spans(docs)
    assert rows.schema.equals(SPAN_ROWS_SCHEMA)
    back = stitch_bucket(rows)
    a = sorted(docs.to_pylist(), key=lambda r: r["doc_id"])
    b = sorted(back.to_pylist(), key=lambda r: r["doc_id"])
    assert a == b


def test_only_kind_partitions_rows():
    rows = explode_spans(documents_batch(np.arange(20)))
    t = only_kind("text")(rows)
    m = only_kind("media_ref")(rows)
    assert t.num_rows + m.num_rows == rows.num_rows
    assert set(t.column("kind").to_pylist()) <= {"text"}


def test_ocr_media_stage_matches_golden_boxes(small_corpus):
    import ray.data as rd

    cfg = _cfg()
    got = (
        ocr_media(small_corpus["media"], cfg, emit_boxes=True)
        .to_pandas()
        .set_index("media_ref")
        .sort_index()
    )
    gold = rd.read_parquet(small_corpus["golden_boxes"]).to_pandas().set_index("media_ref").sort_index()
    assert list(got.index) == list(gold.index)
    for ref in got.index:
        g, e = got.loc[ref], gold.loc[ref]
        assert g["text"] == e["text"], ref
        assert g["orientation"]["rotation"] == e["orientation"]["rotation"], ref
        got_words = [(w["text"], w["flags"], tuple(w["rect"].values())) for w in g["words"]]
        exp_words = [(w["text"], w["flags"], tuple(w["rect"].values())) for w in e["words"]]
        assert got_words == exp_words, ref


def test_extract_span_equality(small_corpus):
    cfg = _cfg()
    result = run_extract(small_corpus["documents"], small_corpus["media"], cfg)
    report = validate_against_golden(result, small_corpus["golden_spans"])
    assert report["docs_mismatched"] == 0
    assert report["docs_missing"] == 0
    assert report["docs_ok"] == 120


def test_extract_write_manifest_and_resume(small_corpus, tmp_path):
    import ray.data as rd

    out = str(tmp_path / "out")
    cfg = _cfg()
    rows1 = run_extract(small_corpus["documents"], small_corpus["media"], cfg, out_dir=out)
    assert len(rows1) > 0
    written = rd.read_parquet([os.path.join(out, r["output_file"]) for r in rows1])
    report = validate_against_golden(written, small_corpus["golden_spans"])
    assert report["docs_mismatched"] == 0 and report["docs_missing"] == 0

    # Resume: everything is done -> no new partitions, no duplicate docs.
    rows2 = run_extract(small_corpus["documents"], small_corpus["media"], cfg, out_dir=out)
    assert rows2 == []
    files = [f for f in os.listdir(out) if f.startswith("part-")]
    assert len(files) == len({r["partition_id"] for r in rows1})
    total_docs = sum(r["n_docs"] for r in rows1)
    assert total_docs == 120

    # Partial resume: delete one partition file -> exactly that one is redone.
    victim = rows1[0]["output_file"]
    os.remove(os.path.join(out, victim))
    rows3 = run_extract(small_corpus["documents"], small_corpus["media"], cfg, out_dir=out)
    assert [r["output_file"] for r in rows3] == [victim]


def test_resume_semi_join_scale_path(small_corpus, tmp_path, monkeypatch):
    """Early-crash resume past the broadcast byte cap must not re-OCR
    the completed buckets: with joins.BROADCAST_BYTE_CAP forced to 0 the
    media semi-join (joins.member_filter) takes its bloom-routed bucketed
    plan, which prunes media against the still-needed ref stream with no
    driver-side set.  Only the deleted partition's pages may reach the
    recognition stage, and the redone output must still match the
    golden spans."""
    import ray.data as rd

    import tesseract_wasm_ray.pipelines.extract as ex
    from tesseract_wasm_ray.pipelines import joins
    from tesseract_wasm_ray.stages.ocr_actor import OcrActor

    out = str(tmp_path / "out")
    cfg = _cfg()
    rows1 = run_extract(small_corpus["documents"], small_corpus["media"], cfg, out_dir=out)
    assert len(rows1) > 1
    total_pages = rd.read_parquet(small_corpus["media"]).count()

    victim = rows1[0]["output_file"]
    os.remove(os.path.join(out, victim))

    trace = str(tmp_path / "ocr_trace")

    class TracingOcr(OcrActor):
        def __call__(self, batch):
            with open(trace, "a") as f:
                f.write(f"{batch.num_rows}\n")
            return super().__call__(batch)

    monkeypatch.setattr(ex, "OcrActor", TracingOcr)
    monkeypatch.setattr(joins, "BROADCAST_BYTE_CAP", 0)  # force the scale path
    rows2 = run_extract(small_corpus["documents"], small_corpus["media"], cfg, out_dir=out)
    assert [r["output_file"] for r in rows2] == [victim]

    recognized = (
        sum(int(line) for line in open(trace)) if os.path.exists(trace) else 0
    )
    assert 0 < recognized < total_pages  # pruned, but the victim's pages ran

    written = rd.read_parquet(
        [os.path.join(out, f) for f in os.listdir(out) if f.startswith("part-")]
    )
    report = validate_against_golden(written, small_corpus["golden_spans"])
    assert report["docs_mismatched"] == 0 and report["docs_missing"] == 0


def test_reassemble_preserves_offset_order(ray_session):
    import ray.data as rd

    # Shuffled span rows must come back offset-ordered.
    rows = explode_spans(documents_batch(np.arange(40)))
    ds = rd.from_arrow(rows).random_shuffle(seed=3)
    docs = reassemble(ds, num_buckets=4).to_pandas()
    for spans in docs["spans"]:
        offs = [s["offset"] for s in spans]
        assert offs == sorted(offs) == list(range(len(offs)))


def test_resume_prunes_ocr_compute(small_corpus, tmp_path, monkeypatch):
    """A fully-completed resume must not re-run recognition: the media
    rows are pruned by the (empty) needed-ref semi-join before the OCR
    stage.
    The tracing subclass is patched into the EXTRACT module (the class
    object is cloudpickled by value into the OCR tasks, so the trace
    file is written from their worker processes)."""
    import os

    import tesseract_wasm_ray.pipelines.extract as ex
    from tesseract_wasm_ray.pipelines.extract import run_extract
    from tesseract_wasm_ray.stages.ocr_actor import OcrActor

    out = str(tmp_path / "out")
    cfg = _cfg()
    first = run_extract(small_corpus["documents"], small_corpus["media"], cfg, out_dir=out)
    assert len(first) > 0

    trace = str(tmp_path / "ocr_trace")

    class TracingOcr(OcrActor):
        def __call__(self, batch):
            with open(trace, "a") as f:
                f.write(f"{batch.num_rows}\n")
            return super().__call__(batch)

    monkeypatch.setattr(ex, "OcrActor", TracingOcr)
    second = run_extract(small_corpus["documents"], small_corpus["media"], cfg, out_dir=out)
    assert second == []
    recognized = (
        sum(int(line) for line in open(trace)) if os.path.exists(trace) else 0
    )
    assert recognized == 0  # no page reached the recognition stage


def test_perfbench_ledger_parses_every_execution(small_corpus, tmp_path):
    """The traced benchmark run (``perfbench/run.py --trace 1``) parses
    the Ray Data stats of every ``run_extract`` execution, lazy and with
    ``out_dir``, by operator name: a renamed or missing operator makes
    ``parse_pipeline_stats`` raise and the traced run exit non-zero."""
    import importlib.util

    from ray.data import DataContext
    from ray.data._internal.execution.execution_callback import (
        EXECUTION_CALLBACKS_CONFIG_KEY,
        get_execution_callbacks,
    )

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(repo, "perfbench", "layers.py")
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    cfg = ExtractConfig(ocr_concurrency=3)
    capture = layers.StatsCapture()
    try:
        for _ in run_extract(small_corpus["documents"], small_corpus["media"], cfg).iter_batches(
            batch_size=None
        ):
            pass
        run_extract(
            small_corpus["documents"], small_corpus["media"], cfg,
            out_dir=str(tmp_path / "out"), resume=False,
        )
        assert len(capture.summaries) >= 2
        for summary in capture.summaries:
            stats = layers.parse_pipeline_stats(summary)
            assert stats["pipeline.ocr.rows"] > 0
    finally:
        ctx = DataContext.get_current()
        ctx.set_config(
            EXECUTION_CALLBACKS_CONFIG_KEY,
            [c for c in get_execution_callbacks(ctx) if c is not capture],
        )
