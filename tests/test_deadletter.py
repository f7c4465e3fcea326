"""Dead-letter path: corrupt media rows quarantine their documents
instead of killing the job.

The reference surfaces decode/recognition failures as catchable
per-call Errors (/root/reference/src/ocr-engine.ts:179-185,205-207);
the Ray analogue is a per-row ``error`` column on the OCR/decode actor
outputs, a whole-document quarantine parquet next to the bucket
outputs, and manifest accounting — one poison row out of 10^12 must
cost one document, not the run.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from tesseract_wasm_ray.pipelines.extract import (
    ExtractConfig,
    run_extract,
    split_quarantine,
    validate_against_golden,
)
from tesseract_wasm_ray.stages.ocr_actor import OcrActor


def _cfg():
    return ExtractConfig(ocr_concurrency=2, ocr_batch_size=32, num_buckets=8)


def _read_dir(path: str) -> pa.Table:
    import glob

    parts = sorted(glob.glob(os.path.join(path, "*.parquet")))
    return pa.concat_tables([pq.read_table(p) for p in parts])


def _poison_media(media: pa.Table, ref: str, payload: bytes) -> pa.Table:
    """Replace one media row's pixel buffer with a corrupt payload."""
    refs = media.column("media_ref").to_pylist()
    i = refs.index(ref)
    pixels = media.column("pixels").to_pylist()
    pixels[i] = payload
    idx = media.schema.get_field_index("pixels")
    return media.set_column(idx, "pixels", pa.array(pixels, pa.binary()))


def test_ocr_actor_isolates_corrupt_rows(small_corpus):
    media = _read_dir(small_corpus["media"])
    batch = media.slice(0, 3)
    # row 1: truncated buffer (reshape fails); row 2: garbage channels
    batch = _poison_media(batch, batch.column("media_ref")[1].as_py(), b"\x01\x02\x03")
    out = OcrActor()(batch)
    errors = out.column("error").to_pylist()
    assert errors[0] is None and errors[2] is None
    assert errors[1] is not None and "cannot reshape" in errors[1]
    assert out.column("text")[1].as_py() == ""
    # healthy rows still recognized normally
    assert out.column("text")[0].as_py() != "" or out.column("n_words")[0].as_py() == 0


def test_split_quarantine_whole_doc():
    t = pa.table(
        {
            "doc_id": ["a", "a", "b"],
            "offset": pa.array([0, 1, 0], pa.int32()),
            "kind": ["text", "media_ref", "text"],
            "text": ["hi", "", "yo"],
            "media_ref": ["", "m1", ""],
            "error": pa.array([None, "ValueError: boom", None], pa.string()),
        }
    )
    clean, quar = split_quarantine(t)
    # doc a quarantines WHOLE (both spans), doc b stays
    assert clean.column("doc_id").to_pylist() == ["b"]
    assert "error" not in clean.column_names
    assert sorted(quar.column("doc_id").to_pylist()) == ["a", "a"]
    assert quar.column("error").null_count == 1  # the text span keeps null


def _poisoned_media_dir(small_corpus, tmp_path) -> tuple[str, str]:
    """The corpus's media table with its first page's pixel buffer
    corrupted, written under ``tmp_path`` -> (media dir, poisoned ref)."""
    media = _read_dir(small_corpus["media"])
    poison_ref = media.column("media_ref")[0].as_py()
    poisoned = _poison_media(media, poison_ref, b"\xde\xad")
    media_dir = str(tmp_path / "media")
    os.makedirs(media_dir)
    pq.write_table(poisoned, os.path.join(media_dir, "part-0.parquet"))
    return media_dir, poison_ref


def test_flagship_quarantines_poison_doc_and_resumes(small_corpus, tmp_path):
    import ray.data as rd

    docs_path = small_corpus["documents"]
    media_dir, poison_ref = _poisoned_media_dir(small_corpus, tmp_path)

    # which doc owns the poison ref (fixture media refs are per-doc)
    docs = _read_dir(docs_path)
    flat = pc.list_flatten(docs.column("spans").combine_chunks())
    counts = pc.list_value_length(docs.column("spans").combine_chunks()).to_numpy()
    owner_rows = np.repeat(np.arange(len(docs)), counts)
    hit = pc.equal(pc.struct_field(flat, "media_ref"), poison_ref).to_numpy(
        zero_copy_only=False
    )
    poisoned_docs = set(
        docs.column("doc_id").to_numpy(zero_copy_only=False)[owner_rows[hit]]
    )
    assert len(poisoned_docs) == 1

    out = str(tmp_path / "out")
    rows = run_extract(docs_path, media_dir, _cfg(), out_dir=out)
    total_q = sum(r["n_quarantined"] for r in rows)
    assert total_q == len(poisoned_docs)

    # quarantine parquet exists and records the error
    qfiles = [r["quarantine_file"] for r in rows if r["quarantine_file"]]
    assert len(qfiles) == 1
    qt = pq.read_table(os.path.join(out, qfiles[0]))
    assert set(qt.column("doc_id").to_pylist()) == poisoned_docs
    errs = [e for e in qt.column("error").to_pylist() if e]
    assert errs and all("reshape" in e or "Error" in e for e in errs)

    # clean docs all written and span-equal vs golden (n-1 extracted)
    written = rd.read_parquet([os.path.join(out, r["output_file"]) for r in rows])
    n_total = len(docs)
    assert written.count() == n_total - total_q
    report = validate_against_golden(written, small_corpus["golden_spans"])
    assert report["docs_mismatched"] == 0
    assert report["docs_missing"] == total_q  # golden still has the poison doc

    # resume: all buckets complete -> nothing recomputed, no re-OCR
    rows2 = run_extract(docs_path, media_dir, _cfg(), out_dir=out)
    assert rows2 == []


_STRICT_RUN = """
import json, sys, traceback
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
import tesseract_wasm_ray.pipelines.extract as ex

docs, media, out, trace, poison_ref = sys.argv[1:]


class TracingOcr(ex.OcrActor):
    def __call__(self, batch):
        if poison_ref in batch.column("media_ref").to_pylist():
            with open(trace, "a") as f:
                f.write("attempt\\n")
        return super().__call__(batch)


ex.OcrActor = TracingOcr
cfg = ex.ExtractConfig(ocr_concurrency=1, ocr_batch_size=32, num_buckets=8,
                       on_error="raise")
try:
    ex.run_extract(docs, media, cfg, out_dir=out, resume=False)
    result = {"raised": False}
except Exception as e:  # noqa: BLE001
    chain = "".join(traceback.format_exception(e))
    result = {"raised": True, "reshape_error": "ValueError: cannot reshape" in chain}
print(json.dumps(result))
ray.shutdown()
"""


def test_strict_mode_raises_through_pipeline(small_corpus, tmp_path):
    """``on_error="raise"`` stops ``run_extract`` on the first corrupt
    page: the recognition error reaches the caller promptly, and the
    failing batch is not retried (Ray retries only system errors, never
    the stage's own exception)."""
    media_dir, poison_ref = _poisoned_media_dir(small_corpus, tmp_path)
    trace = str(tmp_path / "ocr_trace")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _STRICT_RUN, small_corpus["documents"], media_dir,
         str(tmp_path / "out"), trace, poison_ref],
        cwd=repo,
        capture_output=True,
        text=True,
        timeout=180,
        env={**os.environ, "PYTHONPATH": repo},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"raised": True, "reshape_error": True}
    with open(trace) as f:
        assert f.read().splitlines() == ["attempt"]
