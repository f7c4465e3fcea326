"""CLI end-to-end: the ray-job-submit surface (subprocess — the CLI
owns its own Ray session, which must not touch the pytest fixture's)."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli(*args: str) -> str:
    out = subprocess.run(
        [sys.executable, "-m", "tesseract_wasm_ray.cli", *args],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "RAY_DEDUP_LOGS": "0"},
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout.strip().splitlines()[-1]


def test_cli_list_names_every_query():
    out = subprocess.run(
        [sys.executable, "-m", "tesseract_wasm_ray.cli", "list"],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0
    names = out.stdout.split()
    assert "extract_flagship" in names and "exact_substring_dedup" in names
    assert len(names) >= 76


def test_cli_extract_and_query_roundtrip(tmp_path):
    from tesseract_wasm_ray.fixtures import generate_corpus

    paths = generate_corpus("/tmp/twr_fixtures/sf0.001", 200)
    out_dir = str(tmp_path / "extract_out")
    line = _cli(
        "extract",
        "--docs", paths["documents"],
        "--media", paths["media"],
        "--out", out_dir,
        "--golden", paths["golden_spans"],
    )
    summary = json.loads(line)
    assert summary["docs"] == 200
    assert summary["validation"]["docs_ok"] == 200
    assert summary["validation"]["docs_mismatched"] == 0

    qline = _cli(
        "query", "--name", "lang_stats",
        "--sf-dir", "/root/testdata/sf0.001",
        "--out", str(tmp_path / "q_out"),
    )
    q = json.loads(qline)
    assert q["rows"] == 5
    files = os.listdir(tmp_path / "q_out")
    assert any(f.endswith(".parquet") for f in files)


def test_cli_partitioned_export_and_compact(tmp_path):
    part_dir = str(tmp_path / "part")
    line = _cli(
        "query", "--name", "quality_zscore",
        "--sf-dir", "/root/testdata/sf0.001",
        "--out", part_dir, "--partition-by", "lang",
    )
    assert json.loads(line)["rows"] == 500
    assert sorted(os.listdir(part_dir))[0].startswith("lang=")

    comp_dir = str(tmp_path / "compact")
    cline = _cli("compact", "--in", part_dir, "--out", comp_dir, "--target-mb", "64")
    c = json.loads(cline)
    # partition-preserving compaction: one compacted file per lang dir
    assert c["rows"] == 500 and c["files_out"] == 5
    assert sorted(os.listdir(comp_dir))[0].startswith("lang=")


def test_cli_extract_quarantine_default_and_alert(tmp_path):
    """The flagship CLI defaults to on-error=quarantine (documented:
    a malformed payload dead-letters one row, the run survives) and the
    summary carries the quarantined fraction + alert flag.  A corpus
    with ~1/16 poisoned media rows must finish rc=0, quarantine the
    affected docs, and trip the alert at the default 1% threshold."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from tesseract_wasm_ray.fixtures import generate_corpus

    paths = generate_corpus("/tmp/twr_fixtures/sf0.001", 200)
    # poison ~1/16 of media payloads (md5-keyed like the deadletter
    # fixture, but inline so this test owns its corpus copy)
    poison_dir = str(tmp_path / "media_poisoned")
    os.makedirs(poison_dir, exist_ok=True)
    import hashlib

    n_bad = 0
    for i, f in enumerate(sorted(glob.glob(os.path.join(paths["media"], "*.parquet")))):
        t = pq.read_table(f)
        refs = t.column("media_ref").to_pylist()
        pixels = t.column("pixels").to_pylist()
        for j, r in enumerate(refs):
            if hashlib.md5(str(r).encode()).hexdigest()[0] == "0":
                pixels[j] = b"\xde\xad"
                n_bad += 1
        idx = t.schema.get_field_index("pixels")
        t = t.set_column(idx, "pixels", pa.array(pixels, pa.binary()))
        pq.write_table(t, os.path.join(poison_dir, f"part-{i}.parquet"))
    assert n_bad > 2

    out_dir = str(tmp_path / "extract_q")
    line = _cli(
        "extract",
        "--docs", paths["documents"],
        "--media", poison_dir,
        "--out", out_dir,
    )
    summary = json.loads(line)
    assert summary["quarantined"] > 0
    assert summary["docs"] + summary["quarantined"] == 200
    assert summary["quarantined_frac"] > 0.01
    assert summary["quarantine_alert"] is True

    # strict mode: the same corpus must FAIL fast under --on-error raise
    out = subprocess.run(
        [sys.executable, "-m", "tesseract_wasm_ray.cli",
         "extract",
         "--docs", paths["documents"],
         "--media", poison_dir,
         "--out", str(tmp_path / "extract_strict"),
          "--on-error", "raise"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
        env={**os.environ, "RAY_DEDUP_LOGS": "0"},
    )
    assert out.returncode != 0
