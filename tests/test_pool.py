"""OCR-pool sizing: one rule (``extract.ocr_pool``) that always leaves
the pool's feeding tasks a whole CPU, so the flagship completes at any
session size — including the 1- and 2-CPU sessions where a pool that
claims every CPU makes no progress."""

import json
import os
import subprocess
import sys

import pytest

from tesseract_wasm_ray.pipelines.extract import ocr_pool

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_ocr_pool_claim_leaves_one_cpu():
    for cpus in range(1, 65):
        for asked in (None, 1, 3, 24):
            conc, num_cpus = ocr_pool(asked, cpus=cpus)
            assert conc >= 1 and 0 <= num_cpus <= 0.5
            assert conc * num_cpus <= cpus - 1, (cpus, asked, conc, num_cpus)
            if asked:
                assert conc == asked


def test_ocr_pool_at_four_cpus():
    assert ocr_pool(cpus=4) == (3, 0.5)
    assert ocr_pool(3, cpus=4) == (3, 0.5)
    assert ocr_pool(cpus=1) == (1, 0)
    assert ocr_pool(2, cpus=8) == (2, 0.5)


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
