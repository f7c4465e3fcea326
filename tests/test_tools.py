"""The command-line tools run from any working directory: the oracle
check, and the N -> 4N scaling and soak runs of ``tools/scaling.py``
at smoke sizes.  They assert structure and correctness, never an
efficiency value (the host may be shared)."""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SF001 = "/root/testdata/sf0.01"


def _run(args, cwd, env=None):
    out = subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=240,
        env={**os.environ, "RAY_DEDUP_LOGS": "0", **(env or {})},
    )
    assert out.returncode == 0, (out.stdout[-2000:], out.stderr[-2000:])
    return out.stdout


def test_check_oracle_runs_outside_repo(tmp_path):
    stdout = _run([os.path.join(REPO, "tools", "check_oracle.py"), SF001, "tpch_q1"], tmp_path)
    assert "[OK       ] tpch_q1" in stdout


def test_scaling_smoke(tmp_path):
    stdout = _run(
        [os.path.join(REPO, "tools", "scaling.py"), "scaling"],
        tmp_path,
        {
            "TWR_SCALING_CPUS": "1,2",
            "TWR_SCALING_PAIRS": "1",
            "TWR_SCALING_DOCS": "200",
            "TWR_FIXTURE_ROOT": str(tmp_path / "fixtures"),
        },
    )
    report = json.loads(stdout.strip().splitlines()[-1])
    for key in (
        "scaling_efficiency",
        "min_pair_efficiency",
        "pair_efficiencies",
        "pairs_retried_dirty_window",
    ):
        assert key in report
    assert len(report["pairs"]) == len(report["pair_efficiencies"]) == 1
    pair = report["pairs"][0]
    assert pair["docs_per_sec_lo"] > 0 and pair["docs_per_sec_hi"] > 0


def test_soak_smoke(tmp_path):
    stdout = _run(
        [os.path.join(REPO, "tools", "scaling.py"), "soak"],
        tmp_path,
        {"TWR_SOAK_DOCS": "200", "TWR_FIXTURE_ROOT": str(tmp_path / "fixtures")},
    )
    report = json.loads(stdout.strip().splitlines()[-1])
    flagship = report["steps"]["flagship_validate"]
    assert (flagship["docs_ok"], flagship["docs_mismatched"], flagship["docs_missing"]) == (
        200,
        0,
        0,
    )
    assert 0 <= report["peak_store_fraction"] <= 1
