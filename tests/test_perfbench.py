"""The benchmark's four workloads, checked against their reference digests."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep", "percolate", "spectral", "verify"])
def test_workload_reproduces_the_reference_digests(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # every report exits 0, keeps its exact flags and matches the seed-0 digest
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
