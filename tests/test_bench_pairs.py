"""tools/bench_pairs.py rejects pair counts its quartiles cannot summarize."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_too_few_pairs_fail_before_any_run(tmp_path, pairs):
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"),
         "--before", str(tmp_path), "--workload", "oml_desk", "--pairs", pairs,
         "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "at least 2 pairs" in done.stderr
    assert not out.exists()
