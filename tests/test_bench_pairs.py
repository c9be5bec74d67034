"""tools/bench_pairs.py rejects pair counts its quartiles cannot summarize,
and names the run that failed."""

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


def test_failed_run_names_side_checkout_workload_and_seed(tmp_path):
    # pair 0 runs the before side first; an empty checkout has no benchmark
    before = tmp_path / "empty"
    before.mkdir()
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"),
         "--before", str(before), "--workload", "oml_desk", "--pairs", "2",
         "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert f"before side ({before}), oml_desk seed 1: exit" in done.stderr
    assert "perfbench/run.py" in done.stderr  # the tail of the run's stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()
