"""tools/bench_pairs.py rejects pair counts its quartiles cannot summarize,
names the run that failed, and records which commits it compared."""

import importlib.util
import json
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


def test_output_names_each_sides_commit_and_dirty_flag(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    repo, plain = tmp_path / "repo", tmp_path / "plain"
    repo.mkdir()
    plain.mkdir()

    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.org",
             *args], cwd=repo, check=True, capture_output=True,
            text=True).stdout.strip()

    git("init", "-q")
    (repo / "a.txt").write_text("a\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    head = git("rev-parse", "HEAD")
    (repo / "untracked.txt").write_text("not part of the commit\n")
    assert bench_pairs.git_state(str(plain)) is None
    assert bench_pairs.git_state(str(repo)) == {"head": head, "dirty": False}
    (repo / "a.txt").write_text("b\n")
    assert bench_pairs.git_state(str(repo)) == {"head": head, "dirty": True}

    # the after side is the tool's own checkout; runs are stubbed out
    monkeypatch.setattr(bench_pairs, "ROOT", str(repo))
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda side, *args: {"seq_per_s": 1.0})
    out = tmp_path / "bench.json"
    bench_pairs.main(["--before", str(plain), "--workload", "oml_desk",
                      "--pairs", "2", "--out", str(out)])
    entry = json.loads(out.read_text())["oml_desk"]
    assert entry["git"] == {"before": None,
                            "after": {"head": head, "dirty": True}}
