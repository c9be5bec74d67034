"""tools/bench_pairs.py rejects pair counts its quartiles cannot summarize
and sides of which only one holds bytecode, names the run that failed,
records which commits it compared, and prints a per-metric summary."""

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
    # pair 0 runs the before side first; an empty checkout has no benchmark.
    # It gets bytecode when this checkout has some, which a side alone may not
    before = tmp_path / "empty"
    before.mkdir()
    if load_bench_pairs().bytecode_dirs(ROOT):
        (before / "src" / "__pycache__").mkdir(parents=True)
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


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


@pytest.mark.parametrize("cached_side", ["before", "after"])
def test_bytecode_on_one_side_only_fails_before_any_run(tmp_path, monkeypatch,
                                                       cached_side):
    bench_pairs = load_bench_pairs()
    sides = {side: tmp_path / side for side in ("before", "after")}
    for checkout in sides.values():
        (checkout / "src" / "omlcae").mkdir(parents=True)
        (checkout / "perfbench").mkdir()
    cache = sides[cached_side] / "src" / "omlcae" / "__pycache__"
    cache.mkdir()
    monkeypatch.setattr(bench_pairs, "ROOT", str(sides["after"]))

    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    out = tmp_path / "bench.json"
    argv = ["--before", str(sides["before"]), "--workload", "oml_desk",
            "--pairs", "2", "--out", str(out)]
    with pytest.raises(SystemExit, match=f"{cached_side} side holds {cache}"):
        bench_pairs.main(argv)
    assert not out.exists()
    # with bytecode on both sides the pairs run
    monkeypatch.setattr(bench_pairs, "run_once",
                        lambda side, *args: {"seq_per_s": 1.0})
    (sides["after" if cached_side == "before" else "before"]
     / "perfbench" / "__pycache__").mkdir()
    bench_pairs.main(argv)
    assert json.loads(out.read_text())["oml_desk"]["pairs"] == 2


def test_output_names_each_sides_commit_and_dirty_flag(tmp_path, monkeypatch):
    bench_pairs = load_bench_pairs()
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


def test_prints_each_metrics_medians_and_after_wins(tmp_path, monkeypatch,
                                                   capsys):
    bench_pairs = load_bench_pairs()
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    # seeds 1-3 run in pair order; the after side wins seq_per_s in pairs 2
    # and 3, and peak_rss_mb (lower is better) in pair 1 only
    values = {("before", 1): (10.0, 43.0), ("after", 1): (9.0, 42.5),
              ("before", 2): (11.0, 43.0), ("after", 2): (13.5, 43.5),
              ("before", 3): (12.0, 43.0), ("after", 3): (14.0, 43.0)}

    def run_once(side, checkout, workload, seed, seconds):
        seq, rss = values[side, seed]
        return {"seq_per_s": seq, "peak_rss_mb": rss}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--before", str(tmp_path), "--workload", "grid_desk",
                      "--pairs", "3", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "grid_desk seq_per_s: 11 -> 13.5 (after wins 2/3)",
        "grid_desk peak_rss_mb: 43 -> 43 (after wins 1/3)"]
    assert json.loads(out.read_text())["grid_desk"]["pairs"] == 3
