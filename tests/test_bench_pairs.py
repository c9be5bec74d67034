"""tools/bench_pairs.py rejects pair counts its quartiles cannot summarize,
sides of which only one holds bytecode and a workload named twice, runs
every named workload in each pair, names the run that failed, records
which commits it compared, and prints a per-metric summary judged by
BENCHMARK.json's directions and bounds."""

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


def write_benchmark(root):
    # the end-to-end declarations bench_pairs reads from its checkout's root
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "seq_per_s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))


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
    write_benchmark(sides["after"])
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
    write_benchmark(repo)
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
    write_benchmark(tmp_path)
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    # seeds 1-3 run in pair order; the after side wins seq_per_s in pairs 2
    # and 3, peak_rss_mb (lower is better) in pair 1 only and setup_s in
    # none, whose median rises by 50%, beyond its bound of 25%
    values = {("before", 1): (10.0, 43.0, 0.1), ("after", 1): (9.0, 42.5, 0.15),
              ("before", 2): (11.0, 43.0, 0.1), ("after", 2): (13.5, 43.5, 0.12),
              ("before", 3): (12.0, 43.0, 0.1), ("after", 3): (14.0, 43.0, 0.2)}

    def run_once(side, checkout, workload, seed, seconds):
        return dict(zip(("seq_per_s", "peak_rss_mb", "setup_s"),
                        values[side, seed]))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--before", str(tmp_path), "--workload", "grid_desk",
                      "--pairs", "3", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [
        "grid_desk seq_per_s: 11 -> 13.5 (before quartiles 10.5-11.5, "
        "+22.7%, after wins 2/3)",
        "grid_desk peak_rss_mb: 43 -> 43 (before quartiles 43-43, +0.0%, "
        "after wins 1/3)",
        "grid_desk setup_s: 0.1 -> 0.15 (before quartiles 0.1-0.1, +50.0%, "
        "after wins 0/3, beyond bound)"]
    entry = json.loads(out.read_text())["grid_desk"]
    assert entry["pairs"] == 3
    assert [entry["metrics"][name]["beyond_bound"] for name in
            ("seq_per_s", "peak_rss_mb", "setup_s")] == [False, False, True]
    # a higher-is-better metric that falls by more than its bound
    for seed in (1, 2, 3):
        seq, *rest = values["before", seed]
        values["after", seed] = (seq * 0.7, *rest)
    bench_pairs.main(["--before", str(tmp_path), "--workload", "oml_desk",
                      "--pairs", "3", "--out", str(out)])
    assert capsys.readouterr().out.splitlines()[-3] == (
        "oml_desk seq_per_s: 11 -> 7.7 (before quartiles 10.5-11.5, "
        "-30.0%, after wins 0/3, beyond bound)")



def test_each_named_workload_gets_its_own_entry(tmp_path, monkeypatch):
    # a repeated --workload runs every named workload within each pair
    bench_pairs = load_bench_pairs()
    write_benchmark(tmp_path)
    monkeypatch.setattr(bench_pairs, "ROOT", str(tmp_path))
    calls = []

    def run_once(side, checkout, workload, seed, seconds):
        calls.append((seed, workload, side))
        return {"seq_per_s": {"oml_desk": 1.0, "grid_desk": 2.0}[workload]}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    argv = ["--before", str(tmp_path), "--workload", "oml_desk",
            "--workload", "grid_desk", "--pairs", "2", "--out", str(out)]
    bench_pairs.main(argv)
    assert calls == [(1, "oml_desk", "before"), (1, "oml_desk", "after"),
                     (1, "grid_desk", "before"), (1, "grid_desk", "after"),
                     (2, "oml_desk", "after"), (2, "oml_desk", "before"),
                     (2, "grid_desk", "after"), (2, "grid_desk", "before")]
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["grid_desk", "oml_desk"]
    for workload, value in (("oml_desk", 1.0), ("grid_desk", 2.0)):
        entry = doc[workload]
        assert entry["runs"]["after"] == [{"seq_per_s": value}] * 2
        assert "--workload oml_desk --workload grid_desk" in entry["command"]


def test_a_workload_named_twice_fails_before_any_run(tmp_path, monkeypatch,
                                                     capsys):
    bench_pairs = load_bench_pairs()
    monkeypatch.setattr(bench_pairs, "run_once", None)  # never called
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--before", str(tmp_path), "--workload", "oml_desk",
                          "--workload", "oml_desk", "--out", str(out)])
    assert exit_.value.code == 2
    assert "--workload oml_desk is given more than once" in \
        capsys.readouterr().err
    assert not out.exists()
