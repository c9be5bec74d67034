"""Alternating before/after runs of the benchmark, summarized as JSON.

    python3 tools/bench_pairs.py --before ../parent --workload scratch_paper \
        --pairs 10 --seconds 30 --out BENCH_6.json

Run it from the root of the checkout under test (the "after" side);
--before is the root of another checkout, usually the parent commit.  Each
pair runs ``perfbench/run.py --trace 0`` once in each checkout with the same
seed (the pair's index), alternating which side runs first.  ``--workload``
may be given more than once (naming a workload twice is an error): each
pair then runs every named workload in turn, both sides each.  The output
file gets one entry per workload: every run's end-to-end metrics, each side's
median and quartiles, and for each metric how many pairs the after side
won, the relative change of the median and whether that change is worse
than the metric's bound.  Each metric's direction ("better") and bound come
from BENCHMARK.json at the root of this checkout, which is only read.  The
script then prints one line per metric, ``<workload> <metric>: <before
median> -> <after median> (before quartiles q1-q3, <change>%, after wins
k/n)``, ending in ``, beyond bound`` when the change is worse than the
bound.  Quartiles need at least 2 pairs; the default 10 is the fewest on
which a gain may be claimed.  Entries for other workloads already in the
file are kept.  Each entry also records what each side ran: its
checkout's ``git rev-parse HEAD`` and whether tracked files differ from
it, or null outside git.  A failed run stops the script with a message
naming its side, checkout, workload and seed, and the tail of its stderr.

Every run gets ``PYTHONDONTWRITEBYTECODE=1``, so runs leave no bytecode
behind.  Imports from cached bytecode are faster, which shows in
``setup_s``, so the script refuses to start when exactly one side's
``src/`` or ``perfbench/`` holds a ``__pycache__``, naming it.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(side, checkout, workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    where = f"{side} side ({checkout}), {workload} seed {seed}"
    if done.returncode:
        tail = "\n".join(done.stderr.rstrip().splitlines()[-20:])
        raise SystemExit(f"{where}: exit {done.returncode}, stderr ends:\n{tail}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{where} failed: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def git_state(checkout):
    """{"head": commit, "dirty": tracked files changed} of the git checkout
    at checkout, or None when it is not in one (or git is missing)."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout,
                              capture_output=True, text=True)
    try:
        head = git("rev-parse", "HEAD")
    except FileNotFoundError:
        return None
    if head.returncode:
        return None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"head": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def bytecode_dirs(checkout):
    """The __pycache__ directories under checkout's src/ and perfbench/."""
    return [os.path.join(root, "__pycache__") for top in ("src", "perfbench")
            for root, dirs, _ in os.walk(os.path.join(checkout, top))
            if "__pycache__" in dirs]


def pair_count(text):
    pairs = int(text)
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs, got {pairs}")
    return pairs


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def end_to_end_metrics():
    """{name: declaration} of the end-to-end metrics in ROOT's
    BENCHMARK.json; a declaration holds "better" ("higher" or "lower") and
    "bound", the largest relative change for the worse it allows."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def relative_change(before, after):
    if before == 0:
        return 0.0 if after == 0 else math.copysign(math.inf, after)
    return (after - before) / abs(before)


def compare(runs, declared):
    """{metric: summary} of one workload's runs {"before": [...], "after":
    [...]}, judged by the declared direction and bound of each metric."""
    metrics = {}
    for name in runs["after"][0]:
        before = [r[name] for r in runs["before"]]
        after = [r[name] for r in runs["after"]]
        sign = -1 if declared[name]["better"] == "lower" else 1
        m = metrics[name] = {
            "before": summary(before), "after": summary(after),
            "after_wins": sum(sign * (a - b) > 0 for a, b in zip(after, before)),
        }
        m["change"] = relative_change(m["before"]["median"],
                                      m["after"]["median"])
        m["beyond_bound"] = -sign * m["change"] > declared[name]["bound"]
    return metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--before", required=True, help="root of the other checkout")
    p.add_argument("--workload", required=True, action="append",
                   help="a workload to pair; repeat the flag for more")
    p.add_argument("--pairs", type=pair_count, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    workloads = args.workload
    for workload in workloads:
        if workloads.count(workload) > 1:
            p.error(f"--workload {workload} is given more than once")
    declared = end_to_end_metrics()
    sides = {"before": os.path.abspath(args.before), "after": ROOT}
    runs = {w: {"before": [], "after": []} for w in workloads}
    cached = {side: bytecode_dirs(checkout) for side, checkout in sides.items()}
    if bool(cached["before"]) != bool(cached["after"]):
        side = "before" if cached["before"] else "after"
        raise SystemExit(f"{side} side holds {cached[side][0]}, the other "
                         f"side no __pycache__: delete it, or the sides "
                         f"import at different speeds")
    git = {side: git_state(checkout) for side, checkout in sides.items()}
    for pair in range(args.pairs):
        order = ("before", "after") if pair % 2 == 0 else ("after", "before")
        for workload in workloads:
            for side in order:
                runs[workload][side].append(run_once(
                    side, sides[side], workload, pair + 1, args.seconds))
                print(workload, pair, side, runs[workload][side][-1],
                      flush=True)
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    flags = " ".join(f"--workload {w}" for w in workloads)
    metrics = {w: compare(runs[w], declared) for w in workloads}
    for workload in workloads:
        doc[workload] = {
            "command": (f"python3 tools/bench_pairs.py --before <parent "
                        f"checkout> {flags} --pairs {args.pairs} --seconds "
                        f"{args.seconds:g} --out {args.out}"),
            "pairs": args.pairs, "git": git, "metrics": metrics[workload],
            "runs": runs[workload],
        }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for workload in workloads:
        for name, m in metrics[workload].items():
            before = m["before"]
            bound = ", beyond bound" if m["beyond_bound"] else ""
            print(f"{workload} {name}: {before['median']:.6g} -> "
                  f"{m['after']['median']:.6g} (before quartiles "
                  f"{before['q1']:.6g}-{before['q3']:.6g}, "
                  f"{m['change']:+.1%}, after wins {m['after_wins']}/"
                  f"{args.pairs}{bound})")


if __name__ == "__main__":
    main()
