"""omlcae benchmark: grid-cell throughput, set-up time, memory and accuracy
per workload, and per-layer self time from a traced run.

    python3 perfbench/run.py --workload oml_desk --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Each run is one process.  With ``--trace 0`` it runs units of the workload
(see ``workloads.py``) back to back until ``--seconds`` have passed and
prints the end-to-end metrics:

  seq_per_s    sequences completed per second of the timed body
  setup_s      median, over eleven fresh processes, of imports, config and
               model build, everything before the first sequence
  peak_rss_mb  peak resident memory of this process
  ser_mean     mean SER over the reference unit's rows

With ``--trace 1`` it runs a fixed list of units, each once untraced and
once with spans around every layer function (``tracing.py``), and prints the
per-layer metrics of the traced runs.  Their counts are over that fixed
list, so they repeat exactly between runs and commits.  Rates
(``gflop_per_s``, ``steps_per_s``, ``outer_iter_per_s``, ``symbols_per_s``)
divide by the layer's inclusive span time.  ``tracing.overhead`` is the
traced time of the list over its untraced time, minus one.  The spans go to
``.perfbench/spans-<workload>.jsonl``.

Every row is checked: SER finite and in [0, 1], the row count equal to cells
x sequences, and each unit's traced rows byte-identical to its untraced
ones.  A violation or an exception fails the sequences it touches.  The last
line of stdout is the JSON result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 11

# One process on one BLAS thread.  The training GEMMs are small (at most
# 80 x 256 x 256, at the paper shape), a second thread was no faster on them,
# and one thread keeps the timings from waiting on a core another process
# holds.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from tracing import LayerMissing, Tracer, layer_metrics  # noqa: E402


def import_program():
    """Import omlcae from this checkout's src/, or exit without a result."""
    if not os.path.isfile(os.path.join(SRC, "omlcae", "__init__.py")):
        sys.exit(f"perfbench: no omlcae package under {SRC}")
    sys.path.insert(0, SRC)
    import omlcae
    if not os.path.abspath(omlcae.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported omlcae from {omlcae.__file__}, "
                 f"not from {SRC}")


def parse_args(workload_names, argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_seconds(args):
    """Median set-up time over fresh processes, imports included."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


class Ledger:
    """Sequences attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, n, why):
        self.failed += n
        self.problems.append(f"{n} sequence(s): {why}")


def run_unit(workload, seed, unit, ledger):
    """Run one unit; returns (rows, files, seconds), rows None on error."""
    ledger.attempted += workload.rows_per_unit
    try:
        call = workload.prepare(seed, unit)
        start = time.perf_counter()
        rows, files = call()
        elapsed = time.perf_counter() - start
    except LayerMissing:
        raise
    except Exception:  # a failing cell fails its sequences; the run goes on
        ledger.fail(workload.rows_per_unit, f"unit {unit} raised:\n"
                    + traceback.format_exc())
        return None, None, 0.0
    bad = [text for text, ser in rows
           if not (math.isfinite(ser) and 0.0 <= ser <= 1.0)]
    if bad:
        ledger.fail(len(bad), f"unit {unit}: SER not finite or outside [0, 1]: "
                    + "; ".join(bad[:3]))
    missing = workload.rows_per_unit - len(rows)
    if missing:
        ledger.fail(abs(missing), f"unit {unit}: {len(rows)} rows, expected "
                    f"{workload.rows_per_unit}")
    return rows, files, elapsed


def end_to_end(args, workload):
    setup = setup_seconds(args)
    ledger = Ledger()
    reference, unit, times, completed = None, 0, [], 0
    start = time.perf_counter()
    while True:
        rows, _, elapsed = run_unit(workload, args.seed, unit, ledger)
        times.append(elapsed)
        completed += len(rows or ())
        if unit == 0:
            reference = rows
        unit += 1
        # stop when one more unit would end further past --seconds than we
        # are short of it: the body lasts --seconds give or take half a unit
        spent = time.perf_counter() - start
        if spent + spent / unit / 2 >= args.seconds:
            break
    sers = [ser for _, ser in reference or []]
    body = sum(times)
    metrics = {
        "seq_per_s": (completed / body if body else 0.0, "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        # no reference rows means the run already failed; report the worst SER
        "ser_mean": (statistics.fmean(sers) if sers else 1.0, "fraction"),
    }
    print(f"units {unit}, timed body {body:.3f} s:",
          " ".join(f"{t:.3f}" for t in times))
    return ledger, metrics


def traced(args, workload):
    from workloads import OUT_DIR
    ledger = Ledger()
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    # each unit runs untraced, then traced: the pairs give the tracing
    # overhead on the same work, and their rows must match byte for byte
    for unit in range(workload.trace_units):
        plain, plain_files, elapsed = run_unit(workload, args.seed, unit,
                                               ledger)
        untraced_s += elapsed
        tracer.unit = unit
        with tracer:
            rows, files, elapsed = run_unit(workload, args.seed, unit, ledger)
        traced_s += elapsed
        if plain is not None and rows is not None and (
                [r[0] for r in rows] != [r[0] for r in plain]
                or files != plain_files):
            differ = sum(a[0] != b[0] for a, b in zip(rows, plain))
            ledger.fail(max(differ, 1), f"unit {unit}: traced rows differ "
                        "from the untraced ones")
    totals = tracer.layer_totals()
    absent = sorted(name for name in workload.layers
                    if totals.get(name, [0])[0] == 0)
    if absent:
        raise LayerMissing("no calls recorded on " + workload.name + " for: "
                           + ", ".join(absent))
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload.name}.jsonl")
    tracer.write(spans_path)
    print(f"spans: {len(tracer.spans)} written to "
          f"{os.path.relpath(spans_path, ROOT)}")
    overhead = (100.0 * (traced_s / untraced_s - 1.0)
                if untraced_s and traced_s else 0.0)
    return ledger, layer_metrics(totals, tracer, overhead)


def environment(workload):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cfg = workload.experiment_config(0)
    return {
        "nproc": NPROC, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "dtype": cfg.dtype, "machine": platform.machine(),
    }


def main(argv=None):
    import_program()
    import workloads
    args = parse_args(sorted(workloads.WORKLOADS), argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.prepare(args.seed, 0)
        print(time.perf_counter() - _T0)
        return 0
    try:
        ledger, metrics = (traced if args.trace else end_to_end)(args,
                                                                 workload)
    except LayerMissing as e:
        sys.exit(f"perfbench: layer missing: {e}")
    for problem in ledger.problems:
        print("FAILED", problem, file=sys.stderr)
    share = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"sequences attempted {ledger.attempted}, failed {ledger.failed} "
          f"({100 * share:.1f}%)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("environment " + json.dumps(environment(workload)))
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
