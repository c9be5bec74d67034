"""Paper-width fine-tunes run serially, on threads and on fork processes.

    python3 tools/worker_probe.py --steps 400

Run it from the root of a checkout; it imports the package from ``src/``.
It takes the first two sequences of the paper-profile scratch-CAE cell at
5 dB, 5 shots and seed 0 (``baselines.scratch_starts``) and fine-tunes each
``--steps`` steps with ``metalearn.inner_adapt`` three ways: one after the
other, on a pool of 2 threads, and on a pool of 2 processes started by
``fork``.  It exits non-zero unless the three ways give bitwise-equal
parameters, and prints each way's wall time and its speed-up over serial.
Importing ``omlcae`` before numpy gives every way one BLAS thread.
"""

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from itertools import islice
from multiprocessing import get_context

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from omlcae import baselines, harness, metalearn  # noqa: E402

import numpy as np  # noqa: E402

WORKERS = 2
JOBS = []  # (model, start theta, task, steps, lr); fork children inherit it


def fine_tune(j):
    model, theta, task, steps, lr = JOBS[j]
    return metalearn.inner_adapt(model, theta, task, steps, lr)


def timed(make_pool):
    """(wall seconds, fine-tuned thetas) of every job, on the pool that
    make_pool returns, or serially when it returns None."""
    t0 = time.perf_counter()
    pool = make_pool()
    if pool is None:
        thetas = [fine_tune(j) for j in range(len(JOBS))]
    else:
        with pool:
            thetas = list(pool.map(fine_tune, range(len(JOBS))))
    return time.perf_counter() - t0, thetas


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--steps", type=int, default=400)
    args = p.parse_args(argv)
    if args.steps < 1:
        p.error(f"--steps must be >= 1, got {args.steps}")
    cfg = harness.apply_profile(harness.ExperimentConfig(
        snr_db=(5.0,), shots=(5,), seed=0, profile="paper"))
    rc = cfg.run_config(5.0, 5)
    model = rc.build_model()
    for _, _, task, theta in islice(baselines.scratch_starts(rc, model),
                                    WORKERS):
        JOBS.append((model, theta, task, args.steps, rc.meta.inner_lr))
    # in this order, so the processes fork before any pool thread starts
    ways = {"serial": lambda: None,
            "fork processes": lambda: ProcessPoolExecutor(
                WORKERS, mp_context=get_context("fork")),
            "threads": lambda: ThreadPoolExecutor(WORKERS)}
    results = {way: timed(make_pool) for way, make_pool in ways.items()}
    print(f"{len(JOBS)} fine-tunes of {args.steps} steps, width "
          f"{rc.hidden}, {model.n_params} {model.params.dtype} parameters, "
          f"{WORKERS} workers")
    serial_s, serial = results["serial"]
    for way, (seconds, _) in results.items():
        print(f"{way:15s} {seconds:.3f} s  {serial_s / seconds:.2f}x serial")
    for way, (_, thetas) in results.items():
        if not all(np.array_equal(a, b) for a, b in zip(serial, thetas)):
            sys.exit(f"{way} fine-tunes differ from the serial ones")


if __name__ == "__main__":
    main()
