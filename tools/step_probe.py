"""Paper-width SGD steps, timed: fine-tunes serially and on 2 threads, and
the meta step.

    python3 tools/step_probe.py --steps 200 --rounds 11
    python3 tools/step_probe.py --root ../other-checkout

It imports ``omlcae`` from the ``src/`` of ``--root`` (default: the
checkout that holds this script), so runs alternated between two checkouts
compare their steps on one machine.  For float32 and float64 at 1 and 5
shots it builds the paper-profile scratch-CAE cell at 5 dB and seed 0
(``baselines.scratch_starts``) and, each round, times:

- ``--steps`` fine-tune steps of sequence 1, ``metalearn.inner_adapt`` on a
  one-sequence block as ``fine_tune_blocks`` runs it at the paper width;
- the same fine-tune of sequences 1 and 2 at once, on a pool of 2 threads;
- ``--steps`` chained first-order MAML ``metalearn.outer_meta_step`` calls
  on the cell's first ``tasks_per_update`` (5) tasks, from a fresh Adam
  state.

A round runs every measure once, so drift in the machine's speed spreads
over all of them.  The probe prints each measure's median, lowest and
highest time per step (per step pair on the threads) over the rounds, and a
sha256 prefix of each final parameter vector: checkouts that print the same
prefixes computed bitwise-equal parameters.  It exits non-zero if a round's
parameters differ from the first round's, or the threads' from the serial
fine-tune's.  Importing ``omlcae`` before numpy gives every measure one BLAS
thread.
"""

import argparse
import os
import sys
import time
from dataclasses import replace
from itertools import islice
from statistics import median

THREADS = 2
CELLS = [(dtype, shots) for dtype in ("float32", "float64")
         for shots in (1, 5)]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--rounds", type=int, default=11)
    args = p.parse_args(argv)
    for name in ("steps", "rounds"):
        if getattr(args, name) < 1:
            p.error(f"--{name} must be >= 1, got {getattr(args, name)}")
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    import omlcae  # before numpy: one BLAS thread
    from omlcae import baselines, harness, metalearn
    from omlcae.numerics import AdamState
    from concurrent.futures import ThreadPoolExecutor
    import numpy as np

    cfg = harness.apply_profile(harness.ExperimentConfig(
        snr_db=(5.0,), seed=0, profile="paper"))
    tasks = cfg.meta.tasks_per_update
    cells = {}
    for dtype, shots in CELLS:
        rc = replace(cfg.run_config(5.0, shots), dtype=getattr(np, dtype))
        model = rc.build_model()
        starts = list(islice(baselines.scratch_starts(rc, model),
                             max(tasks, THREADS)))
        cells[dtype, shots] = rc, model, starts

    def fine_tune(model, rc, start):
        _, _, task, theta = start
        return metalearn.inner_adapt(model, theta[None], [task], args.steps,
                                     rc.meta.inner_lr)[0]

    pool = ThreadPoolExecutor(THREADS)

    def serial(rc, model, starts):
        return [fine_tune(model, rc, starts[0])]

    def threads(rc, model, starts):
        return list(pool.map(lambda s: fine_tune(model, rc, s),
                             starts[:THREADS]))

    def meta_steps(rc, model, starts):
        theta, adam = model.params, AdamState.fresh(model.n_params,
                                                    model.params.dtype)
        sample = [s[2] for s in starts[:tasks]]
        for _ in range(args.steps):
            adam, theta = metalearn.outer_meta_step(
                model, theta, sample, rc.meta, adam, rc.meta.outer_lr)
        return [theta]

    measures = {"serial step": serial, f"{THREADS}-thread pair": threads,
                f"{tasks}-task meta step": meta_steps}
    seconds, hashes = {}, {}
    with pool:
        for _ in range(args.rounds):
            for cell, (rc, model, starts) in cells.items():
                for name, measure in measures.items():
                    t0 = time.perf_counter()
                    thetas = measure(rc, model, starts)
                    seconds.setdefault((cell, name), []).append(
                        (time.perf_counter() - t0) / args.steps)
                    got = [metalearn.theta_hash(t)[:12] for t in thetas]
                    if hashes.setdefault((cell, name), got) != got:
                        sys.exit(f"{cell} {name}: parameters differ between "
                                 f"rounds")

    print(f"omlcae from {os.path.dirname(omlcae.__file__)}, numpy "
          f"{np.__version__}, width {cfg.hidden}, {args.rounds} round(s) of "
          f"{args.steps} steps; microseconds per step")
    print(f"{'dtype':8s}{'shots':>5s}  {'measure':20s}{'median':>9s}"
          f"{'min':>9s}{'max':>9s}  sha256")
    for (cell, name), times in seconds.items():
        us = [t * 1e6 for t in times]
        print(f"{cell[0]:8s}{cell[1]:5d}  {name:20s}{median(us):9.1f}"
              f"{min(us):9.1f}{max(us):9.1f}  {' '.join(hashes[cell, name])}")
    for cell in cells:
        pair = hashes[cell, f"{THREADS}-thread pair"]
        if pair[0] != hashes[cell, "serial step"][0]:
            sys.exit(f"{cell}: the threads' fine-tune differs from the "
                     f"serial one")


if __name__ == "__main__":
    main()
