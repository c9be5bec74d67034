"""Paper-width SGD steps, timed: fine-tunes serially and through the
shipped scheduler, and the meta step.

    python3 tools/step_probe.py --steps 200 --rounds 11
    python3 tools/step_probe.py --root ../other-checkout

It imports ``omlcae`` from the ``src/`` of ``--root`` (default: the
checkout that holds this script), so runs alternated between two checkouts
compare their steps on one machine.  For float32 and float64 at 1 and 5
shots it builds the paper-profile scratch-CAE cell at 5 dB and seed 0
(``baselines.scratch_starts``) and, each round, times:

- ``--steps`` fine-tune steps of sequences 1 and 2, one after the other,
  each ``metalearn.inner_adapt`` on a one-sequence block as
  ``fine_tune_blocks`` runs it at the paper width;
- the same two fine-tunes through ``metalearn.fine_tune_blocks``, as the
  runners schedule them on this machine's CPUs, with a row that returns
  the fine-tuned theta; scoring is cut to one symbol, so the measure is the
  fine-tunes.  With ``--root`` on another checkout it is that checkout's
  scheduler, so alternating runs compare two schedulers on one machine;
- ``--steps`` chained first-order MAML ``metalearn.outer_meta_step`` calls
  on the cell's first ``tasks_per_update`` (5) tasks, from a fresh Adam
  state.

A round runs every measure once, so drift in the machine's speed spreads
over all of them.  The probe prints each measure's median, lowest and
highest time per step (per step pair on the scheduler) over the rounds,
the scheduler's speed-up over the serial pair in the median, and a sha256
prefix of each final parameter vector: checkouts that print the same
prefixes computed bitwise-equal parameters.  It exits non-zero if a round's
parameters differ from the first round's, or the scheduler's fine-tune
from the serial fine-tune of the same sequence.  Importing
``omlcae`` before numpy gives every measure one BLAS thread.
"""

import argparse
import os
import sys
import time
from dataclasses import replace
from functools import partial
from itertools import islice
from statistics import median

PAIR = 2  # fine-tunes per measure
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
    import numpy as np

    cfg = harness.apply_profile(harness.ExperimentConfig(
        snr_db=(5.0,), seed=0, profile="paper"))
    tasks = cfg.meta.tasks_per_update
    cells, jobs, block_runs = {}, {}, {}
    for cell in CELLS:
        dtype, shots = cell
        rc = replace(cfg.run_config(5.0, shots), dtype=dtype)
        model = rc.build_model()
        starts = list(islice(baselines.scratch_starts(rc, model),
                             max(tasks, PAIR)))
        cells[cell] = rc, model, [s[2] for s in starts[:tasks]]
        blocks_cfg = replace(rc, n_eval=1, meta=replace(
            rc.meta, finetune_iters=args.steps))
        block_runs[cell] = model, blocks_cfg, starts[:PAIR]
        jobs[cell] = [partial(metalearn.inner_adapt, model, theta[None],
                              [task], args.steps, rc.meta.inner_lr)
                      for _, _, task, theta in starts[:PAIR]]

    def serial_pair(cell):
        return [job()[0] for job in jobs[cell]]

    def blocks(cell):
        model, blocks_cfg, pair_starts = block_runs[cell]
        return metalearn.fine_tune_blocks(model, blocks_cfg, iter(pair_starts),
                                          lambda i, ser, theta: theta)

    def meta_steps(cell):
        rc, model, sample = cells[cell]
        theta, adam = model.params, AdamState.fresh(model.n_params,
                                                    model.params.dtype)
        for _ in range(args.steps):
            adam, theta = metalearn.outer_meta_step(
                model, theta, sample, rc.meta, adam, rc.meta.outer_lr)
        return [theta]

    serial, scheduled = "serial step", "fine_tune_blocks pair"
    measures = {serial: serial_pair, scheduled: blocks,
                f"{tasks}-task meta step": meta_steps}
    seconds, hashes = {}, {}
    for _ in range(args.rounds):
        for cell in cells:
            for name, measure in measures.items():
                t0 = time.perf_counter()
                thetas = measure(cell)
                steps = args.steps * (PAIR if name == serial else 1)
                seconds.setdefault((cell, name), []).append(
                    (time.perf_counter() - t0) / steps)
                got = [metalearn.theta_hash(t) for t in thetas]
                if hashes.setdefault((cell, name), got) != got:
                    sys.exit(f"{cell} {name}: parameters differ between "
                             f"rounds")

    print(f"omlcae from {os.path.dirname(omlcae.__file__)}, numpy "
          f"{np.__version__}, width {cfg.hidden}, {args.rounds} round(s) of "
          f"{args.steps} steps; microseconds per step")
    print(f"{'dtype':8s}{'shots':>5s}  {'measure':22s}{'median':>9s}"
          f"{'min':>9s}{'max':>9s}{'speed-up':>9s}  sha256")
    for (cell, name), times in seconds.items():
        us = [t * 1e6 for t in times]
        speedup = PAIR * median(seconds[cell, serial]) / median(times)
        speedup = f"{speedup:.2f}x" if name == scheduled else ""
        print(f"{cell[0]:8s}{cell[1]:5d}  {name:22s}{median(us):9.1f}"
              f"{min(us):9.1f}{max(us):9.1f}{speedup:>9s}  "
              f"{' '.join(h[:12] for h in hashes[cell, name])}")
    for cell in cells:
        if hashes[cell, scheduled] != hashes[cell, serial]:
            sys.exit(f"{cell}: the {scheduled}'s fine-tunes differ from the "
                     f"serial ones")


if __name__ == "__main__":
    main()
