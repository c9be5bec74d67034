"""Command-line interface.

Subcommands:
  run            -- execute the experiment grid, write metrics/summary CSVs
  efficiency     -- pilot-efficiency ratios from two runs' summary CSVs
  constellation  -- train on one channel realization and export JSON
  gradcheck      -- backprop vs central finite differences
  channel-stats  -- AR(1) fading statistics sanity report
"""

import argparse
import os
import sys
from collections import deque

import numpy as np

from . import rng as rngmod
from .cae import CaeModel, loss_and_grads
from .channel import FadingProcess, NoiseModel, rayleigh_sample, snr_to_sigma2, to_complex
from .baselines import scratch_starts
from .harness import (_EXPERIMENT_KEYS, PROFILES, SUMMARY_HEADER,
                      efficiency_analysis, export_constellation,
                      mean_efficiency_ratio, parse_config, run_experiment,
                      summarize)
from .metalearn import inner_adapt, make_pilot_task, online_starts
from .numerics import finite_diff_grad


def _add_run_parser(sub):
    p = sub.add_parser("run", help="run the experiment grid")
    p.add_argument("--config", default=None, help="INI config file")
    p.add_argument("--bits", type=int, dest="k")
    p.add_argument("--channel-uses", type=int, dest="n_ch")
    p.add_argument("--snr-db", dest="snr_db", type=_EXPERIMENT_KEYS["snr_db"])
    p.add_argument("--shots", type=_EXPERIMENT_KEYS["shots"])
    p.add_argument("--sequences", type=int, dest="n_sequences")
    p.add_argument("--rho", type=float)
    p.add_argument("--buffer-size", type=int, dest="buffer_capacity")
    p.add_argument("--methods", type=_EXPERIMENT_KEYS["methods"])
    p.add_argument("--seed", type=int)
    p.add_argument("--profile", choices=sorted(PROFILES))
    p.add_argument("--n-eval", type=int, dest="n_eval")
    p.add_argument("--out", dest="out_dir")


def _parse_config(command, path, overrides):
    try:
        return parse_config(path, overrides)
    except ValueError as e:  # an invalid key or value, named in the message
        raise SystemExit(f"omlcae {command}: {e}") from None


def _cmd_run(args):
    cfg = _parse_config("run", args.config,
                        {k: v for k, v in vars(args).items()
                         if k not in ("command", "config")})
    records = run_experiment(cfg)
    print(f"wrote {len(records)} rows to {os.path.join(cfg.out_dir, 'metrics.csv')}")
    for method, snr, shots, mean_ser, n, _ in summarize(records, cfg.warmup):
        print(f"  {method:10s} snr={snr:g} shots={shots}: "
              f"mean SER {mean_ser:.4g} over {n} sequences")


def _require(command, checks):
    """Exit with one line naming the first failed (ok, message) flag check."""
    for ok, message in checks:
        if not ok:
            raise SystemExit(f"omlcae {command}: {message}")


def _efficiency_curve(path, method_prefix, least):
    """(shots, mean SER) of the method's cells in a run's summary.csv; exits
    when there are fewer than least."""
    with open(path) as f:
        if (header := f.readline().strip()) != SUMMARY_HEADER:
            raise SystemExit(f"omlcae efficiency: {path} is not a summary.csv"
                             f" (header {header!r})")
        cells = [line.split(",") for line in f]
    snrs = sorted({float(snr) for _, snr, *_ in cells})
    if len(snrs) > 1:
        raise SystemExit(f"omlcae efficiency: {path} holds {len(snrs)} SNRs ("
                         f"{', '.join(map('{:g}'.format, snrs))} dB); pass one per CSV")
    curve = sorted((int(shots), float(ser)) for method, _, shots, ser, *_ in cells
                   if method.startswith(method_prefix))
    _require("efficiency", [(len(curve) >= least, f"{path}: {len(curve)} "
                             f"{method_prefix}* shot counts, need at least {least}")])
    return curve


def _cmd_efficiency(args):
    oml = _efficiency_curve(args.oml, "oml", 1)
    cae = _efficiency_curve(args.cae, "cae", 2)  # to interpolate between
    rows = efficiency_analysis(oml, cae)
    lines = ["target_ser,oml_shots,cae_equivalent_shots,ratio,reachable"]
    for r in rows:
        lines.append(f"{r.target_ser:.10g},{r.oml_shots:g},"
                     f"{r.cae_equivalent_shots:.6g},{r.ratio:.6g},"
                     f"{str(r.reachable).lower()}")
    with open(args.out, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    if any(r.reachable for r in rows):
        print(f"mean ratio over reachable targets: {mean_efficiency_ratio(rows):.3g}")
    else:
        print("mean ratio: no reachable target")


def _cmd_constellation(args):
    if args.method == "oml_cae" and args.sequences < 2:
        raise SystemExit("omlcae constellation: --method oml_cae needs --sequences"
                         " >= 2; sequence 1 fine-tunes an untrained init, as cae does")
    # the paper profile with the flags applied, validated as run's cells are
    exp = _parse_config("constellation", None, dict(
        k=args.bits, n_ch=args.channel_uses, snr_db=(args.snr_db,),
        shots=(args.shots,), n_sequences=args.sequences, seed=args.seed,
        finetune_iters=args.iters, outer_iters=args.meta_iters,
        n_eval=args.n_show, methods=(args.method,)))
    cfg = exp.run_config(args.snr_db, args.shots)
    model = cfg.build_model()
    # the start that run fine-tunes the last sequence from
    starts = online_starts if args.method == "oml_cae" else scratch_starts
    (_, h, task, start), = deque(starts(cfg, model), maxlen=1)
    theta = inner_adapt(model, start, task, cfg.meta.finetune_iters,
                        cfg.meta.inner_lr)
    if not np.isfinite(theta).all():
        raise SystemExit("omlcae constellation: non-finite parameters after "
                         f"the fine-tune of sequence {cfg.n_sequences}")
    export_constellation(model, h, NoiseModel(cfg.sigma2), cfg.snr_db,
                         cfg.n_eval, cfg.cell_substream("export"),
                         args.out, theta=theta)
    print(f"wrote constellation to {args.out}")


def _cmd_gradcheck(args):
    _require("gradcheck", [
        (0 < args.eps < np.inf, f"--eps must be finite and > 0, got {args.eps}"),
        (args.hidden >= 1, f"--hidden must be >= 1, got {args.hidden}"),
        (args.seed >= 0, f"--seed must be >= 0, got {args.seed}")])
    rels = []
    rng = rngmod.substream(args.seed, "gradcheck")
    for k in (1, 2):
        for n_ch in (1, 2):
            model = CaeModel.build(k, n_ch, rng, hidden=args.hidden)
            task = make_pilot_task(model, rayleigh_sample(rng, n_ch),
                                   snr_to_sigma2(10.0), 2, rng)
            _, grads = loss_and_grads(model, task.support, task.h)
            fd = finite_diff_grad(
                lambda th: loss_and_grads(model, task.support, task.h,
                                          theta=th)[0],
                model.params, eps=args.eps)
            # normwise: per entry, rounding and leaky-ReLU kinks skew the ratio
            rels.append(np.max(np.abs(grads - fd)) / np.max(np.abs(grads)))
            print(f"k={k} n_ch={n_ch}: normwise error {rels[-1]:.3e}")
    worst = np.max(rels)  # a NaN error is the worst and fails
    ok = worst < 1e-4
    print(f"gradcheck {'PASS' if ok else 'FAIL'} (worst {worst:.3e})")
    return 0 if ok else 1


def _cmd_channel_stats(args):
    _require("channel-stats", [
        (args.steps >= 2, f"--steps must be >= 2 for a lag-1 correlation, "
                          f"got {args.steps}"),
        (0 <= args.rho <= 1, f"--rho must be in [0, 1], got {args.rho}"),
        (args.n >= 1, f"--n must be >= 1, got {args.n}"),
        (args.seed >= 0, f"--seed must be >= 0, got {args.seed}")])
    rng = rngmod.substream(args.seed, "channel-stats")
    proc = FadingProcess(args.rho, args.n, rng)
    hs = np.stack([proc.step() for _ in range(args.steps)])
    hc = to_complex(hs)
    power = float(np.mean(np.abs(hc) ** 2))
    lag1 = float(np.mean((hc[1:] * hc[:-1].conj()).real) /
                 np.mean(np.abs(hc) ** 2))
    print(f"rho={args.rho} steps={args.steps} n={args.n}")
    print(f"  stationary E|h|^2 = {power:.4f} (expect 1.0)")
    print(f"  lag-1 correlation = {lag1:.4f} (expect {args.rho})")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="omlcae")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_parser(sub)

    p = sub.add_parser("efficiency", help="pilot-efficiency analysis")
    p.add_argument("--oml", required=True, help="summary CSV with OML-CAE rows")
    p.add_argument("--cae", required=True, help="summary CSV with CAE rows")
    p.add_argument("--out", required=True)

    p = sub.add_parser("constellation", help="export a learned constellation")
    p.add_argument("--bits", type=int, default=2)
    p.add_argument("--channel-uses", type=int, default=1)
    p.add_argument("--snr-db", type=float, default=5.0)
    p.add_argument("--shots", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sequences", type=int, default=1)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--meta-iters", type=int, default=200)
    p.add_argument("--n-show", type=int, default=200)
    p.add_argument("--method", choices=("cae", "oml_cae"), default="cae")
    p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="backprop vs finite differences")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--hidden", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("channel-stats", help="AR fading statistics")
    p.add_argument("--rho", type=float, default=0.99)
    p.add_argument("--steps", type=int, default=100000)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "efficiency": _cmd_efficiency,
        "constellation": _cmd_constellation,
        "gradcheck": _cmd_gradcheck,
        "channel-stats": _cmd_channel_stats,
    }
    return handlers[args.command](args) or 0


if __name__ == "__main__":
    sys.exit(main())
