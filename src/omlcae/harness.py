"""Experiment orchestration: configuration, grid runs over
methods/SNRs/shots, CSV metrics, pilot-efficiency analysis, and
constellation export.

Outputs:
  metrics.csv  -- header ``method,snr_db,shots,sequence,ser,seed``, one row
                  per (method, snr, shots, sequence)
  summary.csv  -- mean SER per grid cell over post-warm-up sequences
  constellation JSON -- learned codewords plus tagged received samples

All randomness flows through named substreams keyed by
(seed, purpose, snr, shots, sequence) -- never by method -- so every method
in a run observes the identical channel sequence and pilot noise.
"""

import configparser
import json
import math
import os
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .baselines import run_joint_cae, run_qpsk_mle, run_scratch_cae
from .cae import CaeModel, codebook, transmit
from . import metalearn
from .channel import NoiseModel
from .metalearn import (CellSettings, MetaConfig, RunConfig, online_run,
                        require_ints)

METHODS = ("oml_cae", "cae", "joint_cae", "qpsk_mle")

# Paper-scale settings vs a CI-speed desk profile.  Beyond shrinking the
# iteration budgets, the desk profile narrows the hidden layers to 64 units
# (the few-pilot regime at the reduced fine-tune budget; 256-wide nets train
# from scratch too easily in 300 steps for the comparison to say anything),
# deepens the meta objective's inner adaptation to 10 steps (a nod toward the
# 300-step deployment fine-tune the smaller budget must prepare for), and uses
# a single query shot per message during meta-training.  query_shots=None
# means the query set matches the support size.
#
# The desk profile meta-trains with Reptile at outer_lr=1e-3.  First-order
# MAML at 1e-4 left its meta-initialization decoding at SER 0.88 before the
# fine-tune (random guessing is 15/16): the query gradient at the adapted
# point overfits the 15-task buffer, and no outer_lr or adapt_steps setting
# up to 1e-3 and 10 steps got the 1-pilot OML-CAE below QPSK+MLE on a paired
# sign test at seed 0 (best 27 of 45 wins).  Reptile moves theta toward the
# parameters adapted on the buffered tasks, which at rho = 0.99 share nearly
# one channel: at 1 pilot it beats QPSK+MLE on the sign test at seeds 0-4
# (30 of 45 wins at seed 0), and it lowers the mean SER in every measured
# cell.  The paper profile keeps first-order MAML at 1e-4: that is the rule
# the paper-profile tests pin, and a paper cell is too slow to validate
# Reptile on.
#
# The paper profile computes in float32: its 256-wide steps are bound by the
# BLAS, and float32 halves the bytes each GEMM moves (a scratch-CAE paper
# cell runs about 1.47x as fast) at mean SERs within 0.01 of float64's
# (ROADMAP, item 4).  The desk step is bound by Python dispatch, and the
# acceptance criteria run desk cells, so desk, like the library defaults,
# stays float64.
PROFILES = {
    "paper": dict(n_sequences=300, outer_iters=6000, finetune_iters=1000,
                  n_eval=10000, hidden=256, adapt_steps=1, query_shots=None,
                  outer_lr=1e-4, outer_rule="fomaml", dtype="float32"),
    "desk": dict(n_sequences=60, outer_iters=1500, finetune_iters=300,
                 n_eval=4000, hidden=64, adapt_steps=10, query_shots=1,
                 outer_lr=1e-3, outer_rule="reptile"),
}

@dataclass
class ExperimentConfig(CellSettings):
    """One experiment grid: its cells' settings crossed with SNRs, shot
    counts and methods.  profile is read only by apply_profile and
    parse_config; run_experiment uses the fields as given."""

    snr_db: tuple = (5.0,)
    shots: tuple = (1, 2, 3, 4, 5)
    methods: tuple = METHODS
    profile: str = "paper"
    out_dir: str = "results"
    warmup: int = 15

    def validate(self):
        """Check the grid, then each (snr, shots) cell as RunConfig.validate
        does."""
        require_ints(self, ((f"shots[{i}]", s) for i, s in enumerate(self.shots)))
        if "qpsk_mle" in self.methods and self.k != 2 * self.n_ch:
            raise ValueError(
                f"qpsk_mle requires k = 2*n_ch, got k={self.k}, n_ch={self.n_ch}")
        for name in ("snr_db", "shots", "methods"):
            entries = getattr(self, name)
            if not entries or len(set(entries)) < len(entries):
                raise ValueError(f"{name} is empty or has repeats: {entries!r}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; choose from {METHODS}")
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        for snr in self.snr_db:
            for shots in self.shots:
                self.run_config(snr, shots).validate()

    def run_config(self, snr_db: float, shots: int) -> RunConfig:
        return RunConfig(snr_db=snr_db, shots=shots,
                         **{f.name: getattr(self, f.name)
                            for f in fields(CellSettings)})


def apply_profile(cfg: ExperimentConfig) -> ExperimentConfig:
    """Fill profile-controlled fields (desk vs paper) into the config.

    An unknown profile sets nothing, and cfg.validate() rejects it."""
    p = PROFILES.get(cfg.profile, {})
    meta = {k: v for k, v in p.items() if k in _META_KEYS}
    exp = {k: v for k, v in p.items() if k not in meta}
    return replace(cfg, meta=replace(cfg.meta, **meta), **exp)


@dataclass
class MetricsRecord:
    method: str
    snr_db: float
    shots: int
    sequence: int
    ser: float
    seed: int


def _run_cell(cfg: ExperimentConfig, method: str, snr_db: float, shots: int):
    rc = cfg.run_config(snr_db, shots)
    try:
        if method == "oml_cae":
            return online_run(rc, row=lambda i, ser, _: (i, ser))
        if method == "cae":
            return run_scratch_cae(rc)
        if method == "joint_cae":
            return run_joint_cae(rc)
        return run_qpsk_mle(rc)
    except FloatingPointError as e:
        raise FloatingPointError(f"{method}: {e}") from e


def run_experiment(cfg: ExperimentConfig):
    """Run the full (method, snr, shots) grid; returns the MetricsRecord list.

    Cells run in one process per CPU (_run_cells) and are assembled in grid
    order; per-sequence rows go to metrics.csv and post-warm-up means to
    summary.csv under cfg.out_dir, byte for byte a serial run's.
    """
    cfg.validate()
    cells = [(method, snr, shots) for method in cfg.methods
             for snr in cfg.snr_db for shots in cfg.shots]
    records = [MetricsRecord(method, snr, shots, seq, ser, cfg.seed)
               for (method, snr, shots), rows in zip(cells,
                                                     _run_cells(cfg, cells))
               for seq, ser in rows]
    os.makedirs(cfg.out_dir, exist_ok=True)
    write_metrics_csv(os.path.join(cfg.out_dir, "metrics.csv"), records)
    write_summary_csv(os.path.join(cfg.out_dir, "summary.csv"),
                      records, cfg.warmup)
    return records


def _run_cells(cfg: ExperimentConfig, cells):
    """[(sequence, ser)] rows of each (method, snr, shots) cell, in grid order.

    The cells run in one process per CPU (metalearn.pool_cpus), the caller
    counting as one: min(CPUs, cells) - 1 children are forked once, and each
    pulls the next cell of the queue, the cells between the first and the
    last in grid order, until it is empty, writing the cell's SERs into a
    shared anonymous mmap.  The caller runs the first cell, pulls from the
    same queue and then runs the last cell; between its cells it reaps the
    children that have ended.  Each process fine-tunes inline.  A cell that
    raises, in a child or in the caller, raises its exception in the caller
    (a child sends it pickled through a pipe); a child that dies without
    one raises RuntimeError naming its cell.  Whatever ends the grid, every
    child still running is killed and reaped."""
    workers = min(metalearn.pool_cpus(), len(cells))
    if workers == 1:
        return [_run_cell(cfg, *cell) for cell in cells]
    import mmap  # imported only here: mmap and signal cost 1 ms
    import pickle
    import signal

    def shared(n, dtype):  # n 8-byte entries that the children share
        return np.frombuffer(mmap.mmap(-1, 8 * n), dtype)

    last = len(cells) - 1
    sers = shared(len(cells) * cfg.n_sequences, np.float64).reshape(
        len(cells), cfg.n_sequences)
    queue = shared(workers, np.int64)  # the next cell, then each child's cell
    queue[0] = 1
    token_r, token_w = os.pipe()  # holds one byte while no process pulls
    os.write(token_w, b".")

    def pull():  # the next queued cell, None once the queue is empty
        os.read(token_r, 1)
        cell = int(queue[0])
        queue[0] = min(cell + 1, last)
        os.write(token_w, b".")
        return cell if cell < last else None

    def child_cells(slot):
        while (cell := pull()) is not None:
            queue[slot] = cell
            sers[cell] = [ser for _, ser in _run_cell(cfg, *cells[cell])]

    def reap(pid, hang=False):  # a child that has ended, else nothing
        done, status = os.waitpid(pid, 0 if hang else os.WNOHANG)
        if not done:
            return
        errors, slot = children.pop(pid)
        with open(errors, "rb") as f:  # a child's one write, at most
            sent = f.read()
        if sent:
            raise pickle.loads(sent)
        if status:
            method, snr, shots = cells[queue[slot]]
            raise RuntimeError(
                f"{method}: cell at snr {snr:g} dB, shots {shots} failed in "
                f"child process {pid} (exit code "
                f"{os.waitstatus_to_exitcode(status)})")

    rows, children = {}, {}
    metalearn._in_grid_pool = True
    try:
        for slot in range(1, workers):
            errors_r, errors_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                metalearn.run_in_child(partial(child_cells, slot), errors_w)
            os.close(errors_w)
            children[pid] = errors_r, slot
        cell = 0
        while cell is not None:
            rows[cell] = _run_cell(cfg, *cells[cell])
            for pid in list(children):
                reap(pid)
            cell = pull()
        rows[last] = _run_cell(cfg, *cells[last])
        for pid in list(children):
            reap(pid, hang=True)
    finally:
        metalearn._in_grid_pool = False
        for pid, (errors, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(errors)
        os.close(token_r)
        os.close(token_w)
    return [rows[cell] if cell in rows else
            [(i, float(ser)) for i, ser in enumerate(sers[cell], 1)]
            for cell in range(len(cells))]


def write_metrics_csv(path: str, records):
    lines = ["method,snr_db,shots,sequence,ser,seed"]
    for r in records:
        lines.append(f"{r.method},{r.snr_db:g},{r.shots},{r.sequence},"
                     f"{r.ser:.10g},{r.seed}")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def summarize(records, warmup: int):
    """Mean SER per (method, snr, shots) over sequences > warmup."""
    groups = {}
    for r in records:
        key = (r.method, r.snr_db, r.shots)
        groups.setdefault(key, []).append(r)
    out = []
    for key in groups:
        rows = [r for r in groups[key] if r.sequence > warmup]
        if not rows:  # fewer sequences than the warm-up window: keep all
            rows = groups[key]
        out.append((key[0], key[1], key[2],
                    float(np.mean([r.ser for r in rows])), len(rows),
                    rows[0].seed))
    return out


SUMMARY_HEADER = "method,snr_db,shots,mean_ser,n_sequences,warmup,seed"


def write_summary_csv(path: str, records, warmup: int):
    lines = [SUMMARY_HEADER]
    for method, snr, shots, mean_ser, n, seed in summarize(records, warmup):
        lines.append(f"{method},{snr:g},{shots},{mean_ser:.10g},{n},"
                     f"{warmup},{seed}")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


@dataclass
class EfficiencyRow:
    target_ser: float
    oml_shots: float
    cae_equivalent_shots: float  # nan when unreachable
    ratio: float                 # nan when unreachable
    reachable: bool


_SER_FLOOR = 1e-12  # keeps log-SER interpolation defined at SER = 0


def efficiency_analysis(oml_points, cae_curve):
    """Pilot efficiency: fractional shots the plain CAE needs to match each
    reference SER, by piecewise-linear interpolation in (shots, log SER).

    The CAE curve is first clamped to be non-increasing in SER (running
    minimum).  Targets below the curve's minimum are reported unreachable,
    never extrapolated; targets above the first point clamp to it.
    """
    curve = sorted(cae_curve)
    if len(curve) < 2:
        raise ValueError("cae_curve needs at least 2 points")
    shots = np.array([c[0] for c in curve], dtype=float)
    if np.any(np.diff(shots) <= 0):
        raise ValueError("cae_curve shots must be strictly increasing")
    sers = np.minimum.accumulate([max(c[1], _SER_FLOOR) for c in curve])

    # keep the leftmost point of each flat run so exact hits resolve to the
    # smallest shot count achieving that SER
    keep = np.concatenate([[True], np.diff(sers) < 0])
    shots_k, log_k = shots[keep], np.log(sers[keep])

    rows = []
    for oml_shots, oml_ser in oml_points:
        t = math.log(max(oml_ser, _SER_FLOOR))
        if t < log_k[-1]:
            rows.append(EfficiencyRow(oml_ser, oml_shots, math.nan, math.nan,
                                      False))
            continue
        if t >= log_k[0]:
            equiv = float(shots_k[0])
        else:
            equiv = float(np.interp(t, log_k[::-1], shots_k[::-1]))
        rows.append(EfficiencyRow(oml_ser, oml_shots, equiv,
                                  equiv / oml_shots, True))
    return rows


def mean_efficiency_ratio(rows) -> float:
    ratios = [r.ratio for r in rows if r.reachable]
    if not ratios:
        raise ValueError("no reachable efficiency targets")
    return float(np.mean(ratios))


def export_constellation(model: CaeModel, h: np.ndarray, noise: NoiseModel,
                         snr_db: float, n_show: int, rng: np.random.Generator,
                         out_path: str, theta: np.ndarray = None) -> dict:
    """Write learned codewords and tagged received samples as JSON.

    For n_ch = 1 each ``point`` is [re, im]; for larger n_ch it is a list of
    [re, im] pairs, one per channel use.  At +inf dB, the noiseless channel,
    ``snr_db`` is null and ``sigma2`` 0.
    """
    theta = model.params if theta is None else theta
    book = codebook(model, theta=theta)

    def points(block):
        pairs = [[float(block[2 * u]), float(block[2 * u + 1])]
                 for u in range(model.n_ch)]
        return pairs[0] if model.n_ch == 1 else pairs

    idx, y, predicted = transmit(model, theta, h, noise, n_show, rng)

    doc = {
        "k": model.k,
        "n_ch": model.n_ch,
        "snr_db": snr_db if math.isfinite(snr_db) else None,
        "h": [[float(h[2 * u]), float(h[2 * u + 1])] for u in range(model.n_ch)],
        "sigma2": noise.sigma2,
        "constellation": [
            {"message": m + 1, "point": points(book[m])}
            for m in range(model.n_messages)
        ],
        "received": [
            {"message": int(idx[i]) + 1, "predicted": int(predicted[i]) + 1,
             "correct": bool(predicted[i] == idx[i]), "point": points(y[i])}
            for i in range(n_show)
        ],
    }
    text = json.dumps(doc, indent=2, allow_nan=False)  # no file if it fails
    with open(out_path, "w", newline="\n") as f:
        f.write(text + "\n")
    return doc


# ---------------------------------------------------------------------------
# config file parsing: plain INI-style text, [experiment] and [meta] sections

def _comma_list(kind):
    def parse(text):  # argparse's error message names it by __name__
        return tuple(kind(v.strip()) for v in text.split(","))
    parse.__name__ = f"comma-separated {kind.__name__} list"
    return parse


# scalar fields parse with their own type; the tuples are comma lists
_EXPERIMENT_KEYS = {f.name: f.type for f in fields(ExperimentConfig)
                    if f.type in (int, float, str)}
_EXPERIMENT_KEYS.update(snr_db=_comma_list(float), shots=_comma_list(int),
                        methods=_comma_list(str))
_META_KEYS = {f.name: f.type for f in fields(MetaConfig)}


def parse_config(path: str = None, overrides: dict = None) -> ExperimentConfig:
    """Build an ExperimentConfig from an INI-style file plus flag overrides.

    Defaults are the paper profile.  Unknown keys are rejected; flag values
    take precedence over file values.  The profile's fields (sequence count,
    iteration budgets, n_eval, hidden width, adapt steps, query shots, outer
    lr, outer rule and, for paper, dtype) are applied last unless the file or
    flags set them explicitly.
    """
    file_vals, meta_vals = {}, {}
    if path is not None:
        parser = configparser.ConfigParser()
        with open(path) as f:
            parser.read_string(f.read())
        for section in parser.sections():
            if section == "experiment":
                table, dest = _EXPERIMENT_KEYS, file_vals
            elif section == "meta":
                table, dest = _META_KEYS, meta_vals
            else:
                raise ValueError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if key not in table:
                    raise ValueError(f"unknown config key '{key}' in [{section}]")
                try:
                    dest[key] = table[key](raw)
                except ValueError as e:
                    raise ValueError(f"bad value for '{key}': {raw!r}") from e

    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key in _META_KEYS:
            meta_vals[key] = val
        elif key in _EXPERIMENT_KEYS:
            file_vals[key] = val
        else:
            raise ValueError(f"unknown config key '{key}'")

    # the profile fills the defaults; explicit values then override it
    cfg = apply_profile(replace(ExperimentConfig(), **file_vals))
    cfg = replace(cfg, meta=replace(cfg.meta, **meta_vals), **file_vals)
    cfg.validate()
    return cfg
