"""Comparison systems: QPSK + maximum-likelihood channel estimation, a
scratch-trained CAE, and a jointly-trained CAE.

All CAE baselines consume the exact same Task objects (channels and pilot
noise) as the meta-learned system, and QPSK+MLE the same channels, so
comparisons are paired per sequence.
"""

import numpy as np

from .cae import CaeModel
from .channel import NoiseModel, awgn, cmul, conj
from .metalearn import (RunConfig, _chunk_schedule, channel_sequence,
                        fine_tune_blocks, run_sgd, task_sequence)

# Gray map: bit pair (b0, b1) -> unit-energy QPSK point, indexed by 2*b0+b1.
# 00 -> (+1+j)/sqrt2, 01 -> (-1+j)/sqrt2, 10 -> (+1-j)/sqrt2, 11 -> (-1-j)/sqrt2.
QPSK_POINTS = np.array([[1.0, 1.0],
                        [-1.0, 1.0],
                        [1.0, -1.0],
                        [-1.0, -1.0]]) / np.sqrt(2.0)


def mle_channel_estimate(pilot_tx, pilot_rx) -> np.ndarray:
    """Per-use ML (least-squares under AWGN) channel estimate.

    h_hat_u = sum_p conj(x_pu) * y_pu / sum_p |x_pu|^2
    """
    tx = np.atleast_2d(np.asarray(pilot_tx))
    rx = np.atleast_2d(np.asarray(pilot_rx))
    if tx.shape != rx.shape or tx.shape[0] == 0:
        raise ValueError("pilot_tx and pilot_rx must be matched nonempty lists")
    tr, ti = tx[:, 0::2], tx[:, 1::2]
    den = np.sum(tr * tr + ti * ti, axis=0)
    if np.any(den == 0):
        raise ValueError("zero pilot energy on some channel use")
    return cmul(conj(tx), rx).sum(axis=0) / np.repeat(den, 2)


def qpsk_mle_ser(h: np.ndarray, noise: NoiseModel, shots: int, k: int,
                 n_eval: int, rng: np.random.Generator,
                 perfect_csi: bool = False) -> float:
    """Message error rate of Gray-coded QPSK with MLE channel estimation.

    Each message carries k bits, two per channel use; a message errs if any
    bit is demodulated incorrectly.  The pilot is the all-ones QPSK point
    repeated `shots` times per use (any fixed known pilot is ML-equivalent).
    """
    if n_eval < 1:
        raise ValueError("n_eval must be >= 1")
    if k % 2 != 0:
        raise ValueError("QPSK requires an even number of bits (k = 2*n_ch)")
    n = k // 2
    if h.shape[-1] != 2 * n:
        raise ValueError(f"h length {h.shape[-1]} != {2 * n}")

    if perfect_csi:
        h_hat = h
    else:
        if shots < 1:
            raise ValueError("shots must be >= 1")
        pilot_tx = np.full((shots, 2 * n), 1.0 / np.sqrt(2.0))
        pilot_noise = awgn(rng, n, noise.sigma2, size=shots)
        pilot_rx = cmul(h, pilot_tx) + pilot_noise
        h_hat = mle_channel_estimate(pilot_tx, pilot_rx)

    bits = rng.integers(0, 2, size=(n_eval, n, 2))
    point_idx = 2 * bits[..., 0] + bits[..., 1]
    x = QPSK_POINTS[point_idx].reshape(n_eval, 2 * n)
    y = cmul(h, x) + awgn(rng, n, noise.sigma2, size=n_eval)

    # matched filter z = conj(h_hat) * y; per-component sign decides each bit
    z = cmul(conj(h_hat), y)
    b1_hat = (z[:, 0::2] <= 0).astype(np.int64)
    b0_hat = (z[:, 1::2] <= 0).astype(np.int64)
    bit_errors = (b0_hat != bits[..., 0]) | (b1_hat != bits[..., 1])
    return float(np.mean(np.any(bit_errors, axis=-1)))


def _joint_train(model: CaeModel, theta: np.ndarray, store, iters: int,
                 lr: float, tasks_per_batch: int,
                 rng: np.random.Generator) -> np.ndarray:
    """iters run_sgd steps on mixed batches drawn across stored tasks, each
    row carrying its own task's channel.

    A batch concatenates the picked tasks' support then query rows, one
    one-hot per row.  The store is stacked once per call and indexed per
    iteration.
    """
    dtype = theta.dtype
    eye = np.eye(model.n_messages, dtype=dtype)
    task_onehot = np.concatenate([
        np.repeat(eye, len(pilots) // len(eye), axis=0)
        for pilots in (store[0].support, store[0].query)])
    noise = np.stack([np.concatenate([t.support, t.query])
                      for t in store]).astype(dtype, copy=False)
    h = np.stack([np.broadcast_to(t.h, noise.shape[1:])
                  for t in store]).astype(dtype, copy=False)
    n_pick = min(tasks_per_batch, len(store))
    onehot = np.tile(task_onehot, (n_pick, 1))
    d = noise.shape[-1]
    batches = ((onehot, noise[idx].reshape(-1, d), h[idx].reshape(-1, d), 1)
               for idx in (rng.choice(len(store), size=n_pick, replace=False)
                           for _ in range(iters)))
    return run_sgd(model, theta, batches, lr)


def scratch_starts(cfg: RunConfig, model: CaeModel):
    """Yield (i, h, task, start theta) per sequence of the scratch CAE: the
    start is a fresh init, the ("scratch-init", i) draw."""
    for i, h, task in task_sequence(cfg, model):
        yield i, h, task, model.init_like(cfg.cell_substream("scratch-init", i))


def joint_starts(cfg: RunConfig, model: CaeModel):
    """Yield (i, h, task, start theta) per sequence of the joint CAE: store
    the task, then train the warm-started parameters on mixed batches over
    every stored task; the start is the jointly trained theta, which carries
    forward.  For compute parity with online_starts, cfg.meta.outer_iters is
    the whole run's joint budget, split over the sequences by the same
    schedule."""
    chunks = _chunk_schedule(cfg.meta.outer_iters, cfg.n_sequences)
    theta, store = model.params, []
    sample_rng = cfg.cell_substream("joint-sample")
    for i, h, task in task_sequence(cfg, model):
        store.append(task)
        theta = _joint_train(model, theta, store, chunks[i - 1],
                             cfg.meta.inner_lr, cfg.meta.tasks_per_update,
                             sample_rng)
        yield i, h, task, theta  # _joint_train never writes its theta


def run_scratch_cae(cfg: RunConfig, model: CaeModel = None):
    """Scratch-CAE: fine-tune and score every start of scratch_starts;
    returns [(sequence, ser)]."""
    if model is None:
        model = cfg.build_model()
    return fine_tune_blocks(model, cfg, scratch_starts(cfg, model),
                            lambda i, ser, _: (i, ser))


def run_joint_cae(cfg: RunConfig, model: CaeModel = None):
    """Joint-CAE: fine-tune and score every start of joint_starts; returns
    [(sequence, ser)]."""
    if model is None:
        model = cfg.build_model()
    return fine_tune_blocks(model, cfg, joint_starts(cfg, model),
                            lambda i, ser, _: (i, ser))


def run_qpsk_mle(cfg: RunConfig):
    """QPSK+MLE over the shared channel sequence alone (QPSK sends its own
    pilots); returns [(sequence, ser)]."""
    if cfg.k != 2 * cfg.n_ch:
        raise ValueError("qpsk_mle requires k = 2 * n_ch")
    results = []
    for i, h in channel_sequence(cfg):  # validates cfg first
        ser = qpsk_mle_ser(h.astype(np.float64), NoiseModel(cfg.sigma2),
                           cfg.shots, cfg.k, cfg.n_eval,
                           cfg.cell_substream("qpsk-pilots", i))
        results.append((i, ser))
    return results
