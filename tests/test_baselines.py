"""Unit tests for the QPSK+MLE, scratch-CAE, and joint-CAE baselines."""

import os
import platform
import re
import subprocess
import sys
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from omlcae import baselines, metalearn
from omlcae import rng as rngmod
from omlcae.baselines import (QPSK_POINTS, _joint_train, mle_channel_estimate,
                              qpsk_mle_ser, run_joint_cae, run_qpsk_mle,
                              run_scratch_cae)
from omlcae.cae import CaeModel, evaluate_ser, pipeline_loss_grads
from omlcae.channel import NoiseModel, awgn, cmul, rayleigh_sample
from omlcae.metalearn import (FINE_TUNE_BLOCK_BYTES, MetaConfig, RunConfig,
                              TaskBuffer, _chunk_schedule, inner_adapt,
                              make_pilot_task, meta_train, online_run,
                              sequence_ser, task_sequence, theta_hash)
from omlcae.numerics import AdamState


def test_qpsk_gray_map_unit_energy_and_adjacency():
    assert np.allclose(np.sum(QPSK_POINTS ** 2, axis=-1), 1.0)
    # adjacent points (min nonzero distance) differ in exactly one bit
    bits = [(0, 0), (0, 1), (1, 0), (1, 1)]
    d = np.linalg.norm(QPSK_POINTS[:, None] - QPSK_POINTS[None, :], axis=-1)
    dmin = np.min(d[d > 0])
    for i in range(4):
        for j in range(4):
            if 0 < d[i, j] <= dmin + 1e-9:
                flips = sum(a != b for a, b in zip(bits[i], bits[j]))
                assert flips == 1


def test_qpsk_config_requires_even_k():
    h = rayleigh_sample(rngmod.substream(0, "odd-k"), 2)
    with pytest.raises(ValueError, match="even"):
        qpsk_mle_ser(h, NoiseModel(0.1), 1, 3, 10,
                     rngmod.substream(0, "odd-k-eval"))


def test_mle_estimate_exact_on_noiseless_pilots():
    rng = rngmod.substream(0, "mle")
    h = rayleigh_sample(rng, 2)
    tx = rng.normal(size=(5, 4))
    rx = cmul(h, tx)
    assert np.allclose(mle_channel_estimate(tx, rx), h, atol=1e-12)


def test_mle_estimate_single_pilot_and_errors():
    got = mle_channel_estimate(np.array([[1.0, 0.0]]), np.array([[2.0, 2.0]]))
    assert np.allclose(got, [2.0, 2.0])
    with pytest.raises(ValueError):
        mle_channel_estimate(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        mle_channel_estimate(np.zeros((1, 2)), np.zeros((1, 2)))


def test_mle_estimate_scale_equivariance():
    rng = rngmod.substream(1, "mle-eq")
    h = rayleigh_sample(rng, 1)
    tx = rng.normal(size=(4, 2))
    rx = cmul(h, tx) + awgn(rng, 1, 0.1, size=4)
    c = np.array([0.7, -1.2])  # complex scalar as interleaved pair
    h1 = mle_channel_estimate(tx, rx)
    h2 = mle_channel_estimate(tx, cmul(c, rx))
    assert np.allclose(h2, cmul(c, h1), atol=1e-12)


def test_mle_error_shrinks_with_pilots():
    rng = rngmod.substream(2, "mle-var")
    sigma2 = 0.5
    errs = {}
    for p in (1, 4, 16):
        sq = []
        for _ in range(400):
            h = rayleigh_sample(rng, 1)
            tx = np.tile(np.array([1.0, 0.0]), (p, 1))
            rx = cmul(h, tx) + awgn(rng, 1, sigma2, size=p)
            sq.append(np.sum((mle_channel_estimate(tx, rx) - h) ** 2))
        errs[p] = np.mean(sq)
    # variance ~ sigma2/p: each 4x pilot increase shrinks error ~4x
    assert errs[1] / errs[4] > 2.5
    assert errs[4] / errs[16] > 2.5


def test_qpsk_ser_noiseless_and_perfect_csi_oracle():
    rng = rngmod.substream(3, "qpsk0")
    h = rayleigh_sample(rng, 2)
    assert qpsk_mle_ser(h, NoiseModel(0.0), 1, 4, 2000, rng) == 0.0
    # perfect CSI, h=1, Es/N0=10dB: per-message error 1-(1-Q(sqrt(10)))^k
    q = 7.827011290012763e-4
    k = 4
    want = 1.0 - (1.0 - q) ** k
    n_eval = 200000
    h1 = np.array([1.0, 0.0, 1.0, 0.0])
    ser = qpsk_mle_ser(h1, NoiseModel(0.1), 1, k, n_eval,
                       rngmod.substream(3, "qpsk-csi"), perfect_csi=True)
    sigma = np.sqrt(want * (1 - want) / n_eval)
    assert abs(ser - want) < 3 * sigma


def test_qpsk_ser_rejects_an_empty_evaluation():
    # an empty evaluation scored NaN, so run_qpsk_mle printed [nan, nan]
    h = rayleigh_sample(rngmod.substream(3, "qpsk-empty"), 2)
    with pytest.raises(ValueError, match="n_eval must be >= 1"):
        qpsk_mle_ser(h, NoiseModel(0.1), 1, 4, 0, rngmod.substream(3, "e"))


def test_qpsk_ser_improves_with_pilots():
    # paired means over many channels: 100-shot estimation beats 1-shot
    nm = NoiseModel(10 ** (-0.5))
    rng = rngmod.substream(4, "qpsk-sh")
    s1, s100 = [], []
    for i in range(200):
        h = rayleigh_sample(rng, 1)
        s1.append(qpsk_mle_ser(h, nm, 1, 2, 500,
                               rngmod.substream(5, "a", i)))
        s100.append(qpsk_mle_ser(h, nm, 100, 2, 500,
                                 rngmod.substream(5, "a", i)))
    assert np.mean(s1) >= np.mean(s100)


def test_scratch_baseline_noiseless_fit():
    model = CaeModel.build(2, 1, rngmod.substream(6, "sb"), hidden=32)
    rng = rngmod.substream(6, "sb-task")
    h = rayleigh_sample(rng, 1)
    task = make_pilot_task(model, h, 0.0, 1, rng)
    theta = inner_adapt(model, model.init_like(rngmod.substream(6, "sb-init")),
                        task, 300, 0.05)
    ser = evaluate_ser(model, task.h, NoiseModel(0.0), 1000,
                       rngmod.substream(6, "sb-eval"), theta=theta)
    assert ser <= 0.001


def test_scratch_baseline_untrained_is_random_guess():
    model = CaeModel.build(2, 1, rngmod.substream(7, "sb0"), hidden=8)
    rng = rngmod.substream(7, "t")
    h = rayleigh_sample(rng, 1)
    task = make_pilot_task(model, h, 0.1, 1, rng)
    theta = inner_adapt(model, model.init_like(rngmod.substream(7, "i")),
                        task, 0, 0.05)
    ser = evaluate_ser(model, task.h, NoiseModel(0.1), 4000,
                       rngmod.substream(7, "e"), theta=theta)
    # untrained net still errs at roughly the random-guess rate
    assert ser > 0.5


def test_joint_baseline_carries_state_and_improves_over_random():
    model = CaeModel.build(2, 1, rngmod.substream(8, "jb"), hidden=16)
    theta = model.params.copy()
    store = deque()
    rng = rngmod.substream(8, "jt")
    sers = []
    for i in range(3):
        h = rayleigh_sample(rng, 1)
        task = make_pilot_task(model, h, 0.05, 2, rng)
        store.append(task)
        theta = _joint_train(model, theta, store, 100, 0.05, 5,
                             rngmod.substream(8, "js"))
        theta_ft = inner_adapt(model, theta, task, 50, 0.05)
        sers.append(evaluate_ser(model, task.h, NoiseModel(0.05), 2000,
                                 rngmod.substream(8, "je", i), theta=theta_ft))
    assert not np.array_equal(theta, model.params)
    assert sers[-1] < 0.75


def _joint_train_reference(model, theta, store, iters, lr, tasks_per_batch,
                           rng):
    """The joint CAE's own SGD loop before it ran through run_sgd: the loss
    computed, each step a new theta - lr * grads."""
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
    for _ in range(iters):
        idx = rng.choice(len(store), size=n_pick, replace=False)
        _, grads = pipeline_loss_grads(model, theta, onehot,
                                       noise[idx].reshape(-1, d),
                                       h[idx].reshape(-1, d))
        theta = theta - lr * grads
    return theta


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_joint_train_bitwise_matches_its_former_sgd_loop(dtype):
    # _joint_train steps through run_sgd; the old per-step update gave the
    # same bits, with stores smaller than, equal to and past tasks_per_batch
    model = CaeModel.build(2, 1, rngmod.substream(4, "jr"), hidden=8,
                           dtype=dtype)
    rng = rngmod.substream(4, "jr-tasks")
    tasks = [make_pilot_task(model, rayleigh_sample(rng, 1, dtype=dtype), 0.1,
                             2, rng, query_shots=1) for _ in range(7)]
    theta = model.params
    for n_store in (2, 5, 7):
        store = deque(tasks[:n_store])
        got = _joint_train(model, theta, store, 20, 0.05, 5,
                           rngmod.substream(4, "js", n_store))
        want = _joint_train_reference(model, theta, store, 20, 0.05, 5,
                                      rngmod.substream(4, "js", n_store))
        assert got.dtype == dtype
        assert np.array_equal(got, want)
        assert not np.array_equal(got, theta)
    assert np.array_equal(theta, model.params)  # the input is never written


def test_joint_spends_the_meta_budget_and_oml_the_chunks_that_reach_a_row(
        monkeypatch):
    # over one run, the joint CAE's SGD iterations sum to outer_iters, split
    # over the sequences as OML-CAE's meta chunks are; OML-CAE runs only the
    # chunks a sequence fine-tunes from, so not the one after the last
    meta = MetaConfig(outer_iters=7, finetune_iters=2)
    cfg = RunConfig(k=2, n_ch=1, snr_db=5.0, shots=1, n_sequences=3,
                    n_eval=50, seed=0, meta=meta, hidden=8)
    joint, oml = [], []
    joint_train, meta_train = baselines._joint_train, metalearn.meta_train

    def counted_joint_train(model, theta, store, iters, *args):
        joint.append(iters)
        return joint_train(model, theta, store, iters, *args)

    def counted_meta_train(model, theta, buffer, config, *args, **kwargs):
        oml.append(config.outer_iters)
        return meta_train(model, theta, buffer, config, *args, **kwargs)

    monkeypatch.setattr(baselines, "_joint_train", counted_joint_train)
    monkeypatch.setattr(metalearn, "meta_train", counted_meta_train)
    run_joint_cae(cfg)
    online_run(cfg)
    assert sum(joint) == meta.outer_iters
    assert joint == [3, 2, 2]
    assert oml == [3, 2]


def _with_model(runner):
    # a model built from a valid cell: the runner alone can check its config
    def run(cfg):
        return runner(cfg, model=RunConfig(k=2, n_ch=1, hidden=8).build_model())
    return run


@pytest.mark.parametrize("runner", [
    online_run, run_scratch_cae, run_joint_cae, run_qpsk_mle,
    pytest.param(_with_model(online_run), id="online_run-model"),
    pytest.param(_with_model(run_joint_cae), id="run_joint_cae-model")])
@pytest.mark.parametrize("name, bad, message", [
    ("shots", True, "RunConfig.shots must be an integer, got True"),
    ("query_shots", 0, "query_shots must be >= 1 when set"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("snr_db", float("nan"), "snr_db entry nan has no finite noise variance"),
    ("snr_db", True, "RunConfig.snr_db is not a real number: True"),
    ("dtype", np.int64, "RunConfig.dtype must be float32 or float64, "
                        "got int64"),
    ("dtype", "float16", "RunConfig.dtype must be float32 or float64, "
                         "got float16"),
    ("dtype", np.dtype(np.complex128), "RunConfig.dtype must be float32 or "
                                       "float64, got complex128")])
def test_runners_reject_an_invalid_run_config(monkeypatch, runner, name, bad,
                                              message):
    # the library path skips ExperimentConfig: a bool ran as 1 shot (or at
    # 1 dB), a zero query size ran, a negative seed died in numpy's seeding
    # (with a given model, also in online_run and run_joint_cae), a NaN
    # SNR was blamed on the fine-tune, and an integer, half or complex dtype
    # trained on cast weights
    def train(*args, **kwargs):
        raise AssertionError("trained on an invalid config")

    monkeypatch.setattr(metalearn, "run_sgd", train)
    monkeypatch.setattr(baselines, "run_sgd", train)
    cfg = RunConfig(k=2, n_ch=1, n_sequences=2, n_eval=50, hidden=8,
                    meta=MetaConfig(outer_iters=2, finetune_iters=3),
                    **{name: bad})
    with pytest.raises(ValueError, match=re.escape(message)):
        runner(cfg)


def test_run_qpsk_requires_matching_dims():
    cfg = RunConfig(k=3, n_ch=1, n_sequences=1, n_eval=10, hidden=8)
    with pytest.raises(ValueError):
        run_qpsk_mle(cfg)


def test_runners_share_the_channel_sequence(monkeypatch):
    meta = MetaConfig(outer_iters=2, finetune_iters=5)
    cfg = RunConfig(k=2, n_ch=1, snr_db=5.0, shots=1, n_sequences=3,
                    n_eval=100, seed=2, meta=meta, hidden=8)
    r_cae = run_scratch_cae(cfg)
    r_qpsk = run_qpsk_mle(cfg)
    assert [i for i, _ in r_cae] == [i for i, _ in r_qpsk] == [1, 2, 3]
    assert all(0.0 <= s <= 1.0 for _, s in r_cae + r_qpsk)

    # QPSK+MLE runs on the channel stream alone: no CAE, no CAE pilots
    def unused(*args, **kwargs):
        raise AssertionError("QPSK+MLE must not build a CAE or its pilots")

    monkeypatch.setattr(metalearn, "make_pilot_task", unused)
    monkeypatch.setattr(CaeModel, "build", unused)
    assert run_qpsk_mle(cfg) == r_qpsk


def _per_sequence_reference(cfg, method):
    """Each runner as one fine-tune per sequence, right after its start
    parameters exist; returns [(sequence, ser, theta hash)]."""
    model = cfg.build_model()
    meta = cfg.meta
    chunks = _chunk_schedule(meta.outer_iters, cfg.n_sequences)
    theta = model.params.copy()
    buffer, store = TaskBuffer(meta.buffer_capacity), deque()
    adam = AdamState.fresh(model.n_params)
    rng = cfg.cell_substream("task-sampling" if method == "oml_cae"
                             else "joint-sample")
    rows, done = [], 0
    for i, h, task in task_sequence(cfg, model):
        if method == "cae":
            theta = model.init_like(cfg.cell_substream("scratch-init", i))
        elif method == "joint_cae":
            store.append(task)
            theta = _joint_train(model, theta, store, chunks[i - 1],
                                 meta.inner_lr, meta.tasks_per_update, rng)
        tuned = inner_adapt(model, theta, task, meta.finetune_iters,
                            meta.inner_lr)
        rows.append((i, sequence_ser(model, cfg, i, h, tuned),
                     theta_hash(tuned)))
        if method == "oml_cae":
            buffer.append(task)
            theta = meta_train(model, theta, buffer,
                               replace(meta, outer_iters=chunks[i - 1]), rng,
                               iter_offset=done, adam=adam)
            done += chunks[i - 1]
    return rows


@pytest.mark.parametrize("outer_iters,n_sequences,called", [
    (7, 3, [3, 2]), (1, 3, [1]), (7, 1, [])])
def test_online_run_meta_trains_only_the_chunks_that_reach_a_row(
        monkeypatch, outer_iters, n_sequences, called):
    # the reference meta-trains after every sequence, the last one included;
    # online_run skips that chunk, which no row reads, and keeps every row
    meta = MetaConfig(outer_iters=outer_iters, finetune_iters=2)
    cfg = RunConfig(k=2, n_ch=1, snr_db=5.0, shots=1,
                    n_sequences=n_sequences, n_eval=50, seed=1, meta=meta,
                    hidden=8)
    want = _per_sequence_reference(cfg, "oml_cae")
    chunks = []

    def counted_meta_train(model, theta, buffer, config, *args, **kwargs):
        chunks.append(config.outer_iters)
        return meta_train(model, theta, buffer, config, *args, **kwargs)

    monkeypatch.setattr(metalearn, "meta_train", counted_meta_train)
    rows = online_run(cfg, row=lambda i, ser, th: (i, ser, theta_hash(th)))
    assert rows == want
    assert chunks == called


def _cae_runners(cfg):
    return {
        "oml_cae": lambda: [(r.sequence, r.ser_after_adapt)
                            for r in online_run(cfg)],
        "cae": lambda: run_scratch_cae(cfg),
        "joint_cae": lambda: run_joint_cae(cfg),
    }


def test_blocked_runners_match_per_sequence_reference(monkeypatch):
    # 11 desk-width sequences fine-tune in blocks of 8 and 3; rows and
    # fine-tuned parameters equal one fine-tune per sequence, bit for bit
    meta = MetaConfig(outer_iters=33, finetune_iters=4, adapt_steps=2,
                      tasks_per_update=3, outer_rule="reptile",
                      outer_lr=1e-3)
    cfg = RunConfig(k=4, n_ch=2, snr_db=5.0, shots=1, n_sequences=11,
                    n_eval=300, seed=2, meta=meta, hidden=64, query_shots=1)
    width = FINE_TUNE_BLOCK_BYTES // (cfg.build_model().params.nbytes)
    assert 1 < width < cfg.n_sequences and cfg.n_sequences % width
    scored = []

    def logged(model, cfg, i, h, theta):
        scored.append((i, theta_hash(theta)))
        return sequence_ser(model, cfg, i, h, theta)

    monkeypatch.setattr(metalearn, "sequence_ser", logged)
    runners = _cae_runners(cfg)
    for method, run in runners.items():
        scored.clear()
        rows = run()
        want = _per_sequence_reference(cfg, method)
        assert rows == [(i, ser) for i, ser, _ in want], method
        assert scored == [(i, digest) for i, _, digest in want], method


def _one_sequence_blocks(monkeypatch):
    # one sequence per block, as at the paper width, on a small desk cell
    monkeypatch.setattr(metalearn, "FINE_TUNE_BLOCK_BYTES", 1)
    meta = MetaConfig(outer_iters=10, finetune_iters=4, adapt_steps=2,
                      tasks_per_update=3, outer_rule="reptile",
                      outer_lr=1e-3)
    return RunConfig(k=4, n_ch=2, snr_db=5.0, shots=1, n_sequences=5,
                     n_eval=300, seed=3, meta=meta, hidden=64, query_shots=1)


def _allow_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                        raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pooled_fine_tunes_match_serial_in_sequence_order(monkeypatch):
    # one CPU keeps every fine-tune in the caller; with c CPUs up to c - 1
    # run in forked children at once, and the caller fine-tunes the block
    # that fills the window and the last block.  Rows and the scored thetas
    # come out the same, in sequence order, and equal one fine-tune per
    # sequence
    scored, in_caller, live, most = [], [], [0], [0]
    fork, waitpid = os.fork, os.waitpid

    def logged(model, cfg, i, h, theta):
        scored.append((i, theta_hash(theta)))
        return sequence_ser(model, cfg, i, h, theta)

    def adapt(model, theta, tasks, *args, **kwargs):
        # a child's append dies with the child
        in_caller.append(next(i for i, s in enumerate(supports, 1)
                              if np.array_equal(tasks[0].support, s)))
        return inner_adapt(model, theta, tasks, *args, **kwargs)

    def counted_fork():
        pid = fork()
        if pid:
            live[0] += 1
            most[0] = max(most[0], live[0])
        return pid

    def counted_waitpid(pid, options):
        live[0] -= pid > 0
        return waitpid(pid, options)

    monkeypatch.setattr(metalearn, "sequence_ser", logged)
    monkeypatch.setattr(metalearn, "inner_adapt", adapt)
    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "waitpid", counted_waitpid)
    five = _one_sequence_blocks(monkeypatch)
    # (CPUs, sequences, the sequences fine-tuned in the caller, most
    # children at once): at 3 CPUs the caller takes every third sequence
    # once the window is full, and the last, even when a cell is too short
    # to fill the window
    cases = [({0}, 5, [1, 2, 3, 4, 5], 0), ({0, 1}, 5, [2, 4, 5], 1),
             ({0, 1, 2}, 5, [3, 5], 2), ({0, 1, 2}, 7, [3, 6, 7], 2),
             ({0, 1, 2}, 2, [2], 1)]
    for method in ("oml_cae", "cae", "joint_cae"):
        for cpus, n, caller_runs, children in cases:
            cfg = replace(five, n_sequences=n)
            supports = [task.support for *_, task in
                        task_sequence(cfg, cfg.build_model())]
            want = _per_sequence_reference(cfg, method)
            _allow_cpus(monkeypatch, cpus)
            scored.clear()
            in_caller.clear()
            most[0] = 0
            rows = _cae_runners(cfg)[method]()
            assert rows == [(i, ser) for i, ser, _ in want], (method, cpus)
            assert scored == [(i, digest) for i, _, digest in want]
            assert in_caller == caller_runs, (method, cpus, n)
            assert most[0] == children and live[0] == 0
            assert_no_child_left()


@pytest.mark.parametrize("sequence, in_child", [(3, True), (4, False)])
@pytest.mark.parametrize("method", ["oml_cae", "cae", "joint_cae"])
def test_failed_fine_tune_names_its_sequence_and_leaves_no_child(
        monkeypatch, capfd, method, sequence, in_child):
    # at two CPUs sequences 1 and 3 fine-tune in forked children and 2, 4
    # and 5 in the caller, sequence 4 while sequence 3's child is in flight
    cfg = _one_sequence_blocks(monkeypatch)
    _allow_cpus(monkeypatch, {0, 1})
    support = [task.support for *_, task in
               task_sequence(cfg, cfg.build_model())][sequence - 1]

    def failing(model, theta, tasks, *args, **kwargs):
        if np.array_equal(tasks[0].support, support):
            raise ValueError("fine-tune broke")
        return inner_adapt(model, theta, tasks, *args, **kwargs)

    monkeypatch.setattr(metalearn, "inner_adapt", failing)
    where = r" in child process \d+ \(exit code 1\)" if in_child else ""
    with pytest.raises(RuntimeError, match=f"^fine-tune failed{where} at snr "
                       f"5 dB, shots 1, sequence {sequence}$") as error:
        _cae_runners(cfg)[method]()
    assert_no_child_left()
    if in_child:  # the child printed its traceback
        assert "ValueError: fine-tune broke" in capfd.readouterr().err
    else:
        assert str(error.value.__cause__) == "fine-tune broke"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MALLOC_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
               "GLIBC_TUNABLES")


def run_python(code, preset):
    """Run code in a fresh interpreter whose BLAS and malloc variables are
    just preset."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items()
           if k not in BLAS_VARS + MALLOC_VARS}
    env.update(preset, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-W", "always", "-c", code],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "3"}])
def test_import_gives_one_blas_thread_unless_set(preset):
    # pool threads times BLAS threads must not exceed the cores; a value
    # the user set wins.  The package import sets the process up and loads
    # nothing else: callers import each name from its module
    done = run_python("import os, sys, omlcae; print(*(os.environ[v] for v "
                      f"in {BLAS_VARS!r})); print(*sorted(m for m in "
                      "sys.modules if m == 'numpy' or "
                      "m.startswith('omlcae.')))", preset)
    want = [preset.get(v, "1") for v in BLAS_VARS]
    blas, loaded = done.stdout.split("\n")[:2]
    assert blas.split() == want
    assert loaded == ""


@pytest.mark.parametrize("code, preset, warns", [
    ("import numpy, omlcae", {}, True),
    ("import omlcae, numpy", {}, False),
    ("import numpy, omlcae", {"OPENBLAS_NUM_THREADS": "1"}, False)])
def test_import_after_numpy_warns_unless_a_blas_variable_is_set(code, preset,
                                                                 warns):
    # numpy has read the BLAS variables by then, so the default cannot apply
    done = run_python(code, preset)
    assert done.stderr.count("RuntimeWarning") == int(warns), done.stderr
    if warns:
        assert all(v in done.stderr for v in BLAS_VARS)


# 50 rounds of two filled 625 KiB arrays, after one round to warm up
PAGE_FAULTS = """
import resource, omlcae, numpy as np
def rounds(n):
    for _ in range(n):
        a, b = np.ones(80_000), np.ones(80_000)
        del a, b
rounds(1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
rounds(50)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc")
@pytest.mark.parametrize("preset", [
    {}, {"MALLOC_TRIM_THRESHOLD_": "131072"},
    {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"}])
def test_import_keeps_freed_arrays_in_the_process_unless_malloc_is_tuned(
        preset):
    # glibc unmaps a freed 625 KiB block by default, so every round faults
    # all its pages in again; the import keeps such blocks in malloc's free
    # lists, unless the user tuned malloc, whose setting wins
    pages = 50 * 2 * -(-80_000 * 8 // os.sysconf("SC_PAGESIZE"))
    faults = int(run_python(PAGE_FAULTS, preset).stdout)
    if preset:
        assert faults > 0.9 * pages
    else:
        assert faults < 0.1 * pages
