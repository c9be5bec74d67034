"""Unit tests for MAML loops, the task buffer, and the online protocol."""

import importlib.util
import inspect
import os
from dataclasses import replace
from itertools import product, repeat

import numpy as np
import pytest

from omlcae import cae, metalearn, rng as rngmod
from omlcae.cae import CaeModel, loss_and_grads, one_hot_batch, pilot_batch
from omlcae.channel import rayleigh_sample, snr_to_sigma2
from omlcae.cae import pipeline_loss_grads
from omlcae.metalearn import (OUTER_RULES, MetaConfig, RunConfig, Task,
                              TaskBuffer, _stack_tasks, buffer_push,
                              channel_sequence, inner_adapt, make_pilot_task,
                              meta_train, online_run, outer_meta_step, run_sgd,
                              task_sequence, theta_hash)
from omlcae.numerics import (AdamState, adam_step, adam_step_inplace,
                             step_lr)


def small_model(k=2, n_ch=1, seed=0, hidden=8):
    return CaeModel.build(k, n_ch, rngmod.substream(seed, "mm", k, n_ch),
                          hidden=hidden)


def make_task(model, seed, shots=1, sigma2=0.1, query_shots=None):
    rng = rngmod.substream(seed, "task")
    h = rayleigh_sample(rng, model.n_ch)
    return make_pilot_task(model, h, sigma2, shots, rng,
                           query_shots=query_shots)


def test_make_pilot_task_counts_and_determinism():
    model = small_model(k=2)
    task = make_task(model, 0, shots=1)
    assert len(task.support) == 4 and len(task.query) == 4
    model4 = small_model(k=4, n_ch=2, hidden=8)
    task = make_task(model4, 0, shots=5)
    assert len(task.support) == 80 and len(task.query) == 80
    t1 = make_task(model, 7)
    t2 = make_task(model, 7)
    assert np.array_equal(t1.support, t2.support)
    assert np.array_equal(t1.query, t2.query)
    t3 = make_task(model, 7, query_shots=3)
    assert len(t3.support) == 4 and len(t3.query) == 12
    with pytest.raises(ValueError):
        make_task(model, 0, shots=0)


def test_buffer_fifo_semantics():
    buf = TaskBuffer(capacity=15)
    tasks = [object() for _ in range(16)]
    for t in tasks:
        buffer_push(buf, t)
    assert len(buf) == 15
    assert all(buf[i] is tasks[i + 1] for i in range(15))
    buf = TaskBuffer(capacity=1)
    buffer_push(buffer_push(buf, tasks[0]), tasks[1])
    assert len(buf) == 1 and buf[0] is tasks[1]
    buf = TaskBuffer(capacity=5)
    for t in tasks[:4]:
        buffer_push(buf, t)
    assert len(buf) == 4 and buf[0] is tasks[0]
    with pytest.raises(ValueError):
        TaskBuffer(0)
    # a float capacity was truncated (2.5 to 2) and a bool taken as 1
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=f"capacity must be an integer, "
                                             f"got {bad!r}"):
            TaskBuffer(bad)
    assert TaskBuffer(np.int64(2)).maxlen == 2


def test_inner_adapt_alpha_zero_and_purity():
    model = small_model()
    task = make_task(model, 1)
    theta = model.params
    before = theta.copy()
    out = inner_adapt(model, theta, task, steps=3, alpha=0.0)
    assert np.array_equal(out, theta) and out is not theta
    inner_adapt(model, theta, task, steps=5, alpha=0.05)
    assert np.array_equal(theta, before)


def test_inner_adapt_one_step_is_sgd_on_support():
    model = small_model()
    task = make_task(model, 2)
    got = inner_adapt(model, model.params, task, steps=1, alpha=0.05)
    _, grads = loss_and_grads(model, task.support, task.h)
    want = model.params - 0.05 * grads
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("hidden", [64, 256])
@pytest.mark.parametrize("shots", [1, 5])
def test_stacked_fine_tune_matches_separate_inner_adapt_bitwise(hidden, shots):
    # T tasks fine-tuned as one inner_adapt call on a pre-stacked (T, P)
    # theta reproduce T separate fine-tunes bit for bit, at the desk (64)
    # and paper (256) widths, in float64 and float32; fine_tune_blocks
    # relies on this for every block size, 1 included
    for dtype in (np.float64, np.float32):
        model = CaeModel.build(4, 2, rngmod.substream(0, "stk", hidden),
                               hidden=hidden, dtype=dtype)
        rng = rngmod.substream(1, "stk", hidden, shots)
        for n_tasks in (1, 3, 5, 8, 9):
            tasks = [make_pilot_task(model, rayleigh_sample(rng, 2), 0.3,
                                     shots, rng) for _ in range(n_tasks)]
            starts = [model.init_like(rng) for _ in tasks]
            want = [inner_adapt(model, th, t, 4, 0.05)
                    for th, t in zip(starts, tasks)]
            got = inner_adapt(model, np.stack(starts), tasks, 4, 0.05)
            assert got.dtype == dtype
            assert np.array_equal(got, np.stack(want))
        # the meta step's support pass, from one shared theta, also matches
        batch = _stack_tasks(model, tasks[:3], "support", dtype)
        got = run_sgd(model, np.tile(model.params, (3, 1)), repeat(batch, 4),
                      0.05)
        want = [inner_adapt(model, model.params, t, 4, 0.05)
                for t in tasks[:3]]
        assert np.array_equal(got, np.stack(want))


@pytest.mark.parametrize("hidden", [64, 256])
def test_run_sgd_matches_the_two_pass_update_bitwise(hidden):
    # every step is the gradient pass, then grads * -lr + theta: from a (P,)
    # theta broadcast over a stack, from a (T, P) one and on the joint CAE's
    # flat batch, and theta is never written
    for dtype in (np.float64, np.float32):
        model = CaeModel.build(4, 2, rngmod.substream(2, "sgd", hidden),
                               hidden=hidden, dtype=dtype)
        rng = rngmod.substream(3, "sgd", hidden)
        tasks = [make_pilot_task(model, rayleigh_sample(rng, 2), 0.3, 1, rng)
                 for _ in range(3)]
        stack = _stack_tasks(model, tasks, "support", dtype)
        # the joint CAE's flat batch: one one-hot and one channel per row
        m = model.n_messages
        flat = (one_hot_batch(rng.integers(1, m + 1, size=2 * m), m, dtype),
                stack[1][:2].reshape(-1, 4),
                rng.normal(size=(2 * m, 4)).astype(dtype), 1)
        neg_lr = dtype(-0.05)
        for theta, batch in [(model.params, stack),
                             (np.stack([model.init_like(rng) for _ in tasks]),
                              stack),
                             (model.params, flat)]:
            onehot, noise, h, rep = batch
            before, want = theta.copy(), theta
            for _ in range(3):
                _, grads = pipeline_loss_grads(model, want, onehot, noise, h,
                                               want_loss=False, repeats=rep)
                grads *= neg_lr
                grads += want
                want = grads
            got = run_sgd(model, theta, repeat(batch, 3), 0.05)
            assert got.dtype == dtype
            assert np.array_equal(got, want)
            assert np.array_equal(theta, before)


def _tracing():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("hidden", [64, 256])
def test_engine_calls_bind_to_the_tracer_signature(monkeypatch, hidden):
    # perfbench/tracing.py reads every pipeline_loss_grads call through
    # _pipeline_shape's signature; a keyword it does not know would stop a
    # traced benchmark run with LayerMissing
    signature = inspect.signature(_tracing()._pipeline_shape)
    real, calls = pipeline_loss_grads, []

    def bound(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(metalearn, "pipeline_loss_grads", bound)
    monkeypatch.setattr(cae, "pipeline_loss_grads", bound)
    model = CaeModel.build(4, 2, rngmod.substream(4, "bind"), hidden=hidden)
    rng = rngmod.substream(5, "bind")
    tasks = [make_pilot_task(model, rayleigh_sample(rng, 2), 0.3, 1, rng)
             for _ in range(2)]
    run_sgd(model, model.params, [pilot_batch(model, tasks[0].support,
                                              tasks[0].h, np.float64)], 0.05)
    for rule in OUTER_RULES:
        outer_meta_step(model, model.params, tasks,
                        MetaConfig(adapt_steps=2, outer_rule=rule),
                        AdamState.fresh(model.n_params), 1e-3)
    loss_and_grads(model, tasks[0].support, tasks[0].h)
    # one SGD step; 2 Reptile steps; 2 FOMAML steps and its query pass; one
    assert len(calls) == 7


def test_inner_adapt_descends_support_loss():
    model = small_model()
    task = make_task(model, 3)
    loss0, _ = loss_and_grads(model, task.support, task.h)
    theta = inner_adapt(model, model.params, task, steps=50, alpha=0.05)
    loss1, _ = loss_and_grads(model, task.support, task.h, theta=theta)
    assert loss1 < loss0


def _naive_outer_step(model, theta, tasks, config, adam_state, lr):
    """Reference meta-step built from the public pieces, one task at a time."""
    adapted = [inner_adapt(model, theta, task, config.adapt_steps,
                           config.inner_lr) for task in tasks]
    if config.outer_rule == "reptile":
        meta_grad = theta - np.mean(adapted, axis=0)
    else:
        meta_grad = np.mean([loss_and_grads(model, task.query, task.h,
                                            theta=phi)[1]
                             for task, phi in zip(tasks, adapted)], axis=0)
    return adam_step(adam_state, theta, meta_grad, lr)


def test_outer_meta_step_matches_naive_reference():
    model = small_model(k=2, n_ch=2, hidden=10)
    tasks = [make_task(model, s, shots=2) for s in range(5)]
    lr = 1e-4
    for rule in OUTER_RULES:
        config = MetaConfig(adapt_steps=2, outer_rule=rule)
        theta = model.params.copy()
        s1, t1 = outer_meta_step(model, theta, tasks, config,
                                 AdamState.fresh(model.n_params), lr)
        s2, t2 = _naive_outer_step(model, model.params, tasks, config,
                                   AdamState.fresh(model.n_params), lr)
        assert np.max(np.abs(t1 - t2)) < 1e-12, rule
        assert np.max(np.abs(t1 - model.params)) > 0, rule
        # the new theta is a new array, and the input is left as it was
        assert not np.shares_memory(t1, theta), rule
        assert np.array_equal(theta, model.params), rule


def test_outer_meta_step_alpha_zero_collapses_to_adam():
    # with alpha=0 the update must bitwise-equal plain Adam on the mean
    # query gradient at theta (evaluated over the same stacked batch)
    model = small_model(k=2, n_ch=1, hidden=8)
    tasks = [make_task(model, s) for s in range(3)]
    config = MetaConfig(inner_lr=0.0, adapt_steps=4)
    lr = 1e-4
    _, t1 = outer_meta_step(model, model.params, tasks, config,
                            AdamState.fresh(model.n_params), lr)
    query = _stack_tasks(model, tasks, "query", model.params.dtype)
    _, g = pipeline_loss_grads(model, model.params, query[0], query[1],
                               query[2], repeats=query[3], mean_grads=True)
    _, t2 = adam_step(AdamState.fresh(model.n_params), model.params, g, lr)
    assert np.array_equal(t1, t2)
    # and agrees with the per-task mean up to summation order
    g_naive = np.mean([loss_and_grads(model, t.query, t.h)[1] for t in tasks],
                      axis=0)
    assert np.max(np.abs(g - g_naive)) < 1e-13


def test_outer_meta_step_beta_zero_keeps_theta():
    model = small_model()
    tasks = [make_task(model, 0)]
    _, t1 = outer_meta_step(model, model.params, tasks, MetaConfig(),
                            AdamState.fresh(model.n_params), 0.0)
    assert np.array_equal(t1, model.params)
    with pytest.raises(ValueError):
        outer_meta_step(model, model.params, [], MetaConfig(),
                        AdamState.fresh(model.n_params), 1e-4)


def test_outer_meta_step_reptile_alpha_zero_keeps_theta():
    # with alpha=0 every task adapts to theta itself, so the Reptile
    # meta-gradient theta - mean phi is exactly zero and Adam from a fresh
    # state leaves theta bitwise unchanged
    model = small_model(k=2, n_ch=1, hidden=8)
    tasks = [make_task(model, s) for s in range(3)]
    for steps in (0, 4):
        config = MetaConfig(inner_lr=0.0, adapt_steps=steps,
                            outer_rule="reptile")
        _, t1 = outer_meta_step(model, model.params, tasks, config,
                                AdamState.fresh(model.n_params), 1e-3)
        assert np.array_equal(t1, model.params)


def test_outer_meta_step_identical_tasks_equal_single():
    model = small_model()
    task = make_task(model, 4, shots=2)
    config = MetaConfig()
    _, t1 = outer_meta_step(model, model.params, [task] * 5, config,
                            AdamState.fresh(model.n_params), 1e-4)
    _, t2 = outer_meta_step(model, model.params, [task], config,
                            AdamState.fresh(model.n_params), 1e-4)
    assert np.max(np.abs(t1 - t2)) < 1e-12


def test_meta_train_matches_naive_loop_bitwise():
    model = small_model(k=2, n_ch=1, hidden=8)
    buf = TaskBuffer(MetaConfig().buffer_capacity)
    for s in range(4):
        buffer_push(buf, make_task(model, s, shots=2))
    theta0 = model.params.copy()
    # 6 tasks per update from a 4-task buffer samples with replacement, as
    # every online run does while its buffer is short
    for rule, k in product(OUTER_RULES, (3, 6)):
        config = MetaConfig(outer_iters=25, tasks_per_update=k,
                            outer_rule=rule)
        got = meta_train(model, model.params, buf, config,
                         rngmod.substream(9, "sample"))
        assert np.array_equal(model.params, theta0)  # caller array untouched

        rng = rngmod.substream(9, "sample")
        theta = model.params
        adam = AdamState.fresh(model.n_params)
        n = len(buf)
        for it in range(config.outer_iters):
            idx = rng.choice(n, size=config.tasks_per_update,
                             replace=n < config.tasks_per_update)
            lr = step_lr(config.outer_lr, it, config.lr_step_size,
                         config.lr_gamma)
            adam, theta = outer_meta_step(model, theta, [buf[i] for i in idx],
                                          config, adam, lr)
        assert np.array_equal(got, theta), (rule, k)


def _full_stack_outer_step(model, theta, tasks, config, adam_state, lr):
    """The meta step adapting every sampled copy: run_sgd on the full
    _stack_tasks stack for all adapt_steps, then the outer rule and Adam."""
    support = _stack_tasks(model, tasks, "support", theta.dtype)
    adapted = run_sgd(model, theta, repeat(support, config.adapt_steps),
                      config.inner_lr)
    if config.outer_rule == "reptile":
        meta_grad = theta - (adapted.mean(axis=0) if adapted.ndim > 1
                             else adapted)
    else:
        onehot, noise, h, rep = _stack_tasks(model, tasks, "query", theta.dtype)
        _, meta_grad = pipeline_loss_grads(model, adapted, onehot, noise, h,
                                           want_loss=False, repeats=rep,
                                           mean_grads=True)
    return adam_step_inplace(adam_state, theta, meta_grad, lr)


def desk_model_and_tasks(shots, dtype, n_tasks=5):
    model = CaeModel.build(4, 2, rngmod.substream(0, "repeats"), hidden=64,
                           dtype=dtype)
    rng = rngmod.substream(1, "repeats", shots)
    return model, [make_pilot_task(model, rayleigh_sample(rng, 2), 0.3, shots,
                                   rng) for _ in range(n_tasks)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shots", [1, 5])
def test_outer_meta_step_adapts_repeated_tasks_once_bitwise(shots, dtype):
    # a repeated task adapts once after the shared first step; theta and
    # the Adam moments equal adapting every copy bit for bit, at the desk
    # width (a first step on the distinct tasks alone fails this at 1 shot)
    model, pool = desk_model_and_tasks(shots, dtype)
    pool = dict(zip("abcde", pool))
    for rule, steps, inner_lr in product(OUTER_RULES, (1, 10), (0.05, 0.0)):
        config = MetaConfig(inner_lr=inner_lr, adapt_steps=steps,
                            outer_rule=rule)
        for sample in ("aaaaa", "ababa", "cabac", "abcda", "abcde"):
            tasks = [pool[name] for name in sample]
            got_state = AdamState.fresh(model.n_params, dtype=dtype)
            want_state = AdamState.fresh(model.n_params, dtype=dtype)
            _, got = outer_meta_step(model, model.params, tasks, config,
                                     got_state, 1e-3)
            _, want = _full_stack_outer_step(model, model.params, tasks,
                                             config, want_state, 1e-3)
            where = (rule, steps, inner_lr, sample)
            assert got.dtype == dtype, where
            assert np.array_equal(got, want), where
            assert np.array_equal(got_state.m, want_state.m), where
            assert np.array_equal(got_state.v, want_state.v), where


@pytest.mark.parametrize("rule", OUTER_RULES)
def test_meta_train_over_short_buffers_matches_full_stack_loop_bitwise(
        monkeypatch, rule):
    # buffers of 1-4 tasks sampled 5 at a time with replacement: the
    # distinct-task stack height varies between steps
    model, pool = desk_model_and_tasks(1, np.float64, n_tasks=4)
    config = MetaConfig(adapt_steps=10, outer_iters=25, tasks_per_update=5,
                        outer_rule=rule)
    real, heights = pipeline_loss_grads, set()

    def traced(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        heights.add(grads.shape[:-1])
        return loss, grads

    monkeypatch.setattr(metalearn, "pipeline_loss_grads", traced)
    for n in range(1, 5):
        buf = TaskBuffer(config.buffer_capacity)
        buf.extend(pool[:n])
        got = meta_train(model, model.params, buf, config,
                         rngmod.substream(n, "short"))
        rng = rngmod.substream(n, "short")
        theta, adam = model.params, AdamState.fresh(model.n_params)
        for it in range(config.outer_iters):
            idx = rng.choice(n, size=5, replace=n < 5)
            lr = step_lr(config.outer_lr, it, config.lr_step_size,
                         config.lr_gamma)
            adam, theta = _full_stack_outer_step(
                model, theta, [buf[i] for i in idx], config, adam, lr)
        assert np.array_equal(got, theta), n
    assert {(1,), (2,), (3,), (4,), (5,)} <= heights


def test_meta_train_edge_cases():
    model = small_model()
    config = MetaConfig(outer_iters=0)
    buf = TaskBuffer(15)
    with pytest.raises(ValueError):
        meta_train(model, model.params, buf, config, rngmod.substream(0, "s"))
    buffer_push(buf, make_task(model, 0))
    out = meta_train(model, model.params, buf, config, rngmod.substream(0, "s"))
    assert np.array_equal(out, model.params)
    # single-task buffer: sampling must fall back to replacement
    config = MetaConfig(outer_iters=3, tasks_per_update=5)
    out = meta_train(model, model.params, buf, config, rngmod.substream(0, "s"))
    assert out.shape == model.params.shape


def test_meta_train_improves_adapted_query_loss():
    model = small_model(k=2, n_ch=1, hidden=16)
    config = MetaConfig(outer_iters=300, finetune_iters=50)
    buf = TaskBuffer(15)
    tasks = [make_task(model, s, shots=1, sigma2=snr_to_sigma2(10.0))
             for s in range(10)]
    for t in tasks:
        buffer_push(buf, t)

    def mean_adapted_query_loss(theta):
        losses = []
        for t in tasks:
            adapted = inner_adapt(model, theta, t, 1, config.inner_lr)
            losses.append(loss_and_grads(model, t.query, t.h, theta=adapted)[0])
        return np.mean(losses)

    before = mean_adapted_query_loss(model.params)
    theta = meta_train(model, model.params, buf, config,
                       rngmod.substream(11, "s"))
    after = mean_adapted_query_loss(theta)
    assert after < before


def test_metaconfig_validation():
    with pytest.raises(ValueError):
        MetaConfig(inner_lr=-0.1).validate()
    for name in ("inner_lr", "outer_lr"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=name):
                MetaConfig(**{name: bad}).validate()
    for bad in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="lr_gamma"):
            MetaConfig(lr_gamma=bad).validate()
    MetaConfig(inner_lr=0.0, lr_gamma=1.0).validate()
    for name in ("tasks_per_update", "lr_step_size", "buffer_capacity"):
        with pytest.raises(ValueError, match=name):
            MetaConfig(**{name: 0}).validate()
    with pytest.raises(ValueError, match="outer_rule"):
        MetaConfig(outer_rule="maml").validate()
    for rule in OUTER_RULES:
        MetaConfig(outer_rule=rule).validate()
    # library runners, which skip ExperimentConfig, validate it too
    cfg = RunConfig(k=2, n_ch=1, n_sequences=1, hidden=8,
                    meta=MetaConfig(tasks_per_update=0))
    with pytest.raises(ValueError, match="tasks_per_update"):
        next(task_sequence(cfg, cfg.build_model()))


def test_task_sequence_method_insensitive_and_deterministic():
    cfg = RunConfig(k=2, n_ch=1, snr_db=5.0, shots=1, n_sequences=4,
                    seed=3, hidden=8)
    model = cfg.build_model()
    seq1 = [(i, h.copy(), t.support.copy())
            for i, h, t in task_sequence(cfg, model)]
    seq2 = list(task_sequence(cfg, model))
    channels = list(channel_sequence(cfg))
    assert len(seq1) == len(seq2) == len(channels) == 4
    for (i1, h1, n1), (i2, h2, t2), (i3, h3) in zip(seq1, seq2, channels):
        assert i1 == i2 == i3
        assert np.array_equal(h1, h2)
        assert np.array_equal(h1, h3)
        assert np.array_equal(n1, t2.support)


def test_online_run_single_sequence_and_determinism():
    meta = MetaConfig(outer_iters=5, finetune_iters=10)
    cfg = RunConfig(k=2, n_ch=1, snr_db=5.0, shots=1, n_sequences=2,
                    n_eval=200, seed=0, meta=meta, hidden=8)
    res1 = online_run(cfg)
    assert [r.sequence for r in res1] == [1, 2]
    assert all(0.0 <= r.ser_after_adapt <= 1.0 for r in res1)
    res2 = online_run(cfg)
    assert [(r.ser_after_adapt, r.theta_snapshot_hash) for r in res1] == \
           [(r.ser_after_adapt, r.theta_snapshot_hash) for r in res2]


def test_online_run_splits_meta_budget_across_sequences():
    # outer_iters is the total budget: chunks of 2, 2, 1 over 3 sequences,
    # with one continuous Adam state and lr schedule
    meta = MetaConfig(outer_iters=5, finetune_iters=6)
    cfg = RunConfig(k=2, n_ch=1, snr_db=5.0, shots=1, n_sequences=3,
                    n_eval=50, seed=4, meta=meta, hidden=8)
    res = online_run(cfg)

    model = cfg.build_model()
    theta = model.params
    buf = TaskBuffer(meta.buffer_capacity)
    rng = cfg.cell_substream("task-sampling")
    adam = AdamState.fresh(model.n_params)
    done = 0
    hashes = []
    for i, h, task in task_sequence(cfg, model):
        star = inner_adapt(model, theta, task, meta.finetune_iters,
                           meta.inner_lr)
        hashes.append(theta_hash(star))
        buffer_push(buf, task)
        chunk = 2 if i < 3 else 1
        theta = meta_train(model, theta, buf,
                           replace(meta, outer_iters=chunk), rng,
                           iter_offset=done, adam=adam)
        done += chunk
    assert [r.theta_snapshot_hash for r in res] == hashes


def test_online_run_eval_size_does_not_perturb_training():
    meta = MetaConfig(outer_iters=4, finetune_iters=8)
    base = dict(k=2, n_ch=1, snr_db=5.0, shots=1, n_sequences=2, seed=1,
                meta=meta, hidden=8)
    r1 = online_run(RunConfig(n_eval=100, **base))
    r2 = online_run(RunConfig(n_eval=400, **base))
    # the fine-tuned parameters are identical; only the SER estimate varies
    assert [r.theta_snapshot_hash for r in r1] == \
           [r.theta_snapshot_hash for r in r2]


def test_theta_hash_distinguishes():
    a = np.zeros(4)
    assert theta_hash(a) == theta_hash(a.copy())
    b = a.copy()
    b[0] = 1e-300
    assert theta_hash(a) != theta_hash(b)
