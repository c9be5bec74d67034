"""Unit tests for the channel autoencoder pipeline."""

import tracemalloc

import numpy as np
import pytest

from omlcae import numerics
from omlcae import rng as rngmod
from omlcae.cae import (CaeModel, codebook, decode, encode, evaluate_ser,
                        loss_and_grads, normalize_power, one_hot_batch,
                        pipeline_loss_grads, transmit)
from omlcae.channel import NoiseModel, awgn, rayleigh_sample
from omlcae.numerics import finite_diff_grad


def small_model(k=2, n_ch=1, seed=0, hidden=8):
    return CaeModel.build(k, n_ch, rngmod.substream(seed, "model", k, n_ch),
                          hidden=hidden)


def make_pilots(model, sigma2, shots, rng):
    return awgn(rng, model.n_ch, sigma2, size=model.n_messages * shots)


def test_one_hot_batch():
    got = one_hot_batch(np.array([2, 1]), 4)
    assert np.array_equal(got, [[0, 1, 0, 0], [1, 0, 0, 0]])
    with pytest.raises(ValueError):
        one_hot_batch(np.array([5]), 4)


def test_normalize_power_single_codeword():
    # raw (3,4) with n_ch=1 scales by 1/5 -> (0.6, 0.8)
    x, scale, _ = normalize_power(np.array([[3.0, 4.0]]), 1)
    assert np.allclose(x, [[0.6, 0.8]], atol=1e-9)
    assert np.isclose(scale.item(), 0.2)


def test_normalize_power_batch_constraint():
    rng = rngmod.substream(1, "norm")
    raw = rng.normal(size=(16, 4))
    x, _, _ = normalize_power(raw, 2)
    assert np.isclose(np.sum(x * x) / (16 * 2), 1.0, atol=1e-9)


def test_normalize_power_zero_input_guarded():
    x, _, _ = normalize_power(np.zeros((4, 2)), 1)
    assert np.all(np.isfinite(x))


def test_encode_power_and_determinism():
    model = small_model()
    x = encode(model, [1, 2, 3, 4])
    assert x.shape == (4, 2)
    assert np.isclose(np.mean(np.sum(x * x, axis=-1)), 1.0, atol=1e-9)
    x2 = encode(model, [2, 2])
    assert np.allclose(x2[0], x2[1])
    with pytest.raises(ValueError):
        encode(model, [])


def test_decode_uniform_at_zero_params_and_normalized():
    model = small_model()
    probs = decode(model, np.array([[0.3, -0.7]]), theta=np.zeros(model.n_params))
    assert np.allclose(probs, 0.25, atol=1e-12)
    probs = decode(model, rngmod.substream(2, "y").normal(size=(10, 2)))
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(probs >= 0)
    with pytest.raises(ValueError):
        decode(model, np.zeros(3))


def test_loss_zero_params_is_log_m():
    model = small_model(k=2)
    pilots = make_pilots(model, 0.1, 1, rngmod.substream(3, "p"))
    loss, _ = loss_and_grads(model, pilots, np.array([1.0, 0.0]),
                             theta=np.zeros(model.n_params))
    assert np.isclose(loss, np.log(4.0), atol=1e-12)


def test_loss_accepts_sample_lists_and_mean_invariance():
    model = small_model()
    rng = rngmod.substream(4, "p")
    h = rayleigh_sample(rng, 1)
    samples = np.stack([awgn(rng, 1, 0.1) for _ in range(4)])  # messages 1..4
    loss1, g1 = loss_and_grads(model, samples, h)
    # every pilot sent twice: two shots per message
    loss2, g2 = loss_and_grads(model, np.repeat(samples, 2, axis=0), h)
    assert np.isclose(loss1, loss2, atol=1e-12)
    assert np.allclose(g1, g2, atol=1e-12)
    with pytest.raises(ValueError):
        loss_and_grads(model, np.zeros((0, 2)), h)


def test_end_to_end_gradient_matches_finite_differences():
    model = small_model(k=2, n_ch=1, hidden=6)
    rng = rngmod.substream(5, "fd")
    h = rayleigh_sample(rng, 1)
    pilots = make_pilots(model, 0.1, 1, rng)
    _, grads = loss_and_grads(model, pilots, h)
    fd = finite_diff_grad(
        lambda th: loss_and_grads(model, pilots, h, theta=th)[0],
        model.params, eps=1e-4)
    mask = np.abs(grads) > 1e-8
    rel = np.max(np.abs(grads[mask] - fd[mask]) / np.abs(grads[mask]))
    assert rel < 1e-4


def test_pipeline_repeats_dedup_matches_generic_path():
    model = small_model(k=2, n_ch=2, hidden=10)
    rng = rngmod.substream(6, "rep")
    theta = np.stack([model.params, model.init_like(rng)])
    repeats = 3
    m = model.n_messages
    msgs = np.repeat(np.arange(1, m + 1), repeats)
    noise = rng.normal(size=(2, m * repeats, 4))
    h = rng.normal(size=(2, 1, 4))
    dedup = np.eye(m)
    full = one_hot_batch(msgs, m)
    loss_d, g_d = pipeline_loss_grads(model, theta, dedup, noise, h,
                                      repeats=repeats)
    loss_f, g_f = pipeline_loss_grads(model, theta, full, noise, h)
    assert np.allclose(loss_d, loss_f, atol=1e-12)
    assert np.max(np.abs(g_d - g_f)) < 1e-12


def test_pipeline_mean_grads_matches_per_task_mean():
    model = small_model(k=2, n_ch=1, hidden=8)
    rng = rngmod.substream(7, "mg")
    theta = np.stack([model.init_like(rng) for _ in range(3)])
    onehot = one_hot_batch(np.arange(1, 5), 4)
    noise = rng.normal(size=(3, 4, 2))
    h = rng.normal(size=(3, 1, 2))
    _, per_task = pipeline_loss_grads(model, theta, onehot, noise, h)
    _, fused = pipeline_loss_grads(model, theta, onehot, noise, h,
                                   mean_grads=True)
    assert fused.shape == (model.n_params,)
    assert np.max(np.abs(fused - per_task.mean(axis=0))) < 1e-13


def test_codebook_shape_and_power():
    model = small_model(k=3, n_ch=2)
    book = codebook(model)
    assert book.shape == (8, 4)
    assert np.isclose(np.mean(np.sum(book * book, axis=-1)) / 2, 1.0, atol=1e-9)


def test_evaluate_ser_random_guess_rate():
    model = small_model(k=2)
    ser = evaluate_ser(model, np.array([1.0, 0.0]), NoiseModel(0.1), 10000,
                       rngmod.substream(8, "ser"),
                       theta=np.zeros(model.n_params))
    # uniform probabilities, argmax ties to index 0 -> correct 1/4 of the time
    sigma = np.sqrt(0.75 * 0.25 / 10000)
    assert abs(ser - 0.75) < 3 * sigma


def test_evaluate_ser_seed_consistency():
    model = small_model(k=2)
    h = np.array([1.0, 0.0])
    nm = NoiseModel(0.3)
    s1 = evaluate_ser(model, h, nm, 20000, rngmod.substream(9, "e1"))
    s2 = evaluate_ser(model, h, nm, 20000, rngmod.substream(9, "e2"))
    p = (s1 + s2) / 2
    sigma = np.sqrt(max(p * (1 - p), 1e-9) / 20000)
    assert abs(s1 - s2) < 3 * np.sqrt(2) * sigma
    with pytest.raises(ValueError):
        evaluate_ser(model, h, nm, 0, rngmod.substream(9, "e3"))


def test_evaluate_ser_keeps_no_backward_cache():
    # at the paper width an evaluation holds about two (n_eval, hidden)
    # activations at a time; a forward that kept every layer's input and
    # pre-activation peaked at over six
    hidden, n_eval = 256, 10000
    model = CaeModel.build(4, 2, rngmod.substream(11, "mem"), hidden=hidden)
    h = np.array([0.6, -0.8, 0.3, 0.1])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        evaluate_ser(model, h, NoiseModel(0.3), n_eval,
                     rngmod.substream(11, "eval"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * n_eval * hidden * model.params.itemsize


def test_evaluate_ser_peak_is_bounded_by_the_row_block():
    # past INFER_BLOCK_ROWS messages the decoder runs in row blocks, so the
    # peak follows the block size, not n_eval; the one-call decode peaked at
    # about 42 MB here and 8 MiB blocks of 3,334 rows at about 15 MB, both
    # over this 6 MiB bound
    model = CaeModel.build(4, 2, rngmod.substream(11, "mem"), hidden=256)
    h = np.array([0.6, -0.8, 0.3, 0.1])
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        evaluate_ser(model, h, NoiseModel(0.3), 10000,
                     rngmod.substream(11, "eval"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * numerics.INFER_BLOCK_ROWS * 256 * model.params.itemsize


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hidden", [16, 64, 256])
def test_blocked_decode_bitwise_equals_one_call(monkeypatch, hidden, dtype):
    # blocks of at most 1,024 rows stay at 512 rows or more; 4,000 and 10,000
    # are the desk (4 blocks) and paper (10 blocks) evaluation sizes
    model = CaeModel.build(4, 2, rngmod.substream(12, "blocks"),
                           hidden=hidden, dtype=dtype)
    h = np.array([0.6, -0.8, 0.3, 0.1], dtype=dtype)
    cap, one_call = numerics.INFER_BLOCK_ROWS, 2 ** 62
    assert cap == 1024
    layers = len(model.decoder_spec.layer_dims) - 1
    calls = []
    matmul = numerics._matmul
    monkeypatch.setattr(numerics, "_matmul",
                        lambda *a, **kw: calls.append(1) or matmul(*a, **kw))
    for n_eval in (cap - 1, cap, cap + 1, 2 * cap, 2 * cap + 1, 3 * cap + 2,
                   4000, 10000):
        got = []
        for budget in (cap, one_call):
            monkeypatch.setattr(numerics, "INFER_BLOCK_ROWS", budget)
            rng = rngmod.substream(12, "tx", n_eval)
            sent, y, decided = transmit(model, model.params, h,
                                        NoiseModel(0.3), n_eval, rng)
            calls.clear()
            probs = decode(model, y)
            blocks = 1 if budget == one_call else -(-n_eval // cap)
            assert len(calls) == blocks * layers
            ser = evaluate_ser(model, h, NoiseModel(0.3), n_eval,
                               rngmod.substream(12, "tx", n_eval))
            got.append((sent, y, decided, probs, ser))
        for blocked, whole in zip(*got):
            assert np.array_equal(blocked, whole), n_eval


def test_transmit_draws_and_decodes_what_evaluate_ser_scores():
    model = small_model(k=2)
    h = np.array([0.6, -0.8])
    nm = NoiseModel(0.3)
    sent, received, decided = transmit(model, model.params, h, nm, 500,
                                       rngmod.substream(10, "tx"))
    assert sent.shape == decided.shape == (500,)
    assert received.shape == (500, 2)
    # message indices first, then the noise, from the one generator
    rng = rngmod.substream(10, "tx")
    idx = rng.integers(0, model.n_messages, size=500)
    noise = awgn(rng, 1, nm.sigma2, size=500)
    assert np.array_equal(sent, idx)
    cw = codebook(model)[idx]
    want = np.stack([cw[:, 0] * h[0] - cw[:, 1] * h[1],
                     cw[:, 0] * h[1] + cw[:, 1] * h[0]], axis=-1) + noise
    assert np.allclose(received, want, atol=1e-12)
    assert np.array_equal(decided, np.argmax(decode(model, received), axis=-1))
    ser = evaluate_ser(model, h, nm, 500, rngmod.substream(10, "tx"))
    assert ser == np.mean(decided != sent)


def test_relabeling_permutes_model_consistently():
    # permuting message identities (encoder input columns and decoder output
    # rows together) permutes codewords and probabilities exactly, so the SER
    # distribution is invariant; the functional identity is checked exactly
    # and the SER statistically
    model = small_model(k=2, n_ch=1, hidden=8)
    rng = rngmod.substream(10, "perm")
    perm = np.array([2, 0, 3, 1])  # new message i behaves like old perm[i]
    theta = model.params.copy()
    enc = model.encoder_spec
    w_sl, _, d_out, d_in = enc.layout[0]
    theta_p = theta.copy()
    theta_p[w_sl] = theta[w_sl].reshape(d_out, d_in)[:, perm].ravel()
    dec = model.decoder_spec
    w_sl, b_sl, d_out, d_in = dec.layout[-1]
    off = model.split
    wl = theta[off + w_sl.start:off + w_sl.stop].reshape(d_out, d_in)
    bl = theta[off + b_sl.start:off + b_sl.stop]
    theta_p[off + w_sl.start:off + w_sl.stop] = wl[perm].ravel()
    theta_p[off + b_sl.start:off + b_sl.stop] = bl[perm]

    assert np.allclose(codebook(model, theta=theta_p),
                       codebook(model, theta=theta)[perm], atol=1e-12)
    y = rng.normal(size=(50, 2))
    assert np.allclose(decode(model, y, theta=theta_p),
                       decode(model, y, theta=theta)[:, perm], atol=1e-12)

    h = rayleigh_sample(rng, 1)
    nm = NoiseModel(0.2)
    n_eval = 20000
    s1 = evaluate_ser(model, h, nm, n_eval, rngmod.substream(11, "pe1"),
                      theta=theta)
    s2 = evaluate_ser(model, h, nm, n_eval, rngmod.substream(11, "pe2"),
                      theta=theta_p)
    p = (s1 + s2) / 2
    sigma = np.sqrt(max(p * (1 - p), 1e-9) / n_eval)
    assert abs(s1 - s2) < 3 * np.sqrt(2) * sigma
