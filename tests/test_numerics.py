"""Unit tests for the dense-network engine and optimizers."""

import numpy as np
import pytest

from omlcae import rng as rngmod
from omlcae.numerics import (LEAKY_SLOPE, AdamState, MlpSpec, _matmul,
                             adam_step, adam_step_inplace, finite_diff_grad,
                             init_params, leaky_relu, mlp_backward,
                             mlp_forward, softmax, step_lr, unpack_params)


def softmax_cross_entropy(logits: np.ndarray, label: int):
    """Stable -log softmax(logits)[label] and its gradient w.r.t. logits:
    the per-sample reference for the fused pipeline loss."""
    logits = np.asarray(logits)
    if not 0 <= label < logits.shape[-1]:
        raise ValueError(f"label {label} out of range for {logits.shape[-1]} classes")
    m = logits.max()
    lse = m + np.log(np.exp(logits - m).sum())
    loss = lse - logits[label]
    grad = softmax(logits)
    grad[label] -= 1.0
    return float(loss), grad


def test_spec_param_count_and_layout():
    spec = MlpSpec((4, 4))
    assert spec.n_params == 20
    spec = MlpSpec((3, 5, 2))
    assert spec.n_params == 3 * 5 + 5 + 5 * 2 + 2
    (w0, b0, d0, i0), (w1, b1, d1, i1) = spec.layout
    assert (d0, i0) == (5, 3) and (d1, i1) == (2, 5)
    assert w0 == slice(0, 15) and b0 == slice(15, 20)


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((4,))
    with pytest.raises(ValueError):
        MlpSpec((4, 0, 2))


def test_init_params_bounds_and_determinism():
    spec = MlpSpec((4, 4))
    theta = init_params(spec, rngmod.substream(0, "init"))
    assert theta.shape == (20,)
    assert np.all(np.abs(theta[:16]) <= 0.5)  # fan_in 4 -> bound 1/2
    assert np.all(theta[16:] == 0.0)
    again = init_params(spec, rngmod.substream(0, "init"))
    assert np.array_equal(theta, again)


def test_init_params_mean_near_zero():
    spec = MlpSpec((100, 100))
    theta = init_params(spec, rngmod.substream(1, "init-mean"))
    w = theta[:10000]
    bound = 0.1
    sigma = bound / np.sqrt(3.0) / np.sqrt(w.size)  # uniform-mean estimator
    assert abs(w.mean()) < 3 * sigma


def test_leaky_relu_slope():
    assert leaky_relu(np.array(-1.0)) == -0.01
    assert leaky_relu(np.array(2.0)) == 2.0


def test_forward_zero_params_softmax_uniform():
    spec = MlpSpec((3, 5, 4))
    out, _ = mlp_forward(spec, np.zeros(spec.n_params), np.array([[1.0, -2.0, 0.5]]))
    assert np.allclose(softmax(out), 0.25, atol=1e-12)


def test_forward_hidden_activation_values():
    # single hidden unit with identity weight: pre-activation passes the slope
    spec = MlpSpec((1, 1, 1))
    theta = np.array([1.0, 0.0, 1.0, 0.0])  # W0=1,b0=0,W1=1,b1=0
    out, _ = mlp_forward(spec, theta, np.array([[-1.0]]))
    assert np.isclose(out[0], -0.01)
    out, _ = mlp_forward(spec, theta, np.array([[2.0]]))
    assert np.isclose(out[0], 2.0)


def test_forward_dimension_mismatch():
    spec = MlpSpec((3, 2))
    with pytest.raises(ValueError):
        mlp_forward(spec, np.zeros(spec.n_params), np.zeros((1, 4)))


@pytest.mark.parametrize("keep_cache", [True, False])
def test_forward_rejects_single_input_with_stacked_params(keep_cache):
    # a (d0,) input against a (T, P) stack used to return task 0's output;
    # inputs need a row axis whatever the parameters' shape
    spec = MlpSpec((3, 5, 2))
    theta = np.zeros((4, spec.n_params))
    with pytest.raises(ValueError, match=r"\(3,\).*\(4, 32\)"):
        mlp_forward(spec, theta, np.ones(3), keep_cache=keep_cache)
    with pytest.raises(ValueError, match=r"\(3,\).*\(32,\)"):
        mlp_forward(spec, theta[0], np.ones(3), keep_cache=keep_cache)
    out, _ = mlp_forward(spec, theta, np.ones((1, 3)), keep_cache=keep_cache)
    assert out.shape == (4, 1, 2)


def _reference_softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _reference_forward(spec, theta, a):
    # the layer math written out with a fresh array per operation; the
    # network has no head, so it ends at the last pre-activation
    for w, b in unpack_params(spec, theta):
        z = _matmul(a, w.swapaxes(-1, -2)) + b[..., None, :]
        a = np.maximum(z, z.dtype.type(LEAKY_SLOPE) * z)
    return z


def test_cache_free_forward_bitwise_equals_cached():
    rng = rngmod.substream(5, "nocache")
    spec = MlpSpec((6, 32, 32, 4))
    for dtype in (np.float64, np.float32):
        thetas = (init_params(spec, rng, dtype=dtype),
                  np.stack([init_params(spec, rng, dtype=dtype)
                            for _ in range(3)]))
        for theta in thetas:
            for shape in ((1, 6), (40, 6), (3, 40, 6)):
                x = rng.normal(size=shape).astype(dtype)
                cached, cache = mlp_forward(spec, theta, x)
                free, none = mlp_forward(spec, theta, x, keep_cache=False)
                assert none is None and cache is not None
                assert free.dtype == cached.dtype == dtype
                assert np.array_equal(free, cached)
                assert np.array_equal(cached,
                                      _reference_forward(spec, theta, x))
                # the output is the last pre-activation mlp_backward starts at
                assert cached is cache[2][-1]


def test_softmax_matches_reference_and_keeps_its_input():
    rng = rngmod.substream(5, "softmax")
    for dtype in (np.float64, np.float32):
        for shape in ((1, 4), (40, 16), (3, 40, 16)):
            logits = (rng.normal(size=shape) * 10).astype(dtype)
            before = logits.copy()
            probs = softmax(logits)
            assert probs.dtype == dtype
            assert np.array_equal(probs, _reference_softmax(logits))
            assert np.array_equal(logits, before)


def test_backward_zero_grad():
    spec = MlpSpec((3, 4, 2))
    rng = rngmod.substream(2, "bw")
    theta = init_params(spec, rng)
    _, cache = mlp_forward(spec, theta, rng.normal(size=(1, 3)))
    pg, ig = mlp_backward(spec, cache, np.zeros((1, 2)))
    assert np.all(pg == 0.0) and np.all(ig == 0.0)


def test_backward_single_linear_layer_closed_form():
    spec = MlpSpec((3, 2))
    theta = rngmod.substream(3, "lin").normal(size=spec.n_params)
    x = np.array([[0.5, -1.5, 2.0]])
    _, cache = mlp_forward(spec, theta, x)
    pg, ig = mlp_backward(spec, cache, np.array([[1.0, 0.0]]))  # loss=y0
    w = theta[:6].reshape(2, 3)
    assert np.allclose(pg[:6].reshape(2, 3), np.vstack([x, np.zeros(3)]))
    assert np.allclose(pg[6:], [1.0, 0.0])
    assert np.allclose(ig, w[0])


def test_backward_matches_finite_differences():
    # the loss applies the softmax head to the forward's logits
    spec = MlpSpec((4, 6, 5, 3))
    rng = rngmod.substream(4, "fd")
    theta = init_params(spec, rng)
    x = rng.normal(size=(1, 4))
    label = 1

    def loss_fn(th):
        logits, _ = mlp_forward(spec, th, x, keep_cache=False)
        return softmax_cross_entropy(logits[0], label)[0]

    logits, cache = mlp_forward(spec, theta, x)
    _, g_logits = softmax_cross_entropy(logits[0], label)
    pg, _ = mlp_backward(spec, cache, g_logits[None, :])
    fd = finite_diff_grad(loss_fn, theta, eps=1e-5)
    mask = np.abs(pg) > 1e-8
    rel = np.max(np.abs(pg[mask] - fd[mask]) / np.abs(pg[mask]))
    assert rel < 1e-4


def test_backward_reduce_lead_matches_stacked_sum():
    spec = MlpSpec((3, 5, 2))
    rng = rngmod.substream(5, "red")
    theta = np.stack([init_params(spec, rng) for _ in range(4)])
    x = rng.normal(size=(4, 6, 3))
    g = rng.normal(size=(4, 6, 2))
    _, cache = mlp_forward(spec, theta, x)
    pg_full, ig_full = mlp_backward(spec, cache, g)
    _, cache = mlp_forward(spec, theta, x)
    pg_red, ig_red = mlp_backward(spec, cache, g, reduce_lead=True)
    assert np.allclose(pg_red, pg_full.sum(axis=0), atol=1e-12)
    assert np.allclose(ig_red, ig_full, atol=1e-12)
    # skipping the input gradient leaves the parameter gradient bitwise equal
    _, cache = mlp_forward(spec, theta, x)
    pg_skip, ig_skip = mlp_backward(spec, cache, g, want_input_grad=False)
    assert ig_skip is None and np.array_equal(pg_skip, pg_full)


def test_matmul_dispatch_branches_match_numpy():
    rng = rngmod.substream(6, "mm")
    # a stack against a plain matrix runs as one flat call
    a3 = rng.normal(size=(5, 7, 4))
    b2 = rng.normal(size=(4, 6))
    assert np.allclose(_matmul(a3, b2), np.matmul(a3, b2), atol=1e-12)
    out = np.empty((5, 7, 6))
    _matmul(a3, b2, out=out)
    assert np.allclose(out, np.matmul(a3, b2), atol=1e-12)
    # stacked operands go to np.matmul, one GEMM per slice: bitwise equal to
    # a per-slice np.dot on the layouts backprop uses, where the weights are
    # views into a (T, P) parameter stack and the weight gradient is written
    # into a view of a (T, P) gradient stack
    for dtype in (np.float64, np.float32):
        for n_tasks in (1, 5, 9):
            theta = rng.normal(size=(n_tasks, 3 + 64 * 16)).astype(dtype)
            w = theta[:, 3:].reshape(n_tasks, 64, 16)   # (out, in)
            x = rng.normal(size=(n_tasks, 80, 16)).astype(dtype)
            delta = rng.normal(size=(n_tasks, 80, 64)).astype(dtype)
            layouts = ((x, np.swapaxes(w, -1, -2)),           # forward
                       (np.swapaxes(delta, -1, -2), x),       # weight grad
                       (delta, w))                            # input grad
            for a, b in layouts:
                want = np.stack([np.dot(a[t], b[t]) for t in range(n_tasks)])
                assert np.array_equal(_matmul(a, b), want)
            grads = np.empty_like(theta)
            dw = grads[:, 3:].reshape(n_tasks, 64, 16)
            _matmul(np.swapaxes(delta, -1, -2), x, out=dw)
            assert np.array_equal(dw, np.stack([np.dot(delta[t].T, x[t])
                                                for t in range(n_tasks)]))


def test_softmax_cross_entropy_uniform_and_saturated():
    loss, grad = softmax_cross_entropy(np.zeros(4), 2)
    assert np.isclose(loss, np.log(4.0))
    assert np.allclose(grad, [0.25, 0.25, -0.75, 0.25])
    loss, grad = softmax_cross_entropy(np.array([0.0, 1e6, 0.0]), 1)
    assert loss < 1e-6 and np.max(np.abs(grad)) < 1e-6


def test_softmax_cross_entropy_grad_sums_to_zero():
    logits = rngmod.substream(7, "sm").normal(size=10) * 5
    _, grad = softmax_cross_entropy(logits, 3)
    assert abs(grad.sum()) < 1e-12


def test_softmax_cross_entropy_label_range():
    with pytest.raises(ValueError):
        softmax_cross_entropy(np.zeros(3), 3)


def test_adam_first_step_and_zero_grad():
    n = 5
    g = np.array([1.0, -2.0, 0.5, -0.1, 3.0])
    state, new = adam_step(AdamState.fresh(n), np.zeros(n), g, lr=0.1)
    assert state.t == 1
    assert np.allclose(new, -0.1 * np.sign(g), atol=1e-4)
    theta = np.arange(n, dtype=float)
    _, same = adam_step(AdamState.fresh(n), theta, np.zeros(n), lr=0.1)
    assert np.array_equal(same, theta)


def test_adam_descends_on_quadratic():
    theta = np.array([1.0])
    state = AdamState.fresh(1)
    traj = [abs(theta[0])]
    for _ in range(10):
        state, theta = adam_step(state, theta, 2.0 * theta, lr=0.1)
        traj.append(abs(theta[0]))
    assert all(b < a for a, b in zip(traj, traj[1:]))


def test_adam_purity():
    rng = rngmod.substream(8, "adam")
    theta = rng.normal(size=7)
    g = rng.normal(size=7)
    s1, t1 = adam_step(AdamState.fresh(7), theta, g, lr=1e-3)
    s2, t2 = adam_step(AdamState.fresh(7), theta, g, lr=1e-3)
    assert np.array_equal(t1, t2) and np.array_equal(s1.m, s2.m)


def test_adam_step_inplace_bitwise_matches_pure():
    rng = rngmod.substream(9, "adam-ip")
    theta = rng.normal(size=50)
    pure = AdamState.fresh(50)
    fused = AdamState.fresh(50)
    tp, tf = theta, theta.copy()
    for _ in range(20):
        g = rng.normal(size=50)
        pure, tp = adam_step(pure, tp, g, lr=1e-3)
        fused, tf = adam_step_inplace(fused, tf, g, lr=1e-3)
        assert np.array_equal(tp, tf)
        assert np.array_equal(pure.m, fused.m)
        assert np.array_equal(pure.v, fused.v)


def test_step_lr_schedule():
    assert step_lr(1e-4, 0, 300, 0.9) == 1e-4
    assert np.isclose(step_lr(1e-4, 300, 300, 0.9), 9e-5)
    assert np.isclose(step_lr(1e-4, 650, 300, 0.9), 8.1e-5)
    lrs = [step_lr(1e-4, i, 300, 0.9) for i in range(0, 2000, 37)]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    with pytest.raises(ValueError):
        step_lr(1e-4, 0, 0, 0.9)


def test_finite_diff_grad_quadratic_and_constant():
    g = finite_diff_grad(lambda th: th[0] ** 2, np.array([3.0]), eps=1e-5)
    assert abs(g[0] - 6.0) < 1e-6
    g = finite_diff_grad(lambda th: 7.0, np.zeros(3), eps=1e-5)
    assert np.all(g == 0.0)
    with pytest.raises(ValueError):
        finite_diff_grad(lambda th: 0.0, np.zeros(1), eps=0.0)
