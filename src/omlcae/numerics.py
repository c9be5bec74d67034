"""Minimal dense-network engine: forward, exact backprop, Adam.

Parameters live in a single flat vector ("ParamVector") with a fixed layout:
for each layer, the weight matrix (row-major, shape out x in) followed by the
bias vector.  Flat storage keeps parameter arithmetic (SGD / Adam / MAML
updates) trivial and layout-stable.

Hidden layers are leaky-ReLU, and there is no output head: mlp_forward
returns, and mlp_backward starts from, the last layer's pre-activation (cae
applies the decoder's softmax).  mlp_forward keeps each layer's input and
pre-activation for mlp_backward; inference (cae.encode and cae.decode)
passes keep_cache=False and holds one layer's arrays of a block of at most
INFER_BLOCK_ROWS rows at a time.

Inputs are row-stacked, (..., B, d).  All core routines accept arbitrary
leading axes on both the parameter vector and the inputs, so a stack of T
task-adapted parameter vectors of shape (T, P) can be pushed through the
network against inputs of shape (T, B, d) in one call, bitwise equal to T
separate calls (_matmul runs one GEMM per slice).  This is what makes
meta-training tractable in pure NumPy.

The pure adam_step is the test reference for the in-place Adam.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

LEAKY_SLOPE = 0.01  # negative slope of the leaky rectifier


@dataclass(frozen=True)
class MlpSpec:
    """Dense network: leaky-ReLU hidden layers, a linear output layer."""

    layer_dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        object.__setattr__(self, "layer_dims", dims)
        if len(dims) < 2:
            raise ValueError("MlpSpec needs at least 2 layer_dims")
        if any(d < 1 for d in dims):
            raise ValueError(f"layer_dims must be >= 1, got {dims}")

    @cached_property
    def n_params(self) -> int:
        return self.layout[-1][1].stop

    @cached_property
    def layout(self):
        """Per-layer (weight_slice, bias_slice, out_dim, in_dim) tuples,
        computed once per spec, since every training step reads them."""
        out, offset = [], 0
        for d_in, d_out in zip(self.layer_dims, self.layer_dims[1:]):
            w_sl = slice(offset, offset + d_out * d_in)
            offset += d_out * d_in
            out.append((w_sl, slice(offset, offset + d_out), d_out, d_in))
            offset += d_out
        return tuple(out)


def unpack_params(spec: MlpSpec, theta: np.ndarray):
    """Split a flat ParamVector (..., P) into [(W (..., out, in), b (..., out))]."""
    if theta.shape[-1] != spec.n_params:
        raise ValueError(
            f"param vector length {theta.shape[-1]} != expected {spec.n_params}"
        )
    lead = theta.shape[:-1]
    layers = []
    for w_sl, b_sl, d_out, d_in in spec.layout:
        w = theta[..., w_sl].reshape(lead + (d_out, d_in))
        b = theta[..., b_sl]
        layers.append((w, b))
    return layers


def init_params(spec: MlpSpec, rng: np.random.Generator,
                dtype=np.float64) -> np.ndarray:
    """Uniform fan-in init: W ~ U[-1/sqrt(fan_in), 1/sqrt(fan_in)], b = 0."""
    theta = np.zeros(spec.n_params, dtype=dtype)
    for w_sl, b_sl, d_out, d_in in spec.layout:
        bound = 1.0 / np.sqrt(d_in)
        theta[w_sl] = rng.uniform(-bound, bound, size=d_out * d_in)
    return theta


def leaky_relu(z: np.ndarray) -> np.ndarray:
    # equivalent to where(z > 0, z, slope*z) since 0 < slope < 1; the scaled
    # copy is the one new buffer
    z = np.asarray(z)
    a = np.multiply(z, z.dtype.type(LEAKY_SLOPE), out=np.empty_like(z))
    return np.maximum(z, a, out=a)


def _leaky_grad(z: np.ndarray, dtype) -> np.ndarray:
    f = np.greater(z, 0).astype(dtype)
    f *= dtype.type(1.0 - LEAKY_SLOPE)
    f += dtype.type(LEAKY_SLOPE)
    return f


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax, normalized in one new buffer; logits are left intact."""
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """np.matmul, except that a (T, m, k) stack times a (k, n) matrix is one
    flat (T*m, k) x (k, n) call: faster here, and outputs depend on its
    rounding.  Stacked (T, m, k) x (T, k, n) operands, transposed views
    included, get one GEMM per slice, bitwise equal to per-slice np.dot."""
    if a.ndim == 3 and b.ndim == 2:
        flat = np.matmul(a.reshape(-1, a.shape[-1]), b)
        res = flat.reshape(a.shape[:-1] + (b.shape[-1],))
        if out is not None:
            out[...] = res
            return out
        return res
    return np.matmul(a, b, out=out)


# inference (keep_cache=False) splits more rows than this into near-equal
# blocks of 512 to 1,024 rows, at every width and dtype.  A 16-row block
# changed output bits (another GEMM kernel), so blocks stay this large
INFER_BLOCK_ROWS = 1024


def mlp_forward(spec: MlpSpec, theta: np.ndarray, x: np.ndarray,
                keep_cache: bool = True):
    """Forward pass.

    x carries a row axis and any leading task axes, (..., B, d0); a 1-D x
    raises ValueError.  Returns (output, cache): the output is the last
    layer's pre-activation, the cache holds the unpacked layers, per-layer
    inputs and pre-activations (the last is the output), and mlp_backward
    consumes it.  keep_cache=False returns (output, None) and holds one
    activation of a block of at most INFER_BLOCK_ROWS rows: each layer's
    input is dropped once its product is formed, so inference needs about
    two block activations (per stacked slice), not two per layer.  The
    output is bitwise the same either way.
    """
    if x.ndim == 1:
        raise ValueError(f"1-D input {x.shape} with parameters "
                         f"{theta.shape}: give the input a row axis")
    if x.shape[-1] != spec.layer_dims[0]:
        raise ValueError(
            f"input dim {x.shape[-1]} != layer_dims[0]={spec.layer_dims[0]}"
        )
    layers = unpack_params(spec, theta)
    inputs, preacts, blocks = [], [], []  # layer inputs, z = a @ W^T + b
    rows, last = x.shape[-2], len(layers) - 1
    n = 1 if keep_cache else max(1, -(-rows // INFER_BLOCK_ROWS))
    for j in range(n):
        z = x if n == 1 else x[..., rows * j // n:rows * (j + 1) // n, :]
        for i, (w, b) in enumerate(layers):
            if keep_cache:
                inputs.append(z)
            z = _matmul(z, w.swapaxes(-1, -2))
            z += b[..., None, :]
            if keep_cache:
                preacts.append(z)
            if i < last:
                z = leaky_relu(z)
        blocks.append(z)
    out = blocks[0] if n == 1 else np.concatenate(blocks, axis=-2)
    return out, (layers, inputs, preacts) if keep_cache else None


def mlp_backward(spec: MlpSpec, cache, output_grad: np.ndarray,
                 out: np.ndarray = None, reduce_lead: bool = False,
                 want_input_grad: bool = True):
    """Exact reverse-mode gradient through the network.

    output_grad is dL/d(forward output), the last layer's pre-activation
    (softmax(output) - labels, over the batch size, for a mean
    softmax+cross-entropy loss).  Returns (param_grad, input_grad) with the
    same leading axes as the forward inputs.  A preallocated param-gradient
    array (or view) may be supplied via ``out``.

    reduce_lead=True sums the parameter gradient over the leading (stacked
    task) axes into a single flat vector, which folds the per-task weight
    gradients into one flat matrix product; input_grad stays per-task.
    want_input_grad=False skips the first layer's input gradient (None).
    """
    layers, inputs, preacts = cache
    delta = output_grad
    dtype = np.dtype(delta.dtype)

    # delta has the forward output's leading axes: theta's and x's broadcast
    grad_lead = () if reduce_lead else delta.shape[:-2]
    param_grad = (np.empty(grad_lead + (spec.n_params,), dtype=dtype)
                  if out is None else out)
    layout = spec.layout

    for i in range(len(layers) - 1, -1, -1):
        a_in = inputs[i]
        w_sl, b_sl, d_out, d_in = layout[i]
        dw = param_grad[..., w_sl].reshape(grad_lead + (d_out, d_in))
        if reduce_lead:
            d2 = delta.reshape(-1, d_out)
            if a_in.ndim == delta.ndim:
                np.dot(d2.T, a_in.reshape(-1, d_in), out=dw)
            else:
                # input shared across the stacked axes: sum deltas first
                np.dot(delta.sum(axis=tuple(range(delta.ndim - 2))).T,
                       a_in, out=dw)
            d2.sum(axis=0, out=param_grad[b_sl])
        else:
            _matmul(delta.swapaxes(-1, -2), a_in, out=dw)
            delta.sum(axis=-2, out=param_grad[..., b_sl])
        if i > 0:
            delta = _matmul(delta, layers[i][0])
            delta *= _leaky_grad(preacts[i - 1], dtype)  # freshly owned
    input_grad = _matmul(delta, layers[0][0]) if want_input_grad else None
    return param_grad, input_grad


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam moments and step count (decay rates and epsilon are the ADAM_
    constants); create with AdamState.fresh(n)."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def fresh(cls, n_params: int, dtype=np.float64) -> "AdamState":
        return cls(m=np.zeros(n_params, dtype=dtype),
                   v=np.zeros(n_params, dtype=dtype))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray, lr: float):
    """One Adam step with bias correction.  Pure: returns (new_state, new_params)."""
    if params.shape != grad.shape or state.m.shape != params.shape:
        raise ValueError("adam_step: shape mismatch")
    t = state.t + 1
    dtype = params.dtype
    m = np.multiply(state.m, dtype.type(ADAM_BETA1))
    m += dtype.type(1.0 - ADAM_BETA1) * grad
    v = np.multiply(state.v, dtype.type(ADAM_BETA2))
    v += dtype.type(1.0 - ADAM_BETA2) * grad * grad
    update = np.sqrt(v / dtype.type(1.0 - ADAM_BETA2 ** t))
    update += dtype.type(ADAM_EPSILON)
    np.divide(m, update, out=update)
    update *= dtype.type(lr / (1.0 - ADAM_BETA1 ** t))
    return AdamState(m=m, v=v, t=t), params - update


def adam_step_inplace(state: AdamState, params: np.ndarray, grad: np.ndarray,
                      lr: float):
    """Adam step that mutates the moment state in place (hot-loop variant).

    Produces bitwise the same result as adam_step, computing the update
    and then the new parameters in one new array; returns (state,
    new_params) for signature parity (params is not written).
    """
    if params.shape != grad.shape or state.m.shape != params.shape:
        raise ValueError("adam_step_inplace: shape mismatch")
    dtype = params.dtype
    state.t += 1
    t = state.t
    state.m *= dtype.type(ADAM_BETA1)
    state.m += dtype.type(1.0 - ADAM_BETA1) * grad
    state.v *= dtype.type(ADAM_BETA2)
    tmp = np.multiply(dtype.type(1.0 - ADAM_BETA2), grad)
    tmp *= grad
    state.v += tmp
    np.divide(state.v, dtype.type(1.0 - ADAM_BETA2 ** t), out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += dtype.type(ADAM_EPSILON)
    np.divide(state.m, tmp, out=tmp)
    tmp *= dtype.type(lr / (1.0 - ADAM_BETA1 ** t))
    return state, np.subtract(params, tmp, out=tmp)


def step_lr(base_lr: float, iteration: int, step_size: int, gamma: float) -> float:
    if step_size < 1:
        raise ValueError("step_size must be >= 1")
    return base_lr * gamma ** (iteration // step_size)


def finite_diff_grad(loss_fn, params: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient, the independent oracle for backprop."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    grad = np.zeros_like(params, dtype=np.float64)
    for i in range(params.size):
        bump = np.zeros_like(params)
        bump[i] = eps
        grad[i] = (loss_fn(params + bump) - loss_fn(params - bump)) / (2.0 * eps)
    return grad
