"""Channel autoencoder: one-hot messages in, power-normalized codewords out,
decoding to message probabilities, end-to-end loss/gradient through the
simulated channel, and Monte-Carlo SER evaluation.

Backbone architecture (hidden width 256 by default):
    encoder: 2^k -> 256 -> 256 -> 2*n_ch (linear)
    decoder: 2*n_ch -> 256 -> 256 -> 256 -> 2^k (logits; softmax here)

Messages are 1-based symbols m in {1, ..., 2^k}.  Encoder and decoder
parameters are concatenated into one flat vector with a fixed split point so
the whole system trains as a single parameter vector.  Codewords are scaled
to unit mean power per complex channel use over the batch.

Pilots are stored as their noise draws only, in one layout: a block of
2^k * shots rows, row r carrying message r // shots + 1.  pilot_batch turns
such a block (or a stack of them) into pipeline_loss_grads inputs.
"""

from dataclasses import dataclass

import numpy as np

from .channel import NoiseModel, awgn, cmul, conj
from .numerics import MlpSpec, init_params, mlp_backward, mlp_forward, softmax

# guards the power-normalization sqrt at all-zero output; small enough that
# the relative power error eps/energy stays below 1e-9 for any realistic
# batch, yet still a normal number in float32
NORM_EPS = 1e-30


@dataclass
class CaeModel:
    k: int
    n_ch: int
    encoder_spec: MlpSpec
    decoder_spec: MlpSpec
    params: np.ndarray

    @classmethod
    def build(cls, k: int, n_ch: int, rng: np.random.Generator, hidden: int = 256,
              dtype=np.float64) -> "CaeModel":
        m = 2 ** k
        enc = MlpSpec((m, hidden, hidden, 2 * n_ch))
        dec = MlpSpec((2 * n_ch, hidden, hidden, hidden, m))
        theta = np.concatenate([init_params(enc, rng, dtype=dtype),
                                init_params(dec, rng, dtype=dtype)])
        return cls(k=k, n_ch=n_ch, encoder_spec=enc, decoder_spec=dec,
                   params=theta)

    @property
    def n_messages(self) -> int:
        return 2 ** self.k

    @property
    def split(self) -> int:
        return self.encoder_spec.n_params

    @property
    def n_params(self) -> int:
        return self.encoder_spec.n_params + self.decoder_spec.n_params

    def init_like(self, rng: np.random.Generator) -> np.ndarray:
        dtype = self.params.dtype
        return np.concatenate([init_params(self.encoder_spec, rng, dtype=dtype),
                               init_params(self.decoder_spec, rng, dtype=dtype)])


def one_hot_batch(messages: np.ndarray, n_messages: int, dtype=np.float64) -> np.ndarray:
    idx = np.asarray(messages) - 1
    if idx.min() < 0 or idx.max() >= n_messages:
        raise ValueError("message out of range")
    return np.eye(n_messages, dtype=dtype)[idx]


def normalize_power(raw: np.ndarray, n_ch: int, repeats: int = 1):
    """Scale raw encoder outputs so mean power per complex use is 1.

    One scalar covers the whole batch (an average-power constraint).
    repeats > 1 means each row is transmitted that many times, so the batch
    energy counts each row repeats times.  Returns (x, scale, energy) for the
    backward pass.
    """
    energy = repeats * (raw * raw).sum(axis=(-1, -2), keepdims=True) + NORM_EPS
    batch = raw.shape[-2] * repeats
    scale = np.sqrt(batch * n_ch / energy)
    return raw * scale, scale, energy


def _normalize_backward(g_x, raw, scale, energy, repeats: int = 1):
    # x = c(raw) * raw with c = sqrt(K / E); dL/draw = c*g - (c/E)*raw*sum(g*raw)
    # with repeats > 1, g_x must already be summed over the repeat groups; the
    # global energy-correction term then recurs once per duplicate row, hence
    # the extra repeats factor
    inner = (g_x * raw).sum(axis=(-1, -2), keepdims=True)
    return scale * g_x - (repeats * scale / energy) * raw * inner


def encode(model: CaeModel, messages, theta: np.ndarray = None) -> np.ndarray:
    """Encode a batch of messages into power-normalized codewords (B, 2*n_ch)."""
    theta = model.params if theta is None else theta
    msgs = np.atleast_1d(np.asarray(messages, dtype=np.int64))
    if msgs.size == 0:
        raise ValueError("empty message batch")
    onehot = one_hot_batch(msgs, model.n_messages, dtype=theta.dtype)
    raw, _ = mlp_forward(model.encoder_spec, theta[..., :model.split], onehot,
                         keep_cache=False)
    x, _, _ = normalize_power(raw, model.n_ch)
    return x


def decode(model: CaeModel, y: np.ndarray, theta: np.ndarray = None) -> np.ndarray:
    """Decode received rows y (..., B, 2*n_ch) into message probability
    vectors."""
    theta = model.params if theta is None else theta
    if y.shape[-1] != 2 * model.n_ch:
        raise ValueError(f"received length {y.shape[-1]} != {2 * model.n_ch}")
    logits, _ = mlp_forward(model.decoder_spec, theta[..., model.split:], y,
                            keep_cache=False)
    return softmax(logits)


def codebook(model: CaeModel, theta: np.ndarray = None) -> np.ndarray:
    """Fixed per-message codewords: encode of the full 2^k-message batch.

    The normalization scalar is frozen from this batch, so each message has a
    deterministic codeword during SER evaluation and constellation export.
    """
    return encode(model, np.arange(1, model.n_messages + 1), theta=theta)


def pilot_batch(model: CaeModel, noise: np.ndarray, h: np.ndarray, dtype):
    """pipeline_loss_grads inputs (onehot, noise, h, repeats) for pilots.

    noise is one task's pilot noise, (2^k * shots, 2n), or a stack of T
    tasks' blocks, (T, 2^k * shots, 2n), with h (2n,) or (T, 2n) to match.
    Row r of a block carries message r // shots + 1, so the one-hots are the
    2^k distinct messages once and repeats = shots: the encoder runs on 2^k
    rows, not 2^k * shots.
    """
    m = model.n_messages
    rows = noise.shape[-2]
    if rows == 0 or rows % m:
        raise ValueError(f"pilot block of {rows} rows is not 2^k * shots "
                         f"with 2^k = {m}")
    h = np.asarray(h).astype(dtype, copy=False)
    if noise.ndim == 3:
        h = h[:, None, :]
    return np.eye(m, dtype=dtype), noise.astype(dtype, copy=False), h, rows // m


def pipeline_loss_grads(model: CaeModel, theta: np.ndarray, onehot: np.ndarray,
                        noise: np.ndarray, h: np.ndarray, want_loss: bool = True,
                        repeats: int = 1, mean_grads: bool = False):
    """End-to-end loss and exact parameter gradient, batched.

    theta: (P,) or (T, P); onehot: (..., B, 2^k) doubling as the label
    one-hots; noise: (..., B*repeats, 2n); h: broadcastable to the received
    signal.  repeats > 1 declares that row i of onehot is transmitted repeats
    times, received under noise rows i*repeats..(i+1)*repeats-1; the encoder
    then runs on the distinct rows only.  The loss is the mean cross-entropy
    over all receptions; gradients flow through the power normalization and
    the complex channel product (h and noise held fixed).  want_loss=False
    skips the loss value (returned as None) on gradient-only hot paths.
    mean_grads=True returns the gradient averaged over the leading (stacked
    task) axes as one flat vector, summed inside the layer matrix products.
    """
    split = model.split
    enc_spec, dec_spec = model.encoder_spec, model.decoder_spec
    batch = onehot.shape[-2] * repeats
    d = 2 * model.n_ch

    raw, enc_cache = mlp_forward(enc_spec, theta[..., :split], onehot)
    x, scale, energy = normalize_power(raw, model.n_ch, repeats=repeats)
    if repeats > 1:
        x_full = np.repeat(x, repeats, axis=-2)
        labels = np.repeat(onehot, repeats, axis=-2)
    else:
        x_full, labels = x, onehot
    y = cmul(h, x_full) + noise
    logits, dec_cache = mlp_forward(dec_spec, theta[..., split:], y)
    probs = softmax(logits)

    if want_loss:
        m = logits.max(axis=-1, keepdims=True)
        lse = m[..., 0] + np.log(np.exp(logits - m).sum(axis=-1))
        true_logit = np.sum(logits * labels, axis=-1)
        loss = np.mean(lse - true_logit, axis=-1)
    else:
        loss = None

    g_logits = probs - labels
    lead = g_logits.shape[:-2]  # theta's and the inputs' broadcast together
    reduce = mean_grads and len(lead) > 0
    # the mean over stacked tasks folds into the loss normalizer, since the
    # parameter gradient is linear in the output gradient
    denom = batch * int(np.prod(lead)) if reduce else batch
    g_logits /= labels.dtype.type(denom)
    grad_lead = () if reduce else lead
    grads = np.empty(grad_lead + (model.n_params,), dtype=probs.dtype)
    _, g_y = mlp_backward(dec_spec, dec_cache, g_logits,
                          out=grads[..., split:], reduce_lead=reduce)
    g_x = cmul(conj(h), g_y)  # the adjoint of y = h*x is conj(h)*g_y
    if repeats > 1:
        # collapse the repeat groups; the encoder saw each row once
        g_x = g_x.reshape(g_x.shape[:-2] + (-1, repeats, d)).sum(axis=-2)
    g_raw = _normalize_backward(g_x, raw, scale, energy, repeats=repeats)
    mlp_backward(enc_spec, enc_cache, g_raw, out=grads[..., :split],
                 reduce_lead=reduce, want_input_grad=False)
    return loss, grads


def loss_and_grads(model: CaeModel, pilots: np.ndarray, h: np.ndarray,
                   theta: np.ndarray = None):
    """Mean cross-entropy over one task's pilots and its exact gradient.

    pilots is the pilot noise block (2^k * shots, 2*n_ch) laid out as in
    pilot_batch; h is the (fixed) channel realization of length 2*n_ch.
    """
    theta = model.params if theta is None else theta
    onehot, noise, h, repeats = pilot_batch(model, pilots, h, theta.dtype)
    loss, grads = pipeline_loss_grads(model, theta, onehot, noise, h,
                                      repeats=repeats)
    return float(loss), grads


def transmit(model: CaeModel, theta: np.ndarray, h: np.ndarray,
             noise: NoiseModel, n: int, rng: np.random.Generator):
    """Send n uniform messages through h (drawing indices, then noise) and
    decode them; returns 0-based (sent, received, decided), argmax decisions
    with ties broken by lowest index.  Past numerics.INFER_BLOCK_ROWS (1,024)
    messages the decoder runs in near-equal row blocks, bitwise equal to one
    call."""
    sent = rng.integers(0, model.n_messages, size=n)
    x = codebook(model, theta=theta)[sent]
    y = cmul(h, x) + awgn(rng, model.n_ch, noise.sigma2, size=n, dtype=x.dtype)
    return sent, y, np.argmax(decode(model, y, theta=theta), axis=-1)


def evaluate_ser(model: CaeModel, h: np.ndarray, noise: NoiseModel, n_eval: int,
                 rng: np.random.Generator, theta: np.ndarray = None) -> float:
    """Fraction of n_eval messages sent through transmit that are decoded
    incorrectly."""
    if n_eval < 1:
        raise ValueError("n_eval must be >= 1")
    theta = model.params if theta is None else theta
    sent, _, decided = transmit(model, theta, h, noise, n_eval, rng)
    return float(np.mean(decided != sent))
