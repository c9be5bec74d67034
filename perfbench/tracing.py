"""Spans around the library's layer functions, and the layer metrics they give.

The tracer wraps each measured function by rebinding its name in every
``omlcae`` module that holds it (``pipeline_loss_grads`` is bound in ``cae``,
``metalearn`` and ``baselines``), so calls between modules go through the
wrapper.  A span is (name, start, end, parent, unit, cell); spans stay in
memory and are written out once the run ends.  A layer's self time is its
span time minus the time of its direct child spans.
"""

import importlib
import json
import statistics
import sys
import time
from collections import Counter

import numpy as np


class LayerMissing(Exception):
    """A measured layer function does not exist or cannot be read."""


def _pipeline_shape(model, theta, onehot, noise, h, want_loss=True,
                    repeats=1, mean_grads=False, grads_out=None):
    # noise carries every reception, so its rows already count the repeats
    return (model.encoder_spec.layer_dims, model.decoder_spec.layer_dims,
            theta.shape[:-1], onehot.shape, noise.shape, bool(mean_grads),
            theta.dtype.str)


def _meta_iters(model, theta, buffer, config, *args, **kwargs):
    return config.outer_iters


def _adapt_steps(model, theta, task, steps, *args, **kwargs):
    return steps


def _eval_symbols(model, h, noise, n_eval, *args, **kwargs):
    return n_eval


PIPELINE = "cae.pipeline_loss_grads"
# (span name, module, function, work read from the call's arguments); the
# pipeline's work is its call shape, kept apart for the GEMM model
LAYERS = (
    (PIPELINE, "cae", "pipeline_loss_grads", _pipeline_shape),
    ("numerics.mlp_forward", "numerics", "mlp_forward", None),
    ("numerics.mlp_backward", "numerics", "mlp_backward", None),
    ("metalearn.meta_train", "metalearn", "meta_train", _meta_iters),
    ("metalearn.inner_adapt", "metalearn", "inner_adapt", _adapt_steps),
    ("numerics.adam_step_inplace", "numerics", "adam_step_inplace", None),
    ("cae.evaluate_ser", "cae", "evaluate_ser", _eval_symbols),
    ("metalearn.make_pilot_task", "metalearn", "make_pilot_task", None),
    ("baselines.qpsk_mle_ser", "baselines", "qpsk_mle_ser", None),
    ("harness.write_csv", "harness", "write_metrics_csv", None),
    ("harness.write_csv", "harness", "write_summary_csv", None),
)
# one span per grid cell; these set the cell id of the spans inside them
CELLS = (
    ("metalearn.online_run", "metalearn", "online_run"),
    ("baselines.run_scratch_cae", "baselines", "run_scratch_cae"),
    ("baselines.run_qpsk_mle", "baselines", "run_qpsk_mle"),
)


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, unit, cell, work)
        self.shapes = Counter()  # pipeline_loss_grads call shapes -> calls
        self.unit = -1
        self._cell = -1
        self._cells = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, work=None, cell=False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            amount = None
            if work is not None:
                try:
                    amount = work(*args, **kwargs)
                except (TypeError, AttributeError, IndexError) as e:
                    raise LayerMissing(
                        f"{name}: cannot read its work from the call: {e}") from e
                if name == PIPELINE:
                    self.shapes[amount] += 1
                    amount = None
            outer_cell = self._cell
            if cell:
                self._cell = self._cells
                self._cells += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.unit,
                                self._cell, amount)
                self._cell = outer_cell

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "omlcae" or key.startswith("omlcae.")]
        targets = [(n, mod, fn, w, False) for n, mod, fn, w in LAYERS]
        targets += [(n, mod, fn, None, True) for n, mod, fn in CELLS]
        for name, module, func, work, cell in targets:
            try:
                original = getattr(importlib.import_module(f"omlcae.{module}"),
                                   func)
            except (ImportError, AttributeError) as e:
                self.uninstall()
                raise LayerMissing(
                    f"{name}: omlcae.{module}.{func} is missing: {e}") from e
            wrapper = self._wrap(name, original, work, cell)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((vars(mod), attr, original))
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, dict):  # dispatch tables
                        for key, entry in list(value.items()):
                            if entry is original:
                                self._restore.append((value, key, original))
                                value[key] = wrapper

    def uninstall(self):
        for table, key, original in reversed(self._restore):
            table[key] = original
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def layer_totals(self):
        """{name: [calls, total_s, self_s, work]} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _, _, work) in enumerate(self.spans):
            t = totals.setdefault(name, [0, 0.0, 0.0, 0])
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
            t[3] += work or 0
        return totals

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, start, end, parent, unit, cell, work) in \
                    enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name,
                                    "start": start - t0, "end": end - t0,
                                    "parent": parent, "unit": unit,
                                    "cell": cell}) + "\n")


def pipeline_gemms(shape):
    """GEMMs one pipeline_loss_grads call runs, as (count, m, k, n).

    Derived from the call's shapes the way numerics runs the encoder and
    decoder forward, the weight gradients and the input gradients; a stack of
    T parameter vectors or task batches counts as T GEMMs of one slice each.
    """
    enc, dec, theta_lead, onehot, noise, mean_grads, _ = shape
    lead = np.broadcast_shapes(theta_lead, onehot[:-2], noise[:-2])
    slices = int(np.prod(lead))
    enc_slices = int(np.prod(np.broadcast_shapes(theta_lead, onehot[:-2])))
    reduce = mean_grads and len(lead) > 0
    gemms = []
    for dims, rows, fwd_slices, is_enc in ((enc, onehot[-2], enc_slices, True),
                                           (dec, noise[-2], slices, False)):
        for i in range(len(dims) - 1):
            d_in, d_out = dims[i], dims[i + 1]
            gemms.append((fwd_slices, rows, d_in, d_out))   # forward
            gemms.append((slices, rows, d_out, d_in))       # input gradient
            if not reduce:
                gemms.append((slices, d_out, rows, d_in))   # weight gradient
                continue
            # summed over the stack in one product; an input shared by every
            # slice is multiplied once, after its deltas are summed
            shared = is_enc and (len(onehot) == 2 if i == 0
                                 else enc_slices == 1)
            gemms.append((1, d_out, rows if shared else slices * rows, d_in))
    return gemms


def gemm_flops(gemms) -> int:
    return sum(2 * c * m * k * n for c, m, k, n in gemms)


def time_gemm(m, k, n, dtype, trials=5, trial_s=0.004):
    """Median seconds of one bare np.dot at this shape."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    out = np.empty((m, n), dtype=dtype)
    np.dot(a, b, out=out)
    start = time.perf_counter()
    np.dot(a, b, out=out)
    reps = max(1, int(trial_s / max(time.perf_counter() - start, 1e-7)))
    samples = []
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(reps):
            np.dot(a, b, out=out)
        samples.append((time.perf_counter() - start) / reps)
    return statistics.median(samples)


def pipeline_floor(shapes):
    """(flops, GEMM-floor seconds, decoder rows) over the recorded calls."""
    flops, floor, rows = 0, 0.0, 0
    timed = {}
    for shape, calls in shapes.items():
        gemms = pipeline_gemms(shape)
        flops += calls * gemm_flops(gemms)
        dtype = np.dtype(shape[-1])
        for count, m, k, n in gemms:
            key = (m, k, n, dtype.str)
            if key not in timed:
                timed[key] = time_gemm(m, k, n, dtype)
            floor += calls * count * timed[key]
        _, _, theta_lead, onehot, noise = shape[:5]
        lead = np.broadcast_shapes(theta_lead, onehot[:-2], noise[:-2])
        rows += calls * int(np.prod(lead)) * noise[-2]
    return flops, floor, rows


def layer_metrics(totals, tracer, overhead_pct):
    """Per-layer metrics, {name: (value, unit)}, from one traced run."""
    def layer(name):
        calls, total_s, self_s, work = totals.get(name, (0, 0.0, 0.0, 0))
        return calls, total_s, self_s, work

    def rate(amount, seconds):
        return amount / seconds if seconds else 0.0

    metrics = {}
    flops, floor, rows = pipeline_floor(tracer.shapes)
    calls, total_s, self_s, _ = layer(PIPELINE)
    gflop = flops / 1e9  # computed from the call shapes, not counted
    metrics.update({
        "cae.pipeline_loss_grads.calls": (calls, "count"),
        "cae.pipeline_loss_grads.total_s": (total_s, "s"),
        "cae.pipeline_loss_grads.self_s": (self_s, "s"),
        "cae.pipeline_loss_grads.rows": (rows, "count"),
        "cae.pipeline_loss_grads.gflop": (gflop, "GFLOP"),
        "cae.pipeline_loss_grads.gflop_per_s": (rate(gflop, total_s),
                                                "GFLOP/s"),
        "cae.pipeline_loss_grads.gemm_floor_s": (floor, "s"),
        "cae.pipeline_loss_grads.floor_ratio": (rate(total_s, floor), "x"),
    })
    for name in ("numerics.mlp_forward", "numerics.mlp_backward",
                 "numerics.adam_step_inplace"):
        calls, _, self_s, _ = layer(name)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name, work, unit in (("metalearn.meta_train", "outer_iter", "iter"),
                             ("metalearn.inner_adapt", "steps", "step"),
                             ("cae.evaluate_ser", "symbols", "symbol")):
        calls, total_s, self_s, amount = layer(name)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        if name != "cae.evaluate_ser":
            metrics[f"{name}.{work}"] = (amount, "count")
        metrics[f"{name}.{work}_per_s"] = (rate(amount, total_s),
                                           f"{unit}/s")
    for name in ("metalearn.make_pilot_task", "baselines.qpsk_mle_ser",
                 "harness.write_csv"):
        metrics[f"{name}.self_s"] = (layer(name)[2], "s")
    metrics["tracing.overhead"] = (overhead_pct, "%")
    metrics["tracing.spans"] = (len(tracer.spans), "count")
    return metrics
