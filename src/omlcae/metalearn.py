"""MAML inner/outer loops, the FIFO task buffer, and the online sequence
protocol.

One task = one channel realization's pilot data (balanced support and query
sets).  Every SGD loop -- the deployment fine-tune, the scratch and joint CAE
fine-tunes, the meta step's support adaptation, and the joint CAE's training
on mixed batches -- runs through run_sgd.  meta_train is outer_meta_step in a
loop over task samples from the buffer; each step allocates what it returns,
stacks its sample's pilots, adapts each task on its support set (a task
sampled more than once adapts once after the shared first step), then
updates the meta-initialization theta with Adam on one of two first-order
meta-gradients, chosen by MetaConfig.outer_rule:

    "fomaml"   first-order MAML: the query-set gradient at the task-adapted
               parameters phi_T, second-order terms dropped
    "reptile"  Reptile (Nichol et al. 2018): theta - mean_T phi_T, which pulls
               theta toward the adapted parameters; the query set is unused

The online loop, per sequence i:

    1. draw channel h_i from the AR(1) fading process
    2. transmit pilots -> task (support + query noise realizations)
    3. for i >= 2, meta-train on the buffered tasks 1..i-1, spending sequence
       i-1's slice of the run's outer-iteration budget, to produce the
       initialization for sequence i
    4. fine-tune the current meta-initialization on the support set
    5. measure SER of the fine-tuned model under h_i; non-finite ones raise
    6. push the task into the FIFO buffer

So the first meta-training runs on a one-task buffer, and the last
sequence's slice, which would only produce an initialization no sequence
fine-tunes from, is never run.  Optimizer state and the learning rate
schedule continue across sequences.  online_starts runs steps 1-3 and 6 and
yields each sequence's start; steps 4-5 feed nothing back, so online_run
runs them in fine_tune_blocks, concurrently with the next sequence's steps
1-3 at the paper width.  A caller that needs one sequence's fine-tune (the
constellation export) pulls online_starts alone.
"""

import hashlib
import numbers
import os
import sys
from collections import deque
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import partial
from itertools import islice, repeat

import numpy as np

from . import rng as rngmod
from .cae import CaeModel, evaluate_ser, pilot_batch, pipeline_loss_grads
from .channel import FadingProcess, NoiseModel, awgn, snr_to_sigma2
from .numerics import AdamState, adam_step_inplace, step_lr


@dataclass
class Task:
    """Pilot data for one channel realization.

    support and query hold only the pilot noise, shape (2^k * shots, 2*n_ch)
    with the query's own shot count: row r carries message r // shots + 1
    (see cae.pilot_batch).
    """

    h: np.ndarray           # (2*n_ch,)
    support: np.ndarray
    query: np.ndarray


class TaskBuffer(deque):
    """Bounded FIFO of tasks; appending past capacity evicts the oldest."""

    def __init__(self, capacity: int):
        require_ints(self, [("capacity", capacity)])
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__(maxlen=int(capacity))


def buffer_push(buffer: TaskBuffer, task: Task) -> TaskBuffer:
    buffer.append(task)
    return buffer


OUTER_RULES = ("fomaml", "reptile")


def require_ints(cfg, extra=()):
    """Raise ValueError naming cfg's first int dataclass field, or (name,
    value) of extra, that is no int; bools fail, None passes only as default."""
    pairs = [(f.name, getattr(cfg, f.name)) for f in fields(cfg)
             if f.type is int and (getattr(cfg, f.name) is not None
                                   or f.default is not None)
             ] if is_dataclass(cfg) else []
    for name, value in pairs + list(extra):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{type(cfg).__name__}.{name} must be an "
                             f"integer, got {value!r}")


@dataclass
class MetaConfig:
    inner_lr: float = 0.05
    outer_lr: float = 1e-4
    adapt_steps: int = 1
    outer_iters: int = 6000
    tasks_per_update: int = 5
    lr_step_size: int = 300
    lr_gamma: float = 0.9
    finetune_iters: int = 1000
    buffer_capacity: int = 15
    outer_rule: str = "fomaml"

    def validate(self):
        require_ints(self)
        for name in ("inner_lr", "outer_lr", "adapt_steps", "outer_iters",
                     "finetune_iters"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"MetaConfig.{name} must be finite, >= 0")
        if not 0 < self.lr_gamma <= 1:
            raise ValueError("MetaConfig.lr_gamma must be in (0, 1]")
        for name in ("tasks_per_update", "lr_step_size", "buffer_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"MetaConfig.{name} must be >= 1")
        if self.outer_rule not in OUTER_RULES:
            raise ValueError(f"MetaConfig.outer_rule must be one of "
                             f"{OUTER_RULES}, got {self.outer_rule!r}")


def make_pilot_task(model: CaeModel, h: np.ndarray, sigma2: float, shots: int,
                    rng: np.random.Generator, query_shots: int = None) -> Task:
    """Draw support and query pilot noise for every message.

    Support noise is drawn first, then query noise, so the task is fully
    determined by the rng stream state.  Only the noise is stored, in the
    layout of Task: adaptation re-encodes the pilots under the evolving
    encoder with the noise replayed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    query_shots = shots if query_shots is None else query_shots
    dtype = model.params.dtype
    m = model.n_messages
    support = awgn(rng, model.n_ch, sigma2, size=m * shots, dtype=dtype)
    query = awgn(rng, model.n_ch, sigma2, size=m * query_shots, dtype=dtype)
    return Task(h=np.asarray(h, dtype=dtype), support=support, query=query)


def _stack_tasks(model: CaeModel, tasks, which: str, dtype):
    """Stack the tasks' support or query pilots for stacked gradients.

    Returns pilot_batch's (onehot, noise, h, repeats) with noise (T, B, 2n),
    h (T, 1, 2n) and the one-hots shared across tasks.
    """
    return pilot_batch(model, np.stack([getattr(t, which) for t in tasks]),
                       np.stack([t.h for t in tasks]), dtype)


def run_sgd(model: CaeModel, theta: np.ndarray, batches,
            lr: float) -> np.ndarray:
    """SGD on the pipeline loss from theta, one step per batch of batches.

    A batch is a pilot_batch-style tuple (onehot, noise, h, repeats) for one
    task or a stack of T tasks; theta is (P,), adapted as one copy per
    stacked task, or (T, P).  Each step's new gradient array becomes the new
    parameters, so theta is never written; lr == 0 returns theta itself, as
    the steps would for finite gradients.
    """
    if lr == 0:
        return theta
    neg_lr = theta.dtype.type(-lr)
    for onehot, noise, h, repeats in batches:
        _, new = pipeline_loss_grads(model, theta, onehot, noise, h,
                                     want_loss=False, repeats=repeats)
        new *= neg_lr
        new += theta  # broadcasts a (P,) theta over a stack
        theta = new
    return theta


def inner_adapt(model: CaeModel, theta: np.ndarray, task, steps: int,
                alpha: float) -> np.ndarray:
    """Full-batch SGD on the support loss of one task from a (P,) theta, or
    of a list of T tasks from a (T, P) theta, bitwise equal to T separate
    calls (a (P,) theta broadcast over T tasks is not); returns a new array."""
    batch = (_stack_tasks(model, task, "support", theta.dtype)
             if isinstance(task, list) else
             pilot_batch(model, task.support, task.h, theta.dtype))
    return run_sgd(model, theta.copy(), repeat(batch, steps), alpha)


def outer_meta_step(model: CaeModel, theta: np.ndarray, tasks, config: MetaConfig,
                    adam_state: AdamState, lr: float):
    """One meta-update from a list of tasks.

    Stacks the tasks' support sets, and their query sets under "fomaml",
    with _stack_tasks, then adapts theta per task on the support set
    (adapt_steps SGD steps at inner_lr) to phi_T and Adam-updates theta at
    the scheduler-provided lr on the meta-gradient that config.outer_rule
    selects: the mean query-set gradient at phi_T ("fomaml"), or
    theta - mean_T phi_T ("reptile", no query pass).  A task listed more
    than once (a with-replacement sample) takes the first step with every
    copy, as a (P,) theta broadcast through flat GEMMs rounds by row count,
    then its later steps once, on a stack of the distinct tasks; each copy
    gets that phi, bitwise what adapting every copy would give.  Returns
    (adam_state, new theta), a new array; theta is never written.
    """
    if not tasks:
        raise ValueError("outer_meta_step needs at least one task")
    support = _stack_tasks(model, tasks, "support", theta.dtype)
    _, keep, expand = np.unique([id(t) for t in tasks], return_index=True,
                                return_inverse=True)
    steps, lr_in = config.adapt_steps, config.inner_lr
    if len(keep) < len(tasks) and steps > 1 and lr_in != 0:
        onehot, noise, h, rep = support
        adapted = run_sgd(model, theta, [support], lr_in)[keep]
        support = onehot, noise[keep], h[keep], rep
        adapted = run_sgd(model, adapted, repeat(support, steps - 1),
                          lr_in)[expand]
    else:
        adapted = run_sgd(model, theta, repeat(support, steps), lr_in)
    if config.outer_rule == "reptile":
        # theta - mean_T phi_T; adapted is theta itself when nothing adapted
        phi_mean = adapted.mean(axis=0) if adapted.ndim > 1 else adapted
        meta_grad = theta - phi_mean
    else:
        onehot, noise, h, rep = _stack_tasks(model, tasks, "query", theta.dtype)
        _, meta_grad = pipeline_loss_grads(model, adapted, onehot, noise, h,
                                           want_loss=False, repeats=rep,
                                           mean_grads=True)
    return adam_step_inplace(adam_state, theta, meta_grad, lr)


def meta_train(model: CaeModel, theta: np.ndarray, buffer: TaskBuffer,
               config: MetaConfig, rng: np.random.Generator,
               iter_offset: int = 0, adam: AdamState = None) -> np.ndarray:
    """Run config.outer_iters outer_meta_steps over tasks sampled from the
    buffer, each stacking its own sample.

    Tasks are sampled uniformly, without replacement when the buffer holds at
    least tasks_per_update tasks, with replacement otherwise (a short
    buffer's repeats adapt once).  Adam state and the step-decay schedule
    start fresh by default; callers that split one meta-training budget
    across calls pass iter_offset (schedule continuation) and their own adam
    state (updated in place).  theta is never written.
    """
    if len(buffer) == 0:
        raise ValueError("meta_train requires a nonempty buffer")
    n = len(buffer)
    k = config.tasks_per_update
    if adam is None:
        adam = AdamState.fresh(theta.shape[-1], dtype=theta.dtype)
    for it in range(config.outer_iters):
        idx = rng.choice(n, size=k, replace=n < k)
        lr = step_lr(config.outer_lr, iter_offset + it,
                     config.lr_step_size, config.lr_gamma)
        adam, theta = outer_meta_step(model, theta, [buffer[i] for i in idx],
                                      config, adam, lr)
    return theta


@dataclass
class CellSettings:
    """The settings every cell of a grid shares; RunConfig adds the cell's
    SNR and shot count, harness.ExperimentConfig the grid's lists of them.
    dtype is a numpy dtype name."""

    k: int = 4
    n_ch: int = 2
    n_sequences: int = 300
    rho: float = 0.99
    n_eval: int = 10000
    seed: int = 0
    meta: MetaConfig = field(default_factory=MetaConfig)
    hidden: int = 256
    dtype: str = "float64"
    query_shots: int = None


@dataclass
class RunConfig(CellSettings):
    """One online run: a single (method-agnostic) experiment cell."""

    snr_db: float = 5.0
    shots: int = 1

    @property
    def sigma2(self) -> float:
        return snr_to_sigma2(self.snr_db)

    def cell_substream(self, purpose, *extra) -> np.random.Generator:
        # keyed by (seed, purpose, float snr, shots, ...), never by method
        self.validate()
        return rngmod.substream(self.seed, purpose, float(self.snr_db),
                                self.shots, *extra)

    def validate(self):
        """Raise ValueError naming a field no cell can run with.  Every draw
        of a cell goes through cell_substream, which calls this first."""
        require_ints(self)
        snr = self.snr_db  # a bool is an int, but no SNR
        if isinstance(snr, bool) or not isinstance(snr, numbers.Real):
            raise ValueError(f"RunConfig.snr_db is not a real number: {snr!r}")
        if self.k < 1 or self.n_ch < 1:
            raise ValueError("k and n_ch must be >= 1")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        try:  # +inf dB is the noiseless channel; below about -3083 dB,
            NoiseModel(self.sigma2)  # 10 ** (-snr / 10) overflows
        except (OverflowError, ValueError):
            raise ValueError(f"snr_db entry {snr!r} has no finite "
                             f"noise variance sigma2 >= 0") from None
        if self.n_eval < 1 or self.n_sequences < 1 or self.hidden < 1:
            raise ValueError("n_eval, n_sequences and hidden must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must be in [0, 1]")
        if self.query_shots is not None and self.query_shots < 1:
            raise ValueError("query_shots must be >= 1 when set")
        try:  # an integer, half or complex dtype would train on cast weights
            dtype = np.dtype(self.dtype)
        except TypeError:
            dtype = self.dtype
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"RunConfig.dtype must be float32 or float64, "
                             f"got {dtype}")
        self.meta.validate()

    def build_model(self) -> CaeModel:
        return CaeModel.build(self.k, self.n_ch, self.cell_substream("init"),
                              hidden=self.hidden, dtype=self.dtype)


def channel_sequence(cfg: RunConfig):
    """Yield (sequence_index, h): the cell's AR(1) channel realizations,
    drawn from the ("channel", snr, shots) substream alone."""
    fading = FadingProcess(cfg.rho, cfg.n_ch, cfg.cell_substream("channel"),
                           dtype=cfg.dtype)
    for i in range(1, cfg.n_sequences + 1):
        yield i, fading.step()


def task_sequence(cfg: RunConfig, model: CaeModel):
    """Yield (sequence_index, h, task): channel_sequence plus pilot noise
    keyed only by (seed, snr, shots, sequence), so every method sees the same
    pilots."""
    for i, h in channel_sequence(cfg):
        task = make_pilot_task(model, h, cfg.sigma2, cfg.shots,
                               cfg.cell_substream("pilots", i),
                               query_shots=cfg.query_shots)
        yield i, h, task


def sequence_ser(model: CaeModel, cfg: RunConfig, i: int, h: np.ndarray,
                 theta: np.ndarray) -> float:
    """evaluate_ser of sequence i's fine-tuned theta on the ("eval", i)
    substream; a non-finite theta, which would still score a plausible SER,
    raises FloatingPointError naming snr, shots and sequence."""
    if not np.isfinite(theta).all():
        raise FloatingPointError(
            f"non-finite parameters after the fine-tune at snr "
            f"{cfg.snr_db:g} dB, shots {cfg.shots}, sequence {i}")
    return evaluate_ser(model, h, NoiseModel(cfg.sigma2), cfg.n_eval,
                        cfg.cell_substream("eval", i), theta=theta)


def theta_hash(theta: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(theta)).hexdigest()  # no copy


# T * P * itemsize budget of a fine-tune block: T = 8 at the desk width in
# float64, 1 at the paper width, where a step is BLAS-bound
FINE_TUNE_BLOCK_BYTES = 2 ** 20

# set while harness.run_experiment runs cells in one process per CPU, so that
# each of those processes fine-tunes inline, on its one CPU
_in_grid_pool = False


def pool_cpus() -> int:
    """Processes a pool may run, the caller counting as one: the CPUs of
    os.sched_getaffinity(0), else os.cpu_count(); 1 without os.fork and in
    the processes of a grid pool."""
    if _in_grid_pool or not hasattr(os, "fork"):
        return 1
    cpus = getattr(os, "sched_getaffinity", None)
    return len(cpus(0)) if cpus else os.cpu_count() or 1


def fine_tune_blocks(model: CaeModel, cfg: RunConfig, starts, row):
    """Fine-tune and score each (i, h, task, start theta) of the iterator
    starts; returns [row(i, ser, fine-tuned theta)] in order.  A fine-tune
    feeds only its own score, so runs of sequences fine-tune as one
    inner_adapt call on their stacked start thetas, scored before the next
    block is pulled when the caller is the only worker.  One-sequence
    blocks (the paper width, BLAS-bound steps) run in one process per CPU,
    the caller counting as one: while fewer than CPUs - 1 children are in
    flight and another block follows, a block fine-tunes in a forked
    child, which writes its theta into a shared anonymous mmap and exits;
    the caller fine-tunes inline the block that fills the window, every
    CPUs-th once it is full, and the last block, so it runs at least one
    fine-tune per call.  The caller scores
    every block in sequence order, so rows are a serial run's, bit for bit.
    A failed fine-tune raises RuntimeError naming snr, shots and sequence;
    whatever ends the loop, children still in flight are killed, and every
    child is reaped."""
    width = max(1, FINE_TUNE_BLOCK_BYTES // model.params.nbytes)
    workers = 1 if width > 1 else pool_cpus()
    if workers > 1:  # imported only here, as they cost 1.2 ms
        import mmap
        import signal
    rows, in_flight, children = [], deque(), set()
    fine_tune = partial(inner_adapt, model, steps=cfg.meta.finetune_iters,
                        alpha=cfg.meta.inner_lr)

    def pull():  # the next block, [] once starts is exhausted
        return list(islice(starts, width))

    def failed(seqs, how=""):
        first, last = seqs[0][0], seqs[-1][0]
        return RuntimeError(
            f"fine-tune failed{how} at snr {cfg.snr_db:g} dB, shots "
            f"{cfg.shots}, sequence {first}"
            + (f"-{last}" if last != first else ""))

    def score():
        seqs, tuned, pid = in_flight.popleft()
        if pid is not None:
            status = os.waitpid(pid, 0)[1]
            children.remove(pid)
            if status:
                raise failed(seqs, f" in child process {pid} (exit code "
                                   f"{os.waitstatus_to_exitcode(status)})")
        rows.extend(row(i, sequence_ser(model, cfg, i, h, theta), theta)
                    for (i, h), theta in zip(seqs, tuned))

    try:
        following = pull()
        while block := following:
            following = None
            seqs, tasks = [b[:2] for b in block], [b[2] for b in block]
            start = np.stack([b[3] for b in block])
            del block  # while fine-tuning, only the stack holds the starts
            pid = None
            if len(children) < workers - 1 and (following := pull()):
                tuned = np.frombuffer(mmap.mmap(-1, start.nbytes),
                                      start.dtype).reshape(start.shape)
                pid = os.fork()
                if pid == 0:
                    run_in_child(lambda: np.copyto(tuned,
                                                   fine_tune(start, tasks)))
                children.add(pid)
            else:
                try:
                    tuned = fine_tune(start, tasks)
                except Exception as e:
                    raise failed(seqs) from e
            in_flight.append((seqs, tuned, pid))
            del start  # and while scoring, only this block's results are alive
            if len(in_flight) == workers:
                score()
            if following is None:
                following = pull()
        while in_flight:
            score()
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return rows


def run_in_child(work, errors: int = None):
    """A forked child's whole life: call work() and exit 0.  If it raises,
    write the pickled exception to the pipe descriptor errors and exit 1;
    without errors, or for an exception that does not pickle into one
    atomic pipe write, print the traceback instead.  It never returns, so no
    frame or exit handler of the caller runs twice."""
    code = 1
    try:
        work()
        code = 0
    except BaseException as e:
        import pickle  # only a failing child needs these
        import select
        try:
            sent = pickle.dumps(e)
            pickle.loads(sent)  # as the caller will: some do not rebuild
        except Exception:
            sent = None
        if errors is not None and sent and len(sent) <= select.PIPE_BUF:
            os.write(errors, sent)
        else:
            import traceback
            traceback.print_exc()
            sys.stderr.flush()
    finally:
        os._exit(code)


@dataclass
class SequenceResult:
    sequence: int
    ser_after_adapt: float
    theta_snapshot_hash: str


def _chunk_schedule(outer_iters: int, n_sequences: int):
    """Split a total outer-iteration budget uniformly over the sequences.

    Returns per-sequence chunk sizes summing to outer_iters; any remainder
    goes to the earliest sequences so the freshest buffer states get it."""
    base, extra = divmod(outer_iters, n_sequences)
    return [base + (1 if i < extra else 0) for i in range(n_sequences)]


def online_starts(cfg: RunConfig, model: CaeModel):
    """Yield (i, h, task, start theta) per sequence of the online protocol:
    the start is the meta-initialization sequence i fine-tunes from.

    config.meta.outer_iters is the total meta-training budget for the whole
    run: it is split uniformly over the sequences, and the Adam state plus the
    step-decay schedule carry across sequences, so the updates interleaved
    with the sequence loop form one continuous meta-training run over the
    evolving buffer.  Sequence i - 1's chunk runs when sequence i's start is
    pulled, so the last sequence's chunk reaches no start and never runs."""
    sample_rng = cfg.cell_substream("task-sampling")  # validates cfg first
    chunks = _chunk_schedule(cfg.meta.outer_iters, cfg.n_sequences)
    theta = model.params
    buffer = TaskBuffer(cfg.meta.buffer_capacity)
    adam = AdamState.fresh(theta.shape[-1], dtype=theta.dtype)
    for i, h, task in task_sequence(cfg, model):
        if i > 1 and chunks[i - 2] > 0:
            per_call = replace(cfg.meta, outer_iters=chunks[i - 2])
            theta = meta_train(model, theta, buffer, per_call, sample_rng,
                               iter_offset=sum(chunks[:i - 2]), adam=adam)
        yield i, h, task, theta  # meta_train never writes its theta
        buffer.append(task)


def online_run(cfg: RunConfig, model: CaeModel = None,
               row=lambda i, ser, th: SequenceResult(i, ser, theta_hash(th))):
    """Run the full online meta-learning protocol: fine-tune and score every
    start of online_starts in fine_tune_blocks; returns
    [row(i, ser, fine-tuned theta)] per sequence, SequenceResults by default."""
    if model is None:
        model = cfg.build_model()
    return fine_tune_blocks(model, cfg, online_starts(cfg, model), row)
