"""Byte-identity fingerprints of the program's outputs.

    python3 tools/fingerprint.py

Run it from the root of a checkout; it imports the package from ``src/``.
It prints one ``name sha256`` line per output, in a fixed order:

  cli/*             criterion 9's config through ``omlcae run`` with all four
                    methods (metrics.csv, summary.csv), and ``omlcae
                    constellation`` for the scratch CAE and, over 3 sequences,
                    for OML-CAE
  desk-<s>shot/*    OML-CAE, scratch-CAE and joint-CAE rows, each with the
                    hashes of its fine-tuned thetas, and QPSK+MLE rows, desk
                    profile, 11 sequences
  paper-1shot/*     the same at the paper profile, 2 sequences
  desk-f32-<rule>/* float32 desk online_run under both outer rules, and the
                    scratch and joint CAE, 11 sequences

33 lines in all.  A CAE cell fine-tunes and scores its method's start stream
(``metalearn.online_starts``, ``baselines.scratch_starts`` or
``baselines.joint_starts``) in ``metalearn.fine_tune_blocks``, as
``online_run``, ``run_scratch_cae`` and ``run_joint_cae`` do, with a row that
also hashes the fine-tuned theta.  Each cell keeps its profile's per-sequence
meta budget.  Two runs of one checkout must print the same lines, and so must
a run pinned to one CPU (``taskset -c 0 python3 tools/fingerprint.py``),
where the paper-width fine-tunes all run in the calling process instead
of one process per CPU, the caller and forked children it reaps (it scores
every sequence in order, so the bits are a serial run's either way), and a
run under ``MALLOC_PERTURB_=165``, where glibc fills freshly allocated
memory with a byte pattern, so an entry read before it is written changes
a line.  A change that keeps every output byte-identical prints the
same lines as its parent.  BLAS runs on one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from dataclasses import replace  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import omlcae  # noqa: E402
from omlcae import baselines, harness, metalearn  # noqa: E402
from omlcae.cli import main as cli_main  # noqa: E402

CRITERION_9 = ("[experiment]\nk = 2\nn_ch = 1\nsnr_db = 5\nshots = 1\n"
               "n_sequences = 3\nn_eval = 200\nhidden = 16\nseed = 5\n"
               "methods = oml_cae,cae,joint_cae,qpsk_mle\ndtype = float64\n"
               "[meta]\nouter_iters = 5\nfinetune_iters = 10\n")
CONSTELLATION = ["constellation", "--bits", "2", "--channel-uses", "1",
                 "--snr-db", "5", "--shots", "1", "--seed", "5", "--iters",
                 "20", "--meta-iters", "2", "--n-show", "16"]


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def cli_outputs(tmp):
    cfg = os.path.join(tmp, "exp.cfg")
    with open(cfg, "w") as f:
        f.write(CRITERION_9)
    out = os.path.join(tmp, "run")
    with open(os.devnull, "w") as null, redirect_stdout(null):
        cli_main(["run", "--config", cfg, "--out", out])
        for method, extra in (("cae", []), ("oml_cae", ["--sequences", "3"])):
            cli_main(CONSTELLATION + ["--method", method, "--out",
                                      os.path.join(tmp, f"{method}.json")]
                     + extra)
    for name in ("metrics.csv", "summary.csv"):
        with open(os.path.join(out, name), "rb") as f:
            yield f"cli/{name}", digest(f.read())
    for method in ("cae", "oml_cae"):
        with open(os.path.join(tmp, f"{method}.json"), "rb") as f:
            yield f"cli/constellation-{method}.json", digest(f.read())


def cell_config(profile, shots, sequences, **kw):
    cfg = harness.apply_profile(harness.ExperimentConfig(
        k=4, n_ch=2, snr_db=(5.0,), shots=(shots,), seed=0, profile=profile,
        **kw))
    p = harness.PROFILES[profile]
    per_sequence = p["outer_iters"] // p["n_sequences"]
    meta = replace(cfg.meta, outer_iters=per_sequence * sequences)
    cfg = replace(cfg, n_sequences=sequences, meta=meta)
    cfg.validate()
    return cfg.run_config(5.0, shots)


STARTS = {"oml_cae": metalearn.online_starts,
          "cae": baselines.scratch_starts,
          "joint_cae": baselines.joint_starts}


def cell_outputs(prefix, rc, methods=(*STARTS, "qpsk_mle")):
    for method in methods:
        name = f"{prefix}/{method}"
        if method == "qpsk_mle":
            yield f"{name}/rows", digest(repr(baselines.run_qpsk_mle(rc)))
            continue
        model = rc.build_model()
        rows = metalearn.fine_tune_blocks(
            model, rc, STARTS[method](rc, model),
            lambda i, ser, theta: (i, ser, metalearn.theta_hash(theta)))
        # online_run's default rows carry the theta hash, the baselines' not
        yield f"{name}/rows", digest(repr(
            rows if method == "oml_cae" else [r[:2] for r in rows]))
        yield f"{name}/theta", digest(repr([(i, h) for i, _, h in rows]))


def fingerprints():
    with tempfile.TemporaryDirectory() as tmp:
        yield from cli_outputs(tmp)
    for shots in (1, 5):
        yield from cell_outputs(f"desk-{shots}shot",
                                cell_config("desk", shots, 11))
    yield from cell_outputs("paper-1shot", cell_config("paper", 1, 2))
    for rule in metalearn.OUTER_RULES:
        rc = cell_config("desk", 1, 11, dtype="float32")
        rc = replace(rc, meta=replace(rc.meta, outer_rule=rule))
        methods = STARTS if rule == "reptile" else ("oml_cae",)
        yield from cell_outputs(f"desk-f32-{rule}", rc, methods)


if __name__ == "__main__":
    if not os.path.abspath(omlcae.__file__).startswith(ROOT + os.sep):
        sys.exit(f"imported omlcae from {omlcae.__file__}, not from {ROOT}")
    for name, value in fingerprints():
        print(name, value, flush=True)
