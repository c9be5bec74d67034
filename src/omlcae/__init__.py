"""Online meta-learning channel autoencoder simulator and library."""

import os

# one BLAS thread unless set: fine_tune_blocks runs a thread per CPU
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # read when numpy loads, just below
from .cae import CaeModel, decode, encode, evaluate_ser
from .channel import FadingProcess, NoiseModel, rayleigh_sample, snr_to_sigma2
from .harness import (ExperimentConfig, MetricsRecord, efficiency_analysis,
                      export_constellation, parse_config, run_experiment)
from .metalearn import (MetaConfig, RunConfig, Task, TaskBuffer, buffer_push,
                        inner_adapt, make_pilot_task, meta_train, online_run,
                        outer_meta_step)
from .numerics import (AdamState, MlpSpec, adam_step, finite_diff_grad,
                       init_params, mlp_backward, mlp_forward, step_lr)

__version__ = "0.1.0"
