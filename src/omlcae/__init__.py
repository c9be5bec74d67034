"""Online meta-learning channel autoencoder simulator and library."""

import ctypes
import os
import sys
import warnings

# one BLAS thread unless set: fine_tune_blocks runs a process per CPU
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules and not any(v in os.environ for v in _BLAS_VARS):
    warnings.warn("numpy was imported before omlcae with none of "
                  f"{', '.join(_BLAS_VARS)} set: the one-BLAS-thread default "
                  "cannot apply, so paper-width fine-tunes may oversubscribe "
                  "the cores", RuntimeWarning, stacklevel=2)
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")  # read when numpy first loads
# glibc would unmap large freed blocks and trim the heap, so each training
# step faults its new arrays in again: keep them, unless malloc is tuned
if os.name == "posix" and not any(v in os.environ for v in (
        "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")) and (
        "glibc.malloc" not in os.environ.get("GLIBC_TUNABLES", "")):
    _mallopt = getattr(ctypes.CDLL(None), "mallopt", lambda *_: 0)
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, 32 MiB; ints pass as C int
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD, 64 MiB

__version__ = "0.1.0"
