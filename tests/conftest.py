"""Run the suite on one BLAS thread, as the benchmark and the fingerprints do.

Test modules import numpy before omlcae, and the BLAS library reads these
variables when numpy loads, so they are set here, before any test module
is collected.  A value already in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
