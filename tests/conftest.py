"""Pin BLAS to one thread for the whole suite.

pytest imports this file before any test module, hence before numpy loads
its BLAS.  A multithreaded BLAS beside another CPU-bound process slows the
many small eigensolves of the suite several-fold; a value already set in
the environment is kept.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
