"""Pin BLAS to one thread for the test session, unless the caller set the
thread count. pytest imports this file before any test module, so before
NumPy loads its BLAS library, which reads these variables once. At this
project's matrix sizes BLAS's own threads cost more than they gain."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
