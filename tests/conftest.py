"""Test-session set-up: BLAS runs on one thread.

The variables are read when numpy loads its BLAS, so they are set here, before
any test module imports numpy.  With more than one BLAS thread, `train`'s
lanes (one thread per CPU) each start BLAS threads of their own and contend
for the CPUs; `tools/golden_run.py` and the benchmark pin BLAS the same way.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
