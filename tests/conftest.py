"""Suite-wide set-up: pin BLAS to one thread before numpy is imported.

On a small host, a multi-threaded BLAS competing with another busy process
made the agent's matmuls about 10x slower, so the suite's timings would
depend on whatever else runs.  A thread count already set in the
environment is kept."""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
