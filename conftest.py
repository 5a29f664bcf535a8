"""Pin BLAS and OpenMP to one thread before any test module imports numpy.

Test vectors are small, so extra BLAS threads only contend for the cores;
an explicit setting in the environment still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
