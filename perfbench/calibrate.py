"""A fixed reference kernel that tells how fast the host runs right now.

On a shared host the same code runs up to twice as slow when neighbours
are busy, and that load drifts over minutes.  The benchmark runs this
kernel between repetitions, in its own process, and divides measured times
by the kernel's time in the same run (see ``run.calibrated``).  The kernel
uses no qtflow code, so a change to qtflow moves only the numerator.

It mixes what qtflow's time goes to: a sparse matrix-vector product on a
256^2 five-point stencil (the size of ``fine_run``), vector updates and
reductions on 130k entries, and numpy calls on small arrays, where Python
call overhead dominates.

    python3 perfbench/calibrate.py     # prints the kernel's time in seconds
"""

import time

import numpy as np
import scipy.sparse as sp

N = 256
MATVECS = 40
SMALL_CALLS = 3000


class Kernel:
    def __init__(self):
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(N, N))
        eye = sp.identity(N)
        self.matrix = (sp.kron(eye, line) + sp.kron(line, eye)).tocsr()
        self.x = np.linspace(0.0, 1.0, N * N)
        self.small = np.linspace(0.0, 1.0, 64)

    def work(self):
        x = self.x.copy()
        total = 0.0
        for _ in range(MATVECS):
            y = self.matrix @ x
            x += 1e-6 * y
            total += float(x @ y)
        small = self.small
        for _ in range(SMALL_CALLS):
            total += float(np.sqrt(small * small + 1.0).sum())
        return total

    def seconds(self, clock=time.perf_counter):
        """Wall time of one pass of the kernel."""
        start = clock()
        self.work()
        return clock() - start


if __name__ == "__main__":
    kernel = Kernel()
    kernel.seconds()
    print("%.6f" % min(kernel.seconds() for _ in range(10)))
