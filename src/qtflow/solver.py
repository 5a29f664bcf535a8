"""Preconditioned conjugate gradients for the per-step SPD system.

The part of the step operator that is constant over a run (lumped mass,
stiffness and divergence form) is assembled once into one sparse matrix;
the per-node rank-one term coming from the energy quadratization changes
every step and is applied from its node vectors without assembling a
matrix.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


class ConvergenceError(RuntimeError):
    """CG failed to reach the requested residual within maxiter."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class StepOperator:
    """SPD operator  c_m diag(w) + c_k K + c_d D + rank-one per node.

    The rank-one part applies x -> w_z (p_z . x_z) p_z at every interior
    node z, where p[0] and p[1] hold the reduced components of the
    quadratization gradient at the interior nodes (p has shape (2, n)).
    Pass p_nodes=None to disable it; set_rank_one() replaces it for the
    next step while the constant part is kept.
    """

    def __init__(self, weights, stiffness, div_form, p_nodes,
                 mass_coef, grad_coef, div_coef):
        self.K = stiffness
        self.D = div_form
        self.cm = float(mass_coef)
        self.ck = float(grad_coef)
        self.cd = float(div_coef)
        self.n = weights.shape[0]

        base = sparse.diags(self.cm * weights, format="csr") + self.ck * stiffness
        if div_form is not None and self.cd != 0.0:
            base = base + self.cd * div_form
        self.base = base.tocsr()
        self._base_diag = self.base.diagonal()
        self._node_w = weights[0::2]
        self.set_rank_one(p_nodes)

    def set_rank_one(self, p_nodes) -> None:
        """Install the rank-one vectors (2, n) of one step, or None."""
        self.p = p_nodes
        if p_nodes is None:
            self._wp = None
            self.diag = self._base_diag
            return
        self._wp = self._node_w * p_nodes
        diag = self._base_diag.copy()
        diag[0::2] += self._wp[0] * p_nodes[0]
        diag[1::2] += self._wp[1] * p_nodes[1]
        self.diag = diag

    def project(self, x: np.ndarray) -> np.ndarray:
        """p_z . x_z at every interior node."""
        s = self.p[0] * x[0::2]
        s += self.p[1] * x[1::2]
        return s

    def spread(self, s: np.ndarray, y: np.ndarray) -> None:
        """y += w_z s_z p_z at every interior node, in place."""
        y[0::2] += self._wp[0] * s
        y[1::2] += self._wp[1] * s

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.base @ x
        if self.p is not None:
            self.spread(self.project(x), y)
        return y


def cg_solve(A: StepOperator, rhs: np.ndarray, tol: float = 1e-10,
             maxiter: int | None = None, x0: np.ndarray | None = None,
             r0: np.ndarray | None = None):
    """Solve A x = rhs to a relative residual of tol.

    r0, when given, is the residual rhs - A x0 formed by the caller; it
    saves the first multiply.  Returns (x, iterations).  Convergence is
    always confirmed on the true residual rhs - A x from an explicit
    multiply; raises ConvergenceError when maxiter is exhausted.
    """
    norm_b = np.linalg.norm(rhs)
    if norm_b == 0.0:
        return np.zeros_like(rhs), 0
    if maxiter is None:
        maxiter = 10 * rhs.shape[0]
    limit = tol * norm_b

    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    r = rhs - A.matvec(x) if r0 is None else r0.copy()
    if r0 is not None and np.linalg.norm(r) <= limit:
        r = rhs - A.matvec(x)  # a supplied residual is confirmed too
    if np.linalg.norm(r) <= limit:
        return x, 0

    p = None
    for k in range(1, maxiter + 1):
        z = r / A.diag
        rz_new = float(r @ z)
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap = A.matvec(p)
        alpha = rz / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= limit:
            true_r = rhs - A.matvec(x)
            if np.linalg.norm(true_r) <= limit:
                return x, k
            # The recurrence drifted from the true residual: restart from
            # it, since the search directions built on the drift are stale.
            r, p = true_r, None

    res = float(np.linalg.norm(rhs - A.matvec(x)) / norm_b)
    raise ConvergenceError(
        "CG did not converge in %d iterations (relative residual %.3e)"
        % (maxiter, res),
        residual=res,
    )
