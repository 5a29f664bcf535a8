"""Preconditioned conjugate gradients for the per-step SPD system.

The part of the step operator that is constant over a run (lumped mass,
stiffness and divergence form) is assembled once into one sparse matrix;
the per-node rank-one term coming from the energy quadratization changes
every step and is applied from its node vectors without assembling a
matrix.  The true residual that confirms a CG solution is formed from
the separate products K x and D x, which then serve the next step.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse


class ConvergenceError(RuntimeError):
    """CG failed to reach the requested residual within maxiter, or a step
    produced non-finite values.  Raised from a time step, it names the step
    index and the time it was advancing to; raised from an experiment, it
    also names the case (.case).  Each is None otherwise."""

    def __init__(self, message: str, residual: float,
                 step: int | None = None, t: float | None = None,
                 case=None):
        super().__init__(message)
        self.residual = residual
        self.step = step
        self.t = t
        self.case = case


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

        # c_m w added into the diagonal of c_k K, as the sum of the two
        # sparse matrices rounds.  The copy shares the index arrays of K,
        # which setdiag leaves alone when K is canonical (sorted, no
        # duplicates) and holds its diagonal, as the stencil forms do.
        base = sparse.csr_matrix((self.ck * stiffness.data, stiffness.indices,
                                  stiffness.indptr), shape=stiffness.shape)
        diag = base.diagonal() + self.cm * weights
        base.setdiag(diag)
        if div_form is not None and self.cd != 0.0:
            base = base + self.cd * div_form
            diag = base.diagonal()
        self.base = base
        self._base_diag = diag
        self.w = weights
        self.set_rank_one(p_nodes)

    def set_rank_one(self, p_nodes) -> None:
        """Install the rank-one vectors (2, n) of one step, or None."""
        self.p = p_nodes
        if p_nodes is None:
            self._wp = None
            self.diag = self._base_diag
            return
        self._wp = self.w[0::2] * p_nodes
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

    def products(self, x: np.ndarray):
        """(K x, D x, L x) with L x = c_k K x + c_d D x; D x is None when
        the divergence term is off."""
        Kx = self.K @ x
        Lx = self.ck * Kx
        Dx = None
        if self.D is not None and self.cd != 0.0:
            Dx = self.D @ x
            Lx += self.cd * Dx
        return Kx, Dx, Lx

    def residual(self, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """rhs - A x from the separate products of x rather than the
        assembled part; keeps them as .Kx, .Dx and .Lx, the products of
        the solution that a step hands on."""
        self.Kx, self.Dx, self.Lx = self.products(x)
        y = self.cm * (self.w * x)
        y += self.Lx
        if self.p is not None:
            self.spread(self.project(x), y)
        return rhs - y


def cg_solve(A: StepOperator, rhs: np.ndarray, tol: float = 1e-10,
             maxiter: int | None = None, x0: np.ndarray | None = None,
             r0: np.ndarray | None = None):
    """Solve A x = rhs to a relative residual of tol.

    r0, when given, is the residual rhs - A x0 formed by the caller; it
    saves the first multiply and is consumed (overwritten).  x0 is never
    written.  Returns (x, iterations).  Every return is confirmed on the
    true residual from A.residual, which leaves the products of the
    returned x on A; raises ConvergenceError when maxiter is exhausted.
    """
    norm_b = np.linalg.norm(rhs)
    if norm_b == 0.0:
        x = np.zeros_like(rhs)
        A.residual(rhs, x)
        return x, 0
    if maxiter is None:
        maxiter = 10 * rhs.shape[0]
    limit = tol * norm_b

    x = np.zeros_like(rhs) if x0 is None else x0
    if r0 is not None and np.linalg.norm(r0) > limit:
        r = r0
    else:
        r = A.residual(rhs, x)  # a supplied residual is confirmed too
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
        if k == 1:
            x = x + alpha * p  # out of place: x0 belongs to the caller
        else:
            x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= limit:
            true_r = A.residual(rhs, x)
            if np.linalg.norm(true_r) <= limit:
                return x, k
            # The recurrence drifted from the true residual: restart from
            # it, since the search directions built on the drift are stale.
            # The assembled product rounds as the iterates do.
            r, p = rhs - A.matvec(x), None

    res = float(np.linalg.norm(A.residual(rhs, x)) / norm_b)
    raise ConvergenceError(
        "CG did not converge in %d iterations (relative residual %.3e)"
        % (maxiter, res),
        residual=res,
    )
