"""Preconditioned conjugate gradients for the per-step SPD system.

The part of the step operator that is constant over a run (lumped mass,
stiffness and divergence form) is assembled once into one sparse matrix;
the per-node rank-one term coming from the energy quadratization changes
every step and is applied from its node vectors without assembling a
matrix.  CG starts from the step's own start value and residual, and its
one loop confirms every exit on the true residual, formed from the
separate products K x and L x, which then serve the next step.
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

    D is part of the operator exactly when it is given.  The rank-one part
    applies x -> w_z (p_z . x_z) p_z at every interior node z, where p[0]
    and p[1] hold the reduced components of the quadratization gradient at
    the interior nodes (p has shape (2, n)); set_rank_one() installs it for
    each step, before any matvec or residual, and keeps the constant part.
    """

    def __init__(self, weights, K, D, cm, ck, cd):
        self.K = K
        self.D = D
        self.cm = float(cm)
        self.ck = float(ck)
        self.cd = float(cd)
        self.n = weights.shape[0]

        # c_m w added into the diagonal of c_k K, as the sum of the two
        # sparse matrices rounds.  The copy shares the index arrays of K,
        # which setdiag leaves alone when K is canonical (sorted, no
        # duplicates) and holds its diagonal, as the stencil forms do.
        base = sparse.csr_matrix((self.ck * K.data, K.indices, K.indptr),
                                 shape=K.shape)
        diag = base.diagonal() + self.cm * weights
        base.setdiag(diag)
        if D is not None:
            base = base + self.cd * D
            diag = base.diagonal()
        self.base = base
        self._base_diag = diag
        self.w = weights

    def set_rank_one(self, p_nodes) -> None:
        """Install the rank-one vectors (2, n) of one step."""
        self.p = p_nodes
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
        self.spread(self.project(x), y)
        return y

    def products(self, x: np.ndarray):
        """(K x, L x) with L x = c_k K x + c_d D x, its D term only with D."""
        Kx = self.K @ x
        Lx = self.ck * Kx
        if self.D is not None:
            Lx += self.cd * (self.D @ x)
        return Kx, Lx

    def residual(self, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """rhs - A x from the separate products of x rather than the
        assembled part; keeps them as .Kx and .Lx, the products of the
        solution that a step hands on."""
        self.Kx, self.Lx = self.products(x)
        y = self.cm * (self.w * x)
        y += self.Lx
        self.spread(self.project(x), y)
        return rhs - y


def cg_solve(A: StepOperator, rhs: np.ndarray, x0: np.ndarray, r0: np.ndarray,
             tol: float = 1e-10, maxiter: int | None = None):
    """Solve A x = rhs to a relative residual of tol, starting from x0.

    r0 is the residual rhs - A x0 formed by the caller; it is consumed
    (overwritten), and x0 is never written.  Returns (x, iterations).
    Whenever the recurrence residual meets the limit, the true residual
    from A.residual confirms it, which leaves the products of x on A; a
    rejected confirmation (a drifted recurrence or a wrong r0) restarts CG
    from the true residual.  Raises ConvergenceError when maxiter is
    exhausted.
    """
    norm_b = np.linalg.norm(rhs)
    if norm_b == 0.0:
        x = np.zeros_like(rhs)
        A.residual(rhs, x)
        return x, 0
    if maxiter is None:
        maxiter = 10 * rhs.shape[0]
    limit = tol * norm_b

    x, r, p = x0, r0, None
    for k in range(maxiter + 1):
        if np.linalg.norm(r) <= limit:
            true_r = A.residual(rhs, x)
            if np.linalg.norm(true_r) <= limit:
                return x, k
            # the search directions built on the wrong residual are stale
            r, p = true_r, None
        if k == maxiter:
            break
        z = r / A.diag
        rz_new = float(r @ z)
        p = z if p is None else z + (rz_new / rz) * p
        rz = rz_new
        Ap = A.matvec(p)
        alpha = rz / float(p @ Ap)
        if k == 0:
            x = x + alpha * p  # out of place: x0 belongs to the caller
        else:
            x += alpha * p
        r -= alpha * Ap

    res = float(np.linalg.norm(A.residual(rhs, x)) / norm_b)
    raise ConvergenceError(
        "CG did not converge in %d iterations (relative residual %.3e)"
        % (maxiter, res),
        residual=res,
    )
