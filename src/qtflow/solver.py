"""Preconditioned conjugate gradients for the per-step SPD system.

Vectors are component-major C-contiguous (2, m) arrays, rows q1 and q2 at
the m interior nodes; dot products run over all 2m entries.  The part of
the step operator that is constant over a run (lumped mass, stiffness and
divergence form) is one scalar m x m stencil matrix, stored by diagonals
and applied to each row; the per-node rank-one term coming from the
energy quadratization changes every step and is applied from its node
vectors without assembling a matrix.  The divergence form is K, so the
elastic part is c K.  CG starts from the step's own start value and
residual, and its one loop confirms every exit on the true residual,
formed from K x, which then serves the energy and the next step.  The
operator owns the work vectors of a step: a confirmation forms K x in
.dir, CG's direction vector, which is dead then (an accepted
confirmation returns, a rejected one restarts), and every iteration forms
the Jacobi diagonal in .tmp and A p over it.  So a solve owns no vector
but the x it returns, and after a solve .dir holds K x; .rhs, .res and
.tmp are free until the next step.
"""

from __future__ import annotations

import math

import numpy as np

from .assembly import stiffness_block


class ConvergenceError(RuntimeError):
    """CG failed to reach the requested residual within maxiter, or a step
    met non-finite values or a nonpositive radicand.  From a time step, it
    names the step index and the time it was advancing to; from an
    experiment, also the case (.case).  Each is None otherwise."""

    def __init__(self, message: str, residual: float,
                 step: int | None = None, t: float | None = None,
                 case=None):
        super().__init__(message)
        self.residual = residual
        self.step = step
        self.t = t
        self.case = case


class StepOperator:
    """SPD operator  c_m w I + c K + rank-one per node.

    K is the interior stiffness of mesh, m x m, applied to each row of a
    (2, m) vector, and w the lumped weight of every interior node, a float.
    c = c_k + c_d when D is given, and c = c_k without D.  D is K itself,
    as assembly.assemble_div_form() returns it, or another matrix that
    equals K entry for entry (ValueError otherwise).  The constant part
    c_m w I + c K is .base, built on the mesh's lattice as a DIA matrix
    with the bits of the CSR sum (assembly.stiffness_block).  The rank-one
    part applies x -> w (p_z . x_z) p_z at every interior node z, p (2, m)
    holding the reduced components of the quadratization gradient there;
    set_rank_one() installs it before a step's first matvec or residual.
    The operator owns six (2, m) work vectors: .rhs, .res, .dir, .tmp, .p
    and .wp, and p . x (m,).  .dir holds K x after residual(), and
    cg_solve forms the diagonal in .tmp (diagonal()).
    """

    def __init__(self, mesh, w, K, D, cm, ck, cd):
        self.cm, self.ck, self.cd = float(cm), float(ck), float(cd)
        m = K.shape[0]
        self.n = 2 * m  # unknowns
        if D is not None and D is not K and not all(map(
                np.array_equal, (D.indptr, D.indices, D.data),
                (K.indptr, K.indices, K.data))):
            raise ValueError("the divergence form D must equal the stiffness K")
        self.K = K
        self.D = None if D is None else K  # one matrix for both
        self.c = self.ck + self.cd if D is not None else self.ck
        self.w = float(w)
        self.base = stiffness_block(mesh, self.c, self.cm * self.w)
        # every interior node has the same stencil, so the diagonal is one
        # number
        self._base_diag = float(self.base.data[self.base.offsets == 0][0, 0])
        # work vectors: step()'s rhs, the residual (CG's start,
        # residual()'s), CG's direction (residual()'s K x), a shared
        # temporary (CG's diagonal, z and A p), p (step() forms P there) and
        # w p; p . x
        self.rhs, self.res, self.dir, self.tmp, self.p, self.wp = np.empty((6, 2, m))
        self._s = np.empty(m)

    def set_rank_one(self, p_nodes) -> None:
        """Install the rank-one vectors (2, m) of one step in .p, and w p in
        .wp: step() forms them there, and any other array is copied in."""
        if p_nodes is not self.p:
            np.copyto(self.p, p_nodes)
        np.multiply(self.w, self.p, out=self.wp)

    def diagonal(self, out: np.ndarray | None = None) -> np.ndarray:
        """The diagonal of the installed operator, w p * p plus the
        constant part's entry c_m w + c K_zz (one number), into out when
        given (a new (2, m) vector otherwise); cg_solve forms it in .tmp
        every iteration."""
        d = np.multiply(self.wp, self.p, out=out)
        d += self._base_diag
        return d

    def project(self, x: np.ndarray) -> np.ndarray:
        """p_z . x_z at every interior node, in one pass, into the
        operator's vector that the next call overwrites.  einsum sums from
        +0.0, so this has the bits of p[0] * x[0] + p[1] * x[1] except for
        the sign of a (-0) + (-0) sum, which is +0 here."""
        return np.einsum("ij,ij->j", self.p, x, out=self._s)

    def spread(self, s: np.ndarray, y: np.ndarray) -> None:
        """y += w s_z p_z at every interior node z, in place."""
        y += np.multiply(self.wp, s, out=self.tmp)

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A x, into out when given (a new vector otherwise)."""
        y = np.multiply(self.wp, self.project(x), out=out)
        y[0] += self.base @ x[0]
        y[1] += self.base @ x[1]
        return y

    def products(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """K x, into out when given (a new vector otherwise)."""
        Kx = np.empty_like(x) if out is None else out
        Kx[0] = self.K @ x[0]
        Kx[1] = self.K @ x[1]
        return Kx

    def residual(self, rhs: np.ndarray, x: np.ndarray) -> np.ndarray:
        """rhs - A x from K x rather than the assembled part, in the
        operator's vector .res; keeps K x in .dir, the product of the
        solution that a step hands on."""
        Kx = self.products(x, out=self.dir)
        y = np.multiply(self.w, x, out=self.res)
        y *= self.cm
        y += np.multiply(self.c, Kx, out=self.tmp)
        self.spread(self.project(x), y)
        return np.subtract(rhs, y, out=y)


def cg_solve(A: StepOperator, rhs: np.ndarray, x0: np.ndarray, r0: np.ndarray,
             tol: float = 1e-10, maxiter: int | None = None):
    """Solve A x = rhs to a relative residual of tol, starting from x0.

    r0 is the residual rhs - A x0 formed by the caller; it is consumed
    (overwritten), and x0 is never written.  Returns (x, iterations).
    Whenever the recurrence residual meets the limit, the true residual
    from A.residual confirms it, which leaves K x in A.dir, where the
    direction p is dead by then; a rejected confirmation (a drifted
    recurrence or a wrong r0, NaN too) restarts CG from the true residual.
    The only new vector of a solve is x (x0 itself when the first
    confirmation holds, zeros when rhs is).  Every iteration forms the
    Jacobi diagonal in A.tmp, z over it, and A p there once z is dead; r's
    update is the last use of A p.
    Raises ConvergenceError when maxiter is exhausted or p.Ap is not
    positive (it underflows far below the rounding floor), and at once
    when rhs is not finite.
    """
    norm_b = math.sqrt(np.vdot(rhs, rhs))
    if norm_b == 0.0:
        x = np.zeros_like(rhs)
        A.residual(rhs, x)
        return x, 0
    if not math.isfinite(norm_b):
        raise ConvergenceError("non-finite right-hand side", math.nan)
    if maxiter is None:
        maxiter = 10 * rhs.size
    limit = tol * norm_b

    x, r, p, tmp = x0, r0, None, A.tmp
    for k in range(maxiter + 1):
        if not math.sqrt(np.vdot(r, r)) > limit:
            true_r = A.residual(rhs, x)  # K x goes to A.dir, over p
            if math.sqrt(np.vdot(true_r, true_r)) <= limit:
                return x, k
            # the search directions built on the wrong residual are stale
            r, p = true_r, None
        if k == maxiter:
            break
        # a first direction is z itself, so it is formed in its own vector;
        # any other z is formed over the diagonal and is dead before matvec
        # writes A p into tmp
        z = np.divide(r, A.diagonal(out=tmp), out=A.dir if p is None else tmp)
        rz_new = float(np.vdot(r, z))
        p = z if p is None else np.add(
            z, np.multiply(p, rz_new / rz, out=p), out=p)
        rz = rz_new
        Ap = A.matvec(p, out=tmp)
        pAp = float(np.vdot(p, Ap))
        if not pAp > 0.0:
            break
        alpha = rz / pAp
        r -= np.multiply(Ap, alpha, out=Ap)  # A p dies here, so x may use tmp
        if k == 0:
            x = x + np.multiply(p, alpha, out=tmp)  # x0 belongs to the caller
        else:
            x += np.multiply(p, alpha, out=tmp)

    true_r = A.residual(rhs, x)
    res = math.sqrt(np.vdot(true_r, true_r)) / norm_b
    raise ConvergenceError(
        "CG did not converge in %d iterations (relative residual %.3e)"
        % (k, res),
        residual=res,
    )
