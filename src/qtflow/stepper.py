"""Time integration of the mass-lumped, linearly implicit tensor flow.

One step solves a single SPD system for the new Q field.  Because the
lumped inner product is diagonal, the auxiliary variable can be eliminated
exactly before the solve:

    r_new(z) = r(z) + P(Q(z)) : (Q_new(z) - Q(z))

holds nodewise, so substituting the midpoint value of r into the momentum
equation turns the coupled (Q, r) update into

    [ (1/dt + sigma/dt^2) diag(w) + L1 K + (L2+L3)/2 D + R ] q_new = rhs,

where w are the lumped weights, K the interleaved scalar stiffness, D the
divergence form and R the per-node rank-one operator
x -> w_z (p_z . x_z) p_z built from P at the current state.  With sigma = 0
the two-level terms drop and only one history level is kept.

A state holds interior vectors only: the homogeneous Dirichlet condition
keeps boundary Q at zero, and boundary r values stay at their initial
value because their update increment vanishes there, so one full-node r
array per run holds them.  SimState.Q_field() and r_field() build nodal
fields on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .mesh import StructuredMesh
from .model import Params, aux_P, aux_r
from .solver import ConvergenceError, StepOperator, cg_solve


@dataclass
class SimState:
    """State n of a run as interleaved interior vectors, with the sparse
    products of its Q level carried into the energy and the next step."""

    q: np.ndarray              # Q^n at interior DOFs
    dq: np.ndarray | None      # Q^n - Q^{n-1}; None without a previous level
    r: np.ndarray              # r^n at interior nodes
    Kq: np.ndarray             # K q
    Lq: np.ndarray             # L1 K q + (L2 + L3)/2 D q
    r0: np.ndarray             # (N,) the run's nodal r^0, read on the boundary
    n: int
    t: float

    def Q_field(self, mesh: StructuredMesh) -> np.ndarray:
        """Q^n as a nodal (N, 2) field, zero on the boundary."""
        return mesh.scatter_interior(np.zeros((mesh.n_nodes, 2)), self.q)

    def r_field(self, mesh: StructuredMesh) -> np.ndarray:
        """r^n as a nodal (N,) field, with the run's boundary values."""
        return mesh.scatter_interior(self.r0.copy(), self.r)


def interpolate_qfield(mesh: StructuredMesh, data) -> np.ndarray:
    """Nodal interpolation of a callable (x, y) -> (q1, q2), with the
    boundary entries forced to the homogeneous Dirichlet value zero."""
    q1, q2 = data(mesh.nodes[:, 0], mesh.nodes[:, 1])
    field = np.column_stack([
        np.broadcast_to(q1, mesh.n_nodes),
        np.broadcast_to(q2, mesh.n_nodes),
    ]).astype(float)
    field[mesh.is_boundary] = 0.0
    return field


def nodal_r(mesh: StructuredMesh, p: Params, Qfield: np.ndarray) -> np.ndarray:
    return np.asarray(aux_r(Qfield.T, p))


def initialize(mesh: StructuredMesh, p: Params, dt: float, Q0: np.ndarray,
               Qt0: np.ndarray | None, r0: np.ndarray, op: StepOperator) -> SimState:
    """Build the starting state from the nodal fields Q0, r0 = nodal_r(Q0)
    and Qt0, of which only the interior values are read; op is the run's
    operator from step_operator(), which forms the products of the state.

    For sigma > 0 the second level is the explicit start
    Q^1 = Q^0 + dt * Qt0 and r^1 follows from the lumped r update; for
    sigma = 0 a single level suffices and Qt0 is ignored.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    q = mesh.gather_interior(Q0)
    r = mesh.gather_interior(r0)
    dq, n = None, 0
    if p.sigma > 0.0:
        q0, q = q, q + dt * mesh.gather_interior(Qt0)
        P0 = aux_P(np.stack((q0[0::2], q0[1::2])), p)
        dq = q - q0
        r = r + 2.0 * (P0[0] * dq[0::2] + P0[1] * dq[1::2])
        n = 1
    Kq, Lq = op.products(q)
    return SimState(q=q, dq=dq, r=r, Kq=Kq, Lq=Lq, r0=r0, n=n, t=n * dt)


def build_default_Qt0(mesh: StructuredMesh, p: Params,
                      Q0field: np.ndarray, r0field: np.ndarray, K=None) -> np.ndarray:
    """Discrete initial time derivative L1*Lap(Q0) - r0 P(Q0).

    The Laplacian acts through the interior stiffness K (assembled here
    when omitted) and the inverse lumped mass, keeping the initialization
    consistent with the mesh.
    """
    if K is None:
        K = assembly.assemble_stiffness(mesh)
    x0 = mesh.gather_interior(Q0field)
    qt = -(p.L1) * (K @ x0) / np.repeat(mesh.gamma[mesh.interior_nodes], 2)
    P0 = aux_P(np.stack((x0[0::2], x0[1::2])), p)
    r0 = mesh.gather_interior(r0field)
    qt[0::2] -= r0 * P0[0]
    qt[1::2] -= r0 * P0[1]
    return mesh.scatter_interior(np.zeros((mesh.n_nodes, 2)), qt)


def step_operator(p: Params, dt: float, K, D, weights) -> StepOperator:
    """The step operator of a run; its constant part is built once here
    and step() installs the rank-one part of each step.  D is part of it
    exactly when given: pass None when L2 + L3 = 0."""
    return StepOperator(weights, K, D, 1.0 / dt + p.sigma / dt ** 2,
                        p.L1, 0.5 * (p.L2 + p.L3))


def _step_failure(n: int, t: float, message: str,
                  residual: float = float("nan")) -> ConvergenceError:
    """The error of step n, which was advancing to time t."""
    return ConvergenceError("step %d (t = %.6g): %s" % (n, t, message),
                            residual, step=n, t=t)


def step(state: SimState, p: Params, dt: float, op: StepOperator,
         cg_tol: float = 1e-10, maxiter: int | None = None) -> SimState:
    """Advance one time step with the run's operator op from
    step_operator(); returns the new state.

    A failed solve raises ConvergenceError with .step = state.n + 1 and
    .t = state.t + dt.
    """
    q = state.q
    # a C-contiguous (2, n) copy, so that P and every matvec read
    # contiguous vectors
    op.set_rank_one(aux_P(np.stack((q[0::2], q[1::2])), p))

    # rhs = c_m w q + (sigma/dt^2) w dq - L q + w p (p.q - r), and the
    # residual of the start value q, rhs - A q = (sigma/dt^2) w dq - 2 L q
    # - w r p, formed without the cancellation of subtracting A q from rhs.
    rhs = op.cm * (op.w * q)
    rhs -= state.Lq
    res = -2.0 * state.Lq
    if p.sigma > 0.0:
        inertia = (p.sigma / dt ** 2) * (op.w * state.dq)
        rhs += inertia
        res += inertia
    s = op.project(q)
    s -= state.r
    op.spread(s, rhs)
    op.spread(-state.r, res)

    n, t = state.n + 1, state.t + dt
    try:
        x, _ = cg_solve(op, rhs, q, res, tol=cg_tol, maxiter=maxiter)
    except ConvergenceError as exc:
        raise _step_failure(n, t, str(exc), exc.residual) from exc
    if not np.all(np.isfinite(x)):
        raise _step_failure(n, t, "non-finite values in Q update")

    dq = x - q
    r = state.r + 2.0 * op.project(dq)
    if not np.all(np.isfinite(r)):
        raise _step_failure(n, t, "non-finite values in r update")
    # cg_solve confirmed x last, so op holds the products of x
    return SimState(q=x, dq=dq, r=r, Kq=op.Kx, Lq=op.Lx, r0=state.r0, n=n, t=t)
