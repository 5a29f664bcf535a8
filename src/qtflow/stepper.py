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

Fields are stored over all mesh nodes; the homogeneous Dirichlet condition
keeps boundary Q entries at zero, and boundary r values stay at their
initial value because their update increment vanishes there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .mesh import StructuredMesh
from .model import Params, aux_P, aux_r
from .solver import ConvergenceError, StepOperator, cg_solve


@dataclass
class Interior:
    """Interleaved interior vectors of a state and the sparse products of
    its Q level, carried from a step into the energy evaluation and the
    next step so that neither gathers nor multiplies them again."""

    q: np.ndarray              # Q^n at interior DOFs
    dq: np.ndarray | None      # Q^n - Q^{n-1}; None without a previous level
    r: np.ndarray              # r^n at interior nodes
    Kq: np.ndarray             # K q
    Dq: np.ndarray | None      # D q; None when the divergence term is off


@dataclass
class SimState:
    """Two-level state (Q^{n-1}, Q^n, r^n); Qprev is None when sigma = 0.

    interior is set on states returned by step(); a state built from nodal
    fields alone has none and is gathered on use.
    """

    Qprev: np.ndarray | None  # (N, 2) or None
    Qcurr: np.ndarray         # (N, 2)
    r: np.ndarray             # (N,)
    n: int
    t: float
    interior: Interior | None = None


def interior_of(state: SimState, p: Params, mesh: StructuredMesh, K, D) -> Interior:
    """The interior vectors of state, gathered from its nodal fields when
    the state does not carry them.  D is used only when L2 + L3 != 0."""
    if state.interior is not None:
        return state.interior
    q = mesh.gather_interior(state.Qcurr)
    dq = None if state.Qprev is None else q - mesh.gather_interior(state.Qprev)
    use_div = D is not None and (p.L2 + p.L3) != 0.0
    return Interior(q=q, dq=dq, r=mesh.gather_interior(state.r), Kq=K @ q,
                    Dq=D @ q if use_div else None)


def interpolate_qfield(mesh: StructuredMesh, data) -> np.ndarray:
    """Nodal interpolation with homogeneous Dirichlet boundary values.

    data is either a callable (x, y) -> (q1, q2) or an (N, 2) array of
    nodal values; boundary entries are forced to zero either way.
    """
    if callable(data):
        q1, q2 = data(mesh.nodes[:, 0], mesh.nodes[:, 1])
        field = np.column_stack([
            np.broadcast_to(q1, mesh.n_nodes),
            np.broadcast_to(q2, mesh.n_nodes),
        ]).astype(float)
    else:
        field = np.array(data, dtype=float)
        if field.shape != (mesh.n_nodes, 2):
            raise ValueError("field shape %s does not match mesh" % (field.shape,))
    field[mesh.is_boundary] = 0.0
    return field


def nodal_r(mesh: StructuredMesh, p: Params, Qfield: np.ndarray) -> np.ndarray:
    return np.asarray(aux_r(Qfield.T, p))


def initialize(mesh: StructuredMesh, p: Params, dt: float, Q0, Qt0=None) -> SimState:
    """Build the starting state.

    For sigma > 0 the second level is the explicit start
    Q^1 = Q^0 + dt * Qt0 and r^1 follows from the lumped r update; for
    sigma = 0 a single level suffices and Qt0 is ignored.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    Q0f = interpolate_qfield(mesh, Q0)
    r0 = nodal_r(mesh, p, Q0f)
    if p.sigma == 0.0:
        return SimState(Qprev=None, Qcurr=Q0f, r=r0, n=0, t=0.0)

    Qt0f = np.zeros_like(Q0f) if Qt0 is None else interpolate_qfield(mesh, Qt0)
    Q1 = Q0f + dt * Qt0f
    P0 = aux_P(Q0f.T.copy(), p)
    dq = Q1 - Q0f
    r1 = r0 + 2.0 * (P0[0] * dq[:, 0] + P0[1] * dq[:, 1])
    return SimState(Qprev=Q0f, Qcurr=Q1, r=r1, n=1, t=dt)


def build_default_Qt0(mesh: StructuredMesh, p: Params,
                      Q0field: np.ndarray, r0field: np.ndarray, K=None) -> np.ndarray:
    """Discrete initial time derivative L1*Lap(Q0) - r0 P(Q0).

    The Laplacian acts through the interior stiffness K (assembled here
    when omitted) and the inverse lumped mass, keeping the initialization
    consistent with the mesh.
    """
    idx = mesh.interior_nodes
    if K is None:
        K = assembly.assemble_stiffness(mesh)
    x0 = Q0field[idx].reshape(-1)
    gamma_dof = np.repeat(mesh.gamma[idx], 2)
    lap = -(p.L1) * (K @ x0) / gamma_dof

    P0 = aux_P(np.stack((x0[0::2], x0[1::2])), p)
    out = np.zeros_like(Q0field)
    out[idx, 0] = lap.reshape(-1, 2)[:, 0] - r0field[idx] * P0[0]
    out[idx, 1] = lap.reshape(-1, 2)[:, 1] - r0field[idx] * P0[1]
    return out


def step_operator(p: Params, dt: float, K, D, weights) -> StepOperator:
    """The step operator of a run; its constant part is built once here
    and step() installs the rank-one part of each step."""
    return StepOperator(weights, K, D, None, 1.0 / dt + p.sigma / dt ** 2,
                        p.L1, 0.5 * (p.L2 + p.L3))


def _step_failure(n: int, t: float, message: str,
                  residual: float = float("nan")) -> ConvergenceError:
    """The error of step n, which was advancing to time t."""
    return ConvergenceError("step %d (t = %.6g): %s" % (n, t, message),
                            residual, step=n, t=t)


def step(state: SimState, p: Params, dt: float, mesh: StructuredMesh,
         K, D, weights, cg_tol: float = 1e-10, maxiter: int | None = None,
         op: StepOperator | None = None) -> SimState:
    """Advance one time step; returns the new state.

    op is the run's operator from step_operator() with the same p, dt, K,
    D and weights; it is built here when omitted.  A failed solve raises
    ConvergenceError with .step = state.n + 1 and .t = state.t + dt.
    """
    if op is None:
        op = step_operator(p, dt, K, D, weights)
    v = interior_of(state, p, mesh, K, D)
    # a C-contiguous (2, n) copy, so that P and every matvec read
    # contiguous vectors
    op.set_rank_one(aux_P(np.stack((v.q[0::2], v.q[1::2])), p))

    # rhs = c_m w q + (sigma/dt^2) w dq - L q + w p (p.q - r) with
    # L = c_k K + c_d D, and the residual of the start value q,
    # rhs - A q = (sigma/dt^2) w dq - 2 L q - w r p, formed without the
    # cancellation of subtracting A q from rhs.
    Lq = op.ck * v.Kq
    if v.Dq is not None:
        Lq += op.cd * v.Dq
    rhs = op.cm * (weights * v.q)
    rhs -= Lq
    res = -2.0 * Lq
    if p.sigma > 0.0:
        inertia = (p.sigma / dt ** 2) * (weights * v.dq)
        rhs += inertia
        res += inertia
    s = op.project(v.q)
    s -= v.r
    op.spread(s, rhs)
    op.spread(-v.r, res)

    n, t = state.n + 1, state.t + dt
    try:
        x, _ = cg_solve(op, rhs, tol=cg_tol, maxiter=maxiter, x0=v.q, r0=res)
    except ConvergenceError as exc:
        raise _step_failure(n, t, str(exc), exc.residual) from exc
    if not np.all(np.isfinite(x)):
        raise _step_failure(n, t, "non-finite values in Q update")

    dq = x - v.q
    r_int = v.r + 2.0 * op.project(dq)
    if not np.all(np.isfinite(r_int)):
        raise _step_failure(n, t, "non-finite values in r update")

    Qnew = np.zeros_like(state.Qcurr)
    mesh.scatter_interior(Qnew, x)
    rnew = state.r.copy()
    mesh.scatter_interior(rnew, r_int)
    return SimState(
        Qprev=state.Qcurr if p.sigma > 0.0 else None,
        Qcurr=Qnew,
        r=rnew,
        n=n,
        t=t,
        interior=Interior(q=x, dq=dq, r=r_int, Kq=K @ x,
                          Dq=None if v.Dq is None else D @ x),
    )
