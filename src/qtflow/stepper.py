"""Time integration of the mass-lumped, linearly implicit tensor flow.

One step solves a single SPD system for the new Q field.  Because the
lumped inner product is diagonal, the auxiliary variable can be eliminated
exactly before the solve:

    r_new(z) = r(z) + P(Q(z)) : (Q_new(z) - Q(z))

holds nodewise, so substituting the midpoint value of r into the momentum
equation turns the coupled (Q, r) update into

    [ (1/dt + sigma/dt^2) w I + c K + R ] q_new = rhs,

where w is the lumped weight of every interior node, K the scalar
stiffness (applied to each component), c = L1 + (L2+L3)/2, as the
divergence form is K on Dirichlet data (its cross terms are a null
Lagrangian), and R the per-node rank-one operator x -> w (p_z . x_z) p_z
built from P at the current state.  With
sigma = 0 the two-level terms drop and only one history level is kept.

A state holds Q (2, m) at the m interior nodes (rows q1, q2), its step dq,
r (m,) and K q.  Boundary Q stays zero (the Dirichlet condition), so
boundary r stays sqrt(2 A0), the r of Q = 0, and no state stores it.

A run's vectors belong to the step that advances them, so none outlives
its use.  initialize() takes q0 and r0 over: a sigma > 0 start writes its
second level into them.  step() advances the state it is given and
returns that same object; its old q, r and K q are gone, and its old dq
array is dropped but never written, so a caller that keeps it (the run
loop does, for the energy) may read it.  A caller that keeps a whole state
copies its arrays first.  Between steps a state's K q is the operator's
.dir, where its last confirmation formed it, and no other state array is
an operator work vector; a caller may use .rhs, .res and .tmp until the
next step, but not .dir, .p or .wp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly  # unused here; perfbench/spans.py rebinds stepper.assembly
from .mesh import StructuredMesh
from .model import Params, aux_P, aux_r
from .solver import ConvergenceError, StepOperator, cg_solve


@dataclass
class SimState:
    """State n of a run as interior vectors, with K q carried into the
    energy and the next step.  step() advances it in place (see the module
    docstring); Kq is None only inside a step, once it is used up."""

    q: np.ndarray              # Q^n at interior nodes, (2, m)
    dq: np.ndarray | None      # Q^n - Q^{n-1}; None without a previous level
    r: np.ndarray              # r^n at interior nodes
    Kq: np.ndarray | None      # K q; L q is c K q
    n: int
    t: float


def interpolate_qfield(mesh: StructuredMesh, data) -> np.ndarray:
    """Nodal interpolation of a callable (x, y) -> (q1, q2) as an interior
    vector (2, m); the boundary value is zero (homogeneous Dirichlet).  The
    callable is called once, on the interior lattice axes x of shape (nx-1,)
    and y of shape (ny-1, 1), so it must broadcast to the interior block."""
    x, y = mesh.axes()
    q = np.empty((2, mesh.ny - 1, mesh.nx - 1))
    q[0], q[1] = data(x[1:-1], y[1:-1, None])
    return q.reshape(2, -1)


def nodal_r(p: Params, q: np.ndarray) -> np.ndarray:
    """r at the interior nodes of q (2, m); ValueError when a radicand there
    or on the boundary (2 A0, as Q = 0) is nonpositive or overflows."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        r = np.asarray(aux_r(q, p))
    if not (np.isfinite(r).all() and math.isfinite(2.0 * p.A0)):
        raise ValueError("non-finite radicand in auxiliary variable: A0=%g is too large" % p.A0)
    return r


def build_default_Qt0(p: Params, q0: np.ndarray, r0: np.ndarray,
                      P0: np.ndarray, op: StepOperator) -> np.ndarray:
    """Discrete initial time derivative L1*Lap(Q0) - r0 P(Q0) as an interior
    vector (2, m), from the interior vectors q0 (2, m), r0 (m,) and
    P0 = P(q0) (2, m).

    The Laplacian acts through the stiffness and the lumped weight w of the
    run's operator op, keeping the initialization consistent with the mesh;
    w/2 is mesh.gamma exactly.  The result is op.rhs, and r0 P0 is
    formed in op.tmp."""
    qt = op.products(q0, out=op.rhs)
    qt *= -(p.L1)
    qt /= op.w * 0.5
    qt -= np.multiply(r0, P0, out=op.tmp)
    return qt


def initialize(p: Params, dt: float, q0: np.ndarray, r0: np.ndarray,
               op: StepOperator, velocity=build_default_Qt0) -> SimState:
    """Build the starting state from the interior vectors q0 (2, m) and
    r0 = nodal_r(p, q0) (m,), which the state takes over: for sigma = 0 it
    holds them, for sigma > 0 its dq and r are formed in them.  op is the
    run's operator from step_operator(), which forms the product K q of
    the state in op.dir.

    For sigma > 0 the second level is the explicit start Q^1 = Q^0 + dt Qt0
    and r^1 follows from the lumped r update.  The interior vector Qt0 is
    velocity(p, q0, r0, P0, op), with P0 = P(q0) in op.p, which the r
    update uses too; velocity may use op's work vectors other than op.p
    and may return one of them, and must neither write P0 nor keep it.
    For sigma = 0 a single level suffices and velocity is not called."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    q, r, dq, n = q0, r0, None, 0
    if p.sigma > 0.0:
        P0 = aux_P(q0, p, out=op.p)
        q = dt * velocity(p, q0, r0, P0, op)
        q += q0
        dq = np.subtract(q, q0, out=q0)
        s = op.project(dq)  # P0 . dq, as op.p holds P0
        s *= 2.0
        r += s
        n = 1
    return SimState(q=q, dq=dq, r=r, Kq=op.products(q, out=op.dir), n=n, t=n * dt)


def step_operator(p: Params, dt: float, mesh: StructuredMesh, K, D,
                  w: float) -> StepOperator:
    """The step operator of a run on mesh, with its interior stiffness K and
    lumped weight w; its constant part is built once here and step()
    installs the rank-one part of each step.  D is part of it exactly when
    given: pass None when L2 + L3 = 0."""
    return StepOperator(mesh, w, K, D, 1.0 / dt + p.sigma / dt ** 2,
                        p.L1, 0.5 * (p.L2 + p.L3))


def _step_failure(n: int, t: float, message: str,
                  residual: float = float("nan")) -> ConvergenceError:
    """The error of step n, which was advancing to time t."""
    return ConvergenceError("step %d (t = %.6g): %s" % (n, t, message),
                            residual, step=n, t=t)


def step(state: SimState, p: Params, dt: float, op: StepOperator,
         cg_tol: float = 1e-10, maxiter: int | None = None) -> SimState:
    """Advance state by one time step with the run's operator op from
    step_operator(), in place, and return it (see the module docstring).

    A failed solve or a nonpositive radicand in P raises ConvergenceError
    with .step = state.n + 1 and .t = state.t + dt; the state is spent then.
    """
    q = state.q
    n, t = state.n + 1, state.t + dt
    try:
        op.set_rank_one(aux_P(q, p, out=op.p))
    except ValueError as exc:
        raise _step_failure(n, t, str(exc)) from exc

    # rhs = c_m w q + (sigma/dt^2) w dq - c K q + w p (p.q - r) and the
    # start residual rhs - A q = (sigma/dt^2) w dq - 2 c K q - w r p, in the
    # operator's vectors and without the cancellation of rhs - A q.
    rhs = np.multiply(op.w, q, out=op.rhs)
    rhs *= op.cm
    rhs -= np.multiply(state.Kq, op.c, out=op.tmp)
    res = np.multiply(op.tmp, -2.0, out=op.res)
    state.Kq = None  # rhs and res hold c K q, so K q (op.dir) is dead
    if p.sigma > 0.0:
        inertia = np.multiply(op.w, state.dq, out=op.tmp)
        inertia *= p.sigma / dt ** 2
        rhs += inertia
        res += inertia
    s = op.project(q)
    s -= state.r
    op.spread(s, rhs)
    res -= np.multiply(op.wp, state.r, out=op.tmp)

    # cg_solve returns x only on a finite true residual, so x is finite
    try:
        x, _ = cg_solve(op, rhs, q, res, tol=cg_tol, maxiter=maxiter)
    except ConvergenceError as exc:
        raise _step_failure(n, t, str(exc), exc.residual) from exc

    # the old q's vector takes dq, unless CG returned q itself
    dq = x - q if x is q else np.subtract(x, q, out=q)
    s = op.project(dq)
    s *= 2.0
    state.r += s
    if not np.isfinite(state.r).all():
        raise _step_failure(n, t, "non-finite values in r update")
    # cg_solve confirmed x last, so op.dir holds K x
    state.q, state.dq, state.Kq, state.n, state.t = x, dq, op.dir, n, t
    return state
