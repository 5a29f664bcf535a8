"""Discrete energies and error norms between solutions.

The scheme itself uses lumped inner products, but reported errors are
standard Sobolev norms evaluated with exact P1 quadrature (consistent mass
and stiffness); mixing the two would shift the error magnitudes.  The norms
take those forms, stored by diagonals, from norm_forms(), which needs only
the mesh, so a study builds them once for its reference mesh however many
errors it evaluates there.  Every difference they measure vanishes on the
boundary (Q by the Dirichlet condition, r as it is compared with zero
trace), so they take interior vectors (..., m) and interior forms: a Q
field is (2, m) and component c its row c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse

from . import assembly
from .mesh import StructuredMesh
from .model import Params
from .stepper import SimState


@dataclass
class EnergyRecord:
    """The four summands of the discrete energy and the dissipation
    identity's defect over the step to the state (0 for a first state)."""

    kinetic: float
    elastic: float
    divpart: float
    rpart: float
    total: float
    dissipation_residual: float = 0.0


def h_norm_sq(w: float, x: np.ndarray) -> float:
    """Squared lumped norm of a component-major interior vector (2, m),
    with w the lumped weight of an interior node."""
    return w * float(np.vdot(x, x))


def discrete_energy(state: SimState, p: Params, dt: float, mesh: StructuredMesh,
                    prev: tuple | None = None, work=None) -> EnergyRecord:
    """Energy of a state from its interior vectors and K q (L q is c K q).
    With prev = (dq of the previous state, its record), also the defect
    E^n - E^{n-1} + dt |v^n|^2 + (sigma/2) |v^n - v^{n-1}|^2 of the
    dissipation identity in lumped norms, v = dq / dt.  The rates are
    never formed: |v|^2 is |dq|^2 / dt^2, and v^n - v^{n-1} is
    (dq - dq_prev) / dt, formed in work, one (2, m) vector that may be
    overwritten (a new one when omitted)."""
    if state.dq is None and p.sigma > 0.0:
        raise ValueError("state has no previous level but sigma > 0")
    w = assembly.lumped_mass(mesh)
    rate_sq = 0.0 if state.dq is None else h_norm_sq(w, state.dq) / dt ** 2
    kinetic = 0.5 * p.sigma * rate_sq

    # the divergence form is K (assembly.assemble_div_form): q.Kq is q.Dq
    qKq = float(np.vdot(state.q, state.Kq))
    elastic = p.L1 * qKq
    divpart = 0.5 * (p.L2 + p.L3) * qKq
    # the interior sum (w is 2 gamma) and the boundary's summed weights
    # times its constant r0 = sqrt(2 A0), the r of Q = 0
    r0 = math.sqrt(2.0 * p.A0)
    rpart = 0.5 * (0.5 * w * float(np.vdot(state.r, state.r))
                   + r0 * r0 * mesh.boundary_weight)
    total = kinetic + elastic + divpart + rpart
    rec = EnergyRecord(kinetic, elastic, divpart, rpart, total)
    if prev is not None:
        rec.dissipation_residual = total - prev[1].total + dt * rate_sq
        if p.sigma > 0.0:
            ddq = np.subtract(state.dq, prev[0], out=work)
            rec.dissipation_residual += 0.5 * p.sigma * (h_norm_sq(w, ddq) / dt ** 2)
    return rec


class NormForms(NamedTuple):
    """Interior consistent mass and stiffness of one mesh by diagonals: the
    forms of the error norms, built once per mesh by norm_forms()."""

    mass: sparse.dia_matrix
    stiffness: sparse.dia_matrix


def norm_forms(mesh: StructuredMesh) -> NormForms:
    """The norm forms of mesh, from its lattice alone."""
    return NormForms(assembly.consistent_mass(mesh),
                     assembly.stiffness_block(mesh, 1.0, 0.0))


def _check_interior(forms: NormForms, shape: tuple, *fields) -> None:
    """Every field must be interior (shape + (m,)) on the forms' mesh."""
    if any(f.shape != shape + (forms.mass.shape[0],) for f in fields):
        raise ValueError("fields do not match the mesh")


def _h1_sq(e: np.ndarray, forms: NormForms):
    """Squared H1 norm of the scalar interior vector e."""
    return e @ (forms.mass @ e) + e @ (forms.stiffness @ e)


def h1_error_component(A: np.ndarray, B: np.ndarray, forms: NormForms,
                       component: int) -> float:
    """H1 norm of one scalar component (a row) of the difference of two
    Q fields (2, m)."""
    _check_interior(forms, (2,), A, B)
    return float(np.sqrt(_h1_sq(A[component] - B[component], forms)))


def l2_error_scalar(rA: np.ndarray, rB: np.ndarray, forms: NormForms) -> float:
    """L2 norm of the difference of two scalar fields (m,)."""
    _check_interior(forms, (), rA, rB)
    e = rA - rB
    return float(np.sqrt(e @ (forms.mass @ e)))


def h1_error_field(QA: np.ndarray, QB: np.ndarray, forms: NormForms) -> float:
    """Frobenius-aggregated H1 norm of the full tensor difference of two
    Q fields (2, m).

    Both diagonal and both off-diagonal entries contribute, giving a
    factor 2 on the squared reduced component norms.
    """
    _check_interior(forms, (2,), QA, QB)
    total = 0.0
    for comp in range(2):
        total += float(_h1_sq(QA[comp] - QB[comp], forms))
    return float(np.sqrt(2.0 * total))


def transfer_to_fine(field: np.ndarray, injection: sparse.csc_matrix) -> np.ndarray:
    """P1-exact interpolation of a coarse field (..., mc), zero on the
    boundary, onto the fine mesh of the injection from
    mesh.nested_injection() as a C-contiguous (..., mf): one sparse product
    per row."""
    rows = field.reshape(-1, field.shape[-1])
    out = np.stack([injection @ row for row in rows])
    return out.reshape(field.shape[:-1] + injection.shape[:1])

