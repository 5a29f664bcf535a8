"""Discrete energies, error norms between solutions, and observed orders.

The scheme itself uses lumped inner products, but reported errors are
standard Sobolev norms evaluated with exact P1 quadrature (consistent mass
and stiffness); mixing the two would shift the error magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import assembly
from .mesh import NestedInjection, StructuredMesh
from .model import Params
from .stepper import SimState, interior_of


@dataclass
class EnergyRecord:
    """The four summands of the discrete energy plus the per-step defect
    of the dissipation identity."""

    kinetic: float
    elastic: float
    divpart: float
    rpart: float
    total: float
    dissipation_residual: float


def h_norm_sq(weights: np.ndarray, x: np.ndarray) -> float:
    """Squared lumped norm of an interleaved interior DOF vector."""
    return float(weights @ (x * x))


def discrete_energy(state: SimState, p: Params, dt: float, mesh: StructuredMesh,
                    K, D, weights, dissipation_residual: float = 0.0) -> EnergyRecord:
    """Energy of a state, from the interior vectors and products a state
    returned by step() carries, or gathered from its nodal fields."""
    v = interior_of(state, p, mesh, K, D)

    kinetic = 0.0
    if p.sigma > 0.0:
        if state.Qprev is None:
            raise ValueError("state has no previous level but sigma > 0")
        kinetic = 0.5 * p.sigma * h_norm_sq(weights, v.dq / dt)

    elastic = p.L1 * float(v.q @ v.Kq)
    divpart = 0.0
    if v.Dq is not None:
        divpart = 0.5 * (p.L2 + p.L3) * float(v.q @ v.Dq)
    rpart = 0.5 * float(mesh.gamma @ (state.r * state.r))
    total = kinetic + elastic + divpart + rpart
    return EnergyRecord(kinetic, elastic, divpart, rpart, total,
                        dissipation_residual)


def _norm_forms(mesh: StructuredMesh):
    return assembly.consistent_mass(mesh), assembly.scalar_stiffness(mesh)


def h1_error_component(A: np.ndarray, B: np.ndarray, mesh: StructuredMesh,
                       component: int) -> float:
    """H1 norm of one scalar component of the difference of two Q fields."""
    if A.shape != (mesh.n_nodes, 2) or B.shape != (mesh.n_nodes, 2):
        raise ValueError("fields do not match the mesh")
    e = A[:, component] - B[:, component]
    Mc, Kf = _norm_forms(mesh)
    return float(np.sqrt(e @ (Mc @ e) + e @ (Kf @ e)))


def l2_error_scalar(rA: np.ndarray, rB: np.ndarray, mesh: StructuredMesh) -> float:
    if rA.shape != (mesh.n_nodes,) or rB.shape != (mesh.n_nodes,):
        raise ValueError("fields do not match the mesh")
    e = rA - rB
    Mc = assembly.consistent_mass(mesh)
    return float(np.sqrt(e @ (Mc @ e)))


def h1_error_field(QA: np.ndarray, QB: np.ndarray, mesh: StructuredMesh) -> float:
    """Frobenius-aggregated H1 norm of the full tensor difference.

    Both diagonal and both off-diagonal entries contribute, giving a
    factor 2 on the squared reduced component norms.
    """
    if QA.shape != (mesh.n_nodes, 2) or QB.shape != (mesh.n_nodes, 2):
        raise ValueError("fields do not match the mesh")
    Mc, Kf = _norm_forms(mesh)
    total = 0.0
    for comp in range(2):
        e = QA[:, comp] - QB[:, comp]
        total += float(e @ (Mc @ e) + e @ (Kf @ e))
    return float(np.sqrt(2.0 * total))


def transfer_to_fine(field: np.ndarray, injection: NestedInjection,
                     fine_mesh: StructuredMesh) -> np.ndarray:
    """P1-exact interpolation of a coarse nodal field onto the fine mesh."""
    out = injection.matrix @ field
    if out.shape[0] != fine_mesh.n_nodes:
        raise ValueError("injection does not target the given fine mesh")
    return out


def convergence_orders(errors, ratio: float):
    """Observed orders log(e_k / e_{k+1}) / log(ratio) for a refinement chain."""
    errors = np.asarray(errors, dtype=float)
    if np.any(errors <= 0.0):
        raise ValueError("errors must be positive to compute orders")
    if ratio <= 1.0:
        raise ValueError("refinement ratio must exceed 1")
    return list(np.log(errors[:-1] / errors[1:]) / np.log(ratio))
