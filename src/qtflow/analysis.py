"""Discrete energies, error norms between solutions, and observed orders.

The scheme itself uses lumped inner products, but reported errors are
standard Sobolev norms evaluated with exact P1 quadrature (consistent mass
and stiffness); mixing the two would shift the error magnitudes.  The norms
take those forms from norm_forms(), so a study builds them once for its
reference mesh however many errors it evaluates there.
"""

from __future__ import annotations

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
    """The four summands of the discrete energy, the squared lumped norm
    of the rate (q^n - q^{n-1})/dt (0 without a previous level) and the
    per-step defect of the dissipation identity."""

    kinetic: float
    elastic: float
    divpart: float
    rpart: float
    total: float
    rate_sq: float
    dissipation_residual: float = 0.0


def h_norm_sq(weights: np.ndarray, x: np.ndarray) -> float:
    """Squared lumped norm of an interleaved interior DOF vector."""
    return float(weights @ (x * x))


def discrete_energy(state: SimState, p: Params, dt: float, mesh: StructuredMesh,
                    weights) -> EnergyRecord:
    """Energy of a state, from the interior vectors and products it
    carries."""
    rate_sq = 0.0 if state.dq is None else h_norm_sq(weights, state.dq / dt)
    kinetic = 0.0
    if p.sigma > 0.0:
        if state.dq is None:
            raise ValueError("state has no previous level but sigma > 0")
        kinetic = 0.5 * p.sigma * rate_sq

    # the divergence form is K (assembly.assemble_div_form): q.Kq is q.Dq
    qKq = float(state.q @ state.Kq)
    elastic = p.L1 * qKq
    divpart = 0.5 * (p.L2 + p.L3) * qKq
    # a sum over the full nodal field: split into interior and boundary
    # parts it would round differently
    r = state.r_field(mesh)
    rpart = 0.5 * float(mesh.gamma @ (r * r))
    total = kinetic + elastic + divpart + rpart
    return EnergyRecord(kinetic, elastic, divpart, rpart, total, rate_sq)


class NormForms(NamedTuple):
    """Consistent mass and scalar stiffness over all nodes of one mesh: the
    forms of the error norms, built once per mesh by norm_forms()."""

    mass: sparse.csr_matrix
    stiffness: sparse.csr_matrix


def norm_forms(mesh: StructuredMesh) -> NormForms:
    return NormForms(assembly.consistent_mass(mesh), assembly.scalar_stiffness(mesh))


def _check_nodal(forms: NormForms, shape: tuple, *fields) -> None:
    """Every field must be nodal on the forms' mesh, with trailing shape."""
    if any(f.shape != (forms.mass.shape[0],) + shape for f in fields):
        raise ValueError("fields do not match the mesh")


def h1_error_component(A: np.ndarray, B: np.ndarray, forms: NormForms,
                       component: int) -> float:
    """H1 norm of one scalar component of the difference of two Q fields."""
    _check_nodal(forms, (2,), A, B)
    e = A[:, component] - B[:, component]
    return float(np.sqrt(e @ (forms.mass @ e) + e @ (forms.stiffness @ e)))


def l2_error_scalar(rA: np.ndarray, rB: np.ndarray, forms: NormForms) -> float:
    _check_nodal(forms, (), rA, rB)
    e = rA - rB
    return float(np.sqrt(e @ (forms.mass @ e)))


def h1_error_field(QA: np.ndarray, QB: np.ndarray, forms: NormForms) -> float:
    """Frobenius-aggregated H1 norm of the full tensor difference.

    Both diagonal and both off-diagonal entries contribute, giving a
    factor 2 on the squared reduced component norms.
    """
    _check_nodal(forms, (2,), QA, QB)
    total = 0.0
    for comp in range(2):
        e = QA[:, comp] - QB[:, comp]
        total += float(e @ (forms.mass @ e) + e @ (forms.stiffness @ e))
    return float(np.sqrt(2.0 * total))


def transfer_to_fine(field: np.ndarray, injection: sparse.csr_matrix,
                     fine_mesh: StructuredMesh) -> np.ndarray:
    """P1-exact interpolation of a coarse nodal field onto the fine mesh,
    with the injection from mesh.nested_injection()."""
    out = injection @ field
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
