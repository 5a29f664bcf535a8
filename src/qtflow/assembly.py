"""Sparse bilinear forms for reduced Q-tensor fields on P1 elements.

On the uniform right-triangle lattice every interior node sees the same
six triangles, so a form is one stencil table that depends on the cell
size h alone: (dj, di, value) per lattice offset (0, 0), (+-1, 0),
(0, +-1) or +-(1, 1), in column order.  The stiffness is the five-point
stencil (4, -1), the same on every mesh (STIFFNESS: its diagonal offsets
cancel exactly); the consistent mass is a 7-point stencil in the triangle
area h h / 2 (_mass_table()).

Every form is a scalar m x m matrix over the m interior nodes: the solver
applies it to each row (q1, q2) of its component-major vectors, and the
error norms to the interior vectors of fields that vanish on the
boundary.  Each form is built one way, as diagonals on the interior
lattice (_interior_form()).  The error norms' mass and stiffness and the
step operator's constant part, a shift of a multiple of the interior
stiffness, keep their diagonals (stiffness_block()); only the run's K is
converted to CSR, by scipy (scalar_stiffness()), which writes each row's
columns in ascending order.  A DIA product gives the bits of the CSR
product of the same form.

The divergence form is the interior stiffness.  For a reduced field the
tensor divergence is (dx q1 + dy q2, dx q2 - dy q1), so |div Q|^2 is
|grad q1|^2 + |grad q2|^2 plus the cross terms 2 (dx q1 dy q2 - dy q1
dx q2), a null Lagrangian: it integrates to zero for fields that vanish on
the boundary, and in the lattice sums its two contributions on each
interior edge are the same number with opposite signs.

The mass table sums each entry as the element assembly sums its
triangles' contributions.  With exact binary node coordinates (a dyadic
cell size and origin) every triangle's contributions are those of h
alone, and the stiffness's are 0, +-1/2 and +-1, exact in any order, so
the lattice forms equal the element assembly bit for bit.  Elsewhere the
element assembly carries the roundoff of the node coordinates, and the
two agree to a few ulps.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
from scipy import sparse

from .mesh import StructuredMesh

#: The interior stiffness stencil, (dj, di, value) in column order: the
#: five-point Laplacian; the diagonal offsets +-(1, 1) cancel exactly.
STIFFNESS = ((-1, 0, -1.0), (0, -1, -1.0), (0, 0, 4.0), (0, 1, -1.0), (1, 0, -1.0))


def _mass_table(h: float) -> tuple:
    """The consistent mass stencil of cell size h, (dj, di, value) in
    column order, each entry summed in the element assembly's order: the
    six triangles at a node add area / 12 * 2 each to the diagonal, and
    the two triangles on an edge area / 12 each to its offset."""
    area = 0.5 * h * h
    *_, diagonal = accumulate([area / 12.0 * 2.0] * 6)
    edge = area / 12.0 + area / 12.0
    return tuple((dj, di, diagonal if dj == di == 0 else edge) for dj, di in
                 ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1)))


def _interior_form(mesh: StructuredMesh, table, scale: float,
                   shift: float) -> sparse.dia_matrix:
    """shift I + scale A as a DIA matrix, m x m over the interior nodes, A
    the interior form of the stencil table: one diagonal of scale * value
    per row of the table, at its flat offset dj ni + di, and shift + scale
    * value on the main diagonal.

    The table's offsets ascend, as the columns of a row of A do, and
    scipy's DIA product adds one diagonal at a time into a zeroed vector,
    so each row sums in the order of the CSR product of shift I + scale A,
    from +0.0: the two give the same bits.  The zeros that a diagonal
    holds where the stencil leaves the lattice add +-0 to a sum that is
    never -0, which changes nothing for finite vectors.  An offset with no
    entry on the lattice is not stored: on a lattice one node wide the +-1
    and +-ni offsets coincide, and only the one inside the lattice is
    kept."""
    ni, nj = mesh.nx - 1, mesh.ny - 1
    table = [(dj, di, value) for dj, di, value in table
             if abs(dj) < nj and abs(di) < ni]
    data = np.zeros((len(table), nj, ni))
    for diagonal, (dj, di, value) in zip(data, table):
        # DIA stores the entry of row z - o at column z: the value stands
        # at the column nodes whose row node is interior too
        diagonal[max(dj, 0):nj + min(dj, 0), max(di, 0):ni + min(di, 0)] = scale * value
        if dj == di == 0:
            diagonal += shift
    return sparse.dia_matrix((data.reshape(-1, ni * nj),
                              [dj * ni + di for dj, di, _ in table]),
                             shape=(ni * nj,) * 2)


def stiffness_block(mesh: StructuredMesh, scale: float,
                    shift: float) -> sparse.dia_matrix:
    """shift I + scale K by diagonals (_interior_form()), K the interior
    stiffness."""
    return _interior_form(mesh, STIFFNESS, scale, shift)


def scalar_stiffness(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Interior Dirichlet stiffness K, m x m over the interior nodes, in
    CSR, built afresh: the five-point stencil at every interior node, the
    offsets that land on the boundary not stored.  assemble_stiffness()
    keeps one per lattice."""
    return stiffness_block(mesh, 1.0, 0.0).tocsr()


def consistent_mass(mesh: StructuredMesh) -> sparse.dia_matrix:
    """Interior consistent (exact) P1 mass, m x m over the interior nodes,
    by diagonals: a 7-point stencil, the diagonal offsets included."""
    return _interior_form(mesh, _mass_table(mesh.h), 1.0, 0.0)


_stiffness = {}  # the interior stiffness of the most recent lattice


def assemble_stiffness(mesh: StructuredMesh) -> sparse.csr_matrix:
    """The interior stiffness K of scalar_stiffness(), one per lattice.

    K depends only on the lattice (x0, y0, h, nx, ny), so the K of the most
    recent lattice is kept and every mesh on that lattice gets the same
    object: a run's K and D, and the cases of one lattice (a time or sigma
    study's).  Its data, indices and indptr are read-only; a caller that
    modifies K must copy it (K.copy())."""
    lattice = (mesh.x0, mesh.y0, mesh.h, mesh.nx, mesh.ny)
    K = _stiffness.get(lattice)
    if K is None:
        _stiffness.clear()  # the last lattice's K, freed before this one is built
        K = scalar_stiffness(mesh)
        for a in (K.data, K.indices, K.indptr):
            a.flags.writeable = False
        _stiffness[lattice] = K
    return K


def assemble_div_form(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Divergence form over the interior nodes, summed over the component
    rows the integral of div X . div Y.  Its cross terms cancel on the
    interior (see the module docstring): it is the interior stiffness, the
    same object that assemble_stiffness() returns."""
    return assemble_stiffness(mesh)


def lumped_mass(mesh: StructuredMesh) -> float:
    """The lumped weight w = 2 gamma of every interior node: the factor 2
    of the Frobenius contraction of reduced tensors folded in."""
    return 2.0 * mesh.gamma
