"""Sparse bilinear forms for reduced Q-tensor fields on P1 elements.

Element matrices are exact (gradients of P1 basis functions are constant
per triangle), so no quadrature error enters the assembled forms.

Every form is a scalar m x m matrix over the m interior nodes: the solver
applies it to each row (q1, q2) of its component-major vectors, and the
error norms to the interior vectors of fields that vanish on the
boundary.  Each form is built one way: as diagonals on the interior
lattice, one per lattice offset (0, 0), (+-1, 0), (0, +-1) or +-(1, 1).
The error norms' mass and stiffness and the step operator's constant
part, a shift of a multiple of the interior stiffness, keep their
diagonals (stiffness_block()); only the run's K is converted to CSR, by
scipy (scalar_stiffness()).  Each cell is a translate of the first one,
so the first cell's two triangles give every entry: the entry of node z
at offset o sums, in triangle and then local order, the contributions of
the triangles that hold z and z + o.  At an interior node all of them are
present, so a form holds one scalar value per offset, its stencil table
(_stencil_table()), on the lattice slice of column nodes whose row node
is interior too.  A diagonal that holds only zeros is not stored, and the
CSR conversion drops the zeros that remain and writes each row's columns
in ascending order.  A DIA product gives the bits of the CSR product of
the same form (_interior_form()).

The divergence form is the interior stiffness.  For a reduced field the
tensor divergence is (dx q1 + dy q2, dx q2 - dy q1), so |div Q|^2 is
|grad q1|^2 + |grad q2|^2 plus the cross terms 2 (dx q1 dy q2 - dy q1
dx q2), a null Lagrangian: it integrates to zero for fields that vanish on
the boundary, and in the lattice sums its two contributions on each
interior edge are the same number with opposite signs.

With exact binary node coordinates (a dyadic cell size and origin) every
cell's element matrices equal the first cell's bit for bit; stiffness
contributions are 0, +-1/2 and +-1, exact in any order, and a mass entry
sums equal contributions, so the lattice forms equal the element assembly
exactly.  Elsewhere the cells differ by the roundoff of their coordinates,
and so do the two assemblies.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import sparse

from .mesh import CELL, StructuredMesh


def element_geometry(pts: np.ndarray):
    """Signed areas (M,) and constant basis gradients (M, 3, 2) of the
    triangles with vertex coordinates pts (M, 3, 2)."""
    v1 = pts[:, 1] - pts[:, 0]
    v2 = pts[:, 2] - pts[:, 0]
    area = 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
    grads = np.empty_like(pts)
    for i in range(3):
        jj, kk = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = (pts[:, jj, 1] - pts[:, kk, 1]) / (2.0 * area)
        grads[:, i, 1] = (pts[:, kk, 0] - pts[:, jj, 0]) / (2.0 * area)
    return area, grads


def cell_geometry(x0: float, y0: float, h: float):
    """element_geometry() of the first cell's two triangles (CELL) of a mesh
    whose first cell has its lower-left corner at (x0, y0) and size h; its
    coordinates are formed as StructuredMesh.axes() forms them."""
    x, y = (c + np.arange(2) * h for c in (x0, y0))
    return element_geometry(np.stack((x[CELL[..., 1]], y[CELL[..., 0]]), axis=-1))


def _cell_contributions(geometry, entry):
    """The contributions of the first cell of the given cell_geometry(), in
    triangle and then local order: (offset, entry(area, grads, i, j)) for
    basis pair (i, j) of each triangle, where offset is the lattice offset
    (dj, di) from node i to node j.  area and grads come as Python floats,
    whose arithmetic rounds as numpy's does, at a fraction of the cost per
    operation."""
    area, grads = (a.tolist() for a in geometry)
    for t, tri in enumerate(CELL.tolist()):
        for i, (rj, ri) in enumerate(tri):
            for j, (cj, ci) in enumerate(tri):
                yield (cj - rj, ci - ri), entry(area[t], grads[t], i, j)


def _grad_dot(area, grads, i, j):
    """Scalar stiffness contribution of basis pair (i, j) of a triangle."""
    return area * (grads[i][0] * grads[j][0] + grads[i][1] * grads[j][1])


def _mass_dot(area, grads, i, j):
    """Consistent mass contribution of basis pair (i, j) of a triangle."""
    return area / 12.0 * (2.0 if i == j else 1.0)


@functools.lru_cache(maxsize=8)
def _stencil_table(x0: float, y0: float, h: float, entry) -> tuple:
    """The interior stencil of the form of entry(area, grads, i, j) on a
    mesh whose first cell is at (x0, y0) with size h: (dj, di, value) per
    offset whose sum is not exactly zero, sorted by (dj, di), which is
    column order.  A run asks for the stiffness's twice (K and the step
    operator's constant block), and a study's norm forms for it and the
    mass's, so the last few are kept."""
    sums = {}
    for offset, value in _cell_contributions(cell_geometry(x0, y0, h), entry):
        sums[offset] = sums.get(offset, 0.0) + value
    return tuple((*off, value) for off, value in sorted(sums.items()) if value != 0.0)


def _interior_form(mesh: StructuredMesh, entry, scale: float,
                   shift: float) -> sparse.dia_matrix:
    """shift I + scale A as a DIA matrix, m x m over the interior nodes, A
    the interior form of entry: one diagonal of scale * value per row of
    its stencil table, at its flat offset dj ni + di, and shift + scale *
    value on the main diagonal.

    The offsets ascend, as the columns of a row of A do, and scipy's DIA
    product adds one diagonal at a time into a zeroed vector, so each row
    sums in the order of the CSR product of shift I + scale A, from +0.0:
    the two give the same bits.  The zeros that a diagonal holds where the
    stencil leaves the lattice add +-0 to a sum that is never -0, which
    changes nothing for finite vectors.  A diagonal with no entry on the
    lattice is not stored: on a lattice one node wide the +-1 and +-ni
    offsets coincide, and only the one inside the lattice is kept."""
    ni, nj = mesh.nx - 1, mesh.ny - 1
    table = [(dj, di, value) for dj, di, value
             in _stencil_table(mesh.x0, mesh.y0, mesh.h, entry)
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
    return _interior_form(mesh, _grad_dot, scale, shift)


def scalar_stiffness(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Interior Dirichlet stiffness K, m x m over the interior nodes, in
    CSR, built afresh: the scalar stencil at every interior node, offsets
    that land on the boundary and the diagonal offsets, whose sums cancel
    exactly, not stored.  assemble_stiffness() keeps one per lattice."""
    return stiffness_block(mesh, 1.0, 0.0).tocsr()


def consistent_mass(mesh: StructuredMesh) -> sparse.dia_matrix:
    """Interior consistent (exact) P1 mass, m x m over the interior nodes,
    by diagonals: a 7-point stencil, the diagonal offsets included."""
    return _interior_form(mesh, _mass_dot, 1.0, 0.0)


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
