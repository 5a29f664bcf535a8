"""Sparse bilinear forms for reduced Q-tensor fields on P1 elements.

Element matrices are exact (gradients of P1 basis functions are constant
per triangle), so no quadrature error enters the assembled forms.

The interior forms are scalar m x m matrices over the m interior nodes: the
solver applies them to each row (q1, q2) of its component-major vectors.

Every form is built one way: as diagonals on the node lattice, one per
lattice offset (0, 0), (+-1, 0), (0, +-1) or +-(1, 1), converted to CSR by
scipy's tocsr() where a CSR form is wanted; the step operator's constant
part, a shift of a multiple of the interior stiffness, keeps its
diagonals (stiffness_block()).  Each cell is a translate of
the first one, so the first cell's two triangles give every entry: the
entry of node z at offset o sums, in triangle and then local order, the
contributions of the triangles that hold z and z + o.  DIA stores that
entry at the column node z + o.  At an interior node all contributions
are present, so the interior stiffness holds one scalar value per offset
on the lattice slice of column nodes whose row node is interior too; the
all-node forms of the error norms add each contribution over the lattice
slice of column nodes at its corner of a cell.  A diagonal that holds
only zeros is not stored, and tocsr() drops the zeros that remain and
writes each row's columns in ascending order.

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


def cell_geometry(mesh: StructuredMesh):
    """element_geometry() of the first cell's two triangles (CELL), at the
    mesh's lattice coordinates."""
    return _cell_geometry(mesh.x0, mesh.y0, mesh.h)


def _cell_geometry(x0: float, y0: float, h: float):
    """cell_geometry() of a mesh whose first cell has its lower-left corner
    at (x0, y0) and size h; its coordinates are formed as axes() forms
    them."""
    x, y = (c + np.arange(2) * h for c in (x0, y0))
    return element_geometry(np.stack((x[CELL[..., 1]], y[CELL[..., 0]]), axis=-1))


def _cell_contributions(geometry, entry):
    """The contributions of the first cell of the given cell_geometry(), in
    triangle and then local order: (offset, corner, entry(area, grads, i,
    j)) for basis pair (i, j) of each triangle, where offset is the lattice
    offset (dj, di) from node i to node j and corner the position (cj, ci)
    of node j in the cell.  area and grads come as Python floats, whose
    arithmetic rounds as numpy's does, at a fraction of the cost per
    operation."""
    area, grads = (a.tolist() for a in geometry)
    for t, tri in enumerate(CELL.tolist()):
        for i, (rj, ri) in enumerate(tri):
            for j, (cj, ci) in enumerate(tri):
                yield (cj - rj, ci - ri), (cj, ci), entry(area[t], grads[t], i, j)


def _node_form(mesh: StructuredMesh, entry) -> sparse.csr_matrix:
    """A scalar form over all nodes, from the entries entry(area, grads, i,
    j) of the first cell's basis pairs."""
    nx, ny = mesh.nx, mesh.ny
    contributions = list(_cell_contributions(cell_geometry(mesh), entry))
    offsets = sorted({offset for offset, _, _ in contributions})
    data = np.zeros((len(offsets), ny + 1, nx + 1))
    for offset, (cj, ci), value in contributions:
        # DIA stores the entry of row z at column z + offset, so the
        # contribution goes to the column nodes at this corner of a cell
        data[offsets.index(offset), cj:cj + ny, ci:ci + nx] += value
    kept = data.any(axis=(1, 2))
    flat = np.array(offsets) @ (nx + 1, 1)
    return sparse.dia_matrix((data[kept].reshape(-1, mesh.n_nodes), flat[kept]),
                             shape=(mesh.n_nodes,) * 2).tocsr()


def _grad_dot(area, grads, i, j):
    """Scalar stiffness contribution of basis pair (i, j) of a triangle."""
    return area * (grads[i][0] * grads[j][0] + grads[i][1] * grads[j][1])


def scalar_stiffness(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Stiffness matrix of the scalar P1 space over all nodes.

    The two triangles sharing a diagonal edge cancel exactly on this mesh,
    and those zeros are not stored.
    """
    return _node_form(mesh, _grad_dot)


def consistent_mass(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Consistent (exact) P1 mass matrix over all nodes."""
    return _node_form(mesh, lambda area, grads, i, j:
                      area / 12.0 * (2.0 if i == j else 1.0))


@functools.lru_cache(maxsize=8)
def _stiffness_templates(x0: float, y0: float, h: float) -> tuple:
    """The interior stiffness stencil of a mesh whose first cell is at
    (x0, y0) with size h: (dj, di, value) per offset whose sum is not
    exactly zero, sorted by (dj, di), which is column order.  A run asks for
    it twice (K and the step operator's constant block), so it is kept for
    the last few cells."""
    sums = {}
    for offset, _, value in _cell_contributions(_cell_geometry(x0, y0, h), _grad_dot):
        sums[offset] = sums.get(offset, 0.0) + value
    return tuple((*off, value) for off, value in sorted(sums.items()) if value != 0.0)


def stiffness_block(mesh: StructuredMesh, scale: float,
                    shift: float) -> sparse.dia_matrix:
    """shift I + scale K as a DIA matrix, m x m over the interior nodes, K
    the interior stiffness: one diagonal of scale * value per stencil
    template (_stiffness_templates()), at its flat offset dj ni + di, and
    shift + scale * value on the main diagonal.

    The offsets ascend, as the columns of a row of K do, and scipy's DIA
    product adds one diagonal at a time into a zeroed vector, so each row
    sums in the order of the CSR product of shift I + scale K, from +0.0:
    the two give the same bits.  The zeros that a diagonal holds where the
    stencil leaves the lattice add +-0 to a sum that is never -0, which
    changes nothing for finite vectors.  A diagonal with no entry on the
    lattice is not stored: on a lattice one node wide the +-1 and +-ni
    offsets coincide, and only the nonzero one is kept."""
    ni, nj = mesh.nx - 1, mesh.ny - 1
    templates = [(dj, di, value) for dj, di, value
                 in _stiffness_templates(mesh.x0, mesh.y0, mesh.h)
                 if abs(dj) < nj and abs(di) < ni]
    data = np.zeros((len(templates), nj, ni))
    for diagonal, (dj, di, value) in zip(data, templates):
        # DIA stores the entry of row z - o at column z: the value stands
        # at the column nodes whose row node is interior too
        diagonal[max(dj, 0):nj + min(dj, 0), max(di, 0):ni + min(di, 0)] = scale * value
        if dj == di == 0:
            diagonal += shift
    return sparse.dia_matrix((data.reshape(-1, ni * nj),
                              [dj * ni + di for dj, di, _ in templates]),
                             shape=(ni * nj,) * 2)


_stiffness = {}  # the interior stiffness of the most recent lattice


def assemble_stiffness(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Interior Dirichlet stiffness, m x m over the interior nodes, in CSR:
    the scalar stencil at every interior node, equal to the interior block
    of scalar_stiffness().  Offsets that land on the boundary and offsets
    whose sum is exactly zero are not stored.

    K depends only on the lattice (x0, y0, h, nx, ny), so the K of the most
    recent lattice is kept and every mesh on that lattice gets the same
    object: a run's K and D, and the cases of a time or sigma study.  Its
    data, indices and indptr are read-only; a caller that modifies K must
    copy it (K.copy())."""
    lattice = (mesh.x0, mesh.y0, mesh.h, mesh.nx, mesh.ny)
    K = _stiffness.get(lattice)
    if K is None:
        _stiffness.clear()  # the last lattice's K, freed before this one is built
        K = stiffness_block(mesh, 1.0, 0.0).tocsr()
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
