"""Sparse bilinear forms for reduced Q-tensor fields on P1 elements.

Element matrices are exact (gradients of P1 basis functions are constant
per triangle), so no quadrature error enters the assembled forms.

Interior systems use an interleaved degree-of-freedom order: the q1 and q2
components of interior node k occupy positions 2k and 2k+1.

Every form is built on the node lattice, not element by element.  Each
cell is a translate of the first one, so the first cell's two triangles
give every entry: the entry of node z at lattice offset o (one of (0, 0),
(+-1, 0), (0, +-1), +-(1, 1)) sums, in triangle and then local order, the
contributions of the triangles that hold z and z + o.  At an interior node
all of them are present, so the interior stiffness applies one scalar
value per offset to each component, dropping offsets that land on the
boundary; the all-node forms of the error norms add each contribution over
the lattice slice of nodes whose cell holds it.  Zero sums are not stored.

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

import numpy as np
from scipy import sparse

from .mesh import StructuredMesh


def element_geometry(mesh: StructuredMesh, triangles: np.ndarray):
    """Signed areas (M,) and constant basis gradients (M, 3, 2) of the given
    triangles (node index triples)."""
    pts = mesh.nodes[triangles]
    v1 = pts[:, 1] - pts[:, 0]
    v2 = pts[:, 2] - pts[:, 0]
    area = 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
    grads = np.empty_like(pts)
    for i in range(3):
        jj, kk = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = (pts[:, jj, 1] - pts[:, kk, 1]) / (2.0 * area)
        grads[:, i, 1] = (pts[:, kk, 0] - pts[:, jj, 0]) / (2.0 * area)
    return area, grads


def _cell_contributions(mesh: StructuredMesh, entry):
    """The contributions of the first cell, in triangle and then local
    order: (offset, corner, entry(area, grads, i, j)) for basis pair (i, j)
    of each triangle, where offset is the lattice offset (dj, di) from node
    i to node j and corner the position (cj, ci) of node i in the cell."""
    cell = mesh.cell
    area, grads = element_geometry(mesh, cell)
    cj, ci = np.divmod(cell, mesh.nx + 1)
    for t in range(2):
        for i in range(3):
            for j in range(3):
                yield ((int(cj[t, j] - cj[t, i]), int(ci[t, j] - ci[t, i])),
                       (int(cj[t, i]), int(ci[t, i])),
                       entry(area[t], grads[t], i, j))


def _csr(counts: np.ndarray, data: np.ndarray, cols: np.ndarray) -> sparse.csr_matrix:
    """Square matrix whose row k holds the next counts[k] entries of data
    at the columns cols."""
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return sparse.csr_matrix((data, cols, indptr), shape=(counts.size, counts.size))


def _node_form(mesh: StructuredMesh, entry) -> sparse.csr_matrix:
    """A scalar form over all nodes, from the entries entry(area, grads, i,
    j) of the first cell's basis pairs."""
    nx, ny = mesh.nx, mesh.ny
    contributions = list(_cell_contributions(mesh, entry))
    offsets = sorted({offset for offset, _, _ in contributions})
    sums = np.zeros((ny + 1, nx + 1, len(offsets)))
    for offset, (cj, ci), value in contributions:
        # the nodes at this corner of a cell of the mesh
        sums[cj:cj + ny, ci:ci + nx, offsets.index(offset)] += value
    stored = sums != 0.0
    shift = np.array([dj * (nx + 1) + di for dj, di in offsets], dtype=np.int32)
    cols = np.arange(mesh.n_nodes, dtype=np.int32).reshape(ny + 1, nx + 1, 1) + shift
    return _csr(stored.sum(axis=2).ravel(), sums[stored], cols[stored])


def _grad_dot(area, grads, i, j):
    """Scalar stiffness contribution of basis pair (i, j) of a triangle."""
    return area * (grads[i, 0] * grads[j, 0] + grads[i, 1] * grads[j, 1])


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


def assemble_stiffness(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Interior Dirichlet stiffness acting on interleaved (q1, q2) vectors:
    the scalar stencil applied to each component at every interior node,
    with no coupling.  Offsets that land on the boundary and offsets whose
    sum is exactly zero are not stored."""
    sums = {}
    for offset, _, value in _cell_contributions(mesh, _grad_dot):
        sums[offset] = sums.get(offset, 0.0) + value
    # one template (dj, di, component, value) per row component and stored
    # offset, with the column at the row's own component: in column order,
    # offsets sorted by (dj, di)
    table = np.array([(*off, c, value) for c in range(2)
                      for off, value in sorted(sums.items()) if value != 0.0])
    dj, di, comp = table[:, :3].astype(np.int32).T

    # lattice coordinates of each template's column node, per interior
    # column i and row j; an entry is stored where both are interior, so
    # both rows of a node count in_j * in_i summed over the offsets
    ni, nj = mesh.nx - 1, mesh.ny - 1
    i = np.arange(ni, dtype=np.int32)[:, None] + di
    j = np.arange(nj, dtype=np.int32)[:, None] + dj
    in_i = (i >= 0) & (i < ni)
    in_j = (j >= 0) & (j < nj)
    inside = in_j[:, None] & in_i                   # (nj, ni, templates)
    cols = (2 * ni * j)[:, None] + (2 * i + comp)
    half = len(table) // 2
    counts = in_j[:, :half].astype(np.int32) @ in_i[:, :half].T.astype(np.int32)
    data = np.broadcast_to(table[:, 3], inside.shape)[inside]
    return _csr(np.repeat(counts, 2), data, cols[inside])


def assemble_div_form(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Divergence form over interior interleaved DOFs, x' D y the integral
    of div X . div Y.  Its cross terms cancel on the interior (see the
    module docstring), so it is the interior stiffness, entry for entry."""
    return assemble_stiffness(mesh)


def lumped_mass(mesh: StructuredMesh) -> np.ndarray:
    """Per-DOF lumped weights over interior interleaved DOFs.

    The Frobenius contraction of reduced tensors carries a factor 2, which
    is folded into the weights: each of the two DOFs of node z weighs
    2 gamma_z.
    """
    return np.repeat(2.0 * mesh.gather_interior(mesh.gamma), 2)
