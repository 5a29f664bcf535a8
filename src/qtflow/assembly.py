"""Sparse bilinear forms for reduced Q-tensor fields on P1 elements.

Element matrices are exact (gradients of P1 basis functions are constant
per triangle), so no quadrature error enters the assembled forms.

Interior systems use an interleaved degree-of-freedom order: the q1 and q2
components of interior node k occupy positions 2k and 2k+1.

The interior stiffness and divergence form are built from their lattice
stencil rather than element by element.  Every cell of the structured mesh
is a translate of the first one, split along the same diagonal, so the row
of every interior node collects the same element contributions at the same
lattice offsets: the seven offsets (0, 0), (+-1, 0), (0, +-1), +-(1, 1)
of the nodes that share a triangle with it.  The 2x2 block at each offset
is summed once from the two triangles of the first cell, and a row keeps
the offsets that land on interior nodes.  When the node coordinates are
exact binary numbers (a dyadic cell size and origin), every cell's element
matrices equal the first cell's bit for bit, each contribution is one of
0, +-1/2 and +-1, and sums of those are exact in any order; the stencil
matrices then equal the element assembly exactly.  On other meshes the
cells differ by the roundoff of their coordinates, and so do the two
assemblies.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .mesh import StructuredMesh


def element_geometry(mesh: StructuredMesh, triangles: np.ndarray | None = None):
    """Signed areas (M,) and constant basis gradients (M, 3, 2) of the given
    triangles (node index triples), by default all triangles of the mesh."""
    pts = mesh.nodes[mesh.triangles if triangles is None else triangles]
    v1 = pts[:, 1] - pts[:, 0]
    v2 = pts[:, 2] - pts[:, 0]
    area = 0.5 * (v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0])
    grads = np.empty_like(pts)
    for i in range(3):
        jj = (i + 1) % 3
        kk = (i + 2) % 3
        grads[:, i, 0] = (pts[:, jj, 1] - pts[:, kk, 1]) / (2.0 * area)
        grads[:, i, 1] = (pts[:, kk, 0] - pts[:, jj, 0]) / (2.0 * area)
    return area, grads


def _all_node_form(mesh: StructuredMesh, entry) -> sparse.csr_matrix:
    """Element assembly over all nodes; entry(area, grads, i, j) gives the
    contribution of basis pair (i, j) of every triangle."""
    area, grads = element_geometry(mesh)
    tri = mesh.triangles
    rows, cols, data = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(tri[:, i])
            cols.append(tri[:, j])
            data.append(entry(area, grads, i, j))
    n = mesh.n_nodes
    return sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()


def scalar_stiffness(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Stiffness matrix of the scalar P1 space over all nodes.

    The two triangles sharing a diagonal edge cancel exactly on this mesh;
    those stored zeros are dropped, which leaves every product unchanged.
    """
    K = _all_node_form(mesh, lambda area, grads, i, j:
                       area * (grads[:, i] * grads[:, j]).sum(axis=1))
    K.eliminate_zeros()
    return K


def consistent_mass(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Consistent (exact) P1 mass matrix over all nodes."""
    return _all_node_form(mesh, lambda area, grads, i, j:
                          area / 12.0 * (2.0 if i == j else 1.0))


def _cell_stencil(mesh: StructuredMesh, element_block) -> dict:
    """The 2x2 stencil blocks of an interleaved interior form, keyed by the
    lattice offset (dj, di) from a row's node to its column's node.

    element_block(area, gi, gj) is the 2x2 contribution that basis pair
    (i, j) of one triangle makes to block (row i, column j).  The blocks sum
    the two triangles of the first cell, in triangle and then local order.
    """
    cell = mesh.triangles[:2]
    area, grads = element_geometry(mesh, cell)
    cj, ci = np.divmod(cell, mesh.nx + 1)  # lattice coordinates of the vertices
    blocks = {}
    for t in range(2):
        for i in range(3):
            for j in range(3):
                offset = (int(cj[t, j] - cj[t, i]), int(ci[t, j] - ci[t, i]))
                block = element_block(area[t], grads[t, i], grads[t, j])
                blocks[offset] = blocks.get(offset, 0.0) + block
    return blocks


def _stencil_matrix(mesh: StructuredMesh, blocks: dict) -> sparse.csr_matrix:
    """Interleaved interior matrix applying the same stencil blocks at every
    interior node; offsets that land on the boundary and block entries that
    are exactly zero are not stored."""
    ni, nj = mesh.nx - 1, mesh.ny - 1
    n = ni * nj
    # one template entry per stored (offset, column component) of each row
    # component, in column order: offsets sorted by (dj, di), then component
    templates = [[(*off, c2, blocks[off][c, c2])
                  for off in sorted(blocks) for c2 in range(2)
                  if blocks[off][c, c2] != 0.0]
                 for c in range(2)]
    table = np.array(templates[0] + templates[1])
    dj, di, comp = table[:, :3].astype(np.int64).T
    values = table[:, 3]

    node = np.arange(n)
    i = node % ni
    j = node // ni
    inside = ((i[:, None] + di >= 0) & (i[:, None] + di < ni)
              & (j[:, None] + dj >= 0) & (j[:, None] + dj < nj))
    cols = 2 * (node[:, None] + dj * ni + di) + comp

    split = len(templates[0])
    counts = np.column_stack([inside[:, :split].sum(axis=1),
                              inside[:, split:].sum(axis=1)]).ravel()
    indptr = np.zeros(2 * n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    data = np.broadcast_to(values, inside.shape)[inside]
    return sparse.csr_matrix((data, cols[inside], indptr), shape=(2 * n, 2 * n))


def _stiffness_block(area, gi, gj):
    return area * (gi[0] * gj[0] + gi[1] * gj[1]) * np.eye(2)


def _div_block(area, gi, gj):
    same = area * (gi[0] * gj[0] + gi[1] * gj[1])
    cross = area * (gi[0] * gj[1] - gi[1] * gj[0])
    return np.array([[same, cross], [-cross, same]])


def assemble_stiffness(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Interior Dirichlet stiffness acting on interleaved (q1, q2) vectors.

    Each component sees the plain scalar stiffness; there is no coupling.
    """
    return _stencil_matrix(mesh, _cell_stencil(mesh, _stiffness_block))


def assemble_div_form(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Divergence form over interior interleaved DOFs.

    For a reduced field the tensor divergence is
    (dx q1 + dy q2, dx q2 - dy q1); the form x' D y integrates the dot
    product of the two divergence vectors and so couples q1 with q2.
    """
    return _stencil_matrix(mesh, _cell_stencil(mesh, _div_block))


def lumped_mass(mesh: StructuredMesh) -> np.ndarray:
    """Per-DOF lumped weights over interior interleaved DOFs.

    The Frobenius contraction of reduced tensors carries a factor 2, which
    is folded into the weights: each of the two DOFs of node z weighs
    2 gamma_z.
    """
    g = mesh.gamma[mesh.interior_nodes]
    return np.repeat(2.0 * g, 2)
