"""Sparse bilinear forms for reduced Q-tensor fields on P1 elements.

Element matrices are exact (gradients of P1 basis functions are constant
per triangle), so no quadrature error enters the assembled forms.

Interior systems use an interleaved degree-of-freedom order: the q1 and q2
components of interior node k occupy positions 2k and 2k+1.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .mesh import StructuredMesh


def element_geometry(mesh: StructuredMesh):
    """Signed areas (M,) and constant basis gradients (M, 3, 2)."""
    pts = mesh.nodes[mesh.triangles]  # (M, 3, 2)
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


def scalar_stiffness(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Stiffness matrix of the scalar P1 space over all nodes.

    The two triangles sharing a diagonal edge cancel exactly on this mesh;
    those stored zeros are dropped, which leaves every product unchanged.
    """
    area, grads = element_geometry(mesh)
    tri = mesh.triangles
    rows, cols, data = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(tri[:, i])
            cols.append(tri[:, j])
            data.append(area * (grads[:, i] * grads[:, j]).sum(axis=1))
    n = mesh.n_nodes
    K = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    K.eliminate_zeros()
    return K


def consistent_mass(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Consistent (exact) P1 mass matrix over all nodes."""
    area, _ = element_geometry(mesh)
    tri = mesh.triangles
    rows, cols, data = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(tri[:, i])
            cols.append(tri[:, j])
            data.append(area / 12.0 * (2.0 if i == j else 1.0))
    n = mesh.n_nodes
    M = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return M.tocsr()


def assemble_stiffness(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Interior Dirichlet stiffness acting on interleaved (q1, q2) vectors.

    Each component sees the plain scalar stiffness; there is no coupling.
    """
    idx = mesh.interior_nodes
    K = scalar_stiffness(mesh)[idx][:, idx]
    return sparse.kron(K, sparse.identity(2, format="csr"), format="csr")


def assemble_div_form(mesh: StructuredMesh) -> sparse.csr_matrix:
    """Divergence form over interior interleaved DOFs.

    For a reduced field the tensor divergence is
    (dx q1 + dy q2, dx q2 - dy q1); the form x' D y integrates the dot
    product of the two divergence vectors and so couples q1 with q2.
    """
    area, grads = element_geometry(mesh)
    tri = mesh.triangles
    rows, cols, data = [], [], []
    for i in range(3):
        gi = grads[:, i]
        for j in range(3):
            gj = grads[:, j]
            same = area * (gi[:, 0] * gj[:, 0] + gi[:, 1] * gj[:, 1])
            cross = area * (gi[:, 0] * gj[:, 1] - gi[:, 1] * gj[:, 0])
            u = tri[:, i]
            v = tri[:, j]
            rows += [2 * u, 2 * u + 1, 2 * u, 2 * u + 1]
            cols += [2 * v, 2 * v + 1, 2 * v + 1, 2 * v]
            data += [same, same, cross, -cross]
    n2 = 2 * mesh.n_nodes
    D = sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n2, n2),
    ).tocsr()
    dofs = np.repeat(2 * mesh.interior_nodes, 2)
    dofs[1::2] += 1
    D = D[dofs][:, dofs]
    D.eliminate_zeros()  # entries whose element contributions cancel exactly
    return D


def lumped_mass(mesh: StructuredMesh) -> np.ndarray:
    """Per-DOF lumped weights over interior interleaved DOFs.

    The Frobenius contraction of reduced tensors carries a factor 2, which
    is folded into the weights: each of the two DOFs of node z weighs
    2 gamma_z.
    """
    g = mesh.gamma[mesh.interior_nodes]
    return np.repeat(2.0 * g, 2)


def alpha_pairing(mesh: StructuredMesh, W1: np.ndarray, W2: np.ndarray) -> float:
    """Evaluate the elastic cross-derivative pairing of two reduced fields.

    The three-term definition is expanded literally over the full matrix
    entries; this routine exists as an independent oracle against the
    reduced divergence form (the pairing equals -2 times the div form for
    symmetric trace-free fields).  Fields are (N, 2) nodal arrays that
    vanish on the boundary.
    """
    area, grads = element_geometry(mesh)
    tri = mesh.triangles

    def entry_gradients(W):
        q1 = W[tri, 0]  # (M, 3)
        q2 = W[tri, 1]
        g1 = np.einsum("mi,mik->mk", q1, grads)  # gradient of q1 per element
        g2 = np.einsum("mi,mik->mk", q2, grads)
        return {
            (0, 0): g1,
            (0, 1): g2,
            (1, 0): g2,
            (1, 1): -g1,
        }

    d1 = entry_gradients(np.asarray(W1, dtype=float))
    d2 = entry_gradients(np.asarray(W2, dtype=float))

    d = 2
    acc = np.zeros_like(area)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                acc += d1[(j, k)][:, k] * d2[(i, j)][:, i]
                acc += d1[(i, k)][:, k] * d2[(i, j)][:, j]
    trace_term = np.zeros_like(area)
    for k in range(d):
        for ell in range(d):
            for i in range(d):
                trace_term += d1[(k, ell)][:, ell] * d2[(i, i)][:, k]
    return float(np.sum(area * (-acc + (2.0 / d) * trace_term)))
