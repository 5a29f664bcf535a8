"""Independent reference computations used by the test suite.

Everything here deliberately avoids the production code paths: tensors are
kept as dense 2x2 matrices, basis gradients come from solving a local
linear system, quadrature uses the edge-midpoint rule, and the reference
stepper works on all four matrix entries with a dense solve.  The
element-by-element forms and the alpha pairing take their per-triangle
geometry from the node coordinates (element_geometry()); on dyadic meshes
the lattice stencils of production code equal them bit for bit, and
elsewhere to roundoff.  The nodal set-up at the end is
the exception: it keeps the start of a run as it was built over nodal
fields, with the production pointwise algebra, as the bitwise reference of
the interior set-up.
"""

from dataclasses import replace

import numpy as np
from scipy import sparse

from qtflow.experiments import default_initial_q
from qtflow.mesh import build_mesh
from qtflow.model import aux_P, aux_r
from qtflow.stepper import SimState


# ---------------------------------------------------------------------------
# dense 2x2 tensor algebra


def to_full(q1, q2):
    return np.array([[q1, q2], [q2, -q1]], dtype=float)


def frob_dot(A, B):
    """Frobenius contraction A:B of reduced tensors (components on the
    leading axis); both off-diagonal and both diagonal entries contribute,
    hence the factor 2 on the reduced components."""
    return 2.0 * (A[0] * B[0] + A[1] * B[1])


def bulk_dense(Q, p):
    t2 = np.trace(Q @ Q)
    t3 = np.trace(Q @ Q @ Q)
    return 0.5 * p.a * t2 - (p.b / 3.0) * t3 + 0.25 * p.c * t2 * t2


def f_dense(Q, p):
    t2 = np.trace(Q @ Q)
    return p.a * Q - p.b * (Q @ Q - 0.5 * t2 * np.eye(2)) + p.c * t2 * Q


def r_dense(Q, p):
    return np.sqrt(2.0 * (bulk_dense(Q, p) + p.A0))


def P_dense(Q, p):
    return f_dense(Q, p) / r_dense(Q, p)


# ---------------------------------------------------------------------------
# meshes of the bit-equality tests

#: Cell counts of the dyadic [0,2]^2 meshes: node coordinates are exact
#: binary numbers, so every cell's element matrices equal the first cell's.
DYADIC_SIZES = (4, 8, 16, 32, 64, 128, 256)

#: (extent, nx, ny) of meshes whose node coordinates are not all binary
#: fractions, where the lattice and element assemblies may round apart.
NON_DYADIC_MESHES = (
    ((-1.0, 1.0, -1.0, 1.0), 7, 7),
    ((0.0, 3.0, 0.0, 1.0), 30, 10),
    ((0.1, 1.4, -0.3, 1.0), 13, 13),
)

#: Extents of the set-up comparisons and their square cells: dyadic,
#: non-dyadic, and 3:1.
SETUP_MESHES = (((0.0, 2.0, 0.0, 2.0), 16, 16), ((0.1, 1.4, 0.1, 1.4), 13, 13),
                ((0.0, 3.0, 0.0, 1.0), 30, 10))


# ---------------------------------------------------------------------------
# mesh bookkeeping


def nodes(mesh):
    """(N, 2) node coordinates in lexicographic order."""
    xy = np.empty((mesh.ny + 1, mesh.nx + 1, 2))
    xy[..., 0] = mesh.x0 + np.arange(mesh.nx + 1) * mesh.h
    xy[..., 1] = (mesh.y0 + np.arange(mesh.ny + 1) * mesh.h)[:, None]
    return xy.reshape(-1, 2)


def is_boundary(mesh):
    """(N,) flags of the nodes on the boundary."""
    flags = np.ones((mesh.ny + 1, mesh.nx + 1), dtype=bool)
    flags[1:-1, 1:-1] = False
    return flags.ravel()


def interior_nodes(mesh):
    """(n,) node indices of the interior nodes, in interior order."""
    return np.flatnonzero(~is_boundary(mesh))


#: The first cell's triangles as lattice corners (row, col) of their
#: vertices: (ll, lr, ur) and (ll, ur, ul), each positively oriented.
CELL = np.array([[(0, 0), (0, 1), (1, 1)], [(0, 0), (1, 1), (1, 0)]])


def triangles(mesh):
    """(M, 3) node indices of every triangle, positively oriented: the
    lower triangle (ll, lr, ur), then the upper one (ll, ur, ul) of each
    cell, cells in lexicographic order."""
    ic, jc = np.meshgrid(np.arange(mesh.nx), np.arange(mesh.ny))
    ll = (jc * (mesh.nx + 1) + ic).ravel()
    ur = ll + mesh.nx + 2
    tri = np.empty((2 * ll.size, 3), dtype=np.int64)
    tri[0::2] = np.column_stack([ll, ll + 1, ur])
    tri[1::2] = np.column_stack([ll, ur, ur - 1])
    return tri


def gather_interior(mesh, field):
    """The interior entries of a nodal field (N, ...) as a C-contiguous
    component-major copy (..., m), gathered by node index: rows q1 and q2
    of a Q field."""
    return np.ascontiguousarray(np.moveaxis(field[interior_nodes(mesh)], 0, -1))


def scatter_interior(mesh, values):
    """The interleaved nodal field (N, ...) of a component-major interior
    vector (..., m), zero on the boundary, written by node index."""
    field = np.zeros((mesh.n_nodes,) + values.shape[:-1])
    field[interior_nodes(mesh)] = np.moveaxis(values, -1, 0)
    return field


def nodal(mesh, values):
    """A new C-contiguous nodal field (..., N) that holds the interior
    vector values (..., m) at the interior nodes and zero on the boundary,
    written through a slice: interior nodes form the inner block of the
    lexicographic lattice, so a slice reaches them in interior order."""
    lead = values.shape[:-1]
    field = np.zeros(lead + (mesh.ny + 1, mesh.nx + 1))
    field[..., 1:-1, 1:-1] = values.reshape(lead + (mesh.ny - 1, mesh.nx - 1))
    return field.reshape(lead + (mesh.n_nodes,))


def interior_block(A, rows, cols=None):
    """The block of an all-node matrix A at the interior nodes of the mesh
    rows (its rows) and of the mesh cols (its columns; rows's if None)."""
    return A[interior_nodes(rows)][:, interior_nodes(rows if cols is None else cols)]


def interior_index(mesh):
    """Position of every node in the interior unknown ordering, -1 on the
    boundary."""
    index = np.full(mesh.n_nodes, -1)
    index[interior_nodes(mesh)] = np.arange(mesh.n_interior)
    return index


def nested_injection_by_coo(coarse, fine):
    """The nested injection assembled from COO triplets, one row of
    barycentric weights per fine node: (ll, lr, ur) in the lower triangle
    of its coarse cell, else (ll, ur, ul) in the upper one."""
    m = fine.nx // coarse.nx
    ii, jj = np.meshgrid(np.arange(fine.nx + 1), np.arange(fine.ny + 1))
    ii = ii.ravel()
    jj = jj.ravel()
    ic = np.minimum(ii // m, coarse.nx - 1)
    jc = np.minimum(jj // m, coarse.ny - 1)
    iloc = ii - ic * m
    jloc = jj - jc * m
    xi = iloc / m
    eta = jloc / m
    lower = iloc >= jloc
    bary = np.column_stack([1.0 - np.where(lower, xi, eta),
                            np.where(lower, xi - eta, xi),
                            np.where(lower, eta, eta - xi)])
    s = coarse.nx + 1
    cell = np.array([[0, 1, s + 1], [0, s + 1, s]])
    cols = (jc * s + ic)[:, None] + cell[np.where(lower, 0, 1)]
    rows = np.repeat(np.arange(ii.size), 3)
    return sparse.csr_matrix((bary.ravel(), (rows, cols.ravel())),
                             shape=(fine.n_nodes, coarse.n_nodes))


def interior_injection_by_coo(coarse, fine):
    """The interior block of nested_injection_by_coo(), fine interior rows
    by coarse interior columns, stored by columns (scipy's tocsc()), with
    its zero weights dropped: those of the coarse boundary vertices (the
    columns the block leaves out hold them) and those of fine nodes on a
    coarse edge or node."""
    A = interior_block(nested_injection_by_coo(coarse, fine), fine, coarse)
    A.eliminate_zeros()
    return A.tocsc()


def all_node_h1_sq(mesh, e):
    """Squared H1 norm of the scalar P1 function with nodal values e (N,),
    from the all-node element forms."""
    return (e @ (consistent_mass_by_elements(mesh) @ e)
            + e @ (scalar_stiffness_by_elements(mesh) @ e))


def interleaved_transfer(field, injection):
    """A component-major coarse nodal field (..., Nc) moved onto the fine
    mesh as the interleaved (Nf, ...) of one multi-vector product,
    injection @ F, the way the studies moved their (N, 2) fields."""
    return injection @ np.moveaxis(field, -1, 0)


def lumped_weights_by_bincount(mesh):
    """Integral of every hat function: area / 3 from each triangle at the
    node, accumulated triangle by triangle."""
    tri = triangles(mesh)
    return np.bincount(tri.ravel(), weights=np.full(tri.size, 0.5 * mesh.h * mesh.h / 3.0),
                       minlength=mesh.n_nodes)


def barycentric(pts, point):
    """Barycentric coordinates of point in the triangle with vertices pts."""
    A = np.column_stack([np.ones(3), pts]).T
    return np.linalg.solve(A, np.array([1.0, point[0], point[1]]))


def containing_triangle(mesh, point):
    """The first triangle of mesh that contains point, and the point's
    barycentric coordinates in it, by search over all triangles."""
    xy = nodes(mesh)
    for tri in triangles(mesh):
        bary = barycentric(xy[tri], point)
        if np.all(bary > -1e-12):
            return tri, bary
    raise ValueError("point outside the mesh")


# ---------------------------------------------------------------------------
# element geometry, independent of the production formulas


def tri_area(pts):
    v1 = pts[1] - pts[0]
    v2 = pts[2] - pts[0]
    return 0.5 * (v1[0] * v2[1] - v1[1] * v2[0])


def tri_grads(pts):
    """Gradients of the three P1 basis functions on one triangle,
    obtained by solving for the linear polynomial through the vertices."""
    A = np.column_stack([np.ones(3), pts])
    C = np.linalg.inv(A)
    return C[1:, :].T  # row i: gradient of basis i


def midpoint_quad_sq(mesh, nodal):
    """Integral of the square of a P1 function via the edge-midpoint rule
    (exact for quadratics)."""
    total = 0.0
    xy = nodes(mesh)
    for tri in triangles(mesh):
        pts = xy[tri]
        vals = nodal[tri]
        area = tri_area(pts)
        mids = [(vals[0] + vals[1]) / 2.0, (vals[1] + vals[2]) / 2.0,
                (vals[2] + vals[0]) / 2.0]
        total += area / 3.0 * sum(v * v for v in mids)
    return total


def hat_integrals(mesh):
    """Integral of every hat function by midpoint quadrature."""
    gamma = np.zeros(mesh.n_nodes)
    xy = nodes(mesh)
    for tri in triangles(mesh):
        pts = xy[tri]
        area = tri_area(pts)
        for local in range(3):
            vals = np.zeros(3)
            vals[local] = 1.0
            mids = [(vals[0] + vals[1]) / 2.0, (vals[1] + vals[2]) / 2.0,
                    (vals[2] + vals[0]) / 2.0]
            gamma[tri[local]] += area / 3.0 * sum(mids)
    return gamma


def div_form_quadrature(mesh, W1, W2):
    """Exact integral of div(W1) . div(W2) for reduced nodal fields."""
    total = 0.0
    xy = nodes(mesh)
    for tri in triangles(mesh):
        pts = xy[tri]
        area = tri_area(pts)
        grads = tri_grads(pts)

        def div_vec(W):
            g1 = grads.T @ W[tri, 0]  # gradient of q1 on this element
            g2 = grads.T @ W[tri, 1]
            return np.array([g1[0] + g2[1], g2[0] - g1[1]])

        total += area * float(div_vec(W1) @ div_vec(W2))
    return total


def element_stiffness(pts):
    area = tri_area(pts)
    grads = tri_grads(pts)
    return area * (grads @ grads.T)


# ---------------------------------------------------------------------------
# element-by-element forms


def element_geometry(pts):
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


def _all_node_form(mesh, entry):
    """Element assembly over all nodes; entry(area, grads, i, j) gives the
    contribution of basis pair (i, j) of every triangle."""
    tri = triangles(mesh)
    area, grads = element_geometry(nodes(mesh)[tri])
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


def scalar_stiffness_by_elements(mesh):
    """All-node scalar stiffness, with exact cancellations dropped."""
    K = _all_node_form(mesh, lambda area, grads, i, j:
                       area * (grads[:, i] * grads[:, j]).sum(axis=1))
    K.eliminate_zeros()
    return K


def consistent_mass_by_elements(mesh):
    """All-node consistent P1 mass matrix."""
    return _all_node_form(mesh, lambda area, grads, i, j:
                          area / 12.0 * (2.0 if i == j else 1.0))


def interior_stiffness_by_elements(mesh):
    """Interior stiffness: the all-node element assembly restricted to the
    interior nodes."""
    return interior_block(scalar_stiffness_by_elements(mesh), mesh)


def interior_mass_by_elements(mesh):
    """Interior consistent mass: the all-node element assembly restricted
    to the interior nodes."""
    return interior_block(consistent_mass_by_elements(mesh), mesh)


def component_block(A, c, d):
    """The block of an interleaved matrix (DOF 2k + c for component c of
    interior node k) that maps component d to component c."""
    return A[c::2][:, d::2]


#: The five-point Laplacian, (dj, di, value) per lattice offset in column
#: order: the exact interior stiffness of the right-triangle lattice.
FIVE_POINT = ((-1, 0, -1.0), (0, -1, -1.0), (0, 0, 4.0), (0, 1, -1.0), (1, 0, -1.0))


def interleaved_stiffness(mesh):
    """The interior stiffness on interleaved vectors (DOF 2k + c for
    component c of interior node k), built on the lattice with one template
    per component and stored offset, the column at the row's own component,
    from the exact five-point stencil.  Its two diagonal blocks must equal
    the scalar interior stiffness bit for bit."""
    table = np.array([(dj, di, c, value) for c in range(2)
                      for dj, di, value in FIVE_POINT])
    dj, di, comp = table[:, :3].astype(np.int32).T
    ni, nj = mesh.nx - 1, mesh.ny - 1
    i = np.arange(ni, dtype=np.int32)[:, None] + di
    j = np.arange(nj, dtype=np.int32)[:, None] + dj
    in_i = (i >= 0) & (i < ni)
    in_j = (j >= 0) & (j < nj)
    inside = in_j[:, None] & in_i
    cols = (2 * ni * j)[:, None] + (2 * i + comp)
    half = len(table) // 2
    counts = in_j[:, :half].astype(np.int32) @ in_i[:, :half].T.astype(np.int32)
    data = np.broadcast_to(table[:, 3], inside.shape)[inside]
    indptr = np.zeros(2 * counts.size + 1, dtype=np.int32)
    np.cumsum(np.repeat(counts, 2), out=indptr[1:])
    n = 2 * mesh.n_interior
    return sparse.csr_matrix((data, cols[inside], indptr), shape=(n, n))


def div_form_by_elements(mesh):
    """Interleaved interior divergence form from element triplets over all
    nodes, restricted to interior DOFs, with exact cancellations dropped."""
    tri = triangles(mesh)
    area, grads = element_geometry(nodes(mesh)[tri])
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
    dofs = np.repeat(2 * interior_nodes(mesh), 2)
    dofs[1::2] += 1
    D = D[dofs][:, dofs]
    D.eliminate_zeros()
    return D


def alpha_pairing(mesh, W1, W2):
    """Evaluate the elastic cross-derivative pairing of two reduced fields.

    The three-term definition is expanded literally over the full matrix
    entries, as an independent check of the reduced divergence form (the
    pairing equals -2 times the div form for symmetric trace-free fields).
    Fields are (N, 2) nodal arrays that vanish on the boundary.
    """
    tri = triangles(mesh)
    area, grads = element_geometry(nodes(mesh)[tri])

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


# ---------------------------------------------------------------------------
# full-matrix reference stepper


class FullMatrixStepper:
    """Reference implementation of the implicit step on all four tensor
    entries, assembled densely and solved directly.

    The elastic cross-derivative pairing is evaluated from its literal
    definition via first-derivative pairing matrices, and the bulk
    derivative keeps its b term.  Used to check structure preservation and
    to cross-validate the reduced production stepper.
    """

    def __init__(self, mesh, params, dt):
        self.mesh = mesh
        self.p = params
        self.dt = dt
        self.idx = interior_nodes(mesh)
        self.gamma = lumped_weights_by_bincount(mesh)[self.idx]
        n = len(self.idx)
        self.n = n

        G = np.zeros((2, 2, n, n))
        xy = nodes(mesh)
        inter = interior_index(mesh)
        for tri in triangles(mesh):
            pts = xy[tri]
            area = tri_area(pts)
            grads = tri_grads(pts)
            for li in range(3):
                u = inter[tri[li]]
                if u < 0:
                    continue
                for lj in range(3):
                    v = inter[tri[lj]]
                    if v < 0:
                        continue
                    for a in range(2):
                        for b in range(2):
                            G[a, b, u, v] += area * grads[li, a] * grads[lj, b]
        self.G = G
        self.K = G[0, 0] + G[1, 1]

        # alpha_mat[(y,a,b),(z,c,d)] = alpha pairing of basis field E_cd phi_z
        # against test field E_ab phi_y
        alpha = np.zeros((n, 2, 2, n, 2, 2))
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    for d in range(2):
                        block = np.zeros((n, n))
                        if b == c:
                            block -= G[d, a].T  # [z,y] indexed as [y,z] transpose
                        if a == c:
                            block -= G[d, b].T
                        if a == b:
                            block += G[d, c].T
                        alpha[:, a, b, :, c, d] = block
        self.alpha = alpha.reshape(n * 4, n * 4)

    def step(self, Qfull, Qprev, r):
        """One step: Qfull/Qprev are (n, 2, 2) interior values, r is (n,).
        Returns (Qnew, rnew)."""
        p = self.p
        dt = self.dt
        n = self.n
        g = self.gamma

        P = np.array([P_dense(Qfull[k], p) for k in range(n)])  # (n,2,2)

        eye4 = np.eye(4)
        cm = 1.0 / dt + p.sigma / dt ** 2
        A = np.zeros((n * 4, n * 4))
        A += np.kron(np.diag(cm * g), eye4)
        A += 0.5 * p.L1 * np.kron(self.K, eye4)
        A -= 0.25 * (p.L2 + p.L3) * self.alpha
        for k in range(n):
            pv = P[k].reshape(4)
            A[4 * k:4 * k + 4, 4 * k:4 * k + 4] += 0.5 * g[k] * np.outer(pv, pv)

        qn = Qfull.reshape(n * 4)
        qm = Qprev.reshape(n * 4)
        gdof = np.repeat(g, 4)
        rhs = (1.0 / dt + 2.0 * p.sigma / dt ** 2) * gdof * qn
        rhs -= (p.sigma / dt ** 2) * gdof * qm
        rhs -= 0.5 * p.L1 * np.kron(self.K, eye4) @ qn
        rhs += 0.25 * (p.L2 + p.L3) * self.alpha @ qn
        for k in range(n):
            pv = P[k].reshape(4)
            rhs[4 * k:4 * k + 4] -= g[k] * r[k] * pv
            rhs[4 * k:4 * k + 4] += 0.5 * g[k] * float(pv @ qn[4 * k:4 * k + 4]) * pv

        qnew = np.linalg.solve(A, rhs)
        Qnew = qnew.reshape(n, 2, 2)
        rnew = r + np.einsum("kab,kab->k", P, Qnew - Qfull)
        return Qnew, rnew


# ---------------------------------------------------------------------------
# the set-up over nodal fields
#
# A run's start built from (N, 2) fields, as the set-up did before it worked
# on interior vectors: the callable evaluated at every node, the default
# velocity built from gathers of its own and scattered into a nodal field,
# and a first level that gathers Q0 again and forms P(q0) a second time.
# The interior set-up must equal it bit for bit.


def nodal_interpolate_qfield(mesh, data):
    """The callable at every node's coordinates, the boundary entries set to
    zero afterwards."""
    xy = nodes(mesh)
    q1, q2 = data(xy[:, 0], xy[:, 1])
    field = np.column_stack([
        np.broadcast_to(q1, mesh.n_nodes),
        np.broadcast_to(q2, mesh.n_nodes),
    ]).astype(float)
    field[is_boundary(mesh)] = 0.0
    return field


def nodal_default_Qt0(mesh, p, Q0, r0, K):
    """The default initial velocity L1*Lap(Q0) - r0 P(Q0) as a nodal field,
    from the nodal Q0 and r0."""
    x0 = gather_interior(mesh, Q0)
    qt = -(p.L1) * (K @ x0.T).T / lumped_weights_by_bincount(mesh)[interior_nodes(mesh)]
    qt -= gather_interior(mesh, r0) * aux_P(x0, p)
    return scatter_interior(mesh, qt)


def nodal_start(case, op):
    """The starting state of an experiments.Case, with op the run's step
    operator: the nodal Q0, r0 and (for sigma > 0) Qt0, each perturbation
    added at the interior nodes, then the explicit first level in two
    passes."""
    cfg = case.cfg
    p, dt = cfg.params, cfg.dt
    mesh = build_mesh(cfg.x0, cfg.x1, cfg.y0, cfg.y1, cfg.nx, cfg.ny)
    idx = interior_nodes(mesh)
    Q0 = (np.zeros((mesh.n_nodes, 2)) if cfg.initial == "zero"
          else nodal_interpolate_qfield(mesh, default_initial_q))
    if case.pert_q0 != 0.0:
        Q0[idx, 0] += case.pert_q0
    r0 = np.asarray(aux_r(Q0.T, p))
    q = gather_interior(mesh, Q0)
    r = gather_interior(mesh, r0)
    dq, n = None, 0
    if p.sigma > 0.0:
        Qt0 = nodal_default_Qt0(mesh, p, Q0, r0, op.K)
        if case.pert_qt0 != 0.0:
            Qt0[idx, 0] += case.pert_qt0
        q0, q = q, q + dt * gather_interior(mesh, Qt0)
        P0 = aux_P(q0, p)
        dq = q - q0
        r = r + 2.0 * (P0[0] * dq[0] + P0[1] * dq[1])
        n = 1
    return SimState(q=q, dq=dq, r=r, Kq=op.products(q), n=n)


def nodal_r_fields(mesh, p, Q0, states):
    """The nodal r of each state of a run, advanced at every node, boundary
    nodes included: r = aux_r(Q0) of the nodal start field Q0 (N, 2), then
    for each state in turn the lumped update r + 2 P(Q) : (Q_s - Q) from
    the previous nodal field Q (Q0 first) to the state's own, Q_s."""
    r = np.asarray(aux_r(np.ascontiguousarray(Q0.T), p))
    Q = Q0
    fields = []
    for state in states:
        Qnew = scatter_interior(mesh, state.q)
        P, dQ = aux_P(np.ascontiguousarray(Q.T), p), (Qnew - Q).T
        r = r + 2.0 * (P[0] * dQ[0] + P[1] * dQ[1])
        fields.append(r)
        Q = Qnew
    return fields


def simulate_dissipation_defects(states, records, p, dt, w):
    """The defect of the dissipation identity over each step of a run, as
    experiments._simulate formed it while it kept the rates itself: dq / dt
    of each state held into the next step, and the squared lumped norm of
    the rate with the lumped weight w, E^n - E^{n-1} + dt |v^n|^2
    (+ (sigma/2) |v^n - v^{n-1}|^2 when sigma > 0).  states[k] is the state
    of records[k]."""
    def h_norm_sq(x):
        return w * float(np.vdot(x, x))

    prev_dtq = states[0].dq / dt if p.sigma > 0.0 else None
    defects = []
    for state, old, rec in zip(states[1:], records, records[1:]):
        dtq = state.dq / dt
        resid = rec.total - old.total + dt * h_norm_sq(dtq)
        if p.sigma > 0.0:
            resid += 0.5 * p.sigma * h_norm_sq(dtq - prev_dtq)
            prev_dtq = dtq
        defects.append(resid)
    return defects


# ---------------------------------------------------------------------------
# the sigma sweep in L-infinity(0, T; H1)


def sigma_sweep_distances(config):
    """experiments.sigma_study(config) and, per row, the H1 distance of its
    case from the parabolic run at every state n = 1..N, t = n dt, as
    [(n, distance), ...].

    The study runs its cases serially with experiments.step hooked: the
    parabolic run comes first and its q at every state is copied, since
    step() advances a state in place and reuses its vectors; every later
    case is measured against the copy of the same n in lockstep, with the
    norm forms of the shared mesh, as the study measures its final states."""
    from qtflow import analysis, experiments

    parabolic, runs, forms = {}, [], []  # runs: {n: distance} per case
    simulate, step = experiments._simulate, experiments.step

    def record(state):
        """Copy the parabolic run's q, or measure a later case against it."""
        if len(runs) == 1:
            parabolic[state.n] = state.q.copy()
        else:
            runs[-1][state.n] = analysis.h1_error_field(
                parabolic[state.n], state.q, forms[0])

    def hooked_simulate(case):
        if not forms:
            cfg = case.cfg
            forms.append(analysis.norm_forms(
                build_mesh(cfg.x0, cfg.x1, cfg.y0, cfg.y1, cfg.nx, cfg.ny)))
        runs.append({})
        return simulate(case)

    def hooked_step(state, *args, **kwargs):
        if state.n not in (runs[-1] if len(runs) > 1 else parabolic):
            record(state)  # the state the run starts from
        state = step(state, *args, **kwargs)
        record(state)
        return state

    experiments._simulate, experiments.step = hooked_simulate, hooked_step
    try:
        result = experiments.sigma_study(replace(config, threads=1))
    finally:
        experiments._simulate, experiments.step = simulate, step
    return result, [list(run.items()) for run in runs[1:]]
