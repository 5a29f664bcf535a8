"""Structured triangulations of axis-aligned rectangles.

Every lattice square is split along its lower-left to upper-right diagonal,
so stencils are identical everywhere and runs are reproducible.  Nodes are
ordered lexicographically: index = j * (nx + 1) + i for lattice coordinates
(i, j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse


@dataclass
class StructuredMesh:
    """Uniform right-triangle mesh of [x0,x1] x [y0,y1].

    gamma holds the lumped weights (integral of each hat function) and
    interior_index maps a node to its position in the interior unknown
    ordering, or -1 on the boundary.  Instances are treated as immutable.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int
    h: float
    nodes: np.ndarray        # (N, 2) coordinates
    triangles: np.ndarray    # (M, 3) node indices, positive orientation
    is_boundary: np.ndarray  # (N,) bool
    gamma: np.ndarray        # (N,) lumped weights
    interior_index: np.ndarray  # (N,) int, -1 on boundary
    interior_nodes: np.ndarray  # (n,) node indices of interior nodes

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_interior(self) -> int:
        return self.interior_nodes.shape[0]

    def _interior_view(self, field: np.ndarray) -> np.ndarray:
        """The interior entries of a nodal field, shaped (ny-1, nx-1, ...).

        Interior nodes form the inner block of the lexicographic lattice, so
        a slice reaches them in interior order without an index array.  The
        result is a view when field is C-contiguous.
        """
        lattice = field.reshape((self.ny + 1, self.nx + 1) + field.shape[1:])
        return lattice[1:-1, 1:-1]

    def gather_interior(self, field: np.ndarray) -> np.ndarray:
        """Interior entries of a nodal field as a flat (interleaved) copy."""
        return self._interior_view(field).flatten()

    def scatter_interior(self, field: np.ndarray, values: np.ndarray) -> None:
        """Write a flat (interleaved) interior vector into a nodal field."""
        if not field.flags.c_contiguous:
            raise ValueError("nodal field must be C-contiguous to be written in place")
        view = self._interior_view(field)
        view[...] = values.reshape(view.shape)


def build_mesh(x0, x1, y0, y1, nx, ny) -> StructuredMesh:
    """Build the structured triangulation with nx x ny square cells."""
    if nx < 2 or ny < 2:
        raise ValueError("need at least 2 cells per axis, got nx=%d ny=%d" % (nx, ny))
    hx = (x1 - x0) / nx
    hy = (y1 - y0) / ny
    if abs(hx - hy) > 1e-12 * max(abs(hx), abs(hy)):
        raise ValueError("cells must be square: hx=%g differs from hy=%g" % (hx, hy))
    h = hx

    ii, jj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1))  # row-major in j
    xs = x0 + ii.ravel() * h
    ys = y0 + jj.ravel() * h
    nodes = np.column_stack([xs, ys])

    # two triangles per square, diagonal from lower-left to upper-right
    ic, jc = np.meshgrid(np.arange(nx), np.arange(ny))
    ll = (jc * (nx + 1) + ic).ravel()
    lr = ll + 1
    ul = ll + (nx + 1)
    ur = ul + 1
    nsq = nx * ny
    triangles = np.empty((2 * nsq, 3), dtype=np.int64)
    triangles[0::2] = np.column_stack([ll, lr, ur])
    triangles[1::2] = np.column_stack([ll, ur, ul])

    area = 0.5 * h * h
    gamma = np.bincount(
        triangles.ravel(),
        weights=np.full(triangles.size, area / 3.0),
        minlength=nodes.shape[0],
    )

    on_edge = (ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)
    is_boundary = on_edge.ravel()

    interior_index = np.full(nodes.shape[0], -1, dtype=np.int64)
    interior_nodes = np.flatnonzero(~is_boundary)
    interior_index[interior_nodes] = np.arange(interior_nodes.size)

    return StructuredMesh(
        x0=float(x0), x1=float(x1), y0=float(y0), y1=float(y1),
        nx=int(nx), ny=int(ny), h=float(h),
        nodes=nodes, triangles=triangles, is_boundary=is_boundary,
        gamma=gamma, interior_index=interior_index, interior_nodes=interior_nodes,
    )


@dataclass
class NestedInjection:
    """P1 interpolation data from a coarse mesh onto a nested fine mesh.

    For each fine node: the containing coarse triangle and its barycentric
    weights.  matrix is the equivalent sparse interpolation operator.
    """

    coarse_triangle: np.ndarray  # (Nf,) triangle index into coarse mesh
    bary: np.ndarray             # (Nf, 3) barycentric weights
    matrix: sparse.csr_matrix    # (Nf, Nc)


def nested_injection(coarse: StructuredMesh, fine: StructuredMesh) -> NestedInjection:
    """Locate every fine node inside the coarse triangulation.

    Requires identical extents and fine cell counts that are an integer
    multiple of the coarse ones.
    """
    if (coarse.x0, coarse.x1, coarse.y0, coarse.y1) != (fine.x0, fine.x1, fine.y0, fine.y1):
        raise ValueError("meshes cover different rectangles")
    if fine.nx % coarse.nx != 0 or fine.ny % coarse.ny != 0:
        raise ValueError("fine mesh is not a refinement of the coarse mesh")
    m = fine.nx // coarse.nx
    if fine.ny // coarse.ny != m:
        raise ValueError("refinement ratio differs between axes")

    i = np.arange(fine.nx + 1)
    j = np.arange(fine.ny + 1)
    ii, jj = np.meshgrid(i, j)
    ii = ii.ravel()
    jj = jj.ravel()

    ic = np.minimum(ii // m, coarse.nx - 1)
    jc = np.minimum(jj // m, coarse.ny - 1)
    iloc = ii - ic * m
    jloc = jj - jc * m
    xi = iloc / m
    eta = jloc / m

    square = jc * coarse.nx + ic
    lower = iloc >= jloc  # triangle (ll, lr, ur); else (ll, ur, ul)
    tri = np.where(lower, 2 * square, 2 * square + 1)

    bary = np.empty((ii.size, 3))
    bary[lower, 0] = 1.0 - xi[lower]
    bary[lower, 1] = xi[lower] - eta[lower]
    bary[lower, 2] = eta[lower]
    up = ~lower
    bary[up, 0] = 1.0 - eta[up]
    bary[up, 1] = xi[up]
    bary[up, 2] = eta[up] - xi[up]

    cols = coarse.triangles[tri]  # (Nf, 3)
    rows = np.repeat(np.arange(ii.size), 3)
    matrix = sparse.csr_matrix(
        (bary.ravel(), (rows, cols.ravel())),
        shape=(fine.n_nodes, coarse.n_nodes),
    )
    return NestedInjection(coarse_triangle=tri, bary=bary, matrix=matrix)
