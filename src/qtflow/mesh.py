"""Structured triangulations of axis-aligned rectangles.

Every lattice square is split along its lower-left to upper-right diagonal,
so stencils are identical everywhere and runs are reproducible.  Nodes are
ordered lexicographically: index = j * (nx + 1) + i for lattice coordinates
(i, j).  Fields are interior vectors (..., m), component-major and
C-contiguous, rows q1 and q2 of a Q field: Q vanishes on the boundary and
r takes one constant value there, so no boundary value is stored.

Nothing is stored per node or per triangle: node coordinates, boundary
flags and interior indices follow from the lattice (axes()), and every
cell is a translate of the first one, split into the triangles (ll, lr,
ur) and (ll, ur, ul).  So a node's lumped weight follows from h and the
number of triangles at it: six at every interior node, so one float,
gamma, serves them all.  The assembly's stencils, likewise, are tables in
h alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np
from scipy import sparse


@dataclass
class StructuredMesh:
    """Uniform right-triangle mesh of [x0,x1] x [y0,y1].

    gamma is the lumped weight (the integral of the hat function) of every
    interior node.  The interior nodes are the inner block of the lattice.
    Instances are treated as immutable.
    """

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int
    h: float

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_interior(self) -> int:
        return (self.nx - 1) * (self.ny - 1)

    @cached_property
    def gamma(self) -> float:
        """The lumped weight of an interior node, which six triangles meet."""
        return _lumped_weights(self.h)[6]

    @cached_property
    def boundary_weight(self) -> float:
        """The summed lumped weights of the boundary nodes: two triangles
        meet at the lower-left and upper-right corners, one at the other
        two corners and three at every other boundary node."""
        g = _lumped_weights(self.h)
        return 2.0 * (g[2] + g[1]) + 2 * (self.nx + self.ny - 2) * g[3]

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The lattice axes x (nx+1,) and y (ny+1,): node (i, j) lies at
        (x[i], y[j])."""
        return (self.x0 + np.arange(self.nx + 1) * self.h,
                self.y0 + np.arange(self.ny + 1) * self.h)


def _lumped_weights(h: float) -> list:
    """Entry k is the lumped weight of a node that k = 0, ..., 6 triangles
    meet: each adds the same area / 3, added one at a time."""
    return list(accumulate([0.5 * h * h / 3.0] * 6, initial=0.0))


def build_mesh(x0, x1, y0, y1, nx, ny) -> StructuredMesh:
    """Build the structured triangulation with nx x ny square cells."""
    if nx < 2 or ny < 2:
        raise ValueError("need at least 2 cells per axis, got nx=%d ny=%d" % (nx, ny))
    hx = (x1 - x0) / nx
    hy = (y1 - y0) / ny
    if abs(hx - hy) > 1e-12 * max(abs(hx), abs(hy)):
        raise ValueError("cells must be square: hx=%r differs from hy=%r" % (hx, hy))
    return StructuredMesh(
        x0=float(x0), x1=float(x1), y0=float(y0), y1=float(y1),
        nx=int(nx), ny=int(ny), h=float(hx),
    )


def nested_injection(coarse: StructuredMesh, fine: StructuredMesh) -> sparse.csc_matrix:
    """P1 interpolation from a coarse mesh onto a nested fine mesh: the
    (mf, mc) sparse operator that evaluates a coarse interior vector, zero
    on the boundary, at the fine interior nodes.

    Requires identical extents and fine cell counts that are one integer
    multiple of the coarse ones.  Column k holds the positive values of
    the hat function of coarse interior node k at the fine nodes: the
    barycentric weights of the coarse triangles that hold them, zero
    weights left out.  They lie inside the hat's support, so every column
    holds the same stencil, shifted, and the columns of the coarse
    boundary nodes, whose values are zero, are left out.  It is stored by
    columns (CSC, int32 index arrays built directly); its product sums
    each row in ascending column order from +0, as a CSR product does.
    """
    if (coarse.x0, coarse.x1, coarse.y0, coarse.y1) != (fine.x0, fine.x1, fine.y0, fine.y1):
        raise ValueError("meshes cover different rectangles")
    if fine.nx % coarse.nx != 0 or fine.ny % coarse.ny != 0:
        raise ValueError("fine mesh is not a refinement of the coarse mesh")
    m = fine.nx // coarse.nx
    if fine.ny // coarse.ny != m:
        raise ValueError("refinement ratio differs between axes")

    # the fine lattice offsets (a, b) from a coarse node, and the weight of
    # that node in the triangle that holds each fine node, whose local
    # coordinates are (a mod m, b mod m) / m: the node is ll of the cell up
    # and right, lr of the cell up and left, ul of the cell down and right
    # and ur of the cell down and left
    a = np.arange(1 - m, m, dtype=np.int32)
    b = a[:, None]
    xi, eta = (a % m) / m, (b % m) / m
    w = np.where(a >= 0, np.where(b >= 0, 1.0 - np.maximum(xi, eta), eta - xi),
                 np.where(b >= 0, xi - eta, np.minimum(xi, eta)))
    inside = w > 0.0  # flat offsets ascend, b then a, as rows must
    w, offsets = w[inside], (b * np.int32(fine.nx - 1) + a)[inside]
    # each coarse interior node's own fine interior index, plus the offsets
    ii = np.arange(1, coarse.nx, dtype=np.int32) * np.int32(m) - 1
    jj = np.arange(1, coarse.ny, dtype=np.int32)[:, None] * np.int32(m) - 1
    indices = (jj * np.int32(fine.nx - 1) + ii).reshape(-1, 1) + offsets
    return sparse.csc_matrix(
        (np.tile(w, coarse.n_interior), indices.ravel(),
         np.arange(0, indices.size + 1, w.size, dtype=np.int32)),
        shape=(fine.n_interior, coarse.n_interior))
