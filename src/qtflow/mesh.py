"""Structured triangulations of axis-aligned rectangles.

Every lattice square is split along its lower-left to upper-right diagonal,
so stencils are identical everywhere and runs are reproducible.  Nodes are
ordered lexicographically: index = j * (nx + 1) + i for lattice coordinates
(i, j).  Interior vectors are component-major C-contiguous arrays (..., m),
rows q1 and q2 of a Q field; scatter_interior() writes them into a nodal
field (N, ...).

Nothing is stored per node or per triangle: node coordinates, boundary
flags and interior indices follow from the lattice (axes()), every cell is
a translate of the first one (CELL), and a node's lumped weight follows
from the number of triangles at it: six at every interior node, so one
float, gamma, serves them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np
from scipy import sparse


#: The first cell's triangles as lattice corners (row, col) of their
#: vertices: (ll, lr, ur) and (ll, ur, ul), each positively oriented.
CELL = np.array([[(0, 0), (0, 1), (1, 1)], [(0, 0), (1, 1), (1, 0)]])


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

    def scatter_interior(self, field: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Write a component-major interior vector (..., m) into a nodal
        field (N, ...), which is returned.  Interior nodes form the inner
        block of the lexicographic lattice, so a slice of the field reaches
        them in interior order without an index array."""
        if not field.flags.c_contiguous:
            raise ValueError("nodal field must be C-contiguous to be written in place")
        block = field.reshape((self.ny + 1, self.nx + 1) + field.shape[1:])[1:-1, 1:-1]
        block[...] = np.moveaxis(values, -1, 0).reshape(block.shape)
        return field


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
        raise ValueError("cells must be square: hx=%g differs from hy=%g" % (hx, hy))
    return StructuredMesh(
        x0=float(x0), x1=float(x1), y0=float(y0), y1=float(y1),
        nx=int(nx), ny=int(ny), h=float(hx),
    )


def nested_injection(coarse: StructuredMesh, fine: StructuredMesh) -> sparse.csr_matrix:
    """P1 interpolation from a coarse mesh onto a nested fine mesh: the
    (Nf, Nc) sparse operator that evaluates a coarse nodal field at the
    fine nodes.

    Requires identical extents and fine cell counts that are an integer
    multiple of the coarse ones.  Every fine node lies in one triangle of
    its coarse cell, so each row holds three barycentric weights, in
    column order: (ll, lr, ur) in the lower triangle, (ll, ul, ur) in the
    upper one.
    """
    if (coarse.x0, coarse.x1, coarse.y0, coarse.y1) != (fine.x0, fine.x1, fine.y0, fine.y1):
        raise ValueError("meshes cover different rectangles")
    if fine.nx % coarse.nx != 0 or fine.ny % coarse.ny != 0:
        raise ValueError("fine mesh is not a refinement of the coarse mesh")
    m = fine.nx // coarse.nx
    if fine.ny // coarse.ny != m:
        raise ValueError("refinement ratio differs between axes")

    # the containing coarse cell and local lattice offsets, per axis
    ii, jj = np.arange(fine.nx + 1), np.arange(fine.ny + 1)
    ic = np.minimum(ii // m, coarse.nx - 1)
    jc = np.minimum(jj // m, coarse.ny - 1)
    iloc, jloc = ii - ic * m, (jj - jc * m)[:, None]
    xi, eta = iloc / m, jloc / m
    lower = iloc >= jloc

    s = coarse.nx + 1
    ll = (jc[:, None] * s + ic).astype(np.int32)
    indices = np.stack([ll, ll + np.where(lower, 1, s).astype(np.int32),
                        ll + np.int32(s + 1)], axis=-1)
    data = np.stack([1.0 - np.where(lower, xi, eta),
                     np.where(lower, xi - eta, eta - xi),
                     np.where(lower, eta, xi)], axis=-1)
    indptr = np.arange(0, 3 * fine.n_nodes + 1, 3, dtype=np.int32)
    return sparse.csr_matrix((data.ravel(), indices.ravel(), indptr),
                             shape=(fine.n_nodes, coarse.n_nodes))
