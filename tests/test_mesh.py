import numpy as np
import pytest

from qtflow.analysis import transfer_to_fine
from qtflow.mesh import CELL, build_mesh, nested_injection

import oracles


class TestBuildMesh:
    def test_counts_and_partition_of_unity(self):
        mesh = build_mesh(0, 2, 0, 2, 16, 16)
        assert mesh.h == 0.125
        assert mesh.n_nodes == 289
        assert oracles.triangles(mesh).shape == (512, 3)
        assert abs(mesh.n_interior * mesh.gamma + mesh.boundary_weight - 4.0) < 1e-13 * 4.0

    def test_positive_uniform_areas(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        xy = oracles.nodes(mesh)
        areas = np.array([oracles.tri_area(xy[t]) for t in oracles.triangles(mesh)])
        assert np.all(areas > 0)
        assert np.allclose(areas, mesh.h ** 2 / 2.0, rtol=1e-13)

    def test_cells_are_translates_of_the_first(self):
        mesh = build_mesh(0, 3, 0, 2, 6, 4)
        # the lattice corners (row, col) of every triangle's vertices are
        # the first cell's, CELL, shifted to the cell's lower-left corner
        corners = np.stack(np.divmod(oracles.triangles(mesh), mesh.nx + 1), axis=-1)
        ll = np.stack(np.meshgrid(np.arange(mesh.ny), np.arange(mesh.nx), indexing="ij"),
                      axis=-1)
        assert np.array_equal(corners.reshape(mesh.ny, mesh.nx, 2, 3, 2),
                              ll[:, :, None, None] + CELL)

    def test_refinement_quarters_areas(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 8, 8)
        a_c = oracles.tri_area(oracles.nodes(coarse)[oracles.triangles(coarse)[0]])
        a_f = oracles.tri_area(oracles.nodes(fine)[oracles.triangles(fine)[0]])
        assert a_f == pytest.approx(a_c / 4.0, rel=1e-14)

    def test_boundary_flags(self):
        mesh = build_mesh(0, 2, 0, 2, 5, 5)
        x, y = oracles.nodes(mesh).T
        on_edge = (x == 0.0) | (x == 2.0) | (y == 0.0) | (y == 2.0)
        assert np.array_equal(oracles.is_boundary(mesh), on_edge)
        assert oracles.is_boundary(mesh).sum() == 2 * (5 + 5)
        assert mesh.n_interior == 16

    def test_interior_index_round_trip(self):
        mesh = build_mesh(0, 1, 0, 1, 3, 3)
        index = oracles.interior_index(mesh)
        for pos, node in enumerate(oracles.interior_nodes(mesh)):
            assert index[node] == pos
        assert np.all(index[oracles.is_boundary(mesh)] == -1)
        assert np.array_equal(oracles.interior_nodes(mesh),
                              np.flatnonzero(~oracles.is_boundary(mesh)))

    def test_interior_gather_and_scatter_follow_interior_order(self):
        """nodal() writes component-major interior vectors where the index
        gather of tests/oracles.py reads them, into a new C-contiguous
        field (..., N) that is zero on the boundary."""
        mesh = build_mesh(0, 3, 0, 2, 6, 4)
        idx = oracles.interior_nodes(mesh)
        rng = np.random.RandomState(1)
        Q = rng.standard_normal((mesh.n_nodes, 2))
        # component-major: row c holds component c at the interior nodes
        q = oracles.gather_interior(mesh, Q)
        assert q.shape == (2, mesh.n_interior) and q.flags.c_contiguous
        assert np.array_equal(q, Q[idx].T)
        field = mesh.nodal(q)
        assert np.array_equal(oracles.gather_interior(mesh, field.T), q)

        for shape in ((2,), (), (3, 2)):
            x = rng.standard_normal(shape + (mesh.n_interior,))
            field = mesh.nodal(x)
            assert field.shape == shape + (mesh.n_nodes,) and field.flags.c_contiguous
            assert np.array_equal(field, np.moveaxis(oracles.scatter_interior(mesh, x), 0, -1))
            assert np.all(field[..., oracles.is_boundary(mesh)] == 0.0)
        assert not np.shares_memory(mesh.nodal(x), x)

        # a single interior row
        thin = build_mesh(0, 4, 0, 2, 4, 2)
        field = thin.nodal(np.full((2, 3), 5.0))
        assert np.array_equal(np.flatnonzero(field[0] == 5.0), [6, 7, 8])
        assert np.array_equal(np.flatnonzero(field[1]), [6, 7, 8])

    # every triangle adds the same area / 3, whatever the coordinates, so
    # the weights are bit-equal off dyadic meshes too (measured deviation 0)
    @pytest.mark.parametrize("extent, nx, ny", [
        ((0.0, 2.0, 0.0, 2.0), n, n) for n in oracles.DYADIC_SIZES
    ] + list(oracles.NON_DYADIC_MESHES))
    def test_gamma_bitwise_against_bincount(self, extent, nx, ny):
        """gamma, a float, is every interior weight of the triangle-by-
        triangle accumulation bit for bit, and boundary_weight the sum of
        its boundary weights within a few ulp (the order of the sum
        differs)."""
        mesh = build_mesh(*extent, nx, ny)
        weights = oracles.lumped_weights_by_bincount(mesh)
        assert type(mesh.gamma) is float
        assert np.all(weights[oracles.interior_nodes(mesh)] == mesh.gamma)
        boundary = weights[oracles.is_boundary(mesh)].sum()
        assert abs(mesh.boundary_weight - boundary) <= 4 * np.spacing(boundary)

    def test_gamma_against_quadrature_oracle(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        gamma = oracles.hat_integrals(mesh)
        interior = ~oracles.is_boundary(mesh)
        assert np.allclose(gamma[interior], mesh.gamma, rtol=1e-13)
        assert mesh.boundary_weight == pytest.approx(gamma[~interior].sum(), rel=1e-13)

    def test_interior_and_corner_weights(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        h2 = mesh.h ** 2
        assert mesh.gamma == pytest.approx(h2, rel=1e-13)
        # two triangles meet the diagonal corners, one the other two, and
        # three every other boundary node: 2 (h^2/3 + h^2/6) + 28 h^2/2
        assert mesh.boundary_weight == pytest.approx(15.0 * h2, rel=1e-13)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_mesh(0, 2, 0, 2, 1, 4)
        with pytest.raises(ValueError):
            build_mesh(0, 2, 0, 1, 4, 4)  # non-square cells


NESTED_PAIRS = [
    ((0.0, 2.0, 0.0, 2.0), nc, nf) for nc in (4, 8, 16)
    for nf in oracles.DYADIC_SIZES if nf > nc
] + [
    (extent, nc, nf) for extent in ((0.0, 1.0, 0.0, 1.0), (0.1, 0.7, 0.1, 0.7))
    for nc, nf in ((4, 8), (4, 32), (8, 64))
]


class TestNestedInjection:
    def test_coincident_nodes(self):
        coarse = build_mesh(0, 2, 0, 2, 8, 8)
        fine = build_mesh(0, 2, 0, 2, 16, 16)
        inj = nested_injection(coarse, fine)
        for ci, (x, y) in enumerate(oracles.nodes(coarse)):
            fi = int(round((y / fine.h))) * (fine.nx + 1) + int(round(x / fine.h))
            row = inj.getrow(fi).toarray().ravel()
            assert row[ci] == pytest.approx(1.0, abs=1e-15)
            assert abs(row.sum() - 1.0) < 1e-14

    def test_edge_midpoint_weights(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 8, 8)
        inj = nested_injection(coarse, fine)
        # fine node at the midpoint of a horizontal coarse edge
        fi = 0 * (fine.nx + 1) + 1  # (0.25, 0)
        row = inj.getrow(fi).toarray().ravel()
        assert row[0] == 0.5 and row[1] == 0.5  # coarse nodes (0, 0), (0.5, 0)
        assert row.sum() == 1.0

    def test_barycentric_solve_oracle(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 12, 12)
        inj = nested_injection(coarse, fine)
        rng = np.random.RandomState(1)
        xy = oracles.nodes(fine)
        for fi in rng.choice(fine.n_nodes, size=40, replace=False):
            tri, bary = oracles.containing_triangle(coarse, xy[fi])
            expect = np.zeros(coarse.n_nodes)
            expect[tri] = bary
            row = inj.getrow(fi).toarray().ravel()
            assert np.allclose(row, expect, atol=1e-12)
            assert np.all(row > -1e-12)
            assert abs(row.sum() - 1.0) < 1e-13

    def test_reproduces_linears_exactly(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 16, 16)
        inj = nested_injection(coarse, fine)
        lin = lambda pts: 0.75 * pts[:, 0] - 1.25 * pts[:, 1] + 0.5
        transferred = inj @ lin(oracles.nodes(coarse))
        assert np.max(np.abs(transferred - lin(oracles.nodes(fine)))) < 1e-13

    @pytest.mark.parametrize("extent, nc, nf", NESTED_PAIRS)
    def test_bitwise_against_coo_build(self, extent, nc, nf):
        coarse, fine = build_mesh(*extent, nc, nc), build_mesh(*extent, nf, nf)
        inj = nested_injection(coarse, fine)
        ref = oracles.nested_injection_by_coo(coarse, fine)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(inj, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("extent, nc, nf", NESTED_PAIRS)
    def test_transfer_bitwise_against_interleaved_product(self, extent, nc, nf):
        """transfer_to_fine's one product per row of a (..., Nc) field
        gives the bits of one multi-vector product with the interleaved
        (Nc, ...) field, as the studies formed it."""
        coarse, fine = build_mesh(*extent, nc, nc), build_mesh(*extent, nf, nf)
        inj = nested_injection(coarse, fine)
        rng = np.random.RandomState(nc * nf)
        for shape in ((2,), ()):
            F = rng.standard_normal(shape + (coarse.n_nodes,))
            out = transfer_to_fine(F, inj, fine)
            assert out.shape == shape + (fine.n_nodes,) and out.flags.c_contiguous
            assert np.array_equal(out, np.moveaxis(oracles.interleaved_transfer(F, inj), 0, -1))

    def test_rejects_non_nested(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        with pytest.raises(ValueError):
            nested_injection(coarse, build_mesh(0, 2, 0, 2, 6, 6))
        with pytest.raises(ValueError):
            nested_injection(coarse, build_mesh(0, 1, 0, 1, 8, 8))
