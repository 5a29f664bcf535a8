import numpy as np
import pytest

from qtflow.mesh import build_mesh, nested_injection

import oracles


class TestBuildMesh:
    def test_counts_and_partition_of_unity(self):
        mesh = build_mesh(0, 2, 0, 2, 16, 16)
        assert mesh.h == 0.125
        assert mesh.n_nodes == 289
        assert mesh.triangles.shape == (512, 3)
        assert abs(mesh.gamma.sum() - 4.0) < 1e-13 * 4.0

    def test_positive_uniform_areas(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        areas = np.array([oracles.tri_area(mesh.nodes[t]) for t in mesh.triangles])
        assert np.all(areas > 0)
        assert np.allclose(areas, mesh.h ** 2 / 2.0, rtol=1e-13)

    def test_refinement_quarters_areas(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 8, 8)
        a_c = oracles.tri_area(coarse.nodes[coarse.triangles[0]])
        a_f = oracles.tri_area(fine.nodes[fine.triangles[0]])
        assert a_f == pytest.approx(a_c / 4.0, rel=1e-14)

    def test_boundary_flags(self):
        mesh = build_mesh(0, 2, 0, 2, 5, 5)
        on_edge = (
            (mesh.nodes[:, 0] == 0.0) | (mesh.nodes[:, 0] == 2.0)
            | (mesh.nodes[:, 1] == 0.0) | (mesh.nodes[:, 1] == 2.0)
        )
        assert np.array_equal(mesh.is_boundary, on_edge)
        assert mesh.is_boundary.sum() == 2 * (5 + 5)
        assert mesh.n_interior == 16

    def test_interior_index_round_trip(self):
        mesh = build_mesh(0, 1, 0, 1, 3, 3)
        for pos, node in enumerate(mesh.interior_nodes):
            assert mesh.interior_index[node] == pos
        assert np.all(mesh.interior_index[mesh.is_boundary] == -1)

    def test_interior_gather_and_scatter_follow_interior_order(self):
        mesh = build_mesh(0, 3, 0, 2, 6, 4)
        idx = mesh.interior_nodes
        rng = np.random.RandomState(1)
        Q = rng.standard_normal((mesh.n_nodes, 2))
        r = rng.standard_normal(mesh.n_nodes)
        assert np.array_equal(mesh.gather_interior(Q), Q[idx].reshape(-1))
        assert np.array_equal(mesh.gather_interior(r), r[idx])

        x = rng.standard_normal(2 * mesh.n_interior)
        out = np.zeros_like(Q)
        mesh.scatter_interior(out, x)
        expect = np.zeros_like(Q)
        expect[idx] = x.reshape(-1, 2)
        assert np.array_equal(out, expect)
        with pytest.raises(ValueError):
            mesh.scatter_interior(np.asfortranarray(out), x)

        # a single interior row is contiguous; the gather still copies
        thin = build_mesh(0, 4, 0, 2, 4, 2)
        field = np.ones((thin.n_nodes, 2))
        thin.gather_interior(field)[:] = 5.0
        assert np.all(field == 1.0)

    def test_gamma_against_quadrature_oracle(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        gamma = oracles.hat_integrals(mesh)
        assert np.allclose(mesh.gamma, gamma, rtol=1e-13)

    def test_interior_and_corner_weights(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        h2 = mesh.h ** 2
        interior = ~mesh.is_boundary
        assert np.allclose(mesh.gamma[interior], h2, rtol=1e-13)
        # corners: two triangles meet the diagonal corners, one the others
        corner_vals = sorted(
            mesh.gamma[i] for i, (x, y) in enumerate(mesh.nodes)
            if (x in (0.0, 2.0)) and (y in (0.0, 2.0))
        )
        assert np.allclose(corner_vals, [h2 / 6, h2 / 6, h2 / 3, h2 / 3], rtol=1e-13)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_mesh(0, 2, 0, 2, 1, 4)
        with pytest.raises(ValueError):
            build_mesh(0, 2, 0, 1, 4, 4)  # non-square cells


class TestNestedInjection:
    def test_coincident_nodes(self):
        coarse = build_mesh(0, 2, 0, 2, 8, 8)
        fine = build_mesh(0, 2, 0, 2, 16, 16)
        inj = nested_injection(coarse, fine)
        for ci in range(coarse.n_nodes):
            x, y = coarse.nodes[ci]
            fi = int(round((y / fine.h))) * (fine.nx + 1) + int(round(x / fine.h))
            row = inj.matrix.getrow(fi).toarray().ravel()
            assert row[ci] == pytest.approx(1.0, abs=1e-15)
            assert abs(row.sum() - 1.0) < 1e-14

    def test_edge_midpoint_weights(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 8, 8)
        inj = nested_injection(coarse, fine)
        # fine node at the midpoint of a horizontal coarse edge
        fi = 0 * (fine.nx + 1) + 1  # (0.25, 0)
        w = np.sort(inj.bary[fi])
        assert np.allclose(w, [0.0, 0.5, 0.5], atol=1e-15)

    def test_barycentric_solve_oracle(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 12, 12)
        inj = nested_injection(coarse, fine)
        rng = np.random.RandomState(1)
        for fi in rng.choice(fine.n_nodes, size=40, replace=False):
            tri = coarse.triangles[inj.coarse_triangle[fi]]
            pts = coarse.nodes[tri]
            A = np.column_stack([np.ones(3), pts]).T
            rhs = np.array([1.0, fine.nodes[fi, 0], fine.nodes[fi, 1]])
            bary = np.linalg.solve(A, rhs)
            assert np.allclose(inj.bary[fi], bary, atol=1e-12)
            assert np.all(inj.bary[fi] > -1e-12)
            assert abs(inj.bary[fi].sum() - 1.0) < 1e-13

    def test_reproduces_linears_exactly(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 16, 16)
        inj = nested_injection(coarse, fine)
        lin = lambda pts: 0.75 * pts[:, 0] - 1.25 * pts[:, 1] + 0.5
        transferred = inj.matrix @ lin(coarse.nodes)
        assert np.max(np.abs(transferred - lin(fine.nodes))) < 1e-13

    def test_rejects_non_nested(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        with pytest.raises(ValueError):
            nested_injection(coarse, build_mesh(0, 2, 0, 2, 6, 6))
        with pytest.raises(ValueError):
            nested_injection(coarse, build_mesh(0, 1, 0, 1, 8, 8))
