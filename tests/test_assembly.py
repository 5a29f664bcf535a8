import numpy as np
import pytest

from qtflow.assembly import (
    alpha_pairing,
    assemble_div_form,
    assemble_stiffness,
    consistent_mass,
    lumped_mass,
    scalar_stiffness,
)
from qtflow.mesh import build_mesh

import oracles


def random_zero_trace_field(mesh, rng, scale=1.0):
    W = rng.uniform(-scale, scale, size=(mesh.n_nodes, 2))
    W[mesh.is_boundary] = 0.0
    return W


class TestStiffness:
    def test_five_point_stencil_at_every_interior_node(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K = assemble_stiffness(mesh)
        stride = mesh.nx + 1
        for node in mesh.interior_nodes:
            u = mesh.interior_index[node]
            row = K.getrow(2 * u).toarray().ravel()
            assert row[2 * u] == pytest.approx(4.0, abs=1e-13)
            for neighbor in (node - 1, node + 1, node - stride, node + stride):
                v = mesh.interior_index[neighbor]
                if v >= 0:
                    assert row[2 * v] == pytest.approx(-1.0, abs=1e-13)
                    assert row[2 * v + 1] == 0.0  # components never couple
            for diag in (node + stride + 1, node - stride - 1):
                v = mesh.interior_index[diag]
                if v >= 0:
                    assert abs(row[2 * v]) < 1e-13

    def test_element_assembly_oracle(self):
        mesh = build_mesh(0, 1, 0, 1, 4, 4)
        K = scalar_stiffness(mesh).toarray()
        ref = np.zeros_like(K)
        for tri in mesh.triangles:
            ke = oracles.element_stiffness(mesh.nodes[tri])
            for a in range(3):
                for b in range(3):
                    ref[tri[a], tri[b]] += ke[a, b]
        assert np.max(np.abs(K - ref)) < 1e-13

    def test_constant_vector_in_kernel_away_from_boundary(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K = assemble_stiffness(mesh)
        ones = np.ones(2 * mesh.n_interior)
        out = (K @ ones).reshape(-1, 2)
        coords = mesh.nodes[mesh.interior_nodes]
        near_boundary = (
            (coords[:, 0] <= mesh.h) | (coords[:, 0] >= 2 - mesh.h)
            | (coords[:, 1] <= mesh.h) | (coords[:, 1] >= 2 - mesh.h)
        )
        assert np.max(np.abs(out[~near_boundary])) < 1e-13
        assert np.max(np.abs(out[near_boundary])) > 0.5

    def test_symmetry_and_psd(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        K = assemble_stiffness(mesh)
        assert abs(K - K.T).max() < 1e-13
        rng = np.random.RandomState(2)
        for _ in range(100):
            x = rng.standard_normal(K.shape[0])
            assert x @ (K @ x) >= -1e-12 * (x @ x)


def test_assembled_forms_store_no_zeros():
    mesh = build_mesh(0, 2, 0, 2, 8, 8)
    for A in (scalar_stiffness(mesh), assemble_stiffness(mesh), assemble_div_form(mesh)):
        assert A.nnz == A.count_nonzero()


class TestDivForm:
    def test_symmetry_and_psd(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        D = assemble_div_form(mesh)
        assert abs(D - D.T).max() < 1e-13
        rng = np.random.RandomState(4)
        for _ in range(100):
            x = rng.standard_normal(D.shape[0])
            assert x @ (D @ x) >= -1e-12 * (x @ x)

    def test_constant_field_is_divergence_free(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        W = np.tile([0.8, -0.3], (mesh.n_nodes, 1))
        assert abs(oracles.div_form_quadrature(mesh, W, W)) < 1e-13

    def test_linear_field_exact_integral(self):
        # q1 = x, q2 = 0 gives div W = (1, 0) and the integral equals |domain|
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        W = np.column_stack([mesh.nodes[:, 0], np.zeros(mesh.n_nodes)])
        assert oracles.div_form_quadrature(mesh, W, W) == pytest.approx(4.0, rel=1e-13)

    def test_matches_quadrature_oracle(self):
        rng = np.random.RandomState(8)
        for n in (4, 6):
            mesh = build_mesh(0, 2, 0, 2, n, n)
            D = assemble_div_form(mesh)
            idx = mesh.interior_nodes
            for _ in range(10):
                W1 = random_zero_trace_field(mesh, rng)
                W2 = random_zero_trace_field(mesh, rng)
                x = W1[idx].reshape(-1)
                y = W2[idx].reshape(-1)
                val = float(x @ (D @ y))
                ref = oracles.div_form_quadrature(mesh, W1, W2)
                assert val == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestAlphaPairing:
    def test_zero_fields(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        Z = np.zeros((mesh.n_nodes, 2))
        assert alpha_pairing(mesh, Z, Z) == 0.0

    def test_equals_minus_two_div_form(self):
        rng = np.random.RandomState(12)
        for n in (4, 8, 16):  # h = 0.5, 0.25, 0.125
            mesh = build_mesh(0, 2, 0, 2, n, n)
            D = assemble_div_form(mesh)
            idx = mesh.interior_nodes
            for _ in range(20):
                W1 = random_zero_trace_field(mesh, rng)
                W2 = random_zero_trace_field(mesh, rng)
                x = W1[idx].reshape(-1)
                y = W2[idx].reshape(-1)
                div_val = float(x @ (D @ y))
                pair = alpha_pairing(mesh, W1, W2)
                assert pair + 2.0 * div_val == pytest.approx(
                    0.0, abs=1e-12 * max(1.0, abs(pair)))

    def test_nonpositive_on_diagonal(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        rng = np.random.RandomState(14)
        for _ in range(20):
            W = random_zero_trace_field(mesh, rng)
            assert alpha_pairing(mesh, W, W) <= 1e-12


class TestLumpedMass:
    def test_weights_are_twice_gamma(self):
        mesh = build_mesh(0, 2, 0, 2, 16, 16)
        w = lumped_mass(mesh)
        assert w.shape == (2 * mesh.n_interior,)
        assert np.allclose(w, np.repeat(2.0 * mesh.gamma[mesh.interior_nodes], 2))

    def test_single_node_norm(self):
        mesh = build_mesh(0, 2, 0, 2, 16, 16)
        w = lumped_mass(mesh)
        x = np.zeros(2 * mesh.n_interior)
        x[2 * 100] = 1.0  # q1 = 1 at one interior node
        assert w @ (x * x) == pytest.approx(2.0 * mesh.h ** 2, rel=1e-13)
        assert w @ np.zeros_like(x) == 0.0

    def test_bookkeeping_sum(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        w = lumped_mass(mesh)
        assert w.sum() / 2.0 == pytest.approx(
            2.0 * mesh.gamma[mesh.interior_nodes].sum(), rel=1e-14)


class TestConsistentMass:
    def test_integrates_constants_exactly(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        Mc = consistent_mass(mesh)
        ones = np.ones(mesh.n_nodes)
        assert ones @ (Mc @ ones) == pytest.approx(4.0, rel=1e-13)

    def test_matches_midpoint_quadrature(self):
        mesh = build_mesh(0, 2, 0, 2, 5, 5)
        Mc = consistent_mass(mesh)
        rng = np.random.RandomState(21)
        for _ in range(10):
            f = rng.standard_normal(mesh.n_nodes)
            assert f @ (Mc @ f) == pytest.approx(
                oracles.midpoint_quad_sq(mesh, f), rel=1e-12)
