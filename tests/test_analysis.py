from dataclasses import replace

import numpy as np
import pytest

from qtflow.analysis import (
    convergence_orders,
    discrete_energy,
    h1_error_component,
    h1_error_field,
    l2_error_scalar,
    norm_forms,
    transfer_to_fine,
)
from qtflow.assembly import assemble_stiffness
from qtflow.mesh import build_mesh, nested_injection
from qtflow.model import Params
from qtflow.stepper import SimState, step

import oracles
from states import default_start, start

P6 = Params(L1=0.001, L2=0.0, L3=0.0, a=-0.2, b=1.0, c=1.0, A0=500.0, sigma=0.025)


class TestDiscreteEnergy:
    def test_zero_state_value(self):
        mesh = build_mesh(0, 2, 0, 2, 16, 16)
        state, _ = start(mesh, P6, 1e-3, lambda x, y: (0.0 * x, 0.0 * x))
        rec = discrete_energy(state, P6, 1e-3, mesh)
        assert rec.total == pytest.approx(2000.0, rel=1e-12)
        assert rec.kinetic == 0.0 and rec.elastic == 0.0 and rec.divpart == 0.0

    def test_parts_nonnegative_and_sum(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K = assemble_stiffness(mesh)
        rng = np.random.RandomState(3)
        Q = rng.uniform(-0.5, 0.5, size=(mesh.n_nodes, 2))
        Q[oracles.is_boundary(mesh)] = 0.0
        Qp = Q + 1e-3 * rng.uniform(-1, 1, size=Q.shape)
        Qp[oracles.is_boundary(mesh)] = 0.0
        r = np.sqrt(1000.0) + rng.uniform(-0.1, 0.1, size=mesh.n_nodes)
        pdiv = Params(L1=0.001, L2=0.0005, L3=0.0005, a=-0.2, b=1, c=1,
                      A0=500.0, sigma=0.025)
        q = oracles.gather_interior(mesh, Q)
        state = SimState(q=q, dq=q - oracles.gather_interior(mesh, Qp),
                         r=oracles.gather_interior(mesh, r), Kq=(K @ q.T).T,
                         r0=float(np.sqrt(1000.0)), n=1, t=1e-3)
        rec = discrete_energy(state, pdiv, 1e-3, mesh)
        for part in (rec.kinetic, rec.elastic, rec.divpart, rec.rpart):
            assert part >= 0.0
        assert rec.total == pytest.approx(
            rec.kinetic + rec.elastic + rec.divpart + rec.rpart, rel=1e-14)

    @pytest.mark.parametrize("extent, n", [((0.0, 2.0, 0.0, 2.0), 16),
                                           ((0.1, 1.4, 0.1, 1.4), 13)])
    def test_rpart_is_the_lumped_integral_of_the_nodal_r(self, extent, n):
        """E_r from the interior r and the boundary constant r0 against the
        lumped sum over the whole nodal r field, five steps into a run."""
        mesh = build_mesh(*extent, n, n)
        state, op = default_start(mesh, P6, 1e-3)
        for _ in range(5):
            state = step(state, P6, 1e-3, op)
        r = state.r_field(mesh)
        ref = 0.5 * float(oracles.lumped_weights_by_bincount(mesh) @ (r * r))
        rpart = discrete_energy(state, P6, 1e-3, mesh).rpart
        assert rpart == pytest.approx(ref, rel=4 * np.finfo(float).eps)

    def test_divpart_is_the_divergence_energy(self):
        """E_div, formed through K, against the element quadrature of
        |div Q|^2, cross terms included, three steps into an anisotropic
        run."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        p = replace(P6, L2=5e-4, L3=5e-4)
        dt = 1e-3
        state, op = default_start(mesh, p, dt)
        for _ in range(3):
            state = step(state, p, dt, op)
        Q = state.Q_field(mesh)
        ref = 0.5 * (p.L2 + p.L3) * oracles.div_form_quadrature(mesh, Q, Q)
        assert ref > 0.0
        assert discrete_energy(state, p, dt, mesh).divpart == pytest.approx(
            ref, rel=1e-12)

    def test_sigma_zero_drops_kinetic(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        p0 = Params(L1=0.001, L2=0, L3=0, a=-0.2, b=1, c=1, A0=500.0, sigma=0.0)
        state, _ = start(mesh, p0, 1e-3, lambda x, y: (0.0 * x, 0.0 * x))
        rec = discrete_energy(state, p0, 1e-3, mesh)
        assert rec.kinetic == 0.0 and rec.divpart == 0.0


class TestErrorNorms:
    def test_identical_fields(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        nf = norm_forms(mesh)
        rng = np.random.RandomState(5)
        Q = rng.standard_normal((mesh.n_nodes, 2))
        assert h1_error_component(Q, Q, nf, 0) == 0.0
        assert h1_error_field(Q, Q, nf) == 0.0
        r = rng.standard_normal(mesh.n_nodes)
        assert l2_error_scalar(r, r, nf) == 0.0

    def test_constant_difference(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        nf = norm_forms(mesh)
        A = np.zeros((mesh.n_nodes, 2))
        B = np.zeros((mesh.n_nodes, 2))
        B[:, 0] = 1.0  # gradient-free difference over area 4
        assert h1_error_component(A, B, nf, 0) == pytest.approx(2.0, rel=1e-13)
        assert h1_error_component(A, B, nf, 1) == 0.0
        c = 0.7
        assert l2_error_scalar(np.full(mesh.n_nodes, c),
                               np.zeros(mesh.n_nodes), nf) == pytest.approx(
            2.0 * c, rel=1e-13)

    def test_h1_against_quadrature_oracle(self):
        mesh = build_mesh(0, 2, 0, 2, 5, 5)
        nf = norm_forms(mesh)
        rng = np.random.RandomState(7)
        A = rng.standard_normal((mesh.n_nodes, 2))
        B = rng.standard_normal((mesh.n_nodes, 2))
        e = A[:, 0] - B[:, 0]
        l2sq = oracles.midpoint_quad_sq(mesh, e)
        gradsq = 0.0
        xy = oracles.nodes(mesh)
        for tri in oracles.triangles(mesh):
            pts = xy[tri]
            g = oracles.tri_grads(pts).T @ e[tri]
            gradsq += oracles.tri_area(pts) * float(g @ g)
        assert h1_error_component(A, B, nf, 0) == pytest.approx(
            np.sqrt(l2sq + gradsq), rel=1e-12)

    def test_field_norm_frobenius_factor(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        nf = norm_forms(mesh)
        rng = np.random.RandomState(9)
        A = np.zeros((mesh.n_nodes, 2))
        B = np.zeros((mesh.n_nodes, 2))
        B[:, 1] = rng.standard_normal(mesh.n_nodes)
        assert h1_error_field(A, B, nf) == pytest.approx(
            np.sqrt(2.0) * h1_error_component(A, B, nf, 1), rel=1e-13)

    def test_homogeneity(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        nf = norm_forms(mesh)
        rng = np.random.RandomState(11)
        A = rng.standard_normal((mesh.n_nodes, 2))
        Z = np.zeros_like(A)
        assert h1_error_field(2.0 * A, Z, nf) == pytest.approx(
            2.0 * h1_error_field(A, Z, nf), rel=1e-13)

    def test_metric_properties(self):
        mesh = build_mesh(0, 2, 0, 2, 5, 5)
        nf = norm_forms(mesh)
        rng = np.random.RandomState(13)
        A, B, C = (rng.standard_normal((mesh.n_nodes, 2)) for _ in range(3))
        dAB = h1_error_field(A, B, nf)
        dBA = h1_error_field(B, A, nf)
        assert dAB == pytest.approx(dBA, rel=1e-14)
        assert dAB <= h1_error_field(A, C, nf) + h1_error_field(C, B, nf) + 1e-12
        assert h1_error_field(A, A.copy(), nf) == 0.0

    def test_mesh_mismatch_rejected(self):
        mesh = build_mesh(0, 2, 0, 2, 5, 5)
        nf = norm_forms(mesh)
        other = build_mesh(0, 2, 0, 2, 6, 6)
        Q = np.zeros((other.n_nodes, 2))
        with pytest.raises(ValueError):
            h1_error_component(Q, Q, nf, 0)
        with pytest.raises(ValueError):
            l2_error_scalar(np.zeros(other.n_nodes), np.zeros(other.n_nodes), nf)


class TestTransfer:
    def test_linear_exact_and_identity_on_shared_nodes(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 12, 12)
        inj = nested_injection(coarse, fine)
        xc, yc = oracles.nodes(coarse).T
        f = 0.3 * xc - 0.9 * yc + 0.2
        out = transfer_to_fine(f, inj, fine)
        xf, yf = oracles.nodes(fine).T
        expect = 0.3 * xf - 0.9 * yf + 0.2
        assert np.max(np.abs(out - expect)) < 1e-13
        # restriction back to coincident nodes is the identity
        for ci, (x, y) in enumerate(zip(xc, yc)):
            fi = int(round(y / fine.h)) * (fine.nx + 1) + int(round(x / fine.h))
            assert out[fi] == pytest.approx(f[ci], abs=1e-13)

    def test_norm_preserved_under_exact_quadrature(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 8, 8)
        inj = nested_injection(coarse, fine)
        rng = np.random.RandomState(15)
        f = rng.standard_normal(coarse.n_nodes)
        out = transfer_to_fine(f, inj, fine)
        norm_coarse = np.sqrt(oracles.midpoint_quad_sq(coarse, f))
        norm_fine = np.sqrt(oracles.midpoint_quad_sq(fine, out))
        assert norm_fine == pytest.approx(norm_coarse, rel=1e-13)

    def test_tensor_field_transfer(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 8, 8)
        inj = nested_injection(coarse, fine)
        rng = np.random.RandomState(17)
        Q = rng.standard_normal((coarse.n_nodes, 2))
        out = transfer_to_fine(Q, inj, fine)
        assert out.shape == (fine.n_nodes, 2)


class TestConvergenceOrders:
    def test_table_style_ratios(self):
        assert convergence_orders([3.26, 1.01], 2.0)[0] == pytest.approx(1.69, abs=0.005)
        assert convergence_orders([41.50, 30.14], 2.0)[0] == pytest.approx(0.46, abs=0.005)
        assert convergence_orders([8.32e-4, 3.74e-4], 2.0)[0] == pytest.approx(1.15, abs=0.005)

    def test_exact_quartering(self):
        assert convergence_orders([4.0, 1.0], 2.0)[0] == pytest.approx(2.0, rel=1e-14)

    def test_equal_errors(self):
        assert convergence_orders([5.0, 5.0], 2.0)[0] == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            convergence_orders([1.0, 0.0], 2.0)
        with pytest.raises(ValueError):
            convergence_orders([1.0, 0.5], 1.0)
