from dataclasses import replace

import numpy as np
import pytest

from qtflow.analysis import (
    NormForms,
    discrete_energy,
    h1_error_component,
    h1_error_field,
    l2_error_scalar,
    norm_forms,
    transfer_to_fine,
)
from qtflow.assembly import assemble_stiffness
from qtflow.experiments import default_initial_q
from qtflow.mesh import build_mesh, nested_injection
from qtflow.model import Params
from qtflow.stepper import SimState, step

import oracles
from states import default_start, kept, start

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
                         r=oracles.gather_interior(mesh, r), Kq=(K @ q.T).T, n=1)
        rec = discrete_energy(state, pdiv, 1e-3, mesh)
        for part in (rec.kinetic, rec.elastic, rec.divpart, rec.rpart):
            assert part >= 0.0
        assert rec.total == pytest.approx(
            rec.kinetic + rec.elastic + rec.divpart + rec.rpart, rel=1e-14)

    @pytest.mark.parametrize("extent, n", [((0.0, 2.0, 0.0, 2.0), 16),
                                           ((0.1, 1.4, 0.1, 1.4), 13)])
    def test_rpart_is_the_lumped_integral_of_the_nodal_r(self, extent, n):
        """E_r from the interior r and the boundary constant sqrt(2 A0)
        against the lumped sum over the whole nodal r field, advanced at
        every node, five steps into a run."""
        mesh = build_mesh(*extent, n, n)
        state, op = default_start(mesh, P6, 1e-3)
        states = [kept(state)]
        for _ in range(5):
            state = step(state, P6, 1e-3, op)
            states.append(kept(state))
        Q0 = oracles.nodal_interpolate_qfield(mesh, default_initial_q)
        r = oracles.nodal_r_fields(mesh, P6, Q0, states)[-1]
        state = states[-1]
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
        Q = oracles.scatter_interior(mesh, state.q)
        ref = 0.5 * (p.L2 + p.L3) * oracles.div_form_quadrature(mesh, Q, Q)
        assert ref > 0.0
        assert discrete_energy(state, p, dt, mesh).divpart == pytest.approx(
            ref, rel=1e-12)

    def test_rejects_a_single_level_state_at_positive_sigma(self):
        """A state without a previous level has no rate, so its kinetic
        energy is undefined when sigma > 0."""
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        p0 = replace(P6, sigma=0.0)
        state, _ = start(mesh, p0, 1e-3, default_initial_q)
        assert state.dq is None
        with pytest.raises(ValueError, match="no previous level but sigma > 0"):
            discrete_energy(state, P6, 1e-3, mesh)

    def test_sigma_zero_drops_kinetic(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        p0 = Params(L1=0.001, L2=0, L3=0, a=-0.2, b=1, c=1, A0=500.0, sigma=0.0)
        state, _ = start(mesh, p0, 1e-3, lambda x, y: (0.0 * x, 0.0 * x))
        rec = discrete_energy(state, p0, 1e-3, mesh)
        assert rec.kinetic == 0.0 and rec.divpart == 0.0


#: Meshes of the norm comparisons: dyadic, non-dyadic, and one interior
#: node wide and tall (2 x 8 and 8 x 2 cells).
NORM_MESHES = ([((0.0, 2.0, 0.0, 2.0), n, n) for n in (4, 8, 16, 32)]
               + list(oracles.NON_DYADIC_MESHES)
               + [((0.0, 0.5, 0.0, 2.0), 2, 8), ((0.0, 2.0, 0.0, 0.5), 8, 2)])


class TestErrorNorms:
    """The norms take interior vectors (2, m) or (m,) of fields that vanish
    on the boundary."""

    @pytest.mark.parametrize("extent, nx, ny", NORM_MESHES)
    def test_interior_norms_equal_the_all_node_norms(self, extent, nx, ny):
        """Each norm against the same norm of the nodal field, zero on the
        boundary, with the all-node element forms: within 1e-15 relative
        (measured at most 3.7e-16 over these meshes and draws)."""
        mesh = build_mesh(*extent, nx, ny)
        nf = norm_forms(mesh)
        rng = np.random.RandomState(nx * ny)
        mass = oracles.consistent_mass_by_elements(mesh)
        for _ in range(20):
            A, B = rng.standard_normal((2, 2, mesh.n_interior))
            E = oracles.nodal(mesh, A - B)
            h1 = [np.sqrt(oracles.all_node_h1_sq(mesh, E[c])) for c in (0, 1)]
            for c in (0, 1):
                assert h1_error_component(A, B, nf, c) == pytest.approx(h1[c], rel=1e-15)
            assert h1_error_field(A, B, nf) == pytest.approx(
                np.sqrt(2.0 * (h1[0] ** 2 + h1[1] ** 2)), rel=1e-15)
            assert l2_error_scalar(A[1], B[1], nf) == pytest.approx(
                np.sqrt(E[1] @ (mass @ E[1])), rel=1e-15)

    def test_identical_fields(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        nf = norm_forms(mesh)
        rng = np.random.RandomState(5)
        Q = rng.standard_normal((2, mesh.n_interior))
        assert h1_error_component(Q, Q, nf, 0) == 0.0
        assert h1_error_field(Q, Q, nf) == 0.0
        r = rng.standard_normal(mesh.n_interior)
        assert l2_error_scalar(r, r, nf) == 0.0

    def test_single_node_difference(self):
        """A difference of one at one interior node is a hat function: its
        squared L2 norm is the triangle area h^2 / 2 and its squared
        gradient norm 4."""
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        nf = norm_forms(mesh)
        A = np.zeros((2, mesh.n_interior))
        B = np.zeros((2, mesh.n_interior))
        B[0, 7] = 1.0
        assert h1_error_component(A, B, nf, 0) == pytest.approx(
            np.sqrt(4.0 + 0.5 * mesh.h ** 2), rel=1e-13)
        assert h1_error_component(A, B, nf, 1) == 0.0
        assert l2_error_scalar(A[0], B[0], nf) == pytest.approx(
            np.sqrt(0.5) * mesh.h, rel=1e-13)

    def test_h1_against_quadrature_oracle(self):
        mesh = build_mesh(0, 2, 0, 2, 5, 5)
        nf = norm_forms(mesh)
        rng = np.random.RandomState(7)
        A = rng.standard_normal((2, mesh.n_interior))
        B = rng.standard_normal((2, mesh.n_interior))
        e = oracles.nodal(mesh, A[0] - B[0])
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
        A = np.zeros((2, mesh.n_interior))
        B = np.zeros((2, mesh.n_interior))
        B[1] = rng.standard_normal(mesh.n_interior)
        assert h1_error_field(A, B, nf) == pytest.approx(
            np.sqrt(2.0) * h1_error_component(A, B, nf, 1), rel=1e-13)

    def test_homogeneity(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        nf = norm_forms(mesh)
        rng = np.random.RandomState(11)
        A = rng.standard_normal((2, mesh.n_interior))
        Z = np.zeros_like(A)
        assert h1_error_field(2.0 * A, Z, nf) == pytest.approx(
            2.0 * h1_error_field(A, Z, nf), rel=1e-13)

    def test_metric_properties(self):
        mesh = build_mesh(0, 2, 0, 2, 5, 5)
        nf = norm_forms(mesh)
        rng = np.random.RandomState(13)
        A, B, C = (rng.standard_normal((2, mesh.n_interior)) for _ in range(3))
        dAB = h1_error_field(A, B, nf)
        dBA = h1_error_field(B, A, nf)
        assert dAB == pytest.approx(dBA, rel=1e-14)
        assert dAB <= h1_error_field(A, C, nf) + h1_error_field(C, B, nf) + 1e-12
        assert h1_error_field(A, A.copy(), nf) == 0.0

    def test_mesh_mismatch_rejected(self):
        """Fields of another mesh, nodal fields (..., N) and interleaved
        ones (m, 2) are rejected."""
        mesh = build_mesh(0, 2, 0, 2, 5, 5)
        nf = norm_forms(mesh)
        other = build_mesh(0, 2, 0, 2, 6, 6)
        Q = np.zeros((2, other.n_interior))
        with pytest.raises(ValueError):
            h1_error_component(Q, Q, nf, 0)
        nodal = np.zeros((2, mesh.n_nodes))
        with pytest.raises(ValueError):
            h1_error_field(nodal, nodal, nf)
        interleaved = np.zeros((mesh.n_interior, 2))  # components on the trailing axis
        with pytest.raises(ValueError):
            h1_error_field(interleaved, interleaved, nf)
        with pytest.raises(ValueError):
            l2_error_scalar(np.zeros(other.n_interior), np.zeros(other.n_interior), nf)


@pytest.mark.parametrize("extent, nx, ny", [
    ((0.0, 2.0, 0.0, 2.0), 16, 16),
    ((0.0, 2.0, 0.0, 2.0), 128, 128),
    ((0.0, 2.0, 0.0, 2.0), 256, 256),
    ((0.1, 1.4, -0.3, 1.0), 13, 13),
    ((0.0, 2.0, 0.0, 9.0), 2, 9),
    ((0.0, 9.0, 0.0, 2.0), 9, 2),
], ids=["16", "128", "256", "non_dyadic", "thin_2x9", "thin_9x2"])
def test_dia_norm_forms_keep_the_csr_bits(extent, nx, ny):
    """The norm forms by diagonals give the bits of their tocsr() forms,
    compared through int64 views: each form's product, and each norm."""
    mesh = build_mesh(*extent, nx, ny)
    forms = norm_forms(mesh)
    csr = NormForms(*(form.tocsr() for form in forms))
    bits = lambda a: np.asarray(a, dtype=float).view(np.int64)
    rng = np.random.RandomState(nx * ny)
    A, B = rng.standard_normal((2, 2, mesh.n_interior))
    A[0, rng.uniform(size=mesh.n_interior) < 0.2] = 0.0
    A[1, rng.uniform(size=mesh.n_interior) < 0.2] = -0.0
    for x in (A[0], A[1], B[0]):
        for dia, ref in zip(forms, csr):
            assert np.array_equal(bits(dia @ x), bits(ref @ x))
    for c in (0, 1):
        assert bits(h1_error_component(A, B, forms, c)) == bits(
            h1_error_component(A, B, csr, c))
    assert bits(l2_error_scalar(A[1], B[1], forms)) == bits(l2_error_scalar(A[1], B[1], csr))
    assert bits(h1_error_field(A, B, forms)) == bits(h1_error_field(A, B, csr))


class TestTransfer:
    def test_linear_exact_and_identity_on_shared_nodes(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 12, 12)
        inj = nested_injection(coarse, fine)
        xc, yc = oracles.nodes(coarse)[oracles.interior_nodes(coarse)].T
        f = 0.3 * xc - 0.9 * yc + 0.2
        out = transfer_to_fine(f, inj)
        xf, yf = oracles.nodes(fine)[oracles.interior_nodes(fine)].T
        # the restriction back to coincident nodes is the identity
        index = oracles.interior_index(fine)
        for ci, (x, y) in enumerate(zip(xc, yc)):
            fi = index[int(round(y / fine.h)) * (fine.nx + 1) + int(round(x / fine.h))]
            assert out[fi] == f[ci]
        # the linear function comes out inside the coarse interior nodes' hull
        inside = (np.minimum(xf, yf) >= 0.5) & (np.maximum(xf, yf) <= 1.5)
        assert np.max(np.abs(out - (0.3 * xf - 0.9 * yf + 0.2))[inside]) < 1e-13

    def test_norm_preserved_under_exact_quadrature(self):
        """The fine field is the coarse P1 function, zero on the boundary,
        ramp beside it included: its L2 norm is the coarse one."""
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 8, 8)
        inj = nested_injection(coarse, fine)
        rng = np.random.RandomState(15)
        f = rng.standard_normal(coarse.n_interior)
        out = transfer_to_fine(f, inj)
        norm_coarse = np.sqrt(oracles.midpoint_quad_sq(coarse, oracles.nodal(coarse, f)))
        norm_fine = np.sqrt(oracles.midpoint_quad_sq(fine, oracles.nodal(fine, out)))
        assert norm_fine == pytest.approx(norm_coarse, rel=1e-13)

    def test_tensor_field_transfer(self):
        coarse = build_mesh(0, 2, 0, 2, 4, 4)
        fine = build_mesh(0, 2, 0, 2, 8, 8)
        inj = nested_injection(coarse, fine)
        rng = np.random.RandomState(17)
        Q = rng.standard_normal((2, coarse.n_interior))
        out = transfer_to_fine(Q, inj)
        assert out.shape == (2, fine.n_interior) and out.flags.c_contiguous
        for c in range(2):
            assert np.array_equal(out[c], transfer_to_fine(Q[c], inj))

