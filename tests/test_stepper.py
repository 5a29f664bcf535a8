import numpy as np
import pytest
from dataclasses import replace

from qtflow.analysis import discrete_energy, h1_error_field, h_norm_sq
from qtflow.assembly import assemble_div_form, assemble_stiffness, lumped_mass
from qtflow.experiments import default_initial_q
from qtflow.mesh import build_mesh
from qtflow.model import Params, STTensor2, aux_P, aux_r
from qtflow.stepper import (
    SimState,
    build_default_Qt0,
    initialize,
    interpolate_qfield,
    nodal_r,
    step,
    step_operator,
)

import oracles

P6 = Params(L1=0.001, L2=0.0, L3=0.0, a=-0.2, b=1.0, c=1.0, A0=500.0, sigma=0.025)
P6_DIV = replace(P6, L2=0.0005, L3=0.0005)
P6_PAR = replace(P6, sigma=0.0)


def forms(mesh):
    return assemble_stiffness(mesh), assemble_div_form(mesh), lumped_mass(mesh)


def advance(state, p, dt, mesh, K, D, w, nsteps, cg_tol=1e-12):
    for _ in range(nsteps):
        state = step(state, p, dt, mesh, K, D, w, cg_tol=cg_tol)
    return state


class TestInitialize:
    def test_zero_data(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        state = initialize(mesh, P6, 1e-3, lambda x, y: (0.0 * x, 0.0 * y))
        assert np.all(state.Qcurr == 0.0) and np.all(state.Qprev == 0.0)
        assert np.allclose(state.r, np.sqrt(1000.0), rtol=1e-15)
        assert state.n == 1 and state.t == 1e-3

    def test_default_profile_vanishes_on_boundary(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        Q0 = interpolate_qfield(mesh, default_initial_q)
        # the director data vanishes on the boundary before any clamping
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        n1 = x * (2 - x) * y * (2 - y)
        n2 = np.sin(np.pi * x) * np.sin(0.5 * np.pi * y)
        assert np.max(np.abs(n1[mesh.is_boundary])) < 1e-13
        assert np.max(np.abs(n2[mesh.is_boundary])) < 1e-12
        assert np.allclose(Q0[:, 0], 0.5 * (n1 ** 2 - n2 ** 2), atol=1e-12)
        assert np.allclose(Q0[:, 1], n1 * n2, atol=1e-12)

    def test_parabolic_one_level_start(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        state = initialize(mesh, P6_PAR, 1e-3, default_initial_q)
        assert state.Qprev is None
        assert state.n == 0 and state.t == 0.0

    def test_r_unchanged_when_qt0_zero(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        state = initialize(mesh, P6, 1e-3, default_initial_q, Qt0=None)
        Q0 = interpolate_qfield(mesh, default_initial_q)
        assert np.array_equal(state.r, nodal_r(mesh, P6, Q0))

    def test_r_first_level_update(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        dt = 1e-3
        qt0 = lambda x, y: (np.full_like(x, 0.3), np.full_like(x, -0.1))
        state = initialize(mesh, P6, dt, default_initial_q, Qt0=qt0)
        Q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(mesh, P6, Q0)
        P0 = aux_P(STTensor2(Q0[:, 0], Q0[:, 1]), P6)
        dq = state.Qcurr - Q0
        expect = r0 + 2.0 * (P0.q1 * dq[:, 0] + P0.q2 * dq[:, 1])
        assert np.allclose(state.r, expect, rtol=1e-14)


class TestDefaultQt0:
    def test_zero_data_gives_zero(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        Q0 = np.zeros((mesh.n_nodes, 2))
        r0 = nodal_r(mesh, P6, Q0)
        assert np.all(build_default_Qt0(mesh, P6, Q0, r0) == 0.0)

    def test_discrete_eigenvector(self):
        # with the bulk part disabled, Qt0 = -L1 * lambda * Q0 for an
        # eigenvector of the lumped-inverse stiffness
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        K = assemble_stiffness(mesh)
        gdof = np.repeat(mesh.gamma[mesh.interior_nodes], 2)

        rng = np.random.RandomState(5)
        v = rng.standard_normal(2 * mesh.n_interior)
        lam = 0.0
        for _ in range(600):  # power iteration on the generalized problem
            v = (K @ v) / gdof
            lam = np.linalg.norm(v)
            v /= lam

        Q0 = np.zeros((mesh.n_nodes, 2))
        Q0[mesh.interior_nodes] = v.reshape(-1, 2)
        qt0 = build_default_Qt0(mesh, P6, Q0, np.zeros(mesh.n_nodes))
        expect = -P6.L1 * lam * Q0
        assert np.max(np.abs(qt0 - expect)) < 1e-6 * lam * P6.L1

    def test_caller_stiffness_gives_same_result(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        Q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(mesh, P6, Q0)
        K = assemble_stiffness(mesh)
        assert np.array_equal(build_default_Qt0(mesh, P6, Q0, r0, K),
                              build_default_Qt0(mesh, P6, Q0, r0))

    def test_energy_drop_after_one_step(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        Q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(mesh, P6, Q0)
        qt0 = build_default_Qt0(mesh, P6, Q0, r0)
        dt = 1e-3
        state = initialize(mesh, P6, dt, Q0, qt0)
        e1 = discrete_energy(state, P6, dt, mesh, K, D, w).total
        state = step(state, P6, dt, mesh, K, D, w, cg_tol=1e-12)
        e2 = discrete_energy(state, P6, dt, mesh, K, D, w).total
        assert e2 <= e1


class TestStep:
    def test_equilibrium_is_exact(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        K, D, w = forms(mesh)
        state = initialize(mesh, P6, 1e-3, lambda x, y: (0.0 * x, 0.0 * x))
        for _ in range(5):
            state = step(state, P6, 1e-3, mesh, K, D, w)
        assert np.all(state.Qcurr == 0.0)
        assert np.array_equal(state.r, np.full(mesh.n_nodes, np.sqrt(1000.0)))

    def test_single_interior_node_matches_dense_solve(self):
        mesh = build_mesh(0, 2, 0, 2, 2, 2)
        assert mesh.n_interior == 1
        K, D, w = forms(mesh)
        dt = 1e-3

        Q0 = np.zeros((mesh.n_nodes, 2))
        node = mesh.interior_nodes[0]
        Q0[node] = [0.4, -0.3]
        state = initialize(mesh, P6_DIV, dt, Q0, None)
        new = step(state, P6_DIV, dt, mesh, K, D, w, cg_tol=1e-14)

        # dense rebuild of the same 2x2 system
        p = P6_DIV
        q = Q0[node]
        r0 = float(aux_r(STTensor2(q[0], q[1]), p))
        Pn = aux_P(STTensor2(q[0], q[1]), p)
        pv = np.array([Pn.q1, Pn.q2])
        Kd = K.toarray()
        Dd = D.toarray()
        wv = w
        cm = 1.0 / dt + p.sigma / dt ** 2
        A = cm * np.diag(wv) + p.L1 * Kd + 0.5 * (p.L2 + p.L3) * Dd \
            + wv[0] * np.outer(pv, pv)
        rhs = (1.0 / dt + 2.0 * p.sigma / dt ** 2) * wv * q \
            - (p.sigma / dt ** 2) * wv * q \
            - p.L1 * (Kd @ q) - 0.5 * (p.L2 + p.L3) * (Dd @ q) \
            - wv * r0 * pv + wv[0] * float(pv @ q) * pv
        expect = np.linalg.solve(A, rhs)
        assert np.max(np.abs(new.Qcurr[node] - expect)) < 1e-12

    def test_boundary_values_pinned(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        state = initialize(mesh, P6, 1e-3, default_initial_q,
                           Qt0=lambda x, y: (0.1 + 0 * x, 0 * x))
        r_bnd = state.r[mesh.is_boundary].copy()
        for _ in range(10):
            state = step(state, P6, 1e-3, mesh, K, D, w)
        assert np.all(state.Qcurr[mesh.is_boundary] == 0.0)
        assert np.array_equal(state.r[mesh.is_boundary], r_bnd)

    def test_energy_identity_and_monotonicity(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        dt = 1e-3
        for p in (P6, P6_DIV, P6_PAR):
            Q0 = interpolate_qfield(mesh, default_initial_q)
            r0 = nodal_r(mesh, p, Q0)
            if p.sigma > 0:
                state = initialize(mesh, p, dt, Q0, build_default_Qt0(mesh, p, Q0, r0))
            else:
                state = initialize(mesh, p, dt, Q0)
            idx = mesh.interior_nodes
            rec = discrete_energy(state, p, dt, mesh, K, D, w)
            e0 = rec.total
            prev_dtq = None
            if p.sigma > 0:
                prev_dtq = (state.Qcurr[idx] - state.Qprev[idx]).reshape(-1) / dt
            for _ in range(50):
                old = state
                old_total = rec.total
                state = step(state, p, dt, mesh, K, D, w, cg_tol=1e-12)
                rec = discrete_energy(state, p, dt, mesh, K, D, w)
                dtq = (state.Qcurr[idx] - old.Qcurr[idx]).reshape(-1) / dt
                resid = rec.total - old_total + dt * h_norm_sq(w, dtq)
                if p.sigma > 0:
                    resid += 0.5 * p.sigma * h_norm_sq(w, dtq - prev_dtq)
                    prev_dtq = dtq
                assert abs(resid) <= 1e-9 * e0
                assert rec.total <= old_total

    def test_sigma_continuity_into_parabolic_branch(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        dt = 1e-4
        Q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(mesh, P6, Q0)
        qt0 = build_default_Qt0(mesh, replace(P6, sigma=1e-12), Q0, r0)

        tiny = replace(P6, sigma=1e-12)
        hyper = initialize(mesh, tiny, dt, Q0, qt0)
        hyper = advance(hyper, tiny, dt, mesh, K, D, w, 10)

        par = initialize(mesh, P6_PAR, dt, Q0)
        par = advance(par, P6_PAR, dt, mesh, K, D, w, 11)

        assert hyper.t == pytest.approx(par.t, rel=1e-12)
        assert h1_error_field(hyper.Qcurr, par.Qcurr, mesh) < 1e-6

    def test_fields_stay_finite_flag(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        K, D, w = forms(mesh)
        state = initialize(mesh, P6, 1e-3, default_initial_q)
        state = step(state, P6, 1e-3, mesh, K, D, w)
        assert np.all(np.isfinite(state.Qcurr)) and np.all(np.isfinite(state.r))


class TestCarriedInterior:
    @pytest.mark.parametrize("params", [P6_DIV, P6_PAR], ids=["inertial_div", "parabolic"])
    def test_shared_products_match_fresh_states(self, params):
        """Ten steps carrying interior vectors, products and one operator
        against the same steps each started from nodal fields alone."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        dt = 1e-3
        Q0 = interpolate_qfield(mesh, default_initial_q)
        qt0 = None
        if params.sigma > 0:
            qt0 = build_default_Qt0(mesh, params, Q0, nodal_r(mesh, params, Q0), K)
        carried = initialize(mesh, params, dt, Q0, qt0)
        fresh = carried
        op = step_operator(params, dt, K, D, w)

        def nodal(s):
            return SimState(Qprev=s.Qprev, Qcurr=s.Qcurr, r=s.r, n=s.n, t=s.t)

        for _ in range(10):
            carried = step(carried, params, dt, mesh, K, D, w, cg_tol=1e-12, op=op)
            fresh = nodal(step(nodal(fresh), params, dt, mesh, K, D, w, cg_tol=1e-12))
            assert carried.interior is not None and fresh.interior is None
            for a, b in ((carried.Qcurr, fresh.Qcurr), (carried.r, fresh.r)):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            e_c = discrete_energy(carried, params, dt, mesh, K, D, w)
            e_f = discrete_energy(fresh, params, dt, mesh, K, D, w)
            for part in ("kinetic", "elastic", "divpart", "rpart", "total"):
                assert getattr(e_c, part) == pytest.approx(getattr(e_f, part), rel=1e-13)
        assert (e_c.divpart > 0) == (params.L2 > 0)  # the D product was exercised


class TestFullMatrixReference:
    def _run_comparison(self, params, nsteps=10, dt=1e-3):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)  # 5x5 nodes
        K, D, w = forms(mesh)
        idx = mesh.interior_nodes

        Q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(mesh, params, Q0)
        qt0 = build_default_Qt0(mesh, params, Q0, r0)
        state = initialize(mesh, params, dt, Q0, qt0)

        ref = oracles.FullMatrixStepper(mesh, params, dt)
        to_full = lambda W: np.array([oracles.to_full(a, b) for a, b in W[idx]])
        Qf = to_full(state.Qcurr)
        Qp = to_full(state.Qprev)
        rf = state.r[idx].copy()

        for _ in range(nsteps):
            state = step(state, params, dt, mesh, K, D, w, cg_tol=1e-13)
            Qf_new, rf = ref.step(Qf, Qp, rf)
            Qp, Qf = Qf, Qf_new

            # reference result is symmetric and trace-free
            assert np.max(np.abs(Qf[:, 0, 1] - Qf[:, 1, 0])) < 1e-12
            assert np.max(np.abs(Qf[:, 0, 0] + Qf[:, 1, 1])) < 1e-12
            # and matches the reduced production stepper
            red = to_full(state.Qcurr)
            assert np.max(np.abs(red - Qf)) < 1e-10
        assert np.max(np.abs(state.r[idx] - rf)) < 1e-10

    def test_matches_reduced_stepper_with_div_terms(self):
        self._run_comparison(P6_DIV)

    def test_matches_reduced_stepper_plain(self):
        self._run_comparison(P6)
