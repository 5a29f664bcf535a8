import numpy as np
import pytest
from dataclasses import replace

from qtflow.analysis import discrete_energy, h1_error_field, h_norm_sq, norm_forms
from qtflow.assembly import assemble_div_form, assemble_stiffness, lumped_mass
from qtflow.experiments import default_initial_q
from qtflow.mesh import build_mesh
from qtflow.model import Params, aux_P, aux_r
from qtflow import stepper
from qtflow.solver import ConvergenceError
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
from states import default_start, start

P6 = Params(L1=0.001, L2=0.0, L3=0.0, a=-0.2, b=1.0, c=1.0, A0=500.0, sigma=0.025)
P6_DIV = replace(P6, L2=0.0005, L3=0.0005)
P6_PAR = replace(P6, sigma=0.0)


def forms(mesh):
    return assemble_stiffness(mesh), assemble_div_form(mesh), lumped_mass(mesh)


def advance(state, p, dt, op, nsteps, cg_tol=1e-12):
    for _ in range(nsteps):
        state = step(state, p, dt, op, cg_tol=cg_tol)
    return state


class TestInitialize:
    def test_zero_data(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        state, _ = start(mesh, P6, 1e-3, lambda x, y: (0.0 * x, 0.0 * y))
        assert np.all(state.Q_field(mesh) == 0.0) and np.all(state.dq == 0.0)
        assert np.allclose(state.r_field(mesh), np.sqrt(1000.0), rtol=1e-15)
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
        state, _ = start(mesh, P6_PAR, 1e-3, default_initial_q)
        assert state.dq is None
        assert state.n == 0 and state.t == 0.0

    def test_r_unchanged_when_qt0_zero(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        state, _ = start(mesh, P6, 1e-3, default_initial_q, Qt0=None)
        Q0 = interpolate_qfield(mesh, default_initial_q)
        assert np.array_equal(state.r_field(mesh), nodal_r(mesh, P6, Q0))

    def test_r_first_level_update(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        dt = 1e-3
        qt0 = lambda x, y: (np.full_like(x, 0.3), np.full_like(x, -0.1))
        state, _ = start(mesh, P6, dt, default_initial_q, Qt0=qt0)
        Q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(mesh, P6, Q0)
        P0 = aux_P(Q0.T, P6)
        dq = state.Q_field(mesh) - Q0
        expect = r0 + 2.0 * (P0[0] * dq[:, 0] + P0[1] * dq[:, 1])
        assert np.allclose(state.r_field(mesh), expect, rtol=1e-14)


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
        op = step_operator(P6, dt, K, D, w)
        state = initialize(mesh, P6, dt, Q0, qt0, r0, op)
        e1 = discrete_energy(state, P6, dt, mesh, w).total
        state = step(state, P6, dt, op, cg_tol=1e-12)
        e2 = discrete_energy(state, P6, dt, mesh, w).total
        assert e2 <= e1


class TestStep:
    def test_equilibrium_is_exact(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        state, op = start(mesh, P6, 1e-3, lambda x, y: (0.0 * x, 0.0 * x))
        for _ in range(5):
            state = step(state, P6, 1e-3, op)
        assert np.all(state.Q_field(mesh) == 0.0)
        assert np.array_equal(state.r_field(mesh),
                              np.full(mesh.n_nodes, np.sqrt(1000.0)))

    def test_single_interior_node_matches_dense_solve(self):
        mesh = build_mesh(0, 2, 0, 2, 2, 2)
        assert mesh.n_interior == 1
        K, D, w = forms(mesh)
        dt = 1e-3

        Q0 = np.zeros((mesh.n_nodes, 2))
        node = mesh.interior_nodes[0]
        Q0[node] = [0.4, -0.3]
        state, op = start(mesh, P6_DIV, dt, Q0)
        new = step(state, P6_DIV, dt, op, cg_tol=1e-14)

        # dense rebuild of the same 2x2 system
        p = P6_DIV
        q = Q0[node]
        r0 = float(aux_r(q, p))
        pv = aux_P(q, p)
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
        assert np.max(np.abs(new.Q_field(mesh)[node] - expect)) < 1e-12

    def test_boundary_values_pinned(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        state, op = start(mesh, P6, 1e-3, default_initial_q,
                          Qt0=lambda x, y: (0.1 + 0 * x, 0 * x))
        r_bnd = state.r_field(mesh)[mesh.is_boundary]
        for _ in range(10):
            state = step(state, P6, 1e-3, op)
        assert np.all(state.Q_field(mesh)[mesh.is_boundary] == 0.0)
        assert np.array_equal(state.r_field(mesh)[mesh.is_boundary], r_bnd)

    def test_energy_identity_and_monotonicity(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        dt = 1e-3
        for p in (P6, P6_DIV, P6_PAR):
            Q0 = interpolate_qfield(mesh, default_initial_q)
            r0 = nodal_r(mesh, p, Q0)
            qt0 = build_default_Qt0(mesh, p, Q0, r0) if p.sigma > 0 else None
            op = step_operator(p, dt, K, D, w)
            state = initialize(mesh, p, dt, Q0, qt0, r0, op)
            idx = mesh.interior_nodes
            rec = discrete_energy(state, p, dt, mesh, w)
            e0 = rec.total
            prev_dtq = None
            if p.sigma > 0:
                prev_dtq = (state.Q_field(mesh)[idx] - Q0[idx]).reshape(-1) / dt
            for _ in range(50):
                old = state
                old_total = rec.total
                state = step(state, p, dt, op, cg_tol=1e-12)
                rec = discrete_energy(state, p, dt, mesh, w)
                dtq = (state.Q_field(mesh)[idx]
                       - old.Q_field(mesh)[idx]).reshape(-1) / dt
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
        op = step_operator(tiny, dt, K, D, w)
        hyper = initialize(mesh, tiny, dt, Q0, qt0, r0, op)
        hyper = advance(hyper, tiny, dt, op, 10)

        op = step_operator(P6_PAR, dt, K, D, w)
        par = initialize(mesh, P6_PAR, dt, Q0, None, r0, op)
        par = advance(par, P6_PAR, dt, op, 11)

        assert hyper.t == pytest.approx(par.t, rel=1e-12)
        assert h1_error_field(hyper.Q_field(mesh), par.Q_field(mesh),
                              norm_forms(mesh)) < 1e-6

    def test_fields_stay_finite_flag(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        state, op = start(mesh, P6, 1e-3, default_initial_q)
        state = step(state, P6, 1e-3, op)
        assert np.all(np.isfinite(state.q)) and np.all(np.isfinite(state.r))

    def test_convergence_error_names_the_step(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        dt = 1e-3
        state, op = start(mesh, P6, dt, default_initial_q)
        state = step(state, P6, dt, op)
        with pytest.raises(ConvergenceError) as info:
            step(state, P6, dt, op, cg_tol=1e-300, maxiter=1)
        err = info.value
        assert (err.step, err.t) == (state.n + 1, state.t + dt)
        assert "step %d (t = %.6g)" % (state.n + 1, state.t + dt) in str(err)
        assert err.residual > 1e-300


class TestCarriedInterior:
    @pytest.mark.parametrize("params", [P6_DIV, P6_PAR], ids=["inertial_div", "parabolic"])
    def test_shared_products_match_fresh_states(self, params):
        """Ten steps carrying interior vectors, products and one operator
        against the same steps each started from nodal fields alone."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        dt = 1e-3
        Q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(mesh, params, Q0)
        qt0 = build_default_Qt0(mesh, params, Q0, r0, K) if params.sigma > 0 else None
        op = step_operator(params, dt, K, D, w)
        carried = initialize(mesh, params, dt, Q0, qt0, r0, op)
        fresh = carried

        def rebuilt(s, Qprev):
            """s rebuilt from nodal fields alone (its Q and r and the
            previous Q level), every product formed anew; and its Q."""
            Q = s.Q_field(mesh)
            q = mesh.gather_interior(Q)
            dq = None if Qprev is None else q - mesh.gather_interior(Qprev)
            Kq = K @ q
            Lq = params.L1 * Kq
            if params.L2 + params.L3 != 0:
                Lq += 0.5 * (params.L2 + params.L3) * (D @ q)
            r = mesh.gather_interior(s.r_field(mesh))
            return SimState(q=q, dq=dq, r=r, Kq=Kq, Lq=Lq,
                            r0=s.r0, n=s.n, t=s.t), Q

        fresh, Qf = rebuilt(fresh, Q0 if params.sigma > 0 else None)
        for _ in range(10):
            carried = step(carried, params, dt, op, cg_tol=1e-12)
            fresh_op = step_operator(params, dt, K, D, w)
            fresh, Qf = rebuilt(step(fresh, params, dt, fresh_op, cg_tol=1e-12),
                                Qf if params.sigma > 0 else None)
            for a, b in ((carried.Q_field(mesh), fresh.Q_field(mesh)),
                         (carried.r_field(mesh), fresh.r_field(mesh))):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            e_c = discrete_energy(carried, params, dt, mesh, w)
            e_f = discrete_energy(fresh, params, dt, mesh, w)
            for part in ("kinetic", "elastic", "divpart", "rpart", "total"):
                assert getattr(e_c, part) == pytest.approx(getattr(e_f, part), rel=1e-13)
        assert (e_c.divpart > 0) == (params.L2 > 0)  # the divergence term was exercised


P6_DIV_PAR = replace(P6_DIV, sigma=0.0)


class Counted:
    """A sparse matrix that counts the products taken with it."""

    def __init__(self, M):
        self.M = M
        self.calls = 0

    def __matmul__(self, x):
        self.calls += 1
        return self.M @ x


class TestCarriedProducts:
    @pytest.mark.parametrize("params", [P6, P6_DIV_PAR], ids=["inertial", "parabolic_div"])
    def test_products_equal_fresh_products(self, params):
        """Every state of ten steps carries exactly K q and L q."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        dt = 1e-3
        ck, cd = params.L1, 0.5 * (params.L2 + params.L3)
        state, op = default_start(mesh, params, dt)
        for _ in range(11):
            assert np.array_equal(state.Kq, K @ state.q)
            Lq = ck * state.Kq if cd == 0.0 else ck * state.Kq + cd * (D @ state.q)
            assert np.array_equal(state.Lq, Lq)
            state = step(state, params, dt, op)

    @pytest.mark.parametrize("params", [P6, P6_DIV_PAR], ids=["inertial", "parabolic_div"])
    def test_products_per_step(self, params, monkeypatch):
        """One op.base product per CG iteration, one K product (and one D
        product) for the confirmation, and nothing else."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        dt = 1e-3
        state, op = default_start(mesh, params, dt)
        with_div = op.D is not None
        op.K, op.base = Counted(op.K), Counted(op.base)
        if with_div:
            op.D = Counted(op.D)

        iters = []
        cg_solve = stepper.cg_solve

        def counting_cg(*args, **kwargs):
            x, k = cg_solve(*args, **kwargs)
            iters.append(k)
            return x, k

        monkeypatch.setattr(stepper, "cg_solve", counting_cg)
        assert with_div == (params.L2 + params.L3 != 0)
        d_calls = lambda: op.D.calls if with_div else 0
        for _ in range(10):
            counts = (op.base.calls, op.K.calls, d_calls())
            state = step(state, params, dt, op)
            assert (op.base.calls - counts[0], op.K.calls - counts[1],
                    d_calls() - counts[2]) == (iters[-1], 1, int(with_div))
        assert sum(iters) > 0


class TestNodalField:
    def test_reproduces_the_nodal_path(self):
        """Ten sigma > 0 steps: the nodal Q and r of every state, bit for
        bit, as a run over full-node arrays forms them: the first level by
        the nodal update, then Q scattered into zeros and r copied from the
        last level with its interior replaced."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        dt = 1e-3
        idx, bnd = mesh.interior_nodes, mesh.is_boundary
        Q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(mesh, P6, Q0)
        qt0 = build_default_Qt0(mesh, P6, Q0, r0, K)
        op = step_operator(P6, dt, K, D, w)
        state = initialize(mesh, P6, dt, Q0, qt0, r0, op)

        Q = Q0 + dt * qt0
        P0 = aux_P(Q0.T.copy(), P6)
        dQ = Q - Q0
        r = r0 + 2.0 * (P0[0] * dQ[:, 0] + P0[1] * dQ[:, 1])
        for _ in range(11):
            assert np.array_equal(state.Q_field(mesh), Q)
            assert np.array_equal(state.r_field(mesh), r)
            assert np.all(Q[bnd] == 0.0)
            assert np.array_equal(r[bnd], r0[bnd])
            state = step(state, P6, dt, op)
            Q = np.zeros_like(Q)
            Q[idx] = state.q.reshape(-1, 2)
            r = r.copy()
            r[idx] = state.r


class TestFullMatrixReference:
    def _run_comparison(self, params, nsteps=10, dt=1e-3):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)  # 5x5 nodes
        idx = mesh.interior_nodes

        Q0 = interpolate_qfield(mesh, default_initial_q)
        state, op = default_start(mesh, params, dt)

        ref = oracles.FullMatrixStepper(mesh, params, dt)
        to_full = lambda W: np.array([oracles.to_full(a, b) for a, b in W[idx]])
        Qf = to_full(state.Q_field(mesh))
        Qp = to_full(Q0)
        rf = state.r.copy()

        for _ in range(nsteps):
            state = step(state, params, dt, op, cg_tol=1e-13)
            Qf_new, rf = ref.step(Qf, Qp, rf)
            Qp, Qf = Qf, Qf_new

            # reference result is symmetric and trace-free
            assert np.max(np.abs(Qf[:, 0, 1] - Qf[:, 1, 0])) < 1e-12
            assert np.max(np.abs(Qf[:, 0, 0] + Qf[:, 1, 1])) < 1e-12
            # and matches the reduced production stepper
            red = to_full(state.Q_field(mesh))
            assert np.max(np.abs(red - Qf)) < 1e-10
        assert np.max(np.abs(state.r - rf)) < 1e-10

    def test_matches_reduced_stepper_with_div_terms(self):
        self._run_comparison(P6_DIV)

    def test_matches_reduced_stepper_plain(self):
        self._run_comparison(P6)
