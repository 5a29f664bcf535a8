import math

import numpy as np
import pytest
from dataclasses import astuple, fields, replace

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
from states import default_start, kept, run_operator, start

P6 = Params(L1=0.001, L2=0.0, L3=0.0, a=-0.2, b=1.0, c=1.0, A0=500.0, sigma=0.025)
P6_DIV = replace(P6, L2=0.0005, L3=0.0005)
P6_PAR = replace(P6, sigma=0.0)


def forms(mesh):
    return assemble_stiffness(mesh), assemble_div_form(mesh), lumped_mass(mesh)


def default_velocity(mesh, p, q0, r0):
    """build_default_Qt0 from the interior vectors q0 and r0, with a run's
    operator on mesh."""
    return build_default_Qt0(p, q0, r0, aux_P(q0, p), run_operator(mesh, p, 1e-3))


def advance(state, p, dt, op, nsteps, cg_tol=1e-12):
    for _ in range(nsteps):
        state = step(state, p, dt, op, cg_tol=cg_tol)
    return state


class TestInitialize:
    def test_zero_data(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        state, _ = start(mesh, P6, 1e-3, lambda x, y: (0.0 * x, 0.0 * y))
        assert np.all(state.q == 0.0) and np.all(state.dq == 0.0)
        assert np.allclose(state.r, np.sqrt(1000.0), rtol=1e-15)
        assert state.n == 1

    def test_default_profile_vanishes_on_boundary(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        Q0 = oracles.nodal(mesh, interpolate_qfield(mesh, default_initial_q))
        # the director data vanishes on the boundary before any clamping
        x, y = oracles.nodes(mesh).T
        n1 = x * (2 - x) * y * (2 - y)
        n2 = np.sin(np.pi * x) * np.sin(0.5 * np.pi * y)
        assert np.max(np.abs(n1[oracles.is_boundary(mesh)])) < 1e-13
        assert np.max(np.abs(n2[oracles.is_boundary(mesh)])) < 1e-12
        assert np.allclose(Q0[0], 0.5 * (n1 ** 2 - n2 ** 2), atol=1e-12)
        assert np.allclose(Q0[1], n1 * n2, atol=1e-12)

    def test_parabolic_one_level_start(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        state, _ = start(mesh, P6_PAR, 1e-3, default_initial_q)
        assert state.dq is None
        assert state.n == 0

    @pytest.mark.parametrize("params", [P6, P6_PAR], ids=["inertial", "parabolic"])
    def test_start_takes_over_q0_and_r0(self, params):
        """The state holds q0 and r0 for sigma = 0; for sigma > 0 its dq and
        r are formed in them, with the bits of the update on copies."""
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(params, q0)
        copies = q0.copy(), r0.copy()
        op = run_operator(mesh, params, 1e-3)
        state = initialize(params, 1e-3, q0, r0, op)
        assert state.r is r0
        if params.sigma == 0.0:
            assert state.q is q0 and np.array_equal(q0, copies[0])
            assert np.array_equal(r0, copies[1])
            return
        assert state.dq is q0
        P0 = aux_P(copies[0], params)
        dq = state.q - copies[0]
        assert np.array_equal(state.dq, dq)
        assert np.array_equal(state.r, copies[1] + 2.0 * (P0[0] * dq[0] + P0[1] * dq[1]))

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_rejects_a_nonpositive_step(self, dt):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        q0 = interpolate_qfield(mesh, default_initial_q)
        op = run_operator(mesh, P6, 1e-3)
        with pytest.raises(ValueError, match="dt must be positive"):
            initialize(P6, dt, q0, nodal_r(P6, q0), op)

    def test_r_unchanged_when_qt0_zero(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        state, _ = start(mesh, P6, 1e-3, default_initial_q, qt0=None)
        q0 = interpolate_qfield(mesh, default_initial_q)
        assert np.array_equal(state.r, nodal_r(P6, q0))

    def test_r_first_level_update(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        dt = 1e-3
        qt0 = lambda x, y: (np.full_like(x, 0.3), np.full_like(x, -0.1))
        state, _ = start(mesh, P6, dt, default_initial_q, qt0=qt0)
        q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(P6, q0)
        P0 = aux_P(q0, P6)
        dq = state.q - q0
        expect = r0 + 2.0 * (P0[0] * dq[0] + P0[1] * dq[1])
        assert np.allclose(state.r, expect, rtol=1e-14)


@pytest.mark.parametrize("A0", [500.0, 0.013, 3.3])
def test_boundary_r_is_the_constant_sqrt_2_A0(A0):
    """Q vanishes on the boundary, so the r of a run advanced at every node
    is the r of Q = 0 there, the same bits as sqrt(2 A0) that the energy
    takes for it, at every boundary node of every state; in the interior
    it is the state's r."""
    p = replace(P6, A0=A0)
    mesh = build_mesh(0, 2, 0, 2, 8, 8)
    Q0 = oracles.nodal_interpolate_qfield(mesh, default_initial_q)
    bnd = oracles.is_boundary(mesh)
    r0 = math.sqrt(2.0 * A0)
    assert np.all(aux_r(Q0.T, p)[bnd] == r0)
    state, op = default_start(mesh, p, 1e-3)
    states = [kept(state)]
    for _ in range(3):
        state = step(state, p, 1e-3, op)
        states.append(kept(state))
    for state, r in zip(states, oracles.nodal_r_fields(mesh, p, Q0, states)):
        assert np.all(r[bnd] == r0)
        assert np.array_equal(r[~bnd], state.r)


class TestDefaultQt0:
    def test_zero_data_gives_zero(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        q0 = np.zeros((2, mesh.n_interior))
        r0 = nodal_r(P6, q0)
        assert np.all(default_velocity(mesh, P6, q0, r0) == 0.0)

    def test_discrete_eigenvector(self):
        # with the bulk part disabled, Qt0 = -L1 * lambda * Q0 for an
        # eigenvector of the lumped-inverse stiffness
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        K = assemble_stiffness(mesh)
        gamma = mesh.gamma

        rng = np.random.RandomState(5)
        v = rng.standard_normal((2, mesh.n_interior))
        lam = 0.0
        for _ in range(600):  # power iteration on the generalized problem
            v = (K @ v.T).T / gamma
            lam = np.linalg.norm(v)
            v /= lam

        qt0 = default_velocity(mesh, P6, v, np.zeros(mesh.n_interior))
        expect = -P6.L1 * lam * v
        assert np.max(np.abs(qt0 - expect)) < 1e-6 * lam * P6.L1

    def test_energy_drop_after_one_step(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(P6, q0)
        dt = 1e-3
        op = step_operator(P6, dt, mesh, K, D, w)
        state = initialize(P6, dt, q0, r0, op)
        e1 = discrete_energy(state, P6, dt, mesh).total
        state = step(state, P6, dt, op, cg_tol=1e-12)
        e2 = discrete_energy(state, P6, dt, mesh).total
        assert e2 <= e1


class TestStep:
    def test_equilibrium_is_exact(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        state, op = start(mesh, P6, 1e-3, lambda x, y: (0.0 * x, 0.0 * x))
        for _ in range(5):
            state = step(state, P6, 1e-3, op)
        assert np.all(state.q == 0.0)
        assert np.array_equal(state.r, np.full(mesh.n_interior, np.sqrt(1000.0)))

    def test_single_interior_node_matches_dense_solve(self):
        mesh = build_mesh(0, 2, 0, 2, 2, 2)
        assert mesh.n_interior == 1
        K, D, w = forms(mesh)
        dt = 1e-3

        q = np.array([0.4, -0.3])
        state, op = start(mesh, P6_DIV, dt, q[:, None].copy())
        new = step(state, P6_DIV, dt, op, cg_tol=1e-14)

        # dense rebuild of the same 2x2 system
        p = P6_DIV
        r0 = float(aux_r(q, p))
        pv = aux_P(q, p)
        Kd = np.kron(K.toarray(), np.eye(2))
        Dd = np.kron(D.toarray(), np.eye(2))
        wv = np.full(2, w)
        cm = 1.0 / dt + p.sigma / dt ** 2
        A = cm * np.diag(wv) + p.L1 * Kd + 0.5 * (p.L2 + p.L3) * Dd \
            + wv[0] * np.outer(pv, pv)
        rhs = (1.0 / dt + 2.0 * p.sigma / dt ** 2) * wv * q \
            - (p.sigma / dt ** 2) * wv * q \
            - p.L1 * (Kd @ q) - 0.5 * (p.L2 + p.L3) * (Dd @ q) \
            - wv * r0 * pv + wv[0] * float(pv @ q) * pv
        expect = np.linalg.solve(A, rhs)
        assert np.max(np.abs(new.q[:, 0] - expect)) < 1e-12

    def test_boundary_values_pinned(self):
        """A moving start: the nodal Q of every state is zero on the
        boundary, and r advanced at every node keeps sqrt(2 A0) there."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        state, op = start(mesh, P6, 1e-3, default_initial_q,
                          qt0=lambda x, y: (0.1 + 0 * x, 0 * x))
        states = [kept(state)]
        for _ in range(10):
            state = step(state, P6, 1e-3, op)
            states.append(kept(state))
        bnd = oracles.is_boundary(mesh)
        Q0 = oracles.nodal_interpolate_qfield(mesh, default_initial_q)
        for state, r in zip(states, oracles.nodal_r_fields(mesh, P6, Q0, states)):
            assert np.all(oracles.nodal(mesh, state.q)[:, bnd] == 0.0)
            assert np.all(r[bnd] == math.sqrt(2.0 * P6.A0))

    def test_energy_identity_and_monotonicity(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        dt = 1e-3
        for p in (P6, P6_DIV, P6_PAR):
            q0 = interpolate_qfield(mesh, default_initial_q)
            r0 = nodal_r(p, q0)
            op = step_operator(p, dt, mesh, K, D, w)
            state = initialize(p, dt, q0.copy(), r0, op)
            rec = discrete_energy(state, p, dt, mesh)
            e0 = rec.total
            prev_dtq = None
            if p.sigma > 0:
                prev_dtq = (state.q - q0) / dt
            for _ in range(50):
                old = kept(state)
                old_total = rec.total
                state = step(state, p, dt, op, cg_tol=1e-12)
                rec = discrete_energy(state, p, dt, mesh)
                dtq = (state.q - old.q) / dt
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
        q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(P6, q0)

        tiny = replace(P6, sigma=1e-12)
        op = step_operator(tiny, dt, mesh, K, D, w)
        hyper = initialize(tiny, dt, q0.copy(), r0.copy(), op)
        hyper = advance(hyper, tiny, dt, op, 10)

        op = step_operator(P6_PAR, dt, mesh, K, D, w)
        par = initialize(P6_PAR, dt, q0, r0, op)
        par = advance(par, P6_PAR, dt, op, 11)

        assert hyper.n == par.n == 11  # both at time 11 dt
        assert h1_error_field(hyper.q, par.q, norm_forms(mesh)) < 1e-6

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
        assert (err.step, err.t) == (state.n + 1, (state.n + 1) * dt)
        assert "step %d (t = %.6g)" % (err.step, err.t) in str(err)
        assert err.residual > 1e-300

    def test_radicand_failure_names_the_step(self):
        """A state below the bulk minimum that A0 does not cover fails in
        aux_P, at the step that it starts."""
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        dt = 1e-3
        state, op = start(mesh, P6, dt, default_initial_q)
        state = step(state, P6, dt, op)
        low = replace(P6, A0=1e-6)
        with pytest.raises(ConvergenceError) as info:
            step(state, low, dt, op)
        err = info.value
        assert (err.step, err.t) == (state.n + 1, (state.n + 1) * dt)
        assert "step %d (t = %.6g): nonpositive radicand" % (err.step, err.t) \
            in str(err)
        assert isinstance(err.__cause__, ValueError)


#: meshes whose interior lattice is one node wide or one node tall
THIN_STEP_MESHES = [(0, 0.5, 0, 2, 2, 8), (0, 2, 0, 0.5, 8, 2)]
THIN_STEP_IDS = ["2x8", "8x2"]


class TestCarriedInterior:
    @pytest.mark.parametrize("params", [P6_DIV, P6_PAR], ids=["inertial_div", "parabolic"])
    def test_shared_products_match_fresh_states(self, params):
        """Ten steps carrying interior vectors, products and one operator
        against the same steps each started from nodal fields alone."""
        self._compare(build_mesh(0, 2, 0, 2, 8, 8), params)

    @pytest.mark.parametrize("params", [P6_DIV, P6_PAR], ids=["inertial_div", "parabolic"])
    @pytest.mark.parametrize("extent", THIN_STEP_MESHES, ids=THIN_STEP_IDS)
    def test_thin_lattices_match_fresh_states(self, extent, params):
        self._compare(build_mesh(*extent), params)

    def _compare(self, mesh, params):
        """Also: every step's first confirmation is kept.  CG iterates with
        op.base and confirms on K, so a constant block that is not
        c_m w I + c K (a wrong lattice width) shows as rejected
        confirmations, even where the restarts still reach the solution."""
        K, D, w = forms(mesh)
        dt = 1e-3
        q0 = interpolate_qfield(mesh, default_initial_q)
        r0 = nodal_r(params, q0)
        op = step_operator(params, dt, mesh, K, D, w)
        carried = initialize(params, dt, q0.copy(), r0, op)
        fresh = carried
        confirmations, residual = [], op.residual
        op.residual = lambda *args: confirmations.append(None) or residual(*args)

        def rebuilt(s, qprev):
            """s rebuilt from nodal fields alone (its Q and r, and the
            previous level's interior q), every product formed anew; and
            a copy of its interior q, as a step from it takes that vector."""
            q = oracles.gather_interior(mesh, oracles.nodal(mesh, s.q).T)
            dq = None if qprev is None else q - qprev
            r = oracles.gather_interior(mesh, oracles.nodal(mesh, s.r))
            return SimState(q=q, dq=dq, r=r, Kq=(K @ q.T).T, n=s.n), q.copy()

        fresh, qf = rebuilt(fresh, q0 if params.sigma > 0 else None)
        for _ in range(10):
            carried = step(carried, params, dt, op, cg_tol=1e-12)
            fresh_op = step_operator(params, dt, mesh, K, D, w)
            fresh, qf = rebuilt(step(fresh, params, dt, fresh_op, cg_tol=1e-12),
                                qf if params.sigma > 0 else None)
            for a, b in ((oracles.nodal(mesh, carried.q), oracles.nodal(mesh, fresh.q)),
                         (oracles.nodal(mesh, carried.r), oracles.nodal(mesh, fresh.r))):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            e_c = discrete_energy(carried, params, dt, mesh)
            e_f = discrete_energy(fresh, params, dt, mesh)
            for part in ("kinetic", "elastic", "divpart", "rpart", "total"):
                assert getattr(e_c, part) == pytest.approx(getattr(e_f, part), rel=1e-13)
        assert (e_c.divpart > 0) == (params.L2 > 0)  # the divergence term was exercised
        assert len(confirmations) == 10


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
        """Every state of ten steps carries exactly K q, and the operator
        takes L as c K, c = L1 + (L2 + L3)/2."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        dt = 1e-3
        state, op = default_start(mesh, params, dt)
        assert op.c == params.L1 + 0.5 * (params.L2 + params.L3)
        for _ in range(11):
            assert np.array_equal(state.Kq, (K @ state.q.T).T)
            state = step(state, params, dt, op)

    @pytest.mark.parametrize("params", [P6, P6_DIV_PAR], ids=["inertial", "parabolic_div"])
    def test_products_per_step(self, params, monkeypatch):
        """One op.base product per component and CG iteration, one K
        product per component for the confirmation, and nothing else: D x
        is K x, so D is never applied."""
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
                    d_calls() - counts[2]) == (2 * iters[-1], 2, 0)
        assert sum(iters) > 0


ALL_PATHS = pytest.mark.parametrize(
    "params", [P6, P6_DIV, P6_PAR, P6_DIV_PAR],
    ids=["inertial", "inertial_div", "parabolic", "parabolic_div"])


def poisoned_run(params, poison=(), nsteps=8):
    """The q, r and energy record of each state of an 8^2 run, the energy
    formed in the work vector the run loop uses (op.tmp), with
    the operator's vectors named in poison filled with NaN before every
    energy and every step."""
    mesh = build_mesh(0, 2, 0, 2, 8, 8)
    dt = 1e-3
    state, op = default_start(mesh, params, dt)
    bits = lambda a: np.asarray(a, dtype=float).tobytes()
    seen, prev = [], None
    for n in range(nsteps + 1):
        for name in poison:
            getattr(op, name).fill(np.nan)
        rec = discrete_energy(state, params, dt, mesh, prev, op.tmp)
        seen.append((bits(state.q), bits(state.r), bits(astuple(rec))))
        if n < nsteps:
            prev = state.dq, rec
            for name in poison:
                getattr(op, name).fill(np.nan)
            state = step(state, params, dt, op)
    return seen


class TestStatesOwnTheirArrays:
    @ALL_PATHS
    def test_later_steps_leave_kept_states_alone(self, params):
        """step() advances the state it is given and reuses the operator's
        work vectors every step.  Between steps the state's K q is op.dir,
        where the last confirmation formed it; no other array of the state
        shares memory with a work vector or with another array of the
        state, and a copy that a caller keeps (states.kept) is left alone by
        six more steps."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        dt = 1e-3
        state, op = default_start(mesh, params, dt)
        work = (op.rhs, op.res, op.dir, op.tmp, op.p, op._s)
        copies = []
        for n in range(9):
            assert state.Kq is op.dir
            arrays = [(f.name, getattr(state, f.name)) for f in fields(state)
                      if isinstance(getattr(state, f.name), np.ndarray)]
            assert {name for name, _ in arrays} >= {"q", "r", "Kq"}
            others = [(name, a) for name, a in arrays if name != "Kq"]
            for k, (name, array) in enumerate(others):
                assert not any(np.shares_memory(array, v) for v in work), name
                assert not any(np.shares_memory(array, b) for _, b in others[k + 1:]), name
            if n < 3:
                copies.append((kept(state), {name: a.copy() for name, a in arrays}))
            assert step(state, params, dt, op) is state
        assert (op.D is not None) == (params.L2 + params.L3 != 0)
        for copy, values in copies:
            for name, value in values.items():
                assert np.array_equal(getattr(copy, name), value), name

    @ALL_PATHS
    def test_free_work_vectors_may_be_overwritten_between_steps(self, params):
        """op.rhs, op.res and op.tmp hold nothing between steps: filled with
        NaN before every energy and every step, they leave every bit of
        q, r and the energy record of eight steps as they were."""
        clean = poisoned_run(params)
        assert poisoned_run(params, ("rhs", "res", "tmp")) == clean

    def test_overwriting_kq_between_steps_spoils_the_run(self):
        """op.dir holds the state's K q between steps, so it is not free: a
        caller that writes it spoils the energy and the next step.  (A run
        loop that kept its energy work in op.dir changed the energy.)"""
        with pytest.raises(ConvergenceError, match="non-finite right-hand side"):
            poisoned_run(P6, ("dir",))
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        state, op = default_start(mesh, P6, 1e-3)
        op.dir.fill(np.nan)
        assert math.isnan(discrete_energy(state, P6, 1e-3, mesh).total)

    def test_a_solve_that_keeps_its_start(self):
        """A tolerance that the start already meets: CG returns q itself,
        and the step forms dq = 0 in a vector of its own."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        state, op = default_start(mesh, P6, 1e-3)
        q = state.q.copy()
        state = step(state, P6, 1e-3, op, cg_tol=10.0)
        assert np.array_equal(state.q, q) and np.all(state.dq == 0.0)
        assert not np.shares_memory(state.q, state.dq)


class TestNodalField:
    def test_reproduces_the_nodal_path(self):
        """Ten sigma > 0 steps: the nodal Q and r of every state, bit for
        bit, as a run over full-node arrays forms them: the first level by
        the nodal update, then Q scattered into zeros and r copied from the
        last level with its interior replaced."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K, D, w = forms(mesh)
        dt = 1e-3
        idx, bnd = oracles.interior_nodes(mesh), oracles.is_boundary(mesh)
        q0 = interpolate_qfield(mesh, default_initial_q)
        Q0 = oracles.scatter_interior(mesh, q0)
        r0 = np.asarray(aux_r(Q0.T, P6))
        qt0 = oracles.nodal_default_Qt0(mesh, P6, Q0, r0, K)
        op = step_operator(P6, dt, mesh, K, D, w)
        state = initialize(P6, dt, q0, nodal_r(P6, q0), op)

        Q = Q0 + dt * qt0
        P0 = aux_P(Q0.T.copy(), P6)
        dQ = Q - Q0
        r = r0 + 2.0 * (P0[0] * dQ[:, 0] + P0[1] * dQ[:, 1])
        for _ in range(11):
            assert np.array_equal(oracles.nodal(mesh, state.q), Q.T)
            assert np.array_equal(r[idx], state.r)
            assert np.all(Q[bnd] == 0.0)
            assert np.array_equal(r[bnd], r0[bnd])
            state = step(state, P6, dt, op)
            Q = np.zeros_like(Q)
            Q[idx] = state.q.T
            r = r.copy()
            r[idx] = state.r


class TestFullMatrixReference:
    def _run_comparison(self, params, nsteps=10, dt=1e-3, extent=(0, 2, 0, 2, 4, 4)):
        mesh = build_mesh(*extent)  # 5x5 nodes by default
        q0 = interpolate_qfield(mesh, default_initial_q)
        state, op = default_start(mesh, params, dt)
        confirmations, residual = [], op.residual  # see TestCarriedInterior
        op.residual = lambda *args: confirmations.append(None) or residual(*args)

        ref = oracles.FullMatrixStepper(mesh, params, dt)
        to_full = lambda q: np.array([oracles.to_full(a, b) for a, b in q.T])
        Qf = to_full(state.q)
        Qp = to_full(q0)
        rf = state.r.copy()

        for _ in range(nsteps):
            state = step(state, params, dt, op, cg_tol=1e-13)
            Qf_new, rf = ref.step(Qf, Qp, rf)
            Qp, Qf = Qf, Qf_new

            # reference result is symmetric and trace-free
            assert np.max(np.abs(Qf[:, 0, 1] - Qf[:, 1, 0])) < 1e-12
            assert np.max(np.abs(Qf[:, 0, 0] + Qf[:, 1, 1])) < 1e-12
            # and matches the reduced production stepper
            red = to_full(state.q)
            assert np.max(np.abs(red - Qf)) < 1e-10
        assert np.max(np.abs(state.r - rf)) < 1e-10
        assert len(confirmations) == nsteps

    def test_matches_reduced_stepper_with_div_terms(self):
        self._run_comparison(P6_DIV)

    def test_matches_reduced_stepper_plain(self):
        self._run_comparison(P6)

    @pytest.mark.parametrize("params", [P6, P6_DIV], ids=["plain", "with_div_terms"])
    @pytest.mark.parametrize("extent", THIN_STEP_MESHES, ids=THIN_STEP_IDS)
    def test_thin_lattices_match_reduced_stepper(self, extent, params):
        """A lattice one node wide or tall: the stencil's +-1 and +-width
        offsets coincide or leave the matrix, so a wrong lattice width in
        the step operator shows here."""
        self._run_comparison(params, extent=extent)
