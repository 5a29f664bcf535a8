from dataclasses import replace

import numpy as np
import pytest

from qtflow.assembly import assemble_div_form, assemble_stiffness, lumped_mass
from qtflow.experiments import DEFAULT_PARAMS
from qtflow.mesh import build_mesh
from qtflow.solver import ConvergenceError, StepOperator, cg_solve
from qtflow.stepper import step_operator


def make_operator(mesh, rng=None, mass_coef=100.0, grad_coef=0.01, div_coef=0.005):
    K = assemble_stiffness(mesh)
    D = assemble_div_form(mesh)
    w = lumped_mass(mesh)
    p = None
    if rng is not None:
        p = rng.uniform(-0.2, 0.2, size=(2, mesh.n_interior))
    return StepOperator(w, K, D, p, mass_coef, grad_coef, div_coef)


def dense_matrix(A, n):
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        cols.append(A.matvec(e))
    return np.array(cols).T


def dense_step_operator(w, K, D, p, cm, ck, cd):
    """c_m diag(w) + c_k K + c_d D + w_z p_z p_z^T, assembled densely."""
    A = cm * np.diag(w) + ck * K.toarray()
    if D is not None:
        A += cd * D.toarray()
    if p is not None:
        for z in range(p.shape[1]):
            A[2 * z:2 * z + 2, 2 * z:2 * z + 2] += w[2 * z] * np.outer(p[:, z], p[:, z])
    return A


class TestStepOperator:
    @pytest.mark.parametrize("sigma", [0.0, 0.025])
    @pytest.mark.parametrize("with_p", [False, True])
    @pytest.mark.parametrize("with_div", [False, True])
    def test_matvec_and_diag_match_dense(self, with_div, with_p, sigma):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        K, D, w = assemble_stiffness(mesh), assemble_div_form(mesh), lumped_mass(mesh)
        ell = 5e-4 if with_div else 0.0
        params = replace(DEFAULT_PARAMS, L2=ell, L3=ell, sigma=sigma)
        dt = 1e-3
        rng = np.random.RandomState(21)
        op = step_operator(params, dt, K, D, w)
        # a previous step's rank-one part must be replaced, not accumulated
        op.set_rank_one(rng.uniform(-1.0, 1.0, size=(2, mesh.n_interior)))
        p = rng.uniform(-0.2, 0.2, size=(2, mesh.n_interior)) if with_p else None
        op.set_rank_one(p)

        n = 2 * mesh.n_interior
        dense = dense_step_operator(w, K, D if with_div else None, p,
                                    1.0 / dt + sigma / dt ** 2, params.L1, ell)
        scale = np.abs(dense).max()
        np.testing.assert_allclose(dense_matrix(op, n), dense, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(op.diag, np.diag(dense), rtol=1e-14)


class TestCgSolve:
    def test_zero_rhs(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        A = make_operator(mesh)
        x, iters = cg_solve(A, np.zeros(2 * mesh.n_interior))
        assert iters == 0
        assert np.all(x == 0.0)

    def test_diagonal_system_converges_in_one_iteration(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        K = assemble_stiffness(mesh)
        w = lumped_mass(mesh)
        A = StepOperator(w, K, None, None, mass_coef=50.0, grad_coef=0.0, div_coef=0.0)
        rng = np.random.RandomState(3)
        b = rng.standard_normal(2 * mesh.n_interior)
        x, iters = cg_solve(A, b)
        assert iters == 1
        assert np.allclose(x, b / (50.0 * w), rtol=1e-12)

    def test_matches_dense_solve(self):
        # 10 x 10 reduced system built from the physical operator pieces
        mesh = build_mesh(0, 6, 0, 2, 6, 2)
        assert 2 * mesh.n_interior == 10
        rng = np.random.RandomState(5)
        A = make_operator(mesh, rng=rng, mass_coef=10.0, grad_coef=0.3, div_coef=0.1)
        M = dense_matrix(A, 10)
        assert np.allclose(M, M.T, atol=1e-13)
        b = rng.standard_normal(10)
        x, _ = cg_solve(A, b, tol=1e-14)
        ref = np.linalg.solve(M, b)
        assert np.max(np.abs(x - ref)) < 1e-10

    def test_residual_contract(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        rng = np.random.RandomState(7)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.2)
        b = rng.standard_normal(2 * mesh.n_interior)
        for tol in (1e-6, 1e-10):
            x, _ = cg_solve(A, b, tol=tol)
            assert np.linalg.norm(b - A.matvec(x)) <= tol * np.linalg.norm(b)

    def test_warm_start(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        rng = np.random.RandomState(9)
        A = make_operator(mesh, rng=rng)
        b = rng.standard_normal(2 * mesh.n_interior)
        x, iters = cg_solve(A, b, tol=1e-12)
        x2, iters2 = cg_solve(A, b, tol=1e-12, x0=x)
        assert iters2 == 0
        assert np.array_equal(x, x2)

    def test_deterministic_iteration_count(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        rng = np.random.RandomState(11)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.0)
        b = rng.standard_normal(2 * mesh.n_interior)
        runs = {cg_solve(A, b, tol=1e-10)[1] for _ in range(3)}
        assert len(runs) == 1

    def test_supplied_initial_residual_is_verified(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        rng = np.random.RandomState(17)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.2)
        n = 2 * mesh.n_interior
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        exact = b - A.matvec(x0)
        x, iters = cg_solve(A, b, tol=1e-10, x0=x0, r0=exact)
        assert iters > 0
        assert np.linalg.norm(b - A.matvec(x)) <= 1e-10 * np.linalg.norm(b)
        # a wrong residual cannot end the solve early: a zero one is
        # re-checked at the start, a scaled one when the recurrence converges
        for wrong in (np.zeros(n), 1.01 * exact):
            x, _ = cg_solve(A, b, tol=1e-10, x0=x0, r0=wrong)
            assert np.linalg.norm(b - A.matvec(x)) <= 1e-10 * np.linalg.norm(b)

    def test_nonconvergence_reports_residual(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        rng = np.random.RandomState(13)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.0)
        b = rng.standard_normal(2 * mesh.n_interior)
        with pytest.raises(ConvergenceError) as info:
            cg_solve(A, b, tol=1e-14, maxiter=1)
        assert info.value.residual > 0.0
