from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from qtflow.assembly import assemble_div_form, assemble_stiffness, lumped_mass
from qtflow.experiments import DEFAULT_PARAMS
from qtflow.mesh import build_mesh
from qtflow.solver import ConvergenceError, StepOperator, cg_solve
from qtflow.stepper import step_operator

import oracles


def make_operator(mesh, rng=None, mass_coef=100.0, grad_coef=0.01, div_coef=0.005):
    """A step operator with D when div_coef != 0, and a random rank-one
    part when rng is given (a zero one otherwise)."""
    K = assemble_stiffness(mesh)
    D = assemble_div_form(mesh) if div_coef != 0.0 else None
    w = lumped_mass(mesh)
    A = StepOperator(w, K, D, mass_coef, grad_coef, div_coef)
    p = np.zeros((2, mesh.n_interior))
    if rng is not None:
        p = rng.uniform(-0.2, 0.2, size=(2, mesh.n_interior))
    A.set_rank_one(p)
    return A


def solve(A, b, **kw):
    """cg_solve from x0 = 0 with its residual r0 = b, unless kw gives them."""
    kw.setdefault("x0", np.zeros_like(b))
    kw.setdefault("r0", b.copy())
    return cg_solve(A, b, **kw)


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
        op = step_operator(params, dt, K, D if with_div else None, w)
        # a previous step's rank-one part must be replaced, not accumulated
        op.set_rank_one(rng.uniform(-1.0, 1.0, size=(2, mesh.n_interior)))
        p = np.zeros((2, mesh.n_interior))
        if with_p:
            p = rng.uniform(-0.2, 0.2, size=(2, mesh.n_interior))
        op.set_rank_one(p)

        n = 2 * mesh.n_interior
        dense = dense_step_operator(w, K, D if with_div else None, p,
                                    1.0 / dt + sigma / dt ** 2, params.L1, ell)
        scale = np.abs(dense).max()
        np.testing.assert_allclose(dense_matrix(op, n), dense, rtol=0, atol=1e-14 * scale)
        np.testing.assert_allclose(op.diag, np.diag(dense), rtol=1e-14)


class TestConstantPart:
    """The constant part is bit-equal to the sum of the sparse matrices
    diags(c_m w) + c_k K (+ c_d D), indices and values, with the same
    diagonal, on any mesh: it makes the same additions.  The coefficients
    are fine_run's and space_aniso's."""

    @pytest.mark.parametrize("with_div", [False, True])
    @pytest.mark.parametrize("extent, nx, ny", [
        ((0.0, 2.0, 0.0, 2.0), n, n) for n in oracles.DYADIC_SIZES
    ] + list(oracles.NON_DYADIC_MESHES))
    def test_bitwise_against_sparse_sum(self, extent, nx, ny, with_div):
        mesh = build_mesh(*extent, nx, ny)
        K, D, w = assemble_stiffness(mesh), assemble_div_form(mesh), lumped_mass(mesh)
        cm, ck, cd = 1.0 / 1.25e-4 + 0.025 / 1.25e-4 ** 2, 1e-3, 5e-4
        op = StepOperator(w, K, D if with_div else None, cm, ck, cd)
        op.set_rank_one(np.zeros((2, mesh.n_interior)))
        ref = sparse.diags(cm * w, format="csr") + ck * K
        if with_div:
            ref = ref + cd * D
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op.base, name), getattr(ref, name)), name
        assert np.array_equal(op.diag, ref.diagonal())


class TestCgSolve:
    def test_zero_rhs(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        A = make_operator(mesh)
        x, iters = solve(A, np.zeros(2 * mesh.n_interior))
        assert iters == 0
        assert np.all(x == 0.0)

    def test_diagonal_system_converges_in_one_iteration(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        K = assemble_stiffness(mesh)
        w = lumped_mass(mesh)
        A = StepOperator(w, K, None, 50.0, 0.0, 0.0)
        A.set_rank_one(np.zeros((2, mesh.n_interior)))
        rng = np.random.RandomState(3)
        b = rng.standard_normal(2 * mesh.n_interior)
        x, iters = solve(A, b)
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
        x, _ = solve(A, b, tol=1e-14)
        ref = np.linalg.solve(M, b)
        assert np.max(np.abs(x - ref)) < 1e-10

    def test_residual_contract(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        rng = np.random.RandomState(7)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.2)
        b = rng.standard_normal(2 * mesh.n_interior)
        for tol in (1e-6, 1e-10):
            x, _ = solve(A, b, tol=tol)
            assert np.linalg.norm(b - A.matvec(x)) <= tol * np.linalg.norm(b)

    def test_warm_start(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        rng = np.random.RandomState(9)
        A = make_operator(mesh, rng=rng)
        b = rng.standard_normal(2 * mesh.n_interior)
        x, iters = solve(A, b, tol=1e-12)
        x2, iters2 = solve(A, b, tol=1e-12, x0=x, r0=A.residual(b, x))
        assert iters2 == 0
        assert np.array_equal(x, x2)

    def test_deterministic_iteration_count(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        rng = np.random.RandomState(11)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.0)
        b = rng.standard_normal(2 * mesh.n_interior)
        runs = {solve(A, b, tol=1e-10)[1] for _ in range(3)}
        assert len(runs) == 1

    def test_supplied_initial_residual_is_verified(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        rng = np.random.RandomState(17)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.2)
        n = 2 * mesh.n_interior
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        exact = b - A.matvec(x0)
        x, iters = solve(A, b, tol=1e-10, x0=x0, r0=exact.copy())  # r0 is consumed
        assert iters > 0
        assert np.linalg.norm(b - A.matvec(x)) <= 1e-10 * np.linalg.norm(b)
        # a wrong residual cannot end the solve early: a zero one is
        # re-checked at the start, a scaled one when the recurrence converges
        for wrong in (np.zeros(n), 1.01 * exact):
            x, _ = solve(A, b, tol=1e-10, x0=x0, r0=wrong)
            assert np.linalg.norm(b - A.matvec(x)) <= 1e-10 * np.linalg.norm(b)

    def test_restart_makes_one_matvec_per_iteration(self):
        """r0 = 1.01 times the true residual: the recurrence meets the limit
        on the wrong residual, the confirmation rejects it, and CG restarts
        from the true residual it formed, with no product of its own."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        rng = np.random.RandomState(17)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.2)
        n = 2 * mesh.n_interior
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        r0 = 1.01 * (b - A.matvec(x0))
        calls = {"matvec": 0, "residual": 0}

        def counted(name):
            method = getattr(A, name)

            def call(*args):
                calls[name] += 1
                return method(*args)
            return call

        A.matvec, A.residual = counted("matvec"), counted("residual")
        x, iters = solve(A, b, tol=1e-10, x0=x0, r0=r0)
        assert calls["residual"] == 2  # one rejected confirmation, one kept
        assert calls["matvec"] == iters
        assert np.linalg.norm(A.residual(b, x)) <= 1e-10 * np.linalg.norm(b)

    def test_x0_never_written_and_products_of_x_kept(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        rng = np.random.RandomState(19)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.2)
        n = 2 * mesh.n_interior
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        kept = x0.copy()
        for r0 in (b - A.matvec(x0), np.zeros(n)):  # the second is wrong
            x, iters = solve(A, b, tol=1e-10, x0=x0, r0=r0)
            assert iters > 0
            assert np.array_equal(x0, kept)
            assert np.array_equal(A.Kx, A.K @ x)
            assert np.array_equal(A.Lx, A.ck * A.Kx + A.cd * (A.D @ x))

    def test_zero_rhs_keeps_products_of_returned_x(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        rng = np.random.RandomState(23)
        A = make_operator(mesh, rng=rng)
        n = 2 * mesh.n_interior
        A.residual(np.zeros(n), rng.standard_normal(n))  # products of another x
        x0 = rng.standard_normal(n)
        kept = x0.copy()
        x, iters = solve(A, np.zeros(n), x0=x0, r0=-A.matvec(x0))
        assert iters == 0 and np.all(x == 0.0)
        assert np.array_equal(x0, kept)
        for product in (A.Kx, A.Lx):
            assert np.all(product == 0.0)

    def test_residual_matches_matvec(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        rng = np.random.RandomState(29)
        for div_coef in (0.0, 0.2):
            A = make_operator(mesh, rng=rng, mass_coef=3.0, grad_coef=1.0,
                              div_coef=div_coef)
            x = rng.standard_normal(2 * mesh.n_interior)
            b = rng.standard_normal(x.shape[0])
            ref = b - A.matvec(x)
            assert np.max(np.abs(A.residual(b, x) - ref)) <= 1e-13 * np.max(np.abs(ref))
            # the D product is taken exactly when D is given
            Lx = A.ck * A.Kx if A.D is None else A.ck * A.Kx + A.cd * (A.D @ x)
            assert np.array_equal(A.Lx, Lx)
            assert (A.D is None) == (div_coef == 0.0)

    def test_nonconvergence_reports_residual(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        rng = np.random.RandomState(13)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.0)
        b = rng.standard_normal(2 * mesh.n_interior)
        with pytest.raises(ConvergenceError) as info:
            solve(A, b, tol=1e-14, maxiter=1)
        assert info.value.residual > 0.0
