import math
import os
import pickle
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import sparse

from qtflow.assembly import assemble_div_form, assemble_stiffness, lumped_mass
from qtflow.experiments import DEFAULT_PARAMS, Case, ExperimentConfig
from qtflow.mesh import build_mesh
from qtflow.model import aux_P, trace_q2
from qtflow.solver import ConvergenceError, StepOperator, cg_solve
import qtflow
from qtflow.stepper import step, step_operator

import oracles
from states import default_start


def make_operator(mesh, rng=None, mass_coef=100.0, grad_coef=0.01, div_coef=0.005):
    """A step operator with D when div_coef != 0, and a random rank-one
    part when rng is given (a zero one otherwise)."""
    K = assemble_stiffness(mesh)
    D = assemble_div_form(mesh) if div_coef != 0.0 else None
    w = lumped_mass(mesh)
    A = StepOperator(mesh, w, K, D, mass_coef, grad_coef, div_coef)
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
    """The operator as a dense (n, n) matrix on the flattened (2, n/2)
    vectors: component-major order."""
    cols = []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        cols.append(A.matvec(e.reshape(2, -1)).ravel())
    return np.array(cols).T


def dense_step_operator(w, K, D, p, cm, ck, cd):
    """c_m w I + c_k K + c_d D + w p_z p_z^T, assembled densely on the
    flattened (2, m) vectors: the scalar part on both diagonal blocks, the
    rank-one part as four diagonal blocks."""
    w = np.full(K.shape[0], w)
    A = cm * np.diag(w) + ck * K.toarray()
    if D is not None:
        A += cd * D.toarray()
    return np.kron(np.eye(2), A) + np.block(
        [[np.diag(w * p[c] * p[d]) for d in (0, 1)] for c in (0, 1)])


def sparse_step_operator(op):
    """The operator assembled as one sparse (2m, 2m) matrix in component-
    major order: the constant part on both diagonal blocks, the rank-one
    part as four diagonal blocks."""
    wp = op.w * op.p
    return sparse.bmat([[op.base + sparse.diags(wp[0] * op.p[0]), sparse.diags(wp[0] * op.p[1])],
                        [sparse.diags(wp[1] * op.p[0]), op.base + sparse.diags(wp[1] * op.p[1])]],
                       format="csr")


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
        op = step_operator(params, dt, mesh, K, D if with_div else None, w)
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
        np.testing.assert_allclose(op.diagonal().ravel(), np.diag(dense), rtol=1e-14)

    @pytest.mark.parametrize("extent, n", [((0.0, 2.0, 0.0, 2.0), 16),
                                           ((0.1, 1.4, 0.1, 1.4), 13)])
    @pytest.mark.parametrize("with_div", [False, True])
    def test_matvec_matches_assembled_sparse_oracle(self, extent, n, with_div):
        """matvec on (2, m) vectors against the whole operator assembled as
        one sparse matrix and applied to the flattened vector; the
        operator's sparse matrices are m x m, and op.n counts both
        components."""
        mesh = build_mesh(*extent, n, n)
        m = mesh.n_interior
        rng = np.random.RandomState(41)
        op = step_operator(replace(DEFAULT_PARAMS, L2=5e-4 * with_div, L3=5e-4 * with_div),
                           1.25e-4, mesh, assemble_stiffness(mesh),
                           assemble_div_form(mesh) if with_div else None, lumped_mass(mesh))
        op.set_rank_one(rng.uniform(-0.2, 0.2, size=(2, m)))
        assert op.n == 2 * m
        assert all(M.shape == (m, m) for M in (op.K, op.base))
        x = rng.standard_normal((2, m))
        ref = sparse_step_operator(op) @ x.ravel()
        y = op.matvec(x)
        assert y.shape == (2, m) and y.flags.c_contiguous
        assert np.max(np.abs(y.ravel() - ref)) <= 1e-15 * np.max(np.abs(ref))
        # the constant part alone, bit for bit
        op.set_rank_one(np.zeros((2, m)))
        assert np.array_equal(op.matvec(x).ravel(), sparse_step_operator(op) @ x.ravel())


#: (extent, nx, ny) of lattices one interior node wide or tall, where the
#: +-1 and +-width offsets of the stencil coincide or leave the matrix.
THIN_MESHES = (
    ((0.0, 2.0, 0.0, 2.0), 2, 2),
    ((0.0, 2.0, 0.0, 9.0), 2, 9),
    ((0.0, 9.0, 0.0, 2.0), 9, 2),
    ((0.0, 6.0, 0.0, 2.0), 6, 2),
)


@pytest.mark.parametrize("nx", [4, 128])
def test_one_pass_products_have_the_two_ufunc_bits(nx):
    """project() and trace_q2 form p . x and 2 (q1 q1 + q2 q2) in one
    einsum pass, which starts each sum from +0.0.  Compared through int64
    views with the two-ufunc forms p[0] * x[0] + p[1] * x[1] and
    2.0 * (q[0] * q[0] + q[1] * q[1]), every bit is equal but one case:
    where both products are -0, the ufuncs give (-0) + (-0) = -0 and
    einsum +0.0 + (-0) + (-0) = +0.  That is every node of a run from
    initial = zero with a < 0, whose P(0) = (a + c tr(0)) 0 / r is -0."""
    mesh = build_mesh(0, 2, 0, 2, nx, nx)
    m = mesh.n_interior
    rng = np.random.RandomState(nx)
    A = make_operator(mesh)
    bits = lambda a: a.view(np.int64)

    def with_zeros(a):
        a[rng.uniform(size=a.shape) < 0.2] = 0.0
        a[rng.uniform(size=a.shape) < 0.2] = -0.0
        return a

    P_zero = aux_P(np.zeros((2, m)), DEFAULT_PARAMS)
    assert DEFAULT_PARAMS.a < 0.0 and np.all(np.signbit(P_zero) & (P_zero == 0.0))
    pairs = [(rng.standard_normal((2, m)), rng.standard_normal((2, m))),
             (with_zeros(rng.standard_normal((2, m))),
              with_zeros(rng.standard_normal((2, m)))),
             (P_zero, np.zeros((2, m)))]
    for p, x in pairs:
        A.set_rank_one(p)
        ref = p[0] * x[0] + p[1] * x[1]
        got = A.project(x)
        both = np.signbit(p * x).all(axis=0) & (p * x == 0.0).all(axis=0)
        assert np.array_equal(bits(got)[~both], bits(ref)[~both])
        assert np.all(bits(got)[both] == 0) and np.all(bits(ref)[both] == np.int64(-2 ** 63))
        for q in (p, x):
            assert np.array_equal(bits(trace_q2(q)),
                                  bits(2.0 * (q[0] * q[0] + q[1] * q[1])))
    assert both.all()  # the initial = zero case


class TestConstantPart:
    """The constant part is a DIA matrix whose product is bit-equal to that
    of the CSR sum diags(c_m w) + c K, c = c_k (+ c_d with D), on any
    mesh: it makes the same additions in the same order.  The coefficients
    are fine_run's and space_aniso's."""

    @pytest.mark.parametrize("with_div", [False, True])
    @pytest.mark.parametrize("extent, nx, ny", [
        ((0.0, 2.0, 0.0, 2.0), n, n) for n in oracles.DYADIC_SIZES
    ] + list(oracles.NON_DYADIC_MESHES) + list(THIN_MESHES))
    def test_bitwise_against_sparse_sum(self, extent, nx, ny, with_div):
        """Products of random vectors with +-0 entries, compared as bits,
        and the operator's diagonal; the offsets ascend, so that each row
        sums in K's column order, and no stored diagonal is all zeros."""
        mesh = build_mesh(*extent, nx, ny)
        m = mesh.n_interior
        K, D, w = assemble_stiffness(mesh), assemble_div_form(mesh), lumped_mass(mesh)
        cm, ck, cd = 1.0 / 1.25e-4 + 0.025 / 1.25e-4 ** 2, 1e-3, 5e-4
        op = StepOperator(mesh, w, K, D if with_div else None, cm, ck, cd)
        op.set_rank_one(np.zeros((2, m)))
        ref = (sparse.diags(np.full(m, cm * w), format="csr")
               + (ck + cd if with_div else ck) * K)
        assert isinstance(op.base, sparse.dia_matrix) and op.base.shape == (m, m)
        assert np.all(np.diff(op.base.offsets) > 0)
        assert np.all(np.any(op.base.data != 0.0, axis=1))
        rng = np.random.RandomState(53)
        for _ in range(3):
            x = rng.standard_normal(m)
            x[rng.uniform(size=m) < 0.2] = 0.0
            x[rng.uniform(size=m) < 0.2] = -0.0
            assert np.array_equal((op.base @ x).view(np.int64),
                                  (ref @ x).view(np.int64))
        assert np.array_equal(op.diagonal(), [ref.diagonal()] * 2)

    STORAGE_MESHES = [((0.0, 2.0, 0.0, 2.0), 16, 16),
                      ((0.0, 3.0, 0.0, 1.0), 30, 10)] + list(THIN_MESHES)

    def check_storage(self, with_div):
        """The constant part holds its diagonals and their offsets only: at
        most five values per interior node, about as many as the CSR copy
        of K stored, and no column indices or row pointers, which took
        about 1.6 MB at 256^2."""
        for extent, nx, ny in self.STORAGE_MESHES:
            mesh = build_mesh(*extent, nx, ny)
            K, D = assemble_stiffness(mesh), assemble_div_form(mesh)
            op = StepOperator(mesh, lumped_mass(mesh), K, D if with_div else None,
                              8e3, 1e-3, 5e-4)
            assert not any(hasattr(op.base, name) for name in ("indices", "indptr"))
            assert op.base.data.shape[0] == op.base.offsets.size <= 5
            assert op.base.data.size <= 5 * mesh.n_interior

    def test_stores_no_index_array_without_D(self):
        self.check_storage(with_div=False)

    def test_stores_no_index_array_with_D(self):
        self.check_storage(with_div=True)


class TestDivFormCheck:
    """The operator takes D x to be K x, so a D that is not K entry for
    entry is refused when the operator is built."""

    def build(self, D):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        return StepOperator(mesh, lumped_mass(mesh), assemble_stiffness(mesh), D,
                            8e3, 1e-3, 5e-4)

    def test_one_perturbed_entry_raises(self):
        D = assemble_div_form(build_mesh(0, 2, 0, 2, 6, 6)).copy()  # K is read-only
        D.data[7] *= 1.0 + 2.0 ** -52
        with pytest.raises(ValueError, match="must equal the stiffness"):
            self.build(D)

    def test_distinct_copy_is_accepted(self):
        """A D that is not K itself is compared entry for entry, and an
        equal copy passes."""
        D = assemble_div_form(build_mesh(0, 2, 0, 2, 6, 6)).copy()
        op = self.build(D)
        assert op.D is op.K is not D
        assert op.c == 1e-3 + 5e-4

    def test_other_structure_raises(self):
        D = assemble_div_form(build_mesh(0, 2, 0, 2, 6, 6)).tolil()
        D[0, D.shape[1] - 1] = 1.0  # one more stored entry
        with pytest.raises(ValueError, match="must equal the stiffness"):
            self.build(D.tocsr())


class TestCgSolve:
    def test_zero_rhs(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        A = make_operator(mesh)
        x, iters = solve(A, np.zeros((2, mesh.n_interior)))
        assert iters == 0
        assert np.all(x == 0.0)

    def test_diagonal_system_converges_in_one_iteration(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        K = assemble_stiffness(mesh)
        w = lumped_mass(mesh)
        A = StepOperator(mesh, w, K, None, 50.0, 0.0, 0.0)
        A.set_rank_one(np.zeros((2, mesh.n_interior)))
        rng = np.random.RandomState(3)
        b = rng.standard_normal((2, mesh.n_interior))
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
        b = rng.standard_normal((2, 5))
        x, _ = solve(A, b, tol=1e-14)
        ref = np.linalg.solve(M, b.ravel())
        assert np.max(np.abs(x.ravel() - ref)) < 1e-10

    def test_residual_contract(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        rng = np.random.RandomState(7)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.2)
        b = rng.standard_normal((2, mesh.n_interior))
        for tol in (1e-6, 1e-10):
            x, _ = solve(A, b, tol=tol)
            assert np.linalg.norm(b - A.matvec(x)) <= tol * np.linalg.norm(b)

    def test_warm_start(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        rng = np.random.RandomState(9)
        A = make_operator(mesh, rng=rng)
        b = rng.standard_normal((2, mesh.n_interior))
        x, iters = solve(A, b, tol=1e-12)
        x2, iters2 = solve(A, b, tol=1e-12, x0=x, r0=A.residual(b, x))
        assert iters2 == 0
        assert np.array_equal(x, x2)

    def test_deterministic_iteration_count(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        rng = np.random.RandomState(11)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.0)
        b = rng.standard_normal((2, mesh.n_interior))
        runs = {solve(A, b, tol=1e-10)[1] for _ in range(3)}
        assert len(runs) == 1

    def test_supplied_initial_residual_is_verified(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        rng = np.random.RandomState(17)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.2)
        n = (2, mesh.n_interior)
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
        n = (2, mesh.n_interior)
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        r0 = 1.01 * (b - A.matvec(x0))
        calls = {"matvec": 0, "residual": 0}

        def counted(name):
            method = getattr(A, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
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
        n = (2, mesh.n_interior)
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        kept = x0.copy()
        for r0 in (b - A.matvec(x0), np.zeros(n)):  # the second is wrong
            x, iters = solve(A, b, tol=1e-10, x0=x0, r0=r0)
            assert iters > 0
            assert np.array_equal(x0, kept)
            assert np.array_equal(A.dir, (A.K @ x.T).T)

    def test_a_solve_allocates_only_its_x(self):
        """The Jacobi diagonal, z and A p live in A.tmp and a confirmation's
        K x in A.dir, so the only vector a solve allocates is the x it
        returns.  Traced at 128^2 over 20 iterations, from the right r0 and
        from a wrong one (a rejected confirmation and a restart): 1.51 and
        1.50 n-vectors, x and the m-vector of one sparse product.  It was
        2.51 and 3.50 while a solve formed its own diagonal and each
        confirmation a new K x."""
        mesh = build_mesh(0, 2, 0, 2, 128, 128)
        rng = np.random.RandomState(5)
        A = make_operator(mesh, rng=rng)
        b = rng.standard_normal((2, mesh.n_interior))
        for r0 in (b.copy(), np.zeros_like(b)):
            x0 = np.zeros_like(b)
            tracemalloc.start()
            try:
                x, iters = cg_solve(A, b, x0, r0)
                peak = tracemalloc.get_traced_memory()[1] / (8 * b.size)
            finally:
                tracemalloc.stop()
            assert iters > 0 and peak <= 1.6
            assert np.array_equal(A.dir, (A.K @ x.T).T)

    def test_zero_rhs_keeps_products_of_returned_x(self):
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        rng = np.random.RandomState(23)
        A = make_operator(mesh, rng=rng)
        n = (2, mesh.n_interior)
        A.residual(np.zeros(n), rng.standard_normal(n))  # products of another x
        x0 = rng.standard_normal(n)
        kept = x0.copy()
        x, iters = solve(A, np.zeros(n), x0=x0, r0=-A.matvec(x0))
        assert iters == 0 and np.all(x == 0.0)
        assert np.array_equal(x0, kept)
        assert np.all(A.dir == 0.0)

    def test_residual_matches_matvec(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        rng = np.random.RandomState(29)
        for div_coef in (0.0, 0.2):
            A = make_operator(mesh, rng=rng, mass_coef=3.0, grad_coef=1.0,
                              div_coef=div_coef)
            x = rng.standard_normal((2, mesh.n_interior))
            b = rng.standard_normal(x.shape)
            ref = b - A.matvec(x)
            assert np.max(np.abs(A.residual(b, x) - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert np.array_equal(A.dir, (A.K @ x.T).T)
            # L = c K: c_d joins c exactly when D is given
            assert A.c == (1.0 if A.D is None else 1.0 + div_coef)
            assert (A.D is None) == (div_coef == 0.0)
            assert A.D is None or A.D is A.K  # one matrix kept for both

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_rhs_raises_at_once(self, bad):
        """An inf entry made the limit infinite, so x0 came back as if
        converged; a NaN one ran to maxiter.  Either raises before any
        product."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        A = make_operator(mesh, mass_coef=8e3, grad_coef=1e-3, div_coef=0.0)
        b = np.random.RandomState(31).standard_normal((2, mesh.n_interior))
        b[1, 5] = bad
        A.matvec = A.residual = lambda *args: pytest.fail("a product was made")
        with pytest.raises(ConvergenceError, match="non-finite right-hand side"):
            solve(A, b)

    def test_nan_initial_residual_restarts(self):
        """A NaN r0 is not below the limit either, so the true residual
        replaces it and CG converges instead of running to maxiter."""
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        A = make_operator(mesh, mass_coef=8e3, grad_coef=1e-3, div_coef=0.0)
        b = np.random.RandomState(37).standard_normal((2, mesh.n_interior))
        x, iters = solve(A, b, r0=np.full_like(b, np.nan))
        assert 0 < iters <= 5
        assert np.linalg.norm(b - A.matvec(x)) <= 1e-10 * np.linalg.norm(b)

    def test_nonconvergence_reports_residual(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        rng = np.random.RandomState(13)
        A = make_operator(mesh, rng=rng, mass_coef=1.0, grad_coef=1.0, div_coef=0.0)
        b = rng.standard_normal((2, mesh.n_interior))
        with pytest.raises(ConvergenceError) as info:
            solve(A, b, tol=1e-14, maxiter=1)
        assert info.value.residual > 0.0

    def test_default_maxiter_counts_both_components(self):
        """The default maxiter is 10 per unknown, 10 * 2m on a (2, m) rhs:
        taken from the rows (rhs.shape[0] == 2) it would give up after 20
        iterations.  An unreachable tolerance runs them all, one matvec
        each, before it raises."""
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        A = make_operator(mesh, rng=np.random.RandomState(43), mass_coef=1.0,
                          grad_coef=1.0, div_coef=0.0)
        b = np.random.RandomState(47).standard_normal((2, mesh.n_interior))
        matvec, calls = A.matvec, []
        A.matvec = lambda x, out=None: calls.append(None) or matvec(x, out)
        with pytest.raises(ConvergenceError, match="in 180 iterations"):
            solve(A, b, tol=1e-20)  # below the rounding floor of the true residual
        assert len(calls) == 10 * b.size == 180

    def test_underflowing_curvature_raises_a_convergence_error(self):
        """A limit far below the rounding floor: the recurrence shrinks r
        and the direction until p.Ap underflows to 0, where alpha divided
        by zero.  It is the solver's error, raised before maxiter."""
        mesh = build_mesh(0, 2, 0, 2, 4, 4)
        A = make_operator(mesh, rng=np.random.RandomState(43), mass_coef=1.0,
                          grad_coef=1.0, div_coef=0.0)
        b = np.random.RandomState(47).standard_normal((2, mesh.n_interior))
        with pytest.raises(ConvergenceError, match="did not converge") as info:
            solve(A, b, tol=1e-300)
        assert info.value.residual < 1e-15
        assert "in 180 iterations" not in str(info.value)  # 10 * b.size


def test_convergence_error_pickles_whole():
    """A study's process pool pickles a worker's error: it must come back
    with its message and every field (it raised TypeError on unpickling
    while residual had no default)."""
    case = Case(ExperimentConfig(nx=16, ny=16, dt=1e-3), pert_q0=0.25)
    err = ConvergenceError("case: step 1 (t = 0.001): CG did not converge",
                           1e-17, step=1, t=1e-3, case=case)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is ConvergenceError and str(back) == str(err)
    assert (back.residual, back.step, back.t, back.case) == (1e-17, 1, 1e-3, case)
    bare = pickle.loads(pickle.dumps(ConvergenceError("non-finite right-hand side")))
    assert math.isnan(bare.residual) and (bare.step, bare.t, bare.case) == (None,) * 3


def test_no_interleaved_layout_in_the_solver():
    """Vectors are component-major (2, m) and the sparse forms m x m: no
    stride-2 slice of an interleaved vector is left in the package, and the
    operator of an anisotropic run holds m x m matrices, (2, m) work
    vectors and the lumped weight as one float; the mesh holds no array.
    Nodal fields are component-major too, (2, N) and (N,), and a state
    holds no boundary value."""
    package = os.path.dirname(qtflow.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as handle:
                text = handle.read()
            assert "0::2" not in text and "1::2" not in text, name
    mesh = build_mesh(0, 2, 0, 2, 8, 8)
    m = mesh.n_interior
    params = replace(DEFAULT_PARAMS, L2=5e-4, L3=5e-4)
    state, op = default_start(mesh, params, 1e-3)
    state = step(state, params, 1e-3, op)
    assert op.K.shape == op.base.shape == (m, m) and op.D is op.K
    assert type(op.w) is float and op.n == 2 * m
    assert mesh.gamma > 0.0 and mesh.boundary_weight > 0.0  # cached on the mesh
    assert not any(isinstance(v, np.ndarray) for v in vars(mesh).values())
    for x in (op.diagonal(), op.rhs, op.res, state.q, state.dq, state.Kq):
        assert x.shape == (2, m) and x.flags.c_contiguous
    for x, shape in ((state.q, (2, mesh.n_nodes)), (state.r, (mesh.n_nodes,))):
        field = oracles.nodal(mesh, x)
        assert field.shape == shape and field.flags.c_contiguous
    assert {f.name for f in fields(state)} == {"q", "dq", "r", "Kq", "n"}
