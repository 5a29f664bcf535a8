import os
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import sparse

from qtflow.assembly import assemble_div_form, assemble_stiffness, lumped_mass
from qtflow.experiments import DEFAULT_PARAMS
from qtflow.mesh import build_mesh
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
        np.testing.assert_allclose(op.diag.ravel(), np.diag(dense), rtol=1e-14)

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
                           1.25e-4, assemble_stiffness(mesh),
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


class TestConstantPart:
    """The constant part is bit-equal to the sum of the sparse matrices
    diags(c_m w) + c K, c = c_k (+ c_d with D), indices and values, with
    the same diagonal, on any mesh: it makes the same additions.  The
    coefficients are fine_run's and space_aniso's."""

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
        ref = (sparse.diags(np.full(mesh.n_interior, cm * w), format="csr")
               + (ck + cd if with_div else ck) * K)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op.base, name), getattr(ref, name)), name
        assert np.array_equal(op.diag, [ref.diagonal()] * 2)

    def test_shares_the_index_arrays_of_K_without_D(self):
        """The constant part stores no index arrays of its own when D is
        None: about 3 MB at 256^2."""
        mesh = build_mesh(0, 2, 0, 2, 16, 16)
        K = assemble_stiffness(mesh)
        op = StepOperator(lumped_mass(mesh), K, None, 8e3, 1e-3, 0.0)
        assert np.shares_memory(op.base.indices, K.indices)
        assert np.shares_memory(op.base.indptr, K.indptr)

    def test_shares_the_index_arrays_of_K_with_D(self):
        """c_d D joins the constant c of the copy of K, not a sparse sum,
        which would make new index arrays."""
        mesh = build_mesh(0, 2, 0, 2, 16, 16)
        K, D = assemble_stiffness(mesh), assemble_div_form(mesh)
        op = StepOperator(lumped_mass(mesh), K, D, 8e3, 1e-3, 5e-4)
        assert np.shares_memory(op.base.indices, K.indices)
        assert np.shares_memory(op.base.indptr, K.indptr)


class TestDivFormCheck:
    """The operator takes D x to be K x, so a D that is not K entry for
    entry is refused when the operator is built."""

    def build(self, D):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        return StepOperator(lumped_mass(mesh), assemble_stiffness(mesh), D,
                            8e3, 1e-3, 5e-4)

    def test_one_perturbed_entry_raises(self):
        D = assemble_div_form(build_mesh(0, 2, 0, 2, 6, 6))
        D.data[7] *= 1.0 + 2.0 ** -52
        with pytest.raises(ValueError, match="must equal the stiffness"):
            self.build(D)

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
        A = StepOperator(w, K, None, 50.0, 0.0, 0.0)
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
        n = (2, mesh.n_interior)
        b = rng.standard_normal(n)
        x0 = rng.standard_normal(n)
        kept = x0.copy()
        for r0 in (b - A.matvec(x0), np.zeros(n)):  # the second is wrong
            x, iters = solve(A, b, tol=1e-10, x0=x0, r0=r0)
            assert iters > 0
            assert np.array_equal(x0, kept)
            assert np.array_equal(A.Kx, (A.K @ x.T).T)

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
        assert np.all(A.Kx == 0.0)

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
            assert np.array_equal(A.Kx, (A.K @ x.T).T)
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
        A.matvec = lambda x: calls.append(None) or matvec(x)
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
    for x in (op.diag, op.rhs, op.res, state.q, state.dq, state.Kq):
        assert x.shape == (2, m) and x.flags.c_contiguous
    for x, shape in ((state.q, (2, mesh.n_nodes)), (state.r, (mesh.n_nodes,))):
        field = mesh.nodal(x)
        assert field.shape == shape and field.flags.c_contiguous
    assert {f.name for f in fields(state)} == {"q", "dq", "r", "Kq", "n", "t"}
