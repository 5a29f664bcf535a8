import tracemalloc

import numpy as np
import pytest

from qtflow.assembly import (
    assemble_div_form,
    assemble_stiffness,
    consistent_mass,
    lumped_mass,
    scalar_stiffness,
)
from qtflow.analysis import norm_forms
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
        index = oracles.interior_index(mesh)
        for node in mesh.interior_nodes:
            u = index[node]
            row = K.getrow(2 * u).toarray().ravel()
            assert row[2 * u] == pytest.approx(4.0, abs=1e-13)
            for neighbor in (node - 1, node + 1, node - stride, node + stride):
                v = index[neighbor]
                if v >= 0:
                    assert row[2 * v] == pytest.approx(-1.0, abs=1e-13)
                    assert row[2 * v + 1] == 0.0  # components never couple
            for diag in (node + stride + 1, node - stride - 1):
                v = index[diag]
                if v >= 0:
                    assert abs(row[2 * v]) < 1e-13

    def test_element_assembly_oracle(self):
        mesh = build_mesh(0, 1, 0, 1, 4, 4)
        K = scalar_stiffness(mesh).toarray()
        ref = np.zeros_like(K)
        for tri in oracles.triangles(mesh):
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


@pytest.mark.parametrize("extent, nx, ny", oracles.NON_DYADIC_MESHES + (
    ((0.0, 2.0, 0.0, 2.0), 2, 2), ((0.0, 2.0, 0.0, 1.0), 16, 8)))
def test_stiffness_stores_five_entries_per_row_less_the_boundary(extent, nx, ny):
    """The count the mesh size bound of the experiments relies on: the
    diagonal offsets cancel on every mesh, not only the dyadic ones."""
    ni, nj = nx - 1, ny - 1
    assert assemble_stiffness(build_mesh(*extent, nx, ny)).nnz == 2 * (
        5 * ni * nj - 2 * ni - 2 * nj)


def assert_same_csr(A, B):
    assert A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(B, name)), name


class TestStencilMatchesElementAssembly:
    # dyadic cell sizes and origins: node coordinates are exact binary
    # numbers, so every cell's element matrices are identical
    @pytest.mark.parametrize("extent, n", [
        ((0.0, 0.25, 0.0, 0.25), 2),
        ((0.0, 0.375, 0.0, 0.375), 3),
        ((0.0, 2.125, 0.0, 2.125), 17),
        ((0.0, 2.0, 0.0, 2.0), 64),
        ((-1.0, 1.0, -1.0, 1.0), 16),
    ] + [((0.0, 2.0, 0.0, 2.0), n) for n in oracles.DYADIC_SIZES if n != 64])
    def test_bitwise_on_dyadic_meshes(self, extent, n):
        mesh = build_mesh(*extent, n, n)
        assert_same_csr(assemble_stiffness(mesh), oracles.interior_stiffness_by_elements(mesh))
        # the divergence oracle's triplets take about 300 MB at 256^2;
        # there TestDivFormEqualsStiffness ties D to the stiffness bit for bit
        if n <= 128:
            assert_same_csr(assemble_div_form(mesh), oracles.div_form_by_elements(mesh))

    def test_roundoff_on_non_dyadic_mesh(self):
        mesh = build_mesh(0, 1, 0, 1, 3, 3)  # h = 1/3
        for A, ref in ((assemble_stiffness(mesh), oracles.interior_stiffness_by_elements(mesh)),
                       (assemble_div_form(mesh), oracles.div_form_by_elements(mesh))):
            ref = ref.toarray()
            assert np.max(np.abs(A.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestNormFormsMatchElementAssembly:
    @pytest.mark.parametrize("n", oracles.DYADIC_SIZES)
    def test_bitwise_on_dyadic_meshes(self, n):
        mesh = build_mesh(0.0, 2.0, 0.0, 2.0, n, n)
        assert_same_csr(consistent_mass(mesh), oracles.consistent_mass_by_elements(mesh))
        assert_same_csr(scalar_stiffness(mesh), oracles.scalar_stiffness_by_elements(mesh))


# Largest |lattice - element| over max |element|, in units of the machine
# epsilon, as measured on the meshes in order: stiffness and divergence form
# 1.5, 4.6, 2.5; consistent mass 3.8, 9.0, 5.5; all-node stiffness 1.5, 4.6,
# 2.5.
@pytest.mark.parametrize("extent, nx, ny", oracles.NON_DYADIC_MESHES)
def test_lattice_roundoff_on_non_dyadic_meshes(extent, nx, ny):
    mesh = build_mesh(*extent, nx, ny)
    for build, oracle in ((assemble_stiffness, oracles.interior_stiffness_by_elements),
                          (assemble_div_form, oracles.div_form_by_elements),
                          (consistent_mass, oracles.consistent_mass_by_elements),
                          (scalar_stiffness, oracles.scalar_stiffness_by_elements)):
        ref = oracle(mesh).toarray()
        deviation = np.max(np.abs(build(mesh).toarray() - ref)) / np.max(np.abs(ref))
        assert deviation <= 16 * np.finfo(float).eps, build.__name__


def csr_bytes(*matrices):
    return sum(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes for A in matrices)


@pytest.mark.parametrize("build", [
    lambda mesh: tuple(norm_forms(mesh)),
    lambda mesh: (assemble_stiffness(mesh),),
], ids=["norm_forms", "assemble_stiffness"])
def test_setup_transients_stay_below_the_result_size(build):
    """At 128^2 the traced peak of a build, its result included, stays
    within twice the bytes of the matrices it returns: the lattice builds
    hold no more than one result's worth of temporaries.  Measured 1.71x
    (norm forms) and 1.65x (stiffness); the element COO assembly of the
    norm forms peaked at 6.12x, the (n, 14) int64 stencil temporaries at
    2.77x."""
    mesh = build_mesh(0.0, 2.0, 0.0, 2.0, 128, 128)
    build(mesh)  # first-call allocations are not set-up transients
    tracemalloc.start()
    try:
        result = build(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * csr_bytes(*result)


class TestDivFormEqualsStiffness:
    """On the interior (zero boundary trace) the tensor divergence form is
    the vector stiffness: its cross terms d1 q1 d2 q2 form a discrete null
    Lagrangian and cancel on every interior edge."""

    @pytest.mark.parametrize("extent, nx, ny", [
        ((0.0, 2.0, 0.0, 2.0), 4, 4),
        ((0.0, 2.0, 0.0, 2.0), 16, 16),
        ((0.0, 2.0, 0.0, 2.0), 128, 128),
        ((0.0, 2.0, 0.0, 2.0), 256, 256),
        ((-1.0, 1.0, -1.0, 1.0), 7, 7),
        ((0.0, 3.0, 0.0, 1.0), 30, 10),
        ((0.1, 1.4, -0.3, 1.0), 13, 13),
    ])
    def test_bitwise(self, extent, nx, ny):
        mesh = build_mesh(*extent, nx, ny)
        assert_same_csr(assemble_div_form(mesh), assemble_stiffness(mesh))

    @pytest.mark.parametrize("extent, n", [
        ((0.0, 2.0, 0.0, 2.0), 16),
        ((-1.0, 1.0, -1.0, 1.0), 7),
        ((0.1, 1.4, -0.3, 1.0), 13),
    ])
    def test_element_oracles_agree_to_roundoff(self, extent, n):
        mesh = build_mesh(*extent, n, n)
        K = oracles.interior_stiffness_by_elements(mesh).toarray()
        D = oracles.div_form_by_elements(mesh).toarray()
        assert np.max(np.abs(D - K)) <= 1e-15 * np.max(np.abs(K))


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
        assert oracles.alpha_pairing(mesh, Z, Z) == 0.0

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
                pair = oracles.alpha_pairing(mesh, W1, W2)
                assert pair + 2.0 * div_val == pytest.approx(
                    0.0, abs=1e-12 * max(1.0, abs(pair)))

    def test_nonpositive_on_diagonal(self):
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        rng = np.random.RandomState(14)
        for _ in range(20):
            W = random_zero_trace_field(mesh, rng)
            assert oracles.alpha_pairing(mesh, W, W) <= 1e-12


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
