import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from qtflow.assembly import (
    assemble_div_form,
    assemble_stiffness,
    consistent_mass,
    lumped_mass,
    scalar_stiffness,
    stiffness_block,
)
from qtflow import assembly
from qtflow.analysis import h_norm_sq, norm_forms
from qtflow.mesh import build_mesh

import oracles


def random_zero_trace_field(mesh, rng, scale=1.0):
    W = rng.uniform(-scale, scale, size=(mesh.n_nodes, 2))
    W[oracles.is_boundary(mesh)] = 0.0
    return W


class TestStiffness:
    def test_five_point_stencil_at_every_interior_node(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K = assemble_stiffness(mesh)
        assert K.shape == (mesh.n_interior, mesh.n_interior)
        stride = mesh.nx + 1
        index = oracles.interior_index(mesh)
        for node in oracles.interior_nodes(mesh):
            u = index[node]
            row = K.getrow(u).toarray().ravel()
            assert row[u] == pytest.approx(4.0, abs=1e-13)
            for neighbor in (node - 1, node + 1, node - stride, node + stride):
                v = index[neighbor]
                if v >= 0:
                    assert row[v] == pytest.approx(-1.0, abs=1e-13)
            for diag in (node + stride + 1, node - stride - 1):
                v = index[diag]
                if v >= 0:
                    assert abs(row[v]) < 1e-13

    def test_element_assembly_oracle(self):
        mesh = build_mesh(0, 1, 0, 1, 4, 4)
        K = scalar_stiffness(mesh).toarray()
        ref = np.zeros((mesh.n_nodes,) * 2)
        xy = oracles.nodes(mesh)
        for tri in oracles.triangles(mesh):
            ke = oracles.element_stiffness(xy[tri])
            for a in range(3):
                for b in range(3):
                    ref[tri[a], tri[b]] += ke[a, b]
        idx = oracles.interior_nodes(mesh)
        assert np.max(np.abs(K - ref[idx][:, idx])) < 1e-13

    def test_constant_vector_in_kernel_away_from_boundary(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        K = assemble_stiffness(mesh)
        out = K @ np.ones(mesh.n_interior)
        coords = oracles.nodes(mesh)[oracles.interior_nodes(mesh)]
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


#: (extent, nx, ny) of lattices one interior node wide or tall: 2 x 8 and
#: 8 x 2 cells.
THIN_LATTICES = (((0.0, 0.5, 0.0, 2.0), 2, 8), ((0.0, 2.0, 0.0, 0.5), 8, 2))


def test_assembled_forms_store_no_zeros():
    """Every CSR form comes from scipy's tocsr(): no explicit zero, each
    row's columns ascending without repeats (checked afresh, not read from
    the flag tocsr() sets), and int32 index arrays, whose dtype
    assert_same_csr does not compare.  The norm forms keep their
    diagonals: distinct ascending offsets, each with a nonzero entry."""
    meshes = (((0.0, 2.0, 0.0, 2.0), 8, 8),) + oracles.NON_DYADIC_MESHES + THIN_LATTICES
    for extent, nx, ny in meshes:
        mesh = build_mesh(*extent, nx, ny)
        for build in (scalar_stiffness, assemble_stiffness, assemble_div_form):
            A = build(mesh)
            where = "%s on %d x %d cells" % (build.__name__, nx, ny)
            assert A.nnz == A.count_nonzero(), where
            assert A.has_canonical_format, where
            assert sparse.csr_matrix((A.data, A.indices, A.indptr),
                                     shape=A.shape).has_canonical_format, where
            assert A.indices.dtype == A.indptr.dtype == np.int32, where
        for name, A in norm_forms(mesh)._asdict().items():
            where = "norm form %s on %d x %d cells" % (name, nx, ny)
            assert A.format == "dia", where
            assert np.all(np.diff(A.offsets) > 0), where
            assert np.all(np.any(A.data != 0.0, axis=1)), where


@pytest.mark.parametrize("extent, nx, ny", oracles.NON_DYADIC_MESHES + (
    ((0.0, 2.0, 0.0, 2.0), 2, 2), ((0.0, 2.0, 0.0, 1.0), 16, 8)))
def test_stiffness_stores_five_entries_per_row_less_the_boundary(extent, nx, ny):
    """The count the mesh size bound of the experiments relies on (it
    bounds twice this count): the diagonal offsets cancel on every mesh,
    not only the dyadic ones."""
    ni, nj = nx - 1, ny - 1
    assert assemble_stiffness(build_mesh(*extent, nx, ny)).nnz == (
        5 * ni * nj - 2 * ni - 2 * nj)


@pytest.mark.parametrize("extent, nx, ny", dict.fromkeys(
    (((-1.0, 1.0, -1.0, 1.0), 16, 16),) + oracles.SETUP_MESHES
    + oracles.NON_DYADIC_MESHES + THIN_LATTICES))
def test_stiffness_is_the_exact_five_point_stencil(extent, nx, ny):
    """K holds 4 and -1 and nothing else on every lattice, whatever its
    extent rounds to, and the step operator's constant block has the main
    diagonal shift + 4 scale, bit for bit."""
    mesh = build_mesh(*extent, nx, ny)
    assert set(assemble_stiffness(mesh).data.tolist()) <= {4.0, -1.0}
    scale, shift = 0.7e-3, 3.1e-5 * mesh.gamma
    assert np.all(stiffness_block(mesh, scale, shift).diagonal() == shift + 4.0 * scale)


def assert_same_csr(A, B):
    assert A.shape == B.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(B, name)), name


def assert_component_blocks(A, K):
    """The interleaved matrix A holds K on both diagonal component blocks,
    bit for bit, and nothing that couples the components."""
    for c in (0, 1):
        assert_same_csr(oracles.component_block(A, c, c), K)
        assert oracles.component_block(A, c, 1 - c).nnz == 0


def interleaved_dense(K):
    """K applied to each component of interleaved vectors, dense."""
    return np.kron(K.toarray(), np.eye(2))


@pytest.mark.parametrize("extent, nx, ny", [
    ((0.0, 2.0, 0.0, 2.0), 16, 16),
    ((0.0, 2.0, 0.0, 2.0), 128, 128),
    ((0.1, 1.4, 0.1, 1.4), 13, 13),
])
def test_stiffness_is_the_scalar_interior_block(extent, nx, ny):
    """The m x m interior stiffness of the lattice cache is scalar_stiffness()
    built afresh and both diagonal blocks of the interleaved lattice
    stiffness, bit for bit, off dyadic meshes too."""
    mesh = build_mesh(*extent, nx, ny)
    K = assemble_stiffness(mesh)
    assert K.shape == (mesh.n_interior, mesh.n_interior)
    fresh = scalar_stiffness(mesh)
    assert fresh is not K
    assert_same_csr(K, fresh)
    assert_component_blocks(oracles.interleaved_stiffness(mesh), K)


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
            assert_component_blocks(oracles.div_form_by_elements(mesh),
                                    assemble_div_form(mesh))

    def test_roundoff_on_non_dyadic_mesh(self):
        mesh = build_mesh(0, 1, 0, 1, 3, 3)  # h = 1/3
        for A, ref in ((assemble_stiffness(mesh).toarray(),
                        oracles.interior_stiffness_by_elements(mesh)),
                       (interleaved_dense(assemble_div_form(mesh)),
                        oracles.div_form_by_elements(mesh))):
            ref = ref.toarray()
            assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestNormFormsMatchElementAssembly:
    @pytest.mark.parametrize("n", oracles.DYADIC_SIZES)
    def test_bitwise_on_dyadic_meshes(self, n):
        """The norm forms' diagonals, converted to CSR, are the interior
        blocks of the all-node element forms."""
        mesh = build_mesh(0.0, 2.0, 0.0, 2.0, n, n)
        forms = norm_forms(mesh)
        assert_same_csr(forms.mass.tocsr(), oracles.interior_mass_by_elements(mesh))
        assert_same_csr(forms.stiffness.tocsr(), oracles.interior_stiffness_by_elements(mesh))


# Largest |lattice - element| over max |element|, in units of the machine
# epsilon, as measured on the meshes in order: stiffness and divergence form
# 1.0, 4.5, 2.75; interior consistent mass 3.8, 7.8, 5.5.  The lattice
# forms come from h alone; the element forms carry the roundoff of the
# node coordinates.
@pytest.mark.parametrize("extent, nx, ny", oracles.NON_DYADIC_MESHES)
def test_lattice_roundoff_on_non_dyadic_meshes(extent, nx, ny):
    mesh = build_mesh(*extent, nx, ny)
    for build, oracle in ((assemble_stiffness, oracles.interior_stiffness_by_elements),
                          (assemble_div_form, oracles.div_form_by_elements),
                          (consistent_mass, oracles.interior_mass_by_elements),
                          (scalar_stiffness, oracles.interior_stiffness_by_elements)):
        ref = oracle(mesh).toarray()
        A = build(mesh)
        A = interleaved_dense(A) if build is assemble_div_form else A.toarray()
        deviation = np.max(np.abs(A - ref)) / np.max(np.abs(ref))
        assert deviation <= 16 * np.finfo(float).eps, build.__name__


def form_bytes(*matrices):
    """The bytes of the arrays that hold each CSR or DIA matrix."""
    return sum(A.data.nbytes + (A.offsets.nbytes if A.format == "dia" else
                                A.indices.nbytes + A.indptr.nbytes) for A in matrices)


@pytest.mark.parametrize("build, bound", [
    (lambda mesh: tuple(norm_forms(mesh)), 1.1),
    (lambda mesh: (assemble_stiffness(mesh),), 2.0),
], ids=["norm_forms", "assemble_stiffness"])
def test_setup_transients_stay_below_the_result_size(build, bound, monkeypatch):
    """At 128^2 the traced peak of a build, its result included, stays
    within bound times the bytes of the matrices it returns (form_bytes()):
    the lattice builds hold no more than one result's worth of temporaries.
    Measured 1.00x (the norm forms by diagonals, the mass and then K, with
    nothing but the stencil tables beside them) and 1.63x (stiffness), the
    diagonals held while tocsr() fills the result; the norm forms in CSR
    (the mass, then K while the mass is held) peaked at 1.27x, the all-node
    norm forms at 1.64x, the hand-indexed CSR builds before them at 1.71x
    and 1.46x, the element COO assembly of the norm forms at 6.12x, the
    (n, 14) int64 stencil temporaries at 2.77x."""
    mesh = build_mesh(0.0, 2.0, 0.0, 2.0, 128, 128)
    build(mesh)  # first-call allocations are not set-up transients
    monkeypatch.setattr(assembly, "_stiffness", {})  # so K is built again
    tracemalloc.start()
    try:
        result = build(mesh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * form_bytes(*result)


class TestStiffnessCache:
    """The K of the most recent lattice is kept: every mesh on it gets one
    read-only object, from assemble_stiffness() and assemble_div_form()."""

    @pytest.mark.parametrize("extent, nx, ny", [
        ((0.0, 2.0, 0.0, 2.0), 16, 16),
        ((0.1, 1.4, -0.3, 1.0), 13, 13),
    ] + list(THIN_LATTICES), ids=["dyadic", "non_dyadic", "thin_2x8", "thin_8x2"])
    def test_one_lattice_one_object(self, extent, nx, ny):
        K = assemble_stiffness(build_mesh(*extent, nx, ny))
        mesh = build_mesh(*extent, nx, ny)  # another mesh on the same lattice
        assert assemble_stiffness(mesh) is K
        assert assemble_div_form(mesh) is K

    def test_other_lattices_other_objects(self):
        lattices = [((0.0, 2.0, 0.0, 2.0), 8, 8), ((0.0, 1.0, 0.0, 1.0), 8, 8),
                    ((0.5, 2.5, 0.0, 2.0), 8, 8), ((0.0, 2.0, 0.0, 1.0), 8, 4)]
        forms = [assemble_stiffness(build_mesh(*extent, nx, ny))
                 for extent, nx, ny in lattices]
        assert len({id(K) for K in forms}) == len(forms)
        assert assemble_div_form(build_mesh(*lattices[0][0], 8, 8)) is not forms[0]

    def test_writes_raise(self):
        K = assemble_stiffness(build_mesh(0.0, 2.0, 0.0, 2.0, 8, 8))
        for array in (K.data, K.indices, K.indptr):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]
        K.copy().data[0] = 0.0  # a copy is the caller's own


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
        K = interleaved_dense(oracles.interior_stiffness_by_elements(mesh))
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
        W = np.column_stack([oracles.nodes(mesh)[:, 0], np.zeros(mesh.n_nodes)])
        assert oracles.div_form_quadrature(mesh, W, W) == pytest.approx(4.0, rel=1e-13)

    def test_matches_quadrature_oracle(self):
        rng = np.random.RandomState(8)
        for n in (4, 6):
            mesh = build_mesh(0, 2, 0, 2, n, n)
            D = assemble_div_form(mesh)
            idx = oracles.interior_nodes(mesh)
            for _ in range(10):
                W1 = random_zero_trace_field(mesh, rng)
                W2 = random_zero_trace_field(mesh, rng)
                val = float(np.sum(W1[idx] * (D @ W2[idx])))
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
            idx = oracles.interior_nodes(mesh)
            for _ in range(20):
                W1 = random_zero_trace_field(mesh, rng)
                W2 = random_zero_trace_field(mesh, rng)
                div_val = float(np.sum(W1[idx] * (D @ W2[idx])))
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
        assert type(w) is float
        assert np.all(2.0 * oracles.lumped_weights_by_bincount(mesh)[
            oracles.interior_nodes(mesh)] == w)

    def test_single_node_norm(self):
        mesh = build_mesh(0, 2, 0, 2, 16, 16)
        w = lumped_mass(mesh)
        x = np.zeros((2, mesh.n_interior))
        x[0, 100] = 1.0  # q1 = 1 at one interior node
        assert h_norm_sq(w, x) == pytest.approx(2.0 * mesh.h ** 2, rel=1e-13)
        assert h_norm_sq(w, np.zeros_like(x)) == 0.0

    def test_bookkeeping_sum(self):
        mesh = build_mesh(0, 2, 0, 2, 8, 8)
        w = lumped_mass(mesh)
        assert mesh.n_interior * w == pytest.approx(
            2.0 * oracles.lumped_weights_by_bincount(mesh)[
                oracles.interior_nodes(mesh)].sum(), rel=1e-14)


class TestConsistentMass:
    def test_integrates_constants_exactly(self):
        """Each row of the interior mass integrates its hat function
        against the sum of the hat functions in its row; away from the
        boundary that sum is the constant 1, so the row sums to the hat
        integral gamma = h^2."""
        mesh = build_mesh(0, 2, 0, 2, 6, 6)
        Mc = consistent_mass(mesh)
        sums = (Mc @ np.ones(mesh.n_interior)).reshape(mesh.ny - 1, mesh.nx - 1)
        assert np.allclose(sums[1:-1, 1:-1], mesh.gamma, rtol=1e-13, atol=0.0)
        assert np.all(sums[0] < 0.99 * mesh.gamma)  # the boundary's hats are left out

    def test_lumps_to_the_lumped_weight(self):
        """Mass and lumped weight both follow from h alone, so a row of the
        interior mass whose node has no boundary neighbour sums, in the
        DIA product's order, to gamma within 1.5 eps relative.  Measured
        1.4948 eps over these 2,000 cell sizes and 1.49995 eps over
        200,000 others between 1e-6 and 1e6."""
        rng = np.random.RandomState(30)
        eps = np.finfo(float).eps
        for h, x0, y0 in zip(10.0 ** rng.uniform(-4, 2, 2000),
                             *rng.uniform(-3, 3, (2, 2000))):
            mesh = build_mesh(x0, x0 + 4 * h, y0, y0 + 4 * h, 4, 4)
            sums = consistent_mass(mesh) @ np.ones(mesh.n_interior)
            inner = sums.reshape(mesh.ny - 1, mesh.nx - 1)[1:-1, 1:-1]
            assert np.all(np.abs(inner - mesh.gamma) <= 1.5 * eps * mesh.gamma), mesh

    def test_matches_midpoint_quadrature(self):
        mesh = build_mesh(0, 2, 0, 2, 5, 5)
        Mc = consistent_mass(mesh)
        rng = np.random.RandomState(21)
        for _ in range(10):
            f = rng.standard_normal(mesh.n_interior)
            assert f @ (Mc @ f) == pytest.approx(
                oracles.midpoint_quad_sq(mesh, oracles.nodal(mesh, f)), rel=1e-12)
