from dataclasses import replace

import numpy as np
import pytest

from qtflow.model import Params, aux_P, aux_r

import oracles
from oracles import frob_dot

P6 = Params(L1=0.001, L2=0.0, L3=0.0, a=-0.2, b=1.0, c=1.0, A0=500.0, sigma=0.025)


def random_tensors(rng, count, scale=1.0):
    return list(rng.uniform(-scale, scale, size=(count, 2)))


def bulk(Q, p):
    """F(Q) as aux_r holds it: r = sqrt(2 (F + A0))."""
    r = aux_r(Q, p)
    return 0.5 * r * r - p.A0


def derivative(Q, p):
    """f(Q) as aux_P holds it: P = f / r."""
    return aux_r(Q, p) * aux_P(Q, p)


class TestParams:
    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            Params(L1=0.001, L2=0, L3=0, a=-0.2, b=1, c=0.0, A0=500, sigma=0.025)
        with pytest.raises(ValueError):
            Params(L1=0.0, L2=0, L3=0, a=-0.2, b=1, c=1, A0=500, sigma=0.025)
        with pytest.raises(ValueError):
            Params(L1=0.001, L2=-1.0, L3=0.5, a=-0.2, b=1, c=1, A0=500, sigma=0.025)
        with pytest.raises(ValueError):
            Params(L1=0.001, L2=0, L3=0, a=-0.2, b=1, c=1, A0=500, sigma=-1e-3)


class TestFrobDot:
    def test_parallel(self):
        assert frob_dot(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 2.0

    def test_orthogonal_components(self):
        assert frob_dot(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero(self):
        assert frob_dot(np.array([0.0, 0.0]), np.array([0.3, -0.7])) == 0.0

    def test_matches_dense_contraction(self):
        rng = np.random.RandomState(7)
        for A, B in zip(random_tensors(rng, 20), random_tensors(rng, 20)):
            dense = float(np.sum(oracles.to_full(A[0], A[1])
                                 * oracles.to_full(B[0], B[1])))
            assert frob_dot(A, B) == pytest.approx(dense, abs=1e-14)


class TestBulkPotential:
    """F is formed only inside aux_r, so it is checked through r."""

    def test_zero_state(self):
        # F(0) = 0 exactly, so r is sqrt(2 A0) bit for bit
        assert aux_r(np.array([0.0, 0.0]), P6) == np.sqrt(2.0 * P6.A0)

    def test_unit_q1(self):
        # tr(Q^2) = 2 and tr(Q^3) = 0, so the value is a + c
        assert bulk(np.array([1.0, 0.0]), P6) == pytest.approx(0.8, abs=1e-12)

    def test_trace_q3_vanishes_in_dense_oracle(self):
        rng = np.random.RandomState(3)
        for Q in random_tensors(rng, 50, scale=3.0):
            full = oracles.to_full(Q[0], Q[1])
            assert abs(np.trace(full @ full @ full)) < 1e-12

    def test_matches_dense_oracle(self):
        # 1/2 r^2 - A0 resolves F only to the rounding of F + A0
        rng = np.random.RandomState(11)
        for Q in random_tensors(rng, 50, scale=2.0):
            dense = oracles.bulk_dense(oracles.to_full(Q[0], Q[1]), P6)
            assert bulk(Q, P6) == pytest.approx(dense, rel=1e-12, abs=1e-12)


class TestBulkDerivative:
    """f is formed only inside aux_P, so it is checked as r P."""

    def test_zero(self):
        f = derivative(np.array([0.0, 0.0]), P6)
        assert f[0] == 0.0 and f[1] == 0.0

    def test_unit_q1(self):
        f = derivative(np.array([1.0, 0.0]), P6)
        assert f[0] == pytest.approx(1.8, abs=1e-15)
        assert f[1] == 0.0

    def test_b_term_vanishes_in_2d(self):
        # the dense formula with any b gives the same result as b = 0, and
        # aux_P does not read b: it keeps every bit when b changes
        rng = np.random.RandomState(5)
        pb = Params(L1=0.001, L2=0, L3=0, a=-0.2, b=37.5, c=1.0, A0=500, sigma=0.0)
        for Q in random_tensors(rng, 30, scale=2.0):
            full = oracles.to_full(Q[0], Q[1])
            with_b = oracles.f_dense(full, pb)
            without_b = pb.a * full + pb.c * np.trace(full @ full) * full
            assert np.max(np.abs(with_b - without_b)) < 1e-12
            assert np.array_equal(aux_P(Q, pb), aux_P(Q, replace(pb, b=0.0)))

    def test_matches_dense_oracle(self):
        rng = np.random.RandomState(13)
        for Q in random_tensors(rng, 50, scale=2.0):
            dense = oracles.f_dense(oracles.to_full(Q[0], Q[1]), P6)
            f = derivative(Q, P6)
            assert np.max(np.abs(oracles.to_full(f[0], f[1]) - dense)) < 1e-14

    def test_gradient_consistency(self):
        # first variation of F matches f with O(eps^2) remainder.  A0 = 1,
        # just above the depth 0.01 of F's minimum, so that 1/2 r^2 - A0
        # resolves F to far below the remainders.
        p = replace(P6, A0=1.0)
        rng = np.random.RandomState(17)
        for Q in random_tensors(rng, 10, scale=1.5):
            d = rng.standard_normal(2)
            d /= np.sqrt(2.0) * np.linalg.norm(d)  # unit Frobenius norm
            rems = []
            for eps in (1e-4, 5e-5):
                Qe = Q + eps * d
                lin = eps * frob_dot(derivative(Q, p), d)
                rems.append(abs(bulk(Qe, p) - bulk(Q, p) - lin))
            assert rems[0] < 50.0 * (1e-4) ** 2
            # halving eps shrinks the remainder about fourfold
            assert rems[1] < 0.35 * rems[0] + 1e-16


class TestAuxR:
    def test_zero_state(self):
        assert aux_r(np.array([0.0, 0.0]), P6) == pytest.approx(np.sqrt(1000.0), rel=1e-15)

    def test_unit_q1(self):
        # bulk value 0.8 from the example above
        assert aux_r(np.array([1.0, 0.0]), P6) == pytest.approx(np.sqrt(1001.6), rel=1e-15)

    def test_round_trip(self):
        rng = np.random.RandomState(19)
        for Q in random_tensors(rng, 30, scale=2.0):
            dense = oracles.r_dense(oracles.to_full(Q[0], Q[1]), P6)
            assert aux_r(Q, P6) == pytest.approx(dense, rel=1e-14)

    def test_small_shift_rejected(self):
        small = Params(L1=0.001, L2=0, L3=0, a=-50.0, b=1.0, c=1.0, A0=1.0, sigma=0.0)
        with pytest.raises(ValueError):
            aux_r(np.array([1.0, 0.0]), small)

    def test_vectorized(self):
        q1 = np.array([0.0, 1.0])
        r = aux_r(np.stack((q1, np.zeros(2))), P6)
        assert r == pytest.approx([np.sqrt(1000.0), np.sqrt(1001.6)], rel=1e-15)


class TestAuxP:
    def test_zero(self):
        P = aux_P(np.array([0.0, 0.0]), P6)
        assert P[0] == 0.0 and P[1] == 0.0

    def test_unit_q1(self):
        P = aux_P(np.array([1.0, 0.0]), P6)
        assert P[0] == pytest.approx(1.8 / np.sqrt(1001.6), rel=1e-12)
        assert P[1] == 0.0

    def test_definitional_identity(self):
        # r P is f, which in 2D is (a + c tr(Q^2)) Q
        rng = np.random.RandomState(23)
        for Q in random_tensors(rng, 30, scale=2.0):
            r = aux_r(Q, P6)
            P = aux_P(Q, P6)
            f = (P6.a + P6.c * 2.0 * (Q[0] * Q[0] + Q[1] * Q[1])) * Q
            assert r * P[0] == pytest.approx(f[0], rel=1e-14, abs=1e-14)
            assert r * P[1] == pytest.approx(f[1], rel=1e-14, abs=1e-14)

    def test_gradient_of_r(self):
        rng = np.random.RandomState(29)
        for Q in random_tensors(rng, 10, scale=1.5):
            d = rng.standard_normal(2)
            d /= np.sqrt(2.0) * np.linalg.norm(d)
            rems = []
            for eps in (1e-4, 5e-5):
                Qe = Q + eps * d
                lin = eps * frob_dot(aux_P(Q, P6), d)
                rems.append(abs(aux_r(Qe, P6) - aux_r(Q, P6) - lin))
            assert rems[0] < 10.0 * (1e-4) ** 2
            assert rems[1] < 0.35 * rems[0] + 1e-16

    def test_local_lipschitz_bound(self):
        # sampled difference quotients stay below an empirically safe constant
        rng = np.random.RandomState(31)
        worst = 0.0
        for _ in range(300):
            q = rng.uniform(-3.5, 3.5, size=2)   # |Q|_F <= 5 when q1^2+q2^2 <= 12.5
            d = rng.uniform(-3.5, 3.5, size=2)
            PQ = aux_P(q, P6)
            PQd = aux_P(q + d, P6)
            diff = oracles.to_full(PQd[0] - PQ[0], PQd[1] - PQ[1])
            step = oracles.to_full(d[0], d[1])
            denom = np.linalg.norm(step)
            if denom > 1e-12:
                worst = max(worst, np.linalg.norm(diff) / denom)
        assert worst < 25.0
