"""Pointwise Q-tensor algebra in reduced two-component coordinates.

A symmetric trace-free 2x2 tensor is stored as the pair (q1, q2) with

    Q = [[q1, q2],
         [q2, -q1]].

The components sit on the leading axis of an array, Q[0] = q1 and
Q[1] = q2, so one tensor has shape (2,) and a field of n tensors has shape
(2, n).  Every operation returns arrays in the same layout, so the same
functions serve single-point checks and whole nodal fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Params:
    """Material and scheme constants.

    L1, L2, L3 are the elastic constants, (a, b, c) the bulk coefficients,
    A0 the positive shift that keeps the quadratized energy density
    positive, and sigma the inertial constant.  b is accepted and checked
    like the others but has no effect in 2D: tr(Q^3) = 0, and b cancels
    from f.
    """

    L1: float
    L2: float
    L3: float
    a: float
    b: float
    c: float
    A0: float
    sigma: float

    def __post_init__(self):
        for key in ("c", "L1", "A0"):
            if getattr(self, key) <= 0.0:
                raise ValueError("params.%s must be positive, got %r"
                                 % (key, getattr(self, key)))
        if self.L2 + self.L3 < 0.0:
            raise ValueError("params.L2 + params.L3 must be nonnegative, got %r"
                             % (self.L2 + self.L3))
        if self.sigma < 0.0:
            raise ValueError("params.sigma must be nonnegative, got %r" % self.sigma)


def trace_q2(Q: np.ndarray):
    """tr(Q^2), which equals |Q|_F^2 for symmetric trace-free 2x2, as
    2 (q1 q1 + q2 q2) in one pass (einsum, which sums from +0.0)."""
    return 2.0 * np.einsum("i...,i...->...", Q, Q)


def _potential(t2, p: Params):
    """The bulk energy density F as a function of t2 = tr(Q^2), formed in
    t2."""
    # tr(Q^3) vanishes identically for symmetric trace-free 2x2 matrices,
    # so the b term (b/3) tr(Q^3) of the 3D form drops out.
    quartic = 0.25 * p.c * t2 * t2
    t2 *= 0.5 * p.a
    t2 += quartic
    return t2


def aux_r(Q: np.ndarray, p: Params):
    """Auxiliary variable r = sqrt(2 (F + A0)), F the bulk potential;
    requires a positive radicand, i.e. A0 large enough on the sampled
    states."""
    return _aux_r(trace_q2(Q), p)


def _aux_r(t2, p: Params):
    """r as a function of t2 = tr(Q^2), which it overwrites."""
    rad = _potential(t2, p)
    rad += p.A0
    rad *= 2.0
    if rad.min() <= 0.0:
        raise ValueError(
            "nonpositive radicand in auxiliary variable: A0=%g is too small"
            % p.A0
        )
    return np.sqrt(rad)


def aux_P(Q: np.ndarray, p: Params, out: np.ndarray | None = None) -> np.ndarray:
    """Variational derivative of r, i.e. P = f(Q) / r(Q), with tr(Q^2)
    formed once for both, written into out when given (its shape is Q's)
    and into a new array otherwise.  A new result follows the memory order
    of Q; pass a C-contiguous field to get a C-contiguous P.  On a
    nonpositive radicand out holds f(Q).

    f = (a + c tr(Q^2)) Q: in 2D Q^2 is a multiple of the identity, so the
    b term of the 3D form, the deviator of Q^2, is zero."""
    t2 = trace_q2(Q)
    P = np.multiply(p.a + p.c * t2, Q, out=out)
    P /= _aux_r(t2, p)
    return P
