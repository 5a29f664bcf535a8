"""Property tests: the config file format, the pointwise model algebra and
the energy decay of whole runs.

Examples are derandomized, so every run draws the same cases.
"""

import math
import os
import re
import tempfile
from dataclasses import fields, replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtflow.cli import parse_config
from qtflow.experiments import (
    DEFAULT_PARAMS,
    INITIAL_PROFILES,
    Case,
    ConfigError,
    ExperimentConfig,
    validate_config,
)
from qtflow import experiments
from qtflow.model import Params, aux_P, aux_r

import oracles

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def finite(lo=-1e6, hi=1e6):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


def optional(strategy):
    return st.none() | strategy


@st.composite
def valid_configs(draw):
    """Configs that validate_config accepts: the extents are ordered and
    every time step divides T."""
    dt = draw(finite(1e-6, 1e-1))
    T = draw(st.integers(1, 1000)) * dt

    def divisor_of_T():
        return st.integers(1, 64).map(lambda m: T / m)

    def number_list(strategy):
        return st.lists(strategy, min_size=1, max_size=5).map(tuple)

    exponent = finite(0.0, 4.0) | st.just(math.inf)
    params = Params(L1=draw(finite(1e-6, 10.0)), L2=draw(finite(0.0, 1.0)),
                    L3=draw(finite(0.0, 1.0)), a=draw(finite()), b=draw(finite()),
                    c=draw(finite(1e-6, 1e3)), A0=draw(finite(1e-6, 1e6)),
                    sigma=draw(finite(0.0, 10.0)))
    def extents():
        return st.lists(finite(), min_size=2, max_size=2, unique=True).map(sorted)

    (x0, x1), (y0, y1) = draw(extents()), draw(extents())
    return ExperimentConfig(
        x0=x0, x1=x1, y0=y0, y1=y1,
        nx=draw(optional(st.integers(2, 512))), ny=draw(optional(st.integers(2, 512))),
        T=T, dt=draw(optional(st.just(dt))), params=params,
        initial=draw(st.sampled_from(INITIAL_PROFILES)),
        h_list=draw(optional(number_list(finite(1e-4, 10.0)))),
        reference_level=draw(st.integers(1, 12)),
        dt_list=draw(optional(number_list(divisor_of_T()))),
        reference_dt=draw(optional(divisor_of_T())),
        sigma_list=draw(optional(number_list(finite(1e-6, 10.0)))),
        p1_list=draw(number_list(exponent)), p2_list=draw(number_list(exponent)),
        out_dir=draw(optional(st.text("abcxyz0123456789_-./", min_size=1, max_size=12))),
        cg_tol=draw(finite(1e-16, 1e-2)),
        threads=draw(st.integers(1, 8)),
    )


def ini_text(cfg):
    """The config as INI text; None values are left out."""

    def text(value):
        if isinstance(value, tuple):
            return ", ".join(text(v) for v in value)
        return repr(value) if isinstance(value, float) else str(value)

    mesh = ("x0", "x1", "y0", "y1", "nx", "ny")
    sections = {
        "mesh": {k: getattr(cfg, k) for k in mesh},
        "params": vars(cfg.params),
        "experiment": {k: v for k, v in vars(cfg).items()
                       if k not in mesh and k != "params"},
    }
    lines = []
    for name, values in sections.items():
        lines.append("[%s]" % name)
        lines += ["%s = %s" % (k, text(v)) for k, v in values.items() if v is not None]
    return "\n".join(lines) + "\n"


@PROPERTY
@given(valid_configs())
def test_config_round_trips_through_ini(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.ini")
        with open(path, "w") as handle:
            handle.write(ini_text(cfg))
        assert parse_config(path) == cfg


#: Any number of every sign, zero, nan and the infinities.
ANY_FLOAT = st.sampled_from((0.0, -1.0, math.nan, math.inf)) | st.floats()
ANY_NUMBER = {
    "float": ANY_FLOAT,
    "int": st.integers(),
    "tuple": st.lists(ANY_FLOAT, max_size=3).map(tuple),  # empty ones too
}


def any_value(f):
    """Any value of a numeric field; None too, where the field allows it."""
    strategy = ANY_NUMBER[f.type.split(" | ")[0]]
    return optional(strategy) if f.type.endswith(" | None") else strategy


#: Any value of each numeric ExperimentConfig field, and any params that
#: Params itself accepts.
ANY_FIELD = {f.name: any_value(f) for f in fields(ExperimentConfig)
             if f.type.split(" | ")[0] in ANY_NUMBER}
POSITIVE = st.floats(min_value=0.0, exclude_min=True) | st.just(math.nan)
NONNEGATIVE = st.floats(min_value=0.0) | st.just(math.nan)
ANY_FIELD["params"] = st.builds(
    Params, L1=POSITIVE, L2=NONNEGATIVE, L3=NONNEGATIVE, a=st.floats(),
    b=st.floats(), c=POSITIVE, A0=POSITIVE, sigma=NONNEGATIVE)


@st.composite
def any_configs(draw):
    """The default config with one or two fields set to any value."""
    names = draw(st.lists(st.sampled_from(sorted(ANY_FIELD)), min_size=1, max_size=2))
    return ExperimentConfig(**{name: draw(ANY_FIELD[name]) for name in names})


@settings(PROPERTY, max_examples=300)
@given(any_configs())
@example(ExperimentConfig(dt_list=(0.0,)))  # a zero step must not divide T by zero
@example(ExperimentConfig(T=1e300, dt=1e-10))  # nor T/dt overflow into round()
def test_validate_config_raises_only_config_errors_naming_a_key(cfg):
    try:
        validate_config(cfg)
    except ConfigError as exc:
        assert re.match(r"(mesh|params|experiment)\.\w+", str(exc)), str(exc)


tensor_fields = st.lists(st.tuples(finite(-3.0, 3.0), finite(-3.0, 3.0)),
                         min_size=1, max_size=12).map(lambda cols: np.array(cols).T)

model_params = st.builds(
    Params, L1=st.just(1e-3), L2=st.just(0.0), L3=st.just(0.0),
    a=finite(-1.0, 1.0), b=finite(-5.0, 5.0), c=finite(0.1, 2.0),
    A0=finite(10.0, 1e3), sigma=st.just(0.0))


def dense(Q, k):
    return oracles.to_full(Q[0, k], Q[1, k])


@PROPERTY
@given(tensor_fields, model_params)
def test_model_matches_dense_oracles(Q, p):
    r, P = aux_r(Q, p), aux_P(Q, p)
    for k in range(Q.shape[1]):
        full = dense(Q, k)
        assert np.isclose(r[k], oracles.r_dense(full, p), rtol=1e-13)
        assert np.allclose(oracles.to_full(P[0, k], P[1, k]), oracles.P_dense(full, p),
                           rtol=1e-12, atol=1e-14)


@PROPERTY
@given(tensor_fields, model_params)
def test_field_evaluation_equals_column_evaluation(Q, p):
    for fn in (aux_r, aux_P):
        field = fn(Q, p)
        for k in range(Q.shape[1]):
            column = fn(Q[:, k].copy(), p)
            assert np.array_equal(field[..., k], column), fn.__name__


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


#: Largest energy rise per step that a run may show, relative to E^0.  No
#: rise at all was measured: over 1,500 draws of the strategy below every
#: step lowered the energy, by at least 1.2e-10 E^0, and the defect of the
#: energy identity reached 6.1e-11 E^0.  The slack is a rounding allowance
#: a hundred times below the smallest decrease seen.
ENERGY_RISE_SLACK = 1e-12


@PROPERTY
@given(sigma=st.just(0.0) | log_uniform(1e-8, 1e2), dt=log_uniform(1e-6, 1.0),
       ell=st.floats(0.0, 0.1), A0=log_uniform(0.0101, 1e3),
       n=st.integers(4, 16), steps=st.integers(5, 20))
@example(sigma=100.0, dt=1e-5, ell=0.0, A0=500.0, n=16, steps=20)
def test_energy_never_rises(sigma, dt, ell, A0, n, steps):
    """E^{n+1} <= E^n at every step of a run from the default initial
    state, for any sigma, dt and anisotropy L2 + L3 = ell.  A0 stays above
    0.01, the depth of the bulk potential's minimum (a = -0.2, c = 1), so
    every radicand is positive."""
    params = replace(DEFAULT_PARAMS, sigma=sigma, L2=0.5 * ell, L3=0.5 * ell, A0=A0)
    run = experiments._simulate(Case(ExperimentConfig(nx=n, ny=n, params=params,
                                                      dt=dt, T=steps * dt)))
    totals = [rec.total for rec in run.trace]
    assert len(totals) == steps + (sigma == 0.0)  # sigma > 0 starts at step 1
    slack = ENERGY_RISE_SLACK * totals[0]
    for before, after in zip(totals, totals[1:]):
        assert after <= before + slack
