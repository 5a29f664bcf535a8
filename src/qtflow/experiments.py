"""Scripted experiments: single runs, refinement studies, inertia sweeps.

Every experiment is deterministic: given the same configuration the same
bits come out, whether cases run serially or on a process pool (results
are assembled in case order, not completion order).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from itertools import product

import numpy as np

from . import analysis, assembly
from .mesh import build_mesh, nested_injection
from .model import Params
from .solver import ConvergenceError
from .stepper import (
    SimState,
    build_default_Qt0,
    initialize,
    interpolate_qfield,
    nodal_r,
    step,
    step_operator,
)

#: Default parameter profile of the shipped experiments.
DEFAULT_PARAMS = Params(L1=0.001, L2=0.0, L3=0.0, a=-0.2, b=1.0, c=1.0,
                        A0=500.0, sigma=0.025)

DEFAULT_SIGMA_LIST = (1e-3, 10.0 ** -2.5, 1e-2, 10.0 ** -1.5, 1e-1)
DEFAULT_H_LIST = (0.5, 0.25, 0.125, 0.0625)
DEFAULT_DT_LIST = (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4)

#: The ExperimentConfig fields of the [mesh] config section.
MESH_FIELDS = ("x0", "x1", "y0", "y1", "nx", "ny")
INITIAL_PROFILES = ("default", "zero")
#: Fields whose given values (every entry, for a list) must be positive.
POSITIVE_FIELDS = ("T", "dt", "reference_dt", "cg_tol", "h_list", "dt_list",
                   "sigma_list")
#: The least value of each integer field.
INT_MINIMA = {"nx": 2, "ny": 2, "reference_level": 1, "threads": 1}


def default_initial_q(x, y):
    """Reduced components of the default director-based initial state."""
    n1 = x * (2.0 - x) * y * (2.0 - y)
    n2 = np.sin(np.pi * x) * np.sin(0.5 * np.pi * y)
    return 0.5 * (n1 * n1 - n2 * n2), n1 * n2


@dataclass
class ExperimentConfig:
    x0: float = 0.0
    x1: float = 2.0
    y0: float = 0.0
    y1: float = 2.0
    nx: int | None = None
    ny: int | None = None
    T: float = 0.1
    dt: float | None = None
    params: Params = DEFAULT_PARAMS
    initial: str = "default"
    h_list: tuple | None = None
    reference_level: int = 7
    dt_list: tuple | None = None
    reference_dt: float | None = None
    sigma_list: tuple | None = None
    p1_list: tuple = (0.5, 1.0, math.inf)  # inf: no perturbation
    p2_list: tuple = (0.5, math.inf)
    out_dir: str | None = None
    cg_tol: float = 1e-10
    threads: int = 1


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def num_steps(T: float, dt: float) -> int:
    """Number of steps; rejects T/dt that is not integral."""
    ratio = T / dt
    k = round(ratio) if math.isfinite(ratio) else 0
    if k < 1 or abs(ratio - k) > 1e-12 * max(1.0, ratio):
        raise ConfigError("T/dt = %r is not an integer" % ratio)
    return k


def validate_config(cfg: ExperimentConfig) -> None:
    """Check every given value by the type of its field, naming the first bad
    one as section.key: numbers finite (the exponents may also be +inf, no
    perturbation), POSITIVE_FIELDS positive, integers at least their
    INT_MINIMA, lists not empty, extents ordered, time steps dividing T."""
    typed = [(("mesh." if f.name in MESH_FIELDS else "experiment.") + f.name,
              f.type.split(" | ")[0], getattr(cfg, f.name)) for f in fields(cfg)]
    typed += [("params." + f.name, f.type, getattr(cfg.params, f.name))
              for f in fields(cfg.params)]
    for key, type_name, value in typed:  # T comes before the time steps
        name = key.split(".")[1]
        if type_name == "int" and value is not None and value < INT_MINIMA[name]:
            raise ConfigError("%s must be at least %d, got %r"
                              % (key, INT_MINIMA[name], value))
        if type_name not in ("float", "tuple") or value is None:
            continue
        entries = value if type_name == "tuple" else (value,)
        if not entries:
            raise ConfigError("%s must not be empty" % key)
        inf_ok = name in ("p1_list", "p2_list")
        for entry in entries:
            if not (math.isfinite(entry) or inf_ok and entry == math.inf):
                raise ConfigError("%s must be finite%s, got %r"
                                  % (key, " or inf" if inf_ok else "", entry))
            if name in POSITIVE_FIELDS and entry <= 0.0:
                raise ConfigError("%s must be positive, got %r" % (key, entry))
            if name in ("dt", "dt_list", "reference_dt"):
                try:
                    num_steps(cfg.T, entry)
                except ConfigError as exc:
                    raise ConfigError("%s: %s" % (key, exc)) from None
    if cfg.initial not in INITIAL_PROFILES:
        raise ConfigError("experiment.initial: unknown profile %r" % cfg.initial)
    for lo, hi in (("x0", "x1"), ("y0", "y1")):
        if getattr(cfg, hi) <= getattr(cfg, lo):
            raise ConfigError("mesh.%s must exceed mesh.%s" % (hi, lo))


@dataclass
class RunResult:
    case: Case
    mesh: object
    state: SimState
    trace: list  # of analysis.EnergyRecord

    @property
    def max_energy_increase(self) -> float:
        totals = [rec.total for rec in self.trace]
        return float(max((b - a for a, b in zip(totals, totals[1:])), default=0.0))


@dataclass(frozen=True)
class Case:
    """One simulation: domain, cells, parameters, time grid and initial data.

    pert_q0 / pert_qt0 are constant offsets added to the q1 component of
    the initial data and its time derivative at interior nodes (the
    reduced form of a diag(1,-1)/2-shaped perturbation).
    """

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int
    params: Params
    dt: float
    T: float
    cg_tol: float
    initial: str = "default"
    pert_q0: float = 0.0
    pert_qt0: float = 0.0

    @classmethod
    def of(cls, cfg: ExperimentConfig, nx: int, ny: int) -> Case:
        """The unperturbed case of cfg on an nx x ny mesh, with step cfg.dt."""
        return cls(cfg.x0, cfg.x1, cfg.y0, cfg.y1, nx, ny, cfg.params, cfg.dt,
                   cfg.T, cfg.cg_tol, cfg.initial)

    def __str__(self) -> str:
        text = "case nx=%d, ny=%d, dt=%g, sigma=%g" % (
            self.nx, self.ny, self.dt, self.params.sigma)
        if self.pert_q0 != 0.0 or self.pert_qt0 != 0.0:
            text += ", pert_q0=%g, pert_qt0=%g" % (self.pert_q0, self.pert_qt0)
        return text


def _simulate(case: Case) -> RunResult:
    """Run one simulation and record the energy trace.

    A ConvergenceError from a step is raised again naming the case, which
    it carries as .case next to .step, .t and .residual.
    """
    params, dt = case.params, case.dt
    mesh = build_mesh(case.x0, case.x1, case.y0, case.y1, case.nx, case.ny)
    K = assembly.assemble_stiffness(mesh)
    w = assembly.lumped_mass(mesh)

    q0 = (np.zeros((2, mesh.n_interior)) if case.initial == "zero"
          else interpolate_qfield(mesh, default_initial_q))
    if case.pert_q0 != 0.0:
        q0[0] += case.pert_q0

    N = num_steps(case.T, dt)
    try:
        r0 = nodal_r(params, q0)
    except ValueError as exc:  # a later step's radicand is the solver's
        raise ConfigError("params.A0: %s for the initial state of %s"
                          % (exc, case)) from None

    def velocity(*args):
        """The default initial velocity, pert_qt0 added to its q1 entries."""
        qt = build_default_Qt0(*args)
        if case.pert_qt0 != 0.0:
            qt[0] += case.pert_qt0
        return qt

    op = step_operator(params, dt, K, assembly.assemble_div_form(mesh)
                       if (params.L2 + params.L3) != 0.0 else None, w)
    state = initialize(params, dt, q0, r0, op, velocity)
    del q0, r0  # the state holds what it needs

    work = (op.z, op.dir)  # CG's vectors, free between solves
    trace = [analysis.discrete_energy(state, params, dt, mesh, work=work)]
    if not math.isfinite(trace[0].total):  # E_r sums r * r, about 2 A0 per node
        raise ConfigError("%s: the initial energy E = %g (E_r = %g) is not finite for %s"
                          % ("params" if math.isfinite(trace[0].rpart) else "params.A0",
                             trace[0].total, trace[0].rpart, case))
    for _ in range(N - state.n):
        prev = state.dq, trace[-1]  # the old state's other vectors die with the step
        try:
            state = step(state, params, dt, op, cg_tol=case.cg_tol)
        except ConvergenceError as exc:
            raise ConvergenceError("%s: %s" % (case, exc), exc.residual,
                                   step=exc.step, t=exc.t, case=case) from exc
        trace.append(analysis.discrete_energy(state, params, dt, mesh, prev, work))

    return RunResult(case=case, mesh=mesh, state=state, trace=trace)


def _run_cases(cases, threads):
    if threads > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(cases))) as pool:
            return list(pool.map(_simulate, cases))
    return [_simulate(case) for case in cases]


def _resolved(config: ExperimentConfig, **defaults) -> ExperimentConfig:
    """config with its unset fields among defaults set to them, validated."""
    cfg = replace(config, **{name: value for name, value in defaults.items()
                             if getattr(config, name) is None})
    validate_config(cfg)
    return cfg


def _cells(cfg: ExperimentConfig, nx: int) -> tuple:
    """The (nx, ny) of cfg's square cells; nx defaults to the given count,
    ny to nx."""
    nx = nx if cfg.nx is None else cfg.nx
    ny = nx if cfg.ny is None else cfg.ny
    nx, ny = _whole_cells(nx, ny, "mesh.nx, mesh.ny")
    hx, hy = (cfg.x1 - cfg.x0) / nx, (cfg.y1 - cfg.y0) / ny
    if abs(hx - hy) > 1e-12 * max(hx, hy):
        raise ConfigError("mesh.ny: cells must be square, got %g x %g" % (hx, hy))
    return nx, ny


def run_single(config: ExperimentConfig) -> RunResult:
    cfg = _resolved(config, dt=1e-3)
    return _simulate(Case.of(cfg, *_cells(cfg, 16)))


@dataclass
class RefinementRow:
    level: float
    err_q11: float
    ord_q11: float | None
    err_q12: float
    ord_q12: float | None
    err_r: float
    ord_r: float | None


@dataclass
class StudyResult:
    rows: list
    max_energy_increase: float
    slopes: dict = field(default_factory=dict)


def _check_halving_chain(values, key):
    if len(values) < 2:
        raise ConfigError("%s needs at least two entries" % key)
    for a, b in zip(values, values[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ConfigError("%s is not a halving chain: %r" % (key, values))


def _whole_cells(nx, ny, key: str) -> tuple:
    """The integer counts of the nx x ny cells (inf too) that key sizes, if
    twice the interior stiffness fits int32 indices: five entries per
    interior node (the diagonal offsets cancel), less those past the boundary."""
    ni, nj = nx - 1, ny - 1
    if not 2 * (5 * ni * nj - 2 * ni - 2 * nj) < 2 ** 31:  # nan from inf too
        raise ConfigError("%s: %g x %g cells outgrow int32 indices" % (key, nx, ny))
    cells = round(nx), round(ny)
    if min(cells) < 2 or max(abs(nx - cells[0]), abs(ny - cells[1])) > 1e-9:
        raise ConfigError("%s: %r x %r cells are not at least 2 whole cells "
                          "per axis" % (key, nx, ny))
    return cells


def _orders(errors):
    """The observed orders of a halving chain's errors; None on the first
    level and where an order needs an error that is zero."""
    return [None] + [analysis.convergence_orders(pair, 2.0)[0] if min(pair) > 0.0
                     else None for pair in zip(errors, errors[1:])]


def _refinement(levels, cases, threads, compare) -> StudyResult:
    """Run the reference cases[0] and one case per level, and tabulate the
    errors of each case against the reference with their observed orders.

    compare(res, ref, forms) returns the (Q11, Q12, r) errors of one case,
    measured with the norm forms of the reference mesh.
    """
    results = _run_cases(cases, threads)
    ref = results[0]
    forms = analysis.norm_forms(ref.mesh)
    errs = [compare(res, ref, forms) for res in results[1:]]
    o11, o12, o_r = (_orders(col) for col in zip(*errs))
    rows = [RefinementRow(level, e[0], o11[k], e[1], o12[k], e[2], o_r[k])
            for k, (level, e) in enumerate(zip(levels, errs))]
    return StudyResult(rows=rows,
                       max_energy_increase=max(r.max_energy_increase for r in results))


def space_refinement_study(config: ExperimentConfig) -> StudyResult:
    """Errors against a fine reference under mesh halving.

    Each coarse solution is interpolated onto the reference mesh and the
    errors are evaluated there with exact quadrature.  The auxiliary
    variable is compared as a zero-boundary-trace finite element function
    (its natural discrete space), so the coarse boundary ramp is part of
    the measured error.
    """
    cfg = _resolved(config, dt=1.25e-4, h_list=DEFAULT_H_LIST)
    h_list = tuple(cfg.h_list)
    _check_halving_chain(h_list, "experiment.h_list")

    width, height, level = cfg.x1 - cfg.x0, cfg.y1 - cfg.y0, cfg.reference_level
    cases = [Case.of(cfg, *_whole_cells(width / h, height / h, "experiment.h_list"))
             for h in h_list]
    # the reference mesh, first, has extent 2^level cells per axis, formed
    # without 2^-level, which is 0 from level 1075 up
    try:
        n_ref = math.ldexp(width, level), math.ldexp(height, level)
    except OverflowError:
        n_ref = math.inf, math.inf
    cases.insert(0, Case.of(cfg, *_whole_cells(*n_ref, "experiment.reference_level")))
    m = math.ldexp(h_list[-1], level)  # the reference mesh refines the finest m times
    if m < 1.5 or abs(m - round(m)) > 1e-9 * m:
        raise ConfigError("experiment.h_list must end at an integer multiple >= 2 "
                          "of the reference mesh size 2^-reference_level, got %r" % m)

    def compare(res, ref, forms):
        inj = nested_injection(res.mesh, ref.mesh)
        Qt = analysis.transfer_to_fine(res.mesh.nodal(res.state.q), inj, ref.mesh)
        rt = analysis.transfer_to_fine(res.mesh.nodal(res.state.r), inj, ref.mesh)
        Qref = ref.mesh.nodal(ref.state.q)
        return (analysis.h1_error_component(Qt, Qref, forms, 0),
                analysis.h1_error_component(Qt, Qref, forms, 1),
                analysis.l2_error_scalar(rt, ref.mesh.nodal(ref.state.r), forms))

    return _refinement(h_list, cases, cfg.threads, compare)


def time_refinement_study(config: ExperimentConfig) -> StudyResult:
    """Errors against a small-step reference on a single mesh.

    Both runs share the boundary values of Q (0) and r (sqrt(2 A0)), so
    their differences vanish there and r is compared with zero trace as
    in the space study."""
    cfg = _resolved(config, dt_list=DEFAULT_DT_LIST, reference_dt=6.25e-5)
    dt_list = tuple(cfg.dt_list)
    _check_halving_chain(dt_list, "experiment.dt_list")
    if min(dt_list) <= cfg.reference_dt:
        raise ConfigError("experiment.dt_list must end above experiment.reference_dt")
    case = Case.of(cfg, *_cells(cfg, 32))
    cases = [replace(case, dt=dt) for dt in (cfg.reference_dt,) + dt_list]

    def compare(res, ref, forms):
        Q, Qref = res.mesh.nodal(res.state.q), ref.mesh.nodal(ref.state.q)
        return (analysis.h1_error_component(Q, Qref, forms, 0),
                analysis.h1_error_component(Q, Qref, forms, 1),
                analysis.l2_error_scalar(res.mesh.nodal(res.state.r),
                                         ref.mesh.nodal(ref.state.r), forms))

    return _refinement(dt_list, cases, cfg.threads, compare)


@dataclass
class SigmaRow:
    sigma: float
    p1: float
    p2: float
    h1_error: float


def sigma_study(config: ExperimentConfig) -> StudyResult:
    """Distance from the zero-inertia solution over a sigma sweep.

    For each perturbation-exponent pair, the hyperbolic runs start from
    Q0 + (sigma^p1 / 2) diag(1,-1) and the analogous time derivative with
    exponent p2 (an infinite exponent means no perturbation); the errors
    against the parabolic run at final time are fitted to a log-log slope.
    """
    cfg = _resolved(config, dt=1e-5, sigma_list=DEFAULT_SIGMA_LIST)
    sigma_list = tuple(cfg.sigma_list)
    span = math.log10(max(sigma_list) / min(sigma_list))
    if span < 1.5 - 1e-9:
        raise ConfigError("experiment.sigma_list must span at least 1.5 decades, "
                          "got %.2f" % span)

    for key in ("p1_list", "p2_list"):  # a pair's .dat file name prints them by %g
        values = getattr(cfg, key)
        if len({"%g" % p for p in values}) < len(values):
            raise ConfigError("experiment.%s: %r prints two alike" % (key, values))
    pairs = list(product(cfg.p1_list, cfg.p2_list))
    keys = [(p1, p2, s) for p1, p2 in pairs for s in sigma_list]
    parabolic = replace(Case.of(cfg, *_cells(cfg, 16)),
                        params=replace(cfg.params, sigma=0.0))
    cases = [parabolic] + [replace(parabolic, params=replace(cfg.params, sigma=s),
                                   pert_q0=0.0 if math.isinf(p1) else 0.5 * s ** p1,
                                   pert_qt0=0.0 if math.isinf(p2) else 0.5 * s ** p2)
                           for p1, p2, s in keys]
    results = _run_cases(cases, cfg.threads)
    par = results[0]
    forms = analysis.norm_forms(par.mesh)

    Qpar = par.mesh.nodal(par.state.q)
    rows = [SigmaRow(sigma=s, p1=p1, p2=p2, h1_error=analysis.h1_error_field(
                Qpar, res.mesh.nodal(res.state.q), forms))
            for (p1, p2, s), res in zip(keys, results[1:])]

    xs = np.log(np.array(sigma_list))
    slopes = {}  # None where an error is zero, which has no logarithm
    for p1, p2 in pairs:
        errors = np.array([row.h1_error for row in rows if (row.p1, row.p2) == (p1, p2)])
        slopes[(p1, p2)] = (float(np.polyfit(xs, np.log(errors), 1)[0])
                            if errors.min() > 0.0 else None)

    return StudyResult(rows=rows,
                       max_energy_increase=max(r.max_energy_increase for r in results),
                       slopes=slopes)
