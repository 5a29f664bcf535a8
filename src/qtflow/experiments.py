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
    """The settings of a run or a study, as a config file gives them.

    A study resolves one per case: a Case's cfg carries that case's own nx,
    ny and dt (none of them None) and params, and _simulate reads them with
    the extents, T, cg_tol and initial; the lists and reference fields are
    the study's."""

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


def config_keys(cfg: ExperimentConfig):
    """(section, name, type name, value) of every config key of cfg in field
    order: [mesh] the geometry, [experiment] the rest, then [params] every
    Params field.  An optional field (``T | None``) has the type name T."""
    for f in fields(cfg):
        if f.name != "params":
            yield ("mesh" if f.name in MESH_FIELDS else "experiment", f.name,
                   f.type.split(" | ")[0], getattr(cfg, f.name))
    for f in fields(cfg.params):
        yield "params", f.name, f.type, getattr(cfg.params, f.name)


def validate_config(cfg: ExperimentConfig) -> None:
    """Check every given value by the type of its field, naming the first bad
    one as section.key: numbers finite (the exponents may also be +inf, no
    perturbation), POSITIVE_FIELDS positive, integers at least their
    INT_MINIMA, lists not empty, extents ordered, time steps dividing T."""
    for section, name, type_name, value in config_keys(cfg):  # T before the steps
        key = "%s.%s" % (section, name)
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
    K: object  # the interior stiffness the run stepped with

    @property
    def max_energy_increase(self) -> float:
        totals = [rec.total for rec in self.trace]
        return float(max((b - a for a, b in zip(totals, totals[1:])), default=0.0))


@dataclass(frozen=True)
class Case:
    """One simulation: its resolved config and the sweep's two offsets.

    pert_q0 / pert_qt0 are constant offsets added to the q1 component of
    the initial data and its time derivative at interior nodes (the
    reduced form of a diag(1,-1)/2-shaped perturbation).
    """

    cfg: ExperimentConfig
    pert_q0: float = 0.0
    pert_qt0: float = 0.0

    def __str__(self) -> str:
        text = "case nx=%d, ny=%d, dt=%g, sigma=%g" % (
            self.cfg.nx, self.cfg.ny, self.cfg.dt, self.cfg.params.sigma)
        if self.pert_q0 != 0.0 or self.pert_qt0 != 0.0:
            text += ", pert_q0=%g, pert_qt0=%g" % (self.pert_q0, self.pert_qt0)
        return text


def _simulate(case: Case) -> RunResult:
    """Run one simulation and record the energy trace.

    A ConvergenceError from a step is raised again naming the case, which
    it carries as .case next to .step, .t and .residual.
    """
    cfg = case.cfg
    params, dt = cfg.params, cfg.dt
    mesh = build_mesh(cfg.x0, cfg.x1, cfg.y0, cfg.y1, cfg.nx, cfg.ny)
    K = assembly.assemble_stiffness(mesh)
    w = assembly.lumped_mass(mesh)

    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        q0 = (np.zeros((2, mesh.n_interior)) if cfg.initial == "zero"
              else interpolate_qfield(mesh, default_initial_q))
    if not np.isfinite(q0).all():
        raise ConfigError("experiment.initial: the %s profile is not finite for %s"
                          % (cfg.initial, case))
    if case.pert_q0 != 0.0:
        q0[0] += case.pert_q0

    N = num_steps(cfg.T, dt)
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

    op = step_operator(params, dt, mesh, K, assembly.assemble_div_form(mesh)
                       if (params.L2 + params.L3) != 0.0 else None, w)
    state = initialize(params, dt, q0, r0, op, velocity)
    del q0, r0  # the state took them over

    work = (op.tmp, op.rhs)  # the operator's, free between steps
    trace = [analysis.discrete_energy(state, params, dt, mesh, work=work)]
    if not math.isfinite(trace[0].total):  # E_r sums r * r, about 2 A0 per node
        raise ConfigError("%s: the initial energy E = %g (E_r = %g) is not finite for %s"
                          % ("params" if math.isfinite(trace[0].rpart) else "params.A0",
                             trace[0].total, trace[0].rpart, case))
    for _ in range(N - state.n):
        prev = state.dq, trace[-1]  # the old state's other vectors die with the step
        try:
            state = step(state, params, dt, op, cg_tol=cfg.cg_tol)
        except ConvergenceError as exc:
            raise ConvergenceError("%s: %s" % (case, exc), exc.residual,
                                   step=exc.step, t=exc.t, case=case) from exc
        trace.append(analysis.discrete_energy(state, params, dt, mesh, prev, work))

    return RunResult(case=case, mesh=mesh, state=state, trace=trace, K=K)


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


def _cells(cfg: ExperimentConfig, nx: int) -> ExperimentConfig:
    """cfg on its own cells; nx defaults to the given count, ny to nx."""
    nx = nx if cfg.nx is None else cfg.nx
    return _whole_cells(cfg, nx, nx if cfg.ny is None else cfg.ny, "mesh.nx, mesh.ny")


def run_single(config: ExperimentConfig) -> RunResult:
    return _simulate(Case(_cells(_resolved(config, dt=1e-3), 16)))


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


def _whole_cells(cfg: ExperimentConfig, nx, ny, key: str) -> ExperimentConfig:
    """cfg on the integer counts of the nx x ny cells (inf too) that key
    sizes, if every int32 index array of a run and a study stays in range
    and the cells are square by build_mesh's rule (a cell that is not names
    the last key, the one that sizes ny) with an area h h, which scales
    every form, that is finite and positive (mesh.x1 otherwise).  This is
    the one place where cell counts become a case's lattice.
    The bound is twice the entries of the interior stiffness (five per
    interior node, less those past the boundary): it covers the interior
    consistent mass's 7m - 4(ni + nj) + 2 entries, the largest CSR form,
    whose index arrays scipy's tocsr() gives as int32 while they fit, and
    the at most 3m weights of a fine mesh in mesh.nested_injection(), which
    builds its int32 indices and indptr itself."""
    ni, nj = nx - 1, ny - 1
    if not 2 * (5 * ni * nj - 2 * ni - 2 * nj) < 2 ** 31:  # nan from inf too
        raise ConfigError("%s: %g x %g cells outgrow int32 indices" % (key, nx, ny))
    cells = round(nx), round(ny)
    if min(cells) < 2 or max(abs(nx - cells[0]), abs(ny - cells[1])) > 1e-9:
        raise ConfigError("%s: %r x %r cells are not at least 2 whole cells "
                          "per axis" % (key, nx, ny))
    hx, hy = (cfg.x1 - cfg.x0) / cells[0], (cfg.y1 - cfg.y0) / cells[1]
    if abs(hx - hy) > 1e-12 * max(abs(hx), abs(hy)):
        raise ConfigError("%s: cells must be square, got %r x %r"
                          % (key.split(", ")[-1], hx, hy))
    if not 0.0 < hx * hx < math.inf:
        raise ConfigError("mesh.x1: cells of size %r have an area h h = %r that is "
                          "not finite and positive" % (hx, hx * hx))
    return replace(cfg, nx=cells[0], ny=cells[1])


def _orders(errors):
    """The observed orders of a halving chain's errors; None on the first
    level and where an order needs an error that is zero."""
    return [None] + [analysis.convergence_orders(pair, 2.0)[0] if min(pair) > 0.0
                     else None for pair in zip(errors, errors[1:])]


def _against_first(cases, threads, measure):
    """Run the cases and measure each later one against the first, with
    the norm forms of the first's mesh and its run's K: measure(res, first,
    forms).

    Returns the measures in case order and the largest energy rise of any
    case, the first included."""
    results = _run_cases(cases, threads)
    first = results[0]
    forms = analysis.norm_forms(first.mesh, first.K)
    return ([measure(res, first, forms) for res in results[1:]],
            max(res.max_energy_increase for res in results))


def _refinement(levels, cases, threads,
                on_ref=lambda res, ref: (res.state.q, res.state.r)) -> StudyResult:
    """Run the reference cases[0] and one case per level, and tabulate the
    (Q11, Q12, r) errors of each case against the reference with their
    observed orders.

    on_ref(res, ref) gives a case's q and r as interior vectors of the
    reference mesh; the errors are measured with its norm forms.
    """
    def errors(res, ref, forms):
        q, r = on_ref(res, ref)
        return (analysis.h1_error_component(q, ref.state.q, forms, 0),
                analysis.h1_error_component(q, ref.state.q, forms, 1),
                analysis.l2_error_scalar(r, ref.state.r, forms))

    errs, rise = _against_first(cases, threads, errors)
    o11, o12, o_r = (_orders(col) for col in zip(*errs))
    rows = [RefinementRow(level, e[0], o11[k], e[1], o12[k], e[2], o_r[k])
            for k, (level, e) in enumerate(zip(levels, errs))]
    return StudyResult(rows=rows, max_energy_increase=rise)


def space_refinement_study(config: ExperimentConfig) -> StudyResult:
    """Errors against a fine reference under mesh halving.

    Each coarse solution is interpolated onto the reference mesh and the
    errors are evaluated there with exact quadrature.  The auxiliary
    variable is compared as a zero-boundary-trace finite element function
    (its natural discrete space): the coarse boundary's zeros enter the
    interpolation beside the boundary, so the coarse boundary ramp is part
    of the measured error.
    """
    cfg = _resolved(config, dt=1.25e-4, h_list=DEFAULT_H_LIST)
    h_list = tuple(cfg.h_list)
    _check_halving_chain(h_list, "experiment.h_list")

    width, height, level = cfg.x1 - cfg.x0, cfg.y1 - cfg.y0, cfg.reference_level
    cases = [Case(_whole_cells(cfg, width / h, height / h, "experiment.h_list"))
             for h in h_list]
    # the reference mesh, first, has extent 2^level cells per axis, formed
    # without 2^-level, which is 0 from level 1075 up
    try:
        n_ref = math.ldexp(width, level), math.ldexp(height, level)
    except OverflowError:
        n_ref = math.inf, math.inf
    cases.insert(0, Case(_whole_cells(cfg, *n_ref, "experiment.reference_level")))
    m = math.ldexp(h_list[-1], level)  # the reference mesh refines the finest m times
    if m < 1.5 or abs(m - round(m)) > 1e-9 * m:
        raise ConfigError("experiment.h_list must end at an integer multiple >= 2 "
                          "of the reference mesh size 2^-reference_level, got %r" % m)

    def on_ref(res, ref):
        inj = nested_injection(res.mesh, ref.mesh)
        return (analysis.transfer_to_fine(res.state.q, inj, ref.mesh),
                analysis.transfer_to_fine(res.state.r, inj, ref.mesh))

    return _refinement(h_list, cases, cfg.threads, on_ref)


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
    on_mesh = _cells(cfg, 32)
    cases = [Case(replace(on_mesh, dt=dt)) for dt in (cfg.reference_dt,) + dt_list]
    return _refinement(dt_list, cases, cfg.threads)


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
    on_mesh = _cells(cfg, 16)  # the parabolic run first: sigma 0, no perturbation
    cases = [Case(replace(on_mesh, params=replace(cfg.params, sigma=s)),
                  pert_q0=0.0 if math.isinf(p1) else 0.5 * s ** p1,
                  pert_qt0=0.0 if math.isinf(p2) else 0.5 * s ** p2)
             for p1, p2, s in [(math.inf, math.inf, 0.0)] + keys]
    distances, rise = _against_first(cases, cfg.threads, lambda res, par, forms:
                                     analysis.h1_error_field(par.state.q, res.state.q, forms))
    rows = [SigmaRow(s, p1, p2, d) for (p1, p2, s), d in zip(keys, distances)]

    xs = np.log(np.array(sigma_list))
    slopes = {}  # None where an error is zero, which has no logarithm
    for p1, p2 in pairs:
        errors = np.array([row.h1_error for row in rows if (row.p1, row.p2) == (p1, p2)])
        slopes[(p1, p2)] = (float(np.polyfit(xs, np.log(errors), 1)[0])
                            if errors.min() > 0.0 else None)

    return StudyResult(rows=rows, max_energy_increase=rise, slopes=slopes)
