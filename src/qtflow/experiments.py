"""Scripted experiments: single runs, refinement studies, inertia sweeps.

Every experiment is deterministic: given the same configuration the same
bits come out, whether cases run serially or on a process pool (results
are assembled in case order, not completion order).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import analysis, assembly
from .mesh import build_mesh, nested_injection
from .model import Params
from .stepper import (
    SimState,
    build_default_Qt0,
    initialize,
    interior_of,
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

KINDS = ("run", "space", "time", "sigma")
INITIAL_PROFILES = ("default", "zero")


def default_initial_q(x, y):
    """Reduced components of the default director-based initial state."""
    n1 = x * (2.0 - x) * y * (2.0 - y)
    n2 = np.sin(np.pi * x) * np.sin(0.5 * np.pi * y)
    return 0.5 * (n1 * n1 - n2 * n2), n1 * n2


@dataclass
class ExperimentConfig:
    kind: str = "run"
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
    reference_dt: float = 6.25e-5
    sigma_list: tuple | None = None
    p1_list: tuple = (0.5, 1.0, math.inf)
    p2_list: tuple = (0.5, math.inf)
    out_dir: str | None = None
    cg_tol: float = 1e-10
    threads: int = 1


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def num_steps(T: float, dt: float) -> int:
    """Number of steps; rejects T/dt that is not integral."""
    ratio = T / dt
    k = round(ratio)
    if k < 1 or abs(ratio - k) > 1e-12 * max(1.0, ratio):
        raise ConfigError("T/dt = %r is not an integer" % ratio)
    return k


def _check_finite(cfg: ExperimentConfig) -> None:
    """Reject non-finite numbers, naming the field.  Perturbation exponents
    may also be +inf, which means no perturbation."""
    for name in ("x0", "x1", "y0", "y1", "T", "dt", "reference_dt", "cg_tol"):
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError("%s must be a finite number, got %r" % (name, value))
    for f in fields(cfg.params):
        value = getattr(cfg.params, f.name)
        if not math.isfinite(value):
            raise ConfigError("params.%s must be a finite number, got %r" % (f.name, value))
    for name in ("h_list", "dt_list", "sigma_list"):
        for value in getattr(cfg, name) or ():
            if not math.isfinite(value):
                raise ConfigError("%s entries must be finite numbers, got %r"
                                  % (name, value))
    for name in ("p1_list", "p2_list"):
        for value in getattr(cfg, name):
            if not (math.isfinite(value) or value == math.inf):
                raise ConfigError("%s entries must be finite numbers or inf, got %r"
                                  % (name, value))


def validate_config(cfg: ExperimentConfig) -> None:
    _check_finite(cfg)
    if cfg.kind not in KINDS:
        raise ConfigError("unknown experiment kind %r" % cfg.kind)
    if cfg.initial not in INITIAL_PROFILES:
        raise ConfigError("unknown initial profile %r" % cfg.initial)
    if cfg.T <= 0.0:
        raise ConfigError("T must be positive")
    if cfg.cg_tol <= 0.0:
        raise ConfigError("cg_tol must be positive")
    if cfg.threads < 1:
        raise ConfigError("threads must be at least 1")
    if cfg.nx is not None and cfg.nx < 2:
        raise ConfigError("nx must be at least 2")
    if cfg.ny is not None and cfg.ny < 2:
        raise ConfigError("ny must be at least 2")
    if cfg.dt is not None:
        if cfg.dt <= 0.0:
            raise ConfigError("dt must be positive")
        num_steps(cfg.T, cfg.dt)
    for dt in cfg.dt_list or ():
        num_steps(cfg.T, dt)
    if cfg.kind == "time":
        num_steps(cfg.T, cfg.reference_dt)
    for s in cfg.sigma_list or ():
        if s <= 0.0:
            raise ConfigError("sigma list entries must be positive, got %r" % s)
    if cfg.reference_level < 1:
        raise ConfigError("reference_level must be at least 1")


@dataclass
class RunResult:
    mesh: object
    state: SimState
    trace: list  # of analysis.EnergyRecord

    @property
    def max_energy_increase(self) -> float:
        totals = [rec.total for rec in self.trace]
        if len(totals) < 2:
            return 0.0
        return float(max(b - a for a, b in zip(totals, totals[1:])))


def _simulate(x0, x1, y0, y1, nx, ny, params, dt, T, cg_tol,
              initial="default", pert_q0=0.0, pert_qt0=0.0) -> RunResult:
    """Run one simulation and record the energy trace.

    pert_q0 / pert_qt0 are constant offsets added to the q1 component of
    the initial data and its time derivative at interior nodes (the
    reduced form of a diag(1,-1)/2-shaped perturbation).
    """
    mesh = build_mesh(x0, x1, y0, y1, nx, ny)
    K = assembly.assemble_stiffness(mesh)
    D = assembly.assemble_div_form(mesh) if (params.L2 + params.L3) != 0.0 else None
    w = assembly.lumped_mass(mesh)
    idx = mesh.interior_nodes

    if initial == "zero":
        Q0 = np.zeros((mesh.n_nodes, 2))
    else:
        Q0 = interpolate_qfield(mesh, default_initial_q)
    if pert_q0 != 0.0:
        Q0[idx, 0] += pert_q0

    N = num_steps(T, dt)
    if params.sigma > 0.0:
        r0 = nodal_r(mesh, params, Q0)
        Qt0 = build_default_Qt0(mesh, params, Q0, r0, K)
        if pert_qt0 != 0.0:
            Qt0[idx, 0] += pert_qt0
        state = initialize(mesh, params, dt, Q0, Qt0)
        remaining = N - 1
    else:
        state = initialize(mesh, params, dt, Q0)
        remaining = N
    state = replace(state, interior=interior_of(state, params, mesh, K, D))
    op = step_operator(params, dt, K, D, w)

    trace = [analysis.discrete_energy(state, params, dt, mesh, K, D, w)]
    prev_dtq = None
    if params.sigma > 0.0:
        prev_dtq = state.interior.dq / dt

    for _ in range(remaining):
        old_total = trace[-1].total
        state = step(state, params, dt, mesh, K, D, w, cg_tol=cg_tol, op=op)
        rec = analysis.discrete_energy(state, params, dt, mesh, K, D, w)
        dtq = state.interior.dq / dt
        resid = rec.total - old_total + dt * analysis.h_norm_sq(w, dtq)
        if params.sigma > 0.0:
            resid += 0.5 * params.sigma * analysis.h_norm_sq(w, dtq - prev_dtq)
            prev_dtq = dtq
        rec.dissipation_residual = resid
        trace.append(rec)

    return RunResult(mesh=mesh, state=state, trace=trace)


def _simulate_args(args) -> RunResult:
    return _simulate(*args)


def _run_cases(case_args, threads):
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_simulate_args, case_args))
    return [_simulate_args(a) for a in case_args]


def run_single(config: ExperimentConfig) -> RunResult:
    validate_config(config)
    nx = config.nx if config.nx is not None else 16
    ny = config.ny if config.ny is not None else nx
    dt = config.dt if config.dt is not None else 1e-3
    return _simulate(config.x0, config.x1, config.y0, config.y1, nx, ny,
                     config.params, dt, config.T, config.cg_tol,
                     initial=config.initial)


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


def _check_halving_chain(values, name):
    if len(values) < 2:
        raise ConfigError("%s needs at least two entries" % name)
    for a, b in zip(values, values[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ConfigError("%s is not a halving chain: %r" % (name, values))


def _cells_for_h(width, h):
    n = width / h
    k = round(n)
    if k < 2 or abs(n - k) > 1e-9:
        raise ConfigError("mesh size h=%r does not divide the domain width" % h)
    return k


def space_refinement_study(config: ExperimentConfig) -> StudyResult:
    """Errors against a fine reference under mesh halving.

    Each coarse solution is interpolated onto the reference mesh and the
    errors are evaluated there with exact quadrature.  The auxiliary
    variable is compared as a zero-boundary-trace finite element function
    (its natural discrete space), so the coarse boundary ramp is part of
    the measured error.
    """
    cfg = replace(config, kind="space")
    validate_config(cfg)
    dt = cfg.dt if cfg.dt is not None else 1.25e-4
    num_steps(cfg.T, dt)
    h_list = tuple(cfg.h_list) if cfg.h_list is not None else DEFAULT_H_LIST
    _check_halving_chain(h_list, "h list")

    width = cfg.x1 - cfg.x0
    height = cfg.y1 - cfg.y0
    h_ref = 2.0 ** (-cfg.reference_level)
    if min(h_list) <= h_ref:
        raise ConfigError("h list must stay strictly coarser than the reference")
    nx_ref = _cells_for_h(width, h_ref)
    ny_ref = _cells_for_h(height, h_ref)

    base = (cfg.x0, cfg.x1, cfg.y0, cfg.y1)
    cases = [base + (nx_ref, ny_ref, cfg.params, dt, cfg.T, cfg.cg_tol, cfg.initial)]
    for h in h_list:
        cases.append(base + (_cells_for_h(width, h), _cells_for_h(height, h),
                             cfg.params, dt, cfg.T, cfg.cg_tol, cfg.initial))
    results = _run_cases(cases, cfg.threads)
    ref = results[0]

    forms = analysis.norm_forms(ref.mesh)
    ref_r0 = ref.state.r.copy()
    ref_r0[ref.mesh.is_boundary] = 0.0
    errs = {"q11": [], "q12": [], "r": []}
    for res in results[1:]:
        inj = nested_injection(res.mesh, ref.mesh)
        Qt = analysis.transfer_to_fine(res.state.Qcurr, inj, ref.mesh)
        errs["q11"].append(analysis.h1_error_component(Qt, ref.state.Qcurr, forms, 0))
        errs["q12"].append(analysis.h1_error_component(Qt, ref.state.Qcurr, forms, 1))
        r0 = res.state.r.copy()
        r0[res.mesh.is_boundary] = 0.0
        rt = analysis.transfer_to_fine(r0, inj, ref.mesh)
        errs["r"].append(analysis.l2_error_scalar(rt, ref_r0, forms))

    orders = {key: [None] + analysis.convergence_orders(val, 2.0)
              for key, val in errs.items()}
    rows = [RefinementRow(h, errs["q11"][k], orders["q11"][k],
                          errs["q12"][k], orders["q12"][k],
                          errs["r"][k], orders["r"][k])
            for k, h in enumerate(h_list)]
    return StudyResult(rows=rows,
                       max_energy_increase=max(r.max_energy_increase for r in results))


def time_refinement_study(config: ExperimentConfig) -> StudyResult:
    """Errors against a small-step reference on a single mesh."""
    cfg = replace(config, kind="time")
    validate_config(cfg)
    nx = cfg.nx if cfg.nx is not None else 32
    ny = cfg.ny if cfg.ny is not None else nx
    dt_list = tuple(cfg.dt_list) if cfg.dt_list is not None else DEFAULT_DT_LIST
    _check_halving_chain(dt_list, "dt list")
    if min(dt_list) <= cfg.reference_dt:
        raise ConfigError("dt list must end above the reference dt")
    for dt in dt_list + (cfg.reference_dt,):
        num_steps(cfg.T, dt)

    base = (cfg.x0, cfg.x1, cfg.y0, cfg.y1, nx, ny, cfg.params)
    cases = [base + (cfg.reference_dt, cfg.T, cfg.cg_tol, cfg.initial)]
    for dt in dt_list:
        cases.append(base + (dt, cfg.T, cfg.cg_tol, cfg.initial))
    results = _run_cases(cases, cfg.threads)
    ref = results[0]
    forms = analysis.norm_forms(ref.mesh)

    errs = {"q11": [], "q12": [], "r": []}
    for res in results[1:]:
        errs["q11"].append(analysis.h1_error_component(res.state.Qcurr, ref.state.Qcurr, forms, 0))
        errs["q12"].append(analysis.h1_error_component(res.state.Qcurr, ref.state.Qcurr, forms, 1))
        errs["r"].append(analysis.l2_error_scalar(res.state.r, ref.state.r, forms))

    orders = {key: [None] + analysis.convergence_orders(val, 2.0)
              for key, val in errs.items()}
    rows = [RefinementRow(dt, errs["q11"][k], orders["q11"][k],
                          errs["q12"][k], orders["q12"][k],
                          errs["r"][k], orders["r"][k])
            for k, dt in enumerate(dt_list)]
    return StudyResult(rows=rows,
                       max_energy_increase=max(r.max_energy_increase for r in results))


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
    cfg = replace(config, kind="sigma")
    validate_config(cfg)
    nx = cfg.nx if cfg.nx is not None else 16
    ny = cfg.ny if cfg.ny is not None else nx
    dt = cfg.dt if cfg.dt is not None else 1e-5
    num_steps(cfg.T, dt)
    sigma_list = tuple(cfg.sigma_list) if cfg.sigma_list is not None else DEFAULT_SIGMA_LIST
    if min(sigma_list) <= 0.0:
        raise ConfigError("sigma values must be positive")
    span = math.log10(max(sigma_list) / min(sigma_list))
    if span < 1.5 - 1e-9:
        raise ConfigError("sigma sweep must span at least 1.5 decades, got %.2f" % span)

    base = (cfg.x0, cfg.x1, cfg.y0, cfg.y1, nx, ny)
    parabolic = replace(cfg.params, sigma=0.0)
    cases = [base + (parabolic, dt, cfg.T, cfg.cg_tol, cfg.initial)]
    case_keys = []
    for p1 in cfg.p1_list:
        for p2 in cfg.p2_list:
            for s in sigma_list:
                pert1 = 0.0 if math.isinf(p1) else 0.5 * s ** p1
                pert2 = 0.0 if math.isinf(p2) else 0.5 * s ** p2
                hyper = replace(cfg.params, sigma=s)
                cases.append(base + (hyper, dt, cfg.T, cfg.cg_tol, cfg.initial,
                                     pert1, pert2))
                case_keys.append((p1, p2, s))
    results = _run_cases(cases, cfg.threads)
    par = results[0]
    forms = analysis.norm_forms(par.mesh)

    rows = []
    for key, res in zip(case_keys, results[1:]):
        p1, p2, s = key
        err = analysis.h1_error_field(par.state.Qcurr, res.state.Qcurr, forms)
        rows.append(SigmaRow(sigma=s, p1=p1, p2=p2, h1_error=err))

    slopes = {}
    for p1 in cfg.p1_list:
        for p2 in cfg.p2_list:
            pts = [(row.sigma, row.h1_error) for row in rows
                   if row.p1 == p1 and row.p2 == p2]
            xs = np.log(np.array([p[0] for p in pts]))
            ys = np.log(np.array([p[1] for p in pts]))
            slopes[(p1, p2)] = float(np.polyfit(xs, ys, 1)[0])

    return StudyResult(rows=rows,
                       max_energy_increase=max(r.max_energy_increase for r in results),
                       slopes=slopes)
