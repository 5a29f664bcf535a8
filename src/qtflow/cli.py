"""Command-line front end.

Subcommands: run, space-refine, time-refine, sigma-study.  Configuration
comes from a flat INI-style file with [mesh], [params] and [experiment]
sections; every omitted key falls back to the shipped default profile.
CSV outputs carry full 17-digit precision; console tables are rounded.

Exit codes: 0 success, 1 configuration error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace

from . import __version__
from .experiments import (
    ConfigError,
    ExperimentConfig,
    run_single,
    sigma_study,
    space_refinement_study,
    time_refinement_study,
)
from .model import Params

_MESH_KEYS = {"x0", "x1", "y0", "y1", "nx", "ny"}
_PARAM_KEYS = {"L1", "L2", "L3", "a", "b", "c", "A0", "sigma"}
_EXPERIMENT_KEYS = {
    "kind", "T", "dt", "initial", "h_list", "reference_level", "dt_list",
    "reference_dt", "sigma_list", "p1_list", "p2_list", "out_dir", "cg_tol",
    "threads",
}

_SUBCOMMAND_KIND = {
    "run": "run",
    "space-refine": "space",
    "time-refine": "time",
    "sigma-study": "sigma",
}


def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("%s is not a finite number" % text.strip())
    return value


def _float_list(text):
    return tuple(_float(tok) for tok in text.replace(",", " ").split())


def _exponent_list(text):
    """Perturbation exponents: finite numbers, or inf for no perturbation."""
    values = tuple(float(tok) for tok in text.replace(",", " ").split())
    for value in values:
        if not (math.isfinite(value) or value == math.inf):
            raise ValueError("%r is neither a finite number nor inf" % value)
    return values


def _get(cp, section, key, conv, fallback):
    if cp.has_option(section, key):
        raw = cp.get(section, key)
        try:
            return conv(raw)
        except ValueError as exc:
            raise ConfigError("bad value for %s.%s: %s" % (section, key, exc))
    return fallback


def parse_config(path: str | None) -> ExperimentConfig:
    """Read a config file; a missing argument or empty file yields the
    default profile."""
    cp = configparser.ConfigParser()
    cp.optionxform = str
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError("config file %s does not exist" % path)
        cp.read(path)

    for section in cp.sections():
        allowed = {"mesh": _MESH_KEYS, "params": _PARAM_KEYS,
                   "experiment": _EXPERIMENT_KEYS}.get(section)
        if allowed is None:
            raise ConfigError("unknown config section [%s]" % section)
        for key in cp.options(section):
            if key not in allowed:
                raise ConfigError("unknown key %r in section [%s]" % (key, section))

    defaults = ExperimentConfig()
    try:
        params = Params(**{
            key: _get(cp, "params", key, _float, getattr(defaults.params, key))
            for key in sorted(_PARAM_KEYS)
        })
    except ValueError as exc:
        raise ConfigError(str(exc))
    cfg = ExperimentConfig(
        kind=_get(cp, "experiment", "kind", str, defaults.kind),
        x0=_get(cp, "mesh", "x0", _float, defaults.x0),
        x1=_get(cp, "mesh", "x1", _float, defaults.x1),
        y0=_get(cp, "mesh", "y0", _float, defaults.y0),
        y1=_get(cp, "mesh", "y1", _float, defaults.y1),
        nx=_get(cp, "mesh", "nx", int, defaults.nx),
        ny=_get(cp, "mesh", "ny", int, defaults.ny),
        T=_get(cp, "experiment", "T", _float, defaults.T),
        dt=_get(cp, "experiment", "dt", _float, defaults.dt),
        params=params,
        initial=_get(cp, "experiment", "initial", str, defaults.initial),
        h_list=_get(cp, "experiment", "h_list", _float_list, defaults.h_list),
        reference_level=_get(cp, "experiment", "reference_level", int,
                             defaults.reference_level),
        dt_list=_get(cp, "experiment", "dt_list", _float_list, defaults.dt_list),
        reference_dt=_get(cp, "experiment", "reference_dt", _float,
                          defaults.reference_dt),
        sigma_list=_get(cp, "experiment", "sigma_list", _float_list,
                        defaults.sigma_list),
        p1_list=_get(cp, "experiment", "p1_list", _exponent_list,
                     defaults.p1_list),
        p2_list=_get(cp, "experiment", "p2_list", _exponent_list,
                     defaults.p2_list),
        out_dir=_get(cp, "experiment", "out_dir", str, defaults.out_dir),
        cg_tol=_get(cp, "experiment", "cg_tol", _float, defaults.cg_tol),
        threads=_get(cp, "experiment", "threads", int, defaults.threads),
    )
    try:
        from .experiments import validate_config
        validate_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return cfg


def _fmt(x) -> str:
    if x is None:
        return ""
    return "%.17g" % x


def _write(path: str, text: str, created: list) -> None:
    with open(path, "w") as handle:
        handle.write(text)
    created.append(path)


def _energy_csv(result, dt) -> str:
    lines = ["step,time,E_total,E_kinetic,E_elastic,E_div,E_r,dissipation_residual"]
    first_n = result.state.n - (len(result.trace) - 1)
    for k, rec in enumerate(result.trace):
        n = first_n + k
        lines.append(",".join([
            str(n), _fmt(n * dt), _fmt(rec.total), _fmt(rec.kinetic),
            _fmt(rec.elastic), _fmt(rec.divpart), _fmt(rec.rpart),
            _fmt(rec.dissipation_residual),
        ]))
    return "\n".join(lines) + "\n"


def _refine_csv(rows) -> str:
    lines = ["level,error_Q11,order_Q11,error_Q12,order_Q12,error_r,order_r"]
    for row in rows:
        lines.append(",".join([
            _fmt(row.level), _fmt(row.err_q11), _fmt(row.ord_q11),
            _fmt(row.err_q12), _fmt(row.ord_q12),
            _fmt(row.err_r), _fmt(row.ord_r),
        ]))
    return "\n".join(lines) + "\n"


def _sigma_csv(result) -> str:
    lines = ["sigma,p1,p2,h1_error"]
    for row in result.rows:
        lines.append(",".join([
            _fmt(row.sigma), _fmt(row.p1), _fmt(row.p2), _fmt(row.h1_error),
        ]))
    for (p1, p2), slope in result.slopes.items():
        lines.append(",".join(["slope", _fmt(p1), _fmt(p2), _fmt(slope)]))
    return "\n".join(lines) + "\n"


def _print_refine_table(rows, level_name):
    print("%-10s %-9s %-6s %-9s %-6s %-9s %-6s"
          % (level_name, "err_Q11", "ord", "err_Q12", "ord", "err_r", "ord"))
    for row in rows:
        print("%-10.4g %-9.3g %-6s %-9.3g %-6s %-9.3g %-6s" % (
            row.level, row.err_q11,
            "-" if row.ord_q11 is None else "%.2f" % row.ord_q11,
            row.err_q12,
            "-" if row.ord_q12 is None else "%.2f" % row.ord_q12,
            row.err_r,
            "-" if row.ord_r is None else "%.2f" % row.ord_r,
        ))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _manifest(out_dir, config, timings, created) -> str:
    inventory = {}
    for path in created:
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        inventory[os.path.relpath(path, out_dir)] = digest
    payload = {
        "version": __version__,
        "config": _sanitize(asdict(config)),
        "wall_clock_seconds": timings,
        "files": inventory,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dispatch(subcommand: str, config: ExperimentConfig, out_dir: str) -> int:
    """Run one experiment and write its artifacts below out_dir."""
    kind = _SUBCOMMAND_KIND.get(subcommand)
    if kind is None:
        raise ConfigError("unknown subcommand %r" % subcommand)
    config = replace(config, kind=kind)
    os.makedirs(out_dir, exist_ok=True)

    created: list = []
    timings: dict = {}
    try:
        t0 = time.perf_counter()
        if kind == "run":
            result = run_single(config)
            timings["compute"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            dt = config.dt if config.dt is not None else 1e-3
            _write(os.path.join(out_dir, "energy_trace.csv"),
                   _energy_csv(result, dt), created)
            timings["write"] = time.perf_counter() - t1
            last = result.trace[-1]
            print("run finished: %d steps, E = %.6g, max residual %.3g"
                  % (result.state.n, last.total,
                     max(abs(r.dissipation_residual) for r in result.trace)))
        elif kind == "space":
            result = space_refinement_study(config)
            timings["compute"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            _write(os.path.join(out_dir, "space_refinement.csv"),
                   _refine_csv(result.rows), created)
            timings["write"] = time.perf_counter() - t1
            _print_refine_table(result.rows, "h")
        elif kind == "time":
            result = time_refinement_study(config)
            timings["compute"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            _write(os.path.join(out_dir, "time_refinement.csv"),
                   _refine_csv(result.rows), created)
            timings["write"] = time.perf_counter() - t1
            _print_refine_table(result.rows, "dt")
        else:
            result = sigma_study(config)
            timings["compute"] = time.perf_counter() - t0
            t1 = time.perf_counter()
            _write(os.path.join(out_dir, "sigma_study.csv"),
                   _sigma_csv(result), created)
            for (p1, p2), slope in result.slopes.items():
                name = "sigma_case_p1_%g_p2_%g.dat" % (p1, p2)
                rows = [r for r in result.rows if r.p1 == p1 and r.p2 == p2]
                text = "".join("%s %s\n" % (_fmt(r.sigma), _fmt(r.h1_error))
                               for r in rows)
                _write(os.path.join(out_dir, name), text, created)
                print("case p1=%g p2=%g: fitted slope %.3f" % (p1, p2, slope))
            timings["write"] = time.perf_counter() - t1

        manifest_path = os.path.join(out_dir, "manifest.json")
        _write(manifest_path, _manifest(out_dir, config, timings, created[:]),
               created)
    except ConfigError:
        raise
    except Exception:
        for path in created:
            if os.path.exists(path):
                os.remove(path)
        raise
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtflow",
        description="Mass-lumped FEM solver for inertial Q-tensor flows",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, blurb in [
        ("run", "single simulation with an energy trace"),
        ("space-refine", "spatial refinement error study"),
        ("time-refine", "time-step refinement error study"),
        ("sigma-study", "zero-inertia limit sweep"),
    ]:
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", default=None, help="path to a config file")
        cmd.add_argument("--out", default=None,
                         help="output directory (default: config out_dir or ./out)")
        cmd.add_argument("--threads", type=int, default=None,
                         help="worker pool size for sweeps")
        cmd.add_argument("--reference-level", type=int, default=None,
                         help="reference refinement level override")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        config = parse_config(args.config)
        if args.threads is not None:
            config = replace(config, threads=args.threads)
        if args.reference_level is not None:
            config = replace(config, reference_level=args.reference_level)
        out_dir = args.out or config.out_dir or "out"
        return dispatch(args.subcommand, config, out_dir)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # solver or I/O failure
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
