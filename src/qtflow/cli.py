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
from dataclasses import asdict, astuple, replace
from functools import partial

from . import __version__
from .experiments import (
    ConfigError,
    ExperimentConfig,
    config_keys,
    run_single,
    sigma_study,
    space_refinement_study,
    time_refinement_study,
    validate_config,
)


def _float_list(text):
    """Numbers separated by commas or spaces; validate_config rejects the
    ones a list may not hold."""
    return tuple(float(tok) for tok in text.replace(",", " ").split())


#: Converter of a config value by the type name of its key.
_CONVERTERS = {"float": float, "int": int, "str": str, "tuple": _float_list}

#: Accepted keys of each config section, with their converters.
_SECTIONS: dict = {}
for _section, _name, _type, _ in config_keys(ExperimentConfig()):
    _SECTIONS.setdefault(_section, {})[_name] = _CONVERTERS[_type]


def parse_config(path: str | None) -> ExperimentConfig:
    """Read a config file; a missing argument or empty file yields the
    default profile."""
    # no default section: [DEFAULT] is an unknown section like any other;
    # no interpolation: values are literal, a '%' included
    cp = configparser.ConfigParser(default_section="", interpolation=None)
    cp.optionxform = str
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                cp.read_file(handle)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError("cannot read config file %s: %s" % (path, exc))

    given = {section: {} for section in _SECTIONS}
    for section in cp.sections():
        keys = _SECTIONS.get(section)
        if keys is None:
            raise ConfigError("unknown config section [%s]" % section)
        for key in cp.options(section):
            if key not in keys:
                raise ConfigError("unknown key %s.%s" % (section, key))
            try:
                given[section][key] = keys[key](cp.get(section, key))
            except ValueError as exc:
                raise ConfigError("bad value for %s.%s: %s" % (section, key, exc))

    try:
        params = replace(ExperimentConfig().params, **given["params"])
        cfg = ExperimentConfig(params=params, **given["mesh"], **given["experiment"])
        validate_config(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return cfg


def _fmt(x, spec="%.17g", missing="") -> str:
    """A value as text: a number by spec (every digit, for a CSV field), a
    label as it is, and missing where there is no value."""
    if x is None:
        return missing
    return x if isinstance(x, str) else spec % x


def _csv(header: str, rows) -> str:
    """A header line, then one line per row of values."""
    lines = [header] + [",".join(_fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_run(result) -> dict:
    dt = result.case.cfg.dt
    rows = [(n, n * dt, rec.total, rec.kinetic, rec.elastic, rec.divpart,
             rec.rpart, rec.dissipation_residual)
            for n, rec in enumerate(result.trace, result.state.n - len(result.trace) + 1)]
    defects = [abs(r.dissipation_residual) for r in result.trace]
    print("run finished: %d steps, E = %.6g, max residual %.3g"
          % (result.state.n, result.trace[-1].total,
             max(defects, key=lambda d: (math.isnan(d), d))))  # NaN outranks all
    return {"energy_trace.csv": _csv(
        "step,time,E_total,E_kinetic,E_elastic,E_div,E_r,dissipation_residual", rows)}


def _write_refinement(filename, level_name, result) -> dict:
    print("%-10s %-9s %-6s %-9s %-6s %-9s %-6s"
          % (level_name, "err_Q11", "ord", "err_Q12", "ord", "err_r", "ord"))
    for row in result.rows:
        print("%-10.4g %-9.3g %-6s %-9.3g %-6s %-9.3g %-6s" % (
            row.level, row.err_q11, _fmt(row.ord_q11, "%.2f", "-"), row.err_q12,
            _fmt(row.ord_q12, "%.2f", "-"), row.err_r, _fmt(row.ord_r, "%.2f", "-")))
    return {filename: _csv(
        "level,error_Q11,order_Q11,error_Q12,order_Q12,error_r,order_r",
        [astuple(row) for row in result.rows])}


def _write_sigma(result) -> dict:
    slopes = [("slope", p1, p2, slope) for (p1, p2), slope in result.slopes.items()]
    texts = {"sigma_study.csv": _csv(
        "sigma,p1,p2,h1_error", [astuple(row) for row in result.rows] + slopes)}
    for (p1, p2), slope in result.slopes.items():
        rows = [r for r in result.rows if r.p1 == p1 and r.p2 == p2]
        texts["sigma_case_p1_%g_p2_%g.dat" % (p1, p2)] = "".join(
            "%s %s\n" % (_fmt(r.sigma), _fmt(r.h1_error)) for r in rows)
        print("case p1=%g p2=%g: fitted slope %s" % (p1, p2, _fmt(slope, "%.3f", "-")))
    return texts


#: Subcommand name: (help text, name of the study function in this module,
#: looked up per call so that it can be rebound, and the writer that prints
#: its console summary and returns its outputs as {file name: text}).
_SUBCOMMANDS = {
    "run": ("single simulation with an energy trace", "run_single", _write_run),
    "space-refine": ("spatial refinement error study", "space_refinement_study",
                     partial(_write_refinement, "space_refinement.csv", "h")),
    "time-refine": ("time-step refinement error study", "time_refinement_study",
                    partial(_write_refinement, "time_refinement.csv", "dt")),
    "sigma-study": ("zero-inertia limit sweep", "sigma_study", _write_sigma),
}


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj


def _manifest(subcommand, config, timings, files) -> str:
    payload = {
        "version": __version__,
        "subcommand": subcommand,
        "config": _sanitize(asdict(config)),
        "wall_clock_seconds": timings,
        "files": files,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dispatch(subcommand: str, config: ExperimentConfig, out_dir: str) -> int:
    """Run one experiment and write its artifacts below out_dir, which is
    created only once the experiment has succeeded.

    Every output is written as the bytes that manifest.json lists the
    SHA-256 of; a failure removes every file this call opened.
    """
    if subcommand not in _SUBCOMMANDS:
        raise ConfigError("unknown subcommand %r" % subcommand)
    _, study, write = _SUBCOMMANDS[subcommand]
    t0 = time.perf_counter()
    result = globals()[study](config)
    timings = {"compute": time.perf_counter() - t0}

    t1 = time.perf_counter()
    outputs = {name: text.encode() for name, text in write(result).items()}
    files = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    timings["write"] = time.perf_counter() - t1
    outputs["manifest.json"] = _manifest(subcommand, config, timings, files).encode()

    os.makedirs(out_dir, exist_ok=True)
    opened: list = []
    try:
        for name, data in outputs.items():
            with open(os.path.join(out_dir, name), "wb") as handle:
                opened.append(handle.name)
                handle.write(data)
    except Exception:
        for path in opened:
            os.remove(path)
        raise
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtflow",
        description="Mass-lumped FEM solver for inertial Q-tensor flows",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (blurb, _, _) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", default=None, help="path to a config file")
        cmd.add_argument("--out", default=None,
                         help="output directory (default: config out_dir or ./out)")
        cmd.add_argument("--threads", type=int, default=None,
                         help="worker pool size for sweeps")
        cmd.add_argument("--reference-level", type=int, default=None,
                         help="reference refinement level override")
    return parser


def _check_out(path: str, key: str) -> None:
    """Reject an output path at or below a file before the study runs."""
    while not os.path.lexists(path):
        path = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(path):
        raise ConfigError("%s: %s is not a directory" % (key, path))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        config = parse_config(args.config)
        flags = {"threads": args.threads, "reference_level": args.reference_level}
        config = replace(config, **{k: v for k, v in flags.items() if v is not None})
        out_dir = args.out or config.out_dir or "out"
        _check_out(out_dir, "--out" if args.out else "experiment.out_dir")
        return dispatch(args.subcommand, config, out_dir)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:  # solver or I/O failure
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
