"""Checks on the files one ``qtflow`` command wrote.

Every run is checked for a consistent manifest and finite numbers, and an
energy trace for the energy identity and for monotone decay.  Seed 0 runs
the canonical configs, whose CSVs are also compared with the reference
copies in ``reference/<workload>/``.  Byte identity with the reference is
counted but is no gate: a faster solve may move bits within the CG
tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

# Criterion 1 of the acceptance suite: |dissipation residual| <= 1e-9 * E0.
ENERGY_IDENTITY_BOUND = 1e-9

# Columns that are roundoff (gated by the energy identity instead) and
# columns where an infinite value is legitimate (a missing perturbation).
NOISE_COLUMNS = {"dissipation_residual"}
INFINITE_OK_COLUMNS = {"p1", "p2"}

MANIFEST = "manifest.json"


def read_table(path):
    """Rows of tokens: comma-separated for .csv, whitespace otherwise."""
    sep = "," if path.endswith(".csv") else None
    with open(path) as handle:
        return [line.split(sep) for line in handle.read().splitlines()]


def _number(token):
    """A float, None for an empty field, or the token itself."""
    if token == "":
        return None
    try:
        return float(token)
    except ValueError:
        return token


def _column_names(table):
    """The header of a CSV table, or numbered columns for a bare table."""
    if table and all(isinstance(_number(t), str) for t in table[0]):
        return table[0]
    width = max((len(row) for row in table), default=0)
    return [str(c) for c in range(width)]


def _cells(table):
    """(row, column key, value) for every field, header excluded.

    The key is the column name, prefixed by the row label for labelled
    rows such as the fitted ``slope`` rows of the sigma study.
    """
    names = _column_names(table)
    start = 1 if names is table[0] else 0
    for r, row in enumerate(table[start:], start):
        label = _number(row[0]) if row else None
        prefix = label + ":" if isinstance(label, str) else ""
        for c, token in enumerate(row):
            name = names[c] if c < len(names) else str(c)
            yield r, prefix + name, _number(token)


def finite_problems(name, table):
    return ["%s row %d %s: %r is not finite" % (name, r, col, v)
            for r, col, v in _cells(table)
            if isinstance(v, float) and not math.isfinite(v)
            and not (col.split(":")[-1] in INFINITE_OK_COLUMNS and math.isinf(v))]


def column_scales(tables):
    """Largest finite |value| per column key over several tables."""
    scale = {}
    for table in tables:
        for _, col, v in _cells(table):
            if isinstance(v, float) and math.isfinite(v):
                scale[col] = max(scale.get(col, 0.0), abs(v))
    return scale


def compare_tables(name, actual, expected, rel_tol, scale):
    """Differences beyond rel_tol * (|reference| + column scale)."""
    if [len(row) for row in actual] != [len(row) for row in expected]:
        return ["%s: the shape differs from the reference" % name]
    problems = []
    for (r, col, a), (_, _, e) in zip(_cells(actual), _cells(expected)):
        if col.split(":")[-1] in NOISE_COLUMNS or a == e:
            continue
        if (isinstance(a, float) and isinstance(e, float)
                and abs(a - e) <= rel_tol * (abs(e) + scale.get(col, 0.0))):
            continue
        problems.append("%s row %d %s: %r, reference %r" % (name, r, col, a, e))
    return problems


def energy_problems(table):
    """Energy identity within criterion 1's bound, and monotone decay."""
    names = table[0]
    total = names.index("E_total")
    resid = names.index("dissipation_residual")
    rows = [[float(t) for t in row] for row in table[1:]]
    if not rows:
        return ["energy trace is empty"]
    bound = ENERGY_IDENTITY_BOUND * abs(rows[0][total])
    problems = []
    worst = max(abs(row[resid]) for row in rows)
    if not worst <= bound:
        problems.append("energy identity residual %.3g exceeds %.3g" % (worst, bound))
    rise = max((b[total] - a[total] for a, b in zip(rows, rows[1:])), default=0.0)
    if not rise <= bound:
        problems.append("energy rose by %.3g in one step" % rise)
    return problems


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def check_outputs(out_dir, ref_dir, seed, rel_tol_per_cg_tol):
    """Problems found in out_dir, and (identical, compared) file counts.

    The expected file names are those of the reference directory.  A value
    may differ from its reference by rel_tol_per_cg_tol * cg_tol times
    (|reference| + the largest |value| of its column in the reference
    files).  The counts are (0, 0) for a jittered seed, which has no
    reference.
    """
    expected = sorted(os.listdir(ref_dir))
    try:
        with open(os.path.join(out_dir, MANIFEST)) as handle:
            manifest = json.load(handle)
    except (OSError, ValueError) as exc:
        return ["no readable manifest: %s" % exc], (0, 0)
    files = manifest.get("files", {})
    if sorted(files) != expected:
        return ["output files %s, expected %s" % (sorted(files), expected)], (0, 0)

    problems = []
    identical = 0
    rel_tol = rel_tol_per_cg_tol * float(manifest["config"]["cg_tol"])
    refs = {name: read_table(os.path.join(ref_dir, name)) for name in expected}
    scale = column_scales(refs.values())
    for name in expected:
        path = os.path.join(out_dir, name)
        if _sha256(path) != files[name]:
            problems.append("%s does not match its manifest digest" % name)
        table = read_table(path)
        problems += finite_problems(name, table)
        if name == "energy_trace.csv":
            problems += energy_problems(table)
        if seed == 0:
            problems += compare_tables(name, table, refs[name], rel_tol, scale)
            identical += files[name] == _sha256(os.path.join(ref_dir, name))
    return problems, (identical, len(expected) if seed == 0 else 0)
