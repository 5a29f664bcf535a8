"""Pinned output bits: the SHA-256 of every CSV and .dat file that small
configs of each subcommand write.

The configs cover the stiffness and divergence forms (run, space-refine),
a parabolic anisotropic run on 32^2, whose bits show the one elastic
constant c = L1 + (L2+L3)/2 (run-aniso: c_k K q + c_d K q rounds
differently there), a non-dyadic mesh, whose set-up rounds differently
(run-nondyadic), interior lattices one node wide and one node tall
(run-thin, run-thin-tall), where the stencil's +-1 and +-width offsets
coincide or leave the matrix, an all-zero start with a < 0 (run-zero),
whose P(0) is -0 at every node, so that each projection p . q sums
(-0) + (-0), the norm forms on a 64^2 reference
(space-refine), the time study and the sigma sweep with finite and
infinite exponents.  Each
is keyed by a name and names its subcommand.  The hashes were recorded
with numpy 2.4.6 and scipy 1.17.1, BLAS pinned to one thread; other
versions or thread counts may round differently, so the test skips there.
A change that keeps these hashes kept every output bit of these configs.
The run, run-nondyadic and space-refine hashes were re-recorded when the
solver moved to component-major vectors and the energy to a boundary
constant r0, which reorder the sums of every dot product and of E_r;
CHANGES.md lists the old and new hashes with the largest relative change
of each file, and the hash of run-aniso before the fold.  The three
energy_trace.csv hashes were re-recorded once more when the lumped weight
became one float: every state kept its bits, but the energy's two lumped
sums (the kinetic norm and the interior part of E_r) and the boundary
weight are now summed in another order; CHANGES.md lists those hashes too.
The two thin-lattice hashes were recorded while the constant block was a
CSR matrix and hold with it stored by diagonals.  The space-refine,
time-refine and sigma-study hashes were re-recorded when the error norms
moved to interior vectors: every difference they measure is the same, but
its dot products run over the m interior entries instead of all N nodes,
which sums them in another order (CHANGES.md lists the old and new hashes).
The run-nondyadic hash was re-recorded when the stencils came to depend on
the cell size alone: the element sums over the first cell's coordinates
had carried their roundoff into K (3.9999999999999996 and
-0.9999999999999999 on this mesh), and K is now the exact (4, -1);
E_total and E_r kept their bits, the other energies moved by at most
7.5e-16 relative (CHANGES.md lists both hashes).  On dyadic meshes the
tables give the old bits, so no other hash moved.
Every hash but run-zero's was re-recorded when the step operator came to
store its rank-one vectors as sqrt(w) P, and the step, aux_P and the
energy each came to take a product of scalars as one factor (w c_m,
w sigma / dt^2, (a + c tr Q^2) / r, |dq|^2 / dt^2): each rounds in
another order.  run-zero's fields stay exactly zero.  CHANGES.md lists the old and new
hashes with the largest relative change of each file.  Every hash but
run-zero's was re-recorded again when CG dropped its Jacobi
preconditioner, whose diagonal varies by at most 4.1e-7 relative on the
shipped studies, and the bulk potential came to be formed in Horner form:
the iterates are the same up to rounding, and every solution moves inside
the CG tolerance (CHANGES.md lists both hashes of every file).  Running this file
as a script prints HASHES as the running environment writes them; with
--keep DIR it keeps each config's files under DIR, and --compare OLD NEW
prints the largest relative change of each column between two kept trees,
the record of a re-recording.
README.md quotes the space-refine hash, and test_readme_quotes_the_pinned_hash
holds the quote to the pin.  Each run's manifest.json must list the SHA-256
of every other file it wrote, as read back from the disk.
"""

import hashlib
import json
import math
import os
import re

import numpy as np
import pytest
import scipy

from qtflow.cli import main

RECORDED_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CONFIGS = {
    "run": ("run", """
[mesh]
nx = 16
[params]
L2 = 5e-4
L3 = 5e-4
[experiment]
T = 0.02
dt = 1e-3
"""),
    "run-aniso": ("run", """
[mesh]
nx = 32
[params]
L2 = 5e-4
L3 = 5e-4
sigma = 0.0
[experiment]
T = 0.02
dt = 1e-3
"""),
    "run-nondyadic": ("run", """
[mesh]
x0 = 0.1
x1 = 1.4
y0 = 0.1
y1 = 1.4
nx = 13
ny = 13
[params]
L2 = 5e-4
L3 = 5e-4
[experiment]
T = 0.02
dt = 1e-3
"""),
    "run-zero": ("run", """
[mesh]
nx = 16
[params]
L2 = 5e-4
L3 = 5e-4
[experiment]
T = 0.02
dt = 1e-3
initial = zero
"""),
    "run-thin": ("run", """
[mesh]
x1 = 0.5
nx = 2
ny = 8
[params]
L2 = 5e-4
L3 = 5e-4
[experiment]
T = 0.02
dt = 1e-3
"""),
    "run-thin-tall": ("run", """
[mesh]
y1 = 0.5
nx = 8
ny = 2
[params]
sigma = 0.0
[experiment]
T = 0.02
dt = 1e-3
"""),
    "space-refine": ("space-refine", """
[params]
L2 = 5e-4
L3 = 5e-4
sigma = 0.0
[experiment]
T = 0.01
dt = 1e-3
h_list = 0.5, 0.25, 0.125
reference_level = 5
"""),
    "time-refine": ("time-refine", """
[mesh]
nx = 8
[experiment]
T = 0.008
dt_list = 4e-3, 2e-3
reference_dt = 1e-3
"""),
    "sigma-study": ("sigma-study", """
[mesh]
nx = 4
[experiment]
T = 0.01
dt = 1e-3
sigma_list = 1e-3, 1e-2, 1e-1
p1_list = 1, inf
p2_list = 1, inf
"""),
}

HASHES = {
    "run": {
        "energy_trace.csv":
            "b6e09639b3332729da9b0ef88f9dcfdec1eaaa398b7a8a3400b429b97dc41fa7",
    },
    "run-aniso": {
        "energy_trace.csv":
            "6061decb3dd25077c236ee02cf19c5b0d28010a8f83b17f90698e62232ea5f90",
    },
    "run-nondyadic": {
        "energy_trace.csv":
            "7f07844d86bce7aa03736e43cea8fd4e00b4aef0ecdf7e9cbad92aad4937bbe6",
    },
    "run-zero": {
        "energy_trace.csv":
            "43f19de276c0f0a1d6dfd425f472b0cd2d5f39d3930237620cf726145f4ca9a4",
    },
    "run-thin": {
        "energy_trace.csv":
            "d66cd90b329c46cf2dda12408697d1858add91e9cf673f90e6e1200752dd2cc2",
    },
    "run-thin-tall": {
        "energy_trace.csv":
            "ff8574c195a7672907db7bbc49a6ac1fd3b9e16277a97de21954c0c34d54a10f",
    },
    "space-refine": {
        "space_refinement.csv":
            "b0bc7d353ca4729af4aef307161d5c1c8a04a769b00c7ff07b996707aae9c8fa",
    },
    "time-refine": {
        "time_refinement.csv":
            "fe50bfc9f26c1179ba3483a8dbc6ee3f2bfb2d1f31a6f0c6b0fdb8a5481924aa",
    },
    "sigma-study": {
        "sigma_study.csv":
            "ec4fb3df0da63f9833f0b07dd3a1a076a78258ec336b6fee005cb891c0e6ca53",
        "sigma_case_p1_1_p2_1.dat":
            "301104e91d2078b659874c492deff395aae5db4c3642c5c2b04c62a40e6942f9",
        "sigma_case_p1_1_p2_inf.dat":
            "ebf10bf1e722e1f17207cc64a6bd6f3551d49c3ffa17947af1b5a8ef1ff26b1c",
        "sigma_case_p1_inf_p2_1.dat":
            "8002ad87b07c68138b8867740c75e9db3d4f07256e7ad871e50a170658f72377",
        "sigma_case_p1_inf_p2_inf.dat":
            "b1e167f5eea86d762e4cb9a3ace7e3f01d3b9dacfcafd9c46c9f62a718aa5384",
    },
}


def skip_reason():
    """Why this environment may round differently from the recorded one,
    or None."""
    running = {"numpy": np.__version__, "scipy": scipy.__version__}
    if running != RECORDED_VERSIONS:
        return "hashes recorded with %s, running %s" % (RECORDED_VERSIONS, running)
    for var in BLAS_THREAD_VARS:
        if os.environ.get(var) != "1":
            return "hashes recorded with %s=1, running %s" % (var, os.environ.get(var))
    return None


def output_hashes(name, directory):
    """Run config name with its files in directory, and return the SHA-256
    of each CSV and .dat file it wrote; its manifest.json must list every
    other file as read back from the disk."""
    subcommand, text = CONFIGS[name]
    config = directory / "config.ini"
    config.write_text(text)
    out = directory / "out"
    assert main([subcommand, "--config", str(config), "--out", str(out)]) == 0
    on_disk = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir() if path.name != "manifest.json"}
    assert json.loads((out / "manifest.json").read_text())["files"] == on_disk
    return {name: digest for name, digest in on_disk.items()
            if name.endswith((".csv", ".dat"))}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_hashes(name, tmp_path, capsys):
    reason = skip_reason()
    if reason is not None:
        pytest.skip(reason)
    assert output_hashes(name, tmp_path) == HASHES[name]


def test_readme_quotes_the_pinned_hash():
    """The one-thread hash README.md quotes for the space-refine config is a
    prefix of the pinned one."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        readme = f.read()
    quoted = re.search(r"`space-refine` config of `tests/test_golden.py` writes a\s+"
                       r"`space_refinement.csv` with SHA-256 `([0-9a-f]{8,})\.\.\.` under\s+"
                       r"`OPENBLAS_NUM_THREADS=1`", readme)
    assert quoted is not None
    assert HASHES["space-refine"]["space_refinement.csv"].startswith(quoted.group(1))


def read_columns(path):
    """The columns of one CSV (named by its header) or .dat file (numbered),
    as {name: [entry text]}."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv":
        names, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    else:
        rows = [line.split() for line in lines]
        names = ["column %d" % j for j in range(len(rows[0]))]
    return {name: [row[j] for row in rows] for j, name in enumerate(names)}


def relative_change(old, new):
    """|new - old| / |old| of two entries: 0 when they are equal (as text
    or as numbers), inf when an old zero or a text entry changed."""
    if old == new:
        return 0.0
    try:
        old, new = float(old), float(new)
    except ValueError:
        return math.inf
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else math.inf


def largest_changes(old, new):
    """Per CSV and .dat file of the kept tree old (a directory per config,
    as --keep writes it), the largest relative change of each column in
    the tree new."""
    changes = {}
    for path in sorted(old.glob("*/out/*")):
        if path.suffix in (".csv", ".dat"):
            before = read_columns(path)
            after = read_columns(new / path.relative_to(old))
            changes[str(path.relative_to(old))] = {
                name: max(map(relative_change, before[name], after[name]))
                for name in before}
    return changes


if __name__ == "__main__":
    # Print HASHES as this environment writes them, to re-record the pins;
    # --keep DIR keeps each config's files under DIR/<name>, and
    # --compare OLD NEW prints the largest relative change of each column
    # of every CSV and .dat file between two kept trees:
    #   OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
    #       PYTHONPATH=src python tests/test_golden.py [--keep DIR]
    #   PYTHONPATH=src python tests/test_golden.py --compare OLD NEW
    import argparse
    import contextlib
    import pathlib
    import pprint
    import sys
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--keep", type=pathlib.Path, metavar="DIR")
    group.add_argument("--compare", type=pathlib.Path, nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        for name, columns in largest_changes(*args.compare).items():
            print(name)
            for column, change in columns.items():
                print("    %-24s %.2g" % (column, change))
        sys.exit()
    if skip_reason() is not None:
        print("warning: %s" % skip_reason(), file=sys.stderr)
    recorded = {}
    with contextlib.ExitStack() as stack:
        tmp = args.keep or pathlib.Path(stack.enter_context(tempfile.TemporaryDirectory()))
        stack.enter_context(contextlib.redirect_stdout(sys.stderr))
        for name in sorted(CONFIGS):
            directory = tmp / name
            directory.mkdir(parents=True)
            recorded[name] = output_hashes(name, directory)
    print("HASHES = " + pprint.pformat(recorded, width=100))
