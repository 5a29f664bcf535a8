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
README.md quotes the space-refine hash, and test_readme_quotes_the_pinned_hash
holds the quote to the pin.  Each run's manifest.json must list the SHA-256
of every other file it wrote, as read back from the disk.
"""

import hashlib
import json
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
            "4da46d0b1fe8b1d25f97687291ff776f46c9240fc16ee324f18f466be10c19eb",
    },
    "run-aniso": {
        "energy_trace.csv":
            "17020715ab0fa800ff51082401b7f78b8e69045171529aac6559c5cd807c817c",
    },
    "run-nondyadic": {
        "energy_trace.csv":
            "70484d850ef1935d7b7ce2c5acdbe7134d0bc709ea934320ae021e0dcacffa2f",
    },
    "run-zero": {
        "energy_trace.csv":
            "43f19de276c0f0a1d6dfd425f472b0cd2d5f39d3930237620cf726145f4ca9a4",
    },
    "run-thin": {
        "energy_trace.csv":
            "fba9ef04c674a52c32649a92d57d2b22725de0e15c2c87ba0e65401dfe2ace66",
    },
    "run-thin-tall": {
        "energy_trace.csv":
            "0fcb8696c609bd7759f4639e8aa40b74f900dc599ba3b4756ab6d2e2b9be85bd",
    },
    "space-refine": {
        "space_refinement.csv":
            "6bb1570411a93d9f217f08d792abd28d92dd89eda69558bb3c4d1e98187f4250",
    },
    "time-refine": {
        "time_refinement.csv":
            "f6618a53c3ae7acdeec23beb971539aac9d09d7951c187c3b02a83a90913d0c4",
    },
    "sigma-study": {
        "sigma_study.csv":
            "8ddb4c2fa2f9e5153388347fec85bcd9896b765776288b14e5fc007956b2c603",
        "sigma_case_p1_1_p2_1.dat":
            "b5170cbea31a828daa50a19f74cc9806b571d4d13f1af65157f026872e54daa8",
        "sigma_case_p1_1_p2_inf.dat":
            "a6e4621bcbcf65d9d69bb9a90c5dd90c521c3e8d08ae16f27bb46b78c9ac52ce",
        "sigma_case_p1_inf_p2_1.dat":
            "afbd91d1306e0892c9389866a04f7b7b8b66727144a036eaf18e9c1b0ae56e1e",
        "sigma_case_p1_inf_p2_inf.dat":
            "9e49778fce20643faa08f9814e1ca04d4b75a27ad3a1a3e1e53552197e1eb1d5",
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


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_hashes(name, tmp_path, capsys):
    reason = skip_reason()
    if reason is not None:
        pytest.skip(reason)
    subcommand, text = CONFIGS[name]
    config = tmp_path / "config.ini"
    config.write_text(text)
    out = tmp_path / "out"
    assert main([subcommand, "--config", str(config), "--out", str(out)]) == 0
    on_disk = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir() if path.name != "manifest.json"}
    assert json.loads((out / "manifest.json").read_text())["files"] == on_disk
    written = {name: digest for name, digest in on_disk.items()
               if name.endswith((".csv", ".dat"))}
    assert written == HASHES[name]


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
