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
hashes with the largest relative change of each file.  Running this file
as a script prints HASHES as the running environment writes them.
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
            "faea2405944325e888908b3249cb55e7ed583110b978fa0e29eca6760c981b13",
    },
    "run-aniso": {
        "energy_trace.csv":
            "bf9d280ff291079e28eb4775727a29d5ef1416baa27689fcdbfedea8031df277",
    },
    "run-nondyadic": {
        "energy_trace.csv":
            "eb2951f2f835205371ad90bad15b86ec28a8db60ea315cdeb0dbcb4b560eed4d",
    },
    "run-zero": {
        "energy_trace.csv":
            "43f19de276c0f0a1d6dfd425f472b0cd2d5f39d3930237620cf726145f4ca9a4",
    },
    "run-thin": {
        "energy_trace.csv":
            "4b56995eeacccd7dc1ebb4d61ebd50e44cd894b59fa7741574af6fe909e13936",
    },
    "run-thin-tall": {
        "energy_trace.csv":
            "f9971724408214b2e860dcb81068ab333b7b961ff2d4e665ec8d4dcae8e65d35",
    },
    "space-refine": {
        "space_refinement.csv":
            "060f624214f7d9f680b05a6a7e424e6ac58c6784520db647b3231c5142e55a79",
    },
    "time-refine": {
        "time_refinement.csv":
            "410baa9d305154c0146d381df341cb98c92607449600e1b51f0a7f2bc2c5cac5",
    },
    "sigma-study": {
        "sigma_study.csv":
            "9121ef7a816f2af740b41de970f95a9ecd0a824a6282b19f199b85d249583229",
        "sigma_case_p1_1_p2_1.dat":
            "c2daf4ced2d5294c95be7af31ea31474a86eff66d388f3c1f49658e7bfbea55f",
        "sigma_case_p1_1_p2_inf.dat":
            "e12d316c0658be131627c8a8f7f7bab50e79ab2376cbd71d411c31cfe28f215c",
        "sigma_case_p1_inf_p2_1.dat":
            "efe9e11ee12d14130b0533417ee216d5002564ddf0d3aa0a982930c3dc090eb1",
        "sigma_case_p1_inf_p2_inf.dat":
            "f87d167b7f9d4a496ce019aab52c733708298b7aba79f0d8f9cfbdfb13f321d2",
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


if __name__ == "__main__":
    # Print HASHES as this environment writes them, to re-record the pins:
    #   OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
    #       PYTHONPATH=src python tests/test_golden.py
    import contextlib
    import pathlib
    import pprint
    import sys
    import tempfile

    if skip_reason() is not None:
        print("warning: %s" % skip_reason(), file=sys.stderr)
    recorded = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        for name in sorted(CONFIGS):
            directory = pathlib.Path(tmp) / name
            directory.mkdir()
            recorded[name] = output_hashes(name, directory)
    print("HASHES = " + pprint.pformat(recorded, width=100))
