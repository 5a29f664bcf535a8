"""Starting states for the tests, built the way a run builds them."""

import numpy as np

from qtflow.assembly import assemble_div_form, assemble_stiffness, lumped_mass
from qtflow.experiments import default_initial_q
from qtflow.stepper import initialize, interpolate_qfield, nodal_r, step_operator


def run_operator(mesh, params, dt):
    """The step operator of a run on mesh, with D when L2 + L3 != 0."""
    D = assemble_div_form(mesh) if params.L2 + params.L3 != 0.0 else None
    return step_operator(params, dt, assemble_stiffness(mesh), D,
                         lumped_mass(mesh))


def start(mesh, params, dt, Q0, Qt0=None):
    """The starting state and the operator of a run from Q0 and Qt0, each a
    callable or a nodal array; Qt0=None starts at rest."""
    if callable(Q0):
        Q0 = interpolate_qfield(mesh, Q0)
    if callable(Qt0):
        Qt0 = interpolate_qfield(mesh, Qt0)
    qt0 = (np.zeros((2, mesh.n_interior)) if Qt0 is None
           else mesh.gather_interior(Qt0))
    op = run_operator(mesh, params, dt)
    return initialize(mesh, params, dt, Q0, nodal_r(params, Q0), op,
                      lambda *_: qt0), op


def default_start(mesh, params, dt):
    """The default starting state and operator of a run, with the default
    Qt0 for sigma > 0, as experiments builds them."""
    Q0 = interpolate_qfield(mesh, default_initial_q)
    op = run_operator(mesh, params, dt)
    return initialize(mesh, params, dt, Q0, nodal_r(params, Q0), op), op
