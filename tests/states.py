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


def start(mesh, params, dt, q0, qt0=None):
    """The starting state and the operator of a run from q0 and qt0, each a
    callable or an interior vector (2, m); qt0=None starts at rest."""
    if callable(q0):
        q0 = interpolate_qfield(mesh, q0)
    if callable(qt0):
        qt0 = interpolate_qfield(mesh, qt0)
    if qt0 is None:
        qt0 = np.zeros((2, mesh.n_interior))
    op = run_operator(mesh, params, dt)
    return initialize(params, dt, q0, nodal_r(params, q0), op,
                      lambda *_: qt0), op


def default_start(mesh, params, dt):
    """The default starting state and operator of a run, with the default
    Qt0 for sigma > 0, as experiments builds them."""
    q0 = interpolate_qfield(mesh, default_initial_q)
    op = run_operator(mesh, params, dt)
    return initialize(params, dt, q0, nodal_r(params, q0), op), op
