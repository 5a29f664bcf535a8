import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from dataclasses import fields, replace

from qtflow import analysis, assembly, experiments, stepper
from qtflow.assembly import lumped_mass
from qtflow.mesh import build_mesh
from qtflow.experiments import (
    DEFAULT_PARAMS,
    ConfigError,
    ExperimentConfig,
    num_steps,
    run_single,
    sigma_study,
    space_refinement_study,
    time_refinement_study,
    validate_config,
)

import oracles
from states import kept


def config_fields(kind):
    """The ExperimentConfig fields whose declared type is kind (or
    kind | None)."""
    return [f.name for f in fields(ExperimentConfig) if f.type.split(" | ")[0] == kind]


#: Lists whose entries may be +inf (no perturbation).
EXPONENT_LISTS = ("p1_list", "p2_list")


class TestConfigValidation:
    def test_defaults_are_valid(self):
        validate_config(ExperimentConfig())

    def test_non_integral_steps(self):
        with pytest.raises(ConfigError):
            num_steps(0.1, 3e-4)
        assert num_steps(0.1, 1e-3) == 100
        assert num_steps(0.1, 1e-5) == 10000

    def test_bad_fields(self):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(initial="garbage"))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(T=-1.0))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(dt=3e-4))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(sigma_list=(1e-2, 0.0)))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(threads=0))
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(nx=1))

    @pytest.mark.parametrize("field", config_fields("float"))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_name_the_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            validate_config(ExperimentConfig(**{field: value}))

    @pytest.mark.parametrize("field", [name for name in config_fields("tuple")
                                       if name not in EXPONENT_LISTS])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_list_entries_name_the_list(self, field, value):
        with pytest.raises(ConfigError, match=field):
            validate_config(ExperimentConfig(**{field: (1e-2, value)}))

    @pytest.mark.parametrize("field", EXPONENT_LISTS)
    def test_exponent_lists_reject_nan_but_allow_inf(self, field):
        assert field in config_fields("tuple")
        with pytest.raises(ConfigError, match=field):
            validate_config(ExperimentConfig(**{field: (0.5, math.nan)}))
        validate_config(ExperimentConfig(**{field: (0.5, math.inf)}))

    @pytest.mark.parametrize("key, config", [
        ("experiment.dt", ExperimentConfig(T=0.01, dt=3e-4)),
        ("experiment.dt_list", ExperimentConfig(T=0.01, dt_list=(1e-3, 3e-4))),
        ("experiment.reference_dt",
         ExperimentConfig(T=0.01, dt_list=(1e-3,), reference_dt=3e-4)),
    ], ids=["dt", "dt_list", "reference_dt"])
    def test_step_count_errors_name_the_key(self, key, config):
        with pytest.raises(ConfigError, match="^%s: T/dt = " % key):
            validate_config(config)

    def test_non_finite_param_names_the_param(self):
        with pytest.raises(ConfigError, match="params.A0"):
            validate_config(ExperimentConfig(params=replace(DEFAULT_PARAMS, A0=math.nan)))

    @pytest.mark.parametrize("field", ["T", "cg_tol", "dt"])
    def test_run_single_rejects_before_running(self, field):
        # these used to fail late, with OverflowError, ZeroDivisionError and
        # a bare ValueError
        value = math.inf if field == "T" else math.nan
        with pytest.raises(ConfigError, match=field):
            run_single(ExperimentConfig(**{field: value}))


@pytest.mark.parametrize("study", [run_single, time_refinement_study, sigma_study])
@pytest.mark.parametrize("cells", [dict(nx=3, ny=4), dict(ny=8), dict(nx=8, y1=1.0)])
def test_non_square_cells_name_mesh_ny(study, cells):
    """ny defaults to nx and nx to the study's count; either way the cells
    must be square before anything runs."""
    with pytest.raises(ConfigError, match="^mesh.ny: cells must be square"):
        study(ExperimentConfig(T=0.02, dt=1e-3, **cells))


class TestRunSingle:
    def test_rejects_a_given_reference_dt_that_breaks_T(self):
        """Every given step is checked, as a given dt_list already is."""
        with pytest.raises(ConfigError, match="^experiment.reference_dt: T/dt = "):
            run_single(ExperimentConfig(nx=4, T=0.01, dt=1e-3, reference_dt=3e-4))

    def test_runs_where_the_time_study_default_breaks_T(self):
        """A run reads no reference_dt, so the time study's default 6.25e-5,
        which does not divide T = 3e-4, is not checked."""
        res = run_single(ExperimentConfig(nx=4, T=3e-4, dt=1e-4))
        assert res.state.n == 3

    def test_zero_data_constant_energy(self):
        cfg = ExperimentConfig(nx=8, ny=8, T=0.01, dt=1e-3,
                               initial="zero")
        res = run_single(cfg)
        totals = [rec.total for rec in res.trace]
        assert len(set(totals)) == 1
        assert totals[0] == pytest.approx(2000.0, rel=1e-12)
        assert all(abs(rec.dissipation_residual) <= 1e-12 for rec in res.trace)
        assert np.all(res.state.q == 0.0)

    def test_energy_strictly_nonincreasing(self):
        cfg = ExperimentConfig(nx=8, ny=8, T=0.01, dt=1e-3)
        res = run_single(cfg)
        totals = [rec.total for rec in res.trace]
        assert len(totals) == 10  # sigma > 0: states n = 1..N
        assert all(b <= a for a, b in zip(totals, totals[1:]))
        assert res.max_energy_increase <= 0.0

    def test_deterministic_reruns(self):
        cfg = ExperimentConfig(nx=6, ny=6, T=0.01, dt=1e-3)
        r1 = run_single(cfg)
        r2 = run_single(cfg)
        for name in ("q", "r"):
            assert np.array_equal(getattr(r1.state, name), getattr(r2.state, name))
        assert [rec.total for rec in r1.trace] == [rec.total for rec in r2.trace]

    def test_parabolic_run_counts_steps(self):
        cfg = ExperimentConfig(nx=6, ny=6, T=0.01, dt=1e-3,
                               params=replace(DEFAULT_PARAMS, sigma=0.0))
        res = run_single(cfg)
        assert res.state.n == 10
        assert len(res.trace) == 11  # states n = 0..N


#: Counts the minor page faults of the last 30 of 40 steps of an NX^2 run
#: with the default parameters changed by SETTINGS, energy evaluations
#: included, in a fresh process.
WARM_STEP_FAULTS = """
import resource
from dataclasses import replace
from qtflow import experiments
from qtflow.experiments import DEFAULT_PARAMS, ExperimentConfig, run_single

before, step = [], experiments.step

def counted(*args, **kwargs):
    before.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    return step(*args, **kwargs)

experiments.step = counted
params = replace(DEFAULT_PARAMS, SETTINGS)
dt = 1.25e-4  # sigma > 0 starts at n = 1, so T = 41 dt takes 40 steps
steps = 41 if params.sigma > 0.0 else 40
run_single(ExperimentConfig(nx=NX, ny=NX, T=steps * dt, dt=dt, params=params))
assert len(before) == 40
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before[-30])
"""


def warm_step_faults(nx, settings="sigma=0.025"):
    """WARM_STEP_FAULTS on an nx^2 mesh with the given parameter settings,
    under the C library's defaults."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = WARM_STEP_FAULTS.replace("NX", str(nx)).replace("SETTINGS", settings)
    return int(subprocess.run([sys.executable, "-c", script],
                              env=env, capture_output=True, text=True, check=True).stdout)


def test_warm_steps_fault_in_no_new_memory():
    """The step loop reuses the operator's work vectors, the energy forms
    its rates in two of them, the operator keeps its own copy of p, and a
    step advances its state in place (the old dq serves the energy), so
    warm steps fault in almost no pages under the C library's default
    allocator settings.  Measured on Linux/glibc: 2-3 on every mesh from
    48^2 to 320^2 tried with K x in CG's direction vector and no
    preconditioner; 1-4 while the Jacobi diagonal lived in the temporary,
    and 1-4 before, while step() advanced its
    state in place but a confirmation formed K x anew; 2-5
    faults on every mesh from 48^2 to 320^2 tried with a Jacobi diagonal
    formed per solve, 1-4 while the operator kept one.  While the run loop
    formed new rate vectors dq / dt every step and op.p was the step's P,
    it was 943-946 here and 733 at 256^2; with the rates in work vectors
    but the old state held across the energy, 1-3 here but 9,301 at
    256^2, as the heap was trimmed and grown again every other step.
    About 3,700-5,600 when every step allocated its vectors anew."""
    pytest.importorskip("resource")
    assert warm_step_faults(128) <= 1000


def test_warm_steps_fault_in_no_new_memory_at_160():
    """A mesh between the two above, where a loop that allocated the rates
    anew but kept them in work vectors faulted in thousands of pages."""
    pytest.importorskip("resource")
    assert warm_step_faults(160) <= 1000


def test_warm_steps_fault_in_no_new_memory_at_256():
    """fine_run's mesh, where the heap trims of a loop that held the old
    state across the energy cost about 9,300 faults in 30 steps."""
    pytest.importorskip("resource")
    assert warm_step_faults(256) <= 1000


def test_warm_steps_fault_in_no_new_memory_anisotropic():
    """space_aniso's path, sigma = 0 and L2 = L3 > 0, where CG takes about
    two iterations per step and A p lives in the operator's .tmp: 2-3
    faults measured on every mesh from 48^2 to 320^2 tried (1-4 with a
    Jacobi diagonal in .tmp)."""
    pytest.importorskip("resource")
    assert warm_step_faults(128, "sigma=0.0, L2=5e-4, L3=5e-4") <= 1000


class _FirstStep(Exception):
    """Raised from a hooked step of a run, ending the run there."""


def first_step_of(case, monkeypatch, at_build_mesh=None, at_first_step=None):
    """The (state, operator) that _simulate(case) hands its first step, and
    the value of at_first_step() called there; at_build_mesh() is called
    just before the run builds its mesh."""
    seen = {}
    build_mesh = experiments.build_mesh

    def hooked_build_mesh(*args):
        if at_build_mesh is not None:
            at_build_mesh()
        return build_mesh(*args)

    def first_step(state, params, dt, op, **kwargs):
        seen.update(state=state, op=op,
                    value=None if at_first_step is None else at_first_step())
        raise _FirstStep

    monkeypatch.setattr(experiments, "build_mesh", hooked_build_mesh)
    monkeypatch.setattr(experiments, "step", first_step)
    with pytest.raises(_FirstStep):
        experiments._simulate(case)
    return seen["state"], seen["op"], seen["value"]


class TestInteriorSetup:
    """The start of a run, built on interior vectors, equals the start built
    over nodal fields (tests/oracles.py) bit for bit."""

    @pytest.mark.parametrize("data", [
        experiments.default_initial_q,
        lambda x, y: (np.cos(3.0 * x) * y, x - y * y),
        lambda x, y: (np.full_like(x, 0.3), np.full_like(x, -0.1)),
        lambda x, y: (0.0 * x, 0.25),
    ], ids=["default", "mixed", "row", "scalar"])
    @pytest.mark.parametrize("extent, nx, ny", oracles.SETUP_MESHES)
    def test_interpolation(self, extent, nx, ny, data):
        mesh = build_mesh(*extent, nx, ny)
        assert np.array_equal(stepper.interpolate_qfield(mesh, data),
                              oracles.gather_interior(
                                  mesh, oracles.nodal_interpolate_qfield(mesh, data)))

    @pytest.mark.parametrize("sigma, pert_q0, pert_qt0, initial", [
        (0.0, 0.0, 0.0, "default"),
        (0.025, 0.0, 0.0, "default"),
        (0.025, 0.05, -0.3, "default"),
        (0.025, 0.0, 0.2, "zero"),
    ], ids=["parabolic", "inertial", "perturbed", "zero_perturbed_qt0"])
    @pytest.mark.parametrize("extent, nx, ny", oracles.SETUP_MESHES)
    def test_start_state(self, extent, nx, ny, sigma, pert_q0, pert_qt0, initial,
                         monkeypatch):
        dt = 1e-3
        x0, x1, y0, y1 = extent
        case = experiments.Case(ExperimentConfig(
            x0=x0, x1=x1, y0=y0, y1=y1, nx=nx, ny=ny,
            params=replace(DEFAULT_PARAMS, sigma=sigma), dt=dt, T=3 * dt,
            initial=initial), pert_q0, pert_qt0)
        state, op, _ = first_step_of(case, monkeypatch)
        ref = oracles.nodal_start(case, op)
        assert state.n == ref.n
        assert (state.dq is None) == (sigma == 0.0)
        for name in ("q", "dq", "r", "Kq"):
            a, b = getattr(state, name), getattr(ref, name)
            assert (a is None and b is None) or np.array_equal(a, b), name


def test_setup_keeps_at_most_14_7_vectors(monkeypatch):
    """What a 128^2 sigma > 0 run holds at its first step, counted by
    tracemalloc from the mesh build on, in n-vectors (8 n bytes, n interior
    DOFs): 14.51 measured, the operator's five work vectors holding the
    rank-one vectors once, as sqrt(w) P; 15.51-15.58 while it also kept
    w P; 16.51-16.58 while the start formed K q in a vector of its own;
    18.48-18.58 while the operator also kept the Jacobi diagonal and a
    vector for CG's z; 20.00 while the mesh stored a lumped weight per
    node and the operator a weight and a base diagonal entry per interior
    node (the set-up then built nodal Q0 and r0 fields and gathered their
    interior entries); 29.5 with interleaved vectors, whose stiffness
    K and constant part op.base each stored the scalar stiffness twice,
    and the run's nodal r0 kept to its end; 31.1 when the mesh also stores
    its node coordinates, boundary flags and interior indices, and 33.2
    when the set-up also keeps its nodal Q0 and Qt0 fields to the first
    step.  Deterministic for given numpy and scipy."""
    case = experiments.Case(ExperimentConfig(nx=128, ny=128, dt=1.25e-4,
                                             T=3 * 1.25e-4))
    monkeypatch.setattr(assembly, "_stiffness", {})  # the run builds its K
    try:
        state, _, held = first_step_of(
            case, monkeypatch, at_build_mesh=tracemalloc.start,
            at_first_step=lambda: tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert held / (8 * state.q.size) <= 14.7


def warm_step_peak(case, monkeypatch, warm=3):
    """The tracemalloc peak within step number warm of _simulate(case), in
    n-vectors (8 n bytes, n interior DOFs), traced from the mesh build on."""
    build_mesh, step, calls = experiments.build_mesh, experiments.step, []

    def traced_build_mesh(*args):
        tracemalloc.start()
        return build_mesh(*args)

    def traced_step(state, *args, **kwargs):
        calls.append(None)
        if len(calls) < warm:
            return step(state, *args, **kwargs)
        tracemalloc.reset_peak()
        step(state, *args, **kwargs)
        raise _FirstStep(tracemalloc.get_traced_memory()[1] / (8 * state.q.size))

    monkeypatch.setattr(experiments, "build_mesh", traced_build_mesh)
    monkeypatch.setattr(experiments, "step", traced_step)
    monkeypatch.setattr(assembly, "_stiffness", {})  # the run builds its K
    try:
        with pytest.raises(_FirstStep) as info:
            experiments._simulate(case)
    finally:
        tracemalloc.stop()
    return info.value.args[0]


@pytest.mark.parametrize("params, nx, bound", [
    (DEFAULT_PARAMS, 128, 16.2),
    (replace(DEFAULT_PARAMS, sigma=0.0, L2=5e-4, L3=5e-4), 128, 16.1),
    (DEFAULT_PARAMS, 256, 16.1),
], ids=["inertial", "anisotropic", "inertial_256"])
def test_warm_step_peak(params, nx, bound, monkeypatch):
    """The peak of a warm step, all a run holds included: 16.02-16.09
    n-vectors measured at 128^2 with sigma > 0, 16.02 in the anisotropic
    128^2 run and 16.00 at 256^2, fine_run's mesh.  At 256^2 it sits
    where a confirmation forms K x: the CSR K (4.0), the constant block
    (2.5), the operator's five work vectors and p . x (5.5), K x going
    into .dir, CG's dead direction, the state's q, dq and r (2.5), the new
    x (1.0) and the m-vector of one sparse product (0.5); A p lives in
    .tmp, and dq is formed in the old q's vector.  At 128^2, below numpy's
    256 KB threshold for reusing temporaries, aux_P reaches about as high:
    the bulk potential, formed in Horner form, takes one m-vector beside
    tr(Q^2) and the factor (a + c tr(Q^2)) / r.  It was 16.52-16.58 and
    16.52 at 128^2 while the quartic term c/4 tr(Q^2)^2 took two m-vectors
    there, and the solve formed a Jacobi diagonal in .tmp;
    17.02-17.09, 17.02 and 17.00 while the operator also kept w P beside
    the rank-one vectors; 18.01-18.08,
    18.02 and 18.00 while a confirmation formed K x in a new vector and a
    solve its own diagonal; 20.08-20.15, 20.08 and 20.06 while step()
    built a new state beside the old one, kept the old K q through the
    solve, and CG kept its diagonal and A p through a confirmation;
    22.05-22.15, 22.05-22.08 and 22.07 while the operator kept the Jacobi
    diagonal and a vector for CG's z, and a confirmation ran with the last
    A p alive; at 128^2, 23.57-23.64 and 23.58 while the mesh kept a lumped
    weight per node and the operator a weight and a base diagonal entry
    per interior node, 27.08 and 26.01 while a state also carried L q,
    which each confirmation formed as a new vector, the run loop held the rate
    dq / dt between steps when sigma > 0, and the r update made two
    temporaries (24.07 and 24.01 with only the r update left as it was).
    With interleaved vectors, K and op.base each storing the scalar
    stiffness twice, it was 35.49 and 34.49 (35.99 with sigma > 0 and a
    contiguous copy of the node weights, 42.44 in the anisotropic run while
    it kept D apart from K).  Deterministic for given numpy and scipy."""
    case = experiments.Case(ExperimentConfig(nx=nx, ny=nx, params=params,
                                             dt=1.25e-4, T=6 * 1.25e-4))
    assert warm_step_peak(case, monkeypatch) <= bound


@pytest.mark.parametrize("params", [
    DEFAULT_PARAMS,
    replace(DEFAULT_PARAMS, sigma=0.0),
    replace(DEFAULT_PARAMS, L2=5e-4, L3=5e-4),
    replace(DEFAULT_PARAMS, sigma=0.0, L2=5e-4, L3=5e-4),
], ids=["inertial", "parabolic", "inertial_aniso", "parabolic_aniso"])
def test_dissipation_defect_is_the_run_loop_formula(params, monkeypatch):
    """The defect that discrete_energy forms from the previous state's dq
    and record equals, bit for bit, the formula of tests/oracles.py, whose
    squared rates are w |dq|^2 / dt^2 and w |dq - dq_prev|^2 / dt^2, on
    the states of a 16^2 run."""
    states, step = [], experiments.step

    def kept_step(state, *args, **kwargs):
        if not states:
            states.append(kept(state))  # the start
        state = step(state, *args, **kwargs)
        states.append(kept(state))
        return state

    monkeypatch.setattr(experiments, "step", kept_step)
    dt = 1e-3
    res = experiments._simulate(experiments.Case(ExperimentConfig(
        nx=16, ny=16, params=params, dt=dt, T=12 * dt)))
    assert len(states) == len(res.trace)
    assert res.trace[0].dissipation_residual == 0.0
    defects = [rec.dissipation_residual for rec in res.trace[1:]]
    assert defects == oracles.simulate_dissipation_defects(
        states, res.trace, params, dt, lumped_mass(res.mesh))
    assert min(map(abs, defects)) > 0.0


def test_initial_radicand_failure_is_a_config_error():
    cfg = ExperimentConfig(params=replace(DEFAULT_PARAMS, A0=0.001))
    with pytest.raises(ConfigError, match=r"params\.A0.*initial state of case nx=16"):
        run_single(cfg)


@pytest.fixture
def norm_form_calls(monkeypatch):
    """Counts the interior consistent mass builds, keeps the mesh and the
    forms of every norm_forms() call, and the mesh and K of every step
    operator."""
    calls = {"consistent_mass": 0, "norm_forms": [], "stepped": []}
    consistent_mass, norm_forms = assembly.consistent_mass, analysis.norm_forms
    step_operator = experiments.step_operator

    def counted(mesh):
        calls["consistent_mass"] += 1
        return consistent_mass(mesh)

    def kept(mesh):
        calls["norm_forms"].append((mesh, norm_forms(mesh)))
        return calls["norm_forms"][-1][1]

    def recorded(p, dt, mesh, K, *args):
        calls["stepped"].append((mesh, K))
        return step_operator(p, dt, mesh, K, *args)

    monkeypatch.setattr(assembly, "consistent_mass", counted)
    monkeypatch.setattr(analysis, "norm_forms", kept)
    monkeypatch.setattr(experiments, "step_operator", recorded)
    return calls


@pytest.mark.parametrize("study, cfg", [
    (space_refinement_study, ExperimentConfig(
        T=0.01, dt=1e-3, h_list=(1.0, 0.5, 0.25), reference_level=3)),
    (time_refinement_study, ExperimentConfig(
        nx=8, ny=8, T=0.02, dt_list=(4e-3, 2e-3), reference_dt=5e-4)),
    (sigma_study, ExperimentConfig(
        nx=6, ny=6, T=0.01, dt=1e-3, sigma_list=(1e-3, 1e-1))),
], ids=["space", "time", "sigma"])
def test_study_builds_norm_forms_once(study, cfg, norm_form_calls):
    """One mass and one K per study, by diagonals, on the mesh of its first
    run (the reference or the parabolic run): that K is the one the run
    stepped with, entry for entry."""
    study(cfg)
    assert norm_form_calls["consistent_mass"] == 1
    [(mesh, forms)] = norm_form_calls["norm_forms"]
    first_mesh, first_K = norm_form_calls["stepped"][0]
    assert mesh is first_mesh
    assert [form.format for form in forms] == ["dia", "dia"]
    assert forms.mass.shape == (mesh.n_interior, mesh.n_interior)
    assert (forms.stiffness.tocsr() != first_K).nnz == 0


@pytest.fixture
def stiffness_builds(monkeypatch):
    """The builds of the interior stiffness K from a cleared cache, as the
    (nx, ny) of their meshes: "csr" the CSR K of the runs, by
    scalar_stiffness(), and "all" every stiffness_block(mesh, 1.0, 0.0),
    the error norms' K by diagonals too.  The step operator's constant
    block, another scale and shift, is not counted."""
    builds = {"csr": [], "all": []}
    block, csr = assembly.stiffness_block, assembly.scalar_stiffness

    def counted_block(mesh, scale, shift):
        if (scale, shift) == (1.0, 0.0):
            builds["all"].append((mesh.nx, mesh.ny))
        return block(mesh, scale, shift)

    def counted_csr(mesh):
        builds["csr"].append((mesh.nx, mesh.ny))
        return csr(mesh)

    monkeypatch.setattr(assembly, "stiffness_block", counted_block)
    monkeypatch.setattr(assembly, "scalar_stiffness", counted_csr)
    # an empty cache; without one, K is built at every call and counted
    monkeypatch.setattr(assembly, "_stiffness", {}, raising=False)
    return builds


def test_anisotropic_run_builds_one_stiffness(stiffness_builds):
    """K and the divergence form D of an anisotropic run are one object,
    built once: assemble_div_form() returns the K that assemble_stiffness()
    built for the run's lattice."""
    params = replace(DEFAULT_PARAMS, sigma=0.0, L2=5e-4, L3=5e-4)
    experiments._simulate(experiments.Case(ExperimentConfig(
        nx=8, ny=8, params=params, dt=1e-3, T=2e-3)))
    assert stiffness_builds == {"csr": [(8, 8)], "all": [(8, 8)]}


@pytest.mark.parametrize("study, cfg", [
    (time_refinement_study, ExperimentConfig(
        nx=8, ny=8, T=0.02, dt_list=(4e-3, 2e-3), reference_dt=5e-4,
        params=replace(DEFAULT_PARAMS, L2=5e-4, L3=5e-4))),
    (sigma_study, ExperimentConfig(
        nx=6, ny=6, T=0.01, dt=1e-3, sigma_list=(1e-3, 1e-1))),
], ids=["time", "sigma"])
def test_study_on_one_lattice_builds_one_stiffness(study, cfg, stiffness_builds):
    """Every case of a time or sigma study runs on one lattice, so they
    share one CSR K; the error norms build their K by diagonals once,
    after the runs."""
    study(cfg)
    lattice = (cfg.nx, cfg.ny)
    assert stiffness_builds == {"csr": [lattice], "all": [lattice, lattice]}


def test_space_study_builds_one_stiffness_per_lattice(stiffness_builds):
    """Each lattice builds the CSR K of its runs once: the reference first,
    then the levels in order.  The error norms build the reference's K by
    diagonals once more, after the runs."""
    space_refinement_study(ExperimentConfig(
        T=1e-3, dt=1.25e-4, h_list=(1.0, 0.5, 0.25), reference_level=3))
    runs = [(16, 16), (2, 2), (4, 4), (8, 8)]
    assert stiffness_builds == {"csr": runs, "all": runs + [(16, 16)]}


class TestSpaceStudy:
    def test_smoke_structure_and_nesting(self):
        cfg = ExperimentConfig(T=0.01, dt=1e-3,
                               h_list=(1.0, 0.5), reference_level=3)
        res = space_refinement_study(cfg)
        assert [row.level for row in res.rows] == [1.0, 0.5]
        assert res.rows[0].ord_q11 is None
        assert res.rows[1].ord_q11 is not None
        for row in res.rows:
            assert row.err_q11 > 0 and row.err_q12 > 0 and row.err_r > 0
        assert res.max_energy_increase <= 0.0

    def test_rejects_degenerate_or_broken_chains(self):
        with pytest.raises(ConfigError):
            space_refinement_study(ExperimentConfig(
                T=0.01, dt=1e-3, h_list=(0.5, 0.2),
                reference_level=3))
        with pytest.raises(ConfigError):
            # chain reaching the reference level is degenerate
            space_refinement_study(ExperimentConfig(
                T=0.01, dt=1e-3, h_list=(0.25, 0.125),
                reference_level=3))

    def test_rejects_a_chain_that_does_not_nest_in_the_reference(self):
        # 0.2 is 6.4 times the reference mesh size 2^-5, so the meshes do not nest
        with pytest.raises(ConfigError, match="^experiment.h_list must end at"):
            space_refinement_study(ExperimentConfig(
                T=0.01, dt=1e-3, h_list=(0.4, 0.2), reference_level=5))

    def test_reference_level_bounded_by_int32_indices(self, monkeypatch):
        """On [0, 2]^2, level 12 (8192^2 cells, 670,859,282 stiffness
        entries) fits int32 indices and reaches the runs; level 13
        (2,683,895,826 entries) is rejected before any run."""
        class Reached(Exception):
            pass

        def run_cases(cases, threads):
            raise Reached((cases[0].cfg.nx, cases[0].cfg.ny))

        monkeypatch.setattr(experiments, "_run_cases", run_cases)
        cfg = ExperimentConfig(T=0.01, dt=1e-3, h_list=(0.5, 0.25), reference_level=12)
        with pytest.raises(Reached) as info:
            space_refinement_study(cfg)
        assert info.value.args[0] == (8192, 8192)
        with pytest.raises(ConfigError, match="^experiment.reference_level"):
            space_refinement_study(replace(cfg, reference_level=13))

    def test_threaded_matches_serial(self):
        cfg = ExperimentConfig(T=0.01, dt=1e-3,
                               h_list=(1.0, 0.5), reference_level=3)
        serial = space_refinement_study(cfg)
        threaded = space_refinement_study(replace(cfg, threads=2))
        for a, b in zip(serial.rows, threaded.rows):
            assert a.err_q11 == b.err_q11
            assert a.err_q12 == b.err_q12
            assert a.err_r == b.err_r


class TestOrders:
    """experiments._orders: log2 of the ratio of successive errors, None on
    the first level and where an error is zero."""

    def test_table_style_ratios(self):
        for pair, order in (((3.26, 1.01), 1.69), ((41.50, 30.14), 0.46),
                            ((8.32e-4, 3.74e-4), 1.15)):
            first, second = experiments._orders(pair)
            assert first is None
            assert second == pytest.approx(order, abs=0.005)

    def test_exact_quartering(self):
        assert experiments._orders([4.0, 1.0]) == [None, 2.0]

    def test_equal_errors(self):
        assert experiments._orders([5.0, 5.0]) == [None, 0.0]

    def test_zero_errors_have_no_order(self):
        assert experiments._orders([1.0, 0.0]) == [None, None]
        assert experiments._orders([0.0, 1.0, 0.5]) == [None, None, 1.0]
        assert experiments._orders([2.0, 1.0, 0.0, 0.0]) == [None, 1.0, None, None]

    def test_bits_are_the_array_formula(self):
        # the oracle: log(e_k / e_k+1) / log(2) as one array expression over
        # the whole chain, bit for bit; the CSVs hold these bits
        rng = np.random.RandomState(41)
        e = np.exp(rng.uniform(-40.0, 5.0, size=4000))
        oracle = np.log(e[:-1] / e[1:]) / np.log(2.0)
        orders = experiments._orders(list(e))
        assert orders[0] is None
        assert np.array_equal(np.array(orders[1:], dtype=float), oracle)


class TestTimeStudy:
    def test_smoke_orders_positive(self):
        cfg = ExperimentConfig(nx=8, ny=8, T=0.02,
                               dt_list=(4e-3, 2e-3), reference_dt=5e-4)
        res = time_refinement_study(cfg)
        assert [row.level for row in res.rows] == [4e-3, 2e-3]
        assert res.rows[1].ord_q11 > 0.5
        assert res.max_energy_increase <= 0.0

    def test_rejects_chain_reaching_reference(self):
        with pytest.raises(ConfigError):
            time_refinement_study(ExperimentConfig(
                nx=8, ny=8, T=0.02,
                dt_list=(2e-3, 1e-3), reference_dt=1e-3))


def test_pool_capped_at_the_number_of_cases(monkeypatch):
    """A pool starts all its workers at the first submit, so it must not
    be larger than the study: here 3 cases (the reference and two steps).
    The fake pool maps serially and starts no process."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
    res = time_refinement_study(ExperimentConfig(
        nx=4, ny=4, T=0.02, dt_list=(4e-3, 2e-3), reference_dt=1e-3,
        threads=10 ** 5))
    assert sizes == [3]
    assert len(res.rows) == 2


class TestSigmaStudy:
    def test_requires_positive_and_wide_sweep(self):
        with pytest.raises(ConfigError):
            sigma_study(ExperimentConfig(nx=6, ny=6, T=0.01,
                                         dt=1e-3, sigma_list=(1e-2, 2e-2)))

    def test_error_nondecreasing_in_sigma(self):
        cfg = ExperimentConfig(nx=8, ny=8, T=0.02, dt=5e-4,
                               sigma_list=(1e-3, 1e-2, 1e-1),
                               p1_list=(math.inf,), p2_list=(math.inf,))
        res = sigma_study(cfg)
        errs = [row.h1_error for row in res.rows]
        assert errs == sorted(errs)
        assert (math.inf, math.inf) in res.slopes
        assert res.max_energy_increase <= 0.0

    def test_error_nondecreasing_for_every_case(self):
        cfg = ExperimentConfig(nx=8, ny=8, T=0.02, dt=5e-4,
                               sigma_list=(1e-3, 1e-2, 1e-1))
        res = sigma_study(cfg)
        for p1 in cfg.p1_list:
            for p2 in cfg.p2_list:
                errs = [row.h1_error for row in res.rows
                        if row.p1 == p1 and row.p2 == p2]
                assert errs == sorted(errs), (p1, p2, errs)

    def test_rows_ordered_by_case_then_sigma(self):
        cfg = ExperimentConfig(nx=6, ny=6, T=0.02, dt=1e-3,
                               sigma_list=(1e-3, 1e-1),
                               p1_list=(1.0, math.inf), p2_list=(math.inf,))
        res = sigma_study(cfg)
        keys = [(row.p1, row.p2, row.sigma) for row in res.rows]
        assert keys == [(1.0, math.inf, 1e-3), (1.0, math.inf, 1e-1),
                        (math.inf, math.inf, 1e-3), (math.inf, math.inf, 1e-1)]

    def test_solver_failure_names_the_case(self, monkeypatch):
        # the sigma = 0.1 case fails on its first step; the others solve
        from qtflow import stepper
        from qtflow.solver import ConvergenceError

        dt, failing_sigma = 1e-3, 1e-1
        solve = stepper.cg_solve

        def failing_cg_solve(op, *args, **kwargs):
            if op.cm == 1.0 / dt + failing_sigma / dt ** 2:
                raise ConvergenceError("CG did not converge", residual=0.5)
            return solve(op, *args, **kwargs)

        monkeypatch.setattr(stepper, "cg_solve", failing_cg_solve)
        cfg = ExperimentConfig(nx=6, ny=6, T=0.01, dt=dt,
                               sigma_list=(1e-3, failing_sigma),
                               p1_list=(0.5,), p2_list=(math.inf,), threads=1)
        with pytest.raises(ConvergenceError) as info:
            sigma_study(cfg)
        err = info.value
        assert str(err) == ("case nx=6, ny=6, dt=0.001, sigma=0.1, "
                            "pert_q0=0.158114, pert_qt0=0: "
                            "step 2 (t = 0.002): CG did not converge")
        assert err.case.cfg.params.sigma == failing_sigma
        assert err.case.pert_q0 == 0.5 * failing_sigma ** 0.5
        assert err.case.pert_qt0 == 0.0
        assert (err.case.cfg.nx, err.case.cfg.ny, err.case.cfg.dt) == (6, 6, dt)
        assert (err.step, err.t, err.residual) == (2, 2 * dt, 0.5)

    def test_pooled_failure_is_the_serial_failure(self, monkeypatch):
        # the sigma = 0.1 case fails on its second step, whatever the
        # stopping rule; a forked worker inherits the patched step
        from qtflow.solver import ConvergenceError

        dt, failing_sigma = 1e-3, 1e-1
        advance = experiments.step

        def failing_step(state, params, dt, op, **kwargs):
            if params.sigma == failing_sigma and state.n == 1:
                raise ConvergenceError("step 2 (t = 0.002): CG did not converge",
                                       6.9e-18, step=2, t=2 * dt)
            return advance(state, params, dt, op, **kwargs)

        monkeypatch.setattr(experiments, "step", failing_step)
        cfg = ExperimentConfig(nx=6, ny=6, T=0.004, dt=dt,
                               sigma_list=(1e-3, failing_sigma),
                               p1_list=(math.inf,), p2_list=(math.inf,))
        errors = []
        for threads in (1, 2):
            with pytest.raises(ConvergenceError) as info:
                sigma_study(replace(cfg, threads=threads))
            errors.append(info.value)
        serial, pooled = errors
        assert str(serial) == ("case nx=6, ny=6, dt=0.001, sigma=0.1: "
                               "step 2 (t = 0.002): CG did not converge")
        assert str(pooled) == str(serial)
        assert (pooled.step, pooled.t, pooled.residual) == (2, 2 * dt, 6.9e-18)
        # the cases differ only in the study's pool size
        assert pooled.case == replace(serial.case, cfg=replace(serial.case.cfg, threads=2))
        assert pooled.case.cfg.params.sigma == failing_sigma

    def test_perturbation_applied_interior_only(self):
        # with a perturbed start, boundary DOFs of the hyperbolic run stay 0
        cfg = ExperimentConfig(nx=6, ny=6, T=0.01, dt=1e-3,
                               sigma_list=(1e-3, 1e-1),
                               p1_list=(0.5,), p2_list=(0.5,))
        res = sigma_study(cfg)
        assert all(row.h1_error > 0 for row in res.rows)
