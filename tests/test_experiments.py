import math

import numpy as np
import pytest
from dataclasses import fields, replace

from qtflow import experiments
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
        assert np.all(res.state.Q_field(res.mesh) == 0.0)

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
        for name in ("Q_field", "r_field"):
            assert np.array_equal(getattr(r1.state, name)(r1.mesh),
                                  getattr(r2.state, name)(r2.mesh))
        assert [rec.total for rec in r1.trace] == [rec.total for rec in r2.trace]

    def test_parabolic_run_counts_steps(self):
        cfg = ExperimentConfig(nx=6, ny=6, T=0.01, dt=1e-3,
                               params=replace(DEFAULT_PARAMS, sigma=0.0))
        res = run_single(cfg)
        assert res.state.n == 10
        assert len(res.trace) == 11  # states n = 0..N


@pytest.fixture
def norm_form_calls(monkeypatch):
    """Counts the consistent mass and scalar stiffness assemblies."""
    from qtflow import assembly
    calls = {"consistent_mass": 0, "scalar_stiffness": 0}
    for name in calls:
        original = getattr(assembly, name)

        def counted(mesh, name=name, original=original):
            calls[name] += 1
            return original(mesh)

        monkeypatch.setattr(assembly, name, counted)
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
    study(cfg)
    assert norm_form_calls == {"consistent_mass": 1, "scalar_stiffness": 1}


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
            raise Reached((cases[0].nx, cases[0].ny))

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
        assert err.case.params.sigma == failing_sigma
        assert err.case.pert_q0 == 0.5 * failing_sigma ** 0.5
        assert err.case.pert_qt0 == 0.0
        assert (err.case.nx, err.case.ny, err.case.dt) == (6, 6, dt)
        assert (err.step, err.t, err.residual) == (2, 2 * dt, 0.5)

    def test_perturbation_applied_interior_only(self):
        # with a perturbed start, boundary DOFs of the hyperbolic run stay 0
        cfg = ExperimentConfig(nx=6, ny=6, T=0.01, dt=1e-3,
                               sigma_list=(1e-3, 1e-1),
                               p1_list=(0.5,), p2_list=(0.5,))
        res = sigma_study(cfg)
        assert all(row.h1_error > 0 for row in res.rows)
