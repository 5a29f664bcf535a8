"""End-to-end acceptance checks.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
as they happen; they also appear in captured output on failure).  Heavy
studies are computed once per session and shared across criteria.
"""

import math

import numpy as np
import pytest
from dataclasses import replace

from qtflow.analysis import h1_error_field, norm_forms
from qtflow.assembly import (
    assemble_div_form,
    assemble_stiffness,
    lumped_mass,
)
from qtflow.experiments import (
    DEFAULT_PARAMS,
    ExperimentConfig,
    default_initial_q,
    run_single,
    sigma_study,
    space_refinement_study,
    time_refinement_study,
)
from qtflow.mesh import build_mesh
from qtflow.model import aux_P, aux_r
from qtflow.stepper import interpolate_qfield, step

import oracles
from states import default_start


def report(num, name, ok, detail=""):
    line = "[criterion %s] %s: %s" % (num, "PASS" if ok else "FAIL", name)
    if detail:
        line += "  (%s)" % detail
    print("\n" + line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def identity_run():
    cfg = ExperimentConfig(nx=16, ny=16, T=0.1, dt=1e-3)
    return run_single(cfg)


@pytest.fixture(scope="module")
def equilibrium_run():
    cfg = ExperimentConfig(nx=16, ny=16, T=1.0, dt=1e-3,
                           initial="zero")
    return run_single(cfg)


@pytest.fixture(scope="module")
def time_study():
    return time_refinement_study(ExperimentConfig())


@pytest.fixture(scope="module")
def space_study():
    return space_refinement_study(ExperimentConfig())


@pytest.fixture(scope="module")
def sigma_sweep():
    # dt relaxed from 1e-5 to 1e-4 for suite runtime; slope targets unchanged
    return sigma_study(ExperimentConfig(dt=1e-4))


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_energy_identity(identity_run):
    trace = identity_run.trace
    e0 = trace[0].total
    worst = max(abs(rec.dissipation_residual) for rec in trace)
    report(1, "per-step dissipation residual <= 1e-9 * E0", worst <= 1e-9 * e0,
           "100 steps, max |residual| = %.3e, E0 = %.6g" % (worst, e0))


def test_criterion_2_energy_monotonicity(identity_run, equilibrium_run,
                                         time_study, space_study, sigma_sweep):
    slack = 1e-9 * identity_run.trace[0].total
    worst = max(
        identity_run.max_energy_increase,
        equilibrium_run.max_energy_increase,
        time_study.max_energy_increase,
        space_study.max_energy_increase,
        sigma_sweep.max_energy_increase,
    )
    report(2, "E^{n+1} <= E^n in every acceptance run", worst <= slack,
           "max energy increase over all runs = %.3e" % worst)


def test_criterion_3_structure_preservation():
    params = replace(DEFAULT_PARAMS, L2=0.0005, L3=0.0005)
    dt = 1e-3
    mesh = build_mesh(0, 2, 0, 2, 4, 4)  # 5x5 nodes

    q0 = interpolate_qfield(mesh, default_initial_q)
    state, op = default_start(mesh, params, dt)

    ref = oracles.FullMatrixStepper(mesh, params, dt)
    to_full = lambda q: np.array([oracles.to_full(a, b) for a, b in q.T])
    Qf, Qp, rf = to_full(state.q), to_full(q0), state.r.copy()

    sym = trace = match = 0.0
    for _ in range(10):
        state = step(state, params, dt, op, cg_tol=1e-13)
        Qf_new, rf = ref.step(Qf, Qp, rf)
        Qp, Qf = Qf, Qf_new
        sym = max(sym, float(np.max(np.abs(Qf[:, 0, 1] - Qf[:, 1, 0]))))
        trace = max(trace, float(np.max(np.abs(Qf[:, 0, 0] + Qf[:, 1, 1]))))
        Q = to_full(state.q)
        match = max(match, float(np.max(np.abs(Q - Qf))))
    ok = sym < 1e-12 and trace < 1e-12 and match < 1e-10
    report(3, "full-matrix reference: symmetric, trace-free, matches reduced",
           ok, "asym %.2e, trace %.2e, mismatch %.2e" % (sym, trace, match))


def test_criterion_4_time_refinement_orders(time_study):
    orders = []
    for row in time_study.rows[1:]:
        orders += [row.ord_q11, row.ord_q12, row.ord_r]
    ok = all(0.85 <= o <= 1.35 for o in orders)
    report(4, "time-refinement orders for Q11, Q12, r in [0.85, 1.35]", ok,
           "observed %s" % ", ".join("%.2f" % o for o in orders))


def test_criterion_4_q11_error_magnitude(time_study):
    # target magnitude 1.73e-4 at dt = 1e-3; the faithful scheme lands close
    # to 5.8e-5 (orders match, the constant does not) -- kept as stated.
    row = next(r for r in time_study.rows if r.level == 1e-3)
    target = 1.73e-4
    ok = target / 2.0 <= row.err_q11 <= target * 2.0
    report(4, "Q11 error at dt=1e-3 within factor 2 of %.3g" % target, ok,
           "measured %.3e (factor %.2f)" % (row.err_q11, target / row.err_q11))


def test_criterion_5_space_refinement_r_order(space_study):
    avg_r = float(np.mean([row.ord_r for row in space_study.rows[1:]]))
    report(5, "space-refinement average r order in [0.3, 0.7]",
           0.3 <= avg_r <= 0.7, "average %.3f" % avg_r)


def test_criterion_5_space_refinement_q_orders(space_study):
    # targets encode superlinear table rates; the optimal-protocol result is
    # the O(h) H1 rate, so the Q windows are kept as stated and fail.
    avg_q11 = float(np.mean([row.ord_q11 for row in space_study.rows[1:]]))
    avg_q12 = float(np.mean([row.ord_q12 for row in space_study.rows[1:]]))
    ok = (1.0 <= avg_q11 <= 1.9) and (1.2 <= avg_q12 <= 2.0)
    report(5, "space-refinement average orders Q11 in [1.0,1.9], Q12 in [1.2,2.0]",
           ok, "averages q11 %.3f, q12 %.3f" % (avg_q11, avg_q12))


def test_criterion_5_space_q_orders_sit_at_the_h1_rate(space_study):
    """Criterion 5's Q windows are checked on averages that include the
    pre-asymptotic first order, from h = 0.5 to 0.25.  The orders after it,
    at h = 0.125 and 0.0625, sit at the H1 rate 1 of P1 elements: measured
    0.959 and 0.998 (Q11), 0.967 and 1.006 (Q12).  They must stay in a
    window pinned from those values, which a scheme that lost its H1 rate
    would leave.  Prints the table level by level."""
    print("\n%-8s %-10s %-6s %-10s %-6s %-10s %-6s"
          % ("h", "err_Q11", "ord", "err_Q12", "ord", "err_r", "ord"))
    for row in space_study.rows:
        print("%-8g %-10.4g %-6s %-10.4g %-6s %-10.4g %-6s" % (
            row.level, row.err_q11, _order(row.ord_q11), row.err_q12,
            _order(row.ord_q12), row.err_r, _order(row.ord_r)))
    orders = {row.level: (row.ord_q11, row.ord_q12) for row in space_study.rows}
    later = [orders[h] for h in (0.125, 0.0625)]
    ok = all(o is not None and 0.95 <= o <= 1.01 for pair in later for o in pair)
    report(5, "space-refinement Q orders at h = 0.125 and 0.0625 in [0.95, 1.01]",
           ok, "; ".join("h=%g: q11 %s, q12 %s" % (h, *map(_order, pair))
                         for h, pair in zip((0.125, 0.0625), later)))


def _order(value):
    return "-" if value is None else "%.3f" % value


def test_criterion_6_sigma_slopes(sigma_sweep):
    slopes = sigma_sweep.slopes
    checks = []
    for (p1, p2), slope in slopes.items():
        if not math.isinf(p1) and p1 == 0.5:
            lo, hi = 0.35, 0.65   # error dominated by the sqrt(sigma) data gap
        else:
            lo, hi = 0.8, 1.2     # linear-in-sigma regime
        checks.append((p1, p2, slope, lo <= slope <= hi))
    ok = all(c[3] for c in checks)
    detail = "; ".join("p1=%g p2=%g: %.3f%s" % (p1, p2, s, "" if good else " !")
                       for p1, p2, s, good in checks)
    report(6, "fitted sigma-convergence slopes per perturbation case", ok, detail)


def test_sigma_distance_in_linf_h1_is_the_final_distance():
    """The paper's rate in sigma holds in L-infinity(0, T; H1), while the
    sweep reports the distance at T only.  On the acceptance sweep
    (dt = 1e-4, 1000 steps) every case's H1 distance from the parabolic
    run is largest at the final state, so the sweep's table and fitted
    slopes are its L-infinity(0, T; H1) distances too.  Prints the local
    slopes of the unperturbed pair between neighbouring sigmas."""
    res, distances = oracles.sigma_sweep_distances(ExperimentConfig(dt=1e-4))
    assert len(distances) == len(res.rows) == 30
    for row, steps in zip(res.rows, distances):
        assert [n for n, _ in steps] == list(range(1, 1001))
        assert steps[-1][1] == row.h1_error  # the study's own distance at T
        assert max(d for _, d in steps) == row.h1_error, (row.sigma, row.p1, row.p2)
    unperturbed = [row for row in res.rows if math.isinf(row.p1) and math.isinf(row.p2)]
    slopes = [math.log(b.h1_error / a.h1_error) / math.log(b.sigma / a.sigma)
              for a, b in zip(unperturbed, unperturbed[1:])]
    print("\nunperturbed local slopes in L-infinity(0, T; H1): "
          + ", ".join("%.3f" % slope for slope in slopes))


def test_sigma_constant_is_uniform_in_h_and_dt():
    """The unperturbed sweep (sigma = 1e-3 ... 1e-1 and the parabolic run,
    T = 0.1) on 8^2, 16^2 and 32^2 at dt = 1e-4, and on 16^2 at dt = 5e-5:
    the distance / sigma at sigma = 1e-3 settles under refinement and does
    not move with dt, and the rate is sigma for sigma <= 1e-2 only.
    Measured: 0.7262, 0.8507 and 0.8853 over the meshes (changes 0.1245,
    then 0.0346, a contraction of 0.28, as for an O(h^2) limit), 0.85086 at
    dt = 5e-5 (a relative change of 1.8e-4); local slopes 0.992-0.993,
    0.969-0.972, 0.844-0.850 and 0.496-0.501 between neighbouring sigmas on
    every mesh and step.  About 3 s."""
    constants = []
    for nx, dt in ((8, 1e-4), (16, 1e-4), (32, 1e-4), (16, 5e-5)):
        rows = sigma_study(ExperimentConfig(
            nx=nx, ny=nx, dt=dt, T=0.1, p1_list=(math.inf,),
            p2_list=(math.inf,))).rows
        assert rows[0].sigma == 1e-3 and len(rows) == 5
        constants.append(rows[0].h1_error / rows[0].sigma)
        slopes = [math.log(b.h1_error / a.h1_error) / math.log(b.sigma / a.sigma)
                  for a, b in zip(rows, rows[1:])]
        assert min(slopes[:2]) >= 0.96 and slopes[-1] <= 0.55, (nx, dt, slopes)
    c8, c16, c32, c16_fine = constants
    print("\ndistance / sigma at sigma = 1e-3: %.4f, %.4f, %.4f (8^2, 16^2, "
          "32^2); %.5f at dt = 5e-5" % tuple(constants))
    assert abs(c32 - c16) <= 0.045 and abs(c32 - c16) <= abs(c16 - c8) / 3.0
    assert abs(c16_fine - c16) <= 1e-3 * c16


def test_perturbed_sigma_constant_is_the_offsets_h1_norm():
    """The (1, inf) pair of the sweep starts from Q0 + (sigma / 2)
    diag(1, -1) at the interior nodes and zero on the boundary, so its
    distance / sigma at sigma = 1e-3 is the H1 norm of that offset divided
    by sigma, and grows like h^(-1/2) as the offset's boundary jump does:
    the gradient sigma / (2h) in the boundary cells gives about
    2 h^(-1/2).  Measured on 8^2, 16^2 and 32^2 (dt = 1e-4, T = 0.1):
    distance / sigma 4.007, 5.746 and 7.979 against the offset's 3.923,
    5.629 and 7.990 (ratios 1.021, 1.021 and 0.999), a growth of 1.434
    and 1.389 per halving of h against sqrt(2) = 1.414.  About 1.3 s."""
    constants, offsets = [], []
    for nx in (8, 16, 32):
        rows = sigma_study(ExperimentConfig(
            nx=nx, ny=nx, dt=1e-4, T=0.1, p1_list=(1.0,), p2_list=(math.inf,),
            sigma_list=(1e-3, 10 ** -1.5))).rows
        assert rows[0].sigma == 1e-3 and (rows[0].p1, rows[0].p2) == (1.0, math.inf)
        mesh = build_mesh(0.0, 2.0, 0.0, 2.0, nx, nx)
        offset = np.zeros((2, mesh.n_interior))
        offset[0] = rows[0].sigma / 2.0
        norm = h1_error_field(np.zeros_like(offset), offset, norm_forms(mesh))
        constants.append(rows[0].h1_error / rows[0].sigma)
        offsets.append(norm / rows[0].sigma)
    print("\nperturbed distance / sigma at sigma = 1e-3: %.3f, %.3f, %.3f; the "
          "offset's H1 norm / sigma: %.3f, %.3f, %.3f" % tuple(constants + offsets))
    for c, o in zip(constants, offsets):
        assert 0.99 <= c / o <= 1.03
    for values in (constants, offsets):
        for coarse, fine in zip(values, values[1:]):
            assert 1.37 <= fine / coarse <= 1.45


def test_criterion_7_model_algebra_suite():
    p = DEFAULT_PARAMS
    rng = np.random.RandomState(42)
    ok = True
    notes = []

    # gradient checks with O(eps^2) remainder decay: the dense oracles' F
    # and f, and src's r and P.  As r = sqrt(2 (F + A0)) and P = f / r,
    # P = grad r holds exactly when f = grad F, so the aux check covers the
    # F and f that src forms inside aux_r and aux_P.
    for which in ("bulk", "aux"):
        worst_ratio = 0.0
        for _ in range(5):
            q = rng.uniform(-1.5, 1.5, size=2)
            d = rng.standard_normal(2)
            d /= np.sqrt(2.0) * np.linalg.norm(d)
            rems = []
            for eps in (1e-4, 5e-5):
                if which == "bulk":
                    full, step = oracles.to_full(q[0], q[1]), oracles.to_full(d[0], d[1])
                    lin = eps * float(np.sum(oracles.f_dense(full, p) * step))
                    rems.append(abs(oracles.bulk_dense(full + eps * step, p)
                                    - oracles.bulk_dense(full, p) - lin))
                else:
                    lin = eps * oracles.frob_dot(aux_P(q, p), d)
                    rems.append(abs(aux_r(q + eps * d, p) - aux_r(q, p) - lin))
            worst_ratio = max(worst_ratio, rems[1] / max(rems[0], 1e-300))
        ok &= worst_ratio < 0.35
        notes.append("%s remainder ratio %.3f" % (which, worst_ratio))

    # f = r P identity, f from the dense oracle
    worst = 0.0
    for _ in range(50):
        q = rng.uniform(-2, 2, size=2)
        f = oracles.f_dense(oracles.to_full(q[0], q[1]), p)
        r = aux_r(q, p)
        P = aux_P(q, p)
        worst = max(worst, float(np.max(np.abs(f - r * oracles.to_full(P[0], P[1])))))
    ok &= worst < 1e-14
    notes.append("f=rP defect %.1e" % worst)

    # planar degeneracies through the dense oracle
    worst_t3 = worst_b = 0.0
    pb = replace(p, b=17.0)
    for _ in range(50):
        q = rng.uniform(-2, 2, size=2)
        full = oracles.to_full(q[0], q[1])
        worst_t3 = max(worst_t3, abs(np.trace(full @ full @ full)))
        worst_b = max(worst_b, float(np.max(np.abs(
            oracles.f_dense(full, pb) - oracles.f_dense(full, p)))))
    ok &= worst_t3 < 1e-12 and worst_b < 1e-12
    notes.append("tr(Q^3) %.1e, b-term %.1e" % (worst_t3, worst_b))

    # alpha pairing equals -2 (div form)
    mesh = build_mesh(0, 2, 0, 2, 8, 8)
    D = assemble_div_form(mesh)
    idx = oracles.interior_nodes(mesh)
    worst_alpha = 0.0
    for _ in range(10):
        W1 = rng.uniform(-1, 1, size=(mesh.n_nodes, 2))
        W2 = rng.uniform(-1, 1, size=(mesh.n_nodes, 2))
        W1[oracles.is_boundary(mesh)] = 0.0
        W2[oracles.is_boundary(mesh)] = 0.0
        div_val = float(np.sum(W1[idx] * (D @ W2[idx])))
        pair = oracles.alpha_pairing(mesh, W1, W2)
        worst_alpha = max(worst_alpha,
                          abs(pair + 2.0 * div_val) / max(1.0, abs(pair)))
    ok &= worst_alpha < 1e-12
    notes.append("alpha vs -2 div %.1e" % worst_alpha)

    report(7, "pointwise algebra property suite", bool(ok), "; ".join(notes))


def test_criterion_8_equilibrium(equilibrium_run):
    res = equilibrium_run
    totals = [rec.total for rec in res.trace]
    ok = (
        len(totals) == 1000
        and len(set(totals)) == 1
        and abs(totals[0] - 2000.0) <= 1e-9 * 2000.0
        and np.all(res.state.q == 0.0)
    )
    report(8, "zero data stays zero with constant energy 2000 for 1000 steps",
           ok, "E = %.12g" % totals[0])
