"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import outputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_is_duration_minus_children():
    #   0: [0, 10]   1: [1, 4] under 0   2: [2, 3] under 1   3: [5, 9] under 0
    durations, own = spans.self_times([0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0])
    assert durations == [10, 3, 1, 4]
    assert own == [3, 2, 1, 4]
    assert sum(own) == durations[0]


def test_tracer_records_nesting_with_its_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    mid = tracer.wrap("mid", lambda x: leaf(leaf(x)))
    root = tracer.wrap("root", lambda x: mid(x) + leaf(x))
    assert root(1) == 5
    assert list(tracer.parents) == [-1, 0, 1, 1, 0]
    counts, selfs = tracer.summary()
    assert counts == {"root": 1, "mid": 1, "leaf": 3}
    # Every clock read is one tick: root spans 0..9, mid 1..6, leaves 1 tick.
    assert selfs == {"root": 9 - 5 - 1, "mid": 5 - 2, "leaf": 3}
    assert sum(selfs.values()) == tracer.ends[0] - tracer.starts[0]


def test_tracer_closes_span_when_call_raises():
    tracer = spans.Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("f", fail)()
    assert tracer.ends[0] >= tracer.starts[0] and not tracer._stack


def _write_outputs(out_dir, ref_dir, cg_tol=1e-10):
    """Copy the reference files and write a manifest for them."""
    os.makedirs(out_dir)
    files = {}
    for name in os.listdir(ref_dir):
        shutil.copy(os.path.join(ref_dir, name), out_dir)
        files[name] = outputs._sha256(os.path.join(out_dir, name))
    with open(os.path.join(out_dir, outputs.MANIFEST), "w") as handle:
        json.dump({"config": {"cg_tol": cg_tol}, "files": files}, handle)


def _perturb(out_dir, name, row, col, factor):
    path = os.path.join(out_dir, name)
    table = outputs.read_table(path)
    table[row][col] = "%.17g" % (float(table[row][col]) * factor)
    with open(path, "w") as handle:
        handle.write("\n".join(",".join(r) for r in table) + "\n")
    with open(os.path.join(out_dir, outputs.MANIFEST)) as handle:
        manifest = json.load(handle)
    manifest["files"][name] = outputs._sha256(path)
    with open(os.path.join(out_dir, outputs.MANIFEST), "w") as handle:
        json.dump(manifest, handle)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reference_outputs_pass_their_own_check(tmp_path, workload):
    ref = os.path.join(HERE, "reference", workload)
    _write_outputs(str(tmp_path / "out"), ref)
    problems, (identical, total) = outputs.check_outputs(
        str(tmp_path / "out"), ref, 0, run.WORKLOADS[workload].rel_tol_per_cg_tol)
    assert problems == []
    assert identical == total == len(os.listdir(ref))


SPACE_TOL = run.WORKLOADS["space_aniso"].rel_tol_per_cg_tol


def test_check_rejects_perturbed_csv(tmp_path):
    # A 10 % error in the divergence term of the step operator moves the
    # space study's errors by 8e-5; 1e-5 must already be rejected.
    ref = os.path.join(HERE, "reference", "space_aniso")
    out = str(tmp_path / "out")
    _write_outputs(out, ref)
    _perturb(out, "space_refinement.csv", 2, 1, 1.0 + 1e-5)
    problems, (identical, _) = outputs.check_outputs(out, ref, 0, SPACE_TOL)
    assert len(problems) == 1 and "error_Q11" in problems[0]
    assert identical == 0
    # A jittered seed has no reference, so only invariants are checked.
    assert outputs.check_outputs(out, ref, 7, SPACE_TOL)[0] == []


def test_check_accepts_change_within_cg_tolerance(tmp_path):
    ref = os.path.join(HERE, "reference", "space_aniso")
    out = str(tmp_path / "out")
    _write_outputs(out, ref)
    _perturb(out, "space_refinement.csv", 2, 1, 1.0 + 1e-8)
    problems, (identical, total) = outputs.check_outputs(out, ref, 0, SPACE_TOL)
    assert problems == [] and (identical, total) == (0, 1)


def test_check_rejects_energy_identity_violation(tmp_path):
    ref = os.path.join(HERE, "reference", "fine_run")
    out = str(tmp_path / "out")
    _write_outputs(out, ref)
    table = outputs.read_table(os.path.join(out, "energy_trace.csv"))
    bound = outputs.ENERGY_IDENTITY_BOUND * float(table[1][2])
    _perturb(out, "energy_trace.csv", 5, 7, 3 * bound / float(table[5][7]))
    problems, _ = outputs.check_outputs(out, ref, 3, 1e3)
    assert len(problems) == 1 and "energy identity" in problems[0]


def test_layer_hooks_record_every_declared_layer_and_restore(tmp_path):
    import qtflow
    import qtflow.cli

    config = tmp_path / "space.ini"
    config.write_text("[params]\nL2 = 5e-4\nL3 = 5e-4\nsigma = 0.0\n"
                      "[experiment]\nT = 2.5e-4\nh_list = 0.5, 0.25\n"
                      "reference_level = 3\n")
    originals = (qtflow.experiments.step, qtflow.stepper.cg_solve,
                 qtflow.analysis.assembly, qtflow.solver.StepOperator.matvec)
    tracer = spans.Tracer()
    with spans.installed(spans.layer_hooks(tracer, qtflow)):
        rc = tracer.wrap(spans.ROOT, qtflow.cli.main)(
            ["space-refine", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert originals == (qtflow.experiments.step, qtflow.stepper.cg_solve,
                         qtflow.analysis.assembly, qtflow.solver.StepOperator.matvec)
    metrics, counts, self_sum = spans.layer_metrics(tracer)
    assert all(counts.get(name, 0) > 0 for name in run.WORKLOADS["space_aniso"].spans)
    assert metrics["stepper.steps"] == 3 * 2  # three meshes, two steps each
    assert self_sum == pytest.approx(tracer.ends[0] - tracer.starts[0], rel=1e-9)


def test_case_clock_counts_setup_and_dof_steps(tmp_path):
    import qtflow
    import qtflow.cli

    clock = spans.CaseClock()
    with spans.installed(clock.hooks(qtflow)):
        rc = qtflow.cli.main(["run", "--out", str(tmp_path / "out")])
    assert rc == 0
    # Default run: 16x16 cells, 100 steps, the first taken by the start-up.
    assert clock.dof_steps == 2 * 15 * 15 * 99
    assert clock.setup_s > 0.0


def test_metric_tables_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert bench["run_seconds"] == run.DEFAULT_SECONDS
    metrics, _, _ = spans.layer_metrics(spans.Tracer())
    assert set(metrics) | {"cli.bytes_written", "trace.overhead_s"} == set(run.PER_LAYER)


def test_summarize_scales_times_by_the_calibration_kernel():
    def rep(wall_s, setup_s, cal_s, warmup=False):
        return {"problems": [], "warmup": warmup, "traced": False, "wall_s": wall_s,
                "setup_s": setup_s, "dof_steps": 1000, "peak_rss_mb": 100.0,
                "cal_s": cal_s}

    ref = run.CAL_REF_S
    reps = [rep(9.0, 9.0, [ref], warmup=True),
            rep(2.0, 0.5, [2 * ref, 2 * ref]), rep(4.0, 1.0, [2 * ref])]
    samples, problems = run.summarize("fine_run", reps, 0)
    assert problems == []
    # A host on which the kernel runs at half speed halves every time.
    assert samples["wall_s"] == pytest.approx([1.0, 2.0])
    assert samples["setup_s"] == pytest.approx([0.25, 0.5])
    assert samples["dof_steps_per_s"] == pytest.approx([1000.0, 500.0])
    assert samples["peak_rss_mb"] == [100.0, 100.0]


def test_tracing_overhead_compares_times_as_measured():
    def rep(wall_s, traced):
        return {"problems": [], "warmup": False, "traced": traced, "wall_s": wall_s,
                "setup_s": 0.1, "dof_steps": 1000, "peak_rss_mb": 100.0,
                "layers": {}, "bytes_written": 10, "cal_s": [2 * run.CAL_REF_S]}

    samples, _ = run.summarize("fine_run", [rep(2.0, False), rep(2.5, True)], 1)
    assert samples["trace.overhead_s"] == pytest.approx([0.5])
