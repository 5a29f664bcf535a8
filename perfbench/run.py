"""qtflow benchmark: two CLI studies, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fine_run --seed 0 --seconds 55 --trace 0

Each repetition runs ``qtflow.cli.main`` once in a fresh child process with
one BLAS thread and ``--threads 1``; repetitions follow one another until
``--seconds`` are used, and every output is checked.  The first repetition
warms up and is checked but not measured.  After each repetition the
parent process runs a fixed reference kernel (``calibrate.py``); end-to-end
times are scaled by the kernel's median time in the same run, which
cancels the drift in speed of a shared host.  ``--trace 0`` reports
the medians of the end-to-end metrics; ``--trace 1`` alternates untraced
and traced repetitions and reports the per-layer metrics of the traced
ones plus the tracing overhead.  ``--workload all`` runs every workload.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Seed 0 runs the canonical configs and compares them with ``reference/``;
other seeds jitter parameters that keep the work shape (A0, sigma, the
anisotropy) and are checked by invariants only.
"""

import os

from child import BLAS_PINS

os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import outputs  # noqa: E402
from calibrate import Kernel  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SECONDS = 55
RUN_LIMIT_S = 150  # a run must end within 180 s
CAL_PASSES = 12  # calibration kernel passes after each repetition
# End-to-end times are reported for a host on which one kernel pass takes
# this long: about its median on the 2-vCPU host the bounds were set on.
CAL_REF_S = 0.033
MIN_REPS = {0: 3, 1: 4}  # measured, per --trace value; traced runs alternate modes

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "dof_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "mesh.build_s": "s",
    "mesh.injection_s": "s",
    "assembly.stiffness_s": "s",
    "assembly.div_form_s": "s",
    "assembly.norm_forms_s": "s",
    "assembly.calls": "count",
    "model.aux_s": "s",
    "model.calls": "count",
    "solver.operator_build_s": "s",
    "solver.matvec_s": "s",
    "solver.matvecs": "count",
    "solver.cg_self_s": "s",
    "solver.cg_iters_per_step": "iter/step",
    "solver.matvec_gbps_computed": "GB/s",
    "stepper.step_self_s": "s",
    "stepper.steps": "count",
    "stepper.init_s": "s",
    "analysis.energy_s": "s",
    "analysis.error_norms_s": "s",
    "experiments.self_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

COMMON_SPANS = ("cli.main", "experiments.study", "mesh.build",
                "assembly.stiffness", "assembly.lumped", "stepper.init",
                "stepper.step", "model.aux", "solver.operator_build",
                "solver.cg", "solver.matvec", "analysis.energy")


@dataclass(frozen=True)
class Workload:
    subcommand: str
    why: str
    spans: tuple  # span names this workload must record
    # Seed 0 outputs may differ from the reference by this many multiples of
    # cg_tol (see outputs.check_outputs).  CG stops on a residual relative
    # to a right-hand side dominated by the mass term, so a solve within
    # cg_tol moves results by more than cg_tol.  Rerun with cg_tol 1e-11 and
    # 1e-12, the outputs needed factors up to 3 (fine_run) and 32
    # (space_aniso); each factor below leaves a margin of 10x or more.
    rel_tol_per_cg_tol: float


WORKLOADS = {
    "fine_run": Workload(
        "run",
        "one case at 256^2 (130k DOFs): large vectors, so matvec, operator "
        "rebuild and energy evaluation dominate and batching cannot help",
        COMMON_SPANS, 1e3),
    "space_aniso": Workload(
        "space-refine",
        "five meshes with L2=L3>0 and sigma=0: divergence form in every "
        "matvec, parabolic branch, more CG iterations, error-norm rebuilds",
        COMMON_SPANS + ("assembly.div_form", "mesh.injection",
                        "analysis.error_norms", "assembly.norm_forms"), 1e3),
}

def workload_config(name, seed):
    """INI sections of a workload; seed 0 is canonical, others jitter."""
    rng = random.Random(seed)

    def jitter(rel):
        return 1.0 if seed == 0 else 1.0 + rng.uniform(-rel, rel)

    a0 = 500.0 * jitter(0.05)
    if name == "fine_run":
        dt = 1.25e-4
        return {"mesh": {"nx": 256, "ny": 256},
                "params": {"A0": a0, "sigma": 0.025 * jitter(0.1)},
                "experiment": {"T": 60 * dt, "dt": dt}}
    if name == "space_aniso":
        ell = 5e-4 * jitter(0.05)
        return {"params": {"A0": a0, "L2": ell, "L3": ell, "sigma": 0.0},
                "experiment": {"T": 0.025, "reference_level": 6}}
    raise KeyError(name)


def write_config(path, sections):
    with open(path, "w") as handle:
        for section, values in sections.items():
            handle.write("[%s]\n" % section)
            for key, value in values.items():
                handle.write("%s = %s\n" % (key, repr(value) if isinstance(value, float) else value))


def run_rep(name, seed, config_path, work_dir, traced, timeout):
    """One child process; returns what it measured and the problems found."""
    out_dir = os.path.join(work_dir, "out")
    result_path = os.path.join(work_dir, "rep.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
           "--subcommand", WORKLOADS[name].subcommand, "--config", config_path,
           "--out", out_dir, "--result", result_path, "--trace", str(int(traced))]
    rep = {"traced": traced, "problems": [], "identical": (0, 0)}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        rep["problems"].append("timed out after %.0f s" % timeout)
        return rep
    finally:
        rep["elapsed"] = time.monotonic() - start
    if proc.returncode != 0 or not os.path.exists(result_path):
        rep["problems"].append("child exited with %d: %s"
                               % (proc.returncode, proc.stderr[-2000:]))
        return rep
    with open(result_path) as handle:
        rep.update(json.load(handle))
    if rep["rc"] != 0:
        rep["problems"].append("qtflow exited with %d: %s"
                               % (rep["rc"], proc.stderr[-2000:]))
        return rep
    problems, rep["identical"] = outputs.check_outputs(
        out_dir, os.path.join(HERE, "reference", name), seed,
        WORKLOADS[name].rel_tol_per_cg_tol)
    rep["problems"] += problems
    rep["bytes_written"] = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    if traced:
        rep["problems"] += trace_problems(name, rep)
    elif rep["dof_steps"] == 0:
        rep["problems"].append("the set-up clock saw no time step; was "
                               "qtflow.experiments.step renamed?")
    return rep


def trace_problems(name, rep):
    """A declared layer without spans, or self times not summing to wall."""
    problems = ["layer span %s recorded nothing on %s; was a qtflow name "
                "renamed?" % (span, name)
                for span in WORKLOADS[name].spans
                if rep["span_counts"].get(span, 0) == 0]
    if abs(rep["self_sum_s"] - rep["wall_s"]) > 0.01 * rep["wall_s"]:
        problems.append("layer self times sum to %.6f s, traced wall is %.6f s"
                        % (rep["self_sum_s"], rep["wall_s"]))
    return problems


def run_workload(name, seed, seconds, trace):
    work_dir = os.path.join(OUT, name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    config_path = os.path.join(work_dir, "config.ini")
    write_config(config_path, workload_config(name, seed))

    kernel = Kernel()
    kernel.seconds()
    start = time.monotonic()
    reps = []
    while True:
        # reps[0] warms up (page cache, output directory) and is not measured.
        measured = len(reps) - 1
        traced = bool(trace) and measured % 2 == 1
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - start))
        rep = run_rep(name, seed, config_path, work_dir, traced, timeout)
        rep["warmup"] = not reps
        rep["cal_s"] = [kernel.seconds() for _ in range(CAL_PASSES)]
        reps.append(rep)
        elapsed = time.monotonic() - start
        typical = statistics.median(r["elapsed"] for r in reps)
        if elapsed + typical > RUN_LIMIT_S:
            break
        if measured + 1 >= MIN_REPS[trace] and elapsed + typical > seconds:
            break
    return reps


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def calibration_s(reps):
    """Median time of one kernel pass over a run's repetitions."""
    return statistics.median(c for r in reps for c in r["cal_s"])


def calibrated(seconds, cal_s):
    """A time measured while a kernel pass took cal_s, scaled to CAL_REF_S.

    Host load slows the kernel and qtflow alike, so the ratio of the two
    holds while either time alone drifts; a change to qtflow moves only
    the numerator.
    """
    return seconds * CAL_REF_S / cal_s


def summarize(name, reps, trace):
    """(metrics, problems) of one workload's repetitions."""
    good = [r for r in reps if not r["problems"] and not r["warmup"]]
    plain = [r for r in good if not r["traced"]]
    cal_s = calibration_s(reps)
    samples = {}
    if plain:
        walls = [calibrated(r["wall_s"], cal_s) for r in plain]
        samples["wall_s"] = walls
        samples["setup_s"] = [calibrated(r["setup_s"], cal_s) for r in plain]
        samples["dof_steps_per_s"] = [r["dof_steps"] / w for r, w in zip(plain, walls)]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in plain]
    if trace:
        traced = [r for r in good if r["traced"]]
        for metric in PER_LAYER:
            if traced and metric in traced[0]["layers"]:
                samples[metric] = [r["layers"][metric] for r in traced]
        if traced:
            samples["cli.bytes_written"] = [r["bytes_written"] for r in traced]
        if traced and plain:
            # Both as measured: per-layer times are not calibrated.
            samples["trace.overhead_s"] = [
                statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain)]
    units = PER_LAYER if trace else END_TO_END
    missing = [m for m in units if m not in samples]
    problems = ["no successful run measured %s" % ", ".join(missing)] if missing else []
    return {m: samples.get(m, [0.0]) for m in units}, problems


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest():
    """SHA-256 over the qtflow sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qtflow")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as handle:
                digest.update(fname.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def environment(seed, reps):
    done = [r for r in reps if "numpy" in r]
    return {
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": done[0]["numpy"] if done else None,
        "scipy": done[0]["scipy"] if done else None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_pins": BLAS_PINS,
    }


def report(name, seed, trace, reps, samples, problems):
    """Print one workload's metrics and problems; return its record."""
    failed = sum(1 for r in reps if r["problems"])
    units = PER_LAYER if trace else END_TO_END
    print("== %s  seed %d  trace %d: %d runs, %d failed (failed_frac %.3g)"
          % (name, seed, trace, len(reps), failed, failed / len(reps)))
    for metric, unit in units.items():
        q1, med, q3 = quartiles(samples[metric])
        print("  %-28s %14.6g %-9s q1 %.6g  q3 %.6g  n=%d"
              % (metric, med, unit, q1, q3, len(samples[metric])))
    cal_s = calibration_s(reps)
    print("  calibration kernel: median %.6g s a pass; %s" % (
        cal_s, "per-layer times are as measured" if trace else
        "times above are scaled by %.6g s / %.6g s" % (CAL_REF_S, cal_s)))
    if not trace:
        plain = [r for r in reps if not r["problems"] and not r["warmup"]
                 and not r["traced"]]
        for metric in ("wall_s", "setup_s"):
            if plain:
                print("  %-28s %14.6g %-9s (as measured)" % (
                    metric, statistics.median(r[metric] for r in plain), "s"))
    identical = [r["identical"] for r in reps if not r["problems"]]
    if seed == 0 and identical:
        print("  byte-identical to reference: %d/%d files" % identical[-1])
    for i, rep in enumerate(reps):
        for problem in rep["problems"]:
            print("FAILED run %d of %s: %s" % (i, name, problem), file=sys.stderr)
    for problem in problems:
        print("FAILED %s: %s" % (name, problem), file=sys.stderr)
    return {
        "workload": name, "trace": trace, "attempted": len(reps), "failed": failed,
        "environment": environment(seed, reps),
        "calibration": {"median_s": cal_s, "reference_s": CAL_REF_S},
        "metrics": {m: {"value": statistics.median(samples[m]), "unit": u,
                        "samples": samples[m]} for m, u in units.items()},
        "runs": [{k: v for k, v in r.items() if k not in ("span_counts",)}
                 for r in reps],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qtflow", "cli.py")):
        print("no qtflow sources under %s/src; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    correct = True
    for name in names:
        reps = run_workload(name, args.seed, args.seconds, args.trace)
        samples, problems = summarize(name, reps, args.trace)
        records.append(report(name, args.seed, args.trace, reps, samples, problems))
        correct = correct and not problems and records[-1]["failed"] == 0

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record_path = os.path.join(OUT, "results", "%s-seed%d-trace%d.json"
                               % (args.workload, args.seed, args.trace))
    with open(record_path, "w") as handle:
        json.dump(records, handle, indent=1)
    print("environment: %s" % json.dumps(records[0]["environment"]))

    prefix = len(names) > 1
    metrics = {("%s/%s" % (rec["workload"], m) if prefix else m):
               {"value": v["value"], "unit": v["unit"]}
               for rec in records for m, v in rec["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
