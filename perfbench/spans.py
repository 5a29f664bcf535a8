"""Layer spans and set-up timing recorded from outside the solver.

Every hook replaces a name that a qtflow module looks up at call time:
``experiments`` binds ``step``, ``build_mesh`` and friends with
``from ... import``, ``stepper`` does the same for ``aux_P``, ``cg_solve``
and ``StepOperator``, and the ``assembly``/``analysis`` modules are reached
through module attributes.  Those module references are replaced by a proxy
per caller, so ``assemble_stiffness`` calling ``scalar_stiffness`` inside
``assembly`` is not mistaken for the error-norm forms that ``analysis``
asks for.  ``StepOperator.matvec`` is wrapped on the class.

Spans are kept in flat arrays while the program runs and summarised
afterwards; nothing is written until the timed call has returned.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

ROOT = "cli.main"


class Tracer:
    """In-memory span recorder: name, start, end and parent of every call."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def wrap(self, name, fn, on_result=None):
        """Return fn recorded as a span; on_result(args, result) may count."""
        nid = self._name_id(name)
        clock = self.clock
        stack = self._stack

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            i = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            stack.append(i)
            self.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def summary(self):
        """Per span name: number of spans and summed self time."""
        _, own = self_times(self.starts, self.ends, self.parents)
        counts = {name: 0 for name in self.names}
        selfs = {name: 0.0 for name in self.names}
        for nid, s in zip(self.name_ids, own):
            name = self.names[nid]
            counts[name] += 1
            selfs[name] += s
        return counts, selfs


def self_times(starts, ends, parents):
    """Durations and self times (duration minus the children's durations).

    Spans come from one thread and nest, so the children of a span cover
    disjoint parts of its interval.
    """
    durations = [e - s for s, e in zip(starts, ends)]
    own = list(durations)
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= durations[i]
    return durations, own


class CaseClock:
    """Untraced counters: set-up time and interior DOF-steps of every case.

    A case starts when ``experiments`` builds its mesh and its set-up ends
    at its first time step.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.setup_s = 0.0
        self.dof_steps = 0
        self._case_start = None
        self._dofs = 0

    def hooks(self, qtflow):
        build_mesh = qtflow.experiments.build_mesh
        step = qtflow.experiments.step

        def timed_build_mesh(*args, **kwargs):
            self._case_start = self.clock()
            mesh = build_mesh(*args, **kwargs)
            self._dofs = 2 * mesh.n_interior
            return mesh

        def counted_step(*args, **kwargs):
            if self._case_start is not None:
                self.setup_s += self.clock() - self._case_start
                self._case_start = None
            self.dof_steps += self._dofs
            return step(*args, **kwargs)

        return [(qtflow.experiments, "build_mesh", timed_build_mesh),
                (qtflow.experiments, "step", counted_step)]


class ModuleProxy:
    """Stands in for a module in one caller's namespace, with overrides."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _matvec_bytes(op):
    """Computed bytes one StepOperator.matvec moves: every sparse operand
    once plus its input and output vectors, and the dense terms' vectors."""
    n8 = 8 * op.n
    total = 0
    for M in (op.K, op.D if op.D is not None and op.cd != 0.0 else None):
        if M is not None:
            total += M.data.nbytes + M.indices.nbytes + M.indptr.nbytes + 2 * n8
    total += 3 * n8  # w, x, y of the mass term
    if op.p is not None:
        total += 3 * n8  # p, x, y of the rank-one term
    return total


def layer_hooks(tracer, qtflow):
    """(namespace, name, replacement) triples that record every layer."""
    experiments, stepper, analysis, solver = (
        qtflow.experiments, qtflow.stepper, qtflow.analysis, qtflow.solver)
    assembly = qtflow.assembly
    w = tracer.wrap

    def count_iters(args, result):
        tracer.add("cg_iters", result[1])

    def count_bytes(args, result):
        tracer.add("matvec_bytes", _matvec_bytes(args[0]))

    hooks = [
        (qtflow.cli, name, w("experiments.study", getattr(qtflow.cli, name)))
        for name in ("run_single", "space_refinement_study",
                     "time_refinement_study", "sigma_study")
    ]
    hooks += [
        (experiments, "build_mesh", w("mesh.build", experiments.build_mesh)),
        (experiments, "nested_injection",
         w("mesh.injection", experiments.nested_injection)),
        (experiments, "step", w("stepper.step", experiments.step)),
    ]
    hooks += [(experiments, name, w("stepper.init", getattr(experiments, name)))
              for name in ("initialize", "interpolate_qfield", "nodal_r",
                           "build_default_Qt0")]
    hooks += [
        (experiments, "assembly", ModuleProxy(
            assembly,
            assemble_stiffness=w("assembly.stiffness", assembly.assemble_stiffness),
            assemble_div_form=w("assembly.div_form", assembly.assemble_div_form),
            lumped_mass=w("assembly.lumped", assembly.lumped_mass))),
        (stepper, "assembly", ModuleProxy(
            assembly,
            assemble_stiffness=w("assembly.stiffness", assembly.assemble_stiffness))),
        (analysis, "assembly", ModuleProxy(
            assembly,
            consistent_mass=w("assembly.norm_forms", assembly.consistent_mass),
            scalar_stiffness=w("assembly.norm_forms", assembly.scalar_stiffness))),
        (experiments, "analysis", ModuleProxy(
            analysis,
            discrete_energy=w("analysis.energy", analysis.discrete_energy),
            h_norm_sq=w("analysis.energy", analysis.h_norm_sq),
            **{name: w("analysis.error_norms", getattr(analysis, name))
               for name in ("h1_error_component", "l2_error_scalar",
                            "h1_error_field", "transfer_to_fine")})),
        (stepper, "aux_P", w("model.aux", stepper.aux_P)),
        (stepper, "aux_r", w("model.aux", stepper.aux_r)),
        (stepper, "StepOperator", w("solver.operator_build", stepper.StepOperator)),
        (stepper, "cg_solve", w("solver.cg", stepper.cg_solve, count_iters)),
        (solver.StepOperator, "matvec",
         w("solver.matvec", solver.StepOperator.matvec, count_bytes)),
    ]
    return hooks


@contextlib.contextmanager
def installed(hooks):
    """Bind every replacement for the duration of the block."""
    saved = [(ns, name, ns.__dict__[name]) for ns, name, _ in hooks]
    try:
        for ns, name, replacement in hooks:
            setattr(ns, name, replacement)
        yield
    finally:
        for ns, name, original in reversed(saved):
            setattr(ns, name, original)


def layer_metrics(tracer):
    """The per-layer metrics of one traced run, and the span counts."""
    counts, selfs = tracer.summary()

    def s(name):
        return selfs.get(name, 0.0)

    def c(name):
        return counts.get(name, 0)

    matvec_s = s("solver.matvec")
    metrics = {
        "mesh.build_s": s("mesh.build"),
        "mesh.injection_s": s("mesh.injection"),
        "assembly.stiffness_s": s("assembly.stiffness"),
        "assembly.div_form_s": s("assembly.div_form"),
        "assembly.norm_forms_s": s("assembly.norm_forms"),
        "assembly.calls": sum(n for name, n in counts.items()
                              if name.startswith("assembly.")),
        "model.aux_s": s("model.aux"),
        "model.calls": c("model.aux"),
        "solver.operator_build_s": s("solver.operator_build"),
        "solver.matvec_s": matvec_s,
        "solver.matvecs": c("solver.matvec"),
        "solver.cg_self_s": s("solver.cg"),
        "solver.cg_iters_per_step":
            tracer.counters.get("cg_iters", 0.0) / max(1, c("solver.cg")),
        "solver.matvec_gbps_computed":
            tracer.counters.get("matvec_bytes", 0.0) / matvec_s / 1e9
            if matvec_s > 0.0 else 0.0,
        "stepper.step_self_s": s("stepper.step"),
        "stepper.steps": c("stepper.step"),
        "stepper.init_s": s("stepper.init"),
        "analysis.energy_s": s("analysis.energy"),
        "analysis.error_norms_s": s("analysis.error_norms"),
        "experiments.self_s": s("experiments.study"),
        "cli.write_s": s(ROOT),
    }
    return metrics, counts, sum(selfs.values())
