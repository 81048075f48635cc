"""Which multibump calls are traced, and the per-layer metrics they give.

The layer names are the package's module names.  Every ``*_s`` metric
is the self time of the layer's spans (their duration minus the time
their child spans cover), so those layer times partition the traced
pass, except four inclusive ones: ``driver.curve_s``,
``driver.polish_s``, ``driver.f_refused_s`` (whole refused F
evaluations) and ``cli.stage_s.<stage>``.  Counts are read from
the arguments and results of the wrapped calls.  The names, units and
order of the reported metrics are those of ``per_layer`` in
BENCHMARK.json.
"""

import os
from collections import defaultdict

from spans import self_times

STAGES = ("ground-state", "constants", "interaction", "expansion",
          "reduce", "study", "certify", "report")


class _TracedFactor:
    """A SuperLU factor whose ``solve`` is traced; other attributes pass through."""

    def __init__(self, factor, solve):
        self._factor = factor
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._factor, name)


def install(tracer):
    """Wrap the multibump functions named in the layer list, where called."""
    import multibump
    from multibump import cli, driver, reduction

    def result_attr(key, field):
        def after(attrs, args, kwargs, result):
            attrs[key] = getattr(result, field)
        return after

    def stiffness_cells(attrs, args, kwargs):
        attrs["cells"] = args[0].n_cells
        return args, kwargs

    def traced_factor(attrs, args, kwargs, factor):
        attrs["nnz"] = factor.nnz
        return _TracedFactor(factor, tracer.wrap("reduction.trisolve", factor.solve))

    def counted_steps(attrs, args, kwargs):
        apply_a = args[0]
        attrs["steps"] = 0

        def counted(v):
            attrs["steps"] += 1
            return apply_a(v)
        return (counted,) + tuple(args[1:]), kwargs

    def failed_count(attrs, args, kwargs, curve):
        attrs["failed"] = len(curve.failed_radii)

    def study_jobs(attrs, args, kwargs):
        attrs["jobs"] = kwargs.get("jobs", 1)
        return args, kwargs

    def stage_bytes(attrs, args, kwargs, artifacts):
        name, _cfg, out_dir = args[:3]
        attrs["stage"] = name
        attrs["bytes"] = sum(os.path.getsize(os.path.join(out_dir, a)) for a in artifacts)

    sites = [
        ("solve_ground_state", "groundstate.solve", (cli, driver, multibump), None, None),
        ("interaction_integral", "interactions.integral", (cli, driver), None, None),
        ("fit_interaction_law", "interactions.fit", (cli, driver), None, None),
        ("expansion_comparison", "interactions.expansion", (cli,), None, None),
        ("stiffness_matrix", "grid.stiffness", (reduction, driver), stiffness_cells, None),
        ("build_reduction_context", "reduction.context", (driver, multibump), None, None),
        ("splu", "reduction.factor", (reduction, driver), None, traced_factor),
        ("solve_correction", "reduction.correction", (driver,), None,
         result_attr("iters", "iterations")),
        ("coercivity_probe", "reduction.probe", (driver, multibump), None, None),
        ("minres", "solvers.minres", (reduction, driver), None,
         result_attr("iters", "iterations")),
        ("lanczos_smallest", "solvers.lanczos", (reduction,), counted_steps, None),
        ("reduced_energy", "driver.f_eval", (driver, multibump), None,
         result_attr("method", "method")),
        ("maximize_reduced_energy", "driver.curve", (driver, cli, multibump), None,
         failed_count),
        ("polish_and_certify", "driver.polish", (cli, multibump), None,
         result_attr("steps", "steps")),
        ("scaling_study", "driver.study", (cli, multibump), study_jobs, None),
        # The pool task itself: its spans run in the workers and give the
        # busy time of the pool.
        ("_study_row_remote", "driver.study_row", (driver,), None, None),
        ("run_stage", "cli.stage", (cli,), None, stage_bytes),
    ]
    for attr, name, modules, before, after in sites:
        for module in modules:
            tracer.patch(module, attr, name, before, after)


def layer_metrics(spans, wall):
    """Per-layer metrics of one traced pass that took ``wall`` seconds."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name):
        return len(by_name[name])

    def self_s(*names):
        return sum(own[s.sid] for name in names for s in by_name[name])

    def total_s(name):
        return sum(s.end - s.start for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def attr_mean(name, key):
        vals = [s.attrs[key] for s in by_name[name] if key in s.attrs]
        return sum(vals) / len(vals) if vals else 0.0

    def refused(name):
        return sum(1 for s in by_name[name] if "error" in s.attrs)

    f_evals = calls("driver.f_eval")
    f_refused = refused("driver.f_eval")
    f_eval_ids = {s.sid for s in by_name["driver.f_eval"]}
    rescued_evals = {
        s.parent for s in by_name["reduction.correction"]
        if "error" in s.attrs and s.parent in f_eval_ids
    }

    window = 0.0
    for study in by_name["driver.study"]:
        jobs = study.attrs.get("jobs", 1)
        if jobs > 1:
            window += jobs * (study.end - study.start)
    busy = sum(s.end - s.start for s in by_name["driver.study_row"])

    stage_s = {stage: 0.0 for stage in STAGES}
    for s in by_name["cli.stage"]:
        stage_s[s.attrs.get("stage", s.name)] += s.end - s.start

    values = {
        "groundstate.calls": calls("groundstate.solve"),
        "groundstate.s": self_s("groundstate.solve"),
        "interactions.integral_calls": calls("interactions.integral"),
        "interactions.s": self_s("interactions.integral", "interactions.fit",
                                 "interactions.expansion"),
        "grid.stiffness_calls": calls("grid.stiffness"),
        "grid.stiffness_s": self_s("grid.stiffness"),
        "grid.cells_mean": attr_mean("grid.stiffness", "cells"),
        "reduction.contexts": calls("reduction.context"),
        "reduction.context_s": self_s("reduction.context"),
        "reduction.factorizations": calls("reduction.factor"),
        "reduction.factor_s": self_s("reduction.factor"),
        "reduction.lu_nnz_mean": attr_mean("reduction.factor", "nnz"),
        "reduction.trisolves": calls("reduction.trisolve"),
        "reduction.trisolve_s": self_s("reduction.trisolve"),
        "reduction.corrections": calls("reduction.correction"),
        "reduction.correction_s": self_s("reduction.correction"),
        "reduction.correction_refused": refused("reduction.correction"),
        "reduction.correction_outer_iters": attr_sum("reduction.correction", "iters"),
        "reduction.probes": calls("reduction.probe"),
        "reduction.probe_s": self_s("reduction.probe"),
        "solvers.minres_calls": calls("solvers.minres"),
        "solvers.minres_iters": attr_sum("solvers.minres", "iters"),
        "solvers.minres_s": self_s("solvers.minres"),
        "solvers.lanczos_steps": attr_sum("solvers.lanczos", "steps"),
        "solvers.lanczos_s": self_s("solvers.lanczos"),
        "driver.f_evals": f_evals,
        "driver.f_evals_refused": f_refused,
        "driver.f_useful_ratio": (f_evals - f_refused) / f_evals if f_evals else 0.0,
        "driver.f_refused_s": sum(s.end - s.start for s in by_name["driver.f_eval"]
                                  if "error" in s.attrs),
        "driver.newton_rescues": len(rescued_evals),
        "driver.curves": calls("driver.curve"),
        "driver.curve_s": total_s("driver.curve"),
        "driver.curve_failed_radii": attr_sum("driver.curve", "failed"),
        "driver.polish_calls": calls("driver.polish"),
        "driver.polish_s": total_s("driver.polish"),
        "driver.polish_steps": attr_sum("driver.polish", "steps"),
        "driver.pool_busy_s": busy,
        "driver.pool_idle_s": window - busy if window else 0.0,
        "driver.parallel_efficiency": busy / window if window else 0.0,
    }
    for stage in STAGES:
        values[f"cli.stage_s.{stage}"] = stage_s[stage]
    values["cli.artifact_bytes"] = attr_sum("cli.stage", "bytes")
    values["trace.wall_s"] = wall
    values["trace.spans"] = len(spans)
    return values
