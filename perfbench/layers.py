"""Which package functions the traced run wraps, and the per-layer
metrics derived from the spans they record.

A function is wrapped under every module attribute its callers use:
`run_sp` calls ``photosched.search.decode``, `experiments.run_grid`
calls ``photosched.experiments.solve_exact``, `_solve_model` calls
``photosched.exact.milp`` and so on.  Each benchmark operation is a root
span named "op"; the correctness gate runs under "gate" and input
set-up under "setup", and neither counts toward a layer's share of the
operations' time.
"""

from typing import Dict, List

from photosched import cli, core, decoder, evaluator, exact, experiments, instgen, search

from spans import Span, Target, self_times, under

OP, GATE, SETUP = "op", "gate", "setup"


def _ga(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"generations": len(result[2]), "pop_size": config.pop_size}


def _sp(args, kwargs, result):
    return {"iterations": len(result[2])}


def _milp(args, kwargs, result):
    c = kwargs.get("c", args[0] if args else None)
    return {
        "status": int(result.status),
        "nodes": int(getattr(result, "mip_node_count", 0) or 0),
        "gap": getattr(result, "mip_gap", None),
        "dual_bound": getattr(result, "mip_dual_bound", None),
        "rows": int(kwargs["constraints"].A.shape[0]),
        "cols": int(len(c)),
        "binaries": int(sum(kwargs["integrality"])),
    }


def _exact(args, kwargs, result):
    return {"status": result.status}


def _grid(args, kwargs, result):
    return {"records": len(result),
            "failed": sum(r.exact_status == experiments.FAILED for r in result)}


def targets() -> List[Target]:
    spec = [
        (cli, "dispatch", "cli.dispatch", None),
        (experiments, "run_grid", "experiments.run_grid", _grid),
        (cli, "run_sp", "search.run_sp", _sp),
        (experiments, "run_sp", "search.run_sp", _sp),
        (search, "run_ga", "search.run_ga", _ga),
        (experiments, "run_ga", "search.run_ga", _ga),
        (search, "decode", "decoder.decode", None),
        (decoder, "decode", "decoder.decode", None),
        (cli, "solve_exact", "exact.solve_exact", _exact),
        (experiments, "solve_exact", "exact.solve_exact", _exact),
        (exact, "milp", "exact.highs", _milp),
        (exact, "earliest_completion", "evaluator.earliest_completion", None),
        (exact, "export_milp", "exact.export_milp", None),
        (exact, "schedule_to_values", "exact.schedule_to_values", None),
        (exact, "check_values", "exact.check_values", None),
        (evaluator, "earliest_completion", "evaluator.earliest_completion", None),
        (evaluator, "check_feasibility", "evaluator.check_feasibility", None),
        (evaluator, "save_schedule", "evaluator.save_schedule", None),
        (evaluator, "load_schedule", "evaluator.load_schedule", None),
        (cli, "save_schedule", "evaluator.save_schedule", None),
        (cli, "metrics", "evaluator.metrics", None),
        (core, "save_instance", "core.save_instance", None),
        (core, "load_instance", "core.load_instance", None),
        (cli, "load_instance", "core.load_instance", None),
        (instgen, "generate_instance", "instgen.generate_instance", None),
        (experiments, "generate_instance", "instgen.generate_instance", None),
    ]
    return [Target(module, attr, name, describe) for module, attr, name, describe in spec]


# Per-layer shares: self time of these spans over the operations' time.
SHARES = {
    "cli.dispatch.share": ("cli.dispatch",),
    "experiments.run_grid.share": ("experiments.run_grid",),
    "search.run_sp.share": ("search.run_sp",),
    "search.run_ga.share": ("search.run_ga",),
    "decoder.decode.share": ("decoder.decode",),
    "exact.build.share": ("exact.solve_exact",),
    "exact.highs.share": ("exact.highs",),
    "exact.literal.share": ("exact.export_milp", "exact.schedule_to_values",
                            "exact.check_values"),
    "evaluator.check.share": ("evaluator.check_feasibility", "evaluator.earliest_completion",
                              "evaluator.metrics"),
    "evaluator.schedule_io.share": ("evaluator.save_schedule", "evaluator.load_schedule"),
    "core.instance_io.share": ("core.save_instance", "core.load_instance"),
    "instgen.generate_instance.share": ("instgen.generate_instance",),
    "untraced.share": (OP,),
}

# Functions every workload calls, so a per-call time always exists.
PER_CALL = ("decoder.decode", "evaluator.check_feasibility",
            "evaluator.earliest_completion", "instgen.generate_instance")

SECONDS = {
    "search.run_sp.self_s": ("search.run_sp",),
    "search.run_ga.self_s": ("search.run_ga",),
    "decoder.decode.self_s": ("decoder.decode",),
    "cli.dispatch.self_s": ("cli.dispatch",),
    "experiments.run_grid.self_s": ("experiments.run_grid",),
    "exact.build_s": ("exact.solve_exact",),
    "exact.highs.s": ("exact.highs",),
    "exact.retime.s": ("exact.retime",),
    "evaluator.schedule_io.s": ("evaluator.save_schedule", "evaluator.load_schedule"),
    "core.save_instance.s": ("core.save_instance",),
    "core.load_instance.s": ("core.load_instance",),
}


def per_layer(spans: List[Span]) -> Dict[str, tuple]:
    """Every per-layer metric: name -> (value, unit, note).

    Metrics listed in BENCHMARK.json are the ones defined on every
    workload; the rest (seconds and per-call times of layers a workload
    may not touch) are printed in the report only.
    """
    selfs = self_times(spans)
    in_op = under(spans, (OP,))
    names = [s.name for s in spans]
    # Re-timing a MILP solution is the exact layer's, not the evaluator's.
    for i, s in enumerate(spans):
        if s.name == "evaluator.earliest_completion" and s.parent is not None \
                and spans[s.parent].name == "exact.solve_exact":
            names[i] = "exact.retime"
    op_time = sum(s.duration for s in spans if s.name == OP)
    out: Dict[str, tuple] = {}

    def self_sum(wanted):
        return sum(t for t, name, ok in zip(selfs, names, in_op) if ok and name in wanted)

    for metric, wanted in SHARES.items():
        out[metric] = (self_sum(wanted) / op_time if op_time else 0.0, "frac", "")
    for metric, wanted in SECONDS.items():
        out[metric] = (self_sum(wanted), "s", "")

    def calls(name, anywhere=False):
        return [s for s, n, ok in zip(spans, names, in_op)
                if n == name and (ok or anywhere)]

    # Per-function figures count every call, the gate's and set-up's too;
    # the counters below count the operations' work only.
    for name in PER_CALL + ("exact.export_milp", "exact.check_values"):
        found = calls(name, anywhere=True)
        out[f"{name}.calls"] = (len(found), "count", "")
        if found:
            out[f"{name}.us_per_call"] = (
                1e6 * sum(s.duration for s in found) / len(found), "us", "")
        elif name in PER_CALL:
            raise ValueError(f"workload never called {name}")

    sp = calls("search.run_sp")
    ga = calls("search.run_ga")
    out["search.sp.iterations"] = (sum(s.attrs["iterations"] for s in sp), "count", "")
    out["search.ga.generations"] = (sum(s.attrs["generations"] for s in ga), "count", "")
    evaluations = sum(s.attrs["pop_size"] * (s.attrs["generations"] + 1) for s in ga)
    ga_index = {i for i, (s, ok) in enumerate(zip(spans, in_op))
                if ok and s.name == "search.run_ga"}
    # run_ga decodes each new permutation once, plus its best one at the end.
    decodes = sum(1 for s in spans if s.name == "decoder.decode" and s.parent in ga_index)
    out["search.ga.evaluations"] = (evaluations, "count", "")
    out["search.ga.decodes"] = (decodes, "count", "")
    out["search.ga.cache_hit_ratio"] = (
        1 - (decodes - len(ga)) / evaluations if evaluations else 0.0, "ratio",
        f"{evaluations - decodes + len(ga)} repeats of {evaluations} evaluations")

    solves = calls("exact.solve_exact")
    solve_index = {i for i, (s, ok) in enumerate(zip(spans, in_op))
                   if ok and s.name == "exact.solve_exact"}
    highs = calls("exact.highs")
    highs_s = sum(s.duration for s in highs)
    nodes = sum(s.attrs["nodes"] for s in highs)
    per_solve: Dict[int, int] = {}
    for s in highs:
        if s.parent in solve_index:
            per_solve[s.parent] = per_solve.get(s.parent, 0) + 1
    out["exact.highs.calls"] = (len(highs), "count", "")
    out["exact.highs.nodes"] = (nodes, "count", "")
    out["exact.highs.nodes_per_s"] = (nodes / highs_s if highs_s else 0.0, "1/s", "")
    out["exact.resolve_frac"] = (
        sum(1 for c in per_solve.values() if c > 1) / len(solves) if solves else 0.0,
        "frac", f"of {len(solves)} solve_exact calls")
    out["exact.timeout_frac"] = (
        sum(1 for s in solves if s.attrs["status"] == exact.TIMED_OUT) / len(solves)
        if solves else 0.0, "frac", "")
    for dim in ("rows", "cols", "binaries"):
        out[f"exact.model.{dim}"] = (
            sum(s.attrs[dim] for s in highs) / len(highs) if highs else 0.0, "count",
            "mean per HiGHS call")

    grids = calls("experiments.run_grid")
    out["experiments.records"] = (sum(s.attrs["records"] for s in grids), "count", "")
    out["experiments.failed"] = (sum(s.attrs["failed"] for s in grids), "count", "")
    out["trace.spans"] = (len(spans), "count", "")
    return out
