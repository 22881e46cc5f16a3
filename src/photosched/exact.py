"""Optimal solving and textual model export.

`export_milp` materializes the disjunctive big-M formulation literally:
shared precedence binaries per job pair, assignment binaries per eligible
(stage, machine) pair, completion variables per (stage, job).

`solve_exact` optimizes a tighter internal variant of the same model in
which precedence binaries are indexed per machine reservation pair, so
that different resources may order the same two jobs differently.  It is
solved with the HiGHS branch-and-bound backend behind scipy.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .core import (
    CLUSTER_BARS,
    CLUSTER_ENTRY,
    STAGES,
    TOOL_STAGES,
    Instance,
    Objective,
    big_m,
    eligible_machines,
    park_routes,
)
from .evaluator import Schedule, Visit, earliest_completion, objective_value

OPTIMAL = "optimal"
TIMED_OUT = "timeout"
INFEASIBLE = "infeasible"


class SolverError(RuntimeError):
    """HiGHS ended without an optimum, a time limit or an infeasibility proof."""


@dataclass(frozen=True)
class LinearRow:
    name: str
    coeffs: Tuple[Tuple[str, float], ...]
    sense: str  # "<=", ">=", "="
    rhs: float

    def evaluate(self, values: Dict[str, float]) -> float:
        return sum(c * values[v] for v, c in self.coeffs)

    def satisfied(self, values: Dict[str, float], tol: float = 1e-6) -> bool:
        lhs = self.evaluate(values)
        scale = 1.0 + abs(self.rhs)
        if self.sense == "<=":
            return lhs <= self.rhs + tol * scale
        if self.sense == ">=":
            return lhs >= self.rhs - tol * scale
        return abs(lhs - self.rhs) <= tol * scale


@dataclass
class MilpModel:
    name: str
    kind: Objective
    continuous: List[str] = field(default_factory=list)
    binary: List[str] = field(default_factory=list)
    objective: Dict[str, float] = field(default_factory=dict)
    constraints: List[LinearRow] = field(default_factory=list)
    big_m: int = 0

    @property
    def counts(self) -> Tuple[int, int, int, int]:
        """(constraints, continuous vars, binary vars, total vars)."""
        nc = len(self.continuous)
        nb = len(self.binary)
        return (len(self.constraints), nc, nb, nc + nb)

    def add(self, name: str, coeffs: Dict[str, float], sense: str, rhs: float) -> None:
        self.constraints.append(
            LinearRow(name, tuple(sorted(coeffs.items())), sense, float(rhs))
        )


@dataclass
class ExactResult:
    schedule: Optional[Schedule]
    value: Optional[int]
    status: str


def _cvar(stage: int, job_id: str) -> str:
    return f"C_{stage}_{job_id}"


def _xvar(stage: int, machine_id: str, job_id: str) -> str:
    return f"x_{stage}_{machine_id}_{job_id}"


def _yvar(k: str, l: str) -> str:
    return f"y_{k}_{l}"


# ---------------------------------------------------------------------------
# Literal formulation (shared precedence binaries), used for export

def export_milp(instance: Instance, kind: Objective) -> MilpModel:
    """Build the big-M formulation as a literal linear model."""
    M = big_m(instance)
    model = MilpModel(name=instance.label or "photolith", kind=kind, big_m=M)
    jobs = list(instance.jobs)
    last = STAGES[-1]

    for job in jobs:
        for s in STAGES:
            model.continuous.append(_cvar(s, job.id))
    model.continuous.append("CMAX")
    if kind == Objective.TWT:
        for job in jobs:
            model.continuous.append(f"T_{job.id}")

    stage_machines = {s: eligible_machines(instance, s) for s in STAGES}
    for s in STAGES:
        for m in stage_machines[s]:
            for job in jobs:
                model.binary.append(_xvar(s, m.id, job.id))
    pairs = [(a.id, b.id) for i, a in enumerate(jobs) for b in jobs[i + 1:]]
    for k, l in pairs:
        model.binary.append(_yvar(k, l))

    if kind == Objective.CMAX:
        model.objective = {"CMAX": 1.0}
    elif kind == Objective.WCT:
        model.objective = {_cvar(last, j.id): float(j.weight) for j in jobs}
    else:
        model.objective = {f"T_{j.id}": float(j.weight) for j in jobs}

    for job in jobs:
        model.add(f"ready_{job.id}", {_cvar(1, job.id): 1}, ">=",
                  job.duration(1) + job.ready)
        for s in STAGES[1:]:
            model.add(f"chain_{s}_{job.id}",
                      {_cvar(s, job.id): 1, _cvar(s - 1, job.id): -1},
                      ">=", job.duration(s))

    # Machine exclusivity at every stage on every eligible machine.
    for s in STAGES:
        for m in stage_machines[s]:
            for k, l in pairs:
                pk = instance.job(k).duration(s)
                pl = instance.job(l).duration(s)
                xk = _xvar(s, m.id, k)
                xl = _xvar(s, m.id, l)
                y = _yvar(k, l)
                model.add(f"no_clash_a_{s}_{m.id}_{k}_{l}",
                          {_cvar(s, k): 1, _cvar(s, l): -1, y: M, xk: -M, xl: -M},
                          ">=", pk - 2 * M)
                model.add(f"no_clash_b_{s}_{m.id}_{k}_{l}",
                          {_cvar(s, l): 1, _cvar(s, k): -1, y: -M, xk: -M, xl: -M},
                          ">=", pl - 3 * M)

    if kind == Objective.CMAX:
        for job in jobs:
            model.add(f"cmax_link_{job.id}",
                      {"CMAX": 1, _cvar(last, job.id): -1}, ">=", 0)
    elif kind == Objective.TWT:
        for job in jobs:
            model.add(f"tardy_{job.id}",
                      {f"T_{job.id}": 1, _cvar(last, job.id): -1}, ">=", -job.due)

    for s in STAGES:
        for job in jobs:
            coeffs = {_xvar(s, m.id, job.id): 1.0 for m in stage_machines[s]}
            if not coeffs:
                continue
            tag = "on" if job.needs(s) else "off"
            model.add(f"assign_{tag}_{s}_{job.id}", coeffs, "=",
                      1 if job.needs(s) else 0)

    # Cluster-stay equalities and the whole-span busy pairs, widest span first.
    clusters = sorted(CLUSTER_ENTRY, key=lambda cls: -len(TOOL_STAGES[cls]))
    for cls in clusters:
        covered = TOOL_STAGES[cls]
        entry, linked, exit_stage = covered[0], covered[1:], covered[-1]
        for m in instance.machines_of_class(cls):
            for job in jobs:
                coeffs = {_xvar(s, m.id, job.id): 1.0 for s in linked}
                coeffs[_xvar(entry, m.id, job.id)] = -float(len(linked))
                model.add(f"stay_{cls.lower()}_{m.id}_{job.id}", coeffs, "=", 0)
            for k, l in pairs:
                pk = instance.job(k).duration(entry)
                pl = instance.job(l).duration(entry)
                xk = _xvar(entry, m.id, k)
                xl = _xvar(entry, m.id, l)
                y = _yvar(k, l)
                model.add(f"busy_{cls.lower()}_a_{m.id}_{k}_{l}",
                          {_cvar(entry, k): 1, _cvar(exit_stage, l): -1,
                           y: M, xk: -M, xl: -M},
                          ">=", pk - 2 * M)
                model.add(f"busy_{cls.lower()}_b_{m.id}_{k}_{l}",
                          {_cvar(entry, l): 1, _cvar(exit_stage, k): -1,
                           y: -M, xk: -M, xl: -M},
                          ">=", pl - 3 * M)

    # A job needing a stage that bars a cluster (the pre-develop bake) may
    # not enter it.
    for bar in sorted({s for bars in CLUSTER_BARS.values() for s in bars}):
        barred = [mc for cls in clusters if bar in CLUSTER_BARS[cls]
                  for mc in instance.machines_of_class(cls)]
        for oven in stage_machines[bar]:
            for mc in barred:
                for job in jobs:
                    model.add(f"bake_route_{oven.id}_{mc.id}_{job.id}",
                              {_xvar(bar, oven.id, job.id): 1,
                               _xvar(CLUSTER_ENTRY[mc.tool_class], mc.id, job.id): 1},
                              "<=", 1)

    # Oven reentry: stage-4 and stage-6 visits share one timeline.
    for oven in instance.machines_of_class("B"):
        for k, l in pairs:
            jk, jl = instance.job(k), instance.job(l)
            y = _yvar(k, l)
            x4k, x6k = _xvar(4, oven.id, k), _xvar(6, oven.id, k)
            x4l, x6l = _xvar(4, oven.id, l), _xvar(6, oven.id, l)
            model.add(f"reentry_a_{oven.id}_{k}_{l}",
                      {_cvar(4, k): 1, _cvar(6, l): -1, y: M, x4k: -M, x6l: -M},
                      ">=", jk.duration(4) - 2 * M)
            model.add(f"reentry_b_{oven.id}_{k}_{l}",
                      {_cvar(6, l): 1, _cvar(4, k): -1, y: -M, x4k: -M, x6l: -M},
                      ">=", jl.duration(6) - 3 * M)
            model.add(f"reentry_c_{oven.id}_{k}_{l}",
                      {_cvar(6, k): 1, _cvar(4, l): -1, y: M, x6k: -M, x4l: -M},
                      ">=", jk.duration(6) - 2 * M)
            model.add(f"reentry_d_{oven.id}_{k}_{l}",
                      {_cvar(4, l): 1, _cvar(6, k): -1, y: -M, x6k: -M, x4l: -M},
                      ">=", jl.duration(4) - 3 * M)
    return model


def write_lp(model: MilpModel) -> str:
    """Render the model in LP file format."""
    lines = [f"\\ {model.name} ({model.kind.value})", "Minimize"]
    lines.append(" obj: " + _lp_terms(sorted(model.objective.items())))
    lines.append("Subject To")
    for row in model.constraints:
        op = {"<=": "<=", ">=": ">=", "=": "="}[row.sense]
        lines.append(f" {row.name}: {_lp_terms(row.coeffs)} {op} {_num(row.rhs)}")
    lines.append("Bounds")
    for v in model.continuous:
        lines.append(f" 0 <= {v}")
    lines.append("Binaries")
    for v in model.binary:
        lines.append(f" {v}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(x)


def _lp_terms(coeffs) -> str:
    parts = []
    for var, c in coeffs:
        if c >= 0:
            parts.append(f"+ {_num(c)} {var}")
        else:
            parts.append(f"- {_num(-c)} {var}")
    if not parts:
        return "0"
    first = parts[0]
    if first.startswith("+ "):
        first = first[2:]
    return " ".join([first] + parts[1:])


# ---------------------------------------------------------------------------
# Mapping schedules onto model variable values

def schedule_to_values(instance: Instance, schedule: Schedule,
                       model: MilpModel) -> Dict[str, float]:
    """Variable assignment induced by a feasible schedule.

    Raises ValueError when no single precedence orientation per job pair
    is consistent with every shared machine.
    """
    values = {v: 0.0 for v in model.continuous}
    values.update({v: 0.0 for v in model.binary})

    for job in instance.jobs:
        for s in STAGES:
            values[_cvar(s, job.id)] = float(
                schedule.completion_through(instance, job.id, s))
    cmax = max(schedule.last_completion(instance, j.id) for j in instance.jobs)
    values["CMAX"] = float(cmax)
    if model.kind == Objective.TWT:
        for job in instance.jobs:
            c = schedule.last_completion(instance, job.id)
            values[f"T_{job.id}"] = float(max(0, c - job.due))

    for (job_id, s), mid in schedule.assign.items():
        name = _xvar(s, mid, job_id)
        if name not in values:
            raise ValueError(f"assignment variable {name} absent from the model")
        values[name] = 1.0

    for (k, l), before in _pair_orders(instance, schedule).items():
        name = _yvar(k, l)
        if name in values:
            values[name] = 1.0 if before else 0.0
    return values


def _pair_orders(instance: Instance, schedule: Schedule) -> Dict[Tuple[str, str], bool]:
    """Per job pair (k < l): does k finish before l on every shared machine?

    Raises ValueError on machines whose reservations interleave the pair
    in both directions.
    """
    from .evaluator import _occupations  # shared grouping logic

    orders: Dict[Tuple[str, str], bool] = {}
    for mid, occs in _occupations(instance, schedule.assign).items():
        spans = [
            (schedule.start(instance, o.job_id, o.entry),
             schedule.completion[(o.job_id, o.exit)],
             o.job_id)
            for o in occs
        ]
        for i, (s0, c0, k) in enumerate(spans):
            for s1, c1, l in spans[i + 1:]:
                if k == l:
                    continue
                a, b = (k, l) if k < l else (l, k)
                first = (s0, k) <= (s1, l)
                before = first if (a, b) == (k, l) else not first
                if orders.setdefault((a, b), before) != before:
                    raise ValueError(
                        f"jobs {a} and {b} are ordered differently on different machines")
    return orders


def check_values(model: MilpModel, values: Dict[str, float],
                 tol: float = 1e-6) -> List[str]:
    """Names of constraints the variable assignment violates."""
    return [row.name for row in model.constraints if not row.satisfied(values, tol)]


# ---------------------------------------------------------------------------
# Internal model with per-reservation precedence binaries

def _disjunctive_model(instance: Instance, kind: Objective,
                       shared_precedence: bool) -> MilpModel:
    M = big_m(instance)
    model = MilpModel(name=instance.label or "photolith", kind=kind, big_m=M)
    jobs = list(instance.jobs)

    for job in jobs:
        for s in job.stages:
            model.continuous.append(_cvar(s, job.id))
    if kind == Objective.CMAX:
        model.continuous.append("CMAX")
        model.objective = {"CMAX": 1.0}
    elif kind == Objective.WCT:
        model.objective = {_cvar(job.stages[-1], job.id): float(job.weight)
                           for job in jobs}
    else:
        for job in jobs:
            model.continuous.append(f"T_{job.id}")
        model.objective = {f"T_{job.id}": float(job.weight) for job in jobs}

    # Assignment variables; cluster machines get one committing variable at
    # their entry stage, with the covered stages tied to it.
    x_options: Dict[Visit, List[str]] = {}
    occupations: Dict[str, List[Tuple[str, int, int, str]]] = {}
    # machine -> list of (job, entry stage, exit stage, controlling x var)
    for job in jobs:
        for s in job.stages:
            x_options[(job.id, s)] = []
    families = {job.id: {r.family for r in park_routes(instance, job)}
                for job in jobs}
    for machine in instance.machines:
        occupations[machine.id] = []
        for job in jobs:
            if machine.is_cluster:
                if machine.tool_class not in families[job.id]:
                    continue
                covered = machine.covered_stages
                xname = _xvar(covered[0], machine.id, job.id)
                model.binary.append(xname)
                for s in covered:
                    x_options[(job.id, s)].append(xname)
                occupations[machine.id].append((job.id, covered[0], covered[-1], xname))
            else:
                for s in machine.covered_stages:
                    if not job.needs(s):
                        continue
                    xname = _xvar(s, machine.id, job.id)
                    model.binary.append(xname)
                    x_options[(job.id, s)].append(xname)
                    occupations[machine.id].append((job.id, s, s, xname))

    for (job_id, s), options in x_options.items():
        if not options:
            raise ValueError(f"no machine available for job {job_id} stage {s}")
        model.add(f"assign_{s}_{job_id}", {x: 1.0 for x in options}, "=", 1)

    for job in jobs:
        prev = None
        for s in job.stages:
            if prev is None:
                model.add(f"release_{job.id}", {_cvar(s, job.id): 1}, ">=",
                          job.duration(s) + job.ready)
            else:
                model.add(f"chain_{s}_{job.id}",
                          {_cvar(s, job.id): 1, _cvar(prev, job.id): -1},
                          ">=", job.duration(s))
            prev = s
        last = job.stages[-1]
        if kind == Objective.CMAX:
            model.add(f"cmax_link_{job.id}",
                      {"CMAX": 1, _cvar(last, job.id): -1}, ">=", 0)
        elif kind == Objective.TWT:
            model.add(f"tardy_{job.id}",
                      {f"T_{job.id}": 1, _cvar(last, job.id): -1}, ">=", -job.due)

    shared_y: Dict[Tuple[str, str], str] = {}

    def precedence_var(k: str, l: str, tag: str) -> str:
        if shared_precedence:
            a, b = (k, l) if k < l else (l, k)
            if (a, b) not in shared_y:
                name = _yvar(a, b)
                shared_y[(a, b)] = name
                model.binary.append(name)
            return shared_y[(a, b)]
        model.binary.append(tag)
        return tag

    for mid, occs in occupations.items():
        for i, (k, ek, fk, xk) in enumerate(occs):
            for l, el, fl, xl in occs[i + 1:]:
                if k == l:
                    continue
                if k < l or not shared_precedence:
                    front, back = (k, ek, fk, xk), (l, el, fl, xl)
                else:
                    front, back = (l, el, fl, xl), (k, ek, fk, xk)
                a, ea, fa, xa = front
                b, eb, fb, xb = back
                z = precedence_var(a, b, f"z_{mid}_{a}_{fa}_{b}_{fb}")
                pa = instance.job(a).duration(ea)
                pb = instance.job(b).duration(eb)
                # z = 1: a's reservation precedes b's.
                model.add(f"order_a_{mid}_{a}_{fa}_{b}_{fb}",
                          {_cvar(eb, b): 1, _cvar(fa, a): -1,
                           z: -M, xa: -M, xb: -M},
                          ">=", pb - 3 * M)
                model.add(f"order_b_{mid}_{a}_{fa}_{b}_{fb}",
                          {_cvar(ea, a): 1, _cvar(fb, b): -1,
                           z: M, xa: -M, xb: -M},
                          ">=", pa - 2 * M)
    return model


def _solve_model(model: MilpModel, time_limit: Optional[float]):
    names = model.continuous + model.binary
    index = {v: i for i, v in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for v, coeff in model.objective.items():
        c[index[v]] = coeff

    rows, cols, data, lb, ub = [], [], [], [], []
    for i, row in enumerate(model.constraints):
        for v, coeff in row.coeffs:
            rows.append(i)
            cols.append(index[v])
            data.append(coeff)
        if row.sense == ">=":
            lb.append(row.rhs)
            ub.append(np.inf)
        elif row.sense == "<=":
            lb.append(-np.inf)
            ub.append(row.rhs)
        else:
            lb.append(row.rhs)
            ub.append(row.rhs)
    A = sparse.csr_matrix((data, (rows, cols)),
                          shape=(len(model.constraints), n))
    integrality = np.zeros(n)
    upper = np.full(n, np.inf)
    for v in model.binary:
        integrality[index[v]] = 1
        upper[index[v]] = 1
    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = milp(c=c, constraints=LinearConstraint(A, lb, ub),
               integrality=integrality, bounds=Bounds(np.zeros(n), upper),
               options=options)
    if res.status not in (0, 1, 2):
        raise SolverError(f"HiGHS status {res.status}: {res.message}")
    values = None
    if res.x is not None:
        values = {v: float(res.x[index[v]]) for v in names}
    return res.status, values


def _schedule_from_values(instance: Instance,
                          values: Dict[str, float]) -> Schedule:
    assign: Dict[Visit, str] = {}
    starts: Dict[Visit, float] = {}
    for name, val in values.items():
        if not name.startswith("x_") or val < 0.5:
            continue
        _, s, mid, job_id = name.split("_", 3)
        stage = int(s)
        job = instance.job(job_id)
        machine = instance.machine(mid)
        stages = ([c for c in machine.covered_stages if job.needs(c)]
                  if machine.is_cluster else [stage])
        for cov in stages:
            assign[(job_id, cov)] = mid
            starts[(job_id, cov)] = (values[_cvar(cov, job_id)]
                                     - job.duration(cov))
    sequences: Dict[str, List[Visit]] = {}
    for (job_id, stage), mid in assign.items():
        sequences.setdefault(mid, []).append((job_id, stage))
    for mid in sequences:
        sequences[mid].sort(key=lambda v: (starts[v], v[1]))
    return earliest_completion(instance, assign, sequences)


def solve_exact(instance: Instance, kind: Objective,
                time_limit: Optional[float] = None) -> ExactResult:
    """Minimize the objective exactly (or best incumbent on timeout).

    The status is OPTIMAL, TIMED_OUT (with the incumbent, if any) or
    INFEASIBLE (no schedule); any other HiGHS outcome raises SolverError.

    The per-reservation precedence model is solved first; when its optimum
    admits a schedule whose pairwise job orders disagree across machines,
    a shared-precedence solve is attempted to recover an equally good,
    order-consistent schedule.
    """
    model = _disjunctive_model(instance, kind, shared_precedence=False)
    status, values = _solve_model(model, time_limit)
    if status == 0:
        schedule = _schedule_from_values(instance, values)
        value = objective_value(instance, schedule, kind)
        try:
            _pair_orders(instance, schedule)
        except ValueError:
            consistent = _solve_consistent(instance, kind, time_limit, value)
            if consistent is not None:
                schedule = consistent
        return ExactResult(schedule=schedule, value=value, status=OPTIMAL)
    if status == 2:
        return ExactResult(schedule=None, value=None, status=INFEASIBLE)
    if values is not None:
        schedule = _schedule_from_values(instance, values)
        value = objective_value(instance, schedule, kind)
        return ExactResult(schedule=schedule, value=value, status=TIMED_OUT)
    return ExactResult(schedule=None, value=None, status=TIMED_OUT)


def _solve_consistent(instance: Instance, kind: Objective,
                      time_limit: Optional[float],
                      target: int) -> Optional[Schedule]:
    model = _disjunctive_model(instance, kind, shared_precedence=True)
    try:
        status, values = _solve_model(model, time_limit)
    except SolverError:  # the first solve's optimum stands
        return None
    if status != 0 or values is None:
        return None
    schedule = _schedule_from_values(instance, values)
    if objective_value(instance, schedule, kind) == target:
        return schedule
    return None
