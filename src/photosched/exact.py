"""Optimal solving and textual model export.

`export_milp` materializes the disjunctive big-M formulation literally:
shared precedence binaries per job pair, assignment binaries per eligible
(stage, machine) pair, completion variables per (stage, job).

`solve_exact` optimizes a relaxation of that model in which precedence
binaries are indexed per machine reservation pair, so that different
resources may order the same two jobs differently (passing); only the
relaxation's optima equal exhaustive enumeration.  When its optimum
passes, the literal model is solved once more for an order-consistent
schedule of equal value.  Both are solved with the HiGHS
branch-and-bound backend behind scipy.

Before any model is built, `solve_exact` decodes SP's initial order; when
that schedule meets the per-job lower bound (every job done at its ready
time plus its total processing time), it is optimal and is returned
without a HiGHS call.
"""

import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .core import (
    CLUSTER_BARS,
    CLUSTER_ENTRY,
    STAGES,
    TOOL_STAGES,
    Instance,
    Job,
    Objective,
    big_m,
    eligible_machines,
    park_routes,
)
from .decoder import decoder_for
from .evaluator import (
    Schedule,
    Visit,
    _occupations,
    earliest_completion,
    metrics,
    objective_value,
)
from .search import sp_initial_order

OPTIMAL = "optimal"
TIMED_OUT = "timeout"
INFEASIBLE = "infeasible"

CHECK_TOL = 1e-6  # relative slack `check_values` allows each row


class SolverError(RuntimeError):
    """HiGHS ended without an optimum, a time limit or an infeasibility proof."""


class LinearRow(NamedTuple):
    name: str
    coeffs: Tuple[Tuple[str, float], ...]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass
class MilpModel:
    """A linear model whose rows are kept in compressed sparse row form.

    Row i is named `row_names[i]`; its terms are `term_vars` and
    `term_coefs` from `indptr[i]` up to `indptr[i + 1]`, in the order `add`
    was given them, and it bounds their sum between `row_lower[i]` and
    `row_upper[i]` (one of them infinite unless the row is an equality).
    """

    name: str
    kind: Objective
    continuous: List[str] = field(default_factory=list)
    binary: List[str] = field(default_factory=list)
    objective: Dict[str, float] = field(default_factory=dict)
    big_m: int = 0
    row_names: List[str] = field(default_factory=list)
    indptr: array = field(default_factory=lambda: array("q", [0]))
    term_vars: List[str] = field(default_factory=list)
    term_coefs: array = field(default_factory=lambda: array("d"))
    row_lower: array = field(default_factory=lambda: array("d"))
    row_upper: array = field(default_factory=lambda: array("d"))

    @property
    def counts(self) -> Tuple[int, int, int, int]:
        """(constraints, continuous vars, binary vars, total vars)."""
        nc = len(self.continuous)
        nb = len(self.binary)
        return (len(self.row_names), nc, nb, nc + nb)

    def add(self, name: str, coeffs: Dict[str, float], sense: str, rhs: float) -> None:
        rhs = float(rhs)
        self.row_names.append(name)
        self.term_vars.extend(coeffs)
        self.term_coefs.extend(coeffs.values())
        self.indptr.append(len(self.term_vars))
        self.row_lower.append(-np.inf if sense == "<=" else rhs)
        self.row_upper.append(np.inf if sense == ">=" else rhs)

    @property
    def constraints(self) -> Tuple[LinearRow, ...]:
        """The rows as `LinearRow`s with their terms sorted by variable name."""
        rows = []
        terms = list(zip(self.term_vars, self.term_coefs))
        for name, start, end, lo, up in zip(self.row_names, self.indptr,
                                            self.indptr[1:], self.row_lower,
                                            self.row_upper):
            coeffs = tuple(sorted(terms[start:end]))
            sense = "=" if lo == up else (">=" if up == np.inf else "<=")
            rows.append(LinearRow(name, coeffs, sense, up if lo == -np.inf else lo))
        return tuple(rows)


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


# A job's reservation of one machine from its entry to its exit stage:
# (completion var at entry, completion var at exit, assignment var,
#  processing time at entry).
Reservation = Tuple[str, str, str, int]


def _reservation(job: Job, entry: int, exit_stage: int, x: str) -> Reservation:
    return (_cvar(entry, job.id), _cvar(exit_stage, job.id), x, job.duration(entry))


def _either_order(M: int, y: str, first: Reservation, second: Reservation):
    """The big-M pair keeping two reservations of one machine apart.

    Returns two (coefficients, sense, rhs) rows, both slack unless both
    assignment variables are 1.  The first makes `first` start after
    `second` ends when y = 0; the second makes `second` start after
    `first` ends when y = 1.
    """
    (ck, dk, xk, pk), (cl, dl, xl, pl) = first, second
    return (({ck: 1, dl: -1, y: M, xk: -M, xl: -M}, ">=", pk - 2 * M),
            ({cl: 1, dk: -1, y: -M, xk: -M, xl: -M}, ">=", pl - 3 * M))


def _add_chain(model: MilpModel, job: Job, stages: Tuple[int, ...]) -> None:
    """The job's ready row at its first stage and a chain row per later one."""
    first = stages[0]
    model.add(f"ready_{job.id}", {_cvar(first, job.id): 1}, ">=",
              job.duration(first) + job.ready)
    for prev, s in zip(stages, stages[1:]):
        model.add(f"chain_{s}_{job.id}",
                  {_cvar(s, job.id): 1, _cvar(prev, job.id): -1},
                  ">=", job.duration(s))


def _add_objective_link(model: MilpModel, job: Job, last: int) -> None:
    """CMAX >= C (cmax) or T >= C - due (twt), C the job's completion at `last`."""
    if model.kind == Objective.CMAX:
        model.add(f"cmax_link_{job.id}",
                  {"CMAX": 1, _cvar(last, job.id): -1}, ">=", 0)
    elif model.kind == Objective.TWT:
        model.add(f"tardy_{job.id}",
                  {f"T_{job.id}": 1, _cvar(last, job.id): -1}, ">=", -job.due)


# ---------------------------------------------------------------------------
# Literal formulation (shared precedence binaries), used for export and
# for the order-consistent re-solve

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
    # Job pairs with their precedence binary; y = 1 puts k first.
    pairs = [(a.id, b.id, _yvar(a.id, b.id))
             for i, a in enumerate(jobs) for b in jobs[i + 1:]]
    model.binary.extend(y for _, _, y in pairs)

    if kind == Objective.CMAX:
        model.objective = {"CMAX": 1.0}
    elif kind == Objective.WCT:
        model.objective = {_cvar(last, j.id): float(j.weight) for j in jobs}
    else:
        model.objective = {f"T_{j.id}": float(j.weight) for j in jobs}

    for job in jobs:
        _add_chain(model, job, STAGES)

    # Machine exclusivity at every stage on every eligible machine.
    for s in STAGES:
        for m in stage_machines[s]:
            held = {j.id: _reservation(j, s, s, _xvar(s, m.id, j.id)) for j in jobs}
            for k, l, y in pairs:
                k_waits, l_waits = _either_order(M, y, held[k], held[l])
                model.add(f"no_clash_a_{s}_{m.id}_{k}_{l}", *k_waits)
                model.add(f"no_clash_b_{s}_{m.id}_{k}_{l}", *l_waits)

    for job in jobs:
        _add_objective_link(model, job, last)

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
            held = {j.id: _reservation(j, entry, exit_stage, _xvar(entry, m.id, j.id))
                    for j in jobs}
            for k, l, y in pairs:
                k_waits, l_waits = _either_order(M, y, held[k], held[l])
                model.add(f"busy_{cls.lower()}_a_{m.id}_{k}_{l}", *k_waits)
                model.add(f"busy_{cls.lower()}_b_{m.id}_{k}_{l}", *l_waits)

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
        held = {(j.id, s): _reservation(j, s, s, _xvar(s, oven.id, j.id))
                for j in jobs for s in (4, 6)}
        for k, l, y in pairs:
            rows = (_either_order(M, y, held[k, 4], held[l, 6])
                    + _either_order(M, y, held[k, 6], held[l, 4]))
            for tag, row in zip("abcd", rows):
                model.add(f"reentry_{tag}_{oven.id}_{k}_{l}", *row)
    return model


def write_lp(model: MilpModel) -> str:
    """Render the model in LP file format."""
    lines = [f"\\ {model.name} ({model.kind.value})", "Minimize"]
    lines.append(" obj: " + _lp_terms(sorted(model.objective.items())))
    lines.append("Subject To")
    for row in model.constraints:
        lines.append(f" {row.name}: {_lp_terms(row.coeffs)} {row.sense} {_num(row.rhs)}")
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
    m = metrics(instance, schedule)
    values["CMAX"] = float(m.cmax)
    if model.kind == Objective.TWT:
        for job_id, t in m.tardiness.items():
            values[f"T_{job_id}"] = float(t)

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


def check_values(model: MilpModel, values: Dict[str, float]) -> List[str]:
    """Names of constraints the variable assignment violates, in row order.

    A row holds when its sum lies within its bounds widened by
    CHECK_TOL * (1 + |rhs|).
    """
    nnz = len(model.term_vars)
    x = np.fromiter(map(values.__getitem__, model.term_vars), float, count=nnz)
    row_of = np.repeat(np.arange(len(model.row_names)), np.diff(model.indptr))
    lhs = np.bincount(row_of, weights=np.array(model.term_coefs) * x,
                      minlength=len(model.row_names))
    lower, upper = np.array(model.row_lower), np.array(model.row_upper)
    slack = CHECK_TOL * (1.0 + np.abs(np.where(lower == -np.inf, upper, lower)))
    ok = (lhs >= lower - slack) & (lhs <= upper + slack)
    return [model.row_names[i] for i in np.flatnonzero(~ok)]


# ---------------------------------------------------------------------------
# Internal model with per-reservation precedence binaries

def _disjunctive_model(instance: Instance, kind: Objective) -> MilpModel:
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
    # machine -> (job id, exit stage, reservation) per possible reservation
    occupations: Dict[str, List[Tuple[str, int, Reservation]]] = {}
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
                occupations[machine.id].append(
                    (job.id, covered[-1], _reservation(job, covered[0], covered[-1], xname)))
            else:
                for s in machine.covered_stages:
                    if not job.needs(s):
                        continue
                    xname = _xvar(s, machine.id, job.id)
                    model.binary.append(xname)
                    x_options[(job.id, s)].append(xname)
                    occupations[machine.id].append((job.id, s, _reservation(job, s, s, xname)))

    # Instance validation guarantees every needed stage an option.
    for (job_id, s), options in x_options.items():
        model.add(f"assign_{s}_{job_id}", {x: 1.0 for x in options}, "=", 1)

    for job in jobs:
        _add_chain(model, job, job.stages)
        _add_objective_link(model, job, job.stages[-1])

    for mid, occs in occupations.items():
        for i, (a, fa, front) in enumerate(occs):
            for b, fb, back in occs[i + 1:]:
                if a == b:
                    continue
                # z = 1: front's reservation precedes back's.
                z = f"z_{mid}_{a}_{fa}_{b}_{fb}"
                model.binary.append(z)
                front_waits, back_waits = _either_order(M, z, front, back)
                model.add(f"order_a_{mid}_{a}_{fa}_{b}_{fb}", *back_waits)
                model.add(f"order_b_{mid}_{a}_{fa}_{b}_{fb}", *front_waits)
    return model


def _solve_model(model: MilpModel, time_limit: Optional[float]):
    names = model.continuous + model.binary
    index = {v: i for i, v in enumerate(names)}
    n = len(names)
    c = np.zeros(n)
    for v, coeff in model.objective.items():
        c[index[v]] = coeff

    cols = np.fromiter(map(index.__getitem__, model.term_vars), np.int64,
                       count=len(model.term_vars))
    A = sparse.csr_matrix((np.array(model.term_coefs), cols, np.array(model.indptr)),
                          shape=(len(model.row_names), n))
    # Binary columns follow the continuous ones.
    integrality = np.zeros(n)
    upper = np.full(n, np.inf)
    integrality[len(model.continuous):] = 1
    upper[len(model.continuous):] = 1
    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = milp(c=c, constraints=LinearConstraint(A, np.array(model.row_lower),
                                                 np.array(model.row_upper)),
               integrality=integrality, bounds=Bounds(np.zeros(n), upper),
               options=options)
    if res.status not in (0, 1, 2):
        raise SolverError(f"HiGHS status {res.status}: {res.message}")
    values = None
    if res.x is not None:
        values = dict(zip(names, res.x.tolist()))
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

    SP's initial order is decoded first.  When its schedule meets the
    decoder's per-job lower bound, that schedule is the optimum: it is
    returned as OPTIMAL with no model built and no HiGHS call.  The
    decoder serves every machine in list order, so the schedule is
    order-consistent and satisfies the literal model.

    `time_limit` is in seconds (None, 0 and inf are valid) and bounds the
    whole call, re-solve included; a negative or NaN limit raises
    ValueError.

    The per-reservation precedence model, a relaxation of the literal one
    that admits passing, is solved first.  When its optimum gives a
    schedule whose pairwise job orders disagree across machines, the
    literal model (`export_milp`) is solved for an order-consistent
    schedule of equal value; if it finds none, the first schedule stands.
    """
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time limit must be >= 0 seconds, got {time_limit}")
    started = time.perf_counter()
    decoder = decoder_for(instance)
    order = sp_initial_order(instance)
    value = decoder.score(order, kind)
    if value == decoder.lower_bound(kind):
        return ExactResult(schedule=decoder.schedule(order), value=value,
                           status=OPTIMAL)
    # The first model is freed before a re-solve builds the larger literal one.
    status, values = _solve_model(_disjunctive_model(instance, kind), time_limit)
    if status == 0:
        schedule = _schedule_from_values(instance, values)
        value = objective_value(instance, schedule, kind)
        try:
            _pair_orders(instance, schedule)
        except ValueError:
            left = (None if time_limit is None
                    else max(0.0, time_limit - (time.perf_counter() - started)))
            consistent = _solve_consistent(instance, kind, left, value)
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
    try:
        status, values = _solve_model(export_milp(instance, kind), time_limit)
    except SolverError:  # the first solve's optimum stands
        return None
    if status != 0 or values is None:
        return None
    schedule = _schedule_from_values(instance, values)
    if objective_value(instance, schedule, kind) == target:
        return schedule
    return None
