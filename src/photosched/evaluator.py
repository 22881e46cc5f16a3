"""Schedule representation, feasibility checking, and semi-active timing.

Feasibility mirrors the disjunctive structure of the optimization model:
ready-time release, stage chaining, one-job-at-a-time machine timelines
(cluster tools are reserved for a job's whole covered span, and the bake
ovens run stage-4 and stage-6 visits on a single shared timeline), and
the cluster routing rules.
"""

import csv
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .core import CLUSTER_ENTRY, STAGES, Instance, Job, Objective, route_options

Visit = Tuple[str, int]  # (job id, stage)


class CyclicSequenceError(Exception):
    def __init__(self, visits):
        self.visits = list(visits)
        super().__init__(f"inconsistent sequences: cycle through {self.visits}")


@dataclass(frozen=True)
class Violation:
    constraint_id: str  # ReadyTime, StageChain, MachineOverlap, MissingAssign,
    #                     ForbiddenAssign, ClusterSpan, ClusterExclusive, BakeShared
    detail: str


@dataclass
class Schedule:
    assign: Dict[Visit, str]  # (job, stage) -> machine id, stages with p > 0
    completion: Dict[Visit, int]  # (job, stage) -> completion time

    @property
    def sequences(self) -> Dict[str, List[Visit]]:
        """Each machine's visits ordered by completion, ties by stage then
        job id; on a feasible schedule this is the start order."""
        assign, completion = self.assign, self.completion
        out: Dict[str, List[Visit]] = defaultdict(list)
        for v in sorted(assign, key=lambda v: (completion[v], v[1], v[0])):
            out[assign[v]].append(v)
        return dict(out)

    def start(self, instance: Instance, job_id: str, stage: int) -> int:
        return self.completion[(job_id, stage)] - instance.job(job_id).duration(stage)


@dataclass(frozen=True)
class ScheduleMetrics:
    cmax: int
    wct: int
    twt: int
    tardiness: Dict[str, int]


# ---------------------------------------------------------------------------
# Reservations: contiguous machine holds

def _reservations(instance: Instance,
                  assign: Dict[Visit, str]) -> Dict[str, List[Tuple[str, List[int]]]]:
    """Group assigned visits into (job id, stages) machine reservations,
    per machine in (job id, stage) order.

    On a cluster machine all of a job's visits form one reservation; on
    individual machines and bake ovens every visit stands alone.
    """
    by_machine: Dict[str, List[Tuple[str, List[int]]]] = defaultdict(list)
    cluster: Dict[str, bool] = {}  # each machine's flag, read once
    for (job_id, stage), mid in sorted(assign.items()):
        held = by_machine[mid]
        if held and held[-1][0] == job_id:
            if mid not in cluster:
                cluster[mid] = instance.machine(mid).is_cluster
            if cluster[mid]:
                held[-1][1].append(stage)
                continue
        held.append((job_id, [stage]))
    return by_machine


def timelines(instance: Instance,
              schedule: Schedule) -> Dict[str, List[Tuple[int, int, str, List[int]]]]:
    """Each machine's reservations as (start, end, job id, stages), in
    (job id, stage) order.

    A reservation holds its machine from its first stage's start to its
    last stage's completion.
    """
    times = {job.id: job.p for job in instance.jobs}
    completion = schedule.completion
    return {mid: [(completion[(job_id, stages[0])] - times[job_id][stages[0] - 1],
                   completion[(job_id, stages[-1])], job_id, stages)
                  for job_id, stages in held]
            for mid, held in _reservations(instance, schedule.assign).items()}


# ---------------------------------------------------------------------------
# Semi-active timing

def earliest_completion(instance: Instance, assign: Dict[Visit, str],
                        sequences: Dict[str, List[Visit]]) -> Schedule:
    """Forward-pass minimal completion times for fixed assignment/sequences.

    Each machine is a single timeline of reservations in sequence order;
    a cluster reservation holds the machine from its entry-stage start to
    its exit-stage completion.  A visit starts at the later of its job's
    ready time and its at most two predecessors' completions: its job's
    previous assigned stage, and for a reservation's first stage the last
    stage of the reservation before it on the machine.  One topological
    pass times each visit once.  Raises CyclicSequenceError when the
    per-machine orders contradict the job flow.
    """
    after: Dict[Visit, Visit] = {}  # reservation's first visit -> previous one's last
    for mid, held in _reservations(instance, assign).items():
        if len(held) > 1:
            order = _reservation_order(held, sequences.get(mid, []))
            for (a, a_stages), (b, b_stages) in zip(order, order[1:]):
                after[(b, b_stages[0])] = (a, a_stages[-1])

    # Each job's assigned stages form one chain (a missing assignment is
    # detected by the caller); a visit outside every chain, such as one at
    # a stage its job skips, stands alone.
    chains = [(job, [s for s in job.stages if (job.id, s) in assign])
              for job in instance.jobs]
    if sum(len(stages) for _, stages in chains) < len(assign):
        chained = {(job.id, s) for job, stages in chains for s in stages}
        chains += [(instance.job(job_id), [s]) for job_id, s in sorted(assign)
                   if (job_id, s) not in chained]

    # Walk each chain until a visit's machine predecessor is untimed; the
    # chain waits on that predecessor and resumes once it is timed.
    completion: Dict[Visit, int] = {}
    waiting: Dict[Visit, Tuple[Job, List[int], int, int]] = {}
    stack = [(job, stages, 0, job.ready) for job, stages in chains]
    while stack:
        job, stages, i, done = stack.pop()
        for i in range(i, len(stages)):
            v = (job.id, stages[i])
            u = after.get(v)
            if u is not None:
                if u not in completion:
                    waiting[u] = (job, stages, i, done)
                    break
                done = max(done, completion[u])
            done += job.p[stages[i] - 1]
            completion[v] = done
            if v in waiting:
                stack.append(waiting.pop(v))
    if len(completion) != len(assign):
        raise CyclicSequenceError([v for v in sorted(assign) if v not in completion])
    return Schedule(assign=dict(assign), completion=completion)


def _reservation_order(held: List[Tuple[str, List[int]]],
                       sequence: List[Visit]) -> List[Tuple[str, List[int]]]:
    """Order a machine's reservations by their first visit in its sequence.

    Reservations with no visit in the sequence list follow, in
    first-appearance order (the sort is stable).
    """
    pos = {v: i for i, v in enumerate(sequence)}
    last = len(sequence)
    return sorted(held, key=lambda r: min([pos.get((r[0], s), last) for s in r[1]]))


# ---------------------------------------------------------------------------
# Feasibility

def check_feasibility(instance: Instance, schedule: Schedule) -> List[Violation]:
    """Return all constraint violations; an empty list means feasible."""
    out: List[Violation] = []
    assign = schedule.assign
    machines = {m.id: m for m in instance.machines}

    # Assignment structure: every assigned visit belongs to the instance, and
    # visits are present exactly where p > 0, machine eligible.
    job_ids = {job.id for job in instance.jobs}
    for job_id, s in assign:
        if job_id not in job_ids or s not in STAGES:
            out.append(Violation("ForbiddenAssign",
                                 f"job {job_id} stage {s} is no visit of the instance"))
    completion = schedule.completion
    for job in instance.jobs:
        for s, p in zip(STAGES, job.p):
            v = (job.id, s)
            if not p:
                if v in assign:
                    out.append(Violation("ForbiddenAssign",
                                         f"job {job.id} stage {s} assigned but needs no processing"))
            elif v not in assign:
                out.append(Violation("MissingAssign",
                                     f"job {job.id} stage {s} unassigned"))
            elif assign[v] not in machines:
                out.append(Violation("MissingAssign",
                                     f"job {job.id} stage {s} on unknown machine {assign[v]}"))
            elif s not in machines[assign[v]].covered_stages:
                out.append(Violation("ForbiddenAssign",
                                     f"machine {assign[v]} cannot process stage {s} (job {job.id})"))
            elif v not in completion:
                out.append(Violation("MissingAssign",
                                     f"job {job.id} stage {s} has no completion time"))
    if out:
        structural = {v.constraint_id for v in out}
        if "MissingAssign" in structural:
            return out

    # Ready times and stage chaining; prev_s == 0 before the first needed stage.
    for job in instance.jobs:
        prev_s, prev_c = 0, job.ready
        for s in job.stages:
            c = completion[(job.id, s)]
            if c - prev_c < job.p[s - 1]:
                if prev_s == 0:
                    out.append(Violation("ReadyTime",
                                         f"job {job.id} stage {s} starts before ready time {job.ready}"))
                else:
                    out.append(Violation("StageChain",
                                         f"job {job.id} stage {s} overlaps its stage-{prev_s} work"))
            prev_s, prev_c = s, c

    # Cluster routing rules.
    for job in instance.jobs:
        for s in job.stages:
            mid = assign[(job.id, s)]
            machine = machines[mid]
            entry = CLUSTER_ENTRY.get(machine.tool_class)
            if entry is None:
                continue
            if s == entry:
                if machine.tool_class not in {r.family for r in route_options(job)}:
                    out.append(Violation("ForbiddenAssign",
                                         f"job {job.id} may not route through "
                                         f"{machine.tool_class} machine {mid}"))
                for cov in machine.covered_stages:
                    if cov == entry:
                        continue
                    if assign.get((job.id, cov)) != mid:
                        out.append(Violation("ClusterSpan",
                                             f"job {job.id} enters {mid} at stage {entry} "
                                             f"but stage {cov} is elsewhere"))
            elif assign.get((job.id, entry)) != mid:
                out.append(Violation("ClusterSpan",
                                     f"job {job.id} uses {mid} at stage {s} without entering at stage {entry}"))

    if any(v.constraint_id in ("ClusterSpan", "ForbiddenAssign") for v in out):
        return out

    # Machine exclusivity: reservations on one timeline must not overlap.
    for mid, spans in timelines(instance, schedule).items():
        machine = machines[mid]
        spans.sort()  # by (start, end); ties stay in (job id, stage) order
        for (_, c1, a, a_stages), (s2, _, b, b_stages) in zip(spans, spans[1:]):
            if s2 < c1 and a != b:
                if machine.is_cluster:
                    tag = "ClusterExclusive"
                elif machine.tool_class == "B" and a_stages[0] != b_stages[0]:
                    tag = "BakeShared"
                else:
                    tag = "MachineOverlap"
                out.append(Violation(tag,
                                     f"jobs {a} (stage {a_stages}) and {b} "
                                     f"(stage {b_stages}) overlap on {mid}"))
            elif s2 < c1:
                out.append(Violation("MachineOverlap",
                                     f"job {a} overlaps itself on {mid}"))
    return out


# ---------------------------------------------------------------------------
# Objectives

def completion_objective(ends: Sequence[Tuple[Job, int]], kind: Objective) -> int:
    """The objective over (job, last completion) pairs.

    A job here is anything with a `due` date and a `weight`; this is the
    one statement of cmax, wct and twt.
    """
    if kind == Objective.CMAX:
        return max((c for _, c in ends), default=0)
    if kind == Objective.WCT:
        return sum(job.weight * c for job, c in ends)
    return sum(job.weight * (c - job.due) for job, c in ends if c > job.due)


def _job_ends(instance: Instance, schedule: Schedule) -> List[Tuple[Job, int]]:
    completion = schedule.completion
    return [(job, completion[(job.id, job.stages[-1])]) for job in instance.jobs]


def metrics(instance: Instance, schedule: Schedule) -> ScheduleMetrics:
    ends = _job_ends(instance, schedule)
    return ScheduleMetrics(
        cmax=completion_objective(ends, Objective.CMAX),
        wct=completion_objective(ends, Objective.WCT),
        twt=completion_objective(ends, Objective.TWT),
        tardiness={job.id: max(0, c - job.due) for job, c in ends})


def objective_value(instance: Instance, schedule: Schedule, kind: Objective) -> int:
    """Objective of a schedule assumed feasible (no checking)."""
    return completion_objective(_job_ends(instance, schedule), kind)


# ---------------------------------------------------------------------------
# Schedule file format: one CSV row per visit

SCHEDULE_FIELDS = ("job_id", "stage", "machine_id", "start", "completion")


def save_schedule(instance: Instance, schedule: Schedule, path) -> None:
    rows = []
    for (job_id, stage), mid in schedule.assign.items():
        rows.append((mid, schedule.start(instance, job_id, stage), job_id, stage,
                     schedule.completion[(job_id, stage)]))
    rows.sort()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEDULE_FIELDS)
        for mid, s, job_id, stage, c in rows:
            writer.writerow([job_id, stage, mid, s, c])


def load_schedule(path, instance: Optional[Instance] = None) -> Schedule:
    """Read a schedule file (ValueError on a malformed or repeated row).

    `start` follows from `completion`.  Given `instance`, a row whose start
    is not its completion minus that stage's time raises ValueError; a row
    for a visit the instance lacks is left to `check_feasibility`.
    """
    times = {} if instance is None else {
        (job.id, s): job.duration(s) for job in instance.jobs for s in job.stages}
    assign: Dict[Visit, str] = {}
    completion: Dict[Visit, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        # Each column's position; a repeated header names its last column.
        position = {key: i for i, key in enumerate(next(reader, ()))}
        missing = [k for k in SCHEDULE_FIELDS if k not in position]
        if missing:
            raise ValueError(f"schedule: missing column(s) {', '.join(missing)}")
        at = [position[k] for k in SCHEDULE_FIELDS]
        width = max(at) + 1

        def whole(cell, key):
            try:
                return int(cell)
            except (TypeError, ValueError):
                raise ValueError(f"schedule: line {reader.line_num}: {key} must be an "
                                 f"integer, got {cell!r}") from None

        for row in reader:
            if not row:  # a blank line
                continue
            if len(row) < width:  # a short row's missing cells read None
                row += [None] * (width - len(row))
            job_id, stage, mid, start, c = map(row.__getitem__, at)
            try:
                stage, start, c = int(stage), int(start), int(c)
            except (TypeError, ValueError):  # name the first cell that is no integer
                for key, cell in (("stage", stage), ("start", start), ("completion", c)):
                    whole(cell, key)
            if (job_id, stage) in assign:
                raise ValueError(f"schedule: job {job_id} stage {stage} appears twice")
            p = times.get((job_id, stage))
            if p is not None and start != c - p:
                raise ValueError(f"schedule: job {job_id} stage {stage} starts at {start}, "
                                 f"not at completion {c} minus stage time {p}")
            assign[(job_id, stage)] = mid
            completion[(job_id, stage)] = c
    return Schedule(assign=assign, completion=completion)
