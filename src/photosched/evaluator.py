"""Schedule representation, feasibility checking, and semi-active timing.

Feasibility mirrors the disjunctive structure of the optimization model:
ready-time release, stage chaining, one-job-at-a-time machine timelines
(cluster tools are reserved for a job's whole covered span, and the bake
ovens run stage-4 and stage-6 visits on a single shared timeline), and
the cluster routing rules.
"""

import csv
from collections import defaultdict, deque
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
        out: Dict[str, List[Visit]] = defaultdict(list)
        for v in sorted(self.assign, key=lambda v: (self.completion[v], v[1], v[0])):
            out[self.assign[v]].append(v)
        return dict(out)

    def start(self, instance: Instance, job_id: str, stage: int) -> int:
        return self.completion[(job_id, stage)] - instance.job(job_id).duration(stage)

    def completion_through(self, instance: Instance, job_id: str, stage: int) -> int:
        """Completion at `stage` with skipped stages chained through.

        A skipped stage inherits the previous stage's completion; stage 0
        is the job's ready time.
        """
        job = instance.job(job_id)
        for s in range(stage, 0, -1):
            if job.needs(s):
                return self.completion[(job_id, s)]
        return job.ready

    def last_completion(self, instance: Instance, job_id: str) -> int:
        return self.completion_through(instance, job_id, STAGES[-1])


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
    for (job_id, stage), mid in sorted(assign.items()):
        held = by_machine[mid]
        if held and held[-1][0] == job_id and instance.machine(mid).is_cluster:
            held[-1][1].append(stage)
        else:
            held.append((job_id, [stage]))
    return by_machine


def timelines(instance: Instance,
              schedule: Schedule) -> Dict[str, List[Tuple[int, int, str, List[int]]]]:
    """Each machine's reservations as (start, end, job id, stages), in
    (job id, stage) order.

    A reservation holds its machine from its first stage's start to its
    last stage's completion.
    """
    return {mid: [(schedule.start(instance, job_id, stages[0]),
                   schedule.completion[(job_id, stages[-1])], job_id, stages)
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
    ready time and its predecessors' completions.  Raises
    CyclicSequenceError when the per-machine orders contradict the job
    flow.
    """
    visits = sorted(assign)
    preds: Dict[Visit, List[Visit]] = {v: [] for v in visits}
    for job in instance.jobs:
        prev = None
        for s in job.stages:
            v = (job.id, s)
            if v not in preds:
                continue  # missing assignment; caller detects separately
            if prev is not None:
                preds[v].append(prev)
            prev = v

    # Machine-order edges between consecutive reservations.
    for mid, held in _reservations(instance, assign).items():
        order = _reservation_order(held, sequences.get(mid, []))
        for (a, a_stages), (b, b_stages) in zip(order, order[1:]):
            preds[(b, b_stages[0])].append((a, a_stages[-1]))

    indeg = {v: len(ps) for v, ps in preds.items()}
    succs: Dict[Visit, List[Visit]] = defaultdict(list)
    for v, ps in preds.items():
        for u in ps:
            succs[u].append(v)
    queue = deque(v for v, d in indeg.items() if d == 0)
    completion: Dict[Visit, int] = {}
    done = 0
    while queue:
        v = queue.popleft()
        job_id, stage = v
        job = instance.job(job_id)
        start = job.ready
        for u in preds[v]:
            start = max(start, completion[u])
        completion[v] = start + job.duration(stage)
        done += 1
        for w in succs[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if done != len(visits):
        raise CyclicSequenceError([v for v in visits if v not in completion])
    return Schedule(assign=dict(assign), completion=completion)


def _reservation_order(held: List[Tuple[str, List[int]]],
                       sequence: List[Visit]) -> List[Tuple[str, List[int]]]:
    """Order a machine's reservations by its visit sequence.

    Falls back to first-appearance order for visits missing from the
    sequence list.
    """
    pos = {v: i for i, v in enumerate(sequence)}
    ranked = []
    for i, (job_id, stages) in enumerate(held):
        known = [pos[(job_id, s)] for s in stages if (job_id, s) in pos]
        ranked.append((min(known) if known else len(sequence) + i, i))
    ranked.sort()
    return [held[i] for _, i in ranked]


# ---------------------------------------------------------------------------
# Feasibility

def check_feasibility(instance: Instance, schedule: Schedule) -> List[Violation]:
    """Return all constraint violations; an empty list means feasible."""
    out: List[Violation] = []
    assign = schedule.assign
    known_machines = {m.id for m in instance.machines}

    # Assignment structure: every assigned visit belongs to the instance, and
    # visits are present exactly where p > 0, machine eligible.
    job_ids = {job.id for job in instance.jobs}
    for job_id, s in assign:
        if job_id not in job_ids or s not in STAGES:
            out.append(Violation("ForbiddenAssign",
                                 f"job {job_id} stage {s} is no visit of the instance"))
    for job in instance.jobs:
        for s in STAGES:
            v = (job.id, s)
            if job.needs(s):
                if v not in assign:
                    out.append(Violation("MissingAssign",
                                         f"job {job.id} stage {s} unassigned"))
                elif assign[v] not in known_machines:
                    out.append(Violation("MissingAssign",
                                         f"job {job.id} stage {s} on unknown machine {assign[v]}"))
                elif s not in instance.machine(assign[v]).covered_stages:
                    out.append(Violation("ForbiddenAssign",
                                         f"machine {assign[v]} cannot process stage {s} (job {job.id})"))
                elif v not in schedule.completion:
                    out.append(Violation("MissingAssign",
                                         f"job {job.id} stage {s} has no completion time"))
            elif v in assign:
                out.append(Violation("ForbiddenAssign",
                                     f"job {job.id} stage {s} assigned but needs no processing"))
    if out:
        structural = {v.constraint_id for v in out}
        if "MissingAssign" in structural:
            return out

    # Ready times and stage chaining; prev_s == 0 before the first needed stage.
    for job in instance.jobs:
        prev_s, prev_c = 0, job.ready
        for s in job.stages:
            c = schedule.completion[(job.id, s)]
            if c - prev_c < job.duration(s):
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
            machine = instance.machine(mid)
            if not machine.is_cluster:
                continue
            entry = CLUSTER_ENTRY[machine.tool_class]
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
        machine = instance.machine(mid)
        spans.sort(key=lambda t: (t[0], t[1]))
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
    return [(job, schedule.last_completion(instance, job.id)) for job in instance.jobs]


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
# Schedule file format: job_id,stage,machine_id,start,completion

def save_schedule(instance: Instance, schedule: Schedule, path) -> None:
    rows = []
    for (job_id, stage), mid in schedule.assign.items():
        rows.append((mid, schedule.start(instance, job_id, stage), job_id, stage,
                     schedule.completion[(job_id, stage)]))
    rows.sort()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["job_id", "stage", "machine_id", "start", "completion"])
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
        for rec in csv.DictReader(fh):
            job_id = rec["job_id"]
            stage = int(rec["stage"])
            mid = rec["machine_id"]
            start = int(rec["start"])
            c = int(rec["completion"])
            if (job_id, stage) in assign:
                raise ValueError(f"schedule: job {job_id} stage {stage} appears twice")
            p = times.get((job_id, stage))
            if p is not None and start != c - p:
                raise ValueError(f"schedule: job {job_id} stage {stage} starts at {start}, "
                                 f"not at completion {c} minus stage time {p}")
            assign[(job_id, stage)] = mid
            completion[(job_id, stage)] = c
    return Schedule(assign=assign, completion=completion)
