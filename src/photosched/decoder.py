"""Greedy schedule construction from a job permutation.

Jobs are placed in list order; each needed stage goes to the machine that
can start it earliest, preferring the machine covering the most stages
when several tie.  Picking a cluster machine commits the job's covered
stages to it and reserves the tool for the whole span.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import Instance, Job, Objective
from .evaluator import Schedule, Visit, completion_objective, objective_value


class DecodeError(Exception):
    pass


@dataclass(frozen=True)
class JobOrder:
    order: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(self.order))
        if len(set(self.order)) != len(self.order):
            raise ValueError("job order contains duplicates")

    def __iter__(self):
        return iter(self.order)

    def __len__(self):
        return len(self.order)


def cluster_affinity(instance: Instance, job: Job) -> int:
    """Number of cluster machines the job could be routed through."""
    return instance.park.pattern(job.stages).affinity


class _JobSteps(NamedTuple):
    ready: int
    due: int
    weight: int
    steps: tuple  # (stage, duration, candidate machine indices in tie-break order)


class Decoder:
    """Decoding tables for one instance, built once and reused per order.

    Each job is reduced to its ready time, due date, weight and a tuple of
    (stage, duration, candidates) steps, where candidates holds the
    indices of the machines the job may commit to at that stage, read
    from its park's shared table (`Instance.park`); `Park.later` gives the
    stages each machine then holds the job for.  `score` and `schedule`
    share one placement loop, so both apply the same greedy rule.
    """

    def __init__(self, instance: Instance):
        park = instance.park
        self._machine_ids = park.machine_ids
        self._later = park.later
        self._jobs: Dict[str, _JobSteps] = {}
        for job in instance.jobs:
            stages = job.stages
            steps = tuple(zip(stages, map(job.duration, stages),
                              park.pattern(stages).candidates))
            self._jobs[job.id] = _JobSteps(job.ready, job.due, job.weight, steps)

    def score(self, order: Sequence[str], kind: Objective) -> int:
        """Objective value of the order's decoded schedule, without building it."""
        return completion_objective(self._place(order, None), kind)

    def lower_bound(self, kind: Objective) -> int:
        """The objective with every job completing at its ready time plus its
        total processing time.

        No schedule completes a job sooner, and all three objectives grow
        with every completion, so no schedule scores less.
        """
        return completion_objective(
            [(job, job.ready + sum(d for _, d, _ in job.steps))
             for job in self._jobs.values()], kind)

    def schedule(self, order: Sequence[str]) -> Schedule:
        """The order's decoded schedule."""
        visits: List[Tuple[str, int, int, int]] = []
        self._place(order, visits)
        machine_ids = self._machine_ids
        assign: Dict[Visit, str] = {}
        completion: Dict[Visit, int] = {}
        for job_id, stage, mk, c in visits:
            assign[(job_id, stage)] = machine_ids[mk]
            completion[(job_id, stage)] = c
        return Schedule(assign=assign, completion=completion)

    def _place(self, order: Sequence[str], visits: Optional[list]):
        """Place the jobs greedily in list order.

        Returns (job, last completion) per job in order and, when `visits`
        is a list, appends (job id, stage, machine index, completion) to it
        for every placed stage.
        """
        jobs, later = self._jobs, self._later
        if len(order) != len(jobs) or set(order) != jobs.keys():
            raise DecodeError("order is not a permutation of the instance's jobs")

        free = [0] * len(later)
        ends = []
        for job_id in order:
            job = jobs[job_id]
            prev = job.ready  # the job's last completion; its next stage starts then
            held, held_stages = -1, ()  # cluster the job is committed to
            for stage, duration, options in job.steps:
                if stage in held_stages:
                    mk = held  # tool already held by this job
                else:
                    mk = -1
                    for k in options:
                        t = free[k]
                        if t <= prev:
                            mk = k
                            break  # nothing later in the list starts sooner
                        if mk < 0 or t < soonest:
                            mk, soonest = k, t
                    else:  # none is free: the first that frees soonest
                        if mk < 0:
                            raise DecodeError(
                                f"no eligible machine for job {job_id} stage {stage}")
                        prev = soonest
                    covered = later[mk]
                    if covered:
                        held, held_stages = mk, covered
                prev += duration
                free[mk] = prev
                if visits is not None:
                    visits.append((job_id, stage, mk, prev))
            ends.append((job, prev))
        return ends


# A record's SP, GA and exact solves and their final decodes all run on one
# instance in turn, so one entry builds its tables once for all of them.
@lru_cache(maxsize=1)
def decoder_for(instance: Instance) -> Decoder:
    """The instance's `Decoder`, shared by consecutive calls on an equal
    instance.  A `Decoder` is read-only once built, so sharing it changes
    no result."""
    return Decoder(instance)


def decode(instance: Instance, order: JobOrder,
           kind: Objective) -> Tuple[Schedule, int]:
    """Build a feasible schedule for the permutation and score it."""
    schedule = decoder_for(instance).schedule(order)
    return schedule, objective_value(instance, schedule, kind)
