"""Brute-force optimum by exhaustive enumeration, for validating solvers.

Enumerates every route combination, every canonical machine assignment
(symmetry-reduced over identical machines), and every per-machine
processing order, timing each candidate with the earliest-completion
evaluator.  Only practical for very small instances.
"""

import itertools
import math
from typing import Dict, List, Optional, Tuple

from photosched.core import (
    CLUSTER_ENTRY,
    TOOL_STAGES,
    Instance,
    Job,
    Objective,
    eligible_machines,
    route_options,
)
from photosched.evaluator import (
    CyclicSequenceError,
    earliest_completion,
    objective_value,
)


def _route_assignments(instance: Instance, job: Job):
    """Yield assignment dicts {(stage) -> machine_id} for one job, one per
    route and per distinct machine choice (canonicalized later)."""
    for route in route_options(job):
        stages = list(job.stages)
        choices: List[List[Tuple[int, str]]] = []
        if route.family == "individual":
            for stage in stages:
                machines = [m for m in eligible_machines(instance, stage)
                            if not m.is_cluster]
                choices.append([(stage, m.id) for m in machines])
            for combo in itertools.product(*choices):
                yield dict((s, mid) for s, mid in combo)
        else:
            cluster_stages = [s for s in stages
                              if s in TOOL_STAGES[route.family]]
            outside = [s for s in stages if s not in cluster_stages]
            cluster_machines = [m for m in instance.machines
                                if m.tool_class == route.family]
            for cm in cluster_machines:
                base = {s: cm.id for s in cluster_stages}
                outside_choices = []
                for stage in outside:
                    machines = [m for m in eligible_machines(instance, stage)
                                if not m.is_cluster]
                    outside_choices.append([(stage, m.id) for m in machines])
                for combo in itertools.product(*outside_choices):
                    full = dict(base)
                    full.update((s, mid) for s, mid in combo)
                    yield full


def _canonical(instance: Instance, assign: Dict) -> Tuple:
    """Relabel machines within each tool class by order of first use, so
    assignments that differ only by identical-machine permutation collapse."""
    seen: Dict[str, Dict[str, int]] = {}
    out = []
    for key in sorted(assign):
        mid = assign[key]
        cls = instance.machine(mid).tool_class
        table = seen.setdefault(cls, {})
        if mid not in table:
            table[mid] = len(table)
        out.append((key, cls, table[mid]))
    return tuple(out)


def _in_flow_order(order) -> bool:
    last: Dict[str, int] = {}
    for job_id, stage in order:
        if last.get(job_id, 0) > stage:
            return False
        last[job_id] = stage
    return True


def _machine_orders(instance: Instance, assign: Dict):
    """Machine ids and, per machine, every order of its reservations."""
    by_machine: Dict[str, List[Tuple[str, int]]] = {}
    for (job_id, stage), mid in assign.items():
        machine = instance.machine(mid)
        if machine.is_cluster:
            entry = CLUSTER_ENTRY[machine.tool_class]
            if stage != entry:
                continue
        by_machine.setdefault(mid, []).append((job_id, stage))
    ids = sorted(by_machine)
    # A job visiting one machine twice (the bake ovens) must visit it in flow
    # order; any other order is a cycle, so it is not generated.
    return ids, [[p for p in itertools.permutations(by_machine[mid])
                  if _in_flow_order(p)] for mid in ids]


def _machine_sequences(instance: Instance, assign: Dict):
    """Yield sequence dicts {machine_id -> visit order} over all
    interleavings of the visits placed on each machine."""
    ids, perms = _machine_orders(instance, assign)
    for combo in itertools.product(*perms):
        seq: Dict[str, List[Tuple[str, int]]] = {}
        for mid, order in zip(ids, combo):
            full_order = []
            for (job_id, stage) in order:
                machine = instance.machine(mid)
                if machine.is_cluster:
                    for s in sorted(machine.covered_stages):
                        if (job_id, s) in assign and assign[(job_id, s)] == mid:
                            full_order.append((job_id, s))
                else:
                    full_order.append((job_id, stage))
            seq[mid] = full_order
        yield seq


def _assignments(instance: Instance):
    """Yield every assignment of the jobs' visits to machines once, up to
    permutations of identical machines."""
    per_job = [list(_route_assignments(instance, job)) for job in instance.jobs]
    seen_assignments = set()
    for combo in itertools.product(*per_job):
        assign: Dict[Tuple[str, int], str] = {}
        for job, job_assign in zip(instance.jobs, combo):
            for stage, mid in job_assign.items():
                assign[(job.id, stage)] = mid
        key = _canonical(instance, assign)
        if key in seen_assignments:
            continue
        seen_assignments.add(key)
        yield assign


def search_size(instance: Instance) -> int:
    """Number of (assignment, machine sequences) candidates `brute_force`
    times.  It is positive exactly when a schedule exists: ordering every
    machine by job, each job's visits in flow order, is never cyclic."""
    return sum(math.prod(len(p) for p in _machine_orders(instance, assign)[1])
               for assign in _assignments(instance))


def brute_force(instance: Instance) -> Dict[Objective, int]:
    """Exhaustive optimum for all three objectives at once."""
    best: Dict[Objective, Optional[int]] = {k: None for k in Objective}
    for assign in _assignments(instance):
        for sequences in _machine_sequences(instance, assign):
            try:
                schedule = earliest_completion(instance, assign, sequences)
            except CyclicSequenceError:
                continue
            for kind in Objective:
                value = objective_value(instance, schedule, kind)
                if best[kind] is None or value < best[kind]:
                    best[kind] = value
    return {k: v for k, v in best.items() if v is not None}
