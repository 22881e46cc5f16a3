"""The routing contract on hand-built instances and parks.

An instance either is rejected up front, naming a job that has no route
through the park, or every algorithm solves it with a feasible schedule
and exact's optimum equals exhaustive enumeration, which the decoder's
per-job lower bound never exceeds.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from enumeration import brute_force, search_size
from photosched.core import TOOL_STAGES, Instance, Job, Machine, Objective
from photosched.decoder import Decoder, JobOrder, decode
from photosched.evaluator import check_feasibility, objective_value
from photosched.exact import OPTIMAL, solve_exact
from photosched.search import GAConfig, SPConfig, run_ga, run_sp

SHORT_SP = SPConfig(max_iterations=20, seed=1)
SHORT_GA = GAConfig(pop_size=6, max_generations=10, stall_window=5, seed=1)

# Candidate schedules `brute_force` may time per example (at most about 3 s
# on a 2-CPU host).  Three jobs needing every stage on one machine per class
# take 298,080, about a minute.
BRUTE_FORCE_LIMIT = 20_000


def heuristic_runs(instance, kind):
    """(schedule, value) from decode in both list orders, SP and GA."""
    ids = tuple(j.id for j in instance.jobs)
    return [decode(instance, JobOrder(ids), kind),
            decode(instance, JobOrder(ids[::-1]), kind),
            run_sp(instance, kind, SHORT_SP)[:2],
            run_ga(instance, kind, SHORT_GA)[:2]]


def test_no_stranding_on_a_park_missing_develop_tools():
    # CE1 starts a route whose develop step has no tool; only CED1 finishes
    # one.  The decoder used to put the second job on CE1 and then fail at
    # stage 5 with "no eligible machine".
    jobs = (Job("J1", (0, 20, 75, 0, 30, 0)), Job("J2", (0, 20, 75, 0, 30, 0)))
    inst = Instance(jobs=jobs, machines=(Machine("CE1", "CE"), Machine("CED1", "CED")))
    optimum = solve_exact(inst, Objective.CMAX, time_limit=60)
    assert (optimum.status, optimum.value) == (OPTIMAL, 250)
    for schedule, value in heuristic_runs(inst, Objective.CMAX):
        assert check_feasibility(inst, schedule) == []
        assert value >= 250


def unchecked_instance(jobs, machines) -> Instance:
    """The instance without its validation, for the oracle to search."""
    instance = object.__new__(Instance)
    for name, value in (("jobs", jobs), ("machines", machines), ("label", "")):
        object.__setattr__(instance, name, value)
    return instance


@st.composite
def hand_built(draw):
    """1-3 jobs, each skipping any of stages 1, 4 and 6, on a park with 0 or
    1 machines per tool class."""
    jobs = []
    for i in range(1, draw(st.integers(1, 3)) + 1):
        p = [draw(st.integers(1, 9)) for _ in range(6)]
        for stage in draw(st.sets(st.sampled_from((1, 4, 6)))):
            p[stage - 1] = 0
        jobs.append(Job(f"J{i}", tuple(p), ready=draw(st.integers(0, 10)),
                        due=draw(st.integers(0, 40)), weight=draw(st.integers(1, 3))))
    # Half the parks lack one to three classes, so many of those are accepted.
    classes = st.sampled_from(tuple(TOOL_STAGES))
    missing = draw(st.one_of(st.sets(classes, min_size=1, max_size=3), st.sets(classes)))
    machines = tuple(Machine(f"{cls}1", cls) for cls in TOOL_STAGES if cls not in missing)
    return tuple(jobs), machines


@settings(max_examples=100)
@given(hand_built())
def test_accepted_instances_solve_and_rejected_ones_have_no_schedule(case):
    jobs, machines = case
    size = search_size(unchecked_instance(jobs, machines))
    try:
        inst = Instance(jobs=jobs, machines=machines)
    except ValueError as exc:
        assert re.search(r"\bjob J[1-3]\b", str(exc))
        assert size == 0
        assert brute_force(unchecked_instance(jobs, machines)) == {}
        return
    assert size > 0
    truth = brute_force(inst) if size <= BRUTE_FORCE_LIMIT else None
    for kind in Objective:
        exact = solve_exact(inst, kind, time_limit=60)
        assert exact.status == OPTIMAL
        if truth is not None:
            assert exact.value == truth[kind]
            assert Decoder(inst).lower_bound(kind) <= truth[kind]
        for schedule, value in heuristic_runs(inst, kind) + [(exact.schedule, exact.value)]:
            assert check_feasibility(inst, schedule) == []
            assert value == objective_value(inst, schedule, kind)
            assert value >= exact.value


@st.composite
def doubled_parks(draw):
    """1-3 jobs as in `hand_built` on a full park: one machine per tool
    class, two identical machines in each of one or two classes."""
    jobs, _ = draw(hand_built())
    doubled = draw(st.sets(st.sampled_from(tuple(TOOL_STAGES)), min_size=1, max_size=2))
    machines = tuple(Machine(f"{cls}{i}", cls) for cls in TOOL_STAGES
                     for i in range(1, 2 + (cls in doubled)))
    return jobs, machines


@settings(max_examples=50)
@given(doubled_parks())
def test_exact_equals_enumeration_with_identical_machines(case):
    # Two machines of one class give the relaxation z pairs per machine and
    # make the decoder break ties by machine id; `hand_built` parks do neither.
    inst = Instance(*case)
    size = search_size(inst)
    truth = brute_force(inst) if size <= BRUTE_FORCE_LIMIT else None
    for kind in Objective:
        exact = solve_exact(inst, kind, time_limit=60)
        assert exact.status == OPTIMAL
        if truth is not None:
            assert exact.value == truth[kind]
        for schedule, value in heuristic_runs(inst, kind) + [(exact.schedule, exact.value)]:
            assert check_feasibility(inst, schedule) == []
            assert value >= exact.value
