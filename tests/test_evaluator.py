"""Feasibility checking, semi-active timing, metrics, schedule files."""

import pytest

from photosched.core import Instance, Job, Objective
from photosched.evaluator import (
    CyclicSequenceError,
    Schedule,
    Violation,
    check_feasibility,
    earliest_completion,
    load_schedule,
    metrics,
    objective_value,
    save_schedule,
    timelines,
)
from photosched.instgen import equipment


def one_job_instance(p=(40, 20, 75, 45, 30, 45), **kw):
    return Instance(jobs=(Job("J1", tuple(p), **kw),),
                    machines=tuple(equipment(2)))


def timed(instance, assign):
    sequences = {}
    for (job_id, stage), mid in sorted(assign.items()):
        sequences.setdefault(mid, []).append((job_id, stage))
    return earliest_completion(instance, assign, sequences)


def test_single_job_individual_route():
    inst = one_job_instance()
    assign = {("J1", 1): "S1", ("J1", 2): "C1", ("J1", 3): "E1",
              ("J1", 4): "B1", ("J1", 5): "D1", ("J1", 6): "B1"}
    sch = timed(inst, assign)
    assert check_feasibility(inst, sch) == []
    assert sch.completion[("J1", 6)] == 255
    assert sch.start(inst, "J1", 1) == 0


def test_ready_time_delays_first_stage():
    inst = one_job_instance(ready=100)
    assign = {("J1", 1): "S1", ("J1", 2): "C1", ("J1", 3): "E1",
              ("J1", 4): "B1", ("J1", 5): "D1", ("J1", 6): "B1"}
    sch = timed(inst, assign)
    assert sch.start(inst, "J1", 1) == 100
    assert sch.completion[("J1", 6)] == 355


def test_skipped_stages_carry_completion_through():
    inst = one_job_instance(p=(0, 20, 75, 0, 30, 0), ready=7)
    assign = {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 5): "D1"}
    sch = timed(inst, assign)
    assert check_feasibility(inst, sch) == []
    assert sch.completion[("J1", 2)] == 27  # chain starts at the ready time
    assert sch.last_completion(inst, "J1") == 132
    assert sch.completion_through(inst, "J1", 4) == 102


def test_two_jobs_share_a_machine_in_sequence():
    jobs = (Job("J1", (0, 20, 75, 0, 30, 0)), Job("J2", (0, 20, 75, 0, 30, 0)))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assign = {(j, s): m for j in ("J1", "J2")
              for s, m in ((2, "C1"), (3, "E1"), (5, "D1"))}
    sch = timed(inst, assign)
    assert check_feasibility(inst, sch) == []
    assert sch.completion[("J2", 2)] == 40  # waits for J1 on the only coater
    assert sch.completion[("J2", 3)] == 95 + 75  # exposes after J1 leaves E1
    assert sch.last_completion(inst, "J2") == 200


def test_unsequenced_reservations_follow_in_job_order():
    jobs = (Job("J1", (0, 20, 75, 0, 30, 0)), Job("J2", (0, 20, 75, 0, 30, 0)))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assign = {(j, s): m for j in ("J1", "J2")
              for s, m in ((2, "C1"), (3, "E1"), (5, "D1"))}
    # J2 coats first; E1 and D1 have no sequence, so J1 goes first there.
    sch = earliest_completion(inst, assign, {"C1": [("J2", 2)]})
    assert check_feasibility(inst, sch) == []
    assert sch.completion == {("J2", 2): 20, ("J1", 2): 40,
                              ("J1", 3): 115, ("J2", 3): 190,
                              ("J1", 5): 145, ("J2", 5): 220}


def test_cluster_reservation_holds_machine_for_whole_span():
    jobs = (Job("J1", (0, 20, 75, 0, 30, 0)), Job("J2", (0, 20, 75, 0, 30, 0)))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assign = {("J1", 2): "CED1", ("J1", 3): "CED1", ("J1", 5): "CED1",
              ("J2", 2): "CED1", ("J2", 3): "CED1", ("J2", 5): "CED1"}
    sch = timed(inst, assign)
    assert check_feasibility(inst, sch) == []
    # J2 cannot enter the cluster until J1 leaves after develop.
    assert sch.start(inst, "J2", 2) == 125
    assert sch.last_completion(inst, "J2") == 250


def test_bake_stages_share_one_oven_timeline():
    jobs = (Job("J1", (0, 20, 75, 45, 30, 0)), Job("J2", (0, 20, 75, 0, 30, 45)))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assign = {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 4): "B1", ("J1", 5): "D1",
              ("J2", 2): "CED1", ("J2", 3): "CED1", ("J2", 5): "CED1",
              ("J2", 6): "B1"}
    sequences = {"C1": [("J1", 2)], "E1": [("J1", 3)], "D1": [("J1", 5)],
                 "CED1": [("J2", 2), ("J2", 3), ("J2", 5)],
                 "B1": [("J1", 4), ("J2", 6)]}
    sch = earliest_completion(inst, assign, sequences)
    assert check_feasibility(inst, sch) == []
    # J2's post-develop bake waits for J1's pre-develop bake on the oven.
    assert sch.start(inst, "J2", 6) == max(125, 95 + 45)


def test_timelines_give_one_span_per_reservation():
    jobs = (Job("J1", (0, 20, 75, 45, 30, 0)), Job("J2", (0, 20, 75, 0, 30, 45)))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assign = {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 4): "B1", ("J1", 5): "D1",
              ("J2", 2): "CED1", ("J2", 3): "CED1", ("J2", 5): "CED1",
              ("J2", 6): "B1"}
    completion = {("J1", 2): 20, ("J1", 3): 95, ("J1", 4): 140, ("J1", 5): 170,
                  ("J2", 2): 20, ("J2", 3): 95, ("J2", 5): 125, ("J2", 6): 185}
    sch = Schedule(assign=assign, completion=completion)
    assert check_feasibility(inst, sch) == []
    spans = timelines(inst, sch)
    # The cluster is held from J2's coat start to its develop completion.
    assert spans["CED1"] == [(0, 125, "J2", [2, 3, 5])]
    # The oven's one timeline carries J1's stage-4 and J2's stage-6 visits.
    assert spans["B1"] == [(95, 140, "J1", [4]), (140, 185, "J2", [6])]
    assert spans["C1"] == [(0, 20, "J1", [2])]
    assert set(spans) == {"C1", "E1", "D1", "CED1", "B1"}
    assert sch.sequences["CED1"] == [("J2", 2), ("J2", 3), ("J2", 5)]
    assert sch.sequences["B1"] == [("J1", 4), ("J2", 6)]


def test_cyclic_sequences_detected():
    # J2's post-develop bake is sequenced before J1's pre-develop bake on
    # the oven, but J2 can only develop after J1 leaves the developer:
    # a circular wait through the reentrant oven.
    jobs = (Job("J1", (0, 20, 75, 45, 30, 0)), Job("J2", (0, 20, 75, 0, 30, 45)))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assign = {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 4): "B1",
              ("J1", 5): "D1",
              ("J2", 2): "CE1", ("J2", 3): "CE1", ("J2", 5): "D1",
              ("J2", 6): "B1"}
    sequences = {"C1": [("J1", 2)], "E1": [("J1", 3)],
                 "CE1": [("J2", 2), ("J2", 3)],
                 "D1": [("J1", 5), ("J2", 5)],
                 "B1": [("J2", 6), ("J1", 4)]}
    with pytest.raises(CyclicSequenceError):
        earliest_completion(inst, assign, sequences)


def _feasible_base():
    inst = one_job_instance(p=(0, 20, 75, 0, 30, 0))
    assign = {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 5): "D1"}
    return inst, timed(inst, assign)


def violation_ids(inst, sch):
    return [v.constraint_id for v in check_feasibility(inst, sch)]


def test_missing_assignment_flagged():
    inst, sch = _feasible_base()
    del sch.assign[("J1", 3)]
    assert "MissingAssign" in violation_ids(inst, sch)


def test_forbidden_machine_flagged():
    inst, sch = _feasible_base()
    sch.assign[("J1", 5)] = "E1"  # exposure tool cannot develop
    assert "ForbiddenAssign" in violation_ids(inst, sch)


def test_assignment_for_skipped_stage_flagged():
    inst, sch = _feasible_base()
    sch.assign[("J1", 4)] = "B1"
    sch.completion[("J1", 4)] = 95
    assert "ForbiddenAssign" in violation_ids(inst, sch)


def test_ready_violation_flagged():
    inst = one_job_instance(p=(0, 20, 75, 0, 30, 0), ready=50)
    assign = {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 5): "D1"}
    sch = timed(inst, assign)
    sch.completion[("J1", 2)] = 20  # starts at 0 despite ready = 50
    assert "ReadyTime" in violation_ids(inst, sch)


def test_stage_chain_violation_flagged():
    inst, sch = _feasible_base()
    sch.completion[("J1", 5)] = sch.completion[("J1", 3)] + 10
    assert "StageChain" in violation_ids(inst, sch)


def test_ready_violation_names_the_first_needed_stage():
    inst = one_job_instance(p=(0, 20, 75, 0, 30, 0), ready=50)
    assign = {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 5): "D1"}
    sch = timed(inst, assign)
    sch.completion[("J1", 2)] = 60  # stage 1 is skipped; stage 2 starts at 40
    assert check_feasibility(inst, sch) == [
        Violation("ReadyTime", "job J1 stage 2 starts before ready time 50")]


def test_stage_chain_names_the_previous_needed_stage():
    inst = one_job_instance(p=(40, 20, 75, 0, 30, 45))
    assign = {("J1", 1): "S1", ("J1", 2): "C1", ("J1", 3): "E1",
              ("J1", 5): "D1", ("J1", 6): "B1"}
    sch = timed(inst, assign)
    sch.completion[("J1", 5)] = sch.completion[("J1", 3)] + 10  # no stage 4
    assert check_feasibility(inst, sch) == [
        Violation("StageChain", "job J1 stage 5 overlaps its stage-3 work")]


@pytest.mark.parametrize("visit,mid,c", [(("J1", 7), "B1", 145),
                                         (("J1", 0), "S1", 40),
                                         (("J9", 2), "C1", 20)])
def test_visit_outside_the_instance_flagged(visit, mid, c):
    # Before, these raised IndexError or KeyError, or stage 0 was read as
    # stage 6.
    inst, sch = _feasible_base()
    sch.assign[visit] = mid
    sch.completion[visit] = c
    assert check_feasibility(inst, sch) == [
        Violation("ForbiddenAssign", f"job {visit[0]} stage {visit[1]} is no visit of the instance")]


def test_machine_overlap_flagged():
    jobs = (Job("J1", (0, 20, 75, 0, 30, 0)), Job("J2", (0, 20, 75, 0, 30, 0)))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assign = {(j, s): m for j in ("J1", "J2")
              for s, m in ((2, "C1"), (3, "E1"), (5, "D1"))}
    sch = timed(inst, assign)
    sch.completion[("J2", 2)] = 20  # both coats run at [0, 20)
    assert "MachineOverlap" in violation_ids(inst, sch)


def test_cluster_span_violation_flagged():
    inst, sch = _feasible_base()
    sch.assign[("J1", 3)] = "CED1"  # mid-span use without entering at coat
    assert "ClusterSpan" in violation_ids(inst, sch)


def test_cluster_exclusive_violation_flagged():
    jobs = (Job("J1", (0, 20, 75, 0, 30, 0)), Job("J2", (0, 20, 75, 0, 30, 0)))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assign = {(j, s): "CED1" for j in ("J1", "J2") for s in (2, 3, 5)}
    sch = timed(inst, assign)
    for s, c in ((2, 20), (3, 95), (5, 125)):
        sch.completion[("J2", s)] = c  # J2 squeezed into J1's reservation
    assert "ClusterExclusive" in violation_ids(inst, sch)


def test_bake_shared_violation_flagged():
    jobs = (Job("J1", (0, 20, 75, 45, 30, 0)), Job("J2", (0, 20, 75, 0, 30, 45)))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assign = {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 4): "B1", ("J1", 5): "D1",
              ("J2", 2): "CED1", ("J2", 3): "CED1", ("J2", 5): "CED1",
              ("J2", 6): "B1"}
    sch = timed(inst, assign)
    sch.completion[("J2", 6)] = sch.completion[("J1", 4)]  # same oven slot
    assert "BakeShared" in violation_ids(inst, sch)


def test_cluster_route_blocked_for_pre_bake_jobs():
    inst = one_job_instance(p=(0, 20, 75, 45, 30, 0))
    assign = {("J1", 2): "CED1", ("J1", 3): "CED1", ("J1", 4): "B1",
              ("J1", 5): "CED1"}
    sch = timed(inst, assign)
    assert "ForbiddenAssign" in violation_ids(inst, sch)


def test_metrics_and_objectives():
    # J1: C1 0-20, E1 20-95, D1 95-125, due 100, so 25 tardy.
    # J2: ready 10, CED1 10-30-105-135, due 300, so early.
    jobs = (Job("J1", (0, 20, 75, 0, 30, 0), due=100, weight=2),
            Job("J2", (0, 20, 75, 0, 30, 0), ready=10, due=300, weight=3))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assign = {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 5): "D1",
              ("J2", 2): "CED1", ("J2", 3): "CED1", ("J2", 5): "CED1"}
    sch = timed(inst, assign)
    assert check_feasibility(inst, sch) == []
    expected = {Objective.CMAX: 135,
                Objective.WCT: 2 * 125 + 3 * 135,
                Objective.TWT: 2 * 25}
    for kind, value in expected.items():
        assert objective_value(inst, sch, kind) == value
    m = metrics(inst, sch)
    assert (m.cmax, m.wct, m.twt) == tuple(expected.values())
    assert m.tardiness == {"J1": 25, "J2": 0}


def test_schedule_file_round_trip(tmp_path):
    inst = one_job_instance()
    assign = {("J1", 1): "S1", ("J1", 2): "C1", ("J1", 3): "E1",
              ("J1", 4): "B1", ("J1", 5): "D1", ("J1", 6): "B1"}
    sch = timed(inst, assign)
    path = tmp_path / "sched.csv"
    save_schedule(inst, sch, path)
    again = load_schedule(path)
    assert again.assign == sch.assign
    assert again.completion == sch.completion
    assert check_feasibility(inst, again) == []


def test_load_schedule_rejects_a_repeated_visit(tmp_path):
    # Before, the later row silently replaced the earlier one.
    path = tmp_path / "sched.csv"
    path.write_text("job_id,stage,machine_id,start,completion\n"
                    "J1,2,NOPE9,0,20\nJ1,2,C1,0,20\n")
    with pytest.raises(ValueError, match="job J1 stage 2 appears twice"):
        load_schedule(path)


def test_load_schedule_rejects_a_malformed_start(tmp_path):
    # The start column follows from completion but is still parsed.
    path = tmp_path / "sched.csv"
    path.write_text("job_id,stage,machine_id,start,completion\nJ1,2,C1,x,20\n")
    with pytest.raises(ValueError):
        load_schedule(path)
