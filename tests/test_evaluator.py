"""Feasibility checking, semi-active timing, metrics, schedule files."""

import hashlib
import random

import pytest

from photosched.core import Instance, Job, Objective
from photosched.decoder import decoder_for
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
from photosched.instgen import GenConfig, ReadyScenario, equipment, generate_instance


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


def test_skipped_stages_carry_completion_forward():
    inst = one_job_instance(p=(0, 20, 75, 0, 30, 0), ready=7)
    assign = {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 5): "D1"}
    sch = timed(inst, assign)
    assert check_feasibility(inst, sch) == []
    assert sch.completion[("J1", 2)] == 27  # chain starts at the ready time
    assert sch.completion[("J1", 5)] == 132  # the job's last needed stage
    assert sch.completion[("J1", 3)] == 102  # skipped stage 4 takes no time


def test_a_visit_at_a_skipped_stage_is_timed_as_a_chain_of_its_own():
    inst = one_job_instance(p=(0, 20, 75, 0, 30, 0), ready=7)
    assign = {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 4): "B1", ("J1", 5): "D1"}
    sch = timed(inst, assign)
    # Stage 4 takes no time and waits only on the ready time; the job's
    # needed stages chain as if it were absent.
    assert sch.completion == {("J1", 2): 27, ("J1", 3): 102, ("J1", 4): 7,
                              ("J1", 5): 132}
    assert check_feasibility(inst, sch) == [
        Violation("ForbiddenAssign", "job J1 stage 4 assigned but needs no processing")]


def test_two_jobs_share_a_machine_in_sequence():
    jobs = (Job("J1", (0, 20, 75, 0, 30, 0)), Job("J2", (0, 20, 75, 0, 30, 0)))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assign = {(j, s): m for j in ("J1", "J2")
              for s, m in ((2, "C1"), (3, "E1"), (5, "D1"))}
    sch = timed(inst, assign)
    assert check_feasibility(inst, sch) == []
    assert sch.completion[("J2", 2)] == 40  # waits for J1 on the only coater
    assert sch.completion[("J2", 3)] == 95 + 75  # exposes after J1 leaves E1
    assert sch.completion[("J2", 5)] == 200


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
    assert sch.completion[("J2", 5)] == 250


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


def test_missing_completion_flagged():
    inst, sch = _feasible_base()
    del sch.completion[("J1", 3)]
    assert check_feasibility(inst, sch) == [
        Violation("MissingAssign", "job J1 stage 3 has no completion time")]


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


def test_cluster_entered_but_left_early_flagged():
    inst = one_job_instance(p=(0, 20, 75, 0, 30, 0))
    assign = {("J1", 2): "CED1", ("J1", 3): "E1", ("J1", 5): "D1"}
    sch = timed(inst, assign)
    assert check_feasibility(inst, sch) == [
        Violation("ClusterSpan", "job J1 enters CED1 at stage 2 but stage 3 is elsewhere"),
        Violation("ClusterSpan", "job J1 enters CED1 at stage 2 but stage 5 is elsewhere")]


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


def test_load_schedule_checks_starts_against_the_instance(tmp_path):
    # Stage 2 takes 20 minutes, so a row completing at 60 starts at 40.
    inst = one_job_instance()
    path = tmp_path / "sched.csv"
    path.write_text("job_id,stage,machine_id,start,completion\nJ1,2,C1,0,60\n")
    assert load_schedule(path).completion == {("J1", 2): 60}  # no instance: no check
    with pytest.raises(ValueError, match="^schedule: job J1 stage 2 starts at 0, "
                                         "not at completion 60 minus stage time 20$"):
        load_schedule(path, inst)
    path.write_text("job_id,stage,machine_id,start,completion\nJ1,2,C1,40,60\n")
    assert load_schedule(path, inst).completion == {("J1", 2): 60}


def test_load_schedule_rejects_a_malformed_start(tmp_path):
    # The start column follows from completion but is still parsed.
    path = tmp_path / "sched.csv"
    path.write_text("job_id,stage,machine_id,start,completion\nJ1,2,C1,x,20\n")
    with pytest.raises(ValueError):
        load_schedule(path)



def _schedule_file_case(case):
    """(instance, schedule) of one golden schedule file: a decoded random
    order at n jobs on a park, or one of two hand-built schedules."""
    if case == "ties":
        # Both jobs on C1 then E1 at the same times: rows order by machine,
        # start, then job id as text (J10 before J2).
        inst = Instance(jobs=(Job("J2", (0, 20, 75, 0, 30, 0)),
                              Job("J10", (0, 20, 75, 0, 30, 0))),
                        machines=tuple(equipment(2)))
        visits = {2: ("C1", 20), 3: ("E1", 95), 5: ("D1", 125)}
        return inst, Schedule({(j, s): m for j in ("J2", "J10") for s, (m, _) in visits.items()},
                              {(j, s): c for j in ("J2", "J10") for s, (_, c) in visits.items()})
    if case == "unchecked":
        # Machine ids a hand-built Schedule does not check; csv quotes them.
        inst = one_job_instance()
        sch = timed(inst, {("J1", 1): "S1", ("J1", 2): "C1", ("J1", 3): "E1",
                           ("J1", 4): "B1", ("J1", 5): "D1", ("J1", 6): "B1"})
        sch.assign.update({("J1", 1): 'X,"9', ("J1", 4): "B 1", ("J1", 6): "B\n1"})
        return inst, sch
    n, park = case
    inst = generate_instance(GenConfig(n=n, ready_scenario=ReadyScenario.MIXED_30_70,
                                       equipment=park, seed=31 * n + park))
    order = random.Random(f"{n}:{park}").sample([j.id for j in inst.jobs], n)
    return inst, decoder_for(inst).schedule(order)


# First 16 hex digits of the SHA-256 of `save_schedule`'s file per case:
# n = 1..15 on both parks, then the hand-built ones.
GOLDEN_SCHEDULE_FILES = {
    (1, 1): "feff804003f5610b",
    (1, 2): "db6dba7230ba7775",
    (2, 1): "c6f5f38a40ff1c2c",
    (2, 2): "1c6f7696a29a3590",
    (3, 1): "dd262d98b8d40b05",
    (3, 2): "e58411dbdc2edd7f",
    (4, 1): "2da9f73b71d46161",
    (4, 2): "3eb2f880905e7c14",
    (5, 1): "270bd7e97e068665",
    (5, 2): "0eefe48aae8f8019",
    (6, 1): "f46a2d464276e5c5",
    (6, 2): "1a7b8872d37feffb",
    (7, 1): "f1e141337680a9f8",
    (7, 2): "567c06ce6f7e678a",
    (8, 1): "4ddf76e855fb611d",
    (8, 2): "b8398989b78ed24a",
    (9, 1): "44b43ea17ae44c9b",
    (9, 2): "4a09b5ebf94c92db",
    (10, 1): "ed97235df607bcd0",
    (10, 2): "6f4ede3679ed5238",
    (11, 1): "84a25f7a4ec00730",
    (11, 2): "09f96d5ac6c5ea97",
    (12, 1): "59efbe15d471dba7",
    (12, 2): "2079371918da091d",
    (13, 1): "4f2a917103ea4cdf",
    (13, 2): "5a0516554dfaf0db",
    (14, 1): "f87e540b3650d6e6",
    (14, 2): "c7fb40ac7f6dbdc3",
    (15, 1): "e98bdebdc00aa53e",
    (15, 2): "1325a34393bd84c9",
    "ties": "62fbaa7fe0e5a15a",
    "unchecked": "6c37bfa238235ce6",
}


@pytest.mark.parametrize("case", list(GOLDEN_SCHEDULE_FILES))
def test_golden_schedule_files(tmp_path, case):
    path = tmp_path / "sched.csv"
    save_schedule(*_schedule_file_case(case), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == GOLDEN_SCHEDULE_FILES[case]
