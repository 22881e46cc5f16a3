"""Domain model: stages, tool classes, routes, instance files."""

import pytest

from photosched.core import (
    CLUSTER_ENTRY,
    STAGE_CLASSES,
    STAGES,
    TOOL_STAGES,
    Instance,
    Job,
    Machine,
    big_m,
    eligible_machines,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    route_options,
    save_instance,
)
from photosched.instgen import equipment


def make_job(p, **kw):
    return Job(id=kw.pop("id", "J1"), p=tuple(p), **kw)


def test_tool_classes_cover_expected_stages():
    assert TOOL_STAGES["B"] == (4, 6)
    assert TOOL_STAGES["CE"] == (2, 3)
    assert TOOL_STAGES["CED"] == (2, 3, 5)
    assert TOOL_STAGES["CEDB"] == (2, 3, 5, 6)
    assert TOOL_STAGES["ED"] == (3, 5)
    assert CLUSTER_ENTRY == {"CE": 2, "CED": 2, "CEDB": 2, "ED": 3}


def test_stage_classes_match_tool_stages():
    for stage in STAGES:
        for cls, covered in TOOL_STAGES.items():
            assert (cls in STAGE_CLASSES[stage]) == (stage in covered)


def test_machine_validation_and_helpers():
    m = Machine("CEDB1", "CEDB")
    assert m.is_cluster
    assert m.covers(6) and not m.covers(4)
    assert not Machine("B1", "B").is_cluster
    with pytest.raises(ValueError):
        Machine("X1", "X")


def test_job_validation():
    with pytest.raises(ValueError):
        Job("J1", (40, 20, 75, 0, 30))  # five stage times
    with pytest.raises(ValueError):
        Job("J1", (40, 20, 75, 0, 30, -1))
    with pytest.raises(ValueError):
        Job("J1", (40, 20, 75, 0, 30, 0), ready=-1)


def test_job_stage_helpers():
    job = make_job((40, 20, 75, 0, 30, 45))
    assert job.stages == (1, 2, 3, 5, 6)
    assert job.duration(3) == 75
    assert job.needs(6) and not job.needs(4)
    assert job.total_time == 210


def test_instance_validation():
    machines = tuple(equipment(2))
    job = make_job((40, 20, 75, 0, 30, 0))
    with pytest.raises(ValueError):
        Instance(jobs=(job, job), machines=machines)
    with pytest.raises(ValueError):
        Instance(jobs=(job,), machines=(Machine("C1", "C"),))
    inst = Instance(jobs=(job,), machines=machines)
    assert inst.job("J1") is job
    assert inst.machine("CE1").tool_class == "CE"
    assert [m.id for m in inst.machines_of_class("B")] == ["B1", "B2"]


@pytest.mark.parametrize("job_ids,bad", [
    (("A", "B_C", "A_B", "C"), "B_C"),  # y_A_B_C would name two job pairs
    (("J1", "J 2"), "J 2"),
    (("J1", "J-2"), "J-2"),
    (("J1", ""), ""),
    (("J1", "J\u00e92"), "J\u00e92"),
])
def test_instance_rejects_job_ids_not_letters_and_digits(job_ids, bad):
    jobs = tuple(make_job((40, 20, 75, 0, 30, 0), id=i) for i in job_ids)
    with pytest.raises(ValueError, match=f"job id {bad!r}"):
        Instance(jobs=jobs, machines=tuple(equipment(2)))


def test_instance_rejects_machine_ids_not_letters_and_digits():
    # A valid park but for the id; the exact layer read x_2_C_a_J1 as
    # machine "C" and job "a_J1".
    machines = tuple(Machine("C_a", "C") if m.id == "C1" else m for m in equipment(2))
    with pytest.raises(ValueError, match="machine id 'C_a'"):
        Instance(jobs=(make_job((40, 20, 75, 45, 30, 45)),), machines=machines)


def test_eligible_machines_per_stage():
    inst = Instance(jobs=(make_job((40, 20, 75, 45, 30, 45)),),
                    machines=tuple(equipment(1)))
    by_stage = {s: sorted(m.id for m in eligible_machines(inst, s))
                for s in STAGES}
    assert by_stage[1] == ["S1", "S2", "S3", "S4"]
    assert by_stage[4] == ["B1", "B2", "B3"]
    assert set(by_stage[2]) == {"C1", "C2", "CE1", "CE2", "CED1", "CED2",
                                "CEDB1", "CEDB2"}
    assert set(by_stage[3]) == {"E1", "E2", "E3", "E4", "CE1", "CE2",
                                "CED1", "CED2", "CEDB1", "CEDB2", "ED1"}
    assert set(by_stage[5]) == {"D1", "D2", "CED1", "CED2", "CEDB1", "CEDB2",
                                "ED1"}
    assert set(by_stage[6]) == {"B1", "B2", "B3", "CEDB1", "CEDB2"}
    with pytest.raises(ValueError):
        eligible_machines(inst, 7)


def test_route_options_full_job():
    # Needs both bakes: the develop-side clusters are ruled out.
    job = make_job((40, 20, 75, 45, 30, 45))
    families = {r.family for r in route_options(job)}
    assert families == {"individual", "CE", "ED"}


def test_route_options_no_pre_bake():
    job = make_job((40, 20, 75, 0, 30, 45))
    families = {r.family for r in route_options(job)}
    assert families == {"individual", "CE", "CED", "CEDB", "ED"}


def test_route_options_no_post_bake():
    # CEDB always runs its final bake, so it needs a stage-6 requirement.
    job = make_job((40, 20, 75, 0, 30, 0))
    families = {r.family for r in route_options(job)}
    assert families == {"individual", "CE", "CED", "ED"}


def test_route_options_requires_core_stages():
    with pytest.raises(ValueError):
        route_options(make_job((40, 0, 75, 0, 30, 0)))


# On park 2 a job without coat used to crash SP/GA in cluster_affinity, and
# one without develop was decoded and "solved" onto CEDB1, which the
# feasibility checker rejects; neither gets past validation now.
@pytest.mark.parametrize("p", [(40, 0, 75, 0, 30, 45),    # no coat
                               (40, 20, 75, 0, 0, 45),    # no develop
                               (40, 20, 0, 0, 30, 45)])   # no expose
def test_instance_rejects_job_without_coat_expose_or_develop(p):
    jobs = (make_job((40, 20, 75, 45, 30, 45), id="J1"), make_job(p, id="J2"))
    with pytest.raises(ValueError, match="job J2"):
        Instance(jobs=jobs, machines=tuple(equipment(2)))


def test_route_stage_class_mapping():
    job = make_job((40, 20, 75, 0, 30, 45))
    by_family = {r.family: r for r in route_options(job)}
    ced = dict(by_family["CED"].stage_class)
    assert ced[2] == "CED"
    assert ced[6] == "B"
    ed = dict(by_family["ED"].stage_class)
    assert ed[2] == "C"  # ED requires an individual coater
    assert ed[3] == "ED"
    assert by_family["individual"].stages == job.stages


def test_big_m_is_total_processing_time():
    jobs = (make_job((40, 20, 75, 45, 30, 45), id="J1"),
            make_job((0, 20, 75, 0, 30, 0), id="J2"))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assert big_m(inst) == 255 + 125


def test_big_m_adds_latest_ready_time():
    jobs = (make_job((40, 20, 75, 45, 30, 45), id="J1", ready=30),
            make_job((0, 20, 75, 0, 30, 0), id="J2", ready=191))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    assert big_m(inst) == 255 + 125 + 191


def test_instance_round_trip(tmp_path):
    jobs = (make_job((40, 20, 75, 0, 30, 45), ready=10, due=200, weight=3),)
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)), label="rt")
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    again = load_instance(path)
    assert again == inst


def test_instance_file_version_checked():
    data = instance_to_dict(
        Instance(jobs=(make_job((0, 20, 75, 0, 30, 0)),),
                 machines=tuple(equipment(2))))
    data["version"] = 99
    with pytest.raises(ValueError):
        instance_from_dict(data)
