"""Greedy permutation decoding."""

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from photosched import core, exact, search
from photosched import decoder as decoder_module
from photosched.core import (
    CLUSTER_ENTRY,
    TOOL_STAGES,
    Instance,
    Job,
    Machine,
    Objective,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    park_routes,
    route_options,
    save_instance,
)
from photosched.decoder import (
    DecodeError,
    Decoder,
    JobOrder,
    cluster_affinity,
    decode,
    decoder_for,
)
from photosched.evaluator import (
    Schedule,
    check_feasibility,
    earliest_completion,
    load_schedule,
    metrics,
    objective_value,
    save_schedule,
)
from photosched.exact import solve_exact
from photosched.instgen import GenConfig, ReadyScenario, equipment, generate_instance
from photosched.search import GAConfig, SPConfig, run_ga, run_sp, sp_initial_order


def test_job_order_rejects_duplicates():
    with pytest.raises(ValueError):
        JobOrder(("J1", "J1"))
    order = JobOrder(("J2", "J1"))
    assert list(order) == ["J2", "J1"]
    assert len(order) == 2


def test_decode_rejects_non_permutations():
    inst = generate_instance(GenConfig(n=3, equipment=2, seed=0))
    with pytest.raises(DecodeError):
        decode(inst, JobOrder(("J1", "J2")), Objective.CMAX)


def test_cluster_affinity_counts_usable_cluster_machines():
    inst = Instance(jobs=(Job("JA", (0, 20, 75, 0, 30, 45)),
                          Job("JB", (0, 20, 75, 45, 30, 45))),
                    machines=tuple(equipment(1)))
    # JA may use any cluster family: 2 CE + 2 CED + 2 CEDB + 1 ED.
    assert cluster_affinity(inst, inst.job("JA")) == 7
    # JB needs the pre-develop bake, leaving only CE and ED tools.
    assert cluster_affinity(inst, inst.job("JB")) == 3


def test_single_job_decode_uses_full_chain():
    inst = Instance(jobs=(Job("J1", (40, 20, 75, 45, 30, 45)),),
                    machines=tuple(equipment(1)))
    sch, value = decode(inst, JobOrder(("J1",)), Objective.CMAX)
    assert value == 255
    assert check_feasibility(inst, sch) == []


def test_decode_prefers_cluster_on_availability_tie():
    # One job, everything idle: the widest available tool wins the tie.
    inst = Instance(jobs=(Job("J1", (0, 20, 75, 0, 30, 45)),),
                    machines=tuple(equipment(2)))
    sch, _ = decode(inst, JobOrder(("J1",)), Objective.CMAX)
    assert sch.assign[("J1", 2)] == "CEDB1"
    assert sch.assign[("J1", 6)] == "CEDB1"


def test_decode_spills_to_individual_machines_under_load():
    jobs = tuple(Job(f"J{i}", (0, 20, 75, 0, 30, 0)) for i in range(1, 4))
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    sch, value = decode(inst, JobOrder(("J1", "J2", "J3")), Objective.CMAX)
    assert check_feasibility(inst, sch) == []
    # With the clusters busy, later jobs run on the individual line instead
    # of queueing, so the three jobs overlap.
    used = {sch.assign[(j.id, 2)] for j in jobs}
    assert len(used) == 3
    assert value < 3 * 125


def test_decode_respects_bake_route_restriction():
    jobs = tuple(Job(f"J{i}", (0, 20, 75, 45, 30, 45)) for i in range(1, 5))
    inst = Instance(jobs=jobs, machines=tuple(equipment(1)))
    sch, _ = decode(inst, JobOrder(tuple(j.id for j in jobs)), Objective.CMAX)
    assert check_feasibility(inst, sch) == []
    for j in jobs:
        cls = inst.machine(sch.assign[(j.id, 2)]).tool_class
        assert cls not in ("CED", "CEDB")


def test_decode_ed_requires_individual_coat():
    inst = generate_instance(GenConfig(n=6, equipment=1, seed=11))
    order = JobOrder(tuple(j.id for j in inst.jobs))
    sch, _ = decode(inst, order, Objective.CMAX)
    for j in inst.jobs:
        if inst.machine(sch.assign[(j.id, 3)]).tool_class == "ED":
            assert inst.machine(sch.assign[(j.id, 2)]).tool_class == "C"


def test_an_ed_hold_lasts_across_the_pre_develop_bake():
    # Stage 5 has no candidate in this park's table (no individual
    # developer): the lot must come back to ED1 after its oven visit, so
    # picking B1 at stage 4 keeps the hold taken at stage 3.
    machines = tuple(Machine(m, m[:-1]) for m in ("S1", "C1", "ED1", "B1"))
    jobs = (Job("J1", (0, 20, 75, 45, 30, 0)), Job("J2", (40, 20, 75, 45, 30, 0)))
    inst = Instance(jobs=jobs, machines=machines)
    assert inst.park.pattern(jobs[0].stages).candidates[-1] == ()
    sch, value = decode(inst, JobOrder(("J1", "J2")), Objective.CMAX)
    for job in jobs:
        assert (sch.assign[(job.id, 3)], sch.assign[(job.id, 4)],
                sch.assign[(job.id, 5)]) == ("ED1", "B1", "ED1")
    assert value == 320
    assert check_feasibility(inst, sch) == []


def test_the_first_free_candidate_wins_over_one_free_for_longer():
    # When J3 reaches stage 3 at 120, E1 has been free since 50 and E2
    # since 45: both can start it at once, and E1 comes first in the list.
    machines = tuple(Machine(m, m[:-1]) for m in ("S1", "C1", "E1", "E2", "D1"))
    jobs = (Job("J1", (0, 20, 30, 0, 30, 0)), Job("J2", (0, 20, 5, 0, 30, 0)),
            Job("J3", (0, 20, 75, 0, 30, 0), ready=100))
    inst = Instance(jobs=jobs, machines=machines)
    sch, _ = decode(inst, JobOrder(("J1", "J2", "J3")), Objective.CMAX)
    assert (sch.completion[("J1", 3)], sch.completion[("J2", 3)]) == (50, 45)
    assert sch.assign[("J3", 3)] == "E1"


def test_decode_always_feasible_randomized():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.choice([2, 5, 9])
        inst = generate_instance(
            GenConfig(n=n, ready_scenario=ReadyScenario.MIXED_30_70,
                      equipment=rng.choice([1, 2]), seed=rng.randrange(10**6)))
        ids = [j.id for j in inst.jobs]
        rng.shuffle(ids)
        sch, value = decode(inst, JobOrder(tuple(ids)), Objective.CMAX)
        assert check_feasibility(inst, sch) == []
        assert value >= max(j.ready + j.total_time for j in inst.jobs)


def test_decoded_sequences_survive_retiming_and_file_round_trip(tmp_path):
    rng = random.Random(17)
    path = tmp_path / "schedule.csv"
    for _ in range(40):
        inst = generate_instance(
            GenConfig(n=rng.choice([2, 5, 9]),
                      ready_scenario=rng.choice(list(ReadyScenario)),
                      equipment=rng.choice([1, 2]), seed=rng.randrange(10**6)))
        ids = [j.id for j in inst.jobs]
        rng.shuffle(ids)
        sch, _ = decode(inst, JobOrder(tuple(ids)), Objective.CMAX)
        retimed = earliest_completion(inst, sch.assign, sch.sequences)
        assert retimed.sequences == sch.sequences
        save_schedule(inst, sch, path)
        assert load_schedule(path).sequences == sch.sequences


def test_decode_deterministic():
    inst = generate_instance(GenConfig(n=7, equipment=1, seed=3))
    order = JobOrder(tuple(j.id for j in inst.jobs))
    a = decode(inst, order, Objective.WCT)
    b = decode(inst, order, Objective.WCT)
    assert a[1] == b[1]
    assert a[0].assign == b[0].assign
    assert a[0].completion == b[0].completion


def entry_classes(instance, job, stage):
    """The classes that begin, at `stage`, a route of `job` that the park
    realizes: it has a machine of every class on the route."""
    present = {m.tool_class for m in instance.machines}
    return {cls for route in route_options(job)
            if all(c in present for _, c in route.stage_class)
            for s, cls in route.stage_class
            if s == stage and CLUSTER_ENTRY.get(cls, s) == s}


def reference_schedule(instance, order):
    """The greedy rule written directly: every stage rescans the machines.

    Returns the schedule and each machine's visits in placement order.
    """
    free = {m.id: 0 for m in instance.machines}
    assign, completion = {}, {}
    sequences = {m.id: [] for m in instance.machines}
    for job_id in order:
        job = instance.job(job_id)
        committed = {}  # covered stages from a cluster pick
        prev_c = job.ready
        for stage in job.stages:
            if stage in committed:
                mid, start = committed[stage], prev_c
            else:
                classes = entry_classes(instance, job, stage)
                cands = [m for m in instance.machines if m.tool_class in classes]
                best = min(cands, key=lambda m: (max(free[m.id], prev_c),
                                                 -len(m.covered_stages), m.id))
                mid = best.id
                start = max(free[mid], prev_c)
                if best.is_cluster:
                    committed.update((cov, mid) for cov in best.covered_stages
                                     if cov > stage)
            completion[(job_id, stage)] = free[mid] = prev_c = start + job.duration(stage)
            assign[(job_id, stage)] = mid
            sequences[mid].append((job_id, stage))
    return (Schedule(assign=assign, completion=completion),
            {m: v for m, v in sequences.items() if v})


@st.composite
def instance_orders(draw):
    inst = generate_instance(GenConfig(
        n=draw(st.integers(1, 30)),
        ready_scenario=draw(st.sampled_from(list(ReadyScenario))),
        T=draw(st.sampled_from([0.3, 0.6])), R=draw(st.sampled_from([0.5, 2.5])),
        equipment=draw(st.sampled_from([1, 2])),
        seed=draw(st.integers(0, 2**32 - 1))))
    return inst, tuple(draw(st.permutations([j.id for j in inst.jobs])))


@settings(max_examples=80, deadline=None)
@given(instance_orders())
def test_decoder_score_matches_built_schedule(case):
    inst, order = case
    decoder = Decoder(inst)
    sch = decoder.schedule(order)
    reference, placed = reference_schedule(inst, order)
    assert sch == reference
    assert sch.sequences == placed
    assert sch == decode(inst, JobOrder(order), Objective.CMAX)[0]
    assert check_feasibility(inst, sch) == []
    m = metrics(inst, sch)
    for kind in Objective:
        assert decoder.score(order, kind) == objective_value(inst, sch, kind)
        assert decoder.lower_bound(kind) <= getattr(m, kind.value)


@settings(max_examples=40, deadline=None)
@given(instance_orders())
def test_decoder_rejects_non_permutations(case):
    inst, order = case
    bad = [order[:-1], order + ("X",), order[:-1] + ("X",), order + order[:1]]
    if len(order) > 1:
        bad.append(order[:-1] + order[:1])  # duplicate of the same length
    decoder = Decoder(inst)
    for wrong in bad:
        with pytest.raises(DecodeError):
            decoder.score(wrong, Objective.TWT)
        with pytest.raises(DecodeError):
            decoder.schedule(wrong)
        with pytest.raises(DecodeError):
            decode(inst, wrong, Objective.CMAX)


def _counted_inits(monkeypatch):
    decoder_for.cache_clear()
    sp_initial_order.cache_clear()
    inits = []
    init = Decoder.__init__

    def counted(self, instance):
        inits.append(instance)
        init(self, instance)

    monkeypatch.setattr(Decoder, "__init__", counted)
    return inits


def _cache_instance(mc, seed):
    return generate_instance(GenConfig(n=3, ready_scenario=ReadyScenario.MIXED_30_70,
                                       T=0.6, R=2.5, equipment=mc, seed=seed))


def _solves(instance):
    out = []
    for kind in Objective:
        out.append(run_sp(instance, kind, SPConfig(max_iterations=50, seed=1)))
        out.append(run_ga(instance, kind, GAConfig(pop_size=10, max_generations=10,
                                                   stall_window=5, seed=1)))
        out.append(solve_exact(instance, kind, time_limit=60))
        out.append(decode(instance, sp_initial_order(instance), kind))
    return out


def test_one_decoder_per_instance_across_solvers(monkeypatch):
    inst = _cache_instance(2, 7)
    inits = _counted_inits(monkeypatch)
    _solves(inst)
    assert inits == [inst]
    assert sp_initial_order.cache_info().misses == 1


def test_shared_decoder_gives_the_results_of_uncached_builds(monkeypatch):
    a, b = _cache_instance(2, 7), _cache_instance(1, 8)
    a_copy = instance_from_dict(instance_to_dict(a))
    assert a_copy == a and a_copy is not a
    runs = (a, b, a, a_copy)
    for module in (decoder_module, search, exact):
        monkeypatch.setattr(module, "decoder_for", Decoder)
    for module in (search, exact):
        monkeypatch.setattr(module, "sp_initial_order", sp_initial_order.__wrapped__)
    uncached = [_solves(inst) for inst in runs]
    monkeypatch.undo()
    inits = _counted_inits(monkeypatch)
    assert [_solves(inst) for inst in runs] == uncached
    # B displaces A; its equal copy then shares A's second build.
    assert inits == [a, b, a]


def test_stage_times_given_as_a_list_are_kept_as_a_hashable_tuple():
    # The per-instance caches hash the instance, and so every job's times.
    inst = Instance(jobs=(Job("J1", [0, 20, 75, 0, 30, 0]),),
                    machines=tuple(equipment(2)))
    assert inst.jobs[0].p == (0, 20, 75, 0, 30, 0)
    _, value, _ = run_sp(inst, Objective.CMAX, SPConfig(max_iterations=5))
    assert value == 125


# Hand-built parks for the shared routing tables: machines in any order, a
# class missing or doubled.  Stage times follow the design (coat, expose
# and develop always; sink and the two bakes optional).
PARK_CLASSES = tuple(TOOL_STAGES)
STAGE_OPTIONAL = (40, 0, 0, 45, 0, 45)
STAGE_FIXED = (0, 20, 75, 0, 30, 0)


@st.composite
def shared_park_instances(draw):
    counts = {cls: draw(st.integers(1, 2)) for cls in PARK_CLASSES}
    counts[draw(st.sampled_from(PARK_CLASSES))] = 0
    machines = draw(st.permutations([Machine(f"{cls}{i}", cls)
                                     for cls, k in counts.items()
                                     for i in range(1, k + 1)]))
    present = {m.tool_class for m in machines}

    def jobs(prefix):
        out = []
        for k in range(draw(st.integers(1, 4))):
            p = tuple(fixed + (draw(st.sampled_from((0, opt))) if opt else 0)
                      for fixed, opt in zip(STAGE_FIXED, STAGE_OPTIONAL))
            job = Job(f"{prefix}{k}", p, ready=draw(st.integers(0, 60)),
                      due=draw(st.integers(0, 400)), weight=draw(st.integers(1, 5)))
            if any(all(cls in present for _, cls in r.stage_class)
                   for r in route_options(job)):
                out.append(job)
        assume(out)
        return tuple(out)

    # The second instance gets an equal copy of the park, not the same tuple.
    return (Instance(jobs=jobs("A"), machines=tuple(machines)),
            Instance(jobs=jobs("B"), machines=tuple(Machine(m.id, m.tool_class)
                                                    for m in machines)))


def _decoder_results(decoder, instance):
    ids = [j.id for j in instance.jobs]
    orders = [tuple(ids), tuple(reversed(ids))]
    return [(decoder.schedule(order), [decoder.score(order, kind) for kind in Objective])
            for order in orders] + [[decoder.lower_bound(kind) for kind in Objective]]


def _fresh(instance):
    """An equal instance with a table of its own."""
    core._park.cache_clear()
    fresh = Instance(jobs=instance.jobs, machines=instance.machines, label=instance.label)
    assert fresh.park is not instance.park
    return fresh


@settings(max_examples=60, deadline=None)
@given(shared_park_instances())
def test_instances_on_one_park_share_tables_that_change_no_result(pair):
    assert pair[0].park is pair[1].park  # one table for both
    shared = [Decoder(inst) for inst in pair]
    for inst, decoder in zip(pair, shared):
        fresh = _fresh(inst)
        assert _decoder_results(decoder, inst) == _decoder_results(Decoder(fresh), fresh)
        order = [j.id for j in inst.jobs]
        assert decoder.schedule(order) == reference_schedule(inst, order)[0]
        for job in inst.jobs:
            families = {r.family for r in park_routes(inst, job)}
            assert cluster_affinity(inst, job) == sum(
                1 for m in inst.machines if m.is_cluster and m.tool_class in families)


def test_an_equal_instance_from_file_gets_the_same_decoder(tmp_path):
    inst = generate_instance(GenConfig(n=5, equipment=1, seed=4))
    decoder_for.cache_clear()
    decoder = decoder_for(inst)
    save_instance(inst, tmp_path / "inst.json")
    again = load_instance(tmp_path / "inst.json")
    assert again == inst and again is not inst
    assert hash(again) == hash(inst) == hash((inst.jobs, inst.machines, inst.label))
    assert decoder_for(again) is decoder


def test_a_reordered_park_gets_its_own_table():
    core._park.cache_clear()
    inst = generate_instance(GenConfig(n=5, equipment=2, seed=4))
    flipped = Instance(jobs=inst.jobs, machines=inst.machines[::-1])
    assert core._park.cache_info().currsize == 2
    assert flipped.park is not inst.park
    # The machine indices differ, the greedy choice does not.
    order = [j.id for j in inst.jobs]
    assert Decoder(flipped).schedule(order) == Decoder(inst).schedule(order)


def _hundred_instances():
    return [generate_instance(GenConfig(n=1 + k % 9, ready_scenario=list(ReadyScenario)[k % 2],
                                        equipment=1 + k // 50, seed=k))
            for k in range(100)]


def test_park_tables_stay_bounded_over_generated_instances():
    core._park.cache_clear()
    for inst in _hundred_instances():
        decode(inst, sp_initial_order(inst), Objective.TWT)
    assert core._park.cache_info().currsize == 2
    for mc in (1, 2):
        park = core._park(tuple(equipment(mc)))
        assert 1 <= len(park.patterns) <= 64
    assert core._park.cache_info().currsize == 2


def test_decoders_read_routes_once_per_park_and_stage_pattern(monkeypatch):
    tabled = Counter()
    routes = core._routes

    def counted(stages):
        tabled[stages] += 1
        return routes(stages)

    monkeypatch.setattr(core, "_routes", counted)
    core._park.cache_clear()
    instances = _hundred_instances()  # validation reads routes per job
    for inst in instances:
        Decoder(inst)
        for job in inst.jobs:
            cluster_affinity(inst, job)
    parks = {id(inst.park): inst.park for inst in instances}
    assert len(parks) == 2
    assert tabled and sum(tabled.values()) == sum(len(p.patterns) for p in parks.values())


def test_a_built_instance_reads_its_table_without_a_park_lookup():
    inst = generate_instance(GenConfig(n=5, equipment=1, seed=4))
    sp_initial_order.cache_clear()
    before = core._park.cache_info()
    for job in inst.jobs:
        cluster_affinity(inst, job)
    sp_initial_order(inst)
    after = core._park.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
