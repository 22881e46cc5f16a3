"""Optimal solver, literal model export, LP writing, cross-validation.

The frozen optima below were computed by the exhaustive enumeration
helper in enumeration.py, independently of the solver under test.
"""

import hashlib
import math
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from enumeration import brute_force
from photosched import exact
from photosched.core import Instance, Job, Machine, Objective
from photosched.decoder import Decoder, JobOrder, decode
from photosched.evaluator import check_feasibility, objective_value
from photosched.exact import (
    INFEASIBLE,
    OPTIMAL,
    TIMED_OUT,
    SolverError,
    check_values,
    export_milp,
    schedule_to_values,
    solve_exact,
    write_lp,
)
from photosched.instgen import GenConfig, ReadyScenario, equipment, generate_instance
from photosched.search import sp_initial_order

# Enumerated optima for fixed generated instances (equipment scenario 2).
FROZEN_OPTIMA = {
    (1, 3): {"cmax": 210, "wct": 840, "twt": 228},
    (2, 7): {"cmax": 255, "wct": 1485, "twt": 242},
    (3, 1): {"cmax": 255, "wct": 1690, "twt": 437},
}


@pytest.mark.parametrize("n,seed", sorted(FROZEN_OPTIMA))
@pytest.mark.parametrize("kind", list(Objective))
def test_solve_exact_matches_enumerated_optima(n, seed, kind):
    inst = generate_instance(GenConfig(n=n, equipment=2, seed=seed))
    result = solve_exact(inst, kind, time_limit=60)
    assert result.status == OPTIMAL
    assert result.value == FROZEN_OPTIMA[(n, seed)][kind.value]
    assert check_feasibility(inst, result.schedule) == []


def test_solve_exact_single_job_all_objectives():
    inst = Instance(jobs=(Job("J1", (40, 20, 75, 45, 30, 45), due=200, weight=2),),
                    machines=tuple(equipment(2)))
    for kind, expected in ((Objective.CMAX, 255), (Objective.WCT, 510),
                           (Objective.TWT, 110)):
        result = solve_exact(inst, kind)
        assert result.status == OPTIMAL
        assert result.value == expected


def test_solve_exact_respects_ready_times():
    jobs = (Job("J1", (0, 20, 75, 0, 30, 0), ready=500),)
    inst = Instance(jobs=jobs, machines=tuple(equipment(2)))
    result = solve_exact(inst, Objective.CMAX)
    assert result.value == 625


def test_export_counts_are_stable():
    inst = generate_instance(GenConfig(n=5, equipment=1, seed=0))
    assert export_milp(inst, Objective.CMAX).counts == (1180, 31, 200, 231)
    assert export_milp(inst, Objective.WCT).counts == (1175, 31, 200, 231)
    assert export_milp(inst, Objective.TWT).counts == (1180, 36, 200, 236)


def test_export_model_accepts_optimal_schedules():
    for seed in (2, 5):
        inst = generate_instance(GenConfig(n=3, equipment=2, seed=seed))
        for kind in Objective:
            model = export_milp(inst, kind)
            result = solve_exact(inst, kind, time_limit=60)
            values = schedule_to_values(inst, result.schedule, model)
            assert check_values(model, values) == []


def test_export_model_accepts_decoded_schedules():
    inst = generate_instance(GenConfig(n=4, equipment=1, seed=6))
    model = export_milp(inst, Objective.CMAX)
    sch, _ = decode(inst, sp_initial_order(inst), Objective.CMAX)
    values = schedule_to_values(inst, sch, model)
    assert check_values(model, values) == []


def test_export_model_accepts_late_ready_jobs():
    # J2 is ready at 191 and completes at 446, past the total processing
    # time (425); the big-M must also cover the latest ready time.
    inst = Instance(jobs=(Job("J1", (0, 20, 75, 0, 30, 45), ready=0, due=176, weight=4),
                          Job("J2", (40, 20, 75, 45, 30, 45), ready=191, due=152,
                              weight=3)),
                    machines=tuple(equipment(1)))
    for order in (("J1", "J2"), ("J2", "J1")):
        for kind in Objective:
            model = export_milp(inst, kind)
            sch, _ = decode(inst, JobOrder(order), kind)
            assert check_values(model, schedule_to_values(inst, sch, model)) == []


def test_export_model_rejects_tampered_schedules():
    inst = generate_instance(GenConfig(n=3, equipment=2, seed=2))
    model = export_milp(inst, Objective.CMAX)
    sch, _ = decode(inst, sp_initial_order(inst), Objective.CMAX)
    values = schedule_to_values(inst, sch, model)
    first = inst.jobs[0]
    values[f"C_3_{first.id}"] = values[f"C_2_{first.id}"] + 70.0
    violated = check_values(model, values)  # expose needs 75 after coat
    assert any(name.startswith("chain_3") for name in violated)


def test_model_objective_value_matches_schedule():
    inst = generate_instance(GenConfig(n=3, equipment=2, seed=4))
    for kind in Objective:
        model = export_milp(inst, kind)
        result = solve_exact(inst, kind, time_limit=60)
        values = schedule_to_values(inst, result.schedule, model)
        total = sum(c * values[v] for v, c in model.objective.items())
        assert total == result.value


# First 16 hex digits of the SHA-256 of the LP text of generated instances
# with mixed ready times (seed 10 n + park): (n, park) -> objective -> digest.
GOLDEN_LP = {
    (2, 1): {"cmax": "5a24d23083a9e8f7", "wct": "b9e1e9e6fd17ac56", "twt": "475bcd547ad0daba"},
    (2, 2): {"cmax": "833fda34cde83470", "wct": "b22eb2562e96db61", "twt": "fe3fe8574d51c2bf"},
    (5, 1): {"cmax": "ad7e8e1a02392de7", "wct": "69116df9f39235ef", "twt": "91c2ef0d8d58343a"},
    (5, 2): {"cmax": "80d9e63bad679333", "wct": "567bc206aa2acc9f", "twt": "d96a55983e4f5655"},
}


@pytest.mark.parametrize("n,mc", sorted(GOLDEN_LP))
def test_golden_lp_export(n, mc):
    inst = generate_instance(GenConfig(n=n, ready_scenario=ReadyScenario.MIXED_30_70,
                                       equipment=mc, seed=10 * n + mc))
    assert any(job.ready for job in inst.jobs)
    digests = {kind.value: hashlib.sha256(
                   write_lp(export_milp(inst, kind)).encode()).hexdigest()[:16]
               for kind in Objective}
    assert digests == GOLDEN_LP[(n, mc)]


# The same digests for the instances of GOLDEN_LP drawn with every ready
# time zero: (n, park) -> objective -> digest.
GOLDEN_LP_ZERO_READY = {
    (2, 1): {"cmax": "ea2d0b20999e48ce", "wct": "2b760c5ebca18e18", "twt": "3715b0ec7ea37820"},
    (2, 2): {"cmax": "9b3dec40aac5df81", "wct": "084c630b5bbadcfe", "twt": "4ab899ddd8ad969c"},
    (5, 1): {"cmax": "73feddd049fc77e5", "wct": "4e130903a66dd948", "twt": "e7586fdc55b00591"},
    (5, 2): {"cmax": "57ed4f9b97165d75", "wct": "dd9e7fc2b86273db", "twt": "a72b391ec15b4ea7"},
}


@pytest.mark.parametrize("n,mc", sorted(GOLDEN_LP_ZERO_READY))
def test_golden_lp_export_zero_ready(n, mc):
    inst = generate_instance(GenConfig(n=n, ready_scenario=ReadyScenario.ALL_ZERO,
                                       equipment=mc, seed=10 * n + mc))
    assert not any(job.ready for job in inst.jobs)
    digests = {kind.value: hashlib.sha256(
                   write_lp(export_milp(inst, kind)).encode()).hexdigest()[:16]
               for kind in Objective}
    assert digests == GOLDEN_LP_ZERO_READY[(n, mc)]


def _highs_inputs_digest(instance, model) -> str:
    """First 16 hex digits of the SHA-256 of what HiGHS receives for the model:
    c, the constraint matrix in the CSC form `milp` hands over, row bounds,
    integrality, variable bounds and options."""
    calls = []

    def record(**kwargs):
        calls.append(kwargs)
        return SimpleNamespace(status=2, message="recorded", x=None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "milp", record)
        exact._solve(instance, model, None)
    (kw,) = calls
    A = sparse.csc_array(kw["constraints"].A)
    digest = hashlib.sha256(repr((A.shape, sorted(kw["options"].items()))).encode())
    for arr, dtype in ((kw["c"], float), (A.indptr, np.int64), (A.indices, np.int64),
                       (A.data, float), (kw["constraints"].lb, float),
                       (kw["constraints"].ub, float), (kw["integrality"], float),
                       (kw["bounds"].lb, float), (kw["bounds"].ub, float)):
        digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return digest.hexdigest()[:16]


# HiGHS input digests for the instances of GOLDEN_LP, per model:
# (n, park) -> model -> objective -> digest.
GOLDEN_HIGHS = {
    (2, 1): {"literal": {"cmax": "52e5390aee61c32b", "wct": "d11bb7afb551999f",
                         "twt": "dec8f8f37ef354e8"},
             "internal": {"cmax": "91f1d61ba8fab767", "wct": "d160070b85b357d7",
                          "twt": "a3ee522702fdf383"}},
    (2, 2): {"literal": {"cmax": "3a804f49238bab85", "wct": "2ae2539daff0a3ef",
                         "twt": "c8157fc3dfaef38b"},
             "internal": {"cmax": "9dd213d299b98024", "wct": "6f728f214efc96e7",
                          "twt": "391e89af9bad1867"}},
    (5, 1): {"literal": {"cmax": "c0bc34e5f22d0edf", "wct": "a5455bb46f466462",
                         "twt": "1a3ec12beb26b5a2"},
             "internal": {"cmax": "048c4f7d15aeb687", "wct": "6800a957de082e58",
                          "twt": "09d55951b0b58acb"}},
    (5, 2): {"literal": {"cmax": "29655f90e4c3d3a4", "wct": "ebb6b4c8ebfa3a86",
                         "twt": "fa8da2183be880d0"},
             "internal": {"cmax": "5899d789e603c3a0", "wct": "88d6c7ccfe368eb7",
                          "twt": "d340c8ee3887b8bb"}},
}


@pytest.mark.parametrize("n,mc", sorted(GOLDEN_LP))
def test_golden_highs_inputs(n, mc):
    inst = generate_instance(GenConfig(n=n, ready_scenario=ReadyScenario.MIXED_30_70,
                                       equipment=mc, seed=10 * n + mc))
    digests = {name: {kind.value: _highs_inputs_digest(inst, build(inst, kind))
                      for kind in Objective}
               for name, build in (("literal", export_milp),
                                   ("internal", exact._disjunctive_model))}
    assert digests == GOLDEN_HIGHS[(n, mc)]


def _violated_rows(model, values, tol=1e-6):
    """Row-by-row reference for check_values, over the rows as written."""
    violated = []
    for row in model.constraints:
        lhs = sum(c * values[v] for v, c in row.coeffs)
        slack = tol * (1.0 + abs(row.rhs))
        if row.sense == "<=":
            ok = lhs <= row.rhs + slack
        elif row.sense == ">=":
            ok = lhs >= row.rhs - slack
        else:
            ok = abs(lhs - row.rhs) <= slack
        if not ok:
            violated.append(row.name)
    return violated


def test_check_values_matches_row_by_row_reference():
    for n, mc in ((2, 1), (2, 2), (4, 1), (5, 1), (5, 2)):
        inst = generate_instance(GenConfig(n=n, ready_scenario=ReadyScenario.MIXED_30_70,
                                           equipment=mc, seed=n - 1))
        rng = random.Random(7)
        senses = set()
        for kind in Objective:
            model = export_milp(inst, kind)
            sense_of = {row.name: row.sense for row in model.constraints}
            sch, _ = decode(inst, sp_initial_order(inst), kind)
            base = schedule_to_values(inst, sch, model)
            assert check_values(model, base) == _violated_rows(model, base) == []
            names = sorted(base)
            for trial in range(12):
                values = dict(base)
                for name in rng.sample(names, 1 + trial):
                    if name in model.binary:
                        values[name] = 1.0 - values[name]
                    else:
                        values[name] += rng.choice((-60.0, -7.5, 0.5, 30.0))
                expected = _violated_rows(model, values)
                assert check_values(model, values) == expected
                senses.update(sense_of[name] for name in expected)
            every_binary_set = {**base, **{name: 1.0 for name in model.binary}}
            expected = _violated_rows(model, every_binary_set)
            assert check_values(model, every_binary_set) == expected
            senses.update(sense_of[name] for name in expected)
        assert senses == {"<=", ">=", "="}, (n, mc)


@pytest.mark.parametrize("build", [export_milp, exact._disjunctive_model])
@pytest.mark.parametrize("n,mc", [(1, 2), (3, 1), (4, 2)])
def test_constraints_list_every_row_with_terms_sorted_by_name(build, n, mc):
    inst = generate_instance(GenConfig(n=n, ready_scenario=ReadyScenario.MIXED_30_70,
                                       equipment=mc, seed=n))
    for kind in Objective:
        model = build(inst, kind)
        rows = model.constraints
        assert len(rows) == model.counts[0] == len(model.row_names)
        assert [row.name for row in rows] == model.row_names
        assert len(set(model.row_names)) == len(rows)
        names = set(model.continuous + model.binary)
        for row in rows:
            variables = [var for var, _ in row.coeffs]
            assert variables == sorted(set(variables)) and set(variables) <= names
            assert all(coeff != 0 for _, coeff in row.coeffs)


def _csr_constraints(model):
    """Reference for `model.constraints`: the joined rows through a CSR
    matrix, whose `eliminate_zeros` drops the padding."""
    cols, coefs, starts, lower, upper = model.joined()
    A = sparse.csr_matrix((coefs, cols, np.append(starts, len(cols))),
                          shape=(len(starts), len(model.names)))
    A.eliminate_zeros()
    rows = []
    for i, name in enumerate(model.row_names):
        span = slice(A.indptr[i], A.indptr[i + 1])
        coeffs = tuple(sorted(zip((model.names[k] for k in A.indices[span]),
                                  A.data[span].tolist())))
        lo, up = float(lower[i]), float(upper[i])
        sense = "=" if lo == up else (">=" if up == np.inf else "<=")
        rows.append(exact.LinearRow(name, coeffs, sense, up if lo == -np.inf else lo))
    return tuple(rows)


@pytest.mark.parametrize("build", [export_milp, exact._disjunctive_model])
@pytest.mark.parametrize("ready", list(ReadyScenario))
@pytest.mark.parametrize("mc", [1, 2])
@pytest.mark.parametrize("n", range(1, 7))
def test_constraints_equal_a_csr_reference(build, ready, mc, n):
    inst = generate_instance(GenConfig(n=n, ready_scenario=ready, equipment=mc,
                                       seed=10 * n + mc))
    for kind in Objective:
        model = build(inst, kind)
        assert model.constraints == _csr_constraints(model)


def test_lp_output_shape():
    inst = generate_instance(GenConfig(n=2, equipment=2, seed=0))
    model = export_milp(inst, Objective.TWT)
    text = write_lp(model)
    lines = text.splitlines()
    assert lines[1] == "Minimize"
    assert "Subject To" in lines
    assert "Bounds" in lines and "Binaries" in lines
    assert lines[-1] == "End"
    assert any(line.startswith(" ready_J1:") for line in lines)
    assert " x_2_CE1_J1" in text
    # Every constraint row appears once.
    subject = lines.index("Subject To")
    bounds = lines.index("Bounds")
    assert bounds - subject - 1 == len(model.constraints)


def test_solver_timeout_reports_incumbent_or_none():
    inst = generate_instance(GenConfig(n=10, equipment=2, seed=1))
    result = solve_exact(inst, Objective.CMAX, time_limit=0.05)
    assert result.status in ("timeout", "optimal")
    if result.schedule is not None:
        assert check_feasibility(inst, result.schedule) == []
        assert result.value is not None


def test_instance_without_route_is_rejected():
    # Park 2 without C and D tools: a job needing the pre-develop bake can
    # use neither CED/CEDB (oven outside) nor CE (no D) nor ED (no C).
    machines = tuple(m for m in equipment(2) if m.tool_class not in ("C", "D"))
    with pytest.raises(ValueError, match="job J1"):
        Instance(jobs=(Job("J1", (40, 20, 75, 45, 30, 45)),), machines=machines)


def coater_less_instance() -> Instance:
    """A park without an individual coater: every route starts on CE1 or
    CEDB1, which then holds the job's later stages."""
    machines = tuple(Machine(f"{cls}1", cls) for cls in ("S", "CE", "CEDB", "E", "D", "B"))
    jobs = (Job("J1", (40, 20, 75, 0, 30, 45)), Job("J2", (0, 20, 75, 0, 30, 0)))
    return Instance(jobs=jobs, machines=machines)


# In the coater-less park no job may take E1 at stage 3.  The relaxation
# used to reserve E1 for both jobs anyway (12 binaries; 22 rows for wct);
# it now reserves exactly the candidates of the park's table (9 binaries;
# 20 rows), with equal optima.
def test_relaxation_reserves_the_park_tables_candidates():
    inst = coater_less_instance()
    jobs = inst.jobs
    ids = inst.park.machine_ids
    candidates = sorted(f"x_{s}_{ids[k]}_{job.id}" for job in jobs
                        for s, options in zip(job.stages,
                                              inst.park.pattern(job.stages).candidates)
                        for k in options)
    truth = brute_force(inst)
    assert (truth[Objective.WCT], truth[Objective.CMAX]) == (335, 210)
    for kind in Objective:
        model = exact._disjunctive_model(inst, kind)
        assert sorted(v for v in model.binary if v.startswith("x_")) == candidates
        assert model.counts[2] == 9
        status, schedule = exact._solve(inst, model, None)
        assert status == OPTIMAL and check_feasibility(inst, schedule) == []
        assert objective_value(inst, schedule, kind) == truth[kind]


def _solve_reading_objective(instance, model, time_limit):
    """`exact._solve`'s outcome and schedule, and the objective value of
    HiGHS's solution, rounded."""
    results = []
    highs = exact.milp

    def record(**kwargs):
        results.append(highs(**kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "milp", record)
        status, schedule = exact._solve(instance, model, time_limit)
    (res,) = results
    return status, schedule, round(res.fun)


def _fake_milp(monkeypatch, result):
    """Make every HiGHS call return `result`; returns the list of calls."""
    calls = []

    def fake(**kwargs):
        calls.append(kwargs)
        return result

    monkeypatch.setattr(exact, "milp", fake)
    return calls


# The instances below miss the per-job lower bound with SP's initial order
# (cmax 375 against 255), so solve_exact reaches HiGHS.

def test_solve_exact_reports_infeasible_model(monkeypatch):
    infeasible = SimpleNamespace(status=2, message="infeasible", x=None)
    calls = _fake_milp(monkeypatch, infeasible)
    inst = passing_instance()
    result = solve_exact(inst, Objective.CMAX, time_limit=10)
    assert (result.status, result.schedule, result.value) == (INFEASIBLE, None, None)
    assert calls


@pytest.mark.parametrize("status", [3, 4])  # unbounded, solve error
def test_solve_exact_raises_on_other_highs_status(monkeypatch, status):
    failed = SimpleNamespace(status=status, message="numerical trouble", x=None)
    calls = _fake_milp(monkeypatch, failed)
    inst = passing_instance()
    with pytest.raises(SolverError, match="numerical trouble"):
        solve_exact(inst, Objective.CMAX)
    assert calls


def test_solve_exact_solves_the_literal_model_when_highs_fails_on_the_first():
    # HiGHS ends the per-reservation model of this instance in "Solve error"
    # (status 4), yet solves its literal model.
    inst = generate_instance(GenConfig(n=5, ready_scenario=ReadyScenario.ALL_ZERO, T=0.6,
                                       R=0.5, equipment=2, seed=671925))
    literal = export_milp(inst, Objective.WCT)
    status, schedule, optimum = _solve_reading_objective(inst, literal, None)
    assert status == OPTIMAL
    assert objective_value(inst, schedule, Objective.WCT) == optimum
    result = solve_exact(inst, Objective.WCT, time_limit=60)
    assert (result.status, result.value) == (OPTIMAL, optimum)
    assert check_feasibility(inst, result.schedule) == []
    assert check_values(literal, schedule_to_values(inst, result.schedule, literal)) == []


def test_a_failed_first_solve_hands_the_time_left_to_the_literal_model(monkeypatch):
    calls = []
    solve = exact._solve

    def fail_first(instance, model, time_limit):
        calls.append((model, time_limit))
        if len(calls) == 1:
            raise SolverError("HiGHS status 4: injected")
        return solve(instance, model, time_limit)

    monkeypatch.setattr(exact, "_solve", fail_first)
    inst = passing_instance()
    result = solve_exact(inst, Objective.TWT, time_limit=60)
    assert (result.status, result.value) == (OPTIMAL, 510)
    (_, first), (model, second) = calls
    assert write_lp(model) == write_lp(export_milp(inst, Objective.TWT))
    assert first == 60 and 0 < second < 60


def test_solve_exact_proves_the_per_job_bound_without_highs(monkeypatch):
    # n = 2 on park 2 at seed 1: SP's initial order meets the bound.
    inst = generate_instance(GenConfig(n=2, equipment=2, seed=1))
    calls = _fake_milp(monkeypatch, SimpleNamespace(status=4, message="called", x=None))
    for kind in Objective:
        for limit in (None, 0, 60):
            result = solve_exact(inst, kind, time_limit=limit)
            assert (result.status, result.value) == (
                OPTIMAL, Decoder(inst).lower_bound(kind))
            assert check_feasibility(inst, result.schedule) == []
            literal = export_milp(inst, kind)
            assert check_values(literal, schedule_to_values(inst, result.schedule,
                                                            literal)) == []
    assert calls == []


def test_highs_agrees_where_the_per_job_bound_is_met():
    """HiGHS on the internal model finds the optimum the bound proves."""
    checked = 0
    for n in range(2, 7):
        for mc in (1, 2):
            for ready in ReadyScenario:
                inst = generate_instance(GenConfig(n=n, ready_scenario=ready,
                                                   equipment=mc, seed=10 * n + mc))
                decoder = Decoder(inst)
                order = sp_initial_order(inst)
                for kind in Objective:
                    bound = decoder.lower_bound(kind)
                    if decoder.score(order, kind) != bound:
                        continue
                    model = exact._disjunctive_model(inst, kind)
                    status, schedule, optimum = _solve_reading_objective(inst, model, 60)
                    assert status == OPTIMAL
                    assert optimum == objective_value(inst, schedule, kind) == bound
                    assert solve_exact(inst, kind).value == bound
                    checked += 1
    assert checked == 50  # of the 60 (instance, objective) pairs


@pytest.mark.parametrize("limit", [-1, -0.5, math.nan])
def test_solve_exact_rejects_invalid_time_limit(limit):
    inst = generate_instance(GenConfig(n=2, equipment=2, seed=1))
    with pytest.raises(ValueError, match="time limit"):
        solve_exact(inst, Objective.CMAX, time_limit=limit)


def test_solve_exact_accepts_zero_and_infinite_time_limits():
    inst = generate_instance(GenConfig(n=2, equipment=2, seed=1))
    assert solve_exact(inst, Objective.CMAX, time_limit=0).status in (TIMED_OUT, OPTIMAL)
    assert solve_exact(inst, Objective.CMAX, time_limit=math.inf).status == OPTIMAL


def passing_instance() -> Instance:
    """Park-2 jobs whose per-reservation optimum orders J1 and J4 one way
    on one machine and the other way on another, for cmax and twt."""
    jobs = (Job("J1", (0, 20, 75, 45, 30, 45), due=370, weight=2),
            Job("J2", (40, 20, 75, 45, 30, 45), due=0, weight=2),
            Job("J3", (40, 20, 75, 0, 30, 0), due=364, weight=2),
            Job("J4", (40, 20, 75, 45, 30, 45), due=335, weight=4),
            Job("J5", (40, 20, 75, 0, 30, 45), due=420, weight=4))
    return Instance(jobs=jobs, machines=tuple(equipment(2)))


# The passing instance's wct solves take seconds; its cmax and twt optima pass.
@pytest.mark.parametrize("build", [export_milp, exact._disjunctive_model])
@pytest.mark.parametrize("inst,kinds", [
    (passing_instance(), (Objective.CMAX, Objective.TWT)),
    (coater_less_instance(), tuple(Objective))], ids=["passing", "coater-less"])
def test_solve_reads_the_solution_by_column_not_by_name(build, inst, kinds):
    for kind in kinds:
        model, renamed = build(inst, kind), build(inst, kind)
        renamed.continuous = [f"c{i}" for i in range(len(renamed.continuous))]
        renamed.binary = [f"b{i}" for i in range(len(renamed.binary))]
        status, schedule = exact._solve(inst, model, None)
        assert status == OPTIMAL and check_feasibility(inst, schedule) == []
        assert exact._solve(inst, renamed, None) == (status, schedule)
        # A cluster holds a job's later stages as well as its entry stage.
        held = [(job_id, mid) for (job_id, _), mid in schedule.assign.items()
                if inst.machine(mid).is_cluster]
        assert len(held) > len(set(held))


def _spy_solves(monkeypatch):
    models = []
    solve = exact._solve

    def spy(instance, model, time_limit):
        models.append(model)
        return solve(instance, model, time_limit)

    monkeypatch.setattr(exact, "_solve", spy)
    return models


def test_resolve_finds_order_consistent_schedule_of_equal_value(monkeypatch):
    inst = passing_instance()
    models = _spy_solves(monkeypatch)
    result = solve_exact(inst, Objective.TWT)
    assert (result.status, result.value) == (OPTIMAL, 510)
    assert check_feasibility(inst, result.schedule) == []
    literal = export_milp(inst, Objective.TWT)
    assert len(models) == 2
    assert write_lp(models[1]) == write_lp(literal)  # the re-solve ran the literal model
    assert check_values(literal, schedule_to_values(inst, result.schedule, literal)) == []


def test_resolve_keeps_passing_optimum_the_literal_model_cannot_reach(monkeypatch):
    inst = passing_instance()
    models = _spy_solves(monkeypatch)
    result = solve_exact(inst, Objective.CMAX)
    assert (result.status, result.value) == (OPTIMAL, 270)
    assert check_feasibility(inst, result.schedule) == []
    assert len(models) == 2
    literal = export_milp(inst, Objective.CMAX)
    with pytest.raises(ValueError, match="J1 and J4"):
        schedule_to_values(inst, result.schedule, literal)
    status, schedule, optimum = _solve_reading_objective(inst, literal, None)
    assert status == OPTIMAL
    assert optimum == objective_value(inst, schedule, Objective.CMAX) == 300


def _spy_limits(monkeypatch, overrun_first=False):
    """Record when each HiGHS solve starts and the time limit it gets."""
    calls = []
    solve = exact._solve

    def spy(instance, model, time_limit):
        calls.append((time.perf_counter(), time_limit))
        if overrun_first and len(calls) == 1:
            time_limit = None  # overrun the limit, yet prove the optimum
        return solve(instance, model, time_limit)

    monkeypatch.setattr(exact, "_solve", spy)
    return calls


@pytest.mark.parametrize("limit", [None, math.inf])
def test_resolve_keeps_no_and_infinite_time_limits(monkeypatch, limit):
    calls = _spy_limits(monkeypatch)
    solve_exact(passing_instance(), Objective.TWT, time_limit=limit)
    assert [lim for _, lim in calls] == [limit, limit]


def test_resolve_gets_the_time_left(monkeypatch):
    calls = _spy_limits(monkeypatch)
    started = time.perf_counter()
    result = solve_exact(passing_instance(), Objective.TWT, time_limit=60)
    assert (result.status, result.value) == (OPTIMAL, 510)
    (_, first), (resolved_at, second) = calls
    assert first == 60
    assert 60 - (resolved_at - started) <= second < 60


def test_resolve_gets_no_time_once_the_limit_is_spent(monkeypatch):
    calls = _spy_limits(monkeypatch, overrun_first=True)
    result = solve_exact(passing_instance(), Objective.TWT, time_limit=1e-6)
    assert [lim for _, lim in calls] == [1e-6, 0.0]
    assert (result.status, result.value) == (OPTIMAL, 510)
    assert check_feasibility(passing_instance(), result.schedule) == []


def test_a_failed_resolve_keeps_the_first_optimum(monkeypatch):
    calls = []
    solve = exact._solve

    def fail_second(instance, model, time_limit):
        calls.append(model)
        if len(calls) == 2:
            raise SolverError("HiGHS status 4: injected")
        return solve(instance, model, time_limit)

    monkeypatch.setattr(exact, "_solve", fail_second)
    inst = passing_instance()
    result = solve_exact(inst, Objective.CMAX)
    assert (result.status, result.value) == (OPTIMAL, 270)
    assert check_feasibility(inst, result.schedule) == []
    assert len(calls) == 2


def test_a_timed_out_first_solve_reports_its_incumbent_without_resolving(monkeypatch):
    calls = []
    solve = exact._solve

    def time_out(instance, model, time_limit):
        calls.append(model)
        _, schedule = solve(instance, model, time_limit)
        return TIMED_OUT, schedule  # the limit struck, with the solution as incumbent

    monkeypatch.setattr(exact, "_solve", time_out)
    inst = passing_instance()
    result = solve_exact(inst, Objective.CMAX, time_limit=60)
    assert result.status == TIMED_OUT
    assert check_feasibility(inst, result.schedule) == []
    assert result.value == objective_value(inst, result.schedule, Objective.CMAX)
    assert len(calls) == 1


def test_a_timed_out_first_solve_without_incumbent_reports_none(monkeypatch):
    calls = _fake_milp(monkeypatch, SimpleNamespace(status=1, message="time limit", x=None))
    result = solve_exact(passing_instance(), Objective.CMAX, time_limit=1)
    assert (result.status, result.schedule, result.value) == (TIMED_OUT, None, None)
    assert len(calls) == 1
