"""Optimal solver, literal model export, LP writing, cross-validation.

The frozen optima below were computed by the exhaustive enumeration
helper in enumeration.py, independently of the solver under test.
"""

import hashlib
import math
from types import SimpleNamespace

import pytest

from photosched import exact
from photosched.core import Instance, Job, Objective
from photosched.decoder import JobOrder, decode
from photosched.evaluator import check_feasibility
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


def test_solve_exact_reports_infeasible_model(monkeypatch):
    infeasible = SimpleNamespace(status=2, message="infeasible", x=None)
    monkeypatch.setattr(exact, "milp", lambda **kwargs: infeasible)
    inst = generate_instance(GenConfig(n=2, equipment=2, seed=1))
    result = solve_exact(inst, Objective.CMAX, time_limit=10)
    assert (result.status, result.schedule, result.value) == (INFEASIBLE, None, None)


def test_solve_exact_raises_on_other_highs_status(monkeypatch):
    failed = SimpleNamespace(status=4, message="numerical trouble", x=None)
    monkeypatch.setattr(exact, "milp", lambda **kwargs: failed)
    inst = generate_instance(GenConfig(n=2, equipment=2, seed=1))
    with pytest.raises(SolverError, match="numerical trouble"):
        solve_exact(inst, Objective.CMAX)


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


def _spy_solves(monkeypatch):
    models = []
    solve_model = exact._solve_model

    def spy(model, time_limit):
        models.append(model)
        return solve_model(model, time_limit)

    monkeypatch.setattr(exact, "_solve_model", spy)
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
    status, values = exact._solve_model(literal, None)
    assert status == 0
    assert round(sum(c * values[v] for v, c in literal.objective.items())) == 300
