"""Experiment harness: seeds, grids, ratios, summary tables, record files."""

from types import SimpleNamespace

import pytest

from photosched import exact, experiments
from photosched.core import Objective
from photosched.experiments import (
    FAILED,
    ExperimentRecord,
    derive_seed,
    format_summary,
    heuristic_ratio,
    performance_ratio,
    run_grid,
    save_records,
    save_timings,
)

SMALL_GRID = {"n": [2, 3], "ready": ["zero"], "T": [0.3], "R": [0.5],
              "equipment": [2]}


def record(**kw):
    base = dict(n=5, ready="zero", T=0.3, R=0.5, mc=1, rep=1,
                objective="cmax", of_sp=120, of_ga=110, of_exact=100,
                exact_status="optimal")
    base.update(kw)
    return ExperimentRecord(**base)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(42, 5, "zero", 0.3, 0.5, 1, 1)
    assert a == derive_seed(42, 5, "zero", 0.3, 0.5, 1, 1)
    assert a != derive_seed(42, 5, "zero", 0.3, 0.5, 1, 2)
    assert a != derive_seed(43, 5, "zero", 0.3, 0.5, 1, 1)
    assert 0 <= a < 2 ** 64


def test_performance_ratio_rules():
    assert performance_ratio(record()) == 1.1
    assert performance_ratio(record(), solver="sp") == 1.2
    assert performance_ratio(record(exact_status="timeout")) is None
    assert performance_ratio(record(of_exact=None, exact_status="optimal")) is None
    assert performance_ratio(record(of_exact=0)) is None


def test_heuristic_ratio_rules():
    assert heuristic_ratio(record(exact_status="timeout")) == 1.1
    assert heuristic_ratio(record()) is None
    assert heuristic_ratio(record(exact_status="timeout", of_exact=0)) is None


def summary_rows(records, ratio="pr"):
    """Each table row's name and its six cells."""
    return {line[:24].strip(): [line[24 + 14 * i:38 + 14 * i].strip() for i in range(6)]
            for line in format_summary(records, ratio=ratio).splitlines()[1:]}


def test_summary_means_and_exclusions():
    records = [
        record(rep=1, of_ga=102),
        record(rep=2, of_ga=106),
        record(rep=3, of_exact=0),              # excluded: zero optimum
        record(rep=4, exact_status="timeout"),  # not an optimal record
        record(rep=5, objective="twt"),         # other objective
    ]
    ga_cmax, ga_wct, ga_twt = summary_rows(records)["(5,zero,*,*,*)"][:3]
    assert ga_cmax == "1.04 (2)"
    assert ga_wct == "N/A (0)"
    assert ga_twt == "1.10 (1)"


def test_summary_rows_follow_the_records_levels():
    records = [record(), record(ready="mixed", T=0.2, R=1.0, mc=2),
               record(n=7, T=0.9), record(T=0.2, rep=2)]
    assert list(summary_rows(records)) == [
        "(5,zero,*,*,*)", "(5,mixed,*,*,*)", "(5,*,0.3,*,*)", "(5,*,0.2,*,*)",
        "(5,*,*,0.5,*)", "(5,*,*,1.0,*)", "(5,*,*,*,1)", "(5,*,*,*,2)",
        "(7,zero,*,*,*)", "(7,*,0.9,*,*)", "(7,*,*,0.5,*)", "(7,*,*,*,1)"]
    assert summary_rows(records)["(5,*,0.2,*,*)"][0] == "1.10 (2)"


def test_run_grid_shape_and_determinism():
    records = run_grid(SMALL_GRID, [Objective.CMAX], replications=2,
                       master_seed=11, exact_time_limit=60, sp_iterations=20)
    # 2 cells x 2 replications x 1 objective.
    assert len(records) == 4
    assert all(r.exact_status == "optimal" for r in records)
    assert all(r.of_sp >= r.of_exact and r.of_ga >= r.of_exact for r in records)
    again = run_grid(SMALL_GRID, [Objective.CMAX], replications=2,
                     master_seed=11, exact_time_limit=60, sp_iterations=20)
    strip = lambda rs: [(r.cell, r.rep, r.objective, r.of_sp, r.of_ga,
                         r.of_exact, r.exact_status) for r in rs]
    assert strip(records) == strip(again)


@pytest.mark.parametrize("replications", [0, -2, True])  # True is an Integral equal to 1
def test_run_grid_rejects_replications_below_one(replications):
    with pytest.raises(ValueError, match="replications"):
        run_grid(SMALL_GRID, [Objective.CMAX], replications=replications,
                 master_seed=3, run_exact=False)


@pytest.mark.parametrize("bad,error", [({"n": [2, 0]}, "n must be"),
                                       ({"ready": ["zero", "zer0"]}, "zer0")],
                         ids=["n", "ready"])
def test_run_grid_checks_every_grid_value_before_the_first_solve(monkeypatch, bad, error):
    calls = []
    monkeypatch.setattr(experiments, "run_sp", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=error):
        run_grid({**SMALL_GRID, **bad}, [Objective.CMAX], replications=2,
                 master_seed=7, run_exact=False)
    assert calls == []


# A repeated level or objective used to write identical duplicate records,
# which the summary tables then counted twice.
@pytest.mark.parametrize("bad,kinds,key", [({"n": [2, 2]}, [Objective.CMAX], "n"),
                                           ({"T": [0.3, 0.30]}, [Objective.CMAX], "T"),
                                           ({}, [Objective.CMAX, Objective.CMAX],
                                            "objectives")],
                         ids=["n", "T", "objectives"])
def test_run_grid_rejects_repeated_levels_before_the_first_solve(monkeypatch, bad, kinds,
                                                                 key):
    calls = []
    monkeypatch.setattr(experiments, "run_sp", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"grid key '{key}' repeats"):
        run_grid({**SMALL_GRID, **bad}, kinds, replications=1, master_seed=7,
                 run_exact=False)
    assert calls == []


@pytest.mark.parametrize("limit", [-1, float("nan")])
def test_run_grid_checks_the_time_limit_before_the_first_solve(monkeypatch, limit):
    calls = []
    monkeypatch.setattr(experiments, "run_sp", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="time limit"):
        run_grid(SMALL_GRID, [Objective.CMAX], replications=1, master_seed=7,
                 exact_time_limit=limit)
    assert calls == []


def test_run_grid_without_exact():
    records = run_grid(SMALL_GRID, [Objective.WCT], replications=1,
                       master_seed=3, sp_iterations=10, run_exact=False)
    assert all(r.of_exact is None and r.exact_status == "skipped"
               for r in records)
    assert all("exact" not in r.runtimes for r in records)


def test_record_files_round_trip(tmp_path):
    records = run_grid(SMALL_GRID, [Objective.CMAX, Objective.TWT],
                       replications=1, master_seed=7, sp_iterations=10)
    save_records(records, tmp_path / "records.csv")
    save_timings(records, tmp_path / "timings.csv")
    timing_lines = (tmp_path / "timings.csv").read_text().splitlines()
    assert timing_lines[0] == "n,ready,T,R,mc,rep,objective,solver,seconds"
    assert len(timing_lines) == 1 + 3 * len(records)


def test_timings_rows_carry_the_record_key(tmp_path):
    records = [record(n=3, ready="mixed", T=0.6, R=2.5, mc=2, rep=4, objective="twt",
                      runtimes={"sp": 0.25, "ga": 1.5}),
               record(runtimes={"exact": 0.125})]
    save_timings(records, tmp_path / "timings.csv")
    assert (tmp_path / "timings.csv").read_text().splitlines()[1:] == [
        "3,mixed,0.6,2.5,2,4,twt,ga,1.500",
        "3,mixed,0.6,2.5,2,4,twt,sp,0.250",
        "5,zero,0.3,0.5,1,1,cmax,exact,0.125"]


def test_format_summary_layout():
    records = [record(), record(objective="twt", of_exact=0)]
    text = format_summary(records)
    lines = text.splitlines()
    assert len(lines) == 5  # header + one row per factor's one level
    assert "ga cmax" in lines[0] and "sp twt" in lines[0]
    assert "(5,zero,*,*,*)" in lines[1]
    assert "1.10 (1)" in lines[1]
    assert "N/A" in lines[1]  # the zero-optimum record is excluded


def test_summary_cell_formatting():
    records = [record(rep=i, of_ga=1005, of_exact=1000) for i in range(12)]
    assert summary_rows(records)["(5,zero,*,*,*)"][:2] == ["1.00 (12)", "N/A (0)"]


def test_solver_error_is_recorded_as_failed(monkeypatch):
    failed = SimpleNamespace(status=4, message="numerical trouble", x=None)
    calls = []
    monkeypatch.setattr(exact, "milp", lambda **kwargs: calls.append(kwargs) or failed)
    # SP's initial order misses the per-job lower bound on this cell's
    # instance (cmax 250 against 210), so the exact solve reaches HiGHS.
    grid = dict(SMALL_GRID, n=[4])
    (rec,) = run_grid(grid, [Objective.CMAX], 1, master_seed=7, sp_iterations=10)
    assert (rec.exact_status, rec.of_exact) == (FAILED, None)
    assert calls
