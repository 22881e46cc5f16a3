"""Command-line interface end-to-end flows."""

import json
import os
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import pytest

from photosched import cli, exact
from photosched.cli import dispatch
from photosched.core import Objective, load_instance
from photosched.decoder import Decoder
from photosched.exact import OPTIMAL, TIMED_OUT
from photosched.experiments import ExperimentRecord, format_summary
from photosched.instgen import equipment


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def instance_path(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run(capsys, "generate", "--n", "3", "--equipment", "2",
                     "--seed", "5", "--out", str(path))
    assert code == 0
    return path


def test_generate_writes_instance(instance_path):
    inst = load_instance(instance_path)
    assert len(inst.jobs) == 3
    assert len(inst.machines) == 12


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "generate", "--n", "4", "--ready", "mixed",
                         "--tardiness-factor", "0.6", "--due-range", "2.5",
                         "--seed", "9", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("alg", ["sp", "ga", "exact"])
def test_solve_and_evaluate(instance_path, tmp_path, capsys, alg):
    sched = tmp_path / f"{alg}.csv"
    code, out, _ = run(capsys, "solve", str(instance_path), "--alg", alg,
                       "--objective", "twt", "--iterations", "50",
                       "--out-schedule", str(sched))
    assert code == 0
    assert "twt=" in out and "cmax=" in out
    code, out, _ = run(capsys, "evaluate", str(sched), str(instance_path))
    assert code == 0
    assert out.startswith("feasible")


def test_solve_exact_returns_the_met_per_job_bound(tmp_path, capsys, monkeypatch):
    # n = 2 on park 2 at seed 1: SP's initial order meets the bound, so the
    # optimum is proven without HiGHS.
    path, sched = tmp_path / "inst.json", tmp_path / "exact.csv"
    code, _, _ = run(capsys, "generate", "--n", "2", "--equipment", "2",
                     "--seed", "1", "--out", str(path))
    assert code == 0
    calls = []
    monkeypatch.setattr(exact, "milp", lambda **kwargs: calls.append(kwargs))
    bound = Decoder(load_instance(path)).lower_bound(Objective.CMAX)
    code, out, _ = run(capsys, "solve", str(path), "--alg", "exact",
                       "--out-schedule", str(sched))
    assert code == 0
    assert out.startswith(f"status=optimal cmax={bound} ")
    assert calls == []
    code, out, _ = run(capsys, "evaluate", str(sched), str(path))
    assert code == 0
    assert out.startswith(f"feasible cmax={bound} ")


def test_solve_writes_trace(instance_path, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, _, _ = run(capsys, "solve", str(instance_path), "--alg", "sp",
                     "--iterations", "25", "--out-trace", str(trace))
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "iteration,best"
    assert len(lines) == 26


def test_evaluate_rejects_corrupt_schedule(instance_path, tmp_path, capsys):
    sched = tmp_path / "sched.csv"
    code, _, _ = run(capsys, "solve", str(instance_path), "--alg", "sp",
                     "--iterations", "5", "--out-schedule", str(sched))
    assert code == 0
    lines = sched.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    sched.write_text("\n".join([header] + rows[1:]) + "\n")  # drop one visit
    code, out, _ = run(capsys, "evaluate", str(sched), str(instance_path))
    assert code == 1
    assert "MissingAssign" in out


def test_evaluate_rejects_a_repeated_visit(instance_path, tmp_path, capsys):
    sched = tmp_path / "sched.csv"
    code, _, _ = run(capsys, "solve", str(instance_path), "--alg", "sp",
                     "--iterations", "5", "--out-schedule", str(sched))
    assert code == 0
    header, *rows = sched.read_text().splitlines()
    real = next(row for row in rows if row.startswith("J1,2,"))
    extra = "J1,2,NOPE9," + real.split(",", 3)[3]  # same times, unknown machine
    rows.insert(rows.index(real), extra)
    sched.write_text("\n".join([header] + rows) + "\n")
    for argv in (("evaluate", str(sched), str(instance_path)),
                 ("gantt", str(sched), str(instance_path), "--out", str(tmp_path / "g.svg"))):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == "" and err == "error: schedule: job J1 stage 2 appears twice\n"


@pytest.mark.parametrize("row", ["J1,7,B1,100,145", "J1,0,S1,0,40", "J9,2,C1,0,20"])
def test_evaluate_reports_a_visit_outside_the_instance(tmp_path, capsys, row):
    # Before, these ended in an IndexError traceback, a MachineOverlap
    # that read stage 0 as stage 6, or "error: 'J9'".
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.csv"
    run(capsys, "generate", "--n", "2", "--equipment", "2", "--seed", "1", "--out", str(inst))
    code, _, _ = run(capsys, "solve", str(inst), "--alg", "sp", "--out-schedule", str(sched))
    assert code == 0
    sched.write_text(sched.read_text() + row + "\n")
    job_id, stage = row.split(",")[:2]
    line = f"ForbiddenAssign: job {job_id} stage {stage} is no visit of the instance\n"
    assert run(capsys, "evaluate", str(sched), str(inst)) == (1, line, "")
    assert run(capsys, "gantt", str(sched), str(inst), "--out", str(tmp_path / "g.svg")) == (1, "", line)


# Runs in a fresh interpreter: the pytest configuration's OptimizeWarning
# filter imports scipy into the test process itself.
WITHOUT_SCIPY = textwrap.dedent("""
    import sys
    from photosched import cli
    from photosched.core import Instance, Job, Machine, Objective, load_instance
    from photosched.evaluator import load_schedule
    from photosched.exact import (OPTIMAL, check_values, export_milp,
                                  schedule_to_values, solve_exact)

    for argv in (["generate", "--n", "3", "--equipment", "2", "--seed", "5",
                  "--out", "inst.json"],
                 ["solve", "inst.json", "--alg", "ga", "--out-schedule", "ga.csv"],
                 ["solve", "inst.json", "--alg", "sp", "--iterations", "20",
                  "--out-schedule", "sp.csv"],
                 ["evaluate", "sp.csv", "inst.json"],
                 ["gantt", "sp.csv", "inst.json", "--out", "sp.svg"],
                 ["export-lp", "inst.json", "--out", "model.lp"]):
        assert cli.dispatch(argv) == 0, argv
    assert open("model.lp").read().endswith("End\\n")
    instance, schedule = load_instance("inst.json"), load_schedule("sp.csv")
    for kind in Objective:
        model = export_milp(instance, kind)
        assert check_values(model, schedule_to_values(instance, schedule, model)) == []
    assert "scipy" not in sys.modules, "a light path imported scipy"

    # Two jobs on one machine per stage: one waits, so the per-job bound
    # is missed and HiGHS runs.
    jobs = (Job("J1", (0, 20, 75, 0, 30, 0)), Job("J2", (0, 20, 75, 0, 30, 0)))
    machines = tuple(Machine(f"{cls}1", cls) for cls in "SCED")
    result = solve_exact(Instance(jobs=jobs, machines=machines), Objective.CMAX)
    assert "scipy" in sys.modules, "HiGHS ran without scipy"
    assert (result.status, result.value) == (OPTIMAL, 200)
""")


def test_heuristic_file_and_lp_paths_load_no_scipy(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_export_lp(instance_path, tmp_path, capsys):
    lp = tmp_path / "model.lp"
    code, out, _ = run(capsys, "export-lp", str(instance_path),
                       "--objective", "cmax", "--out", str(lp), "--counts")
    assert code == 0
    assert "constraints=" in out
    text = lp.read_text()
    assert text.splitlines()[1] == "Minimize"
    assert text.rstrip().endswith("End")


def test_gantt(instance_path, tmp_path, capsys):
    sched = tmp_path / "sched.csv"
    run(capsys, "solve", str(instance_path), "--alg", "ga",
        "--out-schedule", str(sched))
    svg = tmp_path / "plot.svg"
    code, _, _ = run(capsys, "gantt", str(sched), str(instance_path),
                     "--out", str(svg))
    assert code == 0
    content = svg.read_text()
    assert content.startswith("<svg")
    assert "CEDB1" in content and "J1" in content


def test_experiment_command(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"n": [2], "ready": ["zero"], "T": [0.3],
                                "R": [0.5], "equipment": [2],
                                "objectives": ["cmax"]}))
    out_dir = tmp_path / "exp"
    code, out, _ = run(capsys, "experiment", "--grid", str(grid),
                       "--out", str(out_dir), "--seed", "13",
                       "--replications", "2")
    assert code == 0
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "timings.csv").exists()
    assert (out_dir / "summary_pr.txt").exists()
    records = (out_dir / "records.csv").read_text().splitlines()
    assert records[0] == "n,ready,T,R,mc,rep,objective,of_sp,of_ga,of_exact,exact_status"
    assert len(records) == 3  # header + 1 cell x 2 replications x 1 objective


def test_experiment_writes_both_summaries_and_prints_pr(tmp_path, capsys, monkeypatch):
    records = [ExperimentRecord(5, "zero", 0.3, 0.5, 1, 1, "cmax", 120, 110, 100, OPTIMAL),
               ExperimentRecord(5, "mixed", 0.6, 2.5, 2, 1, "cmax", 130, 125, 100, TIMED_OUT)]
    monkeypatch.setattr(cli, "run_grid", lambda *args, **kwargs: records)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"n": [5], "objectives": ["cmax"]}))
    out_dir = tmp_path / "exp"
    code, out, _ = run(capsys, "experiment", "--grid", str(grid), "--out", str(out_dir),
                       "--seed", "1")
    assert code == 0
    pr = format_summary(records, [5], ratio="pr")
    hr = format_summary(records, [5], ratio="hr")
    assert pr != hr
    assert (out_dir / "summary_pr.txt").read_text() == pr + "\n"
    assert (out_dir / "summary_hr.txt").read_text() == hr + "\n"
    assert out == pr + "\n"


def test_experiment_rejects_invalid_time_limit(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"n": [2], "ready": ["zero"], "T": [0.3],
                                "R": [0.5], "equipment": [2],
                                "objectives": ["cmax"]}))
    out_dir = tmp_path / "exp"
    code, out, err = run(capsys, "experiment", "--grid", str(grid),
                         "--out", str(out_dir), "--seed", "13", "--time-limit", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "time limit" in err
    assert not (out_dir / "records.csv").exists()


def test_experiment_rejects_unknown_grid_key(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    # "equipments" is a typo: it used to fall back to both default parks.
    grid.write_text(json.dumps({"n": [2], "ready": ["zero"], "T": [0.3],
                                "R": [0.5], "equipments": [2],
                                "objectives": ["cmax"]}))
    out_dir = tmp_path / "exp"
    code, out, err = run(capsys, "experiment", "--grid", str(grid),
                         "--out", str(out_dir), "--seed", "13", "--no-exact")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "unknown grid key" in err and "equipments" in err
    assert not (out_dir / "records.csv").exists()


def test_experiment_rejects_grid_that_is_not_an_object(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"n": [2]}]))
    code, out, err = run(capsys, "experiment", "--grid", str(grid),
                         "--out", str(tmp_path / "exp"), "--seed", "13")
    assert code == 1
    assert err.startswith("error:") and "JSON object" in err


@pytest.mark.parametrize("key,value", [("n", 5), ("T", 0.3), ("objectives", "cmax"),
                                       ("n", []), ("equipment", []), ("objectives", [])])
def test_experiment_rejects_grid_value_that_is_not_a_non_empty_list(tmp_path, capsys,
                                                                      key, value):
    grid = {"n": [2], "ready": ["zero"], "T": [0.3], "R": [0.5],
            "equipment": [2], "objectives": ["cmax"], key: value}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    out_dir = tmp_path / "exp"
    code, out, err = run(capsys, "experiment", "--grid", str(path),
                         "--out", str(out_dir), "--seed", "13", "--no-exact")
    assert code == 1
    assert out == ""
    assert err == f"error: {path}: grid key '{key}' must be a non-empty list\n"
    assert not (out_dir / "records.csv").exists()


@pytest.mark.parametrize("where", ["flag", "grid"])
@pytest.mark.parametrize("replications", [0, -2])
def test_experiment_rejects_replications_below_one(tmp_path, capsys, where,
                                                   replications):
    grid = {"n": [2], "ready": ["zero"], "T": [0.3], "R": [0.5],
            "equipment": [2], "objectives": ["cmax"]}
    argv = []
    if where == "grid":
        grid["replications"] = replications
    else:
        argv = ["--replications", str(replications)]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    out_dir = tmp_path / "exp"
    code, out, err = run(capsys, "experiment", "--grid", str(path),
                         "--out", str(out_dir), "--seed", "13", "--no-exact", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "replications" in err
    assert not (out_dir / "records.csv").exists()


# A string or fractional count used to end in a TypeError traceback.
@pytest.mark.parametrize("key,value", [("n", ["2"]), ("n", [2.5]),
                                       ("replications", "2"), ("replications", 1.5)])
def test_experiment_rejects_grid_counts_that_are_not_integers(tmp_path, capsys,
                                                               key, value):
    grid = {"n": [2], "ready": ["zero"], "T": [0.3], "R": [0.5],
            "equipment": [2], "objectives": ["cmax"], key: value}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    out_dir = tmp_path / "exp"
    code, out, err = run(capsys, "experiment", "--grid", str(path),
                         "--out", str(out_dir), "--seed", "13", "--no-exact")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {key} must be an integer >= 1, got ")
    assert not (out_dir / "records.csv").exists()


def test_missing_file_exits_one(capsys):
    code, _, err = run(capsys, "evaluate", "no-such.csv", "also-missing.json")
    assert code == 1
    assert "error:" in err


def test_usage_error_exits_two(capsys):
    code, _, _ = run(capsys, "solve")
    assert code == 2
    code, _, _ = run(capsys, "no-such-verb")
    assert code == 2


def test_solve_rejects_job_without_develop(instance_path, capsys):
    data = json.loads(instance_path.read_text())
    data["jobs"][0]["p"][4] = 0
    instance_path.write_text(json.dumps(data))
    code, _, err = run(capsys, "solve", str(instance_path), "--alg", "sp")
    assert code == 1
    assert "error:" in err and data["jobs"][0]["id"] in err


# Park 2 without C and D tools leaves a job needing the pre-develop bake no
# route; SP and GA used to end in a DecodeError traceback on such a file.
@pytest.mark.parametrize("alg", ["sp", "ga", "exact"])
def test_solve_rejects_job_without_route(tmp_path, capsys, alg):
    machines = [m for m in equipment(2) if m.tool_class not in ("C", "D")]
    path = tmp_path / "no-route.json"
    path.write_text(json.dumps({
        "version": 1, "label": "",
        "machines": [{"id": m.id, "class": m.tool_class} for m in machines],
        "jobs": [{"id": "J1", "p": [40, 20, 75, 45, 30, 45], "r": 0, "d": 0, "w": 1}],
    }))
    code, _, err = run(capsys, "solve", str(path), "--alg", alg)
    assert code == 1
    assert "error:" in err and "J1" in err


# A zero weight made SP and GA die dividing due by weight while exact
# "solved" the file; a negative one made lateness pay.
@pytest.mark.parametrize("weight", [0, -2])
@pytest.mark.parametrize("alg", ["sp", "ga", "exact"])
def test_solve_rejects_weight_below_one(tmp_path, capsys, alg, weight):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({
        "version": 1, "label": "",
        "machines": [{"id": m.id, "class": m.tool_class} for m in equipment(2)],
        "jobs": [{"id": "J1", "p": [40, 20, 75, 0, 30, 0], "r": 0, "d": 90, "w": 1},
                 {"id": "J2", "p": [40, 20, 75, 0, 30, 0], "r": 0, "d": 90, "w": weight}],
    }))
    code, _, err = run(capsys, "solve", str(path), "--alg", alg)
    assert code == 1
    assert err.startswith("error:") and "J2" in err


def test_solve_exact_reports_infeasible_model(instance_path, capsys, monkeypatch):
    infeasible = SimpleNamespace(status=2, message="infeasible", x=None)
    monkeypatch.setattr(exact, "milp", lambda **kwargs: infeasible)
    code, _, err = run(capsys, "solve", str(instance_path), "--alg", "exact")
    assert code == 1
    assert "model is infeasible" in err


@pytest.mark.parametrize("limit", ["-1", "nan"])
def test_solve_exact_rejects_invalid_time_limit(instance_path, capsys, limit):
    code, out, err = run(capsys, "solve", str(instance_path), "--alg", "exact",
                         "--time-limit", limit)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "time limit" in err


# Non-integral times and weights used to be truncated on load.
def test_solve_rejects_non_integral_file_values(instance_path, capsys):
    data = json.loads(instance_path.read_text())
    data["jobs"][1]["p"][2] = 75.5
    instance_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "solve", str(instance_path), "--alg", "sp")
    assert code == 1 and out == ""
    assert err.startswith(f"error: job {data['jobs'][1]['id']}: p must be a whole number")


# A job-less file used to pass validation: SP died with ZeroDivisionError,
# GA and exact reported 0 and export-lp failed inside big_m.
@pytest.mark.parametrize("argv", [["solve", "--alg", "sp"], ["solve", "--alg", "ga"],
                                  ["solve", "--alg", "exact"], ["export-lp"]])
def test_commands_reject_an_instance_without_jobs(instance_path, capsys, argv):
    data = json.loads(instance_path.read_text())
    data["jobs"] = []
    instance_path.write_text(json.dumps(data))
    code, out, err = run(capsys, argv[0], str(instance_path), *argv[1:])
    assert code == 1 and out == ""
    assert err == "error: instance has no jobs\n"


# A line break in the label used to reach the LP text's comment line.
def test_export_lp_rejects_a_label_with_a_line_break(instance_path, capsys):
    data = json.loads(instance_path.read_text())
    data["label"] = "demo\nEnd\nx"
    instance_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "export-lp", str(instance_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "label" in err
