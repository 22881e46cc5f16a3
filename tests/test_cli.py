"""Command-line interface end-to-end flows."""

import json
from types import SimpleNamespace

import pytest

from photosched import exact
from photosched.cli import dispatch
from photosched.core import load_instance
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
