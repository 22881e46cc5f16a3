"""Golden PR/HR summary files of `photosched experiment` over fixed records.

`cli.run_grid` is replaced by a fixed record set over the default grid's
levels: two replications of every cell and objective, with proven optima
(some of them 0), timed-out incumbents (some of them 0), failed and
skipped exact runs.  Going through the command keeps the test independent
of `format_summary`'s signature.
"""

import itertools
import json
import random

from photosched import cli
from photosched.cli import dispatch
from photosched.experiments import DEFAULT_GRID, ExperimentRecord

STATUSES = ("optimal", "timeout", "failed", "skipped")


def fixed_records():
    rng = random.Random(23)
    records = []
    cells = itertools.product(*(DEFAULT_GRID[k] for k in ("n", "ready", "T", "R",
                                                          "equipment")))
    for cell, rep, kind in itertools.product(cells, (1, 2), ("cmax", "wct", "twt")):
        status = rng.choice(STATUSES)
        exact = None
        if status in ("optimal", "timeout"):
            exact = rng.choice([0, rng.randint(50, 400)])
        base = exact or rng.randint(0, 400)
        records.append(ExperimentRecord(
            *cell, rep=rep, objective=kind, of_sp=base + rng.randint(0, 90),
            of_ga=base + rng.randint(0, 60), of_exact=exact, exact_status=status))
    return records


def summaries(tmp_path, capsys, monkeypatch, records, grid=None):
    monkeypatch.setattr(cli, "run_grid", lambda *args, **kwargs: records)
    argv = ["experiment", "--out", str(tmp_path / "exp"), "--seed", "1"]
    if grid is not None:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        argv += ["--grid", str(path)]
    assert dispatch(argv) == 0
    capsys.readouterr()
    return {ratio: (tmp_path / "exp" / f"summary_{ratio}.txt").read_text()
            for ratio in ("pr", "hr")}


GOLDEN_PR = """\
pattern                        ga cmax        ga wct        ga twt       sp cmax        sp wct        sp twt
(5,zero,*,*,*)                1.21 (2)      1.10 (4)      1.11 (3)      1.16 (2)      1.34 (4)      1.24 (3)
(5,mixed,*,*,*)               1.24 (4)      1.22 (2)      1.12 (5)      1.28 (4)      1.07 (2)      1.23 (5)
(5,*,0.3,*,*)                  N/A (0)      1.16 (3)      1.18 (2)       N/A (0)      1.13 (3)      1.38 (2)
(5,*,0.6,*,*)                 1.23 (6)      1.12 (3)      1.10 (6)      1.24 (6)      1.37 (3)      1.18 (6)
(5,*,*,0.5,*)                 1.22 (4)      1.13 (3)      1.14 (5)      1.28 (4)      1.21 (3)      1.28 (5)
(5,*,*,2.5,*)                 1.26 (2)      1.15 (3)      1.08 (3)      1.16 (2)      1.29 (3)      1.14 (3)
(5,*,*,*,1)                   1.18 (3)      1.16 (4)      1.08 (4)      1.15 (3)      1.28 (4)      1.22 (4)
(5,*,*,*,2)                   1.28 (3)      1.09 (2)      1.16 (4)      1.33 (3)      1.19 (2)      1.24 (4)
(15,zero,*,*,*)               1.24 (2)      1.16 (2)      1.15 (2)      1.03 (2)      1.21 (2)      1.22 (2)
(15,mixed,*,*,*)              1.04 (2)      1.08 (1)      1.18 (3)      1.26 (2)      1.03 (1)      1.28 (3)
(15,*,0.3,*,*)                 N/A (0)      1.15 (1)      1.09 (1)       N/A (0)      1.09 (1)      1.17 (1)
(15,*,0.6,*,*)                1.14 (4)      1.13 (2)      1.19 (4)      1.15 (4)      1.18 (2)      1.28 (4)
(15,*,*,0.5,*)                1.04 (1)      1.08 (1)      1.21 (3)      1.07 (1)      1.03 (1)      1.25 (3)
(15,*,*,2.5,*)                1.18 (3)      1.16 (2)      1.09 (2)      1.17 (3)      1.21 (2)      1.26 (2)
(15,*,*,*,1)                  1.08 (1)      1.11 (2)      1.13 (3)      1.06 (1)      1.06 (2)      1.20 (3)
(15,*,*,*,2)                  1.16 (3)      1.18 (1)      1.23 (2)      1.17 (3)      1.33 (1)      1.34 (2)
(25,zero,*,*,*)               1.14 (1)      1.18 (6)      1.03 (1)      1.22 (1)      1.31 (6)      1.12 (1)
(25,mixed,*,*,*)              1.03 (1)      1.27 (3)      1.18 (1)      1.26 (1)      1.22 (3)      1.22 (1)
(25,*,0.3,*,*)                 N/A (0)      1.27 (5)       N/A (0)       N/A (0)      1.37 (5)       N/A (0)
(25,*,0.6,*,*)                1.09 (2)      1.13 (4)      1.11 (2)      1.24 (2)      1.18 (4)      1.17 (2)
(25,*,*,0.5,*)                1.03 (1)      1.24 (4)       N/A (0)      1.26 (1)      1.23 (4)       N/A (0)
(25,*,*,2.5,*)                1.14 (1)      1.18 (5)      1.11 (2)      1.22 (1)      1.32 (5)      1.17 (2)
(25,*,*,*,1)                  1.14 (1)      1.10 (3)      1.11 (2)      1.22 (1)      1.25 (3)      1.17 (2)
(25,*,*,*,2)                  1.03 (1)      1.26 (6)       N/A (0)      1.26 (1)      1.30 (6)       N/A (0)
"""

GOLDEN_HR = """\
pattern                        ga cmax        ga wct        ga twt       sp cmax        sp wct        sp twt
(5,zero,*,*,*)                1.27 (2)       N/A (0)      1.08 (2)      1.36 (2)       N/A (0)      1.24 (2)
(5,mixed,*,*,*)               1.27 (2)      1.10 (3)      1.17 (1)      1.21 (2)      1.20 (3)      1.17 (1)
(5,*,0.3,*,*)                 1.30 (3)      1.07 (1)      1.12 (2)      1.35 (3)      1.26 (1)      1.24 (2)
(5,*,0.6,*,*)                 1.18 (1)      1.11 (2)      1.08 (1)      1.10 (1)      1.16 (2)      1.16 (1)
(5,*,*,0.5,*)                  N/A (0)      1.11 (2)      1.08 (2)       N/A (0)      1.16 (2)      1.24 (2)
(5,*,*,2.5,*)                 1.27 (4)      1.07 (1)      1.17 (1)      1.28 (4)      1.26 (1)      1.17 (1)
(5,*,*,*,1)                   1.34 (2)      1.10 (2)      1.17 (1)      1.43 (2)      1.27 (2)      1.17 (1)
(5,*,*,*,2)                   1.20 (2)      1.10 (1)      1.08 (2)      1.14 (2)      1.04 (1)      1.24 (2)
(15,zero,*,*,*)               1.24 (3)      1.41 (2)       N/A (0)      1.24 (3)      1.55 (2)       N/A (0)
(15,mixed,*,*,*)              1.16 (2)       N/A (0)      1.38 (2)      1.37 (2)       N/A (0)      1.64 (2)
(15,*,0.3,*,*)                1.25 (3)       N/A (0)      1.04 (1)      1.47 (3)       N/A (0)      1.04 (1)
(15,*,0.6,*,*)                1.14 (2)      1.41 (2)      1.72 (1)      1.02 (2)      1.55 (2)      2.24 (1)
(15,*,*,0.5,*)                1.24 (3)      1.64 (1)       N/A (0)      1.23 (3)      1.69 (1)       N/A (0)
(15,*,*,2.5,*)                1.15 (2)      1.18 (1)      1.38 (2)      1.39 (2)      1.42 (1)      1.64 (2)
(15,*,*,*,1)                  1.16 (2)      1.41 (2)      1.38 (2)      1.37 (2)      1.55 (2)      1.64 (2)
(15,*,*,*,2)                  1.24 (3)       N/A (0)       N/A (0)      1.24 (3)       N/A (0)       N/A (0)
(25,zero,*,*,*)               1.23 (3)      1.01 (1)      1.08 (2)      1.18 (3)      1.03 (1)      1.11 (2)
(25,mixed,*,*,*)              1.06 (3)      1.13 (1)      1.14 (4)      1.20 (3)      1.22 (1)      1.28 (4)
(25,*,0.3,*,*)                1.20 (4)      1.13 (1)      1.14 (3)      1.22 (4)      1.22 (1)      1.19 (3)
(25,*,0.6,*,*)                1.02 (2)      1.01 (1)      1.09 (3)      1.13 (2)      1.03 (1)      1.26 (3)
(25,*,*,0.5,*)                1.17 (4)       N/A (0)      1.16 (3)      1.22 (4)       N/A (0)      1.31 (3)
(25,*,*,2.5,*)                1.09 (2)      1.07 (2)      1.07 (3)      1.14 (2)      1.12 (2)      1.14 (3)
(25,*,*,*,1)                  1.04 (1)      1.13 (1)      1.15 (4)      1.13 (1)      1.22 (1)      1.24 (4)
(25,*,*,*,2)                  1.16 (5)      1.01 (1)      1.06 (2)      1.20 (5)      1.03 (1)      1.18 (2)
"""


def test_default_grid_summaries_match_the_golden_text(tmp_path, capsys, monkeypatch):
    records = fixed_records()
    assert {r.exact_status for r in records} == set(STATUSES)
    assert any(r.of_exact == 0 for r in records)
    assert summaries(tmp_path, capsys, monkeypatch, records) == {
        "pr": GOLDEN_PR, "hr": GOLDEN_HR}


def test_rows_follow_the_grid_levels_the_records_hold(tmp_path, capsys, monkeypatch):
    # The rows used to be fixed to the default levels: this grid printed
    # rows for T 0.3/0.6 and R 0.5/2.5, all N/A, and none for T 0.2 or R 1.0.
    grid = {"n": [5], "ready": ["zero"], "T": [0.2], "R": [1.0], "equipment": [2],
            "objectives": ["cmax"]}
    records = [ExperimentRecord(5, "zero", 0.2, 1.0, 2, rep, "cmax", 120, 110, 100,
                                "optimal") for rep in (1, 2)]
    text = summaries(tmp_path, capsys, monkeypatch, records, grid)["pr"]
    names = [line.split()[0] for line in text.splitlines()[1:]]
    assert names == ["(5,zero,*,*,*)", "(5,*,0.2,*,*)", "(5,*,*,1.0,*)", "(5,*,*,*,2)"]
    assert all("1.10 (2)" in line for line in text.splitlines()[1:])
