"""Batch experiment harness: instance grid, solver runs, PR/HR tables.

PR (performance ratio) compares a heuristic value against a proven
optimum; HR (heuristic ratio) compares it against the best incumbent of a
time-limited exact run.
"""

import csv
import itertools
import numbers
import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple

from .core import Objective
from .exact import OPTIMAL, TIMED_OUT, SolverError, check_time_limit, solve_exact
from .instgen import GenConfig, ReadyScenario, generate_instance, is_number
from .search import GAConfig, SPConfig, run_ga, run_sp

FAILED = "failed"
SKIPPED = "skipped"  # the exact solve was not asked for

DEFAULT_GRID = {
    "n": [5, 15, 25],
    "ready": ["zero", "mixed"],
    "T": [0.3, 0.6],
    "R": [0.5, 2.5],
    "equipment": [1, 2],
}


@dataclass
class ExperimentRecord:
    n: int
    ready: str
    T: float
    R: float
    mc: int
    rep: int
    objective: str
    of_sp: int
    of_ga: int
    of_exact: Optional[int]
    exact_status: str
    runtimes: Dict[str, float] = field(default_factory=dict)

    @property
    def cell(self) -> Tuple[int, str, float, float, int]:
        return (self.n, self.ready, self.T, self.R, self.mc)


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit seed from the master seed and a cell/replication key."""
    key = f"{master_seed}:" + ":".join(str(p) for p in parts)
    return random.Random(key).getrandbits(64)


def run_grid(grid: dict, objectives: Iterable[Objective], replications: int,
             master_seed: int, exact_time_limit: float = 60.0,
             sp_iterations: int = 1000,
             ga: Optional[GAConfig] = None,
             run_exact: bool = True) -> List[ExperimentRecord]:
    """Run every (cell, replication, objective) combination deterministically.

    Every grid value, and the exact time limit when `run_exact`, is
    checked (ValueError) before the first solve.  So is a level or an
    objective given twice, which would write duplicate records.
    Solver failures are recorded with status "failed" and the run continues;
    with `run_exact` false every record's status is "skipped".
    """
    if not (is_number(replications, numbers.Integral) and replications >= 1):
        raise ValueError(f"replications must be an integer >= 1, got {replications!r}")
    objectives = list(objectives)
    levels = [(key, grid[key]) for key in ("n", "ready", "T", "R", "equipment")]
    for key, values in levels + [("objectives", [k.value for k in objectives])]:
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"grid key '{key}' repeats {repeated[0]!r}")
    if run_exact:
        check_time_limit(exact_time_limit)
    records: List[ExperimentRecord] = []
    cells = itertools.product(grid["n"], grid["ready"], grid["T"], grid["R"],
                              grid["equipment"])
    runs = []
    for cell, rep in itertools.product(cells, range(1, replications + 1)):
        n, ready, T, R, mc = cell
        seed = derive_seed(master_seed, *cell, rep)
        runs.append((cell, rep, GenConfig(n=n, ready_scenario=ReadyScenario(ready),
                                          T=T, R=R, equipment=mc, seed=seed)))
    for cell, rep, config in runs:
        instance = generate_instance(config)
        for kind in objectives:
            runtimes = {}
            solver_seed = derive_seed(master_seed, *cell, rep, kind.value)

            t0 = time.perf_counter()
            _, of_sp, _ = run_sp(instance, kind,
                                 SPConfig(max_iterations=sp_iterations, seed=solver_seed))
            runtimes["sp"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            _, of_ga, _ = run_ga(instance, kind, replace(ga or GAConfig(), seed=solver_seed))
            runtimes["ga"] = time.perf_counter() - t0

            of_exact = None
            status = SKIPPED
            if run_exact:
                t0 = time.perf_counter()
                try:
                    result = solve_exact(instance, kind, time_limit=exact_time_limit)
                    of_exact = result.value
                    status = result.status
                except SolverError:
                    status = FAILED
                runtimes["exact"] = time.perf_counter() - t0

            records.append(ExperimentRecord(
                *cell, rep=rep, objective=kind.value, of_sp=of_sp, of_ga=of_ga,
                of_exact=of_exact, exact_status=status, runtimes=runtimes))
    return records


def _ratio(record: ExperimentRecord, status: str, solver: str) -> Optional[float]:
    """The heuristic value over the exact one, for a record whose exact run
    ended with `status`; None for any other record and when the exact
    value is missing or 0."""
    if record.exact_status != status or not record.of_exact:
        return None
    value = record.of_ga if solver == "ga" else record.of_sp
    return value / record.of_exact


def performance_ratio(record: ExperimentRecord, solver: str = "ga") -> Optional[float]:
    """Heuristic value over proven optimum; None when undefined."""
    return _ratio(record, OPTIMAL, solver)


def heuristic_ratio(record: ExperimentRecord, solver: str = "ga") -> Optional[float]:
    """Heuristic value over the time-limited incumbent; None when undefined."""
    return _ratio(record, TIMED_OUT, solver)


def format_summary(records: List[ExperimentRecord], ratio: str = "pr") -> str:
    """Tables-style summary of mean PR (`ratio` "pr") or HR ("hr").

    One row per job count and level of each factor (ready, T, R, mc), in
    the order the records first hold them; each cell is the mean (count)
    of the solver's ratio over the row's records of one objective."""
    status = OPTIMAL if ratio == "pr" else TIMED_OUT
    header = f"{'pattern':<24}" + "".join(
        f"{s + ' ' + k.value:>14}"
        for s in ("ga", "sp") for k in Objective)
    lines = [header]
    for n in dict.fromkeys(r.n for r in records):
        of_n = [r for r in records if r.n == n]
        for factor in range(1, 5):
            for level in dict.fromkeys(r.cell[factor] for r in of_n):
                row = [r for r in of_n if r.cell[factor] == level]
                cells = []
                for solver in ("ga", "sp"):
                    for kind in Objective:
                        values = [v for r in row if r.objective == kind.value
                                  and (v := _ratio(r, status, solver)) is not None]
                        mean = f"{sum(values) / len(values):.2f}" if values else "N/A"
                        cells.append(f"{mean} ({len(values)})".rjust(14))
                name = f"({n}," + ",".join(str(level) if i == factor else "*"
                                           for i in range(1, 5)) + ")"
                lines.append(f"{name:<24}" + "".join(cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Record files: deterministic values file plus a separate timings file

RECORD_FIELDS = ["n", "ready", "T", "R", "mc", "rep", "objective",
                 "of_sp", "of_ga", "of_exact", "exact_status"]


def save_records(records: List[ExperimentRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            writer.writerow([getattr(r, f) for f in RECORD_FIELDS])


def save_timings(records: List[ExperimentRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS[:7] + ["solver", "seconds"])
        for r in records:
            key = [getattr(r, f) for f in RECORD_FIELDS[:7]]
            for solver, seconds in sorted(r.runtimes.items()):
                writer.writerow(key + [solver, f"{seconds:.3f}"])

