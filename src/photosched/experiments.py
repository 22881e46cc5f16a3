"""Batch experiment harness: instance grid, solver runs, PR/HR aggregation.

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
from .exact import OPTIMAL, TIMED_OUT, SolverError, solve_exact
from .instgen import GenConfig, ReadyScenario, generate_instance
from .search import GAConfig, SPConfig, run_ga, run_sp

FAILED = "failed"

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


@dataclass(frozen=True)
class AggregateRow:
    pattern: Tuple
    mean: Optional[float]
    count: int
    excluded_zero: int = 0

    def formatted(self) -> str:
        if self.mean is None:
            return f"N/A ({self.count})"
        return f"{self.mean:.2f} ({self.count})"


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

    Solver failures are recorded with status "failed" and the run continues.
    """
    if not (isinstance(replications, numbers.Integral) and replications >= 1):
        raise ValueError(f"replications must be an integer >= 1, got {replications!r}")
    records: List[ExperimentRecord] = []
    cells = itertools.product(grid["n"], grid["ready"], grid["T"], grid["R"],
                              grid["equipment"])
    for cell, rep in itertools.product(cells, range(1, replications + 1)):
        n, ready, T, R, mc = cell
        seed = derive_seed(master_seed, *cell, rep)
        config = GenConfig(n=n, ready_scenario=ReadyScenario(ready),
                           T=T, R=R, equipment=mc, seed=seed)
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
            status = FAILED
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


def matches(record: ExperimentRecord, pattern: Tuple) -> bool:
    return all(p == "*" or p == v for p, v in zip(pattern, record.cell))


def aggregate(records: List[ExperimentRecord], pattern: Tuple,
              objective: Objective, solver: str = "ga",
              ratio: str = "pr") -> AggregateRow:
    """Mean PR or HR over records matching the wildcard pattern.

    Records of the ratio's exact status without a ratio (an exact value of
    0) are counted as excluded."""
    wanted = OPTIMAL if ratio == "pr" else TIMED_OUT
    values = []
    excluded = 0
    for rec in records:
        if rec.objective != objective.value or not matches(rec, pattern):
            continue
        r = _ratio(rec, wanted, solver)
        if r is not None:
            values.append(r)
        elif rec.exact_status == wanted:
            excluded += 1
    mean = sum(values) / len(values) if values else None
    return AggregateRow(pattern=pattern, mean=mean, count=len(values),
                        excluded_zero=excluded)


def summary_patterns(n: int) -> List[Tuple]:
    return [
        (n, "zero", "*", "*", "*"),
        (n, "mixed", "*", "*", "*"),
        (n, "*", 0.3, "*", "*"),
        (n, "*", 0.6, "*", "*"),
        (n, "*", "*", 0.5, "*"),
        (n, "*", "*", 2.5, "*"),
        (n, "*", "*", "*", 1),
        (n, "*", "*", "*", 2),
    ]


def format_summary(records: List[ExperimentRecord], n_values: Iterable[int],
                   ratio: str = "pr") -> str:
    """Tables-style summary: one row per pattern, mean (count) per cell."""
    header = f"{'pattern':<24}" + "".join(
        f"{s + ' ' + k.value:>14}"
        for s in ("ga", "sp") for k in Objective)
    lines = [header]
    for n in n_values:
        for pattern in summary_patterns(n):
            cells = []
            for solver in ("ga", "sp"):
                for kind in Objective:
                    row = aggregate(records, pattern, kind, solver, ratio)
                    cells.append(f"{row.formatted():>14}")
            name = "(" + ",".join("*" if p == "*" else str(p) for p in pattern) + ")"
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

