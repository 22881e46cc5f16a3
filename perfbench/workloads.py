"""The benchmark's workloads, driven through photosched's public API.

Each workload is built from a seed, then yields an endless, deterministic
stream of operations.  `run` performs one operation (the timed part) and
`check` re-verifies its outputs (untimed).  Every call into the package
goes through a module attribute, so a `Tracer` that wraps that attribute
sees it.
"""

import contextlib
import io
import itertools
import math
import os
import random
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from photosched import cli, core, decoder, evaluator, exact, experiments, instgen, search
from photosched.core import Objective

# The acceptance suite's desk grid: 16 cells at n = 5.
DESK_GRID = {"n": [5], "ready": ["zero", "mixed"], "T": [0.3, 0.6],
             "R": [0.5, 2.5], "equipment": [1, 2]}
# One replication: 16 cells x 3 objectives.
DESK_RECORDS = math.prod(len(v) for v in DESK_GRID.values()) * len(Objective)
DESK_TIME_LIMIT = 1.0
SEARCH_N = 25
# Each run solves each instance about once, so its mean decode cost is
# averaged over many instances; parks alternate 1, 2, 1, 2, ...
SEARCH_INSTANCES = 48
# GA with the stall window equal to the generation cap runs exactly this
# many generations, so every GA solve does the same pop_size * 11 fitness
# evaluations (about SP's 1,000 decodes at n = 25).
SEARCH_GA_GENERATIONS = 10
VERIFY_SIZES = (2, 5, 15)
# Verify cycles over this many items drawn from the seed, so a run covers
# the same inputs however fast the host is, and the items that fail are
# the same on every run of a seed (about 5 s a pass untraced).
VERIFY_POOL = 600
LITERAL_CHECK_MAX_N = 5

# Rows of the literal model that carry the disjunctive big-M constant.
BIG_M_ROWS = ("no_clash_", "busy_", "reentry_")


@dataclass
class Outcome:
    """What one operation produced, for the gate and the report."""

    values: Dict[str, object] = field(default_factory=dict)
    captured: List[tuple] = field(default_factory=list)


@dataclass
class Failure:
    op: int
    reason: str
    known: bool = False  # an open, documented defect of the package


class Capture:
    """Keeps the schedules behind `run_grid`'s records for the gate.

    `run_grid` returns values only; wrapping the solver names it looks up
    lets the gate re-check each schedule it was given.
    """

    NAMES = ("run_sp", "run_ga", "solve_exact")

    def __init__(self):
        self.calls: List[tuple] = []
        self._saved = []

    def __enter__(self):
        for name in self.NAMES:
            original = getattr(experiments, name)
            self._saved.append((name, original))
            setattr(experiments, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for name, original in self._saved:
            setattr(experiments, name, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        def captured(instance, kind, *args, **kwargs):
            result = fn(instance, kind, *args, **kwargs)
            self.calls.append((name, instance, kind, result))
            return result
        return captured


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def latency_metrics(name: str, times: List[float], unit: str) -> Dict[str, tuple]:
    """Median and tail of `times`: the tail is the highest percentile with
    at least ten samples beyond it, and is left out when none has."""
    if not times:
        return {}
    scale = {"s": 1.0, "ms": 1e3}[unit]
    ordered = sorted(times)
    out = {f"{name}.p50": (statistics.median(ordered) * scale, unit,
                           f"{len(ordered)} samples")}
    for q in TAIL_PERCENTILES:
        if len(ordered) * (100 - q) / 100 >= 10:
            out[f"{name}.tail"] = (percentile(ordered, q) * scale, unit,
                                   f"p{q:g} of {len(ordered)} samples")
            break
    return out


def _derived(seed: int, *parts) -> int:
    return random.Random(f"{seed}:" + ":".join(map(str, parts))).getrandbits(32)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build inputs and warm up; runs before the first timed operation."""

    def ops(self) -> Iterator[tuple]:
        raise NotImplementedError

    def run(self, op: tuple) -> Outcome:
        raise NotImplementedError

    def check(self, index: int, op: tuple, out: Outcome) -> List[Failure]:
        raise NotImplementedError

    def summarize(self, op: tuple, out: Outcome) -> dict:
        """The few values of one operation kept for the reference and the report."""
        raise NotImplementedError

    def reference_key(self, summary: dict) -> list:
        """The values of one operation that must repeat exactly for a seed."""
        raise NotImplementedError

    def item(self, index: int, op: tuple) -> int:
        """The input an operation works on.  Operations on the same item
        give the same result; `attempted` and `failed` count items."""
        return index

    def parts(self, summary: dict, seconds: float) -> Dict[str, float]:
        """An operation's time split into the parts `op_cost` sums: each
        part's typical time is taken over the items that have it."""
        return {"op": seconds}

    def report(self, summaries: List[dict], latencies: List[float]) -> Dict[str, tuple]:
        """Workload-specific metrics: name -> (value, unit, note)."""
        return {}


def _check_schedule(index, instance, schedule, kind, reported, label) -> List[Failure]:
    """Feasibility, reported value and semi-active re-timing of one schedule."""
    if schedule is None:
        return [Failure(index, f"{label}: no schedule returned")]
    violations = evaluator.check_feasibility(instance, schedule)
    if violations:
        return [Failure(index, f"{label}: infeasible: {violations[0].detail}")]
    value = evaluator.objective_value(instance, schedule, kind)
    if value != reported:
        return [Failure(index, f"{label}: reported {reported}, schedule scores {value}")]
    retimed = evaluator.earliest_completion(instance, schedule.assign, schedule.sequences)
    if evaluator.objective_value(instance, retimed, kind) > value:
        return [Failure(index, f"{label}: re-timing its own sequences makes it worse")]
    return []


# ---------------------------------------------------------------------------

class SearchN25(Workload):
    """SP and GA solves at n = 25, where `decode` does nearly all the work."""

    name = "search-n25"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.paths = []
        self.instances = []
        for i in range(SEARCH_INSTANCES):
            config = instgen.GenConfig(
                n=SEARCH_N, ready_scenario=instgen.ReadyScenario.MIXED_30_70,
                T=rng.choice([0.3, 0.6]), R=rng.choice([0.5, 2.5]),
                equipment=1 + i % 2, seed=rng.getrandbits(32))
            instance = instgen.generate_instance(config)
            path = os.path.join(self.workdir, f"search-{i}.json")
            core.save_instance(instance, path)
            self.paths.append(path)
            self.instances.append(instance)
        # Warm-up: first decode on each park, off the clock.
        for instance in self.instances[:2]:
            order = search.sp_initial_order(instance)
            decoder.decode(instance, order, Objective.TWT)

    def ops(self):
        # Every 8 consecutive operations cover each (park, algorithm,
        # objective) combination once.
        for k in itertools.count():
            i = k % SEARCH_INSTANCES
            alg = ("sp", "ga")[k // 2 % 2]
            kind = (Objective.TWT, Objective.CMAX)[k // 4 % 2]
            yield (alg, i, kind, _derived(self.seed, "solve", k))

    def run(self, op) -> Outcome:
        alg, i, kind, solver_seed = op
        out_csv = os.path.join(self.workdir, f"schedule-{solver_seed}.csv")
        if alg == "sp":
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
                code = cli.dispatch(["solve", self.paths[i], "--alg", "sp",
                                     "--objective", kind.value,
                                     "--seed", str(solver_seed),
                                     "--out-schedule", out_csv])
            if code != 0:
                raise RuntimeError(f"solve exited {code}: {text.getvalue().strip()}")
            value = int(text.getvalue().split()[1].split("=")[1])
            return Outcome(values={"value": value, "csv": out_csv})
        instance = core.load_instance(self.paths[i])
        config = search.GAConfig(max_generations=SEARCH_GA_GENERATIONS,
                                 stall_window=SEARCH_GA_GENERATIONS, seed=solver_seed)
        schedule, value, _ = search.run_ga(instance, kind, config)
        evaluator.save_schedule(instance, schedule, out_csv)
        return Outcome(values={"value": value, "csv": out_csv})

    def check(self, index, op, out):
        alg, i, kind, _ = op
        schedule = evaluator.load_schedule(out.values["csv"])
        os.remove(out.values["csv"])
        return _check_schedule(index, self.instances[i], schedule, kind,
                               out.values["value"], f"{alg} {kind.value} instance {i}")

    def summarize(self, op, out):
        return {"alg": op[0], "value": out.values["value"]}

    def reference_key(self, summary):
        return [summary["value"]]

    def report(self, summaries, latencies):
        out = {}
        for alg in ("sp", "ga"):
            times = [t for s, t in zip(summaries, latencies) if s["alg"] == alg]
            out.update(latency_metrics(f"{alg}.solve_s", times, "s"))
            out[f"{alg}.objective_sum"] = (
                sum(s["value"] for s in summaries if s["alg"] == alg), "count", "")
        return out


# ---------------------------------------------------------------------------

class DeskGrid(Workload):
    """The paper's n = 5 experiment grid with SP, GA and exact per record."""

    name = "desk-grid"

    def setup(self) -> None:
        # Warm-up: HiGHS and the solver paths on a tiny instance.
        warm = instgen.generate_instance(instgen.GenConfig(n=2, equipment=2, seed=self.seed))
        exact.solve_exact(warm, Objective.CMAX, time_limit=DESK_TIME_LIMIT)
        search.run_sp(warm, Objective.CMAX, search.SPConfig(max_iterations=10))

    def ops(self):
        cells = list(itertools.product(*(DESK_GRID[k] for k in
                                          ("n", "ready", "T", "R", "equipment"))))
        # One replication of the grid, cycled: every run of a seed solves
        # the same records, so its figures vary with the package and the
        # host, not with how many records it got through.  Every record
        # draws its own instance (a master seed per objective), so a
        # replication samples one instance per record instead of one per
        # three, and a record never needs the ones before it.  The records
        # run in a seeded random order: the grid's own order puts the hard
        # ready=zero cells first, which would make a run's last, partial
        # pass harder than its full ones.
        records = [(cell, _derived(self.seed, "desk", 1, kind.value), kind)
                   for cell in cells for kind in Objective]
        random.Random(self.seed).shuffle(records)
        return itertools.cycle(records)

    def item(self, index, op):
        return index % DESK_RECORDS

    def run(self, op) -> Outcome:
        (n, ready, T, R, mc), master, kind = op
        grid = {"n": [n], "ready": [ready], "T": [T], "R": [R], "equipment": [mc]}
        with Capture() as capture:
            (record,) = experiments.run_grid(grid, [kind], 1, master,
                                             exact_time_limit=DESK_TIME_LIMIT)
        return Outcome(values={"record": record}, captured=capture.calls)

    def check(self, index, op, out):
        record = out.values["record"]
        failures = []
        if record.exact_status == experiments.FAILED:
            failures.append(Failure(index, "exact solve failed"))
        reported = {"run_sp": record.of_sp, "run_ga": record.of_ga,
                    "solve_exact": record.of_exact}
        for name, instance, kind, result in out.captured:
            if name == "solve_exact":
                if result.status != exact.TIMED_OUT or result.schedule is not None:
                    failures += _check_schedule(index, instance, result.schedule, kind,
                                                reported[name], f"exact {kind.value}")
            else:
                schedule, value, _ = result
                failures += _check_schedule(index, instance, schedule, kind,
                                            reported[name], f"{name} {kind.value}")
        if record.exact_status == exact.OPTIMAL:
            for solver, value in (("sp", record.of_sp), ("ga", record.of_ga)):
                if value < record.of_exact:
                    failures.append(Failure(
                        index, f"{solver} {value} beats the proven optimum {record.of_exact}"))
        return failures

    def summarize(self, op, out):
        r = out.values["record"]
        return {"sp": r.of_sp, "ga": r.of_ga, "exact": r.of_exact,
                "status": r.exact_status, "times": dict(r.runtimes)}

    def reference_key(self, summary):
        optimum = summary["exact"] if summary["status"] == exact.OPTIMAL else None
        return [summary["sp"], summary["ga"], optimum]

    def parts(self, summary, seconds):
        # Split, a hard exact solve does not make its record's SP and GA
        # look slow, and each solver's typical time is its own median.
        times = summary["times"]
        return {**times, "rest": seconds - sum(times.values())}

    def report(self, summaries, latencies):
        out = {}
        for solver in ("sp", "ga", "exact"):
            out.update(latency_metrics(f"{solver}.solve_s",
                                       [s["times"][solver] for s in summaries], "s"))
        optimal = [s for s in summaries if s["status"] == exact.OPTIMAL]
        out["exact.optimal_frac"] = (len(optimal) / len(summaries), "frac",
                                     f"{len(optimal)} of {len(summaries)}")
        for solver in ("sp", "ga"):
            out[f"{solver}.objective_sum"] = (sum(s[solver] for s in summaries), "count", "")
            ratios = [s[solver] / s["exact"] for s in optimal if s["exact"]]
            if ratios:
                out[f"{solver}.pr_mean"] = (sum(ratios) / len(ratios), "ratio",
                                            f"{len(ratios)} proven optima")
        return out


# ---------------------------------------------------------------------------

class Verify(Workload):
    """One-shot use of the evaluator, I/O, generator and literal model.

    Every operation generates its item's instance afresh, loads it from a
    new file and decodes it once, so per-instance set-up in any layer is
    paid on each operation instead of being amortised.  Operations cycle
    over VERIFY_POOL items drawn from the seed.
    """

    name = "verify"

    def setup(self) -> None:
        # Warm-up: one item of each size, off the clock.
        warm = random.Random(-1 - self.seed)
        for i, n in enumerate(VERIFY_SIZES):
            op = (-1 - i, n, _verify_config(warm, n), _shuffled_ids(warm, n),
                  warm.choice(list(Objective)))
            self.check(op[0], op, self.run(op))

    def ops(self):
        rng = random.Random(self.seed)
        pool = []
        for i in range(VERIFY_POOL):
            n = VERIFY_SIZES[i % len(VERIFY_SIZES)]
            pool.append((i, n, _verify_config(rng, n), _shuffled_ids(rng, n),
                         rng.choice(list(Objective))))
        return itertools.cycle(pool)

    def item(self, index, op):
        return op[0]

    def _paths(self, op):
        # A new file per item, as a user saving many instances would write;
        # rewriting one path in place is slower and noisier on ext4.
        stem = os.path.join(self.workdir, f"item-{op[0]}")
        return stem + ".json", stem + ".csv"

    def run(self, op) -> Outcome:
        _, n, config, ids, kind = op
        instance_path, schedule_path = self._paths(op)
        instance = instgen.generate_instance(config)
        core.save_instance(instance, instance_path)
        instance = core.load_instance(instance_path)
        schedule, value = decoder.decode(instance, decoder.JobOrder(ids), kind)
        violations = evaluator.check_feasibility(instance, schedule)
        retimed = evaluator.earliest_completion(instance, schedule.assign, schedule.sequences)
        evaluator.save_schedule(instance, schedule, schedule_path)
        reloaded = evaluator.load_schedule(schedule_path)
        reload_violations = evaluator.check_feasibility(instance, reloaded)
        values = {"instance": instance, "kind": kind, "value": value,
                  "violations": violations, "retimed": retimed,
                  "reloaded": reloaded, "reload_violations": reload_violations}
        if n <= LITERAL_CHECK_MAX_N:
            model = exact.export_milp(instance, kind)
            assignment = exact.schedule_to_values(instance, schedule, model)
            values["model"] = model
            values["assignment"] = assignment
            values["violated_rows"] = exact.check_values(model, assignment)
        return Outcome(values=values)

    def check(self, index, op, out):
        for path in self._paths(op):
            os.remove(path)
        v = out.values
        instance, kind, value = v["instance"], v["kind"], v["value"]
        label = f"item {instance.label}"
        if v["violations"]:
            return [Failure(index, f"{label}: decoded schedule infeasible: "
                                   f"{v['violations'][0].detail}")]
        failures = []
        if evaluator.objective_value(instance, v["retimed"], kind) > value:
            failures.append(Failure(index, f"{label}: re-timing made the schedule worse"))
        if v["reload_violations"] or \
                evaluator.objective_value(instance, v["reloaded"], kind) != value:
            failures.append(Failure(index, f"{label}: schedule CSV round trip changed it"))
        rows = v.get("violated_rows")
        if rows:
            known = _explained_by_short_big_m(instance, v["model"], v["assignment"], rows)
            reason = (f"{label}: literal model rejects a feasible schedule at "
                      f"{','.join(rows)}")
            if known:
                reason += " (export_milp big-M omits ready times)"
            failures.append(Failure(index, reason, known=known))
        return failures

    def summarize(self, op, out):
        return {"n": op[1], "value": out.values["value"]}

    def reference_key(self, summary):
        return [summary["value"]]

    def parts(self, summary, seconds):
        return {f"n{summary['n']}": seconds}

    def report(self, summaries, latencies):
        return {"verify.items_per_s": (len(latencies) / sum(latencies), "1/s", "")}


def _verify_config(rng: random.Random, n: int):
    return instgen.GenConfig(
        n=n, ready_scenario=rng.choice(list(instgen.ReadyScenario)),
        T=rng.choice([0.3, 0.6]), R=rng.choice([0.5, 2.5]),
        equipment=rng.choice([1, 2]), seed=rng.getrandbits(32))


def _shuffled_ids(rng: random.Random, n: int) -> tuple:
    ids = [f"J{k + 1}" for k in range(n)]  # generate_instance's job ids
    rng.shuffle(ids)
    return tuple(ids)


def _explained_by_short_big_m(instance, model, assignment, rows) -> bool:
    """Whether every violated row is a big-M row that holds once M also
    covers the latest ready time, as `solve_exact`'s own model sets it.

    Such rows are written `lhs >= p - k*M` with `+-M` coefficients on the
    binaries and 0 <= p < M; only M is rescaled.
    """
    M = model.big_m
    M2 = M + max(job.ready for job in instance.jobs)
    by_name = {row.name: row for row in model.constraints}
    for name in rows:
        if not name.startswith(BIG_M_ROWS):
            return False
        row = by_name[name]
        lhs = sum((c / M * M2 if abs(abs(c) - M) < 1e-9 else c) * assignment[var]
                  for var, c in row.coeffs)
        k = -(-(-row.rhs) // M)  # ceil(-rhs / M)
        rhs = row.rhs + k * M - k * M2
        if lhs < rhs - 1e-6 * (1 + abs(rhs)):
            return False
    return True


WORKLOADS = {w.name: w for w in (SearchN25, DeskGrid, Verify)}
