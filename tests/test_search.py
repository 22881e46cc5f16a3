"""Permutation heuristics: initial order, SP search, GA operators and loop."""

import hashlib
import itertools
import math
import random

import pytest

from photosched import search
from photosched.core import Instance, Job, Objective
from photosched.decoder import Decoder, JobOrder, decode
from photosched.evaluator import check_feasibility, save_schedule
from photosched.experiments import run_grid, save_records
from photosched.instgen import GenConfig, ReadyScenario, equipment, generate_instance
from photosched.search import (
    GAConfig,
    SPConfig,
    crossover,
    crossover_children,
    mutate,
    run_ga,
    run_sp,
    sp_initial_order,
)


def test_sp_initial_order_sorts_by_ready_then_urgency():
    jobs = (
        Job("J1", (0, 20, 75, 0, 30, 0), ready=50, due=100, weight=1),
        Job("J2", (0, 20, 75, 0, 30, 0), ready=0, due=300, weight=1),
        Job("J3", (0, 20, 75, 0, 30, 0), ready=0, due=150, weight=1),
        Job("J4", (0, 20, 75, 0, 30, 0), ready=0, due=300, weight=3),
    )
    inst = Instance(jobs=jobs, machines=tuple(equipment(1)))
    order = sp_initial_order(inst)
    # Zero-ready jobs first by due/weight (J4: 100, J3: 150, J2: 300).
    assert list(order) == ["J4", "J3", "J2", "J1"]


def test_sp_initial_order_breaks_ties_by_cluster_affinity():
    jobs = (
        Job("JA", (0, 20, 75, 45, 30, 0), due=200),  # pre-bake: fewer tools
        Job("JB", (0, 20, 75, 0, 30, 0), due=200),
    )
    inst = Instance(jobs=jobs, machines=tuple(equipment(1)))
    assert list(sp_initial_order(inst)) == ["JB", "JA"]


def test_sp_single_iteration_is_initial_decode():
    inst = generate_instance(GenConfig(n=5, equipment=2, seed=4))
    _, base = decode(inst, sp_initial_order(inst), Objective.CMAX)
    sch, value, trace = run_sp(inst, Objective.CMAX,
                               SPConfig(max_iterations=1, seed=0))
    assert value == base
    assert trace == [base]
    assert check_feasibility(inst, sch) == []


def test_sp_trace_monotone_and_feasible():
    inst = generate_instance(
        GenConfig(n=8, ready_scenario=ReadyScenario.MIXED_30_70,
                  equipment=2, seed=21))
    sch, value, trace = run_sp(inst, Objective.TWT,
                               SPConfig(max_iterations=200, seed=5))
    assert len(trace) == 200
    assert all(a >= b for a, b in zip(trace, trace[1:]))
    assert trace[-1] == value
    assert check_feasibility(inst, sch) == []


def test_sp_never_worse_than_initial():
    for seed in range(5):
        inst = generate_instance(GenConfig(n=6, equipment=1, seed=seed))
        _, base = decode(inst, sp_initial_order(inst), Objective.WCT)
        _, value, _ = run_sp(inst, Objective.WCT,
                             SPConfig(max_iterations=100, seed=seed))
        assert value <= base


def test_sp_deterministic():
    inst = generate_instance(GenConfig(n=6, equipment=2, seed=8))
    config = SPConfig(max_iterations=150, seed=42)
    a = run_sp(inst, Objective.CMAX, config)
    b = run_sp(inst, Objective.CMAX, config)
    assert a[1] == b[1] and a[2] == b[2]


def test_sp_config_validation():
    with pytest.raises(ValueError):
        SPConfig(max_iterations=0)


def test_crossover_children_worked_example():
    u = JobOrder((1, 2, 3, 4, 5))
    v = JobOrder((5, 1, 4, 3, 2))
    cu, cv = crossover_children(u, v, 2)
    assert cu.order == (1, 2, 4, 3, 5)
    assert cv.order == (5, 1, 3, 4, 2)


def test_crossover_equal_position_returns_parent():
    u = JobOrder((1, 2, 3))
    v = JobOrder((3, 2, 1))
    cu, cv = crossover_children(u, v, 1)
    assert cu.order == u.order and cv.order == v.order


def test_operators_preserve_permutations():
    rng = random.Random(7)
    ids = tuple(f"J{i}" for i in range(1, 9))
    u = JobOrder(ids)
    v = JobOrder(tuple(reversed(ids)))
    for _ in range(2000):
        child = mutate(crossover(u, v, rng), rng)
        assert sorted(child.order) == sorted(ids)
        u, v = v, child


def test_mutate_changes_two_positions():
    rng = random.Random(3)
    u = JobOrder(("J1", "J2", "J3", "J4"))
    child = mutate(u, rng)
    diffs = [i for i in range(4) if child.order[i] != u.order[i]]
    assert len(diffs) == 2
    assert mutate(JobOrder(("J1",)), rng).order == ("J1",)


def test_ga_stops_on_stall_with_constant_fitness():
    inst = Instance(jobs=(Job("J1", (40, 20, 75, 45, 30, 45)),),
                    machines=tuple(equipment(2)))
    config = GAConfig(pop_size=4, stall_window=50, seed=0)
    _, value, history = run_ga(inst, Objective.CMAX, config)
    assert value == 255
    assert len(history) == config.stall_window + 1
    assert len(set(history)) == 1


def test_ga_feasible_and_seeded_with_initial_order():
    inst = generate_instance(GenConfig(n=6, equipment=2, seed=9))
    _, base = decode(inst, sp_initial_order(inst), Objective.WCT)
    sch, value, history = run_ga(inst, Objective.WCT,
                                 GAConfig(pop_size=10, max_generations=60,
                                          stall_window=20, seed=1))
    assert check_feasibility(inst, sch) == []
    assert value <= base
    assert all(a >= b for a, b in zip(history, history[1:]))


def test_ga_deterministic():
    inst = generate_instance(GenConfig(n=6, equipment=1, seed=14))
    config = GAConfig(pop_size=12, max_generations=40, stall_window=15, seed=77)
    a = run_ga(inst, Objective.TWT, config)
    b = run_ga(inst, Objective.TWT, config)
    assert a[1] == b[1] and a[2] == b[2]


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GAConfig(pop_size=1)
    with pytest.raises(ValueError):
        GAConfig(stall_window=600, max_generations=500)
    for window in (0, -1):  # run_ga would divide by the window in _stalled
        with pytest.raises(ValueError, match="stall_window"):
            GAConfig(stall_window=window)


# Values and schedule-CSV digests (first 16 hex digits of the SHA-256) of
# seeded n=25 solves: (park, instance seed, objective, SP value, SP digest,
# GA value, GA digest).  A faster decoder or search loop must keep them.
GOLDEN_SOLVES = [
    (1, 11, Objective.CMAX, 517, "7d5e1a8b94208587", 517, "857620b0a016c8c7"),
    (1, 11, Objective.WCT, 28313, "c66ed83927d91a2c", 26249, "e1222ff66a8bc3da"),
    (1, 11, Objective.TWT, 4282, "4972a995338926ff", 3798, "857620b0a016c8c7"),
    (2, 12, Objective.CMAX, 710, "989e55c296b052aa", 710, "989e55c296b052aa"),
    (2, 12, Objective.WCT, 34001, "989e55c296b052aa", 34001, "989e55c296b052aa"),
    (2, 12, Objective.TWT, 3181, "4152998e232d30b1", 3430, "989e55c296b052aa"),
]


def _schedule_digest(instance, schedule, path) -> str:
    save_schedule(instance, schedule, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("mc,seed,kind,sp_value,sp_digest,ga_value,ga_digest",
                         GOLDEN_SOLVES)
def test_golden_solves(tmp_path, mc, seed, kind, sp_value, sp_digest,
                       ga_value, ga_digest):
    inst = generate_instance(GenConfig(n=25, ready_scenario=ReadyScenario.MIXED_30_70,
                                       equipment=mc, seed=seed))
    sch, value, _ = run_sp(inst, kind, SPConfig(max_iterations=300, seed=5))
    assert (value, _schedule_digest(inst, sch, tmp_path / "sp.csv")) == \
        (sp_value, sp_digest)
    sch, value, _ = run_ga(inst, kind, GAConfig(pop_size=20, max_generations=15,
                                                stall_window=15, seed=5))
    assert (value, _schedule_digest(inst, sch, tmp_path / "ga.csv")) == \
        (ga_value, ga_digest)


GOLDEN_RECORDS = (
    "n,ready,T,R,mc,rep,objective,of_sp,of_ga,of_exact,exact_status\r\n"
    "5,zero,0.6,2.5,1,1,cmax,210,210,,skipped\r\n"
    "5,zero,0.6,2.5,1,1,wct,2780,2780,,skipped\r\n"
    "5,zero,0.6,2.5,1,1,twt,382,382,,skipped\r\n"
    "5,zero,0.6,2.5,2,1,cmax,250,250,,skipped\r\n"
    "5,zero,0.6,2.5,2,1,wct,3455,3455,,skipped\r\n"
    "5,zero,0.6,2.5,2,1,twt,1789,1789,,skipped\r\n"
    "5,mixed,0.6,2.5,1,1,cmax,273,273,,skipped\r\n"
    "5,mixed,0.6,2.5,1,1,wct,4211,4211,,skipped\r\n"
    "5,mixed,0.6,2.5,1,1,twt,909,909,,skipped\r\n"
    "5,mixed,0.6,2.5,2,1,cmax,334,334,,skipped\r\n"
    "5,mixed,0.6,2.5,2,1,wct,2359,2359,,skipped\r\n"
    "5,mixed,0.6,2.5,2,1,twt,583,583,,skipped\r\n"
)


def test_golden_records_bytes(tmp_path):
    grid = {"n": [5], "ready": ["zero", "mixed"], "T": [0.6], "R": [2.5],
            "equipment": [1, 2]}
    records = run_grid(grid, list(Objective), 1, master_seed=2024,
                       sp_iterations=50,
                       ga=GAConfig(pop_size=10, max_generations=10, stall_window=5),
                       run_exact=False)
    path = tmp_path / "records.csv"
    save_records(records, path)
    assert path.read_bytes() == GOLDEN_RECORDS.encode()


@pytest.mark.parametrize("seed", [0, 1, 99, 2024])
def test_two_positions_draws_like_sample(seed):
    # n up to 64 covers both of sample's branches (pool for n <= 21, set above).
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in range(2, 65):
        for _ in range(5):
            assert list(search._two_positions(ours._randbelow, n)) == \
                theirs.sample(range(n), 2)
            assert ours.random() == theirs.random()


def _desk_instance(n, mc, ready, seed):
    return generate_instance(GenConfig(n=n, ready_scenario=ReadyScenario(ready),
                                       T=0.6, R=2.5, equipment=mc, seed=seed))


def _run_digest(instance, schedule, trace, path) -> str:
    save_schedule(instance, schedule, path)
    digest = hashlib.sha256(path.read_bytes())
    digest.update(",".join(map(str, trace)).encode())
    return digest.hexdigest()[:16]


# Default-config SP and GA, and a 4-member GA whose loop (not its initial
# population) finds the best order on the last instance, at desk sizes:
# (n, park, ready, instance seed, objective, then value and digest of the
# schedule CSV plus trace for SP, GA and the 4-member GA).
SMALL_GA = GAConfig(pop_size=4, max_generations=60, stall_window=20, seed=3)
GOLDEN_DESK = [
    (2, 1, "mixed", 1, "cmax", 434, "5bf6323eb223666e", 434, "f045d82ca076d068", 434, "124ebc0bb8c673f4"),
    (2, 1, "mixed", 1, "wct", 2590, "e70750807073830a", 2590, "e885454b5f7d14fb", 2590, "9ac58823476a9ed6"),
    (2, 1, "mixed", 1, "twt", 1490, "9ad91f64356b8932", 1490, "7c25fdcc32af8660", 1490, "adbcae419457318a"),
    (2, 2, "zero", 1, "cmax", 255, "463ec50fd8080244", 255, "f7a956665737410e", 255, "c30157f0f29643a0"),
    (2, 2, "zero", 1, "wct", 1140, "ac59452a4713f42b", 1140, "52e72d3cf9516c84", 1140, "d3ac87222d34d978"),
    (2, 2, "zero", 1, "twt", 681, "d513fe6adce3f543", 681, "d5d86b11fd99ec5f", 681, "02ff679046a4ff1a"),
    (3, 1, "mixed", 1, "cmax", 255, "e971c7b466144279", 255, "ab62790291e5850a", 255, "676be3413664e64c"),
    (3, 1, "mixed", 1, "wct", 1627, "61087b95a22cd2aa", 1627, "2804cc4cb9916df8", 1627, "6b80f19d298289a7"),
    (3, 1, "mixed", 1, "twt", 1414, "151a9f5f32a6f2cf", 1414, "1e0fa962b87a8f8d", 1414, "6c5c52ec6d048045"),
    (3, 2, "zero", 5, "cmax", 210, "c06b7f39a1b79ab1", 210, "32be6cb08466a216", 210, "f66340285f1f4240"),
    (3, 2, "zero", 5, "wct", 1000, "dc8051f3d12d22bb", 1000, "6c1d20a586bbb1de", 1000, "6732b1a40869ad86"),
    (3, 2, "zero", 5, "twt", 223, "c0aab2dd7ebc3fc8", 223, "c9ede03203396ecb", 223, "9db72c0dc7bdbf76"),
    (5, 1, "zero", 5, "cmax", 255, "dd8cd3b72028eae1", 255, "552f13153862ddc4", 255, "fd2c52276aae82d8"),
    (5, 1, "zero", 5, "wct", 3095, "b04984a99d3405f3", 3095, "7dd46fbe23d1c74a", 3095, "e7f8f4ea797dd85e"),
    (5, 1, "zero", 5, "twt", 1485, "a8056347d00e85c2", 1485, "a6479ee580a55fdd", 1485, "3575fcbe7189afe2"),
    (5, 2, "mixed", 5, "cmax", 306, "a5456c4a73bf6170", 306, "bd3713187955878f", 306, "26a0fcacb535836e"),
    (5, 2, "mixed", 5, "wct", 3649, "ee83809d8f2441fe", 3649, "034a064841dae351", 3649, "9a8b6c75ccbfc774"),
    (5, 2, "mixed", 5, "twt", 1266, "4375a6354c864347", 1266, "00cc22fc810b2bb7", 1266, "bb3153f8e5d72a89"),
]


@pytest.mark.parametrize("n,mc,ready,seed,kind,sp_value,sp_digest,ga_value,ga_digest,"
                         "small_value,small_digest", GOLDEN_DESK)
def test_golden_desk_solves(tmp_path, n, mc, ready, seed, kind, sp_value, sp_digest,
                            ga_value, ga_digest, small_value, small_digest):
    inst = _desk_instance(n, mc, ready, seed)
    kind = Objective(kind)
    runs = [(run_sp(inst, kind, SPConfig()), sp_value, sp_digest),
            (run_ga(inst, kind, GAConfig()), ga_value, ga_digest),
            (run_ga(inst, kind, SMALL_GA), small_value, small_digest)]
    for (sch, value, trace), want_value, want_digest in runs:
        assert (value, _run_digest(inst, sch, trace, tmp_path / "s.csv")) == \
            (want_value, want_digest)


@pytest.mark.parametrize("kind", list(Objective))
def test_capped_memo_changes_no_result(monkeypatch, kind):
    inst = _desk_instance(5, 2, "mixed", 5)
    solves = [lambda: run_sp(inst, kind, SPConfig(max_iterations=300, seed=2)),
              lambda: run_ga(inst, kind, SMALL_GA)]
    scored = []
    score = Decoder.score

    def counted(self, order, kind):
        scored.append(order)
        return score(self, order, kind)

    monkeypatch.setattr(Decoder, "score", counted)
    uncapped = [solve() for solve in solves]
    uncapped_calls = len(scored)
    monkeypatch.setattr(search, "MEMO_ENTRIES", 4)
    assert [solve() for solve in solves] == uncapped
    # With at most 4 orders kept, repeated orders are scored again.
    assert len(scored) - uncapped_calls > uncapped_calls


def test_full_memo_empties_and_keeps_recent_orders(monkeypatch):
    monkeypatch.setattr(search, "MEMO_ENTRIES", 2)
    scored = []

    class Recording:
        def score(self, order, kind):
            scored.append(order[0])
            return len(scored)

    memo_score = search._memo_score(Recording(), Objective.CMAX)
    values = [memo_score((job,)) for job in "abacca"]
    # "c" finds the memo full and empties it, so the last "a" is scored again.
    assert scored == list("abca")
    assert values == [1, 2, 1, 3, 3, 4]


@pytest.mark.parametrize("n,memoized", [(5, True), (25, False)])
def test_sp_memoizes_only_where_orders_repeat(monkeypatch, n, memoized):
    inst = _desk_instance(n, 1, "mixed", 1)
    calls = []
    score = Decoder.score

    def counted(self, order, kind):
        calls.append(order)
        return score(self, order, kind)

    monkeypatch.setattr(Decoder, "score", counted)
    run_sp(inst, Objective.TWT, SPConfig(max_iterations=200))
    # 200 iterations: 200**2 >= 5! orders, but not 25!.
    assert (len(calls) < 200) == memoized
    assert len(calls) == len(set(calls)) if memoized else len(calls) == 200


def _no_floor(monkeypatch):
    monkeypatch.setattr(search, "_floor", lambda *args: -math.inf)


def _ranked_score(calls):
    """A score that counts its calls and is least at the last order."""
    def score(order):
        calls.append(order)
        return -int("".join(order), 36)
    return score


def _unmet(asked=None):
    """A bound below every score, so the floor scan scores every order."""
    def bound():
        if asked is not None:
            asked.append(True)
        return -math.inf
    return bound


@pytest.mark.parametrize("n,evaluations", [(5, 574), (6, 4737)])
def test_floor_is_the_least_score_inside_the_coupon_collector_bound(n, evaluations):
    # 5! ln 5! = 574.5 and 6! ln 6! = 4737.7: one evaluation short, no floor.
    ids = tuple(f"{k}" for k in range(1, n + 1))
    calls, asked = [], []
    assert search._floor(_ranked_score(calls), ids, evaluations,
                         _unmet(asked)) == -math.inf
    # Short of the coupon-collector bound, the per-job bound is not asked for.
    assert calls == [] and asked == []
    floor = search._floor(_ranked_score(calls), ids, evaluations + 1, _unmet(asked))
    assert sorted(calls) == sorted(itertools.permutations(ids))
    assert floor == -int("".join(reversed(ids)), 36)
    assert asked == [True]


def test_floor_holds_for_one_job_and_never_for_large_n():
    calls = []
    assert search._floor(_ranked_score(calls), ("J1",), 1, _unmet()) == -int("J1", 36)
    assert search._floor(_ranked_score(calls), tuple(f"J{k}" for k in range(200)),
                         10**9, _unmet()) == -math.inf
    assert calls == [("J1",)]


@pytest.mark.parametrize("first", ["12345", "31524"])
@pytest.mark.parametrize("k", [1, 2, 7, 120])
def test_floor_stops_at_the_first_order_meeting_the_bound(first, k):
    orders = list(itertools.permutations(tuple(first)))
    calls = []

    def score(order):  # the k-th order scanned and every later one score 0
        calls.append(order)
        return int(orders.index(order) < k - 1)

    assert search._floor(score, tuple(first), 575, lambda: 0) == 0
    assert calls == orders[:k]
    assert calls[0] == tuple(first)


SMALL_SP = SPConfig(max_iterations=100, seed=7)
# stall_window == max_generations: every solve runs all 10 generations.
FULL_GA = GAConfig(pop_size=20, max_generations=10, stall_window=10, seed=1)
FLOOR_SOLVES = [(run_sp, SPConfig()), (run_sp, SMALL_SP), (run_ga, GAConfig()),
                (run_ga, SMALL_GA), (run_ga, FULL_GA)]


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("mc,ready", [(1, "zero"), (1, "mixed"), (2, "zero"),
                                      (2, "mixed")])
def test_floor_changes_no_result(monkeypatch, n, mc, ready):
    inst = _desk_instance(n, mc, ready, seed=n)
    solves = [(solve, kind, config) for solve, config in FLOOR_SOLVES
              for kind in Objective]
    with_floor = [solve(inst, kind, config) for solve, kind, config in solves]
    for (solve, _, config), (_, _, trace) in zip(solves, with_floor):
        if solve is run_sp:
            assert len(trace) == config.max_iterations
    _no_floor(monkeypatch)
    assert [solve(inst, kind, config) for solve, kind, config in solves] == with_floor


def _calls(monkeypatch, name):
    calls = []
    real = getattr(search, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(search, name, counted)
    return calls


@pytest.mark.parametrize("solve,config,inner", [(run_sp, SPConfig(), "_two_positions"),
                                                (run_ga, GAConfig(), "_tournament")])
def test_floor_stops_the_search_at_n5(monkeypatch, solve, config, inner):
    inst = _desk_instance(5, 1, "mixed", 5)
    calls = _calls(monkeypatch, inner)
    for kind in Objective:
        solve(inst, kind, config)
    with_floor = len(calls)
    _no_floor(monkeypatch)
    for kind in Objective:
        solve(inst, kind, config)
    without_floor = len(calls) - with_floor
    # SP swaps up to 499 times and the GA breeds 5,100 or more children.
    assert with_floor * 20 < without_floor


# Above the bound no order is scored that the search would not score itself.
@pytest.mark.parametrize("solve,config,n", [(run_sp, SPConfig(), 6),
                                            (run_ga, GAConfig(), 7)])
def test_floor_scores_no_extra_order_above_the_bound(monkeypatch, solve, config, n):
    inst = _desk_instance(n, 2, "mixed", 3)
    scored = []
    score = Decoder.score

    def counted(self, order, kind):
        scored.append(order)
        return score(self, order, kind)

    monkeypatch.setattr(Decoder, "score", counted)
    for kind in Objective:
        solve(inst, kind, config)
    with_floor = scored[:]
    scored.clear()
    _no_floor(monkeypatch)
    for kind in Objective:
        solve(inst, kind, config)
    assert scored == with_floor


# Default GA on this instance: population[0], SP's initial order, misses the
# floor, and member 3 is the first to hold it.  The TWT floor is the per-job
# bound; the WCT floor lies above it, so the floor scan scores all 5! orders.
@pytest.mark.parametrize("kind,at_bound", [(Objective.TWT, True),
                                           (Objective.WCT, False)])
def test_ga_seeding_stops_at_the_floor(monkeypatch, kind, at_bound):
    inst = _desk_instance(5, 2, "mixed", 6)
    config = GAConfig()
    scored, scanned = [], []
    memo_score, floor = search._memo_score, search._floor

    def counted_memo(decoder, kind):
        score = memo_score(decoder, kind)

        def counted(order):
            scored.append(order)
            return score(order)
        return counted

    def marked_floor(*args):
        value = floor(*args)
        scanned.append(len(scored))
        return value

    monkeypatch.setattr(search, "_memo_score", counted_memo)
    monkeypatch.setattr(search, "_floor", marked_floor)
    result = run_ga(inst, kind, config)
    decoder = Decoder(inst)
    assert (result[1] == decoder.lower_bound(kind)) == at_bound
    assert scanned[0] < 120 if at_bound else scanned[0] == 120
    # After the floor scan, only the seeded members are scored.
    seeded = [decoder.score(order, kind) for order in scored[scanned[0]:]]
    assert scored[scanned[0]] == sp_initial_order(inst).order
    assert len(seeded) == 4 < config.pop_size
    assert seeded[-1] == result[1] < min(seeded[:-1])
    _no_floor(monkeypatch)
    assert run_ga(inst, kind, config) == result
