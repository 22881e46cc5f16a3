"""Permutation search heuristics: constructive SP and a genetic algorithm.

Both optimize a job permutation whose fitness is the decoded schedule's
objective.  SP runs a swap hill-climb followed by randomized rebuilds of
the ready-time partitions; the GA evolves permutations with a
position-swap crossover and a transposition mutation.  Where the
configured work would score every order anyway (small n), each first finds
the least score over all orders and stops searching once it holds it.
"""

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from .core import Instance, Objective
from .decoder import Decoder, JobOrder, cluster_affinity, decode, decoder_for
from .evaluator import Schedule

_Order = Tuple[str, ...]  # job ids in placement order


@dataclass(frozen=True)
class SPConfig:
    max_iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class GAConfig:
    pop_size: int = 100
    max_generations: int = 500
    stall_window: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.pop_size < 2:
            raise ValueError("pop_size must be >= 2")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")
        if self.stall_window > self.max_generations:
            raise ValueError("stall_window must not exceed max_generations")


@functools.lru_cache(maxsize=1)  # SP, the GA and exact each start from it
def sp_initial_order(instance: Instance) -> JobOrder:
    """Sort by ready time, then due/weight, then cluster affinity, then id."""

    def key(job):
        return (job.ready, Fraction(job.due, job.weight),
                -cluster_affinity(instance, job), job.id)

    return JobOrder(tuple(j.id for j in sorted(instance.jobs, key=key)))


# Most orders a solve's score memo holds; when full it is emptied, so it
# keeps recent orders, bounds memory and never changes a result.  Default GA
# solves visit up to 5,000 distinct orders at n = 8 and 21,000 at n = 25;
# at n = 5-40 this size still keeps 97% or more of their repeats.
MEMO_ENTRIES = 1 << 13


def _memo_score(decoder: Decoder, kind: Objective) -> Callable[[_Order], int]:
    """`decoder.score` for one objective, remembered per order tuple."""
    memo: Dict[_Order, int] = {}
    score = decoder.score

    def scored(order: _Order) -> int:
        value = memo.get(order)
        if value is None:
            value = score(order, kind)
            if len(memo) >= MEMO_ENTRIES:
                memo.clear()
            memo[order] = value
        return value

    return scored


def _floor(score: Callable[[_Order], int], first: _Order, evaluations: int,
           least: Callable[[], int]) -> float:
    """The least score over every order of the jobs in `first` where a solve
    making at least `evaluations` scores would score them all anyway (the
    coupon-collector bound n! ln n! <= evaluations); otherwise -inf.  A solve
    holding the floor cannot improve, so it stops without changing its
    result.

    `least()` is a score no order goes below.  The scan begins at `first`,
    the solve's own first order, and stops at the first order scoring
    `least()`; it is asked for only once the scan is due."""
    count = math.factorial(len(first))
    if count > evaluations or count * math.log(count) > evaluations:
        return -math.inf
    bound = least()
    best = math.inf
    for order in itertools.permutations(first):  # `first` comes first
        best = min(best, score(order))
        if best == bound:
            break
    return best


def _two_positions(below: Callable[[int], int], n: int) -> Tuple[int, int]:
    """`rng.sample(range(n), 2)` for n >= 2, given `below = rng._randbelow`
    (the draw behind `randrange` and `sample`), consuming the same bits."""
    i = below(n)
    if n <= 21:  # sample's pool branch: position n-1 fills the drawn slot
        j = below(n - 1)
        return i, (n - 1 if j == i else j)
    j = below(n)  # its set branch: redraw until distinct
    while j == i:
        j = below(n)
    return i, j


def run_sp(instance: Instance, kind: Objective,
           config: SPConfig) -> Tuple[Schedule, int, List[int]]:
    """Constructive search over permutations; returns best schedule, value,
    and the best-so-far value per iteration."""
    rng = random.Random(config.seed)
    below, uniform = rng._randbelow, rng.random
    n = len(instance.jobs)
    mean_ready = sum(j.ready for j in instance.jobs) / n
    part_x = [j.id for j in instance.jobs if j.ready == 0]
    part_y = [j.id for j in instance.jobs if 0 < j.ready < mean_ready]
    part_z = [j.id for j in instance.jobs if j.ready > 0 and j.ready >= mean_ready]

    decoder = decoder_for(instance)
    # Memoize only where orders repeat: when the iterations' pairs reach the
    # n! orders (the birthday bound).  Default SP repeats 88% of its orders
    # at n = 5 but 0.3% at n = 15 and 0.1% at n = 25, where a memo costs memory.
    if math.factorial(n) <= config.max_iterations ** 2:
        score = _memo_score(decoder, kind)
    else:
        score = functools.partial(decoder.score, kind=kind)
    current = list(sp_initial_order(instance))
    best_order = tuple(current)
    floor = _floor(score, best_order, config.max_iterations,
                   functools.partial(decoder.lower_bound, kind))
    best_value = score(best_order)
    trace = [best_value]

    # At the floor nothing better exists: stop, and repeat it in the trace.
    # It is checked only where the best changes, so no iteration pays for it.
    last = 1 if best_value == floor else config.max_iterations
    for itr in range(2, last + 1):
        if itr <= config.max_iterations // 2:
            if n >= 2:
                i, j = _two_positions(below, n)
                current[i], current[j] = current[j], current[i]
        else:
            current = (_shuffled(part_x, uniform) + _shuffled(part_y, uniform)
                       + _shuffled(part_z, uniform))
        order = tuple(current)
        value = score(order)
        if value < best_value:
            best_order, best_value = order, value
            if value == floor:
                break
        trace.append(best_value)
    trace += [best_value] * (config.max_iterations - len(trace))
    best_schedule, _ = decode(instance, JobOrder(best_order), kind)
    return best_schedule, best_value, trace


def _shuffled(ids: List[str], uniform: Callable[[], float]) -> List[str]:
    # Per-element uniform draws, sorted ascending.
    return [jid for _, jid in sorted((uniform(), jid) for jid in ids)]


# GA operators on order tuples; the JobOrder functions below wrap them.

def _swap_values(seq: _Order, a, b) -> _Order:
    if a == b:
        return seq
    out = list(seq)
    ia, ib = seq.index(a), seq.index(b)
    out[ia], out[ib] = b, a
    return tuple(out)


def _crossover(u: _Order, v: _Order, below, uniform) -> _Order:
    r = below(len(u))
    a, b = u[r], v[r]
    if a == b:
        return u
    return _swap_values(u if uniform() < 0.5 else v, a, b)


def _mutate(seq: _Order, below) -> _Order:
    if len(seq) < 2:
        return seq
    i, j = _two_positions(below, len(seq))
    out = list(seq)
    out[i], out[j] = seq[j], seq[i]
    return tuple(out)


def crossover_children(u: JobOrder, v: JobOrder, r: int) -> Tuple[JobOrder, JobOrder]:
    """Both children of the position-swap crossover at index `r` (0-based).

    The values at position r of the two parents are located in each parent
    and their positions swapped there.
    """
    a, b = u.order[r], v.order[r]
    return JobOrder(_swap_values(u.order, a, b)), JobOrder(_swap_values(v.order, a, b))


def crossover(u: JobOrder, v: JobOrder, rng: random.Random) -> JobOrder:
    """Swap the values found at one random position; return one child."""
    return JobOrder(_crossover(u.order, v.order, rng._randbelow, rng.random))


def mutate(u: JobOrder, rng: random.Random) -> JobOrder:
    """Swap the contents of two distinct random positions."""
    return JobOrder(_mutate(u.order, rng._randbelow))


def run_ga(instance: Instance, kind: Objective,
           config: GAConfig) -> Tuple[Schedule, int, List[int]]:
    """Genetic algorithm; returns best schedule, value, and per-generation
    best-so-far values."""
    rng = random.Random(config.seed)
    below, uniform = rng._randbelow, rng.random
    ids = [j.id for j in instance.jobs]
    pop_size = config.pop_size

    decoder = decoder_for(instance)
    score = _memo_score(decoder, kind)
    first = sp_initial_order(instance).order
    # Fewest scores a solve makes: the population, then stall_window + 1
    # generations before the stall rule can stop it.
    floor = _floor(score, first, pop_size * (
        1 + min(config.max_generations, config.stall_window + 1)),
        functools.partial(decoder.lower_bound, kind))
    # A member at the floor is the one `min` picks below, and at the floor
    # no later draw is used, so seeding stops there.
    population, fits = [first], [score(first)]
    while len(population) < pop_size and fits[-1] != floor:
        seq = ids[:]
        rng.shuffle(seq)
        population.append(tuple(seq))
        fits.append(score(population[-1]))
    best_idx = min(range(len(fits)), key=fits.__getitem__)
    best_order, best_value = population[best_idx], fits[best_idx]

    history: List[int] = []
    for _ in range(config.max_generations):
        if best_value != floor:  # at the floor, breeding finds nothing better
            parents = [_tournament(population, fits, below)
                       for _ in range(pop_size)]
            population, fits = [], []
            for _ in range(pop_size):
                u = parents[below(pop_size)]
                v = parents[below(pop_size)]
                child = _mutate(_crossover(u, v, below, uniform), below)
                f = score(child)
                if f < best_value:
                    best_order, best_value = child, f
                population.append(child)
                fits.append(f)
        history.append(best_value)
        if len(history) > config.stall_window and _stalled(history, config):
            break

    best_schedule, _ = decode(instance, JobOrder(best_order), kind)
    return best_schedule, best_value, history


def _tournament(population: List[_Order], fits: List[int], below) -> _Order:
    i = below(len(population))
    j = below(len(population))
    return population[i] if fits[i] <= fits[j] else population[j]


# The GA stops once the best value's mean relative change per generation
# over the last `stall_window` generations is at most this.
STALL_TOLERANCE = 1e-6


def _stalled(history: List[int], config: GAConfig) -> bool:
    window = history[-(config.stall_window + 1):]
    changes = [
        abs(b - a) / max(abs(a), 1.0)
        for a, b in zip(window, window[1:])
    ]
    return sum(changes) / len(changes) <= STALL_TOLERANCE
