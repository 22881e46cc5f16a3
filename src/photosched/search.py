"""Permutation search heuristics: constructive SP and a genetic algorithm.

Both optimize a job permutation whose fitness is the decoded schedule's
objective.  SP runs a swap hill-climb followed by randomized rebuilds of
the ready-time partitions; the GA evolves permutations with a
position-swap crossover and a transposition mutation.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .core import Instance, Objective
from .decoder import Decoder, JobOrder, cluster_affinity, decode
from .evaluator import Schedule


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
    stall_tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.pop_size < 2:
            raise ValueError("pop_size must be >= 2")
        if self.stall_window > self.max_generations:
            raise ValueError("stall_window must not exceed max_generations")


def sp_initial_order(instance: Instance) -> JobOrder:
    """Sort by ready time, then due/weight, then cluster affinity, then id."""

    def key(job):
        return (job.ready, Fraction(job.due, job.weight),
                -cluster_affinity(instance, job), job.id)

    return JobOrder(tuple(j.id for j in sorted(instance.jobs, key=key)))


def run_sp(instance: Instance, kind: Objective,
           config: SPConfig) -> Tuple[Schedule, int, List[int]]:
    """Constructive search over permutations; returns best schedule, value,
    and the best-so-far value per iteration."""
    rng = random.Random(config.seed)
    n = len(instance.jobs)
    mean_ready = sum(j.ready for j in instance.jobs) / n
    part_x = [j.id for j in instance.jobs if j.ready == 0]
    part_y = [j.id for j in instance.jobs if 0 < j.ready < mean_ready]
    part_z = [j.id for j in instance.jobs if j.ready > 0 and j.ready >= mean_ready]

    decoder = Decoder(instance)
    current = list(sp_initial_order(instance))
    best_order = tuple(current)
    best_value = decoder.score(best_order, kind)
    trace = [best_value]

    for itr in range(2, config.max_iterations + 1):
        if itr <= config.max_iterations // 2:
            if n >= 2:
                i, j = rng.sample(range(n), 2)
                current[i], current[j] = current[j], current[i]
        else:
            current = (_shuffled(part_x, rng) + _shuffled(part_y, rng)
                       + _shuffled(part_z, rng))
        value = decoder.score(current, kind)
        if value < best_value:
            best_order, best_value = tuple(current), value
        trace.append(best_value)
    best_schedule, _ = decode(instance, JobOrder(best_order), kind)
    return best_schedule, best_value, trace


def _shuffled(ids: List[str], rng: random.Random) -> List[str]:
    # Per-element uniform draws, sorted ascending.
    return [jid for _, jid in sorted((rng.random(), jid) for jid in ids)]


def crossover_children(u: JobOrder, v: JobOrder, r: int) -> Tuple[JobOrder, JobOrder]:
    """Both children of the position-swap crossover at index `r` (0-based).

    The values at position r of the two parents are located in each parent
    and their positions swapped there.
    """
    a, b = u.order[r], v.order[r]
    return _swap_values(u, a, b), _swap_values(v, a, b)


def _swap_values(perm: JobOrder, a, b) -> JobOrder:
    if a == b:
        return perm
    seq = list(perm.order)
    ia, ib = seq.index(a), seq.index(b)
    seq[ia], seq[ib] = seq[ib], seq[ia]
    return JobOrder(tuple(seq))


def crossover(u: JobOrder, v: JobOrder, rng: random.Random) -> JobOrder:
    """Swap the values found at one random position; return one child."""
    r = rng.randrange(len(u))
    if u.order[r] == v.order[r]:
        return u
    cu, cv = crossover_children(u, v, r)
    return cu if rng.random() < 0.5 else cv


def mutate(u: JobOrder, rng: random.Random) -> JobOrder:
    """Swap the contents of two distinct random positions."""
    n = len(u)
    if n < 2:
        return u
    i, j = rng.sample(range(n), 2)
    seq = list(u.order)
    seq[i], seq[j] = seq[j], seq[i]
    return JobOrder(tuple(seq))


def run_ga(instance: Instance, kind: Objective,
           config: GAConfig) -> Tuple[Schedule, int, List[int]]:
    """Genetic algorithm; returns best schedule, value, and per-generation
    best-so-far values."""
    rng = random.Random(config.seed)
    ids = [j.id for j in instance.jobs]

    decoder = Decoder(instance)
    cache: Dict[Tuple[str, ...], int] = {}

    def fitness(order: JobOrder) -> int:
        key = order.order
        if key not in cache:
            cache[key] = decoder.score(key, kind)
        return cache[key]

    population = [sp_initial_order(instance)]
    for _ in range(config.pop_size - 1):
        seq = ids[:]
        rng.shuffle(seq)
        population.append(JobOrder(tuple(seq)))
    fits = [fitness(p) for p in population]
    best_idx = min(range(len(fits)), key=fits.__getitem__)
    best_order, best_value = population[best_idx], fits[best_idx]

    history: List[int] = []
    for _ in range(config.max_generations):
        parents = [_tournament(population, fits, rng) for _ in range(config.pop_size)]
        new_pop: List[JobOrder] = []
        new_fits: List[int] = []
        for _ in range(config.pop_size):
            u = parents[rng.randrange(len(parents))]
            v = parents[rng.randrange(len(parents))]
            child = mutate(crossover(u, v, rng), rng)
            f = fitness(child)
            if f < best_value:
                best_order, best_value = child, f
            new_pop.append(child)
            new_fits.append(f)
        population, fits = new_pop, new_fits
        history.append(best_value)
        if len(history) > config.stall_window and _stalled(history, config):
            break

    best_schedule, _ = decode(instance, best_order, kind)
    return best_schedule, best_value, history


def _tournament(population: List[JobOrder], fits: List[int],
                rng: random.Random) -> JobOrder:
    i = rng.randrange(len(population))
    j = rng.randrange(len(population))
    return population[i] if fits[i] <= fits[j] else population[j]


def _stalled(history: List[int], config: GAConfig) -> bool:
    window = history[-(config.stall_window + 1):]
    changes = [
        abs(b - a) / max(abs(a), 1.0)
        for a, b in zip(window, window[1:])
    ]
    return sum(changes) / len(changes) <= config.stall_tolerance
