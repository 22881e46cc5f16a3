"""Random instance generator for the photolithography scheduling benchmark.

Reproduces the experimental design grid: fixed per-stage processing times
with Bernoulli skip probabilities at stages 1/4/6, two equipment levels,
two ready-time scenarios, and due dates drawn around an estimated
makespan scaled by the tardiness factor T and range factor R.
"""

import math
import numbers
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

from .core import Instance, Job, Machine, TOOL_STAGES

# Processing-time design per stage: (time, probability a job needs it).
STAGE_TIMES = {
    1: (40, 0.8),
    2: (20, 1.0),
    3: (75, 1.0),
    4: (45, 0.2),
    5: (30, 1.0),
    6: (45, 0.5),
}

BOTTLENECK_STAGE = 3
BOTTLENECK_TIME = STAGE_TIMES[BOTTLENECK_STAGE][0]
NON_BOTTLENECK_TIME = sum(t for s, (t, _) in STAGE_TIMES.items() if s != BOTTLENECK_STAGE)

# Machine counts per tool class for the two equipment levels.
EQUIPMENT_COUNTS = {
    1: {"S": 4, "C": 2, "E": 4, "D": 2, "B": 3, "CE": 2, "CED": 2, "CEDB": 2, "ED": 1},
    2: {"S": 2, "C": 1, "E": 2, "D": 1, "B": 2, "CE": 1, "CED": 1, "CEDB": 1, "ED": 1},
}


def is_number(value, kind=numbers.Real) -> bool:
    """Is `value` a `kind` of number?  A bool is an Integral and a Real, but
    no job count, equipment level, factor or replication count."""
    return isinstance(value, kind) and not isinstance(value, bool)


class ReadyScenario(str, Enum):
    ALL_ZERO = "zero"
    MIXED_30_70 = "mixed"


@dataclass(frozen=True)
class GenConfig:
    n: int
    ready_scenario: ReadyScenario = ReadyScenario.ALL_ZERO
    T: float = 0.3
    R: float = 0.5
    equipment: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (is_number(self.n, numbers.Integral) and self.n >= 1):
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        # 1.0 would run park 1 but seed, label and record as a new level.
        if not (is_number(self.equipment, numbers.Integral)
                and self.equipment in EQUIPMENT_COUNTS):
            raise ValueError(f"equipment must be an integer 1 or 2, got {self.equipment!r}")
        # T above 1 makes every due date 0, a negative R makes them all
        # equal, and NaN or infinity are no due-date window at all.
        if not (is_number(self.T) and 0 <= self.T <= 1):
            raise ValueError(f"T must be a number in [0, 1], got {self.T!r}")
        if not (is_number(self.R) and 0 <= self.R < math.inf):
            raise ValueError(f"R must be a finite number >= 0, got {self.R!r}")


def equipment(scenario: int) -> List[Machine]:
    """Machine park for equipment scenario 1 or 2."""
    counts = EQUIPMENT_COUNTS[scenario]
    machines = []
    for cls in TOOL_STAGES:
        for i in range(1, counts[cls] + 1):
            machines.append(Machine(id=f"{cls}{i}", tool_class=cls))
    return machines


def gen_processing(rng: random.Random) -> Tuple[int, ...]:
    """Draw one job's six stage times."""
    p = []
    for stage in range(1, 7):
        t, prob = STAGE_TIMES[stage]
        p.append(t if rng.random() < prob else 0)
    return tuple(p)


def estimate_cmax(n: int, machines: Sequence[Machine]) -> Fraction:
    """Estimated makespan 1.5 * (n * p_bn / m_ibn + p_nbn): expose time p_bn,
    m_ibn machines covering expose, the other stages' total time p_nbn."""
    m_ibn = sum(1 for m in machines if BOTTLENECK_STAGE in m.covered_stages)
    if m_ibn == 0:
        raise ValueError("no machine covers the bottleneck stage")
    return Fraction(3, 2) * (n * Fraction(BOTTLENECK_TIME, m_ibn) + NON_BOTTLENECK_TIME)


def _round_half_up(x: Fraction) -> int:
    return int((2 * x + 1) // 2)


def gen_ready(rng: random.Random, scenario: ReadyScenario,
              cmax_estimate: Fraction, n: int) -> List[int]:
    if scenario == ReadyScenario.ALL_ZERO:
        return [0] * n
    # 30% of jobs (rounded half toward more zeros) released immediately.
    n_zero = int(Fraction(3, 10) * n + Fraction(1, 2))
    zero_jobs = set(rng.sample(range(n), min(n_zero, n)))
    upper = int(Fraction(2, 3) * cmax_estimate)
    ready = []
    for k in range(n):
        if k in zero_jobs or upper < 1:
            ready.append(0)
        else:
            ready.append(rng.randint(1, upper))
    return ready


def due_window(T: Union[float, str], R: Union[float, str],
               cmax_estimate: Fraction) -> Tuple[int, int]:
    """The (lo, hi) range due dates are drawn from: the estimated makespan
    scaled by 1 - T, widened by R / 2 on either side, clamped at 0; T and R
    are numbers or their text, read as the decimals they print as."""
    mu = cmax_estimate * (1 - Fraction(str(T)))
    half = Fraction(str(R)) / 2
    lo = max(0, _round_half_up(mu * (1 - half)))
    return lo, max(lo, _round_half_up(mu * (1 + half)))


def gen_weights(rng: random.Random, n: int) -> List[int]:
    return [rng.randint(1, 5) for _ in range(n)]


# Instances of one scenario share one machine tuple, so their park's
# routing table (`core`'s, read through `Instance.park`) is found by
# identity before equality.
@lru_cache(maxsize=len(EQUIPMENT_COUNTS))
def _machine_park(scenario: int) -> Tuple[Machine, ...]:
    return tuple(equipment(scenario))


# The makespan estimate and due window depend only on these, and their
# Fraction arithmetic costs more than the rest of a small instance; T and R
# are keyed by the text `due_window` parses.
@lru_cache(maxsize=256)
def _estimate_and_window(n: int, scenario: int, T: str,
                         R: str) -> Tuple[Fraction, Tuple[int, int]]:
    est = estimate_cmax(n, _machine_park(scenario))
    return est, due_window(T, R, est)


def generate_instance(config: GenConfig) -> Instance:
    """Deterministically build one instance from its design-cell config."""
    rng = random.Random(config.seed)
    machines = _machine_park(config.equipment)
    est, (lo, hi) = _estimate_and_window(config.n, config.equipment,
                                         str(config.T), str(config.R))

    p_list = [gen_processing(rng) for _ in range(config.n)]
    ready = gen_ready(rng, config.ready_scenario, est, config.n)
    due = [rng.randint(lo, hi) for _ in range(config.n)]  # one window, a draw per job
    weights = gen_weights(rng, config.n)

    jobs = tuple(
        Job(id=f"J{k + 1}", p=p_list[k], ready=ready[k], due=due[k],
            weight=weights[k])
        for k in range(config.n)
    )
    label = (f"n{config.n}-r_{config.ready_scenario.value}-T{config.T}"
             f"-R{config.R}-mc{config.equipment}-seed{config.seed}")
    return Instance(jobs=jobs, machines=machines, label=label)
