"""Domain model for a six-stage photolithography line with cluster tools.

Stages are numbered 1..6: sink, coat, expose, bake (pre-develop), develop,
bake (post-develop).  The two bake stages share the same pool of ovens, so
a lot can revisit an oven it used earlier in its flow.
"""

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, List, Tuple

N_STAGES = 6
STAGES = tuple(range(1, N_STAGES + 1))

SINK, COAT, EXPOSE, BAKE_PRE, DEVELOP, BAKE_POST = STAGES

# Stage set served by each tool class.  B ovens serve both bake stages as
# independent visits; the multi-stage classes CE/CED/CEDB/ED are cluster
# tools that hold a single lot for their entire covered span.
TOOL_STAGES: Dict[str, Tuple[int, ...]] = {
    "S": (1,),
    "C": (2,),
    "E": (3,),
    "D": (5,),
    "B": (4, 6),
    "CE": (2, 3),
    "CED": (2, 3, 5),
    "CEDB": (2, 3, 5, 6),
    "ED": (3, 5),
}

# The routing contract.  Each cluster class maps to the stages whose need
# bars it: the pre-develop bake oven sits outside CED and CEDB, so a lot
# needing stage 4 cannot use them.  A lot may also commit to a cluster only
# when it needs every stage the tool covers (CEDB always runs its final
# bake).  Every other stage goes to the one individual class serving it.
CLUSTER_BARS: Dict[str, Tuple[int, ...]] = {
    "CE": (),
    "CED": (4,),
    "CEDB": (4,),
    "ED": (),
}

# First covered stage of each cluster class; a lot commits to the cluster
# machine when it reaches this stage.
CLUSTER_ENTRY = {cls: TOOL_STAGES[cls][0] for cls in CLUSTER_BARS}

# Classes whose machines may process each stage.
STAGE_CLASSES: Dict[int, Tuple[str, ...]] = {
    s: tuple(cls for cls, covered in TOOL_STAGES.items() if s in covered)
    for s in STAGES
}

# The individual (non-cluster) class serving each stage.
_INDIVIDUAL_CLASS = {s: cls for cls, covered in TOOL_STAGES.items()
                    if cls not in CLUSTER_BARS for s in covered}


class Objective(str, Enum):
    CMAX = "cmax"
    WCT = "wct"
    TWT = "twt"


@dataclass(frozen=True)
class Machine:
    id: str
    tool_class: str

    def __post_init__(self):
        if self.tool_class not in TOOL_STAGES:
            raise ValueError(f"unknown tool class {self.tool_class!r}")

    @property
    def covered_stages(self) -> Tuple[int, ...]:
        return TOOL_STAGES[self.tool_class]

    @property
    def is_cluster(self) -> bool:
        return self.tool_class in CLUSTER_ENTRY

    def covers(self, stage: int) -> bool:
        return stage in TOOL_STAGES[self.tool_class]


@dataclass(frozen=True)
class Job:
    id: str
    p: Tuple[int, ...]  # processing minutes per stage, index 0 = stage 1
    ready: int = 0
    due: int = 0
    weight: int = 1

    def __post_init__(self):
        if len(self.p) != N_STAGES:
            raise ValueError(f"job {self.id}: expected {N_STAGES} stage times")
        if any(t < 0 for t in self.p):
            raise ValueError(f"job {self.id}: negative processing time")
        if self.ready < 0 or self.due < 0:
            raise ValueError(f"job {self.id}: negative ready/due time")

    def duration(self, stage: int) -> int:
        return self.p[stage - 1]

    def needs(self, stage: int) -> bool:
        return self.p[stage - 1] > 0

    @property
    def stages(self) -> Tuple[int, ...]:
        """Stages with positive processing time, in flow order."""
        return tuple(s for s in STAGES if self.p[s - 1] > 0)

    @property
    def total_time(self) -> int:
        return sum(self.p)


@dataclass(frozen=True)
class Instance:
    jobs: Tuple[Job, ...]
    machines: Tuple[Machine, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        object.__setattr__(self, "machines", tuple(self.machines))
        jids = [j.id for j in self.jobs]
        mids = [m.id for m in self.machines]
        # The exact layer joins ids with "_" into variable names.
        for what, ids in (("job", jids), ("machine", mids)):
            for i in ids:
                if not (isinstance(i, str) and i.isascii() and i.isalnum()):
                    raise ValueError(
                        f"{what} id {i!r} must be made only of ASCII letters and digits")
        if len(set(jids)) != len(jids):
            raise ValueError("duplicate job ids")
        if len(set(mids)) != len(mids):
            raise ValueError("duplicate machine ids")
        for job in self.jobs:
            if not park_routes(self, job):
                raise ValueError(f"job {job.id}: no route through the machine park")

    def job(self, job_id: str) -> Job:
        return self._job_index[job_id]

    def machine(self, machine_id: str) -> Machine:
        return self._machine_index[machine_id]

    @cached_property
    def _job_index(self) -> Dict[str, Job]:
        return {j.id: j for j in self.jobs}

    @cached_property
    def _machine_index(self) -> Dict[str, Machine]:
        return {m.id: m for m in self.machines}

    def machines_of_class(self, tool_class: str) -> List[Machine]:
        return [m for m in self.machines if m.tool_class == tool_class]


@dataclass(frozen=True)
class RouteChoice:
    """One consistent way of covering a job's coat/expose/develop block.

    ``family`` is "individual" or the cluster class used; ``stage_class``
    maps each needed stage to the tool class that serves it.
    """

    family: str
    stage_class: Tuple[Tuple[int, str], ...]

    @property
    def stages(self) -> Tuple[int, ...]:
        return tuple(s for s, _ in self.stage_class)


def _require_core_stages(job: Job) -> None:
    if not (job.needs(COAT) and job.needs(EXPOSE) and job.needs(DEVELOP)):
        raise ValueError(f"job {job.id}: coat/expose/develop must be positive")


def eligible_machines(instance: Instance, stage: int) -> List[Machine]:
    """Machines whose tool class serves the given stage."""
    if stage not in STAGE_CLASSES:
        raise ValueError(f"stage must be in 1..{N_STAGES}, got {stage}")
    classes = STAGE_CLASSES[stage]
    return [m for m in instance.machines if m.tool_class in classes]


# Routes depend only on the needed stages and, on a park, its tool classes,
# so both are cached: there are at most 64 stage patterns and 512 class sets.
@lru_cache(maxsize=None)
def _routes(stages: Tuple[int, ...]) -> Tuple[RouteChoice, ...]:
    """The routes of a job needing exactly `stages`: the individual tools,
    or one usable cluster for its covered span and individual tools around
    it."""
    needed = set(stages)
    families = ["individual"] + [
        cls for cls, bars in CLUSTER_BARS.items()
        if needed.issuperset(TOOL_STAGES[cls]) and needed.isdisjoint(bars)]
    return tuple(
        RouteChoice(family, tuple(
            (s, family if s in TOOL_STAGES.get(family, ()) else _INDIVIDUAL_CLASS[s])
            for s in stages))
        for family in families)


@lru_cache(maxsize=None)
def _park_routes(stages: Tuple[int, ...],
                 classes: FrozenSet[str]) -> Tuple[RouteChoice, ...]:
    return tuple(r for r in _routes(stages)
                 if all(cls in classes for _, cls in r.stage_class))


def route_options(job: Job) -> List[RouteChoice]:
    """Enumerate the consistent individual/cluster routings for a job."""
    _require_core_stages(job)
    return list(_routes(job.stages))


def park_routes(instance: Instance, job: Job) -> List[RouteChoice]:
    """The job's routes the instance's park can realize: it has a machine
    of every tool class on the route."""
    _require_core_stages(job)
    classes = frozenset([m.tool_class for m in instance.machines])
    return list(_park_routes(job.stages, classes))


def big_m(instance: Instance) -> int:
    """Disjunctive big-M constant: total processing time over all jobs plus
    the latest ready time, which bounds every completion of a semi-active
    schedule."""
    if not instance.jobs:
        raise ValueError("instance has no jobs")
    return (sum(job.total_time for job in instance.jobs)
            + max(job.ready for job in instance.jobs))


# ---------------------------------------------------------------------------
# Instance file format (versioned JSON)

FILE_VERSION = 1


def instance_to_dict(instance: Instance) -> dict:
    return {
        "version": FILE_VERSION,
        "label": instance.label,
        "machines": [{"id": m.id, "class": m.tool_class} for m in instance.machines],
        "jobs": [
            {"id": j.id, "p": list(j.p), "r": j.ready, "d": j.due, "w": j.weight}
            for j in instance.jobs
        ],
    }


def instance_from_dict(data: dict) -> Instance:
    if data.get("version") != FILE_VERSION:
        raise ValueError(f"unsupported instance file version {data.get('version')!r}")
    machines = tuple(Machine(m["id"], m["class"]) for m in data["machines"])
    jobs = tuple(
        Job(j["id"], tuple(int(t) for t in j["p"]), int(j["r"]), int(j["d"]), int(j["w"]))
        for j in data["jobs"]
    )
    return Instance(jobs=jobs, machines=machines, label=data.get("label", ""))


def save_instance(instance: Instance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(instance), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))
