"""Domain model for a six-stage photolithography line with cluster tools.

Stages are numbered 1..6: sink, coat, expose, bake (pre-develop), develop,
bake (post-develop).  The two bake stages share the same pool of ovens, so
a lot can revisit an oven it used earlier in its flow.
"""

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Dict, List, NamedTuple, Tuple

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
        if not (isinstance(self.tool_class, str) and self.tool_class in TOOL_STAGES):
            raise ValueError(f"unknown tool class {self.tool_class!r}")

    @property
    def covered_stages(self) -> Tuple[int, ...]:
        return TOOL_STAGES[self.tool_class]

    @property
    def is_cluster(self) -> bool:
        return self.tool_class in CLUSTER_ENTRY


# The instance file's key of each value a job checks: stage times, then
# ready time, due date and weight.
_JOB_KEYS = ("p",) * N_STAGES + ("r", "d", "w")


@dataclass(frozen=True)
class Job:
    id: str
    p: Tuple[int, ...]  # processing minutes per stage, index 0 = stage 1
    ready: int = 0
    due: int = 0
    weight: int = 1

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(self.p))  # hashable, as caches need
        if len(self.p) != N_STAGES:
            raise ValueError(f"job {self.id}: expected {N_STAGES} stage times")
        # Times and weights are whole numbers: SP's due/weight key is a
        # Fraction, and a bool is no time.  Named as in the instance file.
        for key, value in zip(_JOB_KEYS, self.p + (self.ready, self.due, self.weight)):
            if type(value) is not int:
                raise ValueError(
                    f"job {self.id}: {key} must be a whole number, got {value!r}")
        if any(t < 0 for t in self.p):
            raise ValueError(f"job {self.id}: negative processing time")
        if self.ready < 0 or self.due < 0:
            raise ValueError(f"job {self.id}: negative ready/due time")
        if self.weight < 1:  # 0 divides SP's due/weight key; < 0 rewards lateness
            raise ValueError(f"job {self.id}: weight must be >= 1, got {self.weight}")

    def duration(self, stage: int) -> int:
        return self.p[stage - 1]

    def needs(self, stage: int) -> bool:
        return self.p[stage - 1] > 0

    @cached_property  # the routing tables and every layer read it per job
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
        # The LP text writes the label as its one comment line.
        if not (isinstance(self.label, str) and self.label.splitlines() in ([], [self.label])):
            raise ValueError(f"label {self.label!r} must be a string without line breaks")
        if len(set(jids)) != len(jids):
            raise ValueError("duplicate job ids")
        if len(set(mids)) != len(mids):
            raise ValueError("duplicate machine ids")
        if not self.jobs:
            raise ValueError("instance has no jobs")
        for job in self.jobs:
            if not park_routes(self, job):
                raise ValueError(f"job {job.id}: no route through the machine park")

    # Every per-instance cache hashes the instance, so the hash of its jobs
    # and machines is computed once; it equals the generated dataclass hash.
    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.jobs, self.machines, self.label))

    # String hashes, and so `_hash`, differ per process, and the park's
    # table is shared through a per-process cache.
    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in ("_hash", "park")}

    @cached_property
    def park(self) -> "Park":
        """The routing table of this instance's machine park."""
        return _park(self.machines)

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


def _require_core_stages(job: Job) -> None:
    if not (job.needs(COAT) and job.needs(EXPOSE) and job.needs(DEVELOP)):
        raise ValueError(f"job {job.id}: coat/expose/develop must be positive")


def eligible_machines(instance: Instance, stage: int) -> List[Machine]:
    """Machines whose tool class serves the given stage."""
    if stage not in STAGE_CLASSES:
        raise ValueError(f"stage must be in 1..{N_STAGES}, got {stage}")
    classes = STAGE_CLASSES[stage]
    return [m for m in instance.machines if m.tool_class in classes]


# Routes depend only on the needed stages: there are at most 64 patterns.
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


class Pattern(NamedTuple):
    """A park's table for one pattern of needed stages."""

    routes: Tuple[RouteChoice, ...]  # the routes the park realizes
    candidates: tuple  # per needed stage, machine indices in tie-break order
    affinity: int  # cluster machines on those routes


class Park:
    """The routing table of one machine park, shared by its instances.

    At each needed stage a job may commit to the classes that begin there
    a route the park realizes: an individual class begins at every stage
    it serves, a cluster only at its entry stage.  A candidate is a machine
    index; candidates are pre-sorted by the decoder's tie-break: more
    covered stages first, then machine id.  `later[k]` holds the later
    stages a lot committing to machine k keeps it for: a cluster's covered
    stages after its entry stage, () for an individual tool.  Routes
    depend only on a job's needed stages, so each of the at most 64 stage
    patterns is tabled once, when a job first needs it.
    """

    def __init__(self, machines: Tuple[Machine, ...]):
        self.machine_ids = tuple(m.id for m in machines)
        self.later = tuple(m.covered_stages[1:] if m.is_cluster else ()
                           for m in machines)
        self._classes = frozenset(m.tool_class for m in machines)
        ranked = sorted(enumerate(machines),
                        key=lambda km: (-len(km[1].covered_stages), km[1].id))
        self._ranked = tuple((m.tool_class, k) for k, m in ranked)
        self._clusters = tuple(m.tool_class for m in machines if m.is_cluster)
        self.patterns: Dict[Tuple[int, ...], Pattern] = {}

    def pattern(self, stages: Tuple[int, ...]) -> Pattern:
        """The table of a job needing exactly `stages`."""
        found = self.patterns.get(stages)
        if found is None:
            routes = tuple(r for r in _routes(stages)
                           if all(cls in self._classes for _, cls in r.stage_class))
            entry: Dict[int, set] = {s: set() for s in stages}
            for route in routes:
                for s, cls in route.stage_class:
                    if CLUSTER_ENTRY.get(cls, s) == s:
                        entry[s].add(cls)
            families = {r.family for r in routes}
            found = self.patterns[stages] = Pattern(
                routes,
                tuple(tuple(c for cls, c in self._ranked if cls in entry[s])
                      for s in stages),
                sum(1 for cls in self._clusters if cls in families))
        return found


# Keyed on the machine tuple, order included: candidates hold indices.
@lru_cache(maxsize=8)
def _park(machines: Tuple[Machine, ...]) -> Park:
    return Park(machines)


def route_options(job: Job) -> List[RouteChoice]:
    """Enumerate the consistent individual/cluster routings for a job."""
    _require_core_stages(job)
    return list(_routes(job.stages))


def park_routes(instance: Instance, job: Job) -> List[RouteChoice]:
    """The job's routes the instance's park can realize: it has a machine
    of every tool class on the route."""
    _require_core_stages(job)
    return list(instance.park.pattern(job.stages).routes)


def big_m(instance: Instance) -> int:
    """Disjunctive big-M constant: total processing time over all jobs plus
    the latest ready time, which bounds every completion of a semi-active
    schedule."""
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


def _whole(value):
    """A whole float read as an int (JSON may write 40 as 40.0); `Job`
    rejects every other value that is not an int."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _field(entry: dict, key: str, where: str):
    try:
        return entry[key]
    except KeyError:
        raise ValueError(f"{where}: missing key '{key}'") from None


def _entries(data: dict, key: str, kind: str):
    """Each object of the file's `key` list, with the name of the job or
    machine it describes (its id, else its place in the list)."""
    entries = _field(data, key, "instance file")
    if not isinstance(entries, list):
        raise ValueError(f"instance file: '{key}' must be a list, got {entries!r}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"instance file: {key}[{i}] must be an object, got {entry!r}")
        yield entry, f"{kind} {entry['id']}" if "id" in entry else f"{key}[{i}]"


def instance_from_dict(data: dict) -> Instance:
    """The instance a file's JSON describes; ValueError naming the key,
    job or machine of a malformed one."""
    if not isinstance(data, dict):
        raise ValueError(f"instance file must be a JSON object, got {type(data).__name__}")
    if data.get("version") != FILE_VERSION:
        raise ValueError(f"unsupported instance file version {data.get('version')!r}")
    machines = tuple(Machine(_field(m, "id", where), _field(m, "class", where))
                     for m, where in _entries(data, "machines", "machine"))
    jobs = []
    for j, where in _entries(data, "jobs", "job"):
        p = _field(j, "p", where)
        if not isinstance(p, list):
            raise ValueError(f"{where}: p must be a list of stage times, got {p!r}")
        jobs.append(Job(_field(j, "id", where), tuple(map(_whole, p)),
                        *(_whole(_field(j, key, where)) for key in ("r", "d", "w"))))
    return Instance(jobs=tuple(jobs), machines=machines, label=data.get("label", ""))


# The text `json.dump(instance_to_dict(x), indent=1, sort_keys=True)` writes,
# plus a newline, as one template per job and per machine: any indent puts
# json on its pure-Python encoder, which writes token by token.  Times are
# exact ints (`Job` checks) and every string goes through `json.dumps`.
_JOB_TEXT = ('  {\n   "d": %d,\n   "id": %s,\n   "p": [\n'
             + ",\n".join(["    %d"] * N_STAGES)
             + '\n   ],\n   "r": %d,\n   "w": %d\n  }')
_MACHINE_TEXT = '  {\n   "class": %s,\n   "id": %s\n  }'
_FILE_TEXT = ('{\n "jobs": [\n%s\n ],\n "label": %s,\n'
              ' "machines": [\n%s\n ],\n "version": %d\n}\n')


def save_instance(instance: Instance, path) -> None:
    jobs = ",\n".join([_JOB_TEXT % (j.due, json.dumps(j.id), *j.p, j.ready, j.weight)
                       for j in instance.jobs])
    machines = ",\n".join([_MACHINE_TEXT % (json.dumps(m.tool_class), json.dumps(m.id))
                           for m in instance.machines])
    text = _FILE_TEXT % (jobs, json.dumps(instance.label), machines, FILE_VERSION)
    with open(path, "w") as fh:
        fh.write(text)


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))
