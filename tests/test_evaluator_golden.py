"""Golden digests of the evaluator's outputs over a fixed corpus.

The corpus holds decoded schedules at n = 1..8 on both parks and both
ready scenarios, the same schedules re-timed under shuffled machine
sequences (some of them cyclic), schedules with a visit missing, and
hand-built schedules that break every constraint.  Each digest covers
`earliest_completion`'s completions (or the visits of its
CyclicSequenceError), `check_feasibility`'s violations in order,
`timelines`, `Schedule.sequences`, `metrics` and the literal model's
`schedule_to_values`; an exception is recorded by its type and arguments.
"""

import hashlib
import random

import pytest

from photosched.core import Instance, Job, Objective
from photosched.decoder import decoder_for
from photosched.evaluator import (
    CyclicSequenceError,
    Schedule,
    check_feasibility,
    earliest_completion,
    metrics,
    timelines,
)
from photosched.exact import export_milp, schedule_to_values
from photosched.instgen import GenConfig, ReadyScenario, equipment, generate_instance


def _attempt(f, *args):
    try:
        return ("ok", f(*args))
    except CyclicSequenceError as exc:
        return ("cyclic", exc.visits)
    except (KeyError, ValueError) as exc:
        return ("raise", type(exc).__name__, exc.args)


def _outputs(instance, model, schedule):
    return [
        _attempt(lambda: [(v.constraint_id, v.detail)
                          for v in check_feasibility(instance, schedule)]),
        _attempt(timelines, instance, schedule),
        _attempt(lambda: schedule.sequences),
        _attempt(metrics, instance, schedule),
        _attempt(lambda: sorted(schedule_to_values(instance, schedule, model).items())),
    ]


def _resequenced(rng, sequences):
    """Machine sequences altered four ways: every machine shuffled; one
    machine reversed; one adjacent pair swapped; one machine dropped and
    half of another's visits left out."""
    busy = sorted(mid for mid, seq in sequences.items() if len(seq) > 1)
    shuffled = {mid: rng.sample(seq, len(seq)) for mid, seq in sequences.items()}
    out = [shuffled]
    if busy:
        mid = rng.choice(busy)
        out.append({**sequences, mid: sequences[mid][::-1]})
        mid = rng.choice(busy)
        seq = list(sequences[mid])
        i = rng.randrange(len(seq) - 1)
        seq[i], seq[i + 1] = seq[i + 1], seq[i]
        out.append({**sequences, mid: seq})
    partial = dict(shuffled)
    del partial[rng.choice(sorted(partial))]
    for mid in sorted(partial)[:1]:
        partial[mid] = partial[mid][::2]
    out.append(partial)
    return out


def _case_outputs(n, ready, park):
    """Every output over one generated instance's corpus entries."""
    instance = generate_instance(GenConfig(n=n, ready_scenario=ReadyScenario(ready),
                                           equipment=park, seed=100 * n + 10 * park))
    model = export_milp(instance, Objective.TWT)
    rng = random.Random(f"{n}:{ready}:{park}")
    order = rng.sample([job.id for job in instance.jobs], n)
    decoded = decoder_for(instance).schedule(order)
    record = [_outputs(instance, model, decoded)]
    kinds = []

    def retime(assign, sequences):
        outcome = _attempt(earliest_completion, instance, assign, sequences)
        kinds.append(outcome[0])
        if outcome[0] != "ok":
            record.append(outcome)
            return
        record.append(("ok", sorted(outcome[1].completion.items())))
        record.append(_outputs(instance, model, outcome[1]))

    retime(decoded.assign, decoded.sequences)
    for sequences in _resequenced(rng, decoded.sequences):
        retime(decoded.assign, sequences)

    # A visit missing: from the assignment alone, then from both maps.
    gone = rng.choice(sorted(decoded.assign))
    assign = {v: mid for v, mid in decoded.assign.items() if v != gone}
    record.append(_outputs(instance, model, Schedule(assign, dict(decoded.completion))))
    retime(assign, decoded.sequences)
    return record, kinds


def _digest(record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


# First 16 hex digits of the SHA-256 of the outputs' repr, per
# (n, ready scenario, park).
GOLDEN_EVALUATOR = {
    (1, "zero", 1): "b4a677e85037894e",
    (1, "zero", 2): "103837f5504673c3",
    (1, "mixed", 1): "06b00cb42c142ed5",
    (1, "mixed", 2): "62c220b09e29b02a",
    (2, "zero", 1): "9432b534c7dfd229",
    (2, "zero", 2): "0e7d23af4694c469",
    (2, "mixed", 1): "b646400e9375f127",
    (2, "mixed", 2): "d00bc7a962c83899",
    (3, "zero", 1): "2c2fb5110694c099",
    (3, "zero", 2): "9903b48cee3e81aa",
    (3, "mixed", 1): "c2409dfd2cd3190c",
    (3, "mixed", 2): "79a2358fc6786e19",
    (4, "zero", 1): "f617f03b78ae41a3",
    (4, "zero", 2): "0d387b4e0d51bc23",
    (4, "mixed", 1): "c78bd20d93cfa414",
    (4, "mixed", 2): "445b6e5ab637b7fd",
    (5, "zero", 1): "72f0ae79f739fd0b",
    (5, "zero", 2): "fa5bc8896e12e712",
    (5, "mixed", 1): "42f183d3b660c318",
    (5, "mixed", 2): "f3b1d59ce5fef607",
    (6, "zero", 1): "8067fd84ddc641fb",
    (6, "zero", 2): "16058af9b79de6bb",
    (6, "mixed", 1): "9bbfaa40719924a6",
    (6, "mixed", 2): "33087723397e0d26",
    (7, "zero", 1): "3bb8518cb18ea6c1",
    (7, "zero", 2): "3fe9783453d30c02",
    (7, "mixed", 1): "a729c95904d45c48",
    (7, "mixed", 2): "23fa7f005cb574c7",
    (8, "zero", 1): "3f9e1754aabcaaa6",
    (8, "zero", 2): "837bc8ecc1b31be6",
    (8, "mixed", 1): "bebcb1e317ecafdd",
    (8, "mixed", 2): "aa21ea0a35401d75",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_EVALUATOR))
def test_golden_evaluator_outputs(case):
    record, _ = _case_outputs(*case)
    assert _digest(record) == GOLDEN_EVALUATOR[case]


def test_corpus_retimes_cyclic_and_acyclic_sequences():
    kinds = [k for case in sorted(GOLDEN_EVALUATOR) for k in _case_outputs(*case)[1]]
    assert "cyclic" in kinds and "ok" in kinds


# ---------------------------------------------------------------------------
# Hand-built schedules, one or more per Violation id


def _timed(instance, assign):
    sequences = {}
    for (job_id, stage), mid in sorted(assign.items()):
        sequences.setdefault(mid, []).append((job_id, stage))
    return earliest_completion(instance, assign, sequences)


def _hand_built():
    park = tuple(equipment(2))
    one = Instance(jobs=(Job("J1", (0, 20, 75, 0, 30, 0), ready=50),), machines=park)
    two = Instance(jobs=(Job("J1", (0, 20, 75, 45, 30, 0)),
                         Job("J2", (0, 20, 75, 0, 30, 45))), machines=park)
    flat = Instance(jobs=(Job("J1", (0, 20, 75, 0, 30, 0)),
                          Job("J2", (0, 20, 75, 0, 30, 0))), machines=park)
    base = {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 5): "D1"}
    cases = []

    def case(instance, assign, completion_edits=(), assign_edits=()):
        schedule = _timed(instance, assign)
        schedule.assign.update(assign_edits)
        schedule.completion.update(completion_edits)
        cases.append((instance, schedule))

    case(one, base, {("J1", 2): 60})  # ReadyTime
    case(one, base, {("J1", 5): 140})  # StageChain
    sch = _timed(one, base)
    del sch.assign[("J1", 3)]  # MissingAssign
    cases.append((one, sch))
    case(one, base, assign_edits={("J1", 5): "X9"})  # MissingAssign: unknown machine
    case(one, base, assign_edits={("J1", 5): "E1"})  # ForbiddenAssign
    case(one, base, {("J1", 4): 170}, {("J1", 4): "B1"})  # ForbiddenAssign: skipped stage
    case(one, base, {("J9", 2): 20}, {("J9", 2): "C1"})  # ForbiddenAssign: no visit
    case(one, base, assign_edits={("J1", 3): "CED1"})  # ClusterSpan
    case(two, {("J1", 2): "CED1", ("J1", 3): "CED1", ("J1", 4): "B1",
               ("J1", 5): "CED1", ("J2", 2): "C1", ("J2", 3): "E1",
               ("J2", 5): "D1", ("J2", 6): "B1"})  # ForbiddenAssign: route
    case(flat, {(j, s): m for j in ("J1", "J2")
                for s, m in ((2, "C1"), (3, "E1"), (5, "D1"))},
         {("J2", 2): 20})  # MachineOverlap
    case(flat, {(j, s): "CED1" for j in ("J1", "J2") for s in (2, 3, 5)},
         {("J2", 2): 20, ("J2", 3): 95, ("J2", 5): 125})  # ClusterExclusive
    sch = _timed(two, {("J1", 2): "C1", ("J1", 3): "E1", ("J1", 4): "B1",
                       ("J1", 5): "D1", ("J2", 2): "CED1", ("J2", 3): "CED1",
                       ("J2", 5): "CED1", ("J2", 6): "B1"})
    sch.completion[("J2", 6)] = sch.completion[("J1", 4)]  # BakeShared
    cases.append((two, sch))
    bake = Instance(jobs=(Job("J1", (0, 20, 75, 45, 30, 45)),), machines=park)
    case(bake, {**base, ("J1", 4): "B1", ("J1", 6): "B1"},
         {("J1", 6): 150})  # MachineOverlap: a job with itself, and StageChain
    return cases


GOLDEN_HAND_BUILT = "a2091c4e27398b06"


def test_golden_hand_built_outputs():
    record = [_outputs(instance, export_milp(instance, Objective.TWT), schedule)
              for instance, schedule in _hand_built()]
    assert _digest(record) == GOLDEN_HAND_BUILT


def test_hand_built_schedules_break_every_constraint():
    ids = {v.constraint_id for instance, schedule in _hand_built()
           for v in check_feasibility(instance, schedule)}
    assert ids == {"ReadyTime", "StageChain", "MachineOverlap", "MissingAssign",
                   "ForbiddenAssign", "ClusterSpan", "ClusterExclusive", "BakeShared"}
