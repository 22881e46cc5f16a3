"""Self-test of the benchmark harness.

    python3 -m pytest perfbench -q

Checks the span self-time arithmetic, the counting of attempted and
failed items, the metric names, and makes a short run of every workload,
untraced and traced.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from spans import Tracer, self_times, under  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > a [1, 6] > b [2, 4];  op > c [7, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 4, 6, 7, 9, 10]))
    with tracer.span("op"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    assert [s.name for s in tracer.spans] == ["op", "a", "b", "c"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]
    assert self_times(tracer.spans) == [10 - 5 - 2, 5 - 2, 2, 2]
    assert sum(self_times(tracer.spans)) == tracer.spans[0].duration
    assert under(tracer.spans, ("a",)) == [False, True, True, False]


def test_wrapped_function_records_span_and_is_restored():
    class Module:
        @staticmethod
        def work(x):
            return x + 1

    tracer = Tracer(clock=FakeClock([0, 1, 3, 4]))
    from spans import Target
    original = Module.work
    tracer.install([Target(Module, "work", "m.work",
                           lambda args, kwargs, result: {"result": result})])
    with tracer.span("op"):
        assert Module.work(1) == 2
    tracer.uninstall()
    assert Module.work is original
    assert tracer.spans[1].name == "m.work"
    assert tracer.spans[1].attrs == {"result": 2}
    assert self_times(tracer.spans) == [2, 2]


def test_counts_are_distinct_items_however_many_passes():
    from run import Run
    from workloads import Failure, Workload

    class Cycling(Workload):
        """Three items; item 1 always fails its check."""

        def run(self, op):
            return None

        def check(self, index, op, out):
            return [Failure(index, "bad")] if op == 1 else []

        def summarize(self, op, out):
            return {}

        def item(self, index, op):
            return op

    for passes in (1, 4):
        run = Run(Cycling(0, ""))
        for index in range(3 * passes):
            run.step(index, index % 3)
        assert (run.attempted_items, run.failed_items) == (3, 1)
        assert len(run.distinct_failures()) == 1


def test_metric_and_workload_names():
    names = ([m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
             + [w["name"] for w in BENCHMARK["workloads"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in {m["name"] for m in BENCHMARK["end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # Every metric the report prints has a valid name too.
    for line in lines[:-1]:
        if line and not line.startswith(("#", "FAILED", "...")):
            assert NAME.fullmatch(line.split()[0]), line
