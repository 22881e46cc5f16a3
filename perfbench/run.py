"""photosched benchmark: one workload per process, closed loop, one thread.

    python3 perfbench/run.py --workload search-n25 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.
The workload's inputs come from --seed.  Operations run back to back for
--seconds, each output is re-checked, and the last line printed is one
JSON object: {"correct", "attempted", "failed", "metrics"}; attempted and
failed count distinct items (inputs), so a workload that cycles over its
items reports the same counts however many passes a run makes.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 every
operation runs twice, untraced and with every layer wrapped in spans; the
spans are written to .perfbench_out/ and the per-layer metrics reported.
Earlier lines give every metric by name and unit, including
workload-specific ones, and each failed check.  See README.md.

Exit codes: 0 when a result was printed, 2 when the package or an
argument is missing, 3 when the run itself broke.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import Calibrator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# Values that must repeat exactly, per seed (recorded for seed 1).
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 5  # this process plus four child processes
MAX_PRINTED_FAILURES = 40


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, set up, print the set-up seconds and exit")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's values as the reference for its seed")
    return parser.parse_args(argv)


def load_package():
    """Import the checkout's package; exit 2 when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "photosched", "__init__.py")):
        print(f"error: no photosched package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import photosched
    if not os.path.abspath(photosched.__file__).startswith(SRC + os.sep):
        print(f"error: imported photosched from {photosched.__file__}", file=sys.stderr)
        sys.exit(2)


def set_up(args, workdir):
    """Import the package, build the workload's inputs and warm up."""
    start = time.perf_counter()
    load_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        sys.exit(2)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    return workload, time.perf_counter() - start


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


class Run:
    """The operations of one measured run, their latencies and checks.

    With a tracer, every operation runs twice, untraced and traced, with
    the order alternating, so the two sides see the same machine load.
    """

    def __init__(self, workload, tracer=None, targets=()):
        self.workload = workload
        self.tracer = tracer
        self.targets = targets
        self.calibrator = Calibrator()
        self.ops = []
        self.items = []  # the workload's item of each operation
        self.latencies = []
        self.traced_latencies = []
        self.done = []  # index of each completed operation
        self.summaries = []
        self.failures = []

    def _execute(self, index, op, traced):
        from layers import GATE, OP
        if not traced:
            start = time.perf_counter()
            out = self.workload.run(op)
            elapsed = time.perf_counter() - start
            return out, elapsed, self.workload.check(index, op, out)
        tracer = self.tracer
        tracer.run_id = f"op{index}"
        tracer.install(self.targets)
        try:
            with tracer.span(OP) as span:
                out = self.workload.run(op)
            with tracer.span(GATE):
                failures = self.workload.check(index, op, out)
        finally:
            tracer.uninstall()
        return out, span.duration, failures

    def step(self, index, op):
        from workloads import Failure
        if self.tracer is None:
            sides = (False,)
        else:
            sides = (False, True) if index % 2 == 0 else (True, False)
        self.ops.append(op)
        self.items.append(self.workload.item(index, op))
        try:
            timed = {}
            for traced in sides:
                out, elapsed, failures = self._execute(index, op, traced)
                self.failures += failures
                timed[traced] = elapsed
                if not traced:
                    summary = self.workload.summarize(op, out)
        except Exception as exc:  # a broken operation is a failure, not a crash
            self.failures.append(Failure(index, f"{type(exc).__name__}: {exc}"))
            return
        self.done.append(index)
        self.latencies.append(timed[False])
        self.calibrator.after(timed[False])
        self.summaries.append(summary)
        if True in timed:
            self.traced_latencies.append(timed[True])

    def measure(self, seconds):
        start = time.perf_counter()
        for index, op in enumerate(self.workload.ops()):
            self.step(index, op)
            if time.perf_counter() - start >= seconds:
                return

    @property
    def attempted_items(self):
        return len(set(self.items))

    @property
    def failed_items(self):
        return len({self.items[f.op] for f in self.failures})

    def distinct_failures(self):
        """Each failure once per item: a repeated item fails the same way."""
        seen = {}
        for f in self.failures:
            seen.setdefault((self.items[f.op], f.reason), f)
        return list(seen.values())


def check_reference(run, seed, record):
    """Compare each operation's repeatable values with the recorded ones."""
    from workloads import Failure
    keys = {i: run.workload.reference_key(s) for i, s in zip(run.done, run.summaries)}
    name = run.workload.name
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            data = json.load(fh)
    if record:
        by_item = {run.items[i]: key for i, key in keys.items()}
        data.setdefault(str(seed), {})[name] = [by_item.get(k)
                                                for k in range(max(run.items) + 1)]
        with open(REFERENCE, "w") as fh:
            json.dump(data, fh, sort_keys=True)
            fh.write("\n")
        return 0
    expected = data.get(str(seed), {}).get(name, [])
    checked = 0
    for index, got in keys.items():
        item = run.items[index]
        want = expected[item] if item < len(expected) else None
        if want is None:
            continue
        checked += 1
        if any(g != w for g, w in zip(got, want) if g is not None and w is not None):
            run.failures.append(Failure(
                index, f"values {got} differ from the reference {want}"))
    return checked


def end_to_end(run, setup_s, setup_samples):
    import workloads
    lat = run.latencies
    ordered = sorted(lat)
    metrics = {
        "setup_s": (setup_s, "s", "median of " + ", ".join(f"{s:.3f}" for s in setup_samples)),
        "ops_per_s": (len(lat) / sum(lat), "1/s", f"{len(lat)} operations"),
        "op_ms.p50": (statistics.median(ordered) * 1e3, "ms", ""),
        "op_ms.mean": (statistics.fmean(ordered) * 1e3, "ms", ""),
        "op_ms.p90": (workloads.percentile(ordered, 90) * 1e3, "ms", ""),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
        "op_cost": (typical_cost(run) / run.calibrator.ref_mean, "ref",
                    f"sum over {'/'.join(part_times(run))} of the median of "
                    f"items' mean time, over the reference task's "
                    f"{run.calibrator.ref_mean * 1e3:.3f} ms, "
                    f"{run.calibrator.ref_runs} runs of it"),
        "op_cost.mean": (statistics.fmean(lat) / run.calibrator.ref_mean, "ref", ""),
    }
    metrics.update(workloads.latency_metrics("op_ms", lat, "ms"))
    return metrics


def part_times(run):
    """part -> item -> the part's times on that item, from every operation."""
    times = {}
    for index, t, summary in zip(run.done, run.latencies, run.summaries):
        for part, seconds in run.workload.parts(summary, t).items():
            times.setdefault(part, {}).setdefault(run.items[index], []).append(seconds)
    return times


def typical_cost(run):
    """Sum over an operation's parts of the median, over items, of each
    item's mean time in that part: an item a run repeated weighs as much
    as one it did once, and a part's outliers stay in that part."""
    return sum(statistics.median(statistics.fmean(ts) for ts in by_item.values())
               for by_item in part_times(run).values())


def print_report(title, metrics):
    print(f"# {title}")
    for name, (value, unit, note) in metrics.items():
        extra = f"  ({note})" if note else ""
        print(f"{name:36s} {value:14.6g} {unit}{extra}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload, own_setup = set_up(args, workdir)
        if args.setup_only:
            print(f"{own_setup!r}")
            return 0
        return measure_and_report(args, workload, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_and_report(args, workload, own_setup) -> int:
    import layers
    import workloads
    from spans import Tracer

    setup_samples = [own_setup] + [child_setup_seconds(args)
                                   for _ in range(SETUP_SAMPLES - 1)]
    setup_s = statistics.median(setup_samples)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        # Input set-up once more, traced, for the layers it uses.
        tracer.install(layers.targets())
        try:
            with tracer.span(layers.SETUP):
                type(workload)(args.seed, workload.workdir).setup()
        finally:
            tracer.uninstall()
    run = Run(workload, tracer, layers.targets())
    run.measure(args.seconds)
    if not run.latencies:
        print("error: no operation completed", file=sys.stderr)
        return 3
    checked = check_reference(run, args.seed, args.record_reference)
    e2e = end_to_end(run, setup_s, setup_samples)
    extra = workload.report(run.summaries, run.latencies)
    extra["failed_frac"] = (run.failed_items / run.attempted_items, "frac",
                            f"{run.failed_items} of {run.attempted_items} distinct items, "
                            f"{len(run.ops)} operations")

    result_metrics = e2e
    if tracer is not None:
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        layer = layers.per_layer(tracer.spans)
        layer["trace.overhead_frac"] = (
            sum(run.traced_latencies) / sum(run.latencies) - 1, "frac",
            f"traced vs untraced time of the same {len(run.latencies)} operations")
        print_report(f"per-layer ({spans_path})", layer)
        result_metrics = layer

    print_report(f"{workload.name} seed {args.seed}: end to end", e2e)
    print_report(f"{workload.name} seed {args.seed}: workload", extra)
    print(f"# reference values checked for {checked} operations")
    failures = run.distinct_failures()
    known = [f for f in failures if f.known]
    unknown = [f for f in failures if not f.known]
    for f in (unknown + known)[:MAX_PRINTED_FAILURES]:
        print(f"FAILED op {f.op} (item {run.items[f.op]}): "
              f"{'known defect: ' if f.known else ''}{f.reason}")
    if len(failures) > MAX_PRINTED_FAILURES:
        print(f"... {len(failures) - MAX_PRINTED_FAILURES} more failures")

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    missing = [m for m in declared if m not in result_metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not unknown,
        "attempted": run.attempted_items,
        "failed": run.failed_items,
        "metrics": {m: {"value": result_metrics[m][0], "unit": result_metrics[m][1]}
                    for m in declared},
    }))
    return 0


def declared_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[section]]


if __name__ == "__main__":
    sys.exit(main())
