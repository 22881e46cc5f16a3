"""In-memory span tracing around photosched's public functions.

A `Tracer` replaces module attributes with timing wrappers, under the
names their callers look them up (``photosched.search.decode`` is what
`run_sp` and `run_ga` call; ``photosched.decoder.decode`` is what the
benchmark calls).  Each call records a span: name, start, end, parent
span and run id, plus optional attributes taken from the arguments and
the result.  Spans stay in memory until `write` is called at the end of
a run.  Nothing in the package itself changes.
"""

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index into Tracer.spans
    run_id: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# describe(args, kwargs, result) -> attributes recorded on the span
Describe = Callable[[tuple, dict, object], Dict[str, object]]


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap, and the span name it records."""

    module: object
    attr: str
    name: str
    describe: Optional[Describe] = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.run_id = ""
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent,
                               run_id=self.run_id, attrs=dict(attrs)))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order")

    def span(self, name: str, **attrs):
        """Context manager recording one span around a block."""
        return _SpanContext(self, name, attrs)

    def _wrap(self, fn, target: Target):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if target.describe is not None:
                tracer.spans[index].attrs.update(target.describe(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.attr)
        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target; `uninstall` restores the originals."""
        for target in targets:
            original = getattr(target.module, target.attr)
            self._saved.append((target.module, target.attr, original))
            setattr(target.module, target.attr, self._wrap(original, target))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run_id, "attrs": s.attrs,
                }, sort_keys=True, default=str) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer, self.name, self.attrs = tracer, name, attrs
        self.index = -1

    def __enter__(self) -> Span:
        self.index = self.tracer.open(self.name, **self.attrs)
        return self.tracer.spans[self.index]

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.index)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    do not overlap each other.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def under(spans: Sequence[Span], root_names) -> List[bool]:
    """Whether each span lies (at any depth) inside a span named in
    `root_names`, the span itself included."""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):  # parents precede their children
        inside[i] = s.name in root_names or (
            s.parent is not None and inside[s.parent])
    return inside
