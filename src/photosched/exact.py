"""Optimal solving and textual model export.

`export_milp` materializes the disjunctive big-M formulation literally:
shared precedence binaries per job pair, assignment binaries per eligible
(stage, machine) pair, completion variables per (stage, job).  Models are
built a row family at a time, as numpy blocks over integer columns
(`MilpModel`).  Everything of the literal model but its numbers depends
only on the machine park, the job ids and the objective, so that layout
is built once per (park, ids, objective) and cached (`_literal_layout`,
16 layouts, least recently used dropped first; one takes about 25 KiB at
n = 2, 100 KiB at n = 5, 0.8 MiB at n = 15 and 2.2 MiB at n = 25 on park
1).  Each `export_milp` call fills in the instance's numbers: big-M, the
stage, ready and due times, the needed stages and the job weights.

`solve_exact` optimizes a relaxation of that model in which precedence
binaries are indexed per machine reservation pair, so that different
resources may order the same two jobs differently (passing); only the
relaxation's optima equal exhaustive enumeration.  When its optimum
passes, the literal model is solved once more for an order-consistent
schedule of equal value.  Both are solved with the HiGHS
branch-and-bound backend behind scipy, which this module imports only on
its first HiGHS call (`milp`).  Building, exporting and checking models
needs numpy alone, imported on the first model built: a solve answered
before any model is built loads neither.

Before any model is built, `solve_exact` decodes SP's initial order; when
that schedule meets the per-job lower bound (every job done at its ready
time plus its total processing time), it is optimal and is returned
without a HiGHS call.
"""

import time
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import (TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .core import (
    CLUSTER_BARS,
    CLUSTER_ENTRY,
    STAGE_CLASSES,
    STAGES,
    TOOL_STAGES,
    Instance,
    Job,
    Machine,
    Objective,
    big_m,
)
from .decoder import decoder_for
from .evaluator import (
    Schedule,
    Visit,
    earliest_completion,
    metrics,
    objective_value,
    timelines,
)
from .search import sp_initial_order

if TYPE_CHECKING:  # for annotations; each function that needs numpy imports it
    import numpy as np

OPTIMAL = "optimal"
TIMED_OUT = "timeout"
INFEASIBLE = "infeasible"

CHECK_TOL = 1e-6  # relative slack `check_values` allows each row


class SolverError(RuntimeError):
    """HiGHS ended without an optimum, a time limit or an infeasibility proof."""


class LinearRow(NamedTuple):
    name: str
    coeffs: Tuple[Tuple[str, float], ...]
    sense: str  # "<=", ">=", "="
    rhs: float


class Rows(NamedTuple):
    """A block of rows: row i sums `coefs[i]` times the columns `cols[i]`
    (a zero coefficient pads a short row: no term) and bounds the sum by
    `lower[i]` and `upper[i]`.  `cols` and `coefs` hold a row's terms on
    their last axis; the axes before it index the rows in C order."""
    cols: "np.ndarray"
    coefs: "np.ndarray"
    lower: "np.ndarray"
    upper: "np.ndarray"


def _rows(cols, coefs, sense: str, rhs) -> Rows:
    """Rows over `cols` with `coefs` (broadcast to `cols`) and one `sense`
    ("<=", ">=", "=") against `rhs` (broadcast to the rows)."""
    import numpy as np
    cols = np.asarray(cols)
    full = np.empty(cols.shape)
    full[...] = coefs
    bound = np.empty(cols.shape[:-1])
    bound[...] = rhs
    free = np.full(bound.shape, np.inf)
    return Rows(cols, full, -free if sense == "<=" else bound,
                free if sense == ">=" else bound)


@dataclass
class MilpModel:
    """A linear model over integer columns: `continuous + binary`, in order.

    Rows are added one family at a time as `Rows` blocks and keep that
    order.  Each family names its rows on demand, since only the LP text,
    `constraints` and a failed check read them.  `weights` holds the
    objective by column (`_objective_weights` fills it).  `joined` puts the
    blocks end to end, and `constraints` reads them back with variable names.
    `placements()` lists, per assignment column, what it places when it is
    1: (column, machine id, job id, the stages it holds the machine for, the
    job's completion columns by stage - 1).  A solve reads its solution
    through them and parses no name.

    `export_milp`'s models share their column arrays and placements with
    every model of the same park, job ids and objective, through the
    cached layout; their lists and weights are their own, and every array
    of their blocks is read-only.
    """

    name: str
    kind: Objective
    continuous: List[str] = field(default_factory=list)
    binary: List[str] = field(default_factory=list)
    weights: Dict[int, float] = field(default_factory=dict)
    big_m: int = 0
    blocks: List[Rows] = field(default_factory=list)
    row_namers: List[Callable[[], List[str]]] = field(default_factory=list)
    placements: Optional[Callable[[], Sequence[tuple]]] = None  # set by each builder

    @property
    def names(self) -> List[str]:
        """Variable names by column."""
        return self.continuous + self.binary

    @property
    def objective(self) -> Dict[str, float]:
        """The objective's weights by variable name."""
        names = self.names
        return {names[col]: w for col, w in self.weights.items()}

    @property
    def counts(self) -> Tuple[int, int, int, int]:
        """(constraints, continuous vars, binary vars, total vars)."""
        nc = len(self.continuous)
        nb = len(self.binary)
        return (sum(len(b.lower) for b in self.blocks), nc, nb, nc + nb)

    @property
    def row_names(self) -> List[str]:
        """Row names in row order, written by each family when asked."""
        return [name for names in self.row_namers for name in names()]

    def add_rows(self, names: Callable[[], List[str]], rows: Rows) -> None:
        """Append a family's rows, named in order by `names()`."""
        width = rows.cols.shape[-1]
        self.row_namers.append(names)
        self.blocks.append(Rows(rows.cols.reshape(-1, width),
                                rows.coefs.reshape(-1, width),
                                rows.lower.ravel(), rows.upper.ravel()))

    def joined(self):
        """(cols, coefs, starts, lower, upper): every row's padded terms end
        to end, where each row starts in them, and the row bounds."""
        import numpy as np
        blocks = self.blocks
        widths = np.repeat([b.cols.shape[1] for b in blocks],
                           [len(b.lower) for b in blocks])
        return (np.concatenate([b.cols.ravel() for b in blocks]),
                np.concatenate([b.coefs.ravel() for b in blocks]),
                np.cumsum(widths) - widths,
                np.concatenate([b.lower for b in blocks]),
                np.concatenate([b.upper for b in blocks]))

    @property
    def constraints(self) -> Tuple[LinearRow, ...]:
        """The rows as `LinearRow`s with their terms sorted by variable name."""
        import numpy as np
        cols, coefs, starts, lower, upper = self.joined()
        keep = coefs != 0  # drop the padding
        terms = list(zip(map(self.names.__getitem__, cols[keep].tolist()),
                         coefs[keep].tolist()))
        # Kept terms before each row's start, then the total.
        indptr = np.append(0, np.cumsum(keep))[np.append(starts, len(cols))].tolist()
        rows = []
        for name, start, end, lo, up in zip(self.row_names, indptr, indptr[1:],
                                            lower.tolist(), upper.tolist()):
            coeffs = tuple(sorted(terms[start:end]))
            sense = "=" if lo == up else (">=" if up == np.inf else "<=")
            rows.append(LinearRow(name, coeffs, sense, up if lo == -np.inf else lo))
        return tuple(rows)


@dataclass
class ExactResult:
    schedule: Optional[Schedule]
    value: Optional[int]
    status: str


def _cvar(stage: int, job_id: str) -> str:
    return f"C_{stage}_{job_id}"


def _xvar(stage: int, machine_id: str, job_id: str) -> str:
    return f"x_{stage}_{machine_id}_{job_id}"


def _yvar(k: str, l: str) -> str:
    return f"y_{k}_{l}"


def _names(groups, tags) -> List[str]:
    """Names group by group and tag by tag, one per prefix in the group."""
    return [pre + tag for prefixes in groups for tag in tags for pre in prefixes]


# Reservations of one machine, one per entry of arrays broadcast together:
# (completion column at entry, completion column at exit, assignment
# column, processing time at entry).
Reservation = Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]

# An either-order pair's coefficients are `_EITHER_COEFS` plus big-M times
# `_EITHER_M_COEFS`, and its two bounds subtract big-M times `_EITHER_SHIFT`.
_EITHER_COEFS = ((1, -1, 0, 0, 0), (1, -1, 0, 0, 0))
_EITHER_M_COEFS = ((0, 0, 1, -1, -1), (0, 0, -1, -1, -1))
_EITHER_SHIFT = (2, 3)


def _either_pairs(y, first: Reservation, second: Reservation):
    """The columns of the big-M pairs keeping reservations of one machine
    apart, and the processing times their bounds start from.

    For each pair of reservations (`y` and both broadcast together), two
    rows on a new axis before the terms: `first` starts after `second`
    ends when y = 0, then `second` starts after `first` ends when y = 1;
    both are slack unless both assignment columns are 1.  The times (one
    per row) are `first`'s, then `second`'s entry time.
    """
    import numpy as np
    (ck, dk, xk, pk), (cl, dl, xl, pl) = first, second
    shape = np.broadcast(ck, dl, y, xk, xl, cl, dk).shape
    cols = np.empty(shape + (10,), np.int64)
    for t, col in enumerate((ck, dl, y, xk, xl, cl, dk, y, xk, xl)):
        cols[..., t] = col
    times = np.empty(shape + (2,), np.int64)
    times[..., 0] = pk
    times[..., 1] = pl
    return cols.reshape(shape + (2, 5)), times


def _either_order(M: int, y, first: Reservation, second: Reservation) -> Rows:
    """`_either_pairs`' rows for big-M `M`."""
    import numpy as np
    cols, times = _either_pairs(y, first, second)
    return _rows(cols, np.add(_EITHER_COEFS, np.multiply(M, _EITHER_M_COEFS)), ">=",
                 times - np.multiply(M, _EITHER_SHIFT))


def _chain(stages: Tuple[int, ...], C: "np.ndarray"):
    """Columns, coefficients and name tags of each job's ready row at its
    first stage and a chain row per later one; `C` holds the jobs'
    completion columns along `stages`."""
    import numpy as np
    cols = np.empty(C.shape + (2,), np.int64)
    cols[..., 0] = C
    cols[:, 0, 1] = 0  # the ready row has no predecessor: coefficient 0
    cols[:, 1:, 1] = C[:, :-1]
    return (cols, [[1, 0]] + [[1, -1]] * (len(stages) - 1),
            ["ready_"] + [f"chain_{s}_" for s in stages[1:]])


def _add_chain(model: MilpModel, job_ids: List[str], stages: Tuple[int, ...],
               C: "np.ndarray", p: "np.ndarray", ready) -> None:
    """Add `_chain`'s rows; `p` holds the jobs' times along `stages`."""
    import numpy as np
    cols, coefs, tags = _chain(stages, C)
    rhs = np.array(p, float)
    rhs[:, 0] += ready
    model.add_rows(partial(_names, [tags], job_ids), _rows(cols, coefs, ">=", rhs))


def _objective_link(kind: Objective, last, cmax, tardy):
    """The objective's weighted columns: CMAX `cmax` (cmax), or per job its
    completion column `last` (wct) or its T column `tardy` (twt).  Then, for
    cmax and twt, the name prefix and columns of the link rows CMAX >= C or
    T >= C - due (else None, None)."""
    import numpy as np
    if kind == Objective.CMAX:
        weighted, prefix, top = [cmax], "cmax_link_", cmax
    elif kind == Objective.TWT:
        weighted, prefix, top = np.ravel(tardy).tolist(), "tardy_", tardy
    else:
        return np.ravel(last).tolist(), None, None
    cols = np.empty((np.size(last), 2), np.int64)
    cols[:, 0] = top
    cols[:, 1] = last
    return weighted, prefix, cols


def _objective_weights(kind: Objective, weighted, jobs) -> Dict[int, float]:
    """`_objective_link`'s columns by weight: 1 (cmax) or the jobs' weights."""
    return dict(zip(weighted, [1.0] if kind == Objective.CMAX
                    else [float(job.weight) for job in jobs]))


def _add_objective_link(model: MilpModel, jobs, last, cmax, tardy) -> None:
    """Weight `_objective_link`'s columns in the objective and add its rows."""
    weighted, prefix, cols = _objective_link(model.kind, last, cmax, tardy)
    model.weights.update(_objective_weights(model.kind, weighted, jobs))
    if prefix is not None:
        rhs = 0 if model.kind == Objective.CMAX else [-j.due for j in jobs]
        model.add_rows(partial(_names, [(prefix,)], [j.id for j in jobs]),
                       _rows(cols, (1, -1), ">=", rhs))


# ---------------------------------------------------------------------------
# Literal formulation (shared precedence binaries), used for export and
# for the order-consistent re-solve

# `_numbers` starts with these four constants.
_NEG_INF, _INF, _ZERO, _ONE = range(4)


def _numbers(jobs) -> "np.ndarray":
    """An instance's numbers that the literal model's bounds read, by index:
    -inf, inf, 0 and 1, then p[j, s - 1] by job and stage, each job's ready
    time plus p[j, 0], each job's -due, and 1 where p[j, s - 1] > 0 else 0."""
    import numpy as np
    p = [t for job in jobs for t in job.p]
    return np.array([-np.inf, np.inf, 0, 1] + p
                    + [job.ready + job.p[0] for job in jobs]
                    + [-job.due for job in jobs] + [t > 0 for t in p], float)


class _Template(NamedTuple):
    """Rows whose numbers an instance fills in: row i sums `coefs[i]` plus
    M times `m_coefs[i]` times the columns `cols[i]`, between `_numbers`'
    entries `lower[i]` and `upper[i]`, each less M times `shift[i]`, for
    the instance's big-M M.  Axes as in `Rows`."""
    cols: "np.ndarray"
    coefs: "np.ndarray"
    m_coefs: "np.ndarray"
    lower: "np.ndarray"
    upper: "np.ndarray"
    shift: "np.ndarray"


def _template(cols, coefs, sense: str, at, m_coefs=0, shift=0) -> _Template:
    """Rows over `cols` like `_rows`, against the numbers at `at` less
    `shift` times big-M, with `coefs` plus `m_coefs` times big-M (all
    broadcast)."""
    import numpy as np
    cols = np.asarray(cols)
    rows = cols.shape[:-1]
    return _Template(cols, *(np.broadcast_to(a, cols.shape) for a in (coefs, m_coefs)),
                     *(np.broadcast_to(a, rows) for a in (_NEG_INF if sense == "<=" else at,
                                                           _INF if sense == ">=" else at,
                                                           shift)))


def _either_template(y, first: Reservation, second: Reservation) -> _Template:
    """`_either_pairs`' rows, with each reservation's time an index into
    `_numbers`."""
    cols, at = _either_pairs(y, first, second)
    return _template(cols, _EITHER_COEFS, ">=", at, _EITHER_M_COEFS, _EITHER_SHIFT)


class _Layout(NamedTuple):
    """What the literal model of one park, job id list and objective fixes.

    Every row's terms and bounds lie end to end over all families, as
    flat read-only arrays filled in as `_Template` says; `families` holds
    per family its row namer (None for the assignment rows, whose names
    read each job's needs), its columns (rows x terms, read-only) and the
    slices of the flat arrays holding its rows and its terms.
    """
    continuous: Tuple[str, ...]
    binary: Tuple[str, ...]
    weighted: Tuple[int, ...]  # `_objective_link`'s columns
    placements: Tuple[tuple, ...]
    served: Tuple[int, ...]  # the stages of the assignment rows
    families: Tuple[Tuple[Optional[Callable[[], List[str]]], "np.ndarray", slice, slice], ...]
    coefs: "np.ndarray"
    m_coefs: "np.ndarray"
    lower: "np.ndarray"
    upper: "np.ndarray"
    shift: "np.ndarray"


@lru_cache(maxsize=16)
def _literal_layout(machines: Tuple[Machine, ...], job_ids: Tuple[str, ...],
                    kind: Objective) -> _Layout:
    """The literal model's layout for a park (machine order included), the
    job ids in order and the objective.

    Each row family is one block over tables of columns: C[j, s - 1] per
    job and stage, X[q, j] per (stage, eligible machine) slot and job, and
    Y[i] per job pair K[i] < L[i].  Its numbers are indices into
    `_numbers`: P[j, s - 1] for p[j, s - 1], START[j] for ready + p[j, 0],
    DUE[j] for -due and NEED[j, s - 1] for the need of stage s.
    """
    import numpy as np
    ids = list(job_ids)
    n = len(ids)
    P = _ONE + 1 + np.arange(n * len(STAGES)).reshape(n, len(STAGES))
    START = _ONE + 1 + P.size + np.arange(n)
    DUE = START + n
    NEED = P + P.size + 2 * n
    families: List[Tuple[Optional[Callable[[], List[str]]], _Template]] = []

    # Continuous columns: C by job and stage, CMAX, then (twt) tardiness.
    C = np.arange(n * len(STAGES)).reshape(n, len(STAGES))
    # (Names are prefix + job id: the job id ends every variable name.)
    continuous = _names([[_cvar(s, "") for s in STAGES]], ids) + ["CMAX"]
    cmax = C.size
    tardy = cmax + 1 + np.arange(n)
    if kind == Objective.TWT:
        continuous += [f"T_{j}" for j in ids]

    # Binary columns: X, then Y; y = 1 puts K[i] first.
    stage_machines = {s: [m for m in machines if m.tool_class in STAGE_CLASSES[s]]
                      for s in STAGES}
    slots = [(s, m.id) for s in STAGES for m in stage_machines[s]]
    slot = {sm: q for q, sm in enumerate(slots)}
    X = len(continuous) + np.arange(len(slots) * n).reshape(len(slots), n)
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    K, L = np.array(pairs, np.int64).reshape(-1, 2).T
    Y = len(continuous) + X.size + np.arange(len(pairs))
    pair_tags = [f"{ids[k]}_{ids[l]}" for k, l in pairs]
    binary = (_names([(_xvar(s, mid, ""),) for s, mid in slots], ids)
              + [_yvar(ids[k], ids[l]) for k, l in pairs])
    # X[q, j] places job j at slot q's stage alone (stay rows tie a cluster's slots).
    placements = tuple((col, mid, job_id, (s,), done)
                       for job_id, done, cols in zip(ids, map(tuple, C.tolist()),
                                                     X.T.tolist())
                       for (s, mid), col in zip(slots, cols))

    cols, coefs, tags = _chain(STAGES, C)
    at = P.copy()
    at[:, 0] = START
    families.append((partial(_names, [tags], ids), _template(cols, coefs, ">=", at)))

    # Machine exclusivity at every stage on every eligible machine.
    at = np.array([s - 1 for s, _ in slots], np.int64)
    held = (C[:, at].T, C[:, at].T, X, P[:, at].T)  # by (slot, job)
    families.append((
        lambda: _names([(f"no_clash_a_{s}_{mid}_", f"no_clash_b_{s}_{mid}_")
                        for s, mid in slots], pair_tags),
        _either_template(Y, tuple(a[:, K] for a in held), tuple(a[:, L] for a in held))))

    weighted, prefix, cols = _objective_link(kind, C[:, -1], cmax, tardy)
    if prefix is not None:
        families.append((partial(_names, [(prefix,)], ids),
                         _template(cols, (1, -1), ">=",
                                   _ZERO if kind == Objective.CMAX else DUE)))

    # One machine per needed stage, none per skipped one.
    served = [s for s in STAGES if stage_machines[s]]
    options = [[slot[s, m.id] for m in stage_machines[s]] for s in served]
    width = max(map(len, options))
    families.append((None, _template(
        X[[q + [0] * (width - len(q)) for q in options]].transpose(0, 2, 1),
        [[[1] * len(q) + [0] * (width - len(q))] for q in options], "=",
        NEED.T[[s - 1 for s in served]])))

    # Per cluster machine, widest span first: its stay equalities (x at
    # each linked stage equals x at entry), then its whole-span busy pairs.
    clusters = sorted(CLUSTER_ENTRY, key=lambda cls: -len(TOOL_STAGES[cls]))
    cells = [m for cls in clusters for m in machines if m.tool_class == cls]
    if cells:
        spans = [TOOL_STAGES[m.tool_class] for m in cells]
        covered = [[slot[s, m.id] for s in span] for m, span in zip(cells, spans)]
        entry = np.array([span[0] - 1 for span in spans], np.int64)
        held = (C[:, entry].T, C[:, [span[-1] - 1 for span in spans]].T,
                X[[q[0] for q in covered]], P[:, entry].T)  # by (machine, job)
        busy = _either_template(Y, tuple(a[:, K] for a in held),
                                tuple(a[:, L] for a in held))
        width = busy.cols.shape[-1]
        at = np.array([q + [0] * (width - len(q)) for q in covered])
        stay = _template(X[at].transpose(0, 2, 1),
                         [[[1 - len(q)] + [1] * (len(q) - 1) + [0] * (width - len(q))]
                          for q in covered], "=", _ZERO)

        def names():
            out = []
            for m in cells:
                c = m.tool_class.lower()
                out += _names([(f"stay_{c}_{m.id}_",)], ids)
                out += _names([(f"busy_{c}_a_{m.id}_", f"busy_{c}_b_{m.id}_")], pair_tags)
            return out

        families.append((names, _Template(*(
            np.concatenate([s, b.reshape(s.shape[:1] + (2 * len(pairs),) + s.shape[2:])], 1)
            for s, b in zip(stay, busy)))))

    # A job needing a stage that bars a cluster (the pre-develop bake) may
    # not enter it.
    for bar in sorted({s for bars in CLUSTER_BARS.values() for s in bars}):
        barred = [mc for mc in cells if bar in CLUSTER_BARS[mc.tool_class]]
        bakes = stage_machines[bar]
        cols = np.empty((len(bakes), len(barred), n, 2), np.int64)
        cols[..., 0] = X[[slot[bar, o.id] for o in bakes]][:, None]
        cols[..., 1] = X[[slot[CLUSTER_ENTRY[mc.tool_class], mc.id] for mc in barred]]
        families.append((partial(_names, [(f"bake_route_{o.id}_{mc.id}_",)
                                           for o in bakes for mc in barred], ids),
                         _template(cols, 1, "<=", _ONE)))

    # Oven reentry: stage-4 and stage-6 visits share one timeline.  Per
    # oven and pair: k at 4 against l at 6 (rows a, b), then k at 6
    # against l at 4 (rows c, d).
    ovens = [m for m in machines if m.tool_class == "B"]
    if ovens:
        x46 = X[[[slot[s, o.id] for s in (4, 6)] for o in ovens]].transpose(0, 2, 1)
        c46, p46 = C[:, [3, 5]], P[:, [3, 5]]  # by (job, stage 4 / 6)
        families.append((
            lambda: _names([tuple(f"reentry_{t}_{o.id}_" for t in "abcd") for o in ovens],
                           pair_tags),
            _either_template(Y[:, None], (c46[K], c46[K], x46[:, K], p46[K]),
                             (c46[L, ::-1], c46[L, ::-1], x46[:, L, ::-1], p46[L, ::-1]))))

    # The families end to end: each copied once into flat arrays, which are
    # then made read-only (and so is every view of them taken after).  The
    # coefficients and big-M shifts are small integers, kept narrow since the
    # cache holds them.
    namers, templates = zip(*families)
    rows = np.cumsum([0] + [t.lower.size for t in templates]).tolist()
    terms = np.cumsum([0] + [t.cols.size for t in templates]).tolist()
    spans = [(slice(r0, r1), slice(t0, t1))
             for r0, r1, t0, t1 in zip(rows, rows[1:], terms, terms[1:])]
    flat = [np.empty(size, dtype) for size, dtype in zip(
        [terms[-1]] * 3 + [rows[-1]] * 3, (np.int64, np.int8, np.int8, np.intp, np.intp,
                                           np.int8))]
    for t, (by_row, by_term) in zip(templates, spans):
        for out, a, span in zip(flat, t, (by_term,) * 3 + (by_row,) * 3):
            np.copyto(out[span].reshape(a.shape), a)
    for a in flat:
        a.flags.writeable = False
    families = tuple((names, flat[0][by_term].reshape(-1, t.cols.shape[-1]), by_row, by_term)
                     for names, t, (by_row, by_term) in zip(namers, templates, spans))
    return _Layout(tuple(continuous), tuple(binary), tuple(weighted), placements, tuple(served),
                   families, *flat[1:])


def export_milp(instance: Instance, kind: Objective) -> MilpModel:
    """Build the big-M formulation as a literal linear model: the cached
    `_literal_layout` of the instance's park, job ids and objective, filled
    in with the instance's numbers."""
    jobs = instance.jobs
    layout = _literal_layout(instance.machines, tuple(job.id for job in jobs), kind)
    M = big_m(instance)
    numbers = _numbers(jobs)
    offset = layout.shift * float(M)
    coefs = layout.m_coefs.astype(float)  # cast first: an int8 ufunc loop is slower
    coefs *= M
    coefs += layout.coefs
    lower = numbers[layout.lower] - offset
    upper = numbers[layout.upper] - offset
    for a in (coefs, lower, upper):
        a.flags.writeable = False
    served = layout.served

    def assign_names():
        return [f"assign_{'on' if job.needs(s) else 'off'}_{s}_{job.id}"
                for s in served for job in jobs]

    return MilpModel(
        name=instance.label or "photolith", kind=kind,
        continuous=list(layout.continuous), binary=list(layout.binary),
        weights=_objective_weights(kind, layout.weighted, jobs), big_m=M,
        blocks=[Rows(cols, coefs[terms].reshape(cols.shape), lower[rows], upper[rows])
                for _, cols, rows, terms in layout.families],
        row_namers=[names or assign_names for names, *_ in layout.families],
        placements=lambda: layout.placements)


def write_lp(model: MilpModel) -> str:
    """Render the model in LP file format."""
    lines = [f"\\ {model.name} ({model.kind.value})", "Minimize"]
    lines.append(" obj: " + _lp_terms(sorted(model.objective.items())))
    lines.append("Subject To")
    for row in model.constraints:
        lines.append(f" {row.name}: {_lp_terms(row.coeffs)} {row.sense} {_num(row.rhs)}")
    lines.append("Bounds")
    for v in model.continuous:
        lines.append(f" 0 <= {v}")
    lines.append("Binaries")
    for v in model.binary:
        lines.append(f" {v}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(x)


def _lp_terms(coeffs) -> str:
    return " ".join(f"{'-' if c < 0 else '+'} {_num(abs(c))} {var}"
                    for var, c in coeffs).removeprefix("+ ") or "0"


# ---------------------------------------------------------------------------
# Mapping schedules onto model variable values

def schedule_to_values(instance: Instance, schedule: Schedule,
                       model: MilpModel) -> Dict[str, float]:
    """Variable assignment induced by a feasible schedule.

    Raises ValueError when no single precedence orientation per job pair
    is consistent with every shared machine.
    """
    values = dict.fromkeys(model.names, 0.0)
    for job in instance.jobs:
        c = job.ready  # a skipped stage carries the previous completion forward
        for s in STAGES:
            if job.needs(s):
                c = schedule.completion[(job.id, s)]
            values[_cvar(s, job.id)] = float(c)
    scores = metrics(instance, schedule)
    values["CMAX"] = float(scores.cmax)
    if model.kind == Objective.TWT:
        values.update((f"T_{job_id}", float(t)) for job_id, t in scores.tardiness.items())

    for (job_id, s), mid in schedule.assign.items():
        name = _xvar(s, mid, job_id)
        if name not in values:
            raise ValueError(f"assignment variable {name} absent from the model")
        values[name] = 1.0

    for (k, l), before in _pair_orders(instance, schedule).items():
        name = _yvar(k, l)
        if name in values:
            values[name] = 1.0 if before else 0.0
    return values


def _pair_orders(instance: Instance, schedule: Schedule) -> Dict[Tuple[str, str], bool]:
    """Per job pair (k < l): does k finish before l on every shared machine?

    Raises ValueError on machines whose reservations interleave the pair
    in both directions.
    """
    orders: Dict[Tuple[str, str], bool] = {}
    for spans in timelines(instance, schedule).values():
        for i, (s0, _, k, _) in enumerate(spans):
            for s1, _, l, _ in spans[i + 1:]:
                if k == l:
                    continue
                a, b = (k, l) if k < l else (l, k)
                first = (s0, k) <= (s1, l)
                before = first if (a, b) == (k, l) else not first
                if orders.setdefault((a, b), before) != before:
                    raise ValueError(
                        f"jobs {a} and {b} are ordered differently on different machines")
    return orders


def check_values(model: MilpModel, values: Dict[str, float]) -> List[str]:
    """Names of constraints the variable assignment violates, in row order.

    A row holds when its sum lies within its bounds widened by
    CHECK_TOL * (1 + |rhs|).
    """
    import numpy as np
    cols, coefs, starts, lower, upper = model.joined()
    names = model.names
    x = np.fromiter(map(values.__getitem__, names), float, count=len(names))
    lhs = np.add.reduceat(coefs * x[cols], starts)  # padding adds 0
    slack = CHECK_TOL * (1.0 + np.abs(np.where(lower == -np.inf, upper, lower)))
    bad = np.flatnonzero(~((lhs >= lower - slack) & (lhs <= upper + slack)))
    if not len(bad):
        return []
    row_names = model.row_names
    return [row_names[i] for i in bad]


# ---------------------------------------------------------------------------
# Internal model with per-reservation precedence binaries

def _disjunctive_model(instance: Instance, kind: Objective) -> MilpModel:
    import numpy as np
    M = big_m(instance)
    model = MilpModel(name=instance.label or "photolith", kind=kind, big_m=M)
    jobs = instance.jobs
    p = np.array([job.p for job in jobs])  # p[j, s - 1]

    # Continuous columns: C[j, s - 1] for the stages each job needs, then
    # CMAX (cmax) or each job's tardiness (twt).
    C = np.full(p.shape, -1)
    for j, job in enumerate(jobs):
        for s in job.stages:
            C[j, s - 1] = len(model.continuous)
            model.continuous.append(_cvar(s, job.id))
    cmax = len(model.continuous)
    tardy = cmax + np.arange(len(jobs))
    if kind == Objective.CMAX:
        model.continuous.append("CMAX")
    elif kind == Objective.TWT:
        model.continuous += [f"T_{job.id}" for job in jobs]

    # Assignment variables: one per candidate of the park's table, which
    # commits the job to the machine at that stage and to a cluster's
    # later covered stages too.  Per machine, the candidates taking it:
    # (job, its completion columns by stage - 1, stages held).
    park = instance.park
    x_options: Dict[Visit, List[int]] = {(job.id, s): [] for job in jobs for s in job.stages}
    takes: List[List[Tuple[Job, List[int], Tuple[int, ...]]]] = [[] for _ in instance.machines]
    for job, done in zip(jobs, C.tolist()):
        for s, options in zip(job.stages, park.pattern(job.stages).candidates):
            for k in options:
                takes[k].append((job, done, (s,) + park.later[k]))
    # Every reservation and its placement; a fresh z per pair of one machine's
    # reservations by two jobs (z = 1: front's reservation precedes back's).
    reservations: List[Tuple[int, int, int, int]] = []
    placements = []
    tags, fronts, backs = [], [], []
    for mid, taken in zip(park.machine_ids, takes):
        own = []  # (job id, "job_exit" tag, reservation index) per reservation
        for job, done, stages in taken:
            x = len(model.continuous) + len(model.binary)
            model.binary.append(_xvar(stages[0], mid, job.id))
            placements.append((x, mid, job.id, stages, done))
            own.append((job.id, f"{job.id}_{stages[-1]}", len(reservations)))
            reservations.append((done[stages[0] - 1], done[stages[-1] - 1], x,
                                 job.duration(stages[0])))
            for s in stages:
                x_options[(job.id, s)].append(x)
        for i, (a, ta, front) in enumerate(own):
            for b, tb, back in own[i + 1:]:
                if a != b:
                    tags.append(f"{mid}_{ta}_{tb}")
                    fronts.append(front)
                    backs.append(back)
    model.placements = lambda: placements

    # Instance validation guarantees every needed stage an option.
    width = max(map(len, x_options.values()))
    model.add_rows(lambda: [f"assign_{s}_{job_id}" for job_id, s in x_options],
                   _rows([xs + [0] * (width - len(xs)) for xs in x_options.values()],
                         [[1] * len(xs) + [0] * (width - len(xs))
                          for xs in x_options.values()], "=", 1))

    for j, job in enumerate(jobs):
        at = np.array(job.stages) - 1
        _add_chain(model, [job.id], job.stages, C[j:j + 1, at], p[j:j + 1, at], job.ready)
        _add_objective_link(model, [job], C[j, at[-1]], cmax, tardy[j])

    if tags:
        z = len(model.continuous) + len(model.binary) + np.arange(len(tags))
        model.binary += _names([("z_",)], tags)
        held = np.array(reservations).T
        rows = _either_order(M, z, tuple(held[:, fronts]), tuple(held[:, backs]))
        # back waits (order_a), then front waits (order_b)
        model.add_rows(partial(_names, [("order_a_", "order_b_")], tags),
                       Rows(*(a[:, ::-1] for a in rows)))
    return model


def milp(**kwargs):
    """`scipy.optimize.milp` (HiGHS), imported on the first call."""
    from scipy.optimize import milp as highs
    return highs(**kwargs)


def _solve(instance: Instance, model: MilpModel,
           time_limit: Optional[float]) -> Tuple[str, Optional[Schedule]]:
    """Solve `model` with HiGHS: the outcome (OPTIMAL, TIMED_OUT or
    INFEASIBLE; SolverError on any other status), and the solution's
    machine orders re-timed in integer minutes as a schedule (None
    without a solution)."""
    import numpy as np
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint

    cols, coefs, starts, lower, upper = model.joined()
    n = len(model.continuous) + len(model.binary)
    # The rows as a CSR matrix, each row's terms in the order given.
    A = sparse.csr_matrix((coefs, cols, np.append(starts, len(cols))),
                          shape=(len(starts), n))
    A.eliminate_zeros()  # the padding
    c = np.zeros(n)
    c[list(model.weights)] = list(model.weights.values())
    # Binary columns follow the continuous ones.
    integrality = np.zeros(n)
    upper_x = np.full(n, np.inf)
    integrality[len(model.continuous):] = 1
    upper_x[len(model.continuous):] = 1
    options = {"mip_rel_gap": 0.0}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    res = milp(c=c, constraints=LinearConstraint(A, lower, upper),
               integrality=integrality, bounds=Bounds(np.zeros(n), upper_x),
               options=options)
    outcome = {0: OPTIMAL, 1: TIMED_OUT, 2: INFEASIBLE}.get(res.status)
    if outcome is None:
        raise SolverError(f"HiGHS status {res.status}: {res.message}")
    if outcome == INFEASIBLE or res.x is None:
        return outcome, None
    x = res.x.tolist()
    assign: Dict[Visit, str] = {}
    completion: Dict[Visit, float] = {}
    for col, mid, job_id, stages, done in model.placements():
        if x[col] > 0.5:
            for s in stages:
                assign[(job_id, s)] = mid
                completion[(job_id, s)] = x[done[s - 1]]
    return outcome, earliest_completion(instance, assign,
                                        Schedule(assign, completion).sequences)


def check_time_limit(time_limit: Optional[float]) -> None:
    """Raise ValueError unless the limit is None or >= 0 seconds (inf too)."""
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time limit must be >= 0 seconds, got {time_limit}")


def solve_exact(instance: Instance, kind: Objective,
                time_limit: Optional[float] = None) -> ExactResult:
    """Minimize the objective exactly (or best incumbent on timeout).

    The status is OPTIMAL, TIMED_OUT (with the incumbent, if any) or
    INFEASIBLE (no schedule); any other HiGHS outcome raises SolverError.

    SP's initial order is decoded first.  When its schedule meets the
    decoder's per-job lower bound, that schedule is the optimum: it is
    returned as OPTIMAL with no model built and no HiGHS call.  The
    decoder serves every machine in list order, so the schedule is
    order-consistent and satisfies the literal model.

    `time_limit` is in seconds (None, 0 and inf are valid) and bounds the
    whole call, re-solve included; a negative or NaN limit raises
    ValueError.

    The per-reservation precedence model, a relaxation of the literal one
    that admits passing, is solved first.  When its optimum gives a
    schedule whose pairwise job orders disagree across machines, the
    literal model (`export_milp`) is solved for an order-consistent
    schedule of equal value; if it finds none, the first schedule stands.
    When HiGHS fails on the first model, the literal model is solved in
    its place with the time left, and only its failure raises SolverError.
    """
    check_time_limit(time_limit)
    started = time.perf_counter()
    decoder = decoder_for(instance)
    order = sp_initial_order(instance)
    value = decoder.score(order, kind)
    if value == decoder.lower_bound(kind):
        return ExactResult(schedule=decoder.schedule(order), value=value,
                           status=OPTIMAL)

    def left():
        return (None if time_limit is None
                else max(0.0, time_limit - (time.perf_counter() - started)))

    # The first model is freed before a re-solve builds the larger literal one.
    try:
        status, schedule = _solve(instance, _disjunctive_model(instance, kind), time_limit)
    except SolverError:  # HiGHS can fail on the relaxation alone
        status, schedule = _solve(instance, export_milp(instance, kind), left())
    if schedule is None:  # infeasible, or out of time with no incumbent
        return ExactResult(schedule=None, value=None, status=status)
    value = objective_value(instance, schedule, kind)
    if status == OPTIMAL:
        try:
            _pair_orders(instance, schedule)
        except ValueError:  # passing: look for an order-consistent optimum
            try:
                again, consistent = _solve(instance, export_milp(instance, kind), left())
            except SolverError:  # the first solve's optimum stands
                again = None
            if again == OPTIMAL and objective_value(instance, consistent, kind) == value:
                schedule = consistent
    return ExactResult(schedule=schedule, value=value, status=status)
