"""Span tracing around calls into the avlp modules, installed from outside.

The package imports functions by name (``exact`` does
``from .simplex import solve_lp``), so wrapping ``simplex.solve_lp`` alone
would miss most calls.  ``Tracer.active()`` replaces every module-level
binding of each target function, in every ``avlp`` module, with one wrapper
per function, and restores the originals on exit.  A call therefore makes
exactly one span whichever module it came through.

A span is ``(name, start, end, parent, op, attrs)``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``op`` the id of the operation the
span belongs to.  Spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager

PACKAGE = "avlp"
LP_SAMPLE = 256  # LPs kept for the HiGHS yardstick
FIELDS = ("name", "start", "end", "parent", "op", "attrs")
NAME, START, END, PARENT, OP, ATTRS = range(len(FIELDS))


def _lp_attrs(tracer, args, kwargs, result):
    lp = args[0]
    if len(tracer.lp_sample) < LP_SAMPLE:
        tracer.lp_sample.append(lp)
    rows, cols = lp.G.shape
    return {"rows": rows, "cols": cols, "status": result.status.value}


# (layer, function, observe): observe(tracer, args, kwargs, result) returns
# the span attrs, recorded at the boundary so that ratios are counted where
# the work happens
TARGETS = (
    ("cli", "main", None),
    ("cli", "load_problem", None),
    ("exact", "solve_exact", lambda t, a, k, r: {"orthants": r.orthants_solved}),
    ("exact", "find_feasible_point", None),
    ("core", "orthant_restriction", None),
    ("simplex", "solve_lp", _lp_attrs),
    ("reformulate", "union_membership", None),
    ("reformulate", "encoding_membership", None),
    ("reformulate", "union_to_avlp", None),
    ("stability", "basis_stability_check", lambda t, a, k, r: {"verified": r.verified}),
    ("stability", "enclose_solutions", None),
    ("integrality", "integrality_full", None),
    ("integrality", "det_exact", None),
)

class Tracer:
    """Records spans for calls into the target functions of the package."""

    def __init__(self):
        self.spans: list[list] = []
        # LPs passed to solve_lp, kept for the HiGHS yardstick
        self.lp_sample: list = []
        self._stack: list[int] = []
        self._op = -1
        self._wrappers = {}  # original function -> wrapper
        for layer, func, observe in TARGETS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            fn = getattr(module, func)
            self._wrappers[fn] = self._wrap(f"{layer}.{func}", fn, observe)

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            spans.append(span)
            stack.append(sid)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                span[ATTRS] = {"raised": True}
                raise
            else:
                span[END] = clock()
                if observe is not None:
                    span[ATTRS] = observe(self, args, kwargs, result)
                return result
            finally:
                stack.pop()

        return wrapper

    def _bindings(self):
        """(module, attribute, original) for every binding of a target."""
        found = []
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in self._wrappers:
                    found.append((module, attr, value))
        return found

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        bindings = self._bindings()
        for module, attr, fn in bindings:
            setattr(module, attr, self._wrappers[fn])
        try:
            yield self
        finally:
            for module, attr, fn in bindings:
                setattr(module, attr, fn)

    @contextmanager
    def op(self, op_id: int):
        """One root span named ``op`` around operation op_id."""
        self._op = op_id
        span = ["op", 0.0, 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            self._op = -1

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta, "fields": FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from spans


class SpanIndex:
    """Durations, self times and ancestry over a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                self.child_time[span[PARENT]] += span[END] - span[START]
        self.by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            self.by_name.setdefault(span[NAME], []).append(i)

    def ids(self, name):
        return self.by_name.get(name, [])

    def durations(self, name):
        return [self.spans[i][END] - self.spans[i][START] for i in self.ids(name)]

    def busy(self, name):
        return sum(self.durations(name))

    def self_time(self, name):
        return sum(
            self.spans[i][END] - self.spans[i][START] - self.child_time[i]
            for i in self.ids(name)
        )

    def under(self, name, ancestor):
        """Spans called ``name`` that have a span called ``ancestor`` above them."""
        out = []
        for i in self.ids(name):
            p = self.spans[i][PARENT]
            while p >= 0 and self.spans[p][NAME] != ancestor:
                p = self.spans[p][PARENT]
            if p >= 0:
                out.append(i)
        return out


def tail(values):
    """(value, percentile, count): the latency at the highest percentile
    with at least ten samples beyond it; the median when there are fewer
    than eleven samples, with the percentile recorded as 50."""
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 11:
        return statistics.median(vals), 50.0, n
    return vals[n - 11], 100.0 * (n - 10) / n, n


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, plain_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the traced operations, times and calls per op;
    ``plain_wall_s`` is the untraced time of the same operations."""
    ix = SpanIndex(spans)
    op_wall_s = ix.busy("op")
    per_op = lambda v: _ratio(v, len(ix.ids("op")))
    lp = ix.ids("simplex.solve_lp")
    lp_ms = [1e3 * d for d in ix.durations("simplex.solve_lp")]
    attrs = lambda ids: [ix.spans[i][ATTRS] or {} for i in ids]
    lp_attrs = attrs(lp)

    def lp_stats_under(ancestor):
        ids = ix.under("simplex.solve_lp", ancestor)
        optimal = sum(1 for a in attrs(ids) if a.get("status") == "optimal")
        return len(ids), optimal

    exact_lps, exact_optimal = lp_stats_under("exact.solve_exact")
    ffp_lps, _ = lp_stats_under("exact.find_feasible_point")
    union_lps, _ = lp_stats_under("reformulate.union_membership")
    solves = len(ix.ids("exact.solve_exact"))
    searches = len(ix.ids("exact.find_feasible_point"))
    queries = len(ix.ids("reformulate.union_membership"))
    checks = attrs(ix.ids("stability.basis_stability_check"))
    enclose_ms = [1e3 * d for d in ix.durations("stability.enclose_solutions")]

    return {
        "simplex.solve_lp.calls": per_op(len(lp)),
        "simplex.solve_lp.busy_s": per_op(ix.busy("simplex.solve_lp")),
        "simplex.solve_lp.ms_p50": statistics.median(lp_ms) if lp_ms else 0.0,
        "simplex.solve_lp.ms_tail": tail(lp_ms)[0],
        "simplex.share": _ratio(ix.busy("simplex.solve_lp"), op_wall_s),
        "simplex.lp_rows_mean": _ratio(sum(a["rows"] for a in lp_attrs if "rows" in a), len(lp)),
        "simplex.lp_cols_mean": _ratio(sum(a["cols"] for a in lp_attrs if "cols" in a), len(lp)),
        "simplex.infeasible_frac": _ratio(
            sum(1 for a in lp_attrs if a.get("status") == "infeasible"), len(lp)
        ),
        "core.orthant_restriction.calls": per_op(len(ix.ids("core.orthant_restriction"))),
        "core.orthant_restriction.busy_s": per_op(ix.busy("core.orthant_restriction")),
        "exact.solve_exact.busy_s": per_op(ix.busy("exact.solve_exact")),
        "exact.solve_exact.self_s": per_op(ix.self_time("exact.solve_exact")),
        "exact.orthants_per_solve": _ratio(
            sum(a.get("orthants", 0) for a in attrs(ix.ids("exact.solve_exact"))), solves
        ),
        "exact.lps_per_solve": _ratio(exact_lps, solves),
        "exact.useful_lp_frac": _ratio(exact_optimal, exact_lps),
        "exact.find_feasible_point.calls": per_op(searches),
        "exact.find_feasible_point.busy_s": per_op(ix.busy("exact.find_feasible_point")),
        "exact.lps_per_feasibility_search": _ratio(ffp_lps, searches),
        "reformulate.union_membership.busy_s": per_op(ix.busy("reformulate.union_membership")),
        "reformulate.union_membership.self_s": per_op(
            ix.self_time("reformulate.union_membership")
        ),
        "reformulate.lps_per_union_query": _ratio(union_lps, queries),
        "reformulate.encoding_membership.busy_s": per_op(
            ix.busy("reformulate.encoding_membership")
        ),
        "reformulate.union_to_avlp.busy_s": per_op(ix.busy("reformulate.union_to_avlp")),
        "stability.enclose_solutions.calls": per_op(len(enclose_ms)),
        "stability.enclose_solutions.busy_s": per_op(ix.busy("stability.enclose_solutions")),
        "stability.enclose_solutions.ms_p50": statistics.median(enclose_ms) if enclose_ms else 0.0,
        "stability.basis_stability_check.busy_s": per_op(
            ix.busy("stability.basis_stability_check")
        ),
        "stability.basis_stability_check.self_s": per_op(
            ix.self_time("stability.basis_stability_check")
        ),
        "stability.verified_frac": _ratio(sum(1 for a in checks if a.get("verified")), len(checks)),
        "integrality.det_exact.calls": per_op(len(ix.ids("integrality.det_exact"))),
        "integrality.det_exact.busy_s": per_op(ix.busy("integrality.det_exact")),
        "integrality.integrality_full.busy_s": per_op(ix.busy("integrality.integrality_full")),
        "cli.load_problem.busy_s": per_op(ix.busy("cli.load_problem")),
        "cli.main.self_s": per_op(ix.self_time("cli.main")),
        "tracing.overhead_frac": _ratio(op_wall_s, plain_wall_s) - 1.0,
    }
