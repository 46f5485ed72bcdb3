"""Outside-in tracing of effcut's layers, and the per-layer metrics.

``Tracer`` wraps the public functions each module exposes, at every name
a caller looks them up through (``search`` imports its callees by name,
so both ``effcut.search.*`` and ``effcut.simplex.solve_lfp`` are
patched).  Each call becomes a span: name, start, end, parent span and
instance id, plus a few counts read from the call's arguments and
result.  Spans stay in memory until the run ends.

The wrappers only observe: the trace digest of every solve is the same
with them on and off, which the benchmark checks.

Self time is a span's duration minus the time its child spans cover.
Every span's self time goes to exactly one layer bucket, so the buckets
of the ``solve`` side add up to the wall time of the traced solves.  LP
solves nested in ``coordinate_bounds``, ``validate_instance`` or a warm
re-solve (the silent ``SimplexCycleError`` fallback) count towards that
caller's bucket.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

from effcut import instance, oracle, search, simplex


@dataclass
class Span:
    name: str
    parent: int | None
    instance: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _volume(bounds) -> int:
    return 0 if any(u < 0 for u in bounds) else math.prod(u + 1 for u in bounds)


# Span name -> function of (args, kwargs, result) giving the span's counts.
_ATTRS = {
    "oracle.enumerate_feasible": lambda a, k, r: {"points": len(r)},
    "oracle.coordinate_bounds": lambda a, k, r: {"box": _volume(r)},
    "oracle.pareto_filter": lambda a, k, r: {"pairs": len(a[0]) * (len(a[0]) - 1)},
    "simplex.add_rows_and_reoptimize": lambda a, k, r: {
        "infeasible": isinstance(r, simplex.Infeasible)
    },
    "efficiency.test_moiqp_efficiency": lambda a, k, r: {
        "points": len(a[2]), "efficient": r.efficient
    },
    "efficiency.test_boilfp_efficiency": lambda a, k, r: {
        "points": len(a[2]), "efficient": r.efficient
    },
    "cuts.build_cut_report": lambda a, k, r: {
        "fathom": not r.H or not r.H_prime, "single": bool(r.H) and r.H == r.H_prime
    },
}

# (owner, attribute, span name): every lookup path of the public layer calls.
_TARGETS = (
    (search, "solve", "search.solve"),
    (search, "enumerate_feasible", "oracle.enumerate_feasible"),
    (search, "solve_lfp", "simplex.solve_lfp"),
    (search, "add_rows_and_reoptimize", "simplex.add_rows_and_reoptimize"),
    (search, "test_moiqp_efficiency", "efficiency.test_moiqp_efficiency"),
    (search, "test_boilfp_efficiency", "efficiency.test_boilfp_efficiency"),
    (search, "build_cut_report", "cuts.build_cut_report"),
    (simplex, "solve_lfp", "simplex.solve_lfp"),
    (simplex.Tableau, "clone", "simplex.Tableau.clone"),
    (oracle, "oracle_solve", "oracle.oracle_solve"),
    (oracle, "enumerate_feasible", "oracle.enumerate_feasible"),
    (oracle, "coordinate_bounds", "oracle.coordinate_bounds"),
    (oracle, "pareto_filter", "oracle.pareto_filter"),
    (instance, "render_instance", "instance.render_instance"),
    (instance, "parse_instance", "instance.parse_instance"),
    (instance, "validate_instance", "instance.validate_instance"),
)


class PivotCounter:
    """Observer for ``solve(observer=...)``: pivots by tag, peak tableau size."""

    def __init__(self):
        self.pivots = {"primal": 0, "dual": 0, "phase1": 0}
        self.peak_rows = 0
        self.peak_cols = 0

    def __call__(self, tag: str, tableau) -> None:
        self.pivots[tag] += 1
        self.peak_rows = max(self.peak_rows, len(tableau.basis))
        self.peak_cols = max(self.peak_cols, tableau.ncols)


class Tracer:
    """Context manager that installs the span wrappers and removes them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instance: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        attrs = _ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.instance, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


_INCLUSIVE = {
    "simplex.add_rows_and_reoptimize",
    "oracle.coordinate_bounds",
    "instance.validate_instance",
}

_BUCKET = {
    "search.solve": "search.self_s",
    "simplex.solve_lfp": "simplex.root_s",
    "simplex.add_rows_and_reoptimize": "simplex.warm_s",
    "simplex.Tableau.clone": "simplex.clone_s",
    "efficiency.test_moiqp_efficiency": "efficiency.t1_s",
    "efficiency.test_boilfp_efficiency": "efficiency.t2_s",
    "cuts.build_cut_report": "cuts.report_s",
    "oracle.oracle_solve": "oracle.self_s",
    "oracle.enumerate_feasible": "oracle.enumerate_s",
    "oracle.coordinate_bounds": "oracle.bounds_s",
    "oracle.pareto_filter": "oracle.pareto_s",
    "instance.render_instance": "instance.render_s",
    "instance.parse_instance": "instance.parse_s",
    "instance.validate_instance": "instance.validate_s",
}

SIDES = {"search.solve": "by_solve", "oracle.oracle_solve": "by_oracle"}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def buckets(spans: list[Span]) -> list[tuple[str, str | None]]:
    """(layer bucket, side) of every span; side is by_solve, by_oracle or None."""
    out: list[tuple[str, str | None]] = []
    for s in spans:
        parent = spans[s.parent] if s.parent is not None else None
        if parent is not None and parent.name in _INCLUSIVE and s.name == "simplex.solve_lfp":
            out.append(out[s.parent])
            continue
        side = SIDES.get(s.name) if parent is None else out[s.parent][1]
        out.append((_BUCKET[s.name], side))
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], pivots: PivotCounter, results, solve_s: float) -> dict:
    """Per-layer metrics of one traced batch.

    results are the traced ``SolveResult`` objects (node counts live only
    in the result and its trace); solve_s is the wall time of the traced
    solves as the caller measured it.
    """
    own = self_times(spans)
    time_in: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for s, t, (bucket, side) in zip(spans, own, buckets(spans)):
        time_in[bucket, side] += t
        parent = spans[s.parent].name if s.parent is not None else None
        calls[s.name, parent, side] += 1
        for key, value in s.attrs.items():
            counts[s.name, key, side] += int(value)

    S = "by_solve"

    def n_calls(name):
        return sum(c for (nm, _, side), c in calls.items() if nm == name and side == S)

    actions = Counter(ev["action"] for res in results for ev in res.trace)
    popped = actions["lfp_solved"] + actions["infeasible"]
    solved = sum(res.node_count for res in results)
    root_s = time_in["simplex.root_s", S]
    warm_s = time_in["simplex.warm_s", S]
    n_pivots = sum(pivots.pivots.values())
    t1, t2 = "efficiency.test_moiqp_efficiency", "efficiency.test_boilfp_efficiency"
    t1_calls, t2_calls = n_calls(t1), n_calls(t2)
    t1_points = counts[t1, "points", S]
    reports = n_calls("cuts.build_cut_report")
    fathoms = counts["cuts.build_cut_report", "fathom", S]
    m = {
        "search.self_s": time_in["search.self_s", S],
        "search.nodes_popped": popped,
        "search.nodes_solved": solved,
        "search.solved_ratio": _ratio(solved, popped),
        "search.integer_nodes": actions["integer_found"],
        "search.cut_rows": sum(res.cut_count for res in results),
        "simplex.root_s": root_s,
        "simplex.root_calls": calls["simplex.solve_lfp", "search.solve", S],
        "simplex.warm_s": warm_s,
        "simplex.warm_calls": n_calls("simplex.add_rows_and_reoptimize"),
        "simplex.warm_infeasible": counts["simplex.add_rows_and_reoptimize", "infeasible", S],
        "simplex.clone_s": time_in["simplex.clone_s", S],
        "simplex.clone_calls": n_calls("simplex.Tableau.clone"),
        "simplex.pivots_primal": pivots.pivots["primal"],
        "simplex.pivots_dual": pivots.pivots["dual"],
        "simplex.pivots_phase1": pivots.pivots["phase1"],
        "simplex.ms_per_pivot": _ratio(1000 * (root_s + warm_s), n_pivots),
        "simplex.peak_rows": pivots.peak_rows,
        "simplex.peak_cols": pivots.peak_cols,
        "simplex.fallbacks": calls["simplex.solve_lfp", "simplex.add_rows_and_reoptimize", S],
        "efficiency.t1_s": time_in["efficiency.t1_s", S],
        "efficiency.t1_calls": t1_calls,
        "efficiency.t1_points": t1_points,
        "efficiency.t1_us_per_point": _ratio(1e6 * time_in["efficiency.t1_s", S], t1_points),
        "efficiency.t1_pass_ratio": _ratio(counts[t1, "efficient", S], t1_calls),
        "efficiency.t2_s": time_in["efficiency.t2_s", S],
        "efficiency.t2_calls": t2_calls,
        "efficiency.t2_pass_ratio": _ratio(counts[t2, "efficient", S], t2_calls),
        "cuts.report_s": time_in["cuts.report_s", S],
        "cuts.report_calls": reports,
        "cuts.fathom_ratio": _ratio(fathoms, reports),
        "cuts.single_row_ratio": _ratio(counts["cuts.build_cut_report", "single", S], reports - fathoms),
    }
    for side in SIDES.values():
        box = counts["oracle.coordinate_bounds", "box", side]
        points = counts["oracle.enumerate_feasible", "points", side]
        m["oracle.enumerate_s." + side] = time_in["oracle.enumerate_s", side]
        m["oracle.bounds_s." + side] = time_in["oracle.bounds_s", side]
        m["oracle.box_points." + side] = box
        m["oracle.D_points." + side] = points
        m["oracle.enum_yield." + side] = _ratio(points, box)
        m["oracle.pareto_s." + side] = time_in["oracle.pareto_s", side]
        m["oracle.pareto_pairs." + side] = counts["oracle.pareto_filter", "pairs", side]
    for name in ("render_s", "parse_s", "validate_s"):
        m["instance." + name] = time_in["instance." + name, None]
    solve_side = sum(t for (_, side), t in time_in.items() if side == S)
    m["trace.self_sum_ratio"] = _ratio(solve_side, solve_s)
    return m
