"""Depth-first branch-and-cut over the efficient set.

Each node owns the root polyhedron plus the branch bounds and cuts on its
path.  A node's relaxation is warm-started from its parent's optimal
tableau: pending rows are appended, dual pivots restore feasibility,
primal pivots restore the optimality certificate.  The stack is LIFO, so
the low child of a branch, popped first, gets a copy of that tableau;
the high child and a cut's only child, its last readers, re-solve it in
place.  Integer optima are screened by the two efficiency tests and
recorded on a double pass; the cut pair (or the single row, when both
index sets coincide) then excludes the point and the search continues
until every node is fathomed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cuts import build_cut_report
from .efficiency import PointTable, test_boilfp_efficiency, test_moiqp_efficiency
from .instance import Instance, denominator_violations
from .oracle import DEFAULT_ENUM_CAP, IntPoint, enumerate_feasible
from .simplex import (
    Infeasible,
    Observer,
    Row,
    System,
    add_rows_and_reoptimize,
    solve_lfp,
)

DEFAULT_NODE_BUDGET = 10_000


@dataclass
class Node:
    """One search-tree node; extra_rows is the full path from the root."""

    id: int
    parent: int | None
    extra_rows: tuple[Row, ...]
    status: str = "open"


@dataclass(frozen=True)
class SolveResult:
    """Search outcome.

    node_count counts nodes whose relaxation reached an optimum; probes
    that came up infeasible appear only in the trace.  x_eff is sorted
    lexicographically and duplicate-free.  nodes holds every node created,
    including unexplored ones left behind by an exhausted budget.
    """

    x_eff: tuple[IntPoint, ...]
    node_count: int
    cut_count: int
    trace: tuple[dict, ...]
    counters: dict[str, int]
    complete: bool
    nodes: tuple[Node, ...]


def _event(node, parent, action, point=None, value=None, H=None, H_prime=None):
    return {
        "node": node,
        "parent": parent,
        "action": action,
        "point": None if point is None else [str(v) for v in point],
        "value": None if value is None else str(value),
        "H": None if H is None else list(H),
        "H_prime": None if H_prime is None else list(H_prime),
    }


def render_trace(trace: Sequence[dict]) -> str:
    """Line-delimited records with fixed field order; byte-deterministic."""
    return "".join(json.dumps(ev, separators=(",", ":")) + "\n" for ev in trace)


def select_branch_variable(x_star: Sequence[Fraction]) -> int:
    """1-based index of the first fractional coordinate, the one to branch
    on; ValueError when every coordinate is integer."""
    for i, v in enumerate(x_star, 1):
        if Fraction(v).denominator != 1:
            return i
    raise ValueError("all coordinates are integer")


def branch(node: Node, k: int, v: Fraction, next_id: int) -> tuple[Node, Node]:
    """Children of node splitting x_k <= floor(v) / x_k >= floor(v)+1."""
    v = Fraction(v)
    if v.denominator == 1:
        raise ValueError("cannot branch on an integer value")
    floor = v.numerator // v.denominator
    low = Node(next_id, node.id, node.extra_rows + (Row.make({k: 1}, "<=", floor),))
    high = Node(next_id + 1, node.id, node.extra_rows + (Row.make({k: 1}, ">=", floor + 1),))
    return low, high


def solve(
    inst: Instance,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    enum_cap: int = DEFAULT_ENUM_CAP,
    observer: Observer | None = None,
) -> SolveResult:
    """Collect every doubly-efficient integer point of the instance.

    Per node: solve the fractional relaxation; fathom on infeasibility;
    branch on the first fractional coordinate, the low child warm-started
    from a copy of the node's tableau and the high child from the tableau
    itself; at an integer optimum run T1, then T2 on a pass, record on a
    double pass, and afterwards either fathom (some cut set empty) or push
    the cut successor, which takes the tableau as is.  The budget caps node
    pops; exhaustion clears the complete flag.  A criterion matrix that
    is not positive semidefinite raises ValueError, since the cuts are
    safe only for convex criteria.  D comes first, so an unbounded region
    raises UnboundedError; then, as in validate_instance, a nonpositive
    preference denominator raises ValueError before any relaxation.
    """
    for i, quad in enumerate(inst.quadratics, 1):
        if not quad.is_psd():
            raise ValueError("Q%d not positive semidefinite" % i)
    D = enumerate_feasible(inst, enum_cap)
    bad = denominator_violations(inst)
    if bad:
        raise ValueError("; ".join(bad))
    objective = inst.fractionals[0]
    root = solve_lfp(System.from_polyhedron(inst.polyhedron), objective, observer)
    table = PointTable(inst, D)
    trace: list[dict] = []
    nodes: list[Node] = [Node(0, None, ())]
    stack = [(nodes[0], None, ())]  # (node, tableau it owns, pending rows)
    found: list[IntPoint] = []
    node_count = cut_count = t1_runs = t2_runs = 0
    pops = 0
    complete = True

    while stack:
        if pops >= node_budget:
            complete = False
            break
        node, parent_tab, pending = stack.pop()
        pops += 1
        if parent_tab is None:
            outcome = root
        else:
            outcome = add_rows_and_reoptimize(parent_tab, pending, objective, observer)
        if isinstance(outcome, Infeasible):
            node.status = "fathomed_infeasible"
            trace.append(_event(node.id, node.parent, "infeasible"))
            continue
        node_count += 1
        x = outcome.point
        trace.append(_event(node.id, node.parent, "lfp_solved", point=x, value=outcome.value))

        if any(v.denominator != 1 for v in x):
            k = select_branch_variable(x)
            low, high = branch(node, k, x[k - 1], len(nodes))
            nodes.extend((low, high))
            node.status = "branched"
            trace.append(_event(node.id, node.parent, "branched", point=x, value=outcome.value))
            suffix = len(node.extra_rows)
            stack.append((high, outcome.tableau, high.extra_rows[suffix:]))
            stack.append((low, outcome.tableau.clone(), low.extra_rows[suffix:]))
            continue

        xi = tuple(int(v) for v in x)
        trace.append(_event(node.id, node.parent, "integer_found", point=x, value=outcome.value))
        t1 = test_moiqp_efficiency(xi, inst, table)
        t1_runs += 1
        trace.append(
            _event(
                node.id,
                node.parent,
                "t1",
                point=t1.witness if t1.witness is not None else x,
                value=t1.objective_value,
            )
        )
        if t1.efficient:
            t2 = test_boilfp_efficiency(xi, inst, table)
            t2_runs += 1
            trace.append(
                _event(
                    node.id,
                    node.parent,
                    "t2",
                    point=t2.witness if t2.witness is not None else x,
                    value=t2.objective_value,
                )
            )
            if t2.efficient:
                if xi not in found:
                    found.append(xi)
                trace.append(_event(node.id, node.parent, "recorded", point=x, value=outcome.value))

        report = build_cut_report(inst, outcome.tableau, outcome.gamma)
        if not report.H or not report.H_prime:
            node.status = "fathomed_explored"
            trace.append(
                _event(
                    node.id, node.parent, "fathomed",
                    point=x, value=outcome.value, H=report.H, H_prime=report.H_prime,
                )
            )
            continue
        rows = (report.cut_moiqp,)
        if report.H_prime != report.H:
            rows += (report.cut_boilfp,)
        cut_count += len(rows)
        child = Node(len(nodes), node.id, node.extra_rows + rows)
        nodes.append(child)
        node.status = "cut_applied"
        trace.append(
            _event(
                node.id, node.parent, "cuts_added",
                point=x, value=outcome.value, H=report.H, H_prime=report.H_prime,
            )
        )
        stack.append((child, outcome.tableau, rows))

    return SolveResult(
        x_eff=tuple(sorted(found)),
        node_count=node_count,
        cut_count=cut_count,
        trace=tuple(trace),
        counters={"t1_runs": t1_runs, "t2_runs": t2_runs},
        complete=complete,
        nodes=tuple(nodes),
    )
