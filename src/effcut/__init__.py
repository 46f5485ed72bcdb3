"""Exact branch-and-cut for bi-fractional optimization over efficient sets.

Minimizes two linear fractional preference functions over the efficient
set of a multi-objective integer quadratic program, with every number an
exact rational.  A brute-force oracle provides independent ground truth.
"""

from .cuts import CutReport, build_cut_report, build_H, build_H_prime, make_cut
from .efficiency import (
    EfficiencyVerdict,
    PointTable,
    test_boilfp_efficiency,
    test_moiqp_efficiency,
)
from .instance import (
    FractionalObjective,
    Instance,
    InstanceFormatError,
    Polyhedron,
    QuadraticObjective,
    load_instance,
    parse_instance,
    render_instance,
    validate_instance,
)
from .oracle import (
    EnumerationCapError,
    ParetoSets,
    coordinate_bounds,
    enumerate_feasible,
    oracle_solve,
    pareto_filter,
)
from .search import Node, SolveResult, branch, select_branch_variable, solve
from .simplex import (
    Infeasible,
    Optimal,
    Row,
    SimplexCycleError,
    System,
    Tableau,
    UnboundedError,
    add_rows_and_reoptimize,
    linear_objective,
    minimize_each,
    solve_lfp,
)

__all__ = [
    "CutReport",
    "EfficiencyVerdict",
    "EnumerationCapError",
    "FractionalObjective",
    "Infeasible",
    "Instance",
    "InstanceFormatError",
    "Node",
    "Optimal",
    "ParetoSets",
    "PointTable",
    "Polyhedron",
    "QuadraticObjective",
    "Row",
    "SimplexCycleError",
    "SolveResult",
    "System",
    "Tableau",
    "UnboundedError",
    "add_rows_and_reoptimize",
    "branch",
    "build_H",
    "build_H_prime",
    "build_cut_report",
    "coordinate_bounds",
    "enumerate_feasible",
    "linear_objective",
    "load_instance",
    "make_cut",
    "minimize_each",
    "oracle_solve",
    "pareto_filter",
    "parse_instance",
    "render_instance",
    "select_branch_variable",
    "solve",
    "solve_lfp",
    "test_boilfp_efficiency",
    "test_moiqp_efficiency",
    "validate_instance",
]

__version__ = "0.1.0"
