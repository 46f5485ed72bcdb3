"""Command-line front end.

Modes: validate (report invariant violations), solve (branch-and-cut),
oracle (brute-force Pareto sets), check (solve + oracle + compare).
Result documents share the instance format family: keyword-led lines,
'#' comments, points in lexicographic order.  Exit codes: 0 success,
1 invalid or unreadable instance, 2 budget exhausted, 3 check mismatch.
"""

from __future__ import annotations

import argparse
import sys

from . import oracle, search
from .instance import InstanceFormatError, load_instance, validate_instance

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2
EXIT_MISMATCH = 3


def _point_lines(points) -> list[str]:
    return ["point " + " ".join(str(v) for v in p) for p in sorted(points)]


def render_solve_result(result: search.SolveResult) -> str:
    lines = [
        "result solve",
        "complete %s" % ("true" if result.complete else "false"),
        "nodes %d" % result.node_count,
        "cuts %d" % result.cut_count,
        "t1_runs %d" % result.counters["t1_runs"],
        "t2_runs %d" % result.counters["t2_runs"],
        "set x_eff",
    ]
    lines += _point_lines(result.x_eff)
    return "\n".join(lines) + "\n"


def render_oracle_result(sets: oracle.ParetoSets) -> str:
    lines = ["result oracle", "d_count %d" % len(sets.D)]
    for name, pts in (("x_q", sets.X_Q), ("x_f", sets.X_F), ("x_eff", sets.X_Eff)):
        lines.append("set %s" % name)
        lines += _point_lines(pts)
    return "\n".join(lines) + "\n"


def render_check_result(solver_pts, oracle_pts, agree: bool) -> str:
    lines = ["result check", "agree %s" % ("true" if agree else "false")]
    lines.append("set solver")
    lines += _point_lines(solver_pts)
    lines.append("set oracle")
    lines += _point_lines(oracle_pts)
    return "\n".join(lines) + "\n"


def render_validate_result(violations) -> str:
    lines = ["result validate", "valid %s" % ("true" if not violations else "false")]
    lines += ["violation %s" % v for v in violations]
    return "\n".join(lines) + "\n"


def parse_result_document(text: str) -> dict:
    """Inverse of the render_* functions; sets come back as point lists."""
    doc: dict = {"sets": {}}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "result":
            doc["mode"] = rest.strip()
        elif key == "set":
            current = rest.strip()
            doc["sets"][current] = []
        elif key == "point":
            if current is None:
                raise ValueError("point line before any set line")
            doc["sets"][current].append(tuple(int(v) for v in rest.split()))
        elif key == "violation":
            doc.setdefault("violations", []).append(rest.strip())
        elif key in ("complete", "valid", "agree"):
            doc[key] = rest.strip() == "true"
        else:
            doc[key] = int(rest)
    return doc


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run(args: argparse.Namespace) -> int:
    """Run one parsed command line; returns its exit code."""
    try:
        inst = load_instance(args.instance)
    except (OSError, InstanceFormatError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    violations = validate_instance(inst)
    if args.mode == "validate":
        _emit(render_validate_result(violations), args.output)
        return EXIT_OK if not violations else EXIT_INVALID
    if violations:
        for v in violations:
            print("error: %s" % v, file=sys.stderr)
        return EXIT_INVALID

    try:
        return _run_mode(inst, args)
    except oracle.EnumerationCapError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET


def _run_mode(inst, args: argparse.Namespace) -> int:
    """Run a valid instance in the solve, oracle or check mode."""
    if args.mode == "oracle":
        sets = oracle.oracle_solve(inst, args.enum_cap)
        _emit(render_oracle_result(sets), args.output)
        return EXIT_OK

    result = search.solve(inst, node_budget=args.node_budget, enum_cap=args.enum_cap)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(search.render_trace(result.trace))

    if args.mode == "solve":
        _emit(render_solve_result(result), args.output)
        return EXIT_OK if result.complete else EXIT_BUDGET

    # check: compare the two independently computed efficient sets
    sets = oracle.oracle_solve(inst, args.enum_cap)
    agree = set(result.x_eff) == set(sets.X_Eff)
    _emit(render_check_result(result.x_eff, sets.X_Eff, agree), args.output)
    if not result.complete:
        return EXIT_BUDGET
    return EXIT_OK if agree else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effcut",
        description="Optimize two fractional preferences over the efficient "
        "set of an integer quadratic multi-objective program.",
    )
    parser.add_argument("--instance", required=True, help="instance file path")
    parser.add_argument(
        "--mode",
        choices=("validate", "solve", "oracle", "check"),
        default="solve",
    )
    parser.add_argument("--node-budget", type=int, default=search.DEFAULT_NODE_BUDGET)
    parser.add_argument("--enum-cap", type=int, default=oracle.DEFAULT_ENUM_CAP)
    parser.add_argument("--trace", help="write the node-event trace here")
    parser.add_argument("--output", help="write the result document here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for value, name in (
        (args.node_budget, "node budget"),
        (args.enum_cap, "enumeration cap"),
    ):
        if value < 1:
            print("error: %s must be at least 1" % name, file=sys.stderr)
            return EXIT_INVALID
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
