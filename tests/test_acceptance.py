"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Every criterion prints "[PASS|FAIL] criterion N: label" (also collected
into the terminal summary) and then asserts, so a red criterion is both
visible and failing.  Reference values are exact rationals; every
comparison is equality, never a tolerance.
"""

import random
import time
from fractions import Fraction

from effcut import (
    Optimal,
    QuadraticObjective,
    Row,
    System,
    build_cut_report,
    oracle_solve,
    solve,
    solve_lfp,
)
from effcut import test_boilfp_efficiency as boilfp_efficiency
from effcut import test_moiqp_efficiency as moiqp_efficiency
from helpers import cut_safety_failures, gamma_numerators, node_system, price

F = Fraction

REFERENCE_X_EFF = {(0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1)}

# Reference efficient sets of the worked example (instances/demo.txt).
REFERENCE_X_Q = {
    (0, 0, 1),
    (0, 0, 2),
    (0, 1, 0),
    (0, 1, 1),
    (1, 0, 1),
    (1, 0, 0),
    # The documented seven-point set left (1, 0, 2) out, but it is efficient.
    # f(1, 0, 2) = (-81, 165/2, 83). Of the 17 points of D, the only other
    # one with f_1 <= -81 is (2, 0, 0), with f(2, 0, 0) = (-88, 78, 172);
    # its f_3 = 172 > 83, so no point of D dominates (1, 0, 2).
    (1, 0, 2),
    (2, 0, 0),
}
REFERENCE_X_F = {
    (1, 2, 0),
    (1, 1, 1),
    (0, 0, 1),
    (0, 0, 2),
    (0, 1, 0),
    (0, 1, 1),
    (0, 3, 0),
    (0, 2, 0),
}


def report(acceptance_report, number, label, failures):
    status = "PASS" if not failures else "FAIL"
    line = "[%s] criterion %d: %s" % (status, number, label)
    acceptance_report.append(line)
    print(line)
    assert not failures, "; ".join(failures)


def corpus_results(corpus, corpus_cache):
    """Solver + oracle outcome per corpus instance, computed once."""
    if "results" not in corpus_cache:
        corpus_cache["results"] = [
            (inst, solve(inst), oracle_solve(inst)) for inst in corpus
        ]
    return corpus_cache["results"]


def test_criterion_1_worked_example_end_to_end(demo_instance, acceptance_report):
    failures = []
    start = time.perf_counter()
    result = solve(demo_instance)
    elapsed = time.perf_counter() - start
    if set(result.x_eff) != REFERENCE_X_EFF:
        failures.append("x_eff is %r" % (result.x_eff,))
    if not result.complete:
        failures.append("search did not complete")
    if elapsed >= 1.0:
        failures.append("took %.3fs" % elapsed)
    report(
        acceptance_report,
        1,
        "worked example yields the reference efficient set in under a second",
        failures,
    )


def test_criterion_2_worked_example_oracle_sets(demo_instance, acceptance_report):
    failures = []
    sets = oracle_solve(demo_instance)
    if set(sets.X_Q) != REFERENCE_X_Q:
        failures.append(
            "X_Q has %d points, reference lists %d (missing: %r, extra: %r)"
            % (
                len(sets.X_Q),
                len(REFERENCE_X_Q),
                sorted(REFERENCE_X_Q - set(sets.X_Q)),
                sorted(set(sets.X_Q) - REFERENCE_X_Q),
            )
        )
    if set(sets.X_F) != REFERENCE_X_F:
        failures.append("X_F is %r" % (sets.X_F,))
    report(
        acceptance_report,
        2,
        "oracle reproduces the reference X_Q and X_F of the worked example",
        failures,
    )


def test_criterion_3_root_node_fidelity(demo_instance, acceptance_report):
    failures = []
    out = solve_lfp(
        System.from_polyhedron(demo_instance.polyhedron), demo_instance.fractionals[0]
    )
    if out.point != (0, 3, 0):
        failures.append("root optimum is %r" % (out.point,))
    if out.value != F(-19, 3):
        failures.append("root value is %s" % out.value)
    rep = build_cut_report(demo_instance, out.tableau)
    if rep.H != (3, 5):
        failures.append("H0 is %r" % (rep.H,))
    if rep.H_prime != (1, 3, 5):
        failures.append("H'0 is %r" % (rep.H_prime,))
    report(
        acceptance_report,
        3,
        "root relaxation optimum, value, and index sets match the reference",
        failures,
    )


def test_criterion_4_node_trajectory_spot_checks(demo_instance, acceptance_report):
    failures = []
    result = solve(demo_instance)
    psi2 = demo_instance.fractionals[1]

    by_point = {}
    for ev in result.trace:
        if ev["action"] == "integer_found":
            by_point[tuple(int(v) for v in ev["point"])] = ev
    index_sets = {
        ev["node"]: (tuple(ev["H"]), tuple(ev["H_prime"]))
        for ev in result.trace
        if ev["action"] in ("cuts_added", "fathomed")
    }

    # (0, 1, 1) is a degenerate vertex of its node: x1 and the slacks 10, 11
    # and 12 are all tight, and each of the four bases is optimal for psi_1:
    #
    #   nonbasic       gamma_1      H              H'
    #   {1, 10, 11}    (0, 0, 8)    (1, 10, 11)    (11,)
    #   {1, 10, 12}    (8, 8, 8)    (1, 10, 12)    (12,)
    #   {1, 11, 12}    (0, 8, 0)    (1, 11, 12)    (12,)
    #   {10, 11, 12}   (0, 8, 0)    (10, 11, 12)   (10, 12)
    #
    # The warm-started search keeps {1, 10, 12}, the only basis whose reduced
    # costs are all strictly positive; a cold solve of the node's system
    # lands on {10, 11, 12} (checked below). The documented pair
    # ((10, 11, 12), (10, 11)) comes from no basis: at {10, 11, 12} column 12
    # has gamma_2 = -12 < 0, so it belongs to H'.
    expectations = [
        ((0, 2, 0), F(-5), None, ((1, 3, 8), (1, 3, 8))),
        ((0, 1, 0), F(-11, 3), F(-1, 3), ((1, 9, 10), (9,))),
        ((0, 1, 1), F(-3), F(-1), ((1, 10, 12), (12,))),
    ]
    for point, value, psi2_value, (want_H, want_Hp) in expectations:
        ev = by_point.get(point)
        if ev is None:
            failures.append("no integer optimum at %r" % (point,))
            continue
        if F(ev["value"]) != value:
            failures.append("value at %r is %s" % (point, ev["value"]))
        if psi2_value is not None and psi2.value(point) != psi2_value:
            failures.append("second preference at %r is %s" % (point, psi2.value(point)))
        got = index_sets.get(ev["node"])
        if got != (want_H, want_Hp):
            failures.append("index sets at %r are %r, want %r" % (point, got, (want_H, want_Hp)))

    ev = by_point.get((0, 2, 0))
    if ev is not None and result.nodes[ev["node"]].extra_rows[-1] != Row.make(
        {2: 1}, "<=", 2
    ):
        failures.append("(0,2,0) was not found at the x2 <= 2 node")

    ev = by_point.get((0, 1, 1))
    if ev is not None:
        node = result.nodes[ev["node"]]
        out = solve_lfp(node_system(demo_instance, node), demo_instance.fractionals[0])
        if not isinstance(out, Optimal) or out.point != (0, 1, 1):
            failures.append("cold re-solve of node %d does not reach (0,1,1)" % node.id)
        else:
            rep = build_cut_report(demo_instance, out.tableau)
            cold = (rep.H, rep.H_prime)
            if cold != ((10, 11, 12), (10, 12)):
                failures.append(
                    "cold re-solve of node %d gives index sets %r" % (node.id, cold)
                )

    report(
        acceptance_report,
        4,
        "integer optima and index sets along the reference trajectory",
        failures,
    )


def test_criterion_5_oracle_equivalence_at_scale(corpus, corpus_cache, acceptance_report):
    failures = []
    start = time.perf_counter()
    results = corpus_results(corpus, corpus_cache)
    for i, (inst, result, sets) in enumerate(results):
        if not result.complete:
            failures.append("instance %d hit the node budget" % i)
        if set(result.x_eff) != set(sets.X_Eff):
            failures.append(
                "instance %d: solver %r vs oracle %r" % (i, result.x_eff, sets.X_Eff)
            )
    elapsed = time.perf_counter() - start
    if len(results) < 100:
        failures.append("corpus has only %d instances" % len(results))
    if elapsed >= 120.0:
        failures.append("took %.1fs" % elapsed)
    report(
        acceptance_report,
        5,
        "solver equals oracle on %d random instances within two minutes" % len(corpus),
        failures,
    )


def test_criterion_6_efficiency_test_agreement(demo_instance, acceptance_report):
    failures = []
    sets = oracle_solve(demo_instance)
    if len(sets.D) != 17:
        failures.append("D has %d points" % len(sets.D))
    for x in sets.D:
        t1 = moiqp_efficiency(x, demo_instance, sets.D)
        if t1.efficient != (x in sets.X_Q):
            failures.append("quadratic-side verdict disagrees at %r" % (x,))
        t2 = boilfp_efficiency(x, demo_instance, sets.D)
        if t2.efficient != (x in sets.X_F):
            failures.append("fractional-side verdict disagrees at %r" % (x,))
    report(
        acceptance_report,
        6,
        "both efficiency tests agree with oracle membership on all 17 points",
        failures,
    )


def test_criterion_7_cut_safety(corpus, corpus_cache, acceptance_report):
    failures = []
    checked = 0
    for i, (inst, result, sets) in enumerate(corpus_results(corpus, corpus_cache)):
        count, bad = cut_safety_failures(inst, result, sets.X_Eff)
        checked += count
        failures += ["instance %d %s" % (i, msg) for msg in bad]
    label = "every surviving efficient point satisfies both cuts (%d checks)" % checked
    report(acceptance_report, 7, label, failures)


def test_criterion_8_simplex_optimality_property(
    demo_instance, corpus, corpus_cache, acceptance_report
):
    failures = []
    optima = 0
    solved = {"branched", "cut_applied", "fathomed_explored"}
    cases = [(demo_instance, solve(demo_instance))] + [
        (inst, result) for inst, result, _ in corpus_results(corpus, corpus_cache)
    ]
    for i, (inst, result) in enumerate(cases):
        for node in result.nodes:
            if node.status not in solved:
                continue
            out = solve_lfp(node_system(inst, node), inst.fractionals[0])
            if not isinstance(out, Optimal):
                failures.append("case %d node %d did not re-solve" % (i, node.id))
                continue
            optima += 1
            obj = inst.fractionals[0]
            gamma = price(out.tableau, obj)[2]
            bad = {j: g for j, g in gamma.items() if g < 0}
            if bad:
                failures.append(
                    "case %d node %d: negative reduced costs %r" % (i, node.id, bad)
                )
            # The optimum certifies itself with gamma over (L d)^2.
            if out.gamma != gamma_numerators(out.tableau, obj, gamma):
                failures.append("case %d node %d: certificate is not gamma" % (i, node.id))
    label = "first-preference reduced costs nonnegative at all %d optima" % optima
    report(acceptance_report, 8, label, failures)


def test_criterion_9_gradient_exactness(acceptance_report):
    failures = []
    rng = random.Random(20240917)
    for trial in range(1000):
        n = rng.randint(1, 4)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        Q = tuple(
            tuple(sum(M[k][i] * M[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        c = tuple(rng.randint(-10, 10) for _ in range(n))
        obj = QuadraticObjective(Q, c)
        x = tuple(F(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n))
        h = F(rng.randint(1, 15), rng.randint(1, 9))
        grad = obj.gradient(x)
        for i in range(n):
            lo = tuple(v - h if j == i else v for j, v in enumerate(x))
            hi = tuple(v + h if j == i else v for j, v in enumerate(x))
            if (obj.value(hi) - obj.value(lo)) / (2 * h) != grad[i]:
                failures.append("trial %d coordinate %d" % (trial, i))
    report(
        acceptance_report,
        9,
        "central differences equal the exact gradient on 1000 random cases",
        failures,
    )
