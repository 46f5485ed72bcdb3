"""Shared test utilities: seeded instance generation, tiny exact oracles."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

from hypothesis import strategies as st

from effcut import (
    FractionalObjective,
    Infeasible,
    Instance,
    Polyhedron,
    QuadraticObjective,
    System,
    UnboundedError,
    coordinate_bounds,
    linear_objective,
    solve_lfp,
)
from effcut.simplex import ZERO_OBJECTIVE
from effcut.instance import _integers

F = Fraction


def quadratics(rng: random.Random, n: int) -> tuple[QuadraticObjective, ...]:
    """Two or three criteria; Q = M'M keeps every one convex."""
    quads = []
    for _ in range(rng.choice((2, 3))):
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        Q = tuple(
            tuple(sum(M[k][i] * M[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        c = tuple(rng.randint(-10, 10) for _ in range(n))
        quads.append(QuadraticObjective(Q, c))
    return tuple(quads)


def _fractionals(rng: random.Random, n: int) -> tuple[FractionalObjective, ...]:
    """An independent preference pair; q >= 0 with beta >= 1 keeps the
    denominators positive on x >= 0."""
    return tuple(
        FractionalObjective(
            p=tuple(F(rng.randint(-10, 10)) for _ in range(n)),
            q=tuple(F(rng.randint(0, 5)) for _ in range(n)),
            alpha=F(rng.randint(-10, 10)),
            beta=F(rng.randint(1, 10)),
        )
        for _ in range(2)
    )


def _instance(n, quads, fracs, rows, rhs) -> Instance:
    return Instance(
        n=n,
        r=len(quads),
        quadratics=quads,
        fractionals=fracs,
        polyhedron=Polyhedron(tuple(tuple(v) for v in rows), tuple(rhs)),
    )


def random_instance(rng: random.Random) -> Instance:
    """A valid instance by construction.

    Box rows keep every coordinate in [0, 5] (bounded, origin feasible,
    extra rows have nonnegative rhs).
    """
    n = rng.randint(1, 3)
    quads = quadratics(rng, n)
    fracs = _fractionals(rng, n)
    rows = [[1 if j == k else 0 for j in range(n)] for k in range(n)]
    rhs = [rng.randint(0, 5) for _ in range(n)]
    for _ in range(rng.randint(0, 2)):
        rows.append([rng.randint(-3, 3) for _ in range(n)])
        rhs.append(rng.randint(0, 10))
    return _instance(n, quads, fracs, rows, rhs)


def boxed_instance(rng: random.Random, n: int, upper: int, extra_rows: int) -> Instance:
    """A valid instance in the box [0, upper]^n plus random rows a'x <= b,
    each with b drawn from [M/2, M] where M is the row's maximum over the
    box, so the origin stays feasible; then an independent preference
    pair.  Draw for draw the benchmark's boxed workloads."""
    quads = quadratics(rng, n)
    rows = [[1 if j == k else 0 for j in range(n)] for k in range(n)]
    rhs = [upper] * n
    for _ in range(extra_rows):
        a = [rng.randint(-3, 3) for _ in range(n)]
        top = upper * sum(max(v, 0) for v in a)
        rows.append(a)
        rhs.append(rng.randint((top + 1) // 2, top))
    return _instance(n, quads, _fractionals(rng, n), rows, rhs)


def binary_instance(rng: random.Random) -> Instance:
    """A 0/1 instance with deep cut paths: n = 5 in [0, 1]^5 plus three
    rows, so D keeps about 27 points."""
    return boxed_instance(rng, 5, 1, 3)


def deep_instance(rng: random.Random) -> Instance:
    """n = 3 in [0, 12]^3 plus two rows: search trees of up to a few
    hundred nodes, whose tableaus grow to about 100 rows."""
    return boxed_instance(rng, 3, 12, 2)


def box_scan(inst: Instance) -> list[tuple[int, ...]]:
    """D by brute force: every point of the coordinate_bounds box that
    Polyhedron.contains, in lexicographic order."""
    poly = inst.polyhedron
    box = product(*(range(u + 1) for u in coordinate_bounds(inst)))
    return [x for x in box if poly.contains(x)]


def validate_cold(inst: Instance) -> list[str]:
    """validate_instance's violations by one fresh solve_lfp per question:
    a feasibility solve, the n coordinate maxima, then both denominator
    minima.  The reference for validate_instance's single tableau."""
    violations: list[str] = []
    base = System.from_polyhedron(inst.polyhedron)
    if isinstance(solve_lfp(base, ZERO_OBJECTIVE), Infeasible):
        violations.append("empty feasible region")
    else:
        for k in range(inst.n):
            p = tuple(F(-1) if i == k else F(0) for i in range(inst.n))
            try:
                solve_lfp(base, linear_objective(p))
            except UnboundedError:
                violations.append("unbounded region (x%d has no finite maximum)" % (k + 1))
        for s, frac in enumerate(inst.fractionals, 1):
            try:
                res = solve_lfp(base, linear_objective(frac.q, frac.beta))
            except UnboundedError:
                violations.append(
                    "denominator nonpositive (objective %d unbounded below)" % s
                )
                continue
            if res.value <= 0:
                violations.append(
                    "denominator nonpositive (objective %d, minimum %s)" % (s, res.value)
                )
    for i, obj in enumerate(inst.quadratics, 1):
        if not obj.is_psd():
            violations.append("Q%d not positive semidefinite" % i)
    return violations


def three_point_line(q, beta) -> Instance:
    """D = {0, 1, 2} on a line; every point is quadratic-efficient, psi_1 = x
    is minimized at 0, and psi_2 = 1 / (q x + beta)."""
    return Instance(
        n=1,
        r=2,
        quadratics=(
            QuadraticObjective(((0,),), (1,)),
            QuadraticObjective(((0,),), (-1,)),
        ),
        fractionals=(
            FractionalObjective((F(1),), (F(0),), F(0), F(1)),
            FractionalObjective((F(0),), (F(q),), F(1), F(beta)),
        ),
        polyhedron=Polyhedron(((1,),), (2,)),
    )


def _draw_rational(data, low: int, high: int) -> Fraction:
    """A fraction k / d in [low, high], drawn from hypothesis's st.data()
    as d in 1..12 and then k in ceil(low d)..high d.  Two integer draws
    cost far less than one st.fractions draw."""
    d = data.draw(st.integers(1, 12))
    return F(data.draw(st.integers(math.ceil(low * d), high * d)), d)


def rational_preferences(data, n: int) -> tuple[FractionalObjective, ...]:
    """A preference pair with rational data of denominators up to 12, drawn
    from hypothesis's st.data(); q >= 0 with beta > 0 keeps the
    denominators positive on x >= 0."""
    return tuple(
        FractionalObjective(
            p=tuple(_draw_rational(data, -10, 10) for _ in range(n)),
            q=tuple(_draw_rational(data, 0, 5) for _ in range(n)),
            alpha=_draw_rational(data, -10, 10),
            beta=_draw_rational(data, F(1, 12), 10),
        )
        for _ in range(2)
    )


def pareto_pairwise(points, criteria) -> list:
    """Non-dominated points by comparing every pair, preserving input
    order: a point falls only to a different vector that is <= it in
    every component.  The reference for oracle.pareto_filter."""
    vals = [tuple(criteria(p)) for p in points]
    kept = []
    for i, p in enumerate(points):
        vi = vals[i]
        dominated = any(
            vj != vi and all(a <= b for a, b in zip(vj, vi))
            for k, vj in enumerate(vals)
            if k != i
        )
        if not dominated:
            kept.append(p)
    return kept


# Seed of the rational systems that test_simplex and test_cuts share.
RATIONAL_SEED = 43


def rational(rng: random.Random, low: int, high: int) -> Fraction:
    return F(rng.randint(low, high), rng.randint(1, 6))


def integer_row(a, c) -> tuple[tuple[int, ...], int]:
    """The rational row a'x <= c times the lcm of its denominators: the
    same half-space with integer data."""
    nums, _ = _integers([F(v) for v in (*a, c)])
    return tuple(nums[:-1]), nums[-1]


def rational_case(rng: random.Random) -> tuple[Polyhedron, FractionalObjective]:
    """A box of rational sides with one to three rational rows, half of
    them a'x >= c with c > 0 (cutting off the origin), each row cleared
    to integers by its lcm, and a rational preference; the region may be
    empty."""
    n = rng.randint(1, 3)
    rows = [
        integer_row([int(j == k) for j in range(n)], rational(rng, 1, 12))
        for k in range(n)
    ]
    for _ in range(rng.randint(1, 3)):
        a = tuple(rational(rng, -6, 6) for _ in range(n))
        if rng.random() < 0.5:
            rows.append(integer_row([-v for v in a], -rational(rng, 1, 8)))
        else:
            rows.append(integer_row(a, rational(rng, 0, 10)))
    A, b = zip(*rows)
    obj = FractionalObjective(
        p=tuple(rational(rng, -10, 10) for _ in range(n)),
        q=tuple(rational(rng, 0, 5) for _ in range(n)),
        alpha=rational(rng, -10, 10),
        beta=rational(rng, 1, 10),
    )
    return Polyhedron(A, b), obj


def rational_row(rng: random.Random, n: int) -> tuple[tuple[int, ...], int]:
    """(a, c) of one more rational row a'x >= c, cleared by its lcm."""
    return integer_row(tuple(rational(rng, -6, 6) for _ in range(n)), rational(rng, 0, 8))


class PivotCounts(dict):
    """Solver observer that tallies simplex pivots by tag."""

    def __init__(self):
        super().__init__(primal=0, dual=0, phase1=0)

    def __call__(self, tag, tableau):
        self[tag] += 1


def solve_exact(M, rhs):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(rhs)
    aug = [[F(v) for v in row] + [F(rhs[i])] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        d = aug[col][col]
        aug[col] = [v / d for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def vertex_minimum(poly: Polyhedron, objective: FractionalObjective):
    """Fractional minimum by brute-force vertex enumeration.

    Valid because the denominator is positive and the region bounded, so
    some vertex attains the minimum.  Returns None on an empty region.
    """
    n = poly.n
    cands = [(tuple(row), F(b)) for row, b in zip(poly.A, poly.b)]
    cands += [
        (tuple(1 if j == k else 0 for j in range(n)), F(0)) for k in range(n)
    ]
    best = None
    for combo in combinations(range(len(cands)), n):
        x = solve_exact([cands[i][0] for i in combo], [cands[i][1] for i in combo])
        if x is None or not poly.contains(x):
            continue
        val = objective.value(x)
        if best is None or val < best:
            best = val
    return best


# -- Fraction references for the integer simplex paths ----------------------


def extend_point(system, x):
    """Registry-wide vector of a point: originals, then each slack in row
    order, in Fractions."""
    vals = [F(v) for v in x]
    if len(vals) != system.n:
        raise ValueError("point has wrong dimension")
    for row in system.rows:
        vals.append(row.rhs - sum(v * vals[j - 1] for j, v in row.coeffs))
    return tuple(vals)


def node_system(inst, node):
    """The instance's rows plus the node's branch and cut rows."""
    system = System.from_polyhedron(inst.polyhedron)
    for row in node.extra_rows:
        system.add_row(row)
    return system


def cut_safety_failures(inst, result, x_eff):
    """Criterion 7's check of a solve: at every node that added cuts, each
    point of x_eff other than the node's optimum that satisfies the node's
    system satisfies both cuts.  Returns (checks made, failure messages)."""
    cut_events = {ev["node"]: ev for ev in result.trace if ev["action"] == "cuts_added"}
    checked, failures = 0, []
    for node in result.nodes:
        ev = cut_events.get(node.id)
        if ev is None:
            continue
        system = node_system(inst, node)
        x_star = tuple(int(F(v)) for v in ev["point"])
        for y in x_eff:
            if y == x_star or not system.satisfied_by(y):
                continue
            ext = extend_point(system, y)
            checked += 1
            for name, indices in (("H", ev["H"]), ("H'", ev["H_prime"])):
                if sum(ext[j - 1] for j in indices) < 1:
                    failures.append(
                        "node %d: efficient point %r violates the %s cut" % (node.id, y, name)
                    )
    return checked, failures


def tableau_point(tab):
    """The tableau's current vertex over the whole registry."""
    vals = [F(0)] * tab.ncols
    for i, j in enumerate(tab.basis):
        vals[j - 1] = F(tab.rhs[i], tab.d)
    return tuple(vals)


def entry(tab, i, j):
    """Entry of variable id j in tableau row i, as a Fraction: the rows
    store nonzeros only, so an absent id reads zero."""
    return F(tab.body[i].get(j, 0), tab.d)


def price(tab, obj):
    """(P, Q, gamma) of a fractional objective at the tableau's vertex in
    Fractions: the integer pricing over the scale s = L d (L from
    obj.integers), with P = Pn / s, Q = Qn / s and gamma_j = G_j / s^2."""
    Pn, Qn, G = tab._priced(obj, tab.nonbasis())
    s = obj.integers[-1] * tab.d
    return F(Pn, s), F(Qn, s), {j: F(g, s * s) for j, g in G.items()}


def gamma_numerators(tab, obj, gamma):
    """gamma times the pricing scale (L d)^2: the integers Optimal.gamma
    holds."""
    s = obj.integers[-1] * tab.d
    return {j: g * s * s for j, g in gamma.items()}


def reduced_gradient(tab, grad):
    """Reduced row of a criterion gradient at the tableau's vertex: entry j
    is grad_j minus the basic-gradient combination of column j, and slack
    positions carry zero gradient."""
    cost, scale = _integers([F(v) for v in grad])
    den = scale * tab.d
    reduced = tab._reduced(enumerate(cost, 1), 0)[1]
    return {j: F(reduced.get(j, 0), den) for j in tab.nonbasis()}


def is_psd_reference(Q):
    """Positive semidefiniteness by the pivoted elimination in Fractions:
    eliminate on a positive diagonal pivot until the matrix is consumed
    (PSD) or no positive pivot remains (PSD iff the rest is all zero)."""
    m = [[F(v) for v in row] for row in Q]
    active = list(range(len(m)))
    while active:
        piv = next((i for i in active if m[i][i] > 0), None)
        if piv is None:
            return all(m[i][j] == 0 for i in active for j in active)
        d = m[piv][piv]
        rest = [i for i in active if i != piv]
        for i in rest:
            f = m[i][piv] / d
            if f:
                for j in rest:
                    m[i][j] -= f * m[piv][j]
        active = rest
    return True
