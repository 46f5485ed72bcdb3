"""Shared test utilities: seeded instance generation, tiny exact oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from effcut import FractionalObjective, Instance, Polyhedron, QuadraticObjective

F = Fraction


def _quadratics(rng: random.Random, n: int) -> tuple[QuadraticObjective, ...]:
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
    quads = _quadratics(rng, n)
    fracs = _fractionals(rng, n)
    rows = [[1 if j == k else 0 for j in range(n)] for k in range(n)]
    rhs = [rng.randint(0, 5) for _ in range(n)]
    for _ in range(rng.randint(0, 2)):
        rows.append([rng.randint(-3, 3) for _ in range(n)])
        rhs.append(rng.randint(0, 10))
    return _instance(n, quads, fracs, rows, rhs)


def binary_instance(rng: random.Random) -> Instance:
    """A valid 0/1 instance with deep cut paths.

    n = 5 in the box [0, 1]^5 plus three random rows a'x <= b, each with b
    drawn from [M/2, M] where M is the row's maximum over the box, so the
    origin stays feasible and D keeps about 27 points.
    """
    n = 5
    quads = _quadratics(rng, n)
    rows = [[1 if j == k else 0 for j in range(n)] for k in range(n)]
    rhs = [1] * n
    for _ in range(3):
        a = [rng.randint(-3, 3) for _ in range(n)]
        top = sum(max(v, 0) for v in a)
        rows.append(a)
        rhs.append(rng.randint((top + 1) // 2, top))
    return _instance(n, quads, _fractionals(rng, n), rows, rhs)


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
