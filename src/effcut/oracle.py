"""Brute-force ground truth: enumerate D and filter both Pareto sets.

Each Pareto set comes from a sort-then-scan over integer criteria.  The
quadratics are doubled to ints, each one dot product with a point's
monomials.  Each preference P_s / Q_s is keyed over one common
denominator of its values on D, its key P_s * (M_s // Q_s) for M_s the
lcm of the Q_s on D.  No Fraction is built.  The oracle shares no code
with the solver's own tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from math import lcm
from operator import le, mul
from typing import Callable, Sequence

from .instance import Instance, _integral, denominator_violations

DEFAULT_ENUM_CAP = 10**7

IntPoint = tuple[int, ...]


class EnumerationCapError(RuntimeError):
    """The bounding box holds more points than the configured cap."""


def coordinate_bounds(inst: Instance) -> tuple[int, ...]:
    """Per-coordinate integer upper bounds, the floors of the coordinate
    maxima in inst.lp_minima; all -1 when the region is empty,
    UnboundedError when some coordinate has no maximum."""
    from . import simplex

    minima = inst.lp_minima
    if isinstance(minima, simplex.Infeasible):
        return tuple(-1 for _ in range(inst.n))
    if None in minima[: inst.n]:
        raise simplex.UnboundedError("some coordinate has no finite maximum")
    return tuple(int(-v) for v in minima[: inst.n])  # floors: each maximum is exact, >= 0


def enumerate_feasible(inst: Instance, enum_cap: int = DEFAULT_ENUM_CAP) -> list[IntPoint]:
    """All integer points of {x >= 0 : Ax <= b}, in lexicographic order.

    The box of coordinate_bounds holds them all, and enum_cap caps its
    volume.  For each prefix of the first n - 1 coordinates in the box,
    row i leaves a_in v <= s_i = b_i - a_i'prefix on the last coordinate
    v; together with 0 <= v <= u_n the rows cut v to one integer interval
    [lo, hi], floors and ceilings taken in ints, and each v in it closes
    a point of D.
    """
    bounds = coordinate_bounds(inst)
    if any(u < 0 for u in bounds):
        return []
    volume = 1
    for u in bounds:
        volume *= u + 1
        if volume > enum_cap:
            raise EnumerationCapError(
                "bounding box holds more than %d points" % enum_cap
            )
    poly = inst.polyhedron
    rows = [
        ([_integral(v) for v in a[:-1]], _integral(a[-1]), _integral(b))
        for a, b in zip(poly.A, poly.b)
    ]
    points = []
    for prefix in product(*(range(u + 1) for u in bounds[:-1])):
        lo, hi = 0, bounds[-1]
        for head, a, b in rows:
            s = b - sum(map(mul, head, prefix))
            if a > 0:
                hi = min(hi, s // a)
            elif a < 0:
                lo = max(lo, -(s // -a))
            elif s < 0:
                hi = -1
                break
        points.extend(prefix + (v,) for v in range(lo, hi + 1))
    return points


def pareto_filter(
    points: Sequence[IntPoint], criteria: Callable[[IntPoint], tuple]
) -> list[IntPoint]:
    """Non-dominated points under componentwise <=, preserving input order.

    A point falls only to a strictly better vector; equal vectors coexist.
    Sort-then-scan (Kung, Luccio & Preparata 1975): a vector's dominators
    are lexicographically smaller, and by transitivity some undominated
    point dominates it too, so a scan in sorted order tests each point
    only against the distinct vectors kept before it.  Equal vectors sort
    next to each other, so a point whose vector is the last one kept
    stays.  The work is about |points| times the size of the front.
    """
    vals = [tuple(criteria(p)) for p in points]
    front: list[tuple] = []
    keep = [False] * len(points)
    for i in sorted(range(len(points)), key=vals.__getitem__):
        v = vals[i]
        if front and front[-1] == v:
            keep[i] = True
        elif not any(all(map(le, w, v)) for w in front):
            front.append(v)
            keep[i] = True
    return list(compress(points, keep))


def _monomials(y: IntPoint) -> list[int]:
    """y_i y_j for i <= j, row by row, then y_1, ..., y_n."""
    m = [a * b for i, a in enumerate(y) for b in y[i:]]
    m += y
    return m


def _quadratic_criteria(inst: Instance) -> Callable[[IntPoint], tuple[int, ...]]:
    """y -> (F_1(y), ..., F_r(y)) in ints, F_i(y) = y'Q_i y + 2c_i'y = 2 f_i(y):
    the criteria doubled, so the same dominance order.  Each F_i is one dot
    product of its weights with the point's _monomials: Q_i's diagonal
    entry on y_i^2, twice its off-diagonal entry on y_i y_j, 2c_i on y_i."""
    n = inst.n
    weights = [
        [obj.Q[i][j] * (1 if i == j else 2) for i in range(n) for j in range(i, n)]
        + [2 * ci for ci in obj.c]
        for obj in inst.quadratics
    ]

    def criteria(y: IntPoint) -> tuple[int, ...]:
        m = _monomials(y)
        return tuple([sum(map(mul, w, m)) for w in weights])

    return criteria


def _preference_criteria(
    inst: Instance, D: Sequence[IntPoint]
) -> Callable[[IntPoint], tuple[int, ...]]:
    """y -> (K_1(y), K_2(y)) for the points y of D, integer keys in the
    order of psi_1 and psi_2 on D.

    With P_s(y) and Q_s(y) the integer numerator and denominator of
    FractionalObjective.integers, every Q_s(y) is positive: oracle_solve
    checks denominator_violations first.  Over M_s, the lcm of the Q_s on
    D, psi_s(y) = K_s(y) / M_s with K_s(y) = P_s(y) * (M_s // Q_s(y)), so
    the keys order D as the values do, and equal values get equal keys.
    """
    keys = []
    for p, alpha, q, beta, _ in (fr.integers for fr in inst.fractionals):
        nums = [sum(map(mul, p, y)) + alpha for y in D]
        dens = [sum(map(mul, q, y)) + beta for y in D]
        M = lcm(*set(dens))
        keys.append([a * (M // b) for a, b in zip(nums, dens)])
    return dict(zip(D, zip(*keys))).__getitem__


@dataclass(frozen=True)
class ParetoSets:
    """The enumerated feasible set and its three efficiency subsets."""

    D: tuple[IntPoint, ...]
    X_Q: tuple[IntPoint, ...]
    X_F: tuple[IntPoint, ...]
    X_Eff: tuple[IntPoint, ...]


def oracle_solve(inst: Instance, enum_cap: int = DEFAULT_ENUM_CAP) -> ParetoSets:
    """Reference efficiency sets over all of D: a sort-then-scan maxima
    filter over integer criteria, the doubled quadratics and each
    preference's key over its common denominator on D.  As in solve, D
    comes first, so an unbounded region raises UnboundedError; then a
    nonpositive preference denominator raises ValueError."""
    D = enumerate_feasible(inst, enum_cap)
    bad = denominator_violations(inst)
    if bad:
        raise ValueError("; ".join(bad))
    X_Q = pareto_filter(D, _quadratic_criteria(inst))
    X_F = pareto_filter(D, _preference_criteria(inst, D))
    in_f = set(X_F)
    X_Eff = [x for x in X_Q if x in in_f]
    return ParetoSets(tuple(D), tuple(X_Q), tuple(X_F), tuple(X_Eff))
