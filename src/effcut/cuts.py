"""Efficient cuts at an integer optimum.

At an integer vertex x* the reduced criterion rows f_bar linearize each
quadratic criterion along the nonbasic columns.  H collects the columns
that can decrease some criterion (or move all of them nowhere); H' does
the same for the second preference function using the fractional reduced
gradients.  Convexity makes "at least one unit of mass on H" (and on H')
safe: any efficient point other than x* must obey both rows, and when
either set is empty no efficient point beyond x* remains in the node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .instance import Instance
from .simplex import Row, Tableau

FBar = tuple[dict[int, int], ...]


@dataclass(frozen=True)
class CutReport:
    """Index sets and the data behind one pair of efficiency cuts.

    cut_moiqp covers H (the quadratic criteria side), cut_boilfp covers
    H_prime (the fractional preference side); each is absent exactly when
    its set is empty, which is the fathoming signal.  f_bar holds the
    reduced entries as integer numerators over d^2, d the tableau's
    denominator.
    """

    H: tuple[int, ...]
    H_prime: tuple[int, ...]
    f_bar: FBar
    cut_moiqp: Row | None
    cut_boilfp: Row | None


def build_H(f_bar: FBar) -> tuple[int, ...]:
    """Columns decreasing some criterion, plus columns flat in all of them.

    Only signs and zeros count, so the rows may carry any positive scale."""
    out = []
    for j in sorted(f_bar[0]):
        column = [row[j] for row in f_bar]
        if any(v < 0 for v in column) or all(v == 0 for v in column):
            out.append(j)
    return tuple(out)


def build_H_prime(
    gamma1: Mapping[int, int], gamma2: Mapping[int, int]
) -> tuple[int, ...]:
    """Columns improving the second preference, plus columns flat in both.

    Only signs and zeros count, so either row may be the reduced costs
    times any positive scale, such as the integer numerators G."""
    out = []
    for j in sorted(gamma1):
        if gamma2[j] < 0 or (gamma1[j] == 0 and gamma2[j] == 0):
            out.append(j)
    return tuple(out)


def make_cut(indices: Sequence[int]) -> Row:
    """The row sum_{j in indices} x_j >= 1."""
    if not indices:
        raise ValueError("cannot cut on an empty index set")
    return Row.make({j: 1 for j in indices}, ">=", 1)


def build_cut_report(
    inst: Instance, tableau: Tableau, gamma1: Mapping[int, int] | None = None
) -> CutReport:
    """Assemble H, H' and both cut rows at the tableau's current vertex.

    The vertex is x* = X/d with X the tableau's integer numerators, so
    each criterion gradient Qx* + c is (QX + cd)/d: one integer
    matrix-vector product, reduced on the tableau to f_bar numerators over
    d^2.  gamma1, when given, must be the first preference's gamma at that
    vertex (an Optimal carries it); it is priced here otherwise, like
    gamma2, as the integer numerators G of Tableau._priced, which is all
    H' needs.
    """
    d, X = tableau.d, tableau.original_numerators()
    cols = tableau.nonbasis()
    grads = (
        [sum(q * v for q, v in zip(Qi, X)) + c * d for Qi, c in zip(obj.Q, obj.c)]
        for obj in inst.quadratics
    )
    rows = (tableau._reduced(enumerate(grad, 1), 0)[1] for grad in grads)
    f_bar = tuple({j: row.get(j, 0) for j in cols} for row in rows)
    if gamma1 is None:
        gamma1 = tableau._priced(inst.fractionals[0], cols)[2]
    gamma2 = tableau._priced(inst.fractionals[1], cols)[2]
    H = build_H(f_bar)
    H_prime = build_H_prime(gamma1, gamma2)
    return CutReport(
        H=H,
        H_prime=H_prime,
        f_bar=f_bar,
        cut_moiqp=make_cut(H) if H else None,
        cut_boilfp=make_cut(H_prime) if H_prime else None,
    )
