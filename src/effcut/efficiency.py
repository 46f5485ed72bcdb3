"""Efficiency certificates for integer points, over integer criterion tables.

Two auxiliary programs decide membership in the two Pareto sets.  T1 asks
for the largest total criterion slack sum eps_i over integer y with
f_i(y) + eps_i <= f_i(x*) and eps >= 0; T2 does the same for the two
preference functions after clearing denominators:

    w_s <= Q^s(y) * (psi^s(x*) - psi^s(y)),   w_s >= 0.

Either maximum is zero exactly when x* is efficient.  Once y is fixed the
auxiliaries are tight, so both programs reduce to a scan over D with the
slacks in closed form, and the scans run on integers only:

  T1  Q_i, c_i and y are integer, so F_i(y) = 2 f_i(y) = y'Q_i y + 2 c_i'y
      is an integer.  The maximum is (sum_i F_i(x*) - sum_i F_i(y)) / 2
      over the y with F(y) <= F(x*).
  T2  With L_s the least common denominator of p_s, q_s, alpha_s and
      beta_s, read off FractionalObjective.integers with the cleared
      data, P_s = L_s (p_s'y + alpha_s) and Q_s = L_s (q_s'y + beta_s) are
      integers, Q_s(y) > 0 on the region, and D_s = L_s Q_s(x*) turns
      each slack into w_s = n_s / D_s with the integer
      n_s(y) = Q_s(y) P_s(x*) - P_s(y) Q_s(x*).  The maximum is
      (n_1 D_2 + n_2 D_1) / (D_1 D_2) over the y with n_1, n_2 >= 0.

Both tests read D from a PointTable, which the solver builds once per
solve; it fills each test's integer columns on the first call that needs
them.  Along a run y, y + e_n, ... of consecutive points (the order of D
makes them runs of the last coordinate) the columns step by exact
differences: F_i grows by 2 (Q_i y)_n + Q_i,nn + 2 c_i,n, that step by
2 Q_i,nn, and P_s and Q_s by their last coefficients.  Each other point
is evaluated in full.  Witnesses are the first maximizer in the order of
D; the maximum comes back as an exact Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, mul
from typing import Sequence

from .instance import Instance, denominator_violations

ZERO = Fraction(0)


@dataclass(frozen=True)
class EfficiencyVerdict:
    """Outcome of one test: efficient iff the program's maximum is zero."""

    efficient: bool
    objective_value: Fraction
    witness: tuple[int, ...] | None

    def __post_init__(self):
        if self.efficient != (self.objective_value == 0):
            raise ValueError("verdict disagrees with its objective value")
        if self.efficient != (self.witness is None):
            raise ValueError("witness must accompany exactly the inefficient case")


def _linear_forms(coeff_rows, consts, y):
    """The integers a'y + a0 for each integer row a and constant a0."""
    return tuple(sum(map(mul, a, y)) + a0 for a, a0 in zip(coeff_rows, consts))


def _stepped_rows(points, start, second):
    """Integer rows of columns at most quadratic in the last coordinate.

    start(y) gives the columns at y and their first differences toward
    y + e_n; second holds the constant second differences.  Along a run
    y, y + e_n, ... of consecutive points each column steps by its
    difference and each difference by its second difference, exactly;
    every other point starts a run with start.
    """
    rows = []
    prev = None
    for y in points:
        if prev is not None and y[-1] == prev[-1] + 1 and y[:-1] == prev[:-1]:
            vals = tuple(map(add, vals, diffs))
            diffs = tuple(map(add, diffs, second))
        else:
            vals, diffs = start(y)
        rows.append(vals)
        prev = y
    return rows


class PointTable:
    """The integer points of one instance with their integer criterion columns.

    points must be exactly the integer feasible set D; positions follow
    their order.  The T1 and T2 columns are filled on the first test that
    needs them and reused by every later one.  Filling the T2 columns
    raises ValueError with denominator_violations' text when some
    preference denominator q_s'y + beta_s is not positive on the region,
    the rule validate_instance and solve apply.
    """

    def __init__(self, inst: Instance, points: Sequence[tuple[int, ...]]):
        self.inst = inst
        self.points = tuple(points)
        self.index = {y: k for k, y in enumerate(self.points)}
        self._t1 = None
        self._t2 = None

    def __len__(self) -> int:
        return len(self.points)

    def position(self, x_star: Sequence) -> int:
        """Position of the candidate in D; ValueError unless it is a point of D."""
        xs = tuple(int(v) for v in x_star)
        if any(v != w for v, w in zip(x_star, xs)):
            raise ValueError("candidate point is not integer")
        k = self.index.get(xs)
        if k is None:
            raise ValueError("candidate point is infeasible")
        return k

    def t1_columns(self):
        """(rows, sums, order) with rows[k] = (2 f_1, ..., 2 f_r)(y_k), sums[k]
        its sum, and order the positions sorted by sum, ties by position."""
        if self._t1 is None:
            # F(y) = 2 f(y) = y'g with the integer vector g = Qy + 2c, and
            # F(y + e_n) - F(y) = 2 g_n + Q_nn - 2 c_n, which grows by 2 Q_nn.
            forms = [
                (obj.Q, [2 * ci for ci in obj.c], obj.Q[-1][-1] - 2 * obj.c[-1])
                for obj in self.inst.quadratics
            ]

            def start(y):
                gs = [_linear_forms(Q, c2, y) for Q, c2, _ in forms]
                return (
                    tuple(sum(map(mul, g, y)) for g in gs),
                    tuple(2 * g[-1] + k for g, (_, _, k) in zip(gs, forms)),
                )

            second = tuple(2 * Q[-1][-1] for Q, _, _ in forms)
            rows = _stepped_rows(self.points, start, second)
            sums = [sum(row) for row in rows]
            order = sorted(range(len(rows)), key=sums.__getitem__)
            self._t1 = (rows, sums, order)
        return self._t1

    def t2_columns(self):
        """(scales, rows) with scales = (L_1, L_2) and
        rows[k] = (P_1, Q_1, P_2, Q_2)(y_k) cleared by those scales."""
        if self._t2 is None:
            bad = denominator_violations(self.inst)
            if bad:
                raise ValueError("; ".join(bad))
            scales, forms, consts = [], [], []
            for fr in self.inst.fractionals:
                p, alpha, q, beta, L = fr.integers
                scales.append(L)
                forms += (p, q)
                consts += (alpha, beta)
            # Each form steps by its last coefficient along a run.
            last = tuple(a[-1] for a in forms)
            rows = _stepped_rows(
                self.points,
                lambda y: (_linear_forms(forms, consts, y), last),
                (0,) * len(last),
            )
            self._t2 = (tuple(scales), rows)
        return self._t2


def _table(inst: Instance, points: PointTable) -> PointTable:
    if points.inst is not inst and points.inst != inst:
        raise ValueError("point table belongs to another instance")
    return points


def test_moiqp_efficiency(
    x_star: Sequence, inst: Instance, points: PointTable
) -> EfficiencyVerdict:
    """Decide efficiency of x* for the quadratic criteria (program T1).

    points is a PointTable of the instance.  Scanning in order of
    sum_i 2 f_i(y), the first y with 2 f(y) <= 2 f(x*) is the maximizer.
    """
    table = _table(inst, points)
    k = table.position(x_star)
    rows, sums, order = table.t1_columns()
    ref, total = rows[k], sums[k]
    for j in order:
        if sums[j] >= total:
            break
        if all(map(le, rows[j], ref)):
            return EfficiencyVerdict(False, Fraction(total - sums[j], 2), table.points[j])
    return EfficiencyVerdict(True, ZERO, None)


def test_boilfp_efficiency(
    x_star: Sequence, inst: Instance, points: PointTable
) -> EfficiencyVerdict:
    """Decide efficiency of x* for the preference pair (program T2) over
    a PointTable of the instance."""
    table = _table(inst, points)
    k = table.position(x_star)
    (L1, L2), rows = table.t2_columns()
    P1x, Q1x, P2x, Q2x = rows[k]
    D1, D2 = L1 * Q1x, L2 * Q2x
    best = 0
    witness = None
    for y, (P1, Q1, P2, Q2) in zip(table.points, rows):
        n1 = Q1 * P1x - P1 * Q1x
        if n1 >= 0:
            n2 = Q2 * P2x - P2 * Q2x
            if n2 >= 0:
                total = n1 * D2 + n2 * D1
                if total > best:
                    best = total
                    witness = y
    return EfficiencyVerdict(best == 0, Fraction(best, D1 * D2), witness)
