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
      is an integer, and so is S(y) = sum_i F_i(y) = y'(sum_i Q_i)y +
      2 (sum_i c_i)'y, one quadratic form.  The maximum is
      (S(x*) - S(y)) / 2 over the y with F(y) <= F(x*); any such y
      other than x* has S(y) < S(x*) unless F(y) = F(x*).
  T2  With L_s the least common denominator of p_s, q_s, alpha_s and
      beta_s, read off FractionalObjective.integers with the cleared
      data, P_s = L_s (p_s'y + alpha_s) and Q_s = L_s (q_s'y + beta_s) are
      integers, Q_s(y) > 0 on the region, and D_s = L_s Q_s(x*) turns
      each slack into w_s = n_s / D_s with the integer
      n_s(y) = Q_s(y) P_s(x*) - P_s(y) Q_s(x*).  The maximum is
      (n_1 D_2 + n_2 D_1) / (D_1 D_2) over the y with n_1, n_2 >= 0.

Both tests read D from a PointTable, which the solver builds once per
solve.  T2's columns and T1's column of S are filled over all of D on
the first call that needs them.  Along a run y, y + e_n, ... of
consecutive points (the order of D makes them runs of the last
coordinate) the columns step by exact differences: a quadratic form
y'Qy + 2c'y grows by 2 (Q y)_n + Q_nn + 2 c_n, that step by 2 Q_nn, and
P_s and Q_s by their last coefficients; the first point of each run is
evaluated in full.  T1 scans the y with S(y) < S(x*) in order of S and
stops at the first with F(y) <= F(x*).  It evaluates the row F(y) only
for x* and the points that scan reaches, each on its first read: on the
benchmark's dense workload, a few percent of D.  Witnesses are the
first maximizer in the order of D; the maximum comes back as an exact
Fraction.
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


def _runs(points):
    """[first point, length] of each maximal run y, y + e_n, ... of
    consecutive points (same first n - 1 coordinates, last one up by 1),
    in order.  The columns step along each run by exact differences."""
    runs = []
    head = after = None
    for y in points:
        if y[-1] == after and y[:-1] == head:
            runs[-1][1] += 1
        else:
            runs.append([y, 1])
            head = y[:-1]
        after = y[-1] + 1
    return runs


class PointTable:
    """The integer points of one instance with their integer criterion columns.

    points must be exactly the integer feasible set D; positions follow
    their order.  T1 reads one summed column over all of D, filled on its
    first call, and the criterion rows of only the points its scans
    reach, each evaluated on its first read (criteria).  The T2 columns
    are filled over all of D on T2's first call.  Everything filled is
    reused by every later test.  Filling the T2 columns raises ValueError
    with denominator_violations' text when some preference denominator
    q_s'y + beta_s is not positive on the region, the rule
    validate_instance and solve apply.
    """

    def __init__(self, inst: Instance, points: Sequence[tuple[int, ...]]):
        self.inst = inst
        self.points = tuple(points)
        self.index = {y: k for k, y in enumerate(self.points)}
        # 2 f_i(y) = y'g with the integer vector g = Q_i y + 2 c_i.
        self._forms = [(obj.Q, [2 * ci for ci in obj.c]) for obj in inst.quadratics]
        self._rows = [None] * len(self.points)
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

    def criteria(self, k: int) -> tuple[int, ...]:
        """The integer row (2 f_1, ..., 2 f_r)(y_k), evaluated on its first read."""
        row = self._rows[k]
        if row is None:
            y = self.points[k]
            row = self._rows[k] = tuple(
                sum(map(mul, _linear_forms(Q, c2, y), y)) for Q, c2 in self._forms
            )
        return row

    def t1_columns(self):
        """(sums, order) with sums[k] = sum_i 2 f_i(y_k), one quadratic form
        in y_k, and order the positions sorted by sum, ties by position."""
        if self._t1 is None:
            # S(y) = sum_i 2 f_i(y) = y'g with g = (sum_i Q_i) y + 2 sum_i c_i,
            # and S(y + e_n) - S(y) = 2 g_n + Q_nn - 2 c_n, which grows by 2 Q_nn.
            forms = self._forms
            Q = [list(map(sum, zip(*rows))) for rows in zip(*(Q for Q, _ in forms))]
            c2 = list(map(sum, zip(*(c2 for _, c2 in forms))))
            k, second = Q[-1][-1] - c2[-1], 2 * Q[-1][-1]
            sums = []
            for y, length in _runs(self.points):
                g = _linear_forms(Q, c2, y)
                s, step = sum(map(mul, g, y)), 2 * g[-1] + k
                for _ in range(length):
                    sums.append(s)
                    s += step
                    step += second
            order = sorted(range(len(sums)), key=sums.__getitem__)
            self._t1 = (sums, order)
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
            rows = []
            for y, length in _runs(self.points):
                vals = _linear_forms(forms, consts, y)
                rows.append(vals)
                for _ in range(length - 1):
                    vals = tuple(map(add, vals, last))
                    rows.append(vals)
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
    sums, order = table.t1_columns()
    criteria = table.criteria
    ref, total = criteria(k), sums[k]
    for j in order:
        if sums[j] >= total:
            break
        if all(map(le, criteria(j), ref)):
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
