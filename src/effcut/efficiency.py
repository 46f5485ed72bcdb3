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
      n_s(y) = Q_s(y) P_s(x*) - P_s(y) Q_s(x*), affine in y.  The maximum
      is (n_1 D_2 + n_2 D_1) / (D_1 D_2) over the y with n_1, n_2 >= 0,
      an affine objective over the points where two affine forms are
      nonnegative.

Both tests read D from a PointTable, which the solver builds once per
solve and which splits its points once into runs (h, v), (h, v + 1),
... of consecutive points, h the first n - 1 coordinates (the order of
D makes them runs of the last coordinate).  T1 reads one column of S
over all of D, filled on its first call, each run in closed form in v:
S(h, v) = S(h, 0) + v (2 Q_n,h'h + 2 c_n) + v^2 Q_nn, with S(h, 0) and
its slope in closed form in the last coordinate of h too, over values
evaluated once per stretch of runs that share the rest of h.  T1 scans
the y with S(y) < S(x*) in order of S and stops at the first with
F(y) <= F(x*).  It evaluates the row F(y) only for x* and the points
that scan reaches, each on its first read: on the benchmark's dense
workload, a few percent of D.  T2 keeps nothing in the table: each call
makes one pass over the runs, evaluates n_1 and n_2 at (h, 0), cuts the
run to the v where both stay nonnegative, and takes the objective, affine
in v, at the end of that interval it favours.
Witnesses are the first maximizer in the order of D; the maximum comes
back as an exact Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import le, mul
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


class PointTable:
    """The integer points of one instance with T1's integer criterion column.

    points must be exactly the integer feasible set D; positions follow
    their order.  T1 reads one summed column over all of D, filled on its
    first call, and the criterion rows of only the points its scans
    reach, each evaluated on its first read (criteria).  The points are
    split once into runs of consecutive points (runs), which T1's fill
    writes in closed form in their last coordinate and every T2 call
    walks.  Everything filled is reused by every later test.
    """

    def __init__(self, inst: Instance, points: Sequence[tuple[int, ...]]):
        self.inst = inst
        self.points = tuple(points)
        self.index = {y: k for k, y in enumerate(self.points)}
        # 2 f_i(y) = y'g with the integer vector g = Q_i y + 2 c_i.
        self._forms = [(obj.Q, [2 * ci for ci in obj.c]) for obj in inst.quadratics]
        self._rows = [None] * len(self.points)
        self._t1 = None

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
                sum(yi * (sum(map(mul, a, y)) + a0) for yi, a, a0 in zip(y, Q, c2))
                for Q, c2 in self._forms
            )
        return row

    @cached_property
    def runs(self):
        """[head, first, length] of each maximal run (head, first),
        (head, first + 1), ... of consecutive points, in order: head holds
        the first n - 1 coordinates and the last one climbs by 1."""
        runs = []
        head = after = None
        for y in self.points:
            if y[-1] == after and y[:-1] == head:
                runs[-1][2] += 1
            else:
                head = y[:-1]
                runs.append([head, y[-1], 1])
            after = y[-1] + 1
        return runs

    def t1_columns(self):
        """(sums, order) with sums[k] = sum_i 2 f_i(y_k), one quadratic form
        in y_k, and order the positions sorted by sum, ties by position."""
        if self._t1 is None:
            # S(y) = y'Qy + c2'y over the summed Q and c2.  At the point
            # (h, v) of a run, S(h, v) = S(h, 0) + v s(h) + v^2 Q_nn with the
            # slope s(h) = 2 Q_n,h'h + c2_n.  Consecutive runs mostly share
            # the first n - 2 coordinates g of their head h = (g, w), and
            # both values are closed forms in w as well: S(h, 0) =
            # A + w (B + w Q_mm) and s(h) = C + 2 w Q_nm (m = n - 1), with
            # A = S(g, 0, 0), B = 2 Q_m,g'g + c2_m and C = 2 Q_n,g'g + c2_n
            # evaluated when g changes.
            forms = self._forms
            Q = [list(map(sum, zip(*rows))) for rows in zip(*(Q for Q, _ in forms))]
            c2 = list(map(sum, zip(*(c2 for _, c2 in forms))))
            Qnn = Q[-1][-1]
            if len(Q) == 1:
                sums = [v * (c2[0] + v * Qnn) for (v,) in self.points]
            else:
                Qg = [row[:-2] for row in Q]
                Qmm, Qnm2 = Q[-2][-2], 2 * Q[-1][-2]
                sums = []
                last_g = None
                for h, first, length in self.runs:
                    g, w = h[:-1], h[-1]
                    if g != last_g:
                        last_g = g
                        *Qgg, Qmg, Qng = [sum(map(mul, row, g)) for row in Qg]
                        A = sum(map(mul, Qgg, g)) + sum(map(mul, c2, g))
                        B, C = 2 * Qmg + c2[-2], 2 * Qng + c2[-1]
                    s0, slope = A + w * (B + w * Qmm), C + w * Qnm2
                    sums += [s0 + v * (slope + v * Qnn) for v in range(first, first + length)]
            order = sorted(range(len(sums)), key=sums.__getitem__)
            self._t1 = (sums, order)
        return self._t1


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
    a PointTable of the instance.

    Each slack n_s(y) = Q_s(y) P_s(x*) - P_s(y) Q_s(x*) is one integer
    affine form in y, and so is the objective n_1 D_2 + n_2 D_1.  Along a
    run (h, v) each form is n_s(h, 0) + v d_s, so the v where both are
    nonnegative make one integer interval, and the objective moves along
    it with the one slope d_1 D_2 + d_2 D_1: its first maximizer is the
    interval's upper end when that slope is positive and its lower end
    otherwise.  A strict comparison across runs keeps the first maximizer
    in the order of the table.  ValueError with denominator_violations'
    text when some preference denominator is not positive on the region,
    the rule validate_instance and solve apply.
    """
    table = _table(inst, points)
    x = table.points[table.position(x_star)]
    bad = denominator_violations(inst)
    if bad:
        raise ValueError("; ".join(bad))
    forms = []
    for fr in inst.fractionals:
        p, alpha, q, beta, L = fr.integers
        Px, Qx = sum(map(mul, p, x)) + alpha, sum(map(mul, q, x)) + beta
        a = [Px * qi - Qx * pi for pi, qi in zip(p, q)]
        forms.append((a[:-1], Px * beta - Qx * alpha, a[-1], L * Qx))
    (a1, c1, d1, D1), (a2, c2, d2, D2) = forms
    slope = d1 * D2 + d2 * D1
    best = 0
    witness = None
    for h, first, length in table.runs:
        A1, A2 = sum(map(mul, a1, h)) + c1, sum(map(mul, a2, h)) + c2
        # Cut the run to the v with A_s + v d_s >= 0 for both s.
        lo, hi = first, first + length - 1
        for A, d in ((A1, d1), (A2, d2)):
            if d > 0:
                lo = max(lo, -(A // d))
            elif d < 0:
                hi = min(hi, A // -d)
            elif A < 0:
                hi = lo - 1
        if lo <= hi:
            v = hi if slope > 0 else lo
            total = (A1 + v * d1) * D2 + (A2 + v * d2) * D1
            if total > best:
                best = total
                witness = (*h, v)
    return EfficiencyVerdict(best == 0, Fraction(best, D1 * D2), witness)
