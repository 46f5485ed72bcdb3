"""Exact simplex engine for linear fractional objectives.

Minimizes (p'x + alpha)/(q'x + beta) over {x >= 0 : rows} with the
denominator positive on the feasible region.  The tableau prices nonbasic
columns with the fractional reduced cost

    gamma_j = Q(x*) * eta_j - P(x*) * theta_j,

where eta/theta are the classic reduced costs of numerator and denominator;
gamma >= 0 over all nonbasic columns certifies a minimum.  Variables live
in a registry: original variables get ids 1..n and each row's slack takes
the next free id.  A row given over the registry, such as a cut naming
earlier slacks, is stored over x_1..x_n alone, each slack replaced by its
own row.  Rows are integer, so every registry variable, each slack
included, is an integer at every integer point: the efficiency cuts rest
on it.  The tableau holds Python ints over one positive common
denominator, each row only its nonzeros, and pivots fraction-free
(Bareiss) over those nonzeros; its optimality certificates leave it as
integer numerators, and only the vertex and its value are
fractions.Fraction.  No floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .instance import FractionalObjective, Polyhedron, _integral

# Pivot-count guards. The stall limit flips tie-breaking to Bland's rule
# inside a run of degenerate pivots; the hard cap aborts the loop outright.
STALL_FACTOR = 3
HARD_CAP_FACTOR = 10

Observer = Callable[[str, "Tableau"], None]


class UnboundedError(Exception):
    """The objective has no finite vertex minimum."""


class SimplexCycleError(Exception):
    """A pivot loop exceeded its hard cap."""


def linear_objective(p: Sequence, alpha=0) -> FractionalObjective:
    """Wrap the linear function p'x + alpha as a fractional objective."""
    pt = tuple(Fraction(v) for v in p)
    return FractionalObjective(pt, (Fraction(0),) * len(pt), Fraction(alpha), Fraction(1))


# The objective of the feasibility pass: every basis is dual feasible under it.
ZERO_OBJECTIVE = linear_objective(())


@dataclass(frozen=True)
class Row:
    """One inequality sum_j coeff_j * x_j  <sense>  rhs over registry ids,
    with integer coefficients and rhs."""

    coeffs: tuple[tuple[int, int], ...]
    sense: str
    rhs: int

    @staticmethod
    def make(coeffs: Mapping[int, object], sense: str, rhs) -> "Row":
        """The row with its data as ints; ValueError on a non-integral value."""
        if sense not in ("<=", ">="):
            raise ValueError("sense must be '<=' or '>='")
        items = []
        for j, v in coeffs.items():
            if j < 1:
                raise ValueError("variable ids are 1-based")
            v = _integral(v)
            if v:
                items.append((int(j), v))
        return Row(tuple(sorted(items)), sense, _integral(rhs))

    def normalized(self) -> "Row":
        """The same inequality in '<=' form."""
        if self.sense == "<=":
            return self
        return Row(tuple((j, -v) for j, v in self.coeffs), "<=", -self.rhs)


@dataclass
class System:
    """A growing stack of '<=' rows, each stored over x_1..x_n alone; row k
    (0-based) owns slack id n + k + 1, which later rows may name."""

    n: int
    rows: list[Row] = field(default_factory=list)

    @staticmethod
    def from_polyhedron(poly: Polyhedron) -> "System":
        system = System(poly.n)
        for arow, rhs in zip(poly.A, poly.b):
            system.add_row(Row.make({j + 1: arow[j] for j in range(poly.n)}, "<=", rhs))
        return system

    @property
    def registry_size(self) -> int:
        return self.n + len(self.rows)

    def add_row(self, row: Row) -> int:
        """Append a row, normalized to '<=', and return its slack id.  Each
        slack s_k it names is replaced by b_k - a_k'x, stored row k: the
        stored row is integer and cuts out the same half-space."""
        row = row.normalized()
        n, top = self.n, max(row.coeffs, default=(0, 0))[0]
        if top > self.registry_size:
            raise ValueError("row references unknown variable x%d" % top)
        if top > n:
            acc, rhs = [0] * (n + 1), row.rhs
            for j, a in row.coeffs:
                if j > n:
                    slack_row = self.rows[j - n - 1]
                    rhs -= a * slack_row.rhs
                    for i, c in slack_row.coeffs:
                        acc[i] -= a * c
                else:
                    acc[j] += a
            row = Row(tuple((j, v) for j, v in enumerate(acc) if v), "<=", rhs)
        self.rows.append(row)
        return self.registry_size

    def copy(self) -> "System":
        return System(self.n, list(self.rows))

    def satisfied_by(self, x: Sequence[int], den: int = 1) -> bool:
        """Whether the point with integer numerators x over the positive den
        is nonnegative and meets every row, in one pass of a'x <= b den."""
        if len(x) != self.n:
            raise ValueError("point has wrong dimension")
        if any(v < 0 for v in x):
            return False
        for row in self.rows:
            slack = row.rhs * den
            for j, a in row.coeffs:
                slack -= a * x[j - 1]
            if slack < 0:
                return False
        return True


class Tableau:
    """Fraction-free, row-sparse simplex dictionary over the registry.

    body[i] holds the nonzero entries of row i as {id: int}, and rhs[i]
    its value, all over one positive common denominator d: entry k of
    row i is body[i].get(k, 0) / d.  d is the absolute basis determinant
    of the system's integer rows, so every entry is a minor of that
    system and the one-step update of Bareiss divides exactly.  basis[i]
    is the variable id owning row i and row_of maps it back to i; a basic
    column reads d in its own row and is absent from every other.  No
    row stores a zero.  Every row, the initial ones included, enters
    through append_row, and the tableau keeps its own copy of the system
    it was built from.
    """

    def __init__(self, system: System):
        self.system = System(system.n)
        self.basis: list[int] = []
        self.row_of: dict[int, int] = {}
        self.body: list[dict[int, int]] = []
        self.rhs: list[int] = []
        self.d = 1
        for row in system.rows:
            self.append_row(row)

    # -- bookkeeping ------------------------------------------------------

    @property
    def ncols(self) -> int:
        return self.system.registry_size

    def nonbasis(self) -> list[int]:
        row_of = self.row_of
        return [j for j in range(1, self.ncols + 1) if j not in row_of]

    def clone(self) -> "Tableau":
        twin = object.__new__(Tableau)
        twin.system = self.system.copy()
        twin.basis = list(self.basis)
        twin.row_of = dict(self.row_of)
        twin.body = [r.copy() for r in self.body]
        twin.rhs = list(self.rhs)
        twin.d = self.d
        return twin

    def original_numerators(self) -> list[int]:
        """Current vertex over the original variables, as numerators over d."""
        n = self.system.n
        X = [0] * n
        for i, j in enumerate(self.basis):
            if j <= n:
                X[j - 1] = self.rhs[i]
        return X

    def original_point(self) -> tuple[Fraction, ...]:
        """Current vertex over the original variables."""
        d = self.d
        return tuple(Fraction(v, d) for v in self.original_numerators())

    def append_row(self, row: Row) -> int:
        """Add one constraint below an existing basis; returns the slack id.

        The row sum_j a_j x_j + s = rhs, as the system stores it over
        x_1..x_n, is the reduced row of the linear form a'x - rhs with the
        slack s as its basic variable: basic columns read zero, and the new
        rhs is minus the form's vertex value, possibly negative.  No other
        row changes.
        """
        slack = self.system.add_row(row)
        stored = self.system.rows[-1]
        value, reduced = self._reduced(stored.coeffs, -stored.rhs)
        reduced[slack] = self.d
        self.row_of[slack] = len(self.basis)
        self.body.append(reduced)
        self.rhs.append(-value)
        self.basis.append(slack)
        return slack

    # -- pricing ----------------------------------------------------------

    def _reduced(self, form: Iterable[tuple[int, int]], const: int):
        """Value at the vertex and reduced row of the integer function
        sum_j c_j x_j + const, both over d.

        form lists the (id, c_j) pairs; unlisted ids cost nothing.  The
        value is (d * const + sum_b c_b * rhs_b) / d and the reduced row is
        (d * c - sum_b c_b * body_b) / d, both sums over the basic ids b of
        the form, each row read over its own nonzeros only.  The row comes
        back as its nonzero entries; basic ids read zero.
        """
        d, body, rhs, row_of = self.d, self.body, self.rhs, self.row_of
        value = d * const
        acc: dict[int, int] = {}
        for j, c in form:
            if not c:
                continue
            acc[j] = acc.get(j, 0) + d * c
            i = row_of.get(j)
            if i is not None:
                value += c * rhs[i]
                for k, a in body[i].items():
                    acc[k] = acc.get(k, 0) - c * a
        return value, {k: v for k, v in acc.items() if v}

    def _priced(self, obj: FractionalObjective, cols: Sequence[int]):
        """Integer pricing (Pn, Qn, G) of an objective over cols.

        With the objective's integer form over L (obj.integers) and the
        one scale s = L d, P = Pn / s, Q = Qn / s and gamma_j = G_j / s^2,
        where G_j = Qn E_j - Pn T_j for the numerator's and denominator's
        reduced entries E_j / s and T_j / s.  s is positive, so G_j has the
        sign of gamma_j.
        """
        p, alpha, q, beta, _ = obj.integers
        Pn, eta = self._reduced(enumerate(p, 1), alpha)
        Qn, theta = self._reduced(enumerate(q, 1), beta)
        return Pn, Qn, {j: Qn * eta.get(j, 0) - Pn * theta.get(j, 0) for j in cols}

    # -- pivoting ---------------------------------------------------------

    def pivot(self, row: int, col_id: int) -> None:
        """Bareiss update in place: a'_ik = (a_ik a_rs - a_is a_rk) / d,
        exactly, over nonzeros only.

        The pivot row is negated first when a_rs < 0, so d' = |a_rs| stays
        positive.  A row with a_is != 0 takes the update on the pivot row's
        ids, where a zero result is deleted, and rescales its other
        entries by a_rs / d; a row with a_is == 0 only rescales.  When
        a_rs == d no rescale is due, and the rows with a_is == 0 stay as
        they are.  Every quotient is an entry of the new tableau, so each
        division is exact and a nonzero entry never rescales to zero.
        """
        body, rhs, d = self.body, self.rhs, self.d
        prow, prhs = body[row], rhs[row]
        p = prow.get(col_id, 0)
        if p == 0:
            raise ValueError("zero pivot element")
        if p < 0:
            p = -p
            prow = body[row] = {k: -v for k, v in prow.items()}
            prhs = rhs[row] = -prhs
        pitems = prow.items()
        for i, brow in enumerate(body):
            if i == row:
                continue
            f = brow.get(col_id)
            if f:
                if p != d:
                    for k, a in brow.items():
                        if k not in prow:
                            brow[k] = a * p // d
                for k, b in pitems:
                    v = (brow.get(k, 0) * p - f * b) // d
                    if v:
                        brow[k] = v
                    else:
                        del brow[k]
                rhs[i] = (rhs[i] * p - f * prhs) // d
            elif p != d:
                for k, a in brow.items():
                    brow[k] = a * p // d
                rhs[i] = rhs[i] * p // d
        self.d = p
        del self.row_of[self.basis[row]]
        self.row_of[col_id] = row
        self.basis[row] = col_id

    def _hard_cap(self) -> int:
        """Pivot limit of one primal or dual run at the current size."""
        return HARD_CAP_FACTOR * (len(self.basis) + self.ncols) ** 2 + 100

    def _stall_limit(self) -> int:
        """Zero-ratio pivots in a row after which a run follows Bland's rule."""
        return STALL_FACTOR * (len(self.basis) + self.ncols) + 10

    def _primal(self, obj: FractionalObjective, observer: Observer | None = None):
        """Pivot until gamma >= 0 on all nonbasic columns; returns the final
        integer pricing (Pn, Qn, G) of _priced.

        Entering is always the least improving id.  Leaving takes the
        minimum ratio, breaking ties toward the largest basic id; after a
        long degenerate stall the tie flips to the smallest id (Bland),
        which the stall-local linearity of gamma makes terminating.  Ratios
        compare by cross-multiplication.
        """
        stall_limit = self._stall_limit()
        stall = 0
        for _ in range(self._hard_cap()):
            priced = self._priced(obj, self.nonbasis())
            entering = min((j for j, g in priced[2].items() if g < 0), default=None)
            if entering is None:
                return priced
            bland = stall > stall_limit
            best = None  # (rhs, entry, key, row) of the least ratio so far
            for i, brow in enumerate(self.body):
                a = brow.get(entering, 0)
                if a <= 0:
                    continue
                r, key = self.rhs[i], (self.basis[i] if bland else -self.basis[i])
                if best is not None:
                    cross = r * best[1] - best[0] * a
                    if cross > 0 or (cross == 0 and key > best[2]):
                        continue
                best = (r, a, key, i)
            if best is None:
                raise UnboundedError("column x%d never blocks" % entering)
            stall = stall + 1 if best[0] == 0 else 0
            self.pivot(best[3], entering)
            if observer:
                observer("primal", self)
        raise SimplexCycleError("primal pivot cap exceeded")

    def _dual(
        self, obj: FractionalObjective, observer: Observer | None = None, tag="dual"
    ) -> bool:
        """Pivot infeasible rows out while keeping gamma nonnegative.

        Leaving is the most negative rhs, ties toward the largest basic id;
        entering minimizes gamma_j / -a_rj over negative row entries, ties
        toward the smallest id.  Only those columns are priced: a basic
        column reads d or zero in the leaving row, so each is nonbasic.
        After a long run of zero ratios the leaving row becomes the smallest
        infeasible basic id, the dual form of Bland's rule, which terminates
        for a linear objective.  Returns False when a row with no negative
        entry certifies emptiness, True once every rhs is nonnegative.
        Under the zero objective every basis is dual feasible, so the pass
        alone reaches feasibility from any basis.
        """
        m = len(self.basis)
        stall_limit = self._stall_limit()
        stall = 0
        for _ in range(self._hard_cap()):
            infeasible = [i for i in range(m) if self.rhs[i] < 0]
            if not infeasible:
                return True
            if stall > stall_limit:
                row = min(infeasible, key=lambda i: self.basis[i])
            else:
                row = min(infeasible, key=lambda i: (self.rhs[i], -self.basis[i]))
            prow = self.body[row]
            cols = sorted(j for j, a in prow.items() if a < 0)
            if not cols:
                return False
            gamma = self._priced(obj, cols)[2]
            entering = cols[0]
            best_g, best_a = gamma[entering], -prow[entering]
            for j in cols[1:]:
                g, a = gamma[j], -prow[j]
                if g * best_a < best_g * a:
                    entering, best_g, best_a = j, g, a
            stall = stall + 1 if best_g == 0 else 0
            self.pivot(row, entering)
            if observer:
                observer(tag, self)
        raise SimplexCycleError("dual pivot cap exceeded")


@dataclass(frozen=True)
class Optimal:
    """A certified vertex minimum of the fractional objective.

    gamma holds the integer numerators G_j of the objective's fractional
    reduced costs at the tableau's basis over (L d)^2, with L the
    objective's scale (FractionalObjective.integers) and d the tableau's:
    all nonnegative, and each with the sign of its reduced cost.
    """

    point: tuple[Fraction, ...]
    value: Fraction
    tableau: Tableau
    gamma: dict[int, int]


@dataclass(frozen=True)
class Infeasible:
    """The constraint system has no nonnegative solution."""


def _finish(tab: Tableau, priced) -> Optimal:
    """Check the final integer pricing (Pn, Qn, G) of a primal run and
    wrap it; P and Q share one positive scale, so the value is Pn / Qn.
    The vertex is checked against the system as numerators over d."""
    Pn, Qn, G = priced
    if Qn <= 0:
        raise RuntimeError("nonpositive denominator at optimum")
    if any(v < 0 for v in tab.rhs) or any(g < 0 for g in G.values()):
        raise RuntimeError("simplex stopped at a non-optimal basis")
    if not tab.system.satisfied_by(tab.original_numerators(), tab.d):
        raise RuntimeError("optimal point violates its own system")
    return Optimal(
        point=tab.original_point(), value=Fraction(Pn, Qn), tableau=tab, gamma=G
    )


def solve_lfp(
    system: System,
    objective: FractionalObjective,
    observer: Observer | None = None,
) -> Optimal | Infeasible:
    """Minimize a fractional objective over a system on a fresh tableau.

    Dual pivots under the zero objective reach a feasible basis from the
    slack basis; primal pivots then minimize.
    """
    tab = Tableau(system)
    if not tab._dual(ZERO_OBJECTIVE, observer, tag="phase1"):
        return Infeasible()
    return _finish(tab, tab._primal(objective, observer))


def minimize_each(
    system: System, objectives: Iterable[FractionalObjective]
) -> list[Fraction | None] | Infeasible:
    """Minimum values of several objectives over one system, on one tableau.

    One zero-objective dual pass makes the fresh tableau feasible; each
    primal pass starts where the last one stopped, a basis that stays
    feasible (an optimum, or where _primal found an unbounded column,
    before any pivot on it).  An objective unbounded below reads None;
    each optimum is checked as solve_lfp checks its own.
    """
    tab = Tableau(system)
    if not tab._dual(ZERO_OBJECTIVE, tag="phase1"):
        return Infeasible()
    minima: list[Fraction | None] = []
    for obj in objectives:
        try:
            minima.append(_finish(tab, tab._primal(obj)).value)
        except UnboundedError:
            minima.append(None)
    return minima


def add_rows_and_reoptimize(
    tableau: Tableau,
    rows: Iterable[Row],
    objective: FractionalObjective,
    observer: Observer | None = None,
) -> Optimal | Infeasible:
    """Append constraints to an optimal tableau and re-solve in place.

    All pending rows go in before any pivot.  Dual pivots restore
    feasibility (appending never disturbs gamma), then primal pivots clean
    up any gamma the dual pass bent negative.  A cycling warm start is
    abandoned for a fresh solve of the grown system.
    """
    for row in rows:
        tableau.append_row(row)
    try:
        if not tableau._dual(objective, observer):
            return Infeasible()
        priced = tableau._primal(objective, observer)
    except SimplexCycleError:
        return solve_lfp(tableau.system, objective, observer)
    return _finish(tableau, priced)
