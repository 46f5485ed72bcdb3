"""Exact simplex engine for linear fractional objectives.

Minimizes (p'x + alpha)/(q'x + beta) over {x >= 0 : rows} with the
denominator positive on the feasible region.  The tableau prices nonbasic
columns with the fractional reduced cost

    gamma_j = Q(x*) * eta_j - P(x*) * theta_j,

where eta/theta are the classic reduced costs of numerator and denominator;
gamma >= 0 over all nonbasic columns certifies a minimum.  Constraint rows
live in a registry: original variables get ids 1..n, each row contributes a
slack with the next free id, and rows added later may reference earlier
slacks.  Everything is fractions.Fraction; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .instance import FractionalObjective, Polyhedron

ZERO = Fraction(0)
ONE = Fraction(1)

# Pivot-count guards. The stall limit flips tie-breaking to Bland's rule
# inside a run of degenerate pivots; the hard cap aborts the loop outright.
STALL_FACTOR = 3
HARD_CAP_FACTOR = 10

Observer = Callable[[str, "Tableau"], None]


class UnboundedError(Exception):
    """The objective has no finite vertex minimum."""


class SimplexCycleError(Exception):
    """A pivot loop exceeded its hard cap."""


def linear_objective(p: Sequence, alpha=ZERO) -> FractionalObjective:
    """Wrap the linear function p'x + alpha as a fractional objective."""
    pt = tuple(Fraction(v) for v in p)
    return FractionalObjective(pt, tuple(ZERO for _ in pt), Fraction(alpha), ONE)


@dataclass(frozen=True)
class Row:
    """One inequality sum_j coeff_j * x_j  <sense>  rhs over registry ids."""

    coeffs: tuple[tuple[int, Fraction], ...]
    sense: str
    rhs: Fraction

    @staticmethod
    def make(coeffs: Mapping[int, object] | Iterable, sense: str, rhs) -> "Row":
        if sense not in ("<=", ">="):
            raise ValueError("sense must be '<=' or '>='")
        items = []
        for j, v in dict(coeffs).items():
            f = Fraction(v)
            if j < 1:
                raise ValueError("variable ids are 1-based")
            if f:
                items.append((int(j), f))
        return Row(tuple(sorted(items)), sense, Fraction(rhs))

    def normalized(self) -> "Row":
        """The same inequality in '<=' form."""
        if self.sense == "<=":
            return self
        return Row(tuple((j, -v) for j, v in self.coeffs), "<=", -self.rhs)


@dataclass
class System:
    """A growing stack of '<=' rows over the variable registry.

    Row k (0-based) owns slack id n + k + 1.  Rows reference only variables
    that exist when they are added, so slack values are computable in row
    order from the original coordinates alone.
    """

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

    def slack_id(self, row_index: int) -> int:
        return self.n + row_index + 1

    def add_row(self, row: Row) -> int:
        """Append a row (normalizing '>=' to '<='); returns its slack id."""
        row = row.normalized()
        limit = self.registry_size
        for j, _ in row.coeffs:
            if j > limit:
                raise ValueError("row references unknown variable x%d" % j)
        self.rows.append(row)
        return self.registry_size

    def copy(self) -> "System":
        return System(self.n, list(self.rows))

    def extend_point(self, x: Sequence) -> tuple[Fraction, ...]:
        """Registry-wide vector: originals followed by slack values."""
        vals = [Fraction(v) for v in x]
        if len(vals) != self.n:
            raise ValueError("point has wrong dimension")
        for row in self.rows:
            vals.append(row.rhs - sum(v * vals[j - 1] for j, v in row.coeffs))
        return tuple(vals)

    def satisfied_by(self, x: Sequence) -> bool:
        return all(v >= 0 for v in self.extend_point(x))


class Tableau:
    """Dense simplex dictionary over every registry column.

    basis[i] is the variable id owning row i; basic columns are unit
    vectors.  Every row, the initial ones included, enters through
    append_row, and the tableau keeps its own copy of the system it was
    built from.
    """

    def __init__(self, system: System):
        self.system = System(system.n)
        self.basis: list[int] = []
        self.body: list[list[Fraction]] = []
        self.rhs: list[Fraction] = []
        for row in system.rows:
            self.append_row(row)

    # -- bookkeeping ------------------------------------------------------

    @property
    def ncols(self) -> int:
        return self.system.registry_size

    def nonbasis(self) -> list[int]:
        basic = set(self.basis)
        return [j for j in range(1, self.ncols + 1) if j not in basic]

    def clone(self) -> "Tableau":
        twin = object.__new__(Tableau)
        twin.system = self.system.copy()
        twin.basis = list(self.basis)
        twin.body = [list(r) for r in self.body]
        twin.rhs = list(self.rhs)
        return twin

    def point(self) -> tuple[Fraction, ...]:
        """Current vertex over the registry."""
        vals = [ZERO] * self.system.registry_size
        for i, j in enumerate(self.basis):
            vals[j - 1] = self.rhs[i]
        return tuple(vals)

    def original_point(self) -> tuple[Fraction, ...]:
        return self.point()[: self.system.n]

    def append_row(self, row: Row) -> int:
        """Add one constraint below an existing basis; returns the slack id.

        The row sum_j a_j x_j + s = rhs is the reduced row of the linear form
        a'x - rhs with the slack s as its basic variable: basic columns read
        zero, and the new rhs is minus the form's vertex value, possibly
        negative.
        """
        slack = self.system.add_row(row)
        stored = self.system.rows[-1]
        for r in self.body:
            r.append(ZERO)
        coeffs = [ZERO] * (slack - 1)
        for j, v in stored.coeffs:
            coeffs[j - 1] = v
        value, reduced = self._reduced(coeffs, -stored.rhs)
        dense = [reduced.get(j, ZERO) for j in range(1, self.ncols + 1)]
        dense[slack - 1] = ONE
        self.body.append(dense)
        self.rhs.append(-value)
        self.basis.append(slack)
        return slack

    # -- pricing ----------------------------------------------------------

    def _reduced(self, cost: Sequence, const=ZERO):
        """Value at the vertex and reduced row of the function cost'x + const.

        cost holds the coefficients of ids 1..len(cost); later ids cost
        nothing.  The value is const plus sum_b cost_b * rhs_b; entry j of
        the row, for each nonbasic id j, is cost_j minus
        sum_b cost_b * body_b[j].  Only basic rows whose variable has a
        nonzero cost enter either sum.
        """
        size = len(cost)
        basic = [
            (cost[b - 1], self.body[i], self.rhs[i])
            for i, b in enumerate(self.basis)
            if b <= size and cost[b - 1]
        ]
        value = const + sum(c * r for c, _, r in basic)
        reduced = {}
        for j in self.nonbasis():
            v = cost[j - 1] if j <= size else ZERO
            for c, brow, _ in basic:
                a = brow[j - 1]
                if a:
                    v -= c * a
            reduced[j] = v
        return value, reduced

    def price(self, obj: FractionalObjective):
        """(P, Q, gamma) of a fractional objective at the current vertex."""
        P, eta = self._reduced(obj.p, obj.alpha)
        Q, theta = self._reduced(obj.q, obj.beta)
        return P, Q, {j: Q * eta[j] - P * theta[j] for j in eta}

    def gamma(self, obj: FractionalObjective) -> dict[int, Fraction]:
        return self.price(obj)[2]

    def reduced_gradient(self, grad: Sequence) -> dict[int, Fraction]:
        """Reduced row of a criterion gradient at the current vertex.

        Entry j is grad_j minus the basic-gradient combination of column j;
        slack positions carry zero gradient.
        """
        return self._reduced(grad)[1]

    # -- pivoting ---------------------------------------------------------

    def pivot(self, row: int, col_id: int) -> None:
        col = col_id - 1
        piv = self.body[row][col]
        if piv == 0:
            raise ValueError("zero pivot element")
        inv = ONE / piv
        self.body[row] = [v * inv for v in self.body[row]]
        self.rhs[row] *= inv
        prow = self.body[row]
        prhs = self.rhs[row]
        for i in range(len(self.body)):
            if i == row:
                continue
            f = self.body[i][col]
            if f:
                brow = self.body[i]
                self.body[i] = [brow[k] - f * prow[k] for k in range(len(brow))]
                self.rhs[i] -= f * prhs
        self.basis[row] = col_id

    def _hard_cap(self) -> int:
        """Pivot limit of one primal or dual run at the current size."""
        return HARD_CAP_FACTOR * (len(self.basis) + self.ncols) ** 2 + 100

    def _stall_limit(self) -> int:
        """Zero-ratio pivots in a row after which a run follows Bland's rule."""
        return STALL_FACTOR * (len(self.basis) + self.ncols) + 10

    def _primal(
        self, obj: FractionalObjective, observer: Observer | None = None, tag="primal"
    ):
        """Pivot until gamma >= 0 on all nonbasic columns; returns the final
        pricing (P, Q, gamma).

        Entering is always the least improving id.  Leaving takes the
        minimum ratio, breaking ties toward the largest basic id; after a
        long degenerate stall the tie flips to the smallest id (Bland),
        which the stall-local linearity of gamma makes terminating.
        """
        m = len(self.basis)
        stall_limit = self._stall_limit()
        stall = 0
        for _ in range(self._hard_cap()):
            priced = self.price(obj)
            entering = min((j for j, g in priced[2].items() if g < 0), default=None)
            if entering is None:
                return priced
            col = entering - 1
            bland = stall > stall_limit
            best = None
            for i in range(m):
                a = self.body[i][col]
                if a > 0:
                    ratio = self.rhs[i] / a
                    key = self.basis[i] if bland else -self.basis[i]
                    if best is None or (ratio, key) < best[:2]:
                        best = (ratio, key, i)
            if best is None:
                raise UnboundedError("column x%d never blocks" % entering)
            ratio, _, row = best
            stall = stall + 1 if ratio == 0 else 0
            self.pivot(row, entering)
            if observer:
                observer(tag, self)
        raise SimplexCycleError("primal pivot cap exceeded")

    def _dual(
        self, obj: FractionalObjective, observer: Observer | None = None, tag="dual"
    ) -> bool:
        """Pivot infeasible rows out while keeping gamma nonnegative.

        Leaving is the most negative rhs, ties toward the largest basic id;
        entering minimizes gamma_j / -a_rj over negative row entries, ties
        toward the smallest id.  After a long run of zero ratios the
        leaving row becomes the smallest infeasible basic id, the dual form
        of Bland's rule, which terminates for a linear objective.  Returns
        False when a row with no negative entry certifies emptiness, True
        once every rhs is nonnegative.  Under the zero objective every basis
        is dual feasible, so the pass alone reaches feasibility from any
        basis.
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
            gamma = self.gamma(obj)
            entering = None
            best_ratio = None
            for j in sorted(gamma):
                a = self.body[row][j - 1]
                if a < 0:
                    ratio = gamma[j] / (-a)
                    if best_ratio is None or ratio < best_ratio:
                        best_ratio = ratio
                        entering = j
            if entering is None:
                return False
            stall = stall + 1 if best_ratio == 0 else 0
            self.pivot(row, entering)
            if observer:
                observer(tag, self)
        raise SimplexCycleError("dual pivot cap exceeded")


@dataclass(frozen=True)
class Optimal:
    """A certified vertex minimum of the fractional objective.

    gamma is the objective's fractional reduced cost row at the tableau's
    basis, all nonnegative.
    """

    point: tuple[Fraction, ...]
    value: Fraction
    tableau: Tableau
    gamma: dict[int, Fraction]


@dataclass(frozen=True)
class Infeasible:
    """The constraint system has no nonnegative solution."""


def _finish(tab: Tableau, priced) -> Optimal:
    """Check the final pricing (P, Q, gamma) of a primal run and wrap it."""
    x = tab.original_point()
    P, Q, gamma = priced
    if Q <= 0:
        raise RuntimeError("nonpositive denominator at optimum")
    if any(v < 0 for v in tab.rhs) or any(g < 0 for g in gamma.values()):
        raise RuntimeError("simplex stopped at a non-optimal basis")
    if not tab.system.satisfied_by(x):
        raise RuntimeError("optimal point violates its own system")
    return Optimal(point=x, value=P / Q, tableau=tab, gamma=gamma)


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
    if not tab._dual(linear_objective(()), observer, tag="phase1"):
        return Infeasible()
    return _finish(tab, tab._primal(objective, observer))


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
