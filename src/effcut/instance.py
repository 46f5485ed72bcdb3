"""Problem data model: instances, text format, evaluation, validation.

An instance bundles r convex quadratic criteria f_i(x) = 0.5*x'Q_i x + c_i'x,
two linear fractional preference functions (p'x + alpha)/(q'x + beta), and a
polyhedron {x >= 0 : Ax <= b} whose integer points form the feasible set.
All arithmetic is exact; rationals are fractions.Fraction throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence, TextIO

Matrix = tuple[tuple[int, ...], ...]
IntVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


def _integers(values: Sequence) -> tuple[list[int], int]:
    """Integer numerators of rational values over their least common
    denominator, and that denominator."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _integral(value) -> int:
    """An integer value as an int; ValueError on any other value."""
    if type(value) is int:
        return value
    f = Fraction(value)
    if f.denominator != 1:
        raise ValueError("non-integral value %s" % f)
    return f.numerator


class InstanceFormatError(ValueError):
    """Malformed instance text. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class QuadraticObjective:
    """One criterion x -> 0.5*x'Qx + c'x with integer symmetric Q."""

    Q: Matrix
    c: IntVec

    def __post_init__(self):
        n = len(self.c)
        if len(self.Q) != n or any(len(row) != n for row in self.Q):
            raise ValueError("Q and c dimensions disagree")
        for i in range(n):
            for j in range(i):
                if self.Q[i][j] != self.Q[j][i]:
                    raise ValueError("Q is not symmetric")

    @property
    def n(self) -> int:
        return len(self.c)

    def value(self, x: Sequence[Fraction | int]) -> Fraction:
        if len(x) != self.n:
            raise ValueError("point has wrong dimension")
        acc = ZERO
        for i in range(self.n):
            row = self.Q[i]
            acc += x[i] * sum(row[j] * x[j] for j in range(self.n))
        return Fraction(acc, 2) + sum(self.c[i] * x[i] for i in range(self.n))

    def gradient(self, x: Sequence[Fraction | int]) -> FracVec:
        """Exact gradient Qx + c."""
        if len(x) != self.n:
            raise ValueError("point has wrong dimension")
        return tuple(
            Fraction(sum(self.Q[i][j] * x[j] for j in range(self.n)) + self.c[i])
            for i in range(self.n)
        )

    def is_psd(self) -> bool:
        """Exact positive-semidefiniteness via pivoted elimination in ints.

        Repeatedly eliminates on a positive diagonal pivot; PSD holds iff
        the process consumes the matrix or leaves an all-zero block.  The
        update is Bareiss's, m_ij <- (p m_ij - m_ip m_pj) / prev with p the
        pivot and prev the one before it, and divides exactly: each entry
        is the rational elimination's entry times prev > 0, so every sign
        and zero, hence the verdict, is the rational one.
        """
        m = [list(row) for row in self.Q]
        active = list(range(self.n))
        prev = 1
        while active:
            piv = next((i for i in active if m[i][i] > 0), None)
            if piv is None:
                return all(m[i][j] == 0 for i in active for j in active)
            p, prow = m[piv][piv], m[piv]
            active.remove(piv)
            for i in active:
                row, f = m[i], m[i][piv]
                for j in active:
                    row[j] = (p * row[j] - f * prow[j]) // prev
            prev = p
        return True


@dataclass(frozen=True)
class FractionalObjective:
    """Linear fractional function (p'x + alpha)/(q'x + beta)."""

    p: FracVec
    q: FracVec
    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        if len(self.p) != len(self.q):
            raise ValueError("p and q dimensions disagree")

    @property
    def n(self) -> int:
        return len(self.p)

    @cached_property
    def integers(self) -> tuple[tuple[int, ...], int, tuple[int, ...], int, int]:
        """(p, alpha, q, beta, L): all four as integer numerators over one
        least common denominator L, so numerator and denominator times L
        are integer.  Pricing and T2 both read it."""
        n = self.n
        nums, scale = _integers([*self.p, self.alpha, *self.q, self.beta])
        return tuple(nums[:n]), nums[n], tuple(nums[n + 1 : -1]), nums[-1], scale

    def numerator(self, x: Sequence[Fraction | int]) -> Fraction:
        if len(x) != self.n:
            raise ValueError("point has wrong dimension")
        return Fraction(sum(self.p[i] * x[i] for i in range(self.n)) + self.alpha)

    def denominator(self, x: Sequence[Fraction | int]) -> Fraction:
        if len(x) != self.n:
            raise ValueError("point has wrong dimension")
        return Fraction(sum(self.q[i] * x[i] for i in range(self.n)) + self.beta)

    def value(self, x: Sequence[Fraction | int]) -> Fraction:
        """Exact for int and Fraction fields alike; ZeroDivisionError on a
        zero denominator."""
        return self.numerator(x) / self.denominator(x)


@dataclass(frozen=True)
class Polyhedron:
    """Region {x >= 0 : Ax <= b} with integer data."""

    A: Matrix
    b: IntVec

    def __post_init__(self):
        if len(self.A) != len(self.b):
            raise ValueError("A and b dimensions disagree")
        widths = {len(row) for row in self.A}
        if len(widths) > 1:
            raise ValueError("A rows have unequal length")
        for v in (*self.b, *(v for row in self.A for v in row)):
            _integral(v)

    @property
    def m(self) -> int:
        return len(self.b)

    @property
    def n(self) -> int:
        return len(self.A[0]) if self.A else 0

    def contains(self, x: Sequence[Fraction | int]) -> bool:
        if len(x) != self.n:
            raise ValueError("point has wrong dimension")
        if any(v < 0 for v in x):
            return False
        return all(
            sum(self.A[i][j] * x[j] for j in range(self.n)) <= self.b[i]
            for i in range(self.m)
        )


@dataclass(frozen=True)
class Instance:
    """A full problem instance; immutable after construction."""

    n: int
    r: int
    quadratics: tuple[QuadraticObjective, ...]
    fractionals: tuple[FractionalObjective, FractionalObjective]
    polyhedron: Polyhedron

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("need at least two quadratic criteria")
        if len(self.quadratics) != self.r:
            raise ValueError("quadratic count disagrees with r")
        if len(self.fractionals) != 2:
            raise ValueError("exactly two fractional objectives required")
        for obj in self.quadratics:
            if obj.n != self.n:
                raise ValueError("quadratic dimension disagrees with n")
        for obj in self.fractionals:
            if obj.n != self.n:
                raise ValueError("fractional dimension disagrees with n")
        if self.polyhedron.n != self.n:
            raise ValueError("polyhedron dimension disagrees with n")

    @cached_property
    def lp_minima(self):
        """minimize_each over the region of -x_1, ..., -x_n, then of each
        preference denominator q_s'x + beta_s, solved once per instance:
        Infeasible, or the minima with None for one unbounded below.
        validate_instance, solve and the coordinate bounds all read it."""
        from . import simplex  # deferred; simplex imports this module

        zeros = (ZERO,) * self.n
        objectives = [
            FractionalObjective(
                tuple(MINUS_ONE if i == k else ZERO for i in range(self.n)), zeros, ZERO, ONE
            )
            for k in range(self.n)
        ] + [FractionalObjective(fr.q, zeros, fr.beta, ONE) for fr in self.fractionals]
        return simplex.minimize_each(simplex.System.from_polyhedron(self.polyhedron), objectives)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
#
# Line oriented, '#' starts a comment, blank lines are separators:
#
#   n 3
#   r 2
#   Q            (r blocks, each n lines of n integers)
#   ...
#   c -94 -74 -37      (r lines)
#   fractional         (2 blocks: p, q, alpha, beta)
#   p 1 -4 -1
#   q 1 0 1
#   alpha -7
#   beta 3
#   A            (m lines of n integers)
#   ...
#   b 3 6
#
# Rational literals 'a/b' are accepted in fractional blocks only; Q, c, A, b
# are integers.


def _tokenize(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line.split()))
    return out


class _Reader:
    def __init__(self, text: str):
        self.items = _tokenize(text)
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.items)

    def take(self) -> tuple[int, list[str]]:
        if self.eof():
            raise InstanceFormatError("unexpected end of input")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def expect(self, keyword: str) -> tuple[int, list[str]]:
        no, toks = self.take()
        if toks[0] != keyword:
            raise InstanceFormatError("expected %r, found %r" % (keyword, toks[0]), no)
        return no, toks

    def keyword_int(self, keyword: str) -> int:
        no, toks = self.expect(keyword)
        if len(toks) != 2:
            raise InstanceFormatError("expected a single integer after %r" % keyword, no)
        return _int_tok(toks[1], no)

    def int_vector(self, keyword: str, width: int) -> IntVec:
        no, toks = self.expect(keyword)
        if len(toks) != width + 1:
            raise InstanceFormatError(
                "expected %d integers after %r" % (width, keyword), no
            )
        return tuple(_int_tok(t, no) for t in toks[1:])

    def frac_vector(self, keyword: str, width: int) -> FracVec:
        no, toks = self.expect(keyword)
        if len(toks) != width + 1:
            raise InstanceFormatError(
                "expected %d rationals after %r" % (width, keyword), no
            )
        return tuple(_frac_tok(t, no) for t in toks[1:])

    def frac_scalar(self, keyword: str) -> Fraction:
        no, toks = self.expect(keyword)
        if len(toks) != 2:
            raise InstanceFormatError("expected a single rational after %r" % keyword, no)
        return _frac_tok(toks[1], no)

    def int_row(self, width: int) -> IntVec:
        no, toks = self.take()
        if len(toks) != width:
            raise InstanceFormatError("expected %d integers" % width, no)
        return tuple(_int_tok(t, no) for t in toks)

    def peek_is_numeric(self) -> bool:
        if self.eof():
            return False
        try:
            int(self.items[self.pos][1][0])
        except ValueError:
            return False
        return True


def _int_tok(tok: str, no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise InstanceFormatError("bad integer literal %r" % tok, no) from None


def _frac_tok(tok: str, no: int) -> Fraction:
    try:  # an integer literal skips Fraction's string parser
        return Fraction(int(tok))
    except ValueError:
        pass
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise InstanceFormatError("bad rational literal %r" % tok, no) from None


def parse_instance(source: str | TextIO) -> Instance:
    """Parse instance text; raises InstanceFormatError with a line number."""
    text = source.read() if hasattr(source, "read") else source
    rd = _Reader(text)
    n = rd.keyword_int("n")
    r = rd.keyword_int("r")
    if n < 1:
        raise InstanceFormatError("n must be positive")
    if r < 2:
        raise InstanceFormatError("r must be at least 2")

    quads_rows = []
    for _ in range(r):
        no, _toks = rd.expect("Q")
        quads_rows.append((no, tuple(rd.int_row(n) for _ in range(n))))
    cs = [rd.int_vector("c", n) for _ in range(r)]
    quadratics = []
    for (no, Q), c in zip(quads_rows, cs):
        try:
            quadratics.append(QuadraticObjective(Q, c))
        except ValueError as exc:
            raise InstanceFormatError(str(exc), no) from None

    fractionals = []
    for _ in range(2):
        rd.expect("fractional")
        p = rd.frac_vector("p", n)
        q = rd.frac_vector("q", n)
        alpha = rd.frac_scalar("alpha")
        beta = rd.frac_scalar("beta")
        fractionals.append(FractionalObjective(p, q, alpha, beta))

    no_a, _ = rd.expect("A")
    rows = []
    while rd.peek_is_numeric():
        rows.append(rd.int_row(n))
    if not rows:
        raise InstanceFormatError("A block is empty", no_a)
    b = rd.int_vector("b", len(rows))
    if not rd.eof():
        no, toks = rd.take()
        raise InstanceFormatError("unexpected trailing content %r" % " ".join(toks), no)

    try:
        return Instance(
            n=n,
            r=r,
            quadratics=tuple(quadratics),
            fractionals=(fractionals[0], fractionals[1]),
            polyhedron=Polyhedron(tuple(rows), b),
        )
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def render_instance(inst: Instance) -> str:
    """Canonical text form; parse_instance(render_instance(i)) == i."""
    lines = ["n %d" % inst.n, "r %d" % inst.r, ""]
    for obj in inst.quadratics:
        lines.append("Q")
        for row in obj.Q:
            lines.append(" ".join(str(v) for v in row))
        lines.append("")
    for obj in inst.quadratics:
        lines.append("c " + " ".join(str(v) for v in obj.c))
    lines.append("")
    for frac in inst.fractionals:
        lines.append("fractional")
        lines.append("p " + " ".join(str(v) for v in frac.p))
        lines.append("q " + " ".join(str(v) for v in frac.q))
        lines.append("alpha " + str(frac.alpha))
        lines.append("beta " + str(frac.beta))
        lines.append("")
    lines.append("A")
    for row in inst.polyhedron.A:
        lines.append(" ".join(str(v) for v in row))
    lines.append("b " + " ".join(str(v) for v in inst.polyhedron.b))
    return "\n".join(lines) + "\n"


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh)


def denominator_violations(inst: Instance) -> tuple[str, ...]:
    """A violation for each preference denominator whose minimum in
    inst.lp_minima is not positive; none when the region is empty.

    Computed on the first call and kept in the instance's __dict__, where
    cached_property keeps lp_minima, so validate_instance, solve,
    oracle_solve and T2 all read one tuple."""
    found = inst.__dict__.get("_denominator_violations")
    if found is None:
        from . import simplex  # deferred; simplex imports this module

        minima = inst.lp_minima
        found = ()
        if not isinstance(minima, simplex.Infeasible):
            found = tuple(
                "denominator nonpositive (objective %d%s)"
                % (s, " unbounded below" if v is None else ", minimum %s" % v)
                for s, v in enumerate(minima[inst.n :], 1)
                if v is None or v <= 0
            )
        inst.__dict__["_denominator_violations"] = found
    return found


def validate_instance(inst: Instance) -> list[str]:
    """Check solvability preconditions; returns a list of violations.

    Empty list means valid: nonempty bounded region, strictly positive
    fractional denominators over the region, and PSD criterion matrices.
    The region's answers are inst.lp_minima.
    """
    from . import simplex  # deferred; simplex imports this module

    minima = inst.lp_minima
    violations: list[str] = []
    if isinstance(minima, simplex.Infeasible):
        violations.append("empty feasible region")
    else:
        for k, v in enumerate(minima[: inst.n], 1):
            if v is None:
                violations.append("unbounded region (x%d has no finite maximum)" % k)
    violations += denominator_violations(inst)
    for i, obj in enumerate(inst.quadratics, 1):
        if not obj.is_psd():
            violations.append("Q%d not positive semidefinite" % i)
    return violations
