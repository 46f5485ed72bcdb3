"""Seeded instance streams for the benchmark workloads.

Each workload is an endless stream of valid instances drawn from
``random.Random(seed)``.  The generators draw shapes and coefficients
only; no instance is ever dropped or redrawn, whatever it costs to solve.

- ``corpus``: the test suite's generator (``tests/helpers.random_instance``),
  rebuilt draw for draw so the benchmark does not import the test tree.
  Its first 100 instances at seed 20240917 are the acceptance corpus.
- ``dense``: n = 4 in the box [0,3]^4 plus two random rows, so |D| is
  about 150-256.  The two preference functions nearly agree, which keeps
  the fractional front, and with it the search tree, small while D stays
  large: the T1/T2 scans over D dominate ``solve`` and the O(|D|^2)
  Pareto filter dominates ``oracle_solve``.
- ``binary``: n = 5 in the box [0,1]^5 plus three random rows.  D is
  tiny, paths carry many cut rows, and warm dual/primal re-solves
  dominate ``solve``.

Every instance passes ``prepare``: a render/parse round trip (what a user
pays to load the file) followed by ``validate_instance``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterator

from effcut import FractionalObjective, Instance, Polyhedron, QuadraticObjective
from effcut import instance as instance_mod

F = Fraction


def _quadratics(rng: random.Random, n: int) -> tuple[QuadraticObjective, ...]:
    out = []
    for _ in range(rng.choice((2, 3))):
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        Q = tuple(
            tuple(sum(M[k][i] * M[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        out.append(QuadraticObjective(Q, tuple(rng.randint(-10, 10) for _ in range(n))))
    return tuple(out)


def _fractional(rng: random.Random, n: int) -> FractionalObjective:
    return FractionalObjective(
        p=tuple(F(rng.randint(-10, 10)) for _ in range(n)),
        q=tuple(F(rng.randint(0, 5)) for _ in range(n)),
        alpha=F(rng.randint(-10, 10)),
        beta=F(rng.randint(1, 10)),
    )


def _boxed_instance(rng, n, upper, extra_rows, fracs) -> Instance:
    """Box [0, upper]^n plus random rows that cut at most half of each row's range.

    Each extra row a'x <= b draws b from [M/2, M], where M is the row's
    maximum over the box, so the origin stays feasible and D stays large.
    """
    quads = _quadratics(rng, n)
    rows = [[1 if j == k else 0 for j in range(n)] for k in range(n)]
    rhs = [upper] * n
    for _ in range(extra_rows):
        a = [rng.randint(-3, 3) for _ in range(n)]
        top = upper * sum(max(v, 0) for v in a)
        rows.append(a)
        rhs.append(rng.randint((top + 1) // 2, top))
    return Instance(
        n=n,
        r=len(quads),
        quadratics=quads,
        fractionals=fracs(rng, n),
        polyhedron=Polyhedron(tuple(tuple(v) for v in rows), tuple(rhs)),
    )


def _aligned_pair(rng: random.Random, n: int):
    """psi_2 is psi_1 with each p entry moved by at most 1 and each q entry raised by 0 or 1."""
    first = _fractional(rng, n)
    second = FractionalObjective(
        p=tuple(v + rng.randint(-1, 1) for v in first.p),
        q=tuple(v + rng.randint(0, 1) for v in first.q),
        alpha=F(rng.randint(-10, 10)),
        beta=F(rng.randint(1, 10)),
    )
    return (first, second)


def _independent_pair(rng: random.Random, n: int):
    return (_fractional(rng, n), _fractional(rng, n))


def random_instance(rng: random.Random) -> Instance:
    """The test suite's corpus generator, draw for draw.

    Box rows keep every coordinate in [0, 5], q >= 0 with beta >= 1 keeps
    the denominators positive, and Q = M'M keeps every criterion convex.
    """
    n = rng.randint(1, 3)
    quads = _quadratics(rng, n)
    fracs = _independent_pair(rng, n)
    rows = [[1 if j == k else 0 for j in range(n)] for k in range(n)]
    rhs = [rng.randint(0, 5) for _ in range(n)]
    for _ in range(rng.randint(0, 2)):
        rows.append([rng.randint(-3, 3) for _ in range(n)])
        rhs.append(rng.randint(0, 10))
    return Instance(
        n=n,
        r=len(quads),
        quadratics=quads,
        fractionals=fracs,
        polyhedron=Polyhedron(tuple(tuple(v) for v in rows), tuple(rhs)),
    )


def dense_instance(rng: random.Random) -> Instance:
    return _boxed_instance(rng, 4, 3, 2, _aligned_pair)


def binary_instance(rng: random.Random) -> Instance:
    return _boxed_instance(rng, 5, 1, 3, _independent_pair)


GENERATORS: dict[str, Callable[[random.Random], Instance]] = {
    "corpus": random_instance,
    "dense": dense_instance,
    "binary": binary_instance,
}


def instance_stream(workload: str, seed: int) -> Iterator[Instance]:
    """The workload's instances in order; the same seed gives the same stream."""
    make = GENERATORS[workload]
    rng = random.Random(seed)
    while True:
        yield make(rng)


class RoundTripError(ValueError):
    """parse_instance(render_instance(inst)) differs from inst."""


def prepare(inst: Instance) -> tuple[Instance, list[str]]:
    """Load an instance as a user would: render, parse back, validate.

    Calls go through the module attributes so a tracer can wrap them.
    Returns the parsed instance and its validation violations.
    """
    parsed = instance_mod.parse_instance(instance_mod.render_instance(inst))
    if parsed != inst:
        raise RoundTripError("instance changed across a render/parse round trip")
    return parsed, instance_mod.validate_instance(parsed)
