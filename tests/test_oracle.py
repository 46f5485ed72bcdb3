"""Brute-force oracle: enumeration, dominance filtering, reference sets."""

import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from effcut import (
    EnumerationCapError,
    FractionalObjective,
    Infeasible,
    Instance,
    Polyhedron,
    QuadraticObjective,
    System,
    coordinate_bounds,
    enumerate_feasible,
    linear_objective,
    load_instance,
    oracle_solve,
    pareto_filter,
    solve,
    solve_lfp,
)
from effcut.cli import render_oracle_result
from effcut.oracle import _preference_criteria
from conftest import INSTANCE_DIR
from helpers import (
    binary_instance,
    box_scan,
    boxed_instance,
    deep_instance,
    pareto_pairwise,
    random_instance,
    rational_preferences,
    three_point_line,
)

F = Fraction

DEMO_X_Q = (
    (0, 0, 1),
    (0, 0, 2),
    (0, 1, 0),
    (0, 1, 1),
    (1, 0, 0),
    (1, 0, 1),
    (1, 0, 2),
    (2, 0, 0),
)

DEMO_X_F = (
    (0, 0, 1),
    (0, 0, 2),
    (0, 1, 0),
    (0, 1, 1),
    (0, 2, 0),
    (0, 3, 0),
    (1, 1, 1),
    (1, 2, 0),
)

DEMO_X_EFF = ((0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1))


def test_demo_coordinate_bounds(demo_instance):
    assert coordinate_bounds(demo_instance) == (3, 3, 2)


def cold_bounds(inst):
    """Floors of the coordinate maxima, one fresh solve_lfp each."""
    system = System.from_polyhedron(inst.polyhedron)
    bounds = []
    for k in range(inst.n):
        out = solve_lfp(system, linear_objective([-int(i == k) for i in range(inst.n)]))
        if isinstance(out, Infeasible):
            return (-1,) * inst.n
        bounds.append(math.floor(-out.value))
    return tuple(bounds)


def region(A, b):
    """An instance over {x >= 0 : Ax <= b} with placeholder objectives."""
    n = len(A[0])
    zero = tuple(F(0) for _ in range(n))
    return Instance(
        n=n,
        r=2,
        quadratics=(QuadraticObjective(((0,) * n,) * n, (0,) * n),) * 2,
        fractionals=(FractionalObjective(zero, zero, F(0), F(1)),) * 2,
        polyhedron=Polyhedron(A, b),
    )


def test_warm_coordinate_bounds_equal_cold_maxima(corpus):
    rng = random.Random(61)
    cases = list(corpus) + [binary_instance(rng) for _ in range(50)]
    for inst in cases:
        assert coordinate_bounds(inst) == cold_bounds(inst)
    # Empty: x1 + x2 <= 1 and x1 + x2 >= 2.
    empty = region(((1, 1), (-1, -1)), (1, -2))
    assert coordinate_bounds(empty) == cold_bounds(empty) == (-1, -1)
    # The segment (2, 1, t) with 2t <= 3 floors a fractional maximum.
    segment = region(
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 2)), (2, -2, 1, -1, 3)
    )
    assert coordinate_bounds(segment) == cold_bounds(segment) == (2, 1, 1)
    # The single point (2, 1).
    single = region(((1, 0), (-1, 0), (0, 1), (0, -1)), (2, -2, 1, -1))
    assert coordinate_bounds(single) == cold_bounds(single) == (2, 1)
    assert enumerate_feasible(single) == [(2, 1)]


def test_solve_stops_at_the_enumeration_cap(demo_instance):
    # The demo bounding box holds 4 * 4 * 3 = 48 candidate points.
    with pytest.raises(EnumerationCapError):
        solve(demo_instance, enum_cap=47)
    assert solve(demo_instance, enum_cap=48).complete


def scan_region(rng):
    """A seeded region for the interval scan: a box of sides 0..4 and one
    to three rows whose entries, the last column's included, are negative,
    zero or positive, with rhs of either sign; about a third of all
    entries are Fractions of denominator 1.  The region may be empty."""
    n = rng.randint(1, 4)

    def entry(v):
        return F(v) if rng.random() < 0.3 else v

    A = [[entry(int(j == k)) for j in range(n)] for k in range(n)]
    b = [entry(rng.randint(0, 4)) for _ in range(n)]
    for _ in range(rng.randint(1, 3)):
        A.append([entry(rng.randint(-3, 3)) for _ in range(n)])
        b.append(entry(rng.randint(-4, 8)))
    return region(tuple(map(tuple, A)), tuple(b))


def test_interval_scan_equals_the_box_scan():
    # enumerate_feasible cuts the last coordinate to one interval per
    # prefix; the oracle shares it, so only the box scan can check it.
    rng = random.Random(71)
    seen = dict.fromkeys(
        ("n = 1", "negative last", "zero last", "fraction", "empty slice", "empty D"), 0
    )
    for _ in range(400):
        inst = scan_region(rng)
        D = enumerate_feasible(inst)
        assert D == box_scan(inst)
        poly, bounds = inst.polyhedron, coordinate_bounds(inst)
        seen["n = 1"] += inst.n == 1
        seen["negative last"] += any(a[-1] < 0 for a in poly.A)
        seen["zero last"] += any(a[-1] == 0 for a in poly.A)
        seen["fraction"] += any(type(v) is F for v in (*poly.b, *poly.A[-1]))
        seen["empty slice"] += len({x[:-1] for x in D}) < math.prod(u + 1 for u in bounds[:-1])
        seen["empty D"] += not D
    assert all(seen.values()), seen
    # Nonempty as a region, with no integer point: 1 <= 2 x1 <= 1.
    half = region(((2,), (-2,)), (1, -1))
    assert coordinate_bounds(half) == (0,)
    assert enumerate_feasible(half) == box_scan(half) == []
    # An empty region, and the single point (2, 1) with Fraction data.
    empty = region(((1, 1), (-1, -1)), (1, -2))
    assert enumerate_feasible(empty) == box_scan(empty) == []
    single = region(((F(1), 0), (-1, 0), (0, F(1)), (0, -1)), (F(2), -2, 1, F(-1)))
    assert enumerate_feasible(single) == box_scan(single) == [(2, 1)]


def test_demo_enumeration(demo_instance):
    D = enumerate_feasible(demo_instance)
    assert len(D) == 17
    assert D == sorted(D)
    assert (0, 3, 0) in D
    assert (0, 0, 3) not in D
    assert all(demo_instance.polyhedron.contains(x) for x in D)


def test_demo_sets(demo_instance):
    sets = oracle_solve(demo_instance)
    assert len(sets.D) == 17
    assert sets.X_Q == DEMO_X_Q
    assert sets.X_F == DEMO_X_F
    assert sets.X_Eff == DEMO_X_EFF


def test_efficient_set_is_the_intersection(demo_instance):
    sets = oracle_solve(demo_instance)
    assert set(sets.X_Eff) == set(sets.X_Q) & set(sets.X_F)


def test_enumeration_cap(demo_instance):
    # The demo bounding box holds 4 * 4 * 3 = 48 candidate points.
    with pytest.raises(EnumerationCapError):
        enumerate_feasible(demo_instance, enum_cap=5)
    assert len(enumerate_feasible(demo_instance, enum_cap=48)) == 17
    with pytest.raises(EnumerationCapError):
        oracle_solve(demo_instance, enum_cap=5)


def test_empty_region_enumerates_to_nothing():
    from effcut import FractionalObjective, Instance, QuadraticObjective
    from fractions import Fraction as F

    inst = Instance(
        n=1,
        r=2,
        quadratics=(
            QuadraticObjective(((0,),), (1,)),
            QuadraticObjective(((2,),), (-1,)),
        ),
        fractionals=(
            FractionalObjective((F(1),), (F(0),), F(0), F(1)),
            FractionalObjective((F(-1),), (F(1),), F(1), F(2)),
        ),
        polyhedron=Polyhedron(((1,), (-1,)), (1, -2)),
    )
    assert coordinate_bounds(inst) == (-1,)
    assert enumerate_feasible(inst) == []
    assert oracle_solve(inst).X_Eff == ()


def test_pareto_filter_basics():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    # Criterion vector is the point itself: (0,0) dominates everything else.
    assert pareto_filter(pts, lambda x: x) == [(0, 0)]


def test_pareto_filter_keeps_equal_vectors():
    pts = [(0, 1), (1, 0)]
    kept = pareto_filter(pts, lambda x: (x[0] + x[1],))
    assert kept == pts


def test_pareto_filter_is_idempotent():
    rng = random.Random(13)
    pts = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(30)]
    crit = lambda x: (x[0] - x[1], x[0] * x[1])
    once = pareto_filter(pts, crit)
    assert pareto_filter(once, crit) == once


def test_pareto_filter_self_consistency_on_random_instances():
    rng = random.Random(19)
    for _ in range(10):
        inst = random_instance(rng)
        sets = oracle_solve(inst)
        crit = lambda x: tuple(obj.value(x) for obj in inst.quadratics)
        for kept in sets.X_Q:
            vk = crit(kept)
            for other in sets.D:
                vo = crit(other)
                assert vo == vk or any(a > b for a, b in zip(vo, vk))


def filter_case(rng):
    """(points, criteria, kind, r) for the filter property: up to 24 points
    drawn with repeats from a few labels, each label mapped to a vector of
    r = 1-4 entries.  Kinds: small ints (many equal and comparable
    vectors), an antichain (entries summing to one constant, so distinct
    vectors are incomparable) and Fractions."""
    r = rng.randint(1, 4)
    size = rng.choice((0, 1, rng.randint(2, 24)))
    labels = rng.randint(1, 30)
    points = [(rng.randrange(labels),) for _ in range(size)]
    kind = rng.choice(("ints", "antichain", "fractions"))
    table = {}
    for (k,) in set(points):
        if kind == "ints":
            table[k] = tuple(rng.randint(-2, 2) for _ in range(r))
        elif kind == "antichain":
            head = [rng.randint(-3, 3) for _ in range(r - 1)]
            table[k] = (*head, 5 - sum(head))
        else:
            table[k] = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r))
    return points, lambda p: table[p[0]], kind, r


def test_sort_then_scan_equals_the_pairwise_reference():
    rng = random.Random(1201)
    seen = Counter()
    for _ in range(3000):
        points, crit, kind, r = filter_case(rng)
        kept = pareto_filter(points, crit)
        assert kept == pareto_pairwise(points, crit), (points, [crit(p) for p in points])
        vectors = {crit(p) for p in points}
        seen[kind] += 1
        seen["r = %d" % r] += 1
        seen["empty"] += not points
        seen["single"] += len(points) == 1
        seen["duplicate points"] += len(set(points)) < len(points)
        seen["equal vectors"] += len(vectors) < len(set(points))
        seen["antichain kept whole"] += kind == "antichain" and len(points) > 2 and kept == points
        seen["some fall"] += len(kept) < len(points)
    expected = (
        "ints", "antichain", "fractions", "r = 1", "r = 2", "r = 3", "r = 4", "empty",
        "single", "duplicate points", "equal vectors", "antichain kept whole", "some fall",
    )
    assert all(seen[k] for k in expected), seen


def fraction_path_sets(inst):
    """The oracle's sets by the pairwise reference over the Fraction values
    of QuadraticObjective.value and FractionalObjective.value, on the box
    scan's D."""
    D = box_scan(inst)
    X_Q = pareto_pairwise(D, lambda x: tuple(obj.value(x) for obj in inst.quadratics))
    X_F = pareto_pairwise(D, lambda x: tuple(fr.value(x) for fr in inst.fractionals))
    in_f = set(X_F)
    return tuple(D), tuple(X_Q), tuple(X_F), tuple(x for x in X_Q if x in in_f)


def test_oracle_sets_equal_the_fraction_path_on_the_corpus(corpus, demo_instance):
    for inst in [demo_instance, *corpus]:
        sets = oracle_solve(inst)
        assert (sets.D, sets.X_Q, sets.X_F, sets.X_Eff) == fraction_path_sets(inst)


@seed(20240917)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_oracle_sets_equal_the_fraction_path_with_rational_preferences(corpus, data):
    base = corpus[data.draw(st.integers(0, len(corpus) - 1))]
    inst = dataclasses.replace(base, fractionals=rational_preferences(data, base.n))
    sets = oracle_solve(inst)
    assert (sets.D, sets.X_Q, sets.X_F, sets.X_Eff) == fraction_path_sets(inst)


def test_zero_preference_denominator_on_D_raises():
    # q x + beta = 2 - x is zero at x = 2, a point of D = {0, 1, 2}.
    with pytest.raises(ValueError) as exc:
        oracle_solve(three_point_line(-1, 2))
    assert str(exc.value) == "denominator nonpositive (objective 2, minimum 0)"


def fraction_filter_sets(inst, D):
    """X_Q, X_F and X_Eff by the generic pareto_filter over the Fraction
    values of QuadraticObjective.value and FractionalObjective.value."""
    X_Q = pareto_filter(D, lambda x: tuple(obj.value(x) for obj in inst.quadratics))
    X_F = pareto_filter(D, lambda x: tuple(fr.value(x) for fr in inst.fractionals))
    in_f = set(X_F)
    return tuple(X_Q), tuple(X_F), tuple(x for x in X_Q if x in in_f)


def tie_preferences(rng):
    """psi_1 = (x_1 + 1) / (x_2 + 2) and psi_2 = (x_2 + x_3 + 2) / (x_1 + 1),
    numerator and denominator each scaled by its own random rational.  On
    x_3 = 0 the two are reciprocal up to scale, so no such point dominates
    another, and equal ratios of unequal terms, such as 1/2 at (0, 0, 0)
    and 2/4 at (1, 2, 0), make equal vectors."""
    def scales():
        return [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(2)]

    (a, b), (c, d) = scales(), scales()
    return (
        FractionalObjective((a, F(0), F(0)), (F(0), b, F(0)), a, 2 * b),
        FractionalObjective((F(0), c, c), (d, F(0), F(0)), 2 * c, d),
    )


def test_integer_keys_equal_the_fraction_path_on_wide_boxes():
    # [0,12]^3 instances: |D| in the thousands, so each preference's
    # common denominator M_s is the lcm of many distinct values.
    rng = random.Random(2417)
    for _ in range(4):
        base = deep_instance(rng)
        for inst in (base, dataclasses.replace(base, fractionals=tie_preferences(rng))):
            sets = oracle_solve(inst)
            assert (sets.X_Q, sets.X_F, sets.X_Eff) == fraction_filter_sets(inst, sets.D)
    # The last tie instance: (0, 0, 0) and (1, 2, 0) keep equal keys from
    # unequal numerators and denominators, and both stay in X_F.
    y, z = (0, 0, 0), (1, 2, 0)
    psi_1 = inst.fractionals[0]
    assert psi_1.value(y) == psi_1.value(z) and psi_1.numerator(y) != psi_1.numerator(z)
    keys = _preference_criteria(inst, sets.D)
    assert keys(y) == keys(z)
    assert {y, z} <= set(sets.X_F)
    assert len(sets.X_F) < len(sets.D)


def test_wide_instance_file_and_its_oracle_document():
    # instances/wide.oracle was written by the Fraction-keyed oracle; CI
    # compares the entry point's output with it too.
    inst = load_instance(str(INSTANCE_DIR / "wide.txt"))
    assert inst == boxed_instance(random.Random(4), 3, 20, 2)
    document = (INSTANCE_DIR / "wide.oracle").read_text(encoding="utf-8")
    assert render_oracle_result(oracle_solve(inst)) == document
