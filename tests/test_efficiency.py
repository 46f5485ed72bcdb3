"""Enumeration-backed efficiency tests for integer candidates."""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from effcut import (
    EfficiencyVerdict,
    PointTable,
    enumerate_feasible,
    oracle_solve,
    solve,
)
from effcut import test_boilfp_efficiency as boilfp_efficiency
from effcut import test_moiqp_efficiency as moiqp_efficiency
from helpers import boxed_instance, rational_preferences, three_point_line

F = Fraction


# -- plain-Fraction reference scans --------------------------------------------
#
# The scans the integer table replaced, over criterion values evaluated
# once per point with QuadraticObjective.value and
# FractionalObjective.denominator / .value.


def quadratic_values(inst, pool):
    return {y: [obj.value(y) for obj in inst.quadratics] for y in pool}


def preference_values(inst, pool):
    return {y: [(fr.denominator(y), fr.value(y)) for fr in inst.fractionals] for y in pool}


def reference_t1(x_star, pool, values):
    """Program T1 as a Fraction scan over the pool; first strict maximizer."""
    ref = values[x_star]
    best, witness = F(0), None
    for y in pool:
        vals = values[y]
        if all(v <= t for v, t in zip(vals, ref)):
            phi = sum(t - v for v, t in zip(vals, ref))
            if phi > best:
                best, witness = phi, y
    return EfficiencyVerdict(best == 0, best, witness)


def reference_t2(x_star, pool, values):
    """Program T2 as a Fraction scan over the pool; first strict maximizer."""
    ref = [psi for _, psi in values[x_star]]
    best, witness = F(0), None
    for y in pool:
        ws = [den * (t - psi) for (den, psi), t in zip(values[y], ref)]
        if all(w >= 0 for w in ws):
            total = sum(ws)
            if total > best:
                best, witness = total, y
    return EfficiencyVerdict(best == 0, best, witness)


def assert_matches_reference(inst):
    pool = enumerate_feasible(inst)
    table = PointTable(inst, pool)
    quad, pref = quadratic_values(inst, pool), preference_values(inst, pool)
    for x in pool:
        assert moiqp_efficiency(x, inst, table) == reference_t1(x, pool, quad)
        assert boilfp_efficiency(x, inst, table) == reference_t2(x, pool, pref)


def assert_columns_are_cleared_criteria(inst):
    """The columns and criterion rows over D, over D shuffled and over
    every other point of D: the last two break the runs of consecutive
    points that the columns step along, so most of them restart from a
    full evaluation."""
    D = enumerate_feasible(inst)
    shuffled = random.Random(len(D)).sample(D, len(D))
    for points in (D, shuffled, D[::2]):
        table = PointTable(inst, points)
        sums, order = table.t1_columns()
        scales, cleared = table.t2_columns()
        for k, y in enumerate(table.points):
            row = table.criteria(k)
            assert row == tuple(2 * obj.value(y) for obj in inst.quadratics)
            assert sums[k] == sum(row)
            expected = []
            for L, frac in zip(scales, inst.fractionals):
                expected += [L * frac.numerator(y), L * frac.denominator(y)]
            assert cleared[k] == tuple(expected)
            assert all(type(v) is int for v in (sums[k], *row, *cleared[k]))
        assert order == sorted(range(len(sums)), key=lambda k: (sums[k], k))


@pytest.fixture(scope="module")
def demo_table(demo_instance):
    return PointTable(demo_instance, enumerate_feasible(demo_instance))


def test_verdict_invariants():
    EfficiencyVerdict(True, F(0), None)
    EfficiencyVerdict(False, F(3), (1, 0))
    with pytest.raises(ValueError):
        EfficiencyVerdict(True, F(1), None)
    with pytest.raises(ValueError):
        EfficiencyVerdict(True, F(0), (1, 0))
    with pytest.raises(ValueError):
        EfficiencyVerdict(False, F(0), (1, 0))
    with pytest.raises(ValueError):
        EfficiencyVerdict(False, F(3), None)


def test_quadratic_side_demo_points(demo_instance, demo_table):
    verdict = moiqp_efficiency((0, 3, 0), demo_instance, demo_table)
    assert not verdict.efficient
    assert verdict.objective_value == F(809, 2)
    assert verdict.witness == (0, 0, 2)

    verdict = moiqp_efficiency((1, 1, 1), demo_instance, demo_table)
    assert not verdict.efficient
    assert verdict.objective_value == F(331, 2)
    assert verdict.witness == (1, 0, 1)

    assert moiqp_efficiency((0, 1, 0), demo_instance, demo_table).efficient
    assert moiqp_efficiency((1, 0, 0), demo_instance, demo_table).efficient


def test_fractional_side_demo_points(demo_instance, demo_table):
    assert boilfp_efficiency((0, 3, 0), demo_instance, demo_table).efficient
    assert boilfp_efficiency((0, 1, 0), demo_instance, demo_table).efficient

    verdict = boilfp_efficiency((1, 0, 0), demo_instance, demo_table)
    assert not verdict.efficient
    assert verdict.objective_value == F(25, 6)
    assert verdict.witness == (0, 0, 2)

    verdict = boilfp_efficiency((1, 0, 2), demo_instance, demo_table)
    assert not verdict.efficient
    assert verdict.objective_value == F(7, 3)
    assert verdict.witness == (0, 0, 2)


def test_witness_dominates_on_its_side(demo_instance, demo_table):
    quadratic = moiqp_efficiency((0, 3, 0), demo_instance, demo_table)
    x, y = (0, 3, 0), quadratic.witness
    assert all(
        f.value(y) <= f.value(x) for f in demo_instance.quadratics
    )
    fractional = boilfp_efficiency((1, 0, 0), demo_instance, demo_table)
    x, y = (1, 0, 0), fractional.witness
    assert all(
        f.value(y) <= f.value(x) for f in demo_instance.fractionals
    )


def test_verdicts_match_oracle_membership(demo_instance, demo_table):
    sets = oracle_solve(demo_instance)
    for x in sets.D:
        assert moiqp_efficiency(x, demo_instance, demo_table).efficient == (x in sets.X_Q)
        assert boilfp_efficiency(x, demo_instance, demo_table).efficient == (x in sets.X_F)


def test_rejects_noninteger_candidate(demo_instance, demo_table):
    with pytest.raises(ValueError):
        moiqp_efficiency((0, F(1, 2), 0), demo_instance, demo_table)
    with pytest.raises(ValueError):
        boilfp_efficiency((0, F(1, 2), 0), demo_instance, demo_table)


def test_rejects_infeasible_candidate(demo_instance, demo_table):
    with pytest.raises(ValueError):
        moiqp_efficiency((0, 0, 3), demo_instance, demo_table)
    with pytest.raises(ValueError):
        boilfp_efficiency((-1, 0, 0), demo_instance, demo_table)


def test_single_point_region_is_trivially_efficient():
    from effcut import (
        FractionalObjective,
        Instance,
        Polyhedron,
        QuadraticObjective,
    )

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
        polyhedron=Polyhedron(((1,),), (0,)),
    )
    table = PointTable(inst, enumerate_feasible(inst))
    assert moiqp_efficiency((0,), inst, table).efficient
    assert boilfp_efficiency((0,), inst, table).efficient


# -- the integer point table --------------------------------------------------


def test_table_matches_reference_scans_on_the_corpus(corpus):
    for inst in corpus:
        assert_matches_reference(inst)


@seed(20240917)
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_table_matches_reference_scans_with_rational_preferences(corpus, data):
    base = corpus[data.draw(st.integers(0, len(corpus) - 1))]
    inst = dataclasses.replace(base, fractionals=rational_preferences(data, base.n))
    assert_matches_reference(inst)
    assert_columns_are_cleared_criteria(inst)


def test_table_columns_are_cleared_criteria(corpus, demo_instance):
    for inst in [demo_instance, *corpus]:
        assert_columns_are_cleared_criteria(inst)


def test_table_rejects_bad_candidates(demo_instance):
    table = PointTable(demo_instance, enumerate_feasible(demo_instance))
    assert len(table) == 17
    for x in ((0, F(1, 2), 0), (0, 0, 3), (-1, 0, 0), (0, 0)):
        for test in (moiqp_efficiency, boilfp_efficiency):
            with pytest.raises(ValueError):
                test(x, demo_instance, table)


def test_table_of_another_instance_is_rejected(demo_instance):
    other = three_point_line(0, 1)
    table = PointTable(other, enumerate_feasible(other))
    with pytest.raises(ValueError):
        moiqp_efficiency((0, 0, 0), demo_instance, table)


def test_repeated_calls_reuse_the_columns(demo_instance):
    table = PointTable(demo_instance, enumerate_feasible(demo_instance))
    first = [
        (moiqp_efficiency(x, demo_instance, table), boilfp_efficiency(x, demo_instance, table))
        for x in table.points
    ]
    columns = (table.t1_columns(), table.t2_columns())
    rows = [table.criteria(k) for k in range(len(table))]
    again = [
        (moiqp_efficiency(x, demo_instance, table), boilfp_efficiency(x, demo_instance, table))
        for x in table.points
    ]
    assert again == first
    assert table.t1_columns() is columns[0]
    assert table.t2_columns() is columns[1]
    assert all(table.criteria(k) is row for k, row in enumerate(rows))


def test_t1_evaluates_only_the_rows_its_scan_reads():
    # n = 4 in [0, 3]^4 plus two rows, the shape of the benchmark's dense
    # workload; at this seed D has 139 points and some scans read 54 of
    # them before the first dominator.  A fresh table per candidate: one
    # call fills the candidate's row and those of the positions scanned.
    inst = boxed_instance(random.Random(8), 4, 3, 2)
    D = enumerate_feasible(inst)
    quad = quadratic_values(inst, D)
    for x in D:
        table = PointTable(inst, D)
        verdict = moiqp_efficiency(x, inst, table)
        assert verdict == reference_t1(x, D, quad)
        sums, order = table.t1_columns()
        if verdict.efficient:
            scanned = sum(s < sums[table.index[x]] for s in sums)
        else:
            scanned = order.index(table.index[verdict.witness]) + 1
        assert sum(row is not None for row in table._rows) <= scanned + 1
    # The last table, partly filled, still answers every candidate.
    for x in D:
        assert moiqp_efficiency(x, inst, table) == reference_t1(x, D, quad)


@pytest.mark.parametrize("q,beta", [(-1, 2), (-2, 3)])
def test_nonpositive_denominator_on_D_is_rejected(q, beta):
    # q x + beta is zero, or negative, at x = 2 only; positive at x* = 0.
    inst = three_point_line(q, beta)
    table = PointTable(inst, enumerate_feasible(inst))
    # T1 never fills the T2 columns, so it still runs.
    assert moiqp_efficiency((0,), inst, table).efficient
    with pytest.raises(ValueError):
        boilfp_efficiency((0,), inst, table)
    with pytest.raises(ValueError):
        solve(inst)
