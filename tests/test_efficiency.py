"""Enumeration-backed efficiency tests for integer candidates."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from effcut import (
    EfficiencyVerdict,
    PointTable,
    QuadraticObjective,
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
    """Both tests against the reference scans over D, over D shuffled and
    over every other point of D: the last two break D's runs of
    consecutive points into runs of one point and runs cut short."""
    D = enumerate_feasible(inst)
    shuffled = random.Random(len(D)).sample(D, len(D))
    for pool in (D, shuffled, D[::2]):
        table = PointTable(inst, pool)
        quad, pref = quadratic_values(inst, pool), preference_values(inst, pool)
        for x in pool:
            assert moiqp_efficiency(x, inst, table) == reference_t1(x, pool, quad)
            assert boilfp_efficiency(x, inst, table) == reference_t2(x, pool, pref)


def assert_columns_are_cleared_criteria(inst):
    """T1's column and the criterion rows over D, over D shuffled and over
    every other point of D: the last two break the runs of consecutive
    points that the column steps along, so most of them restart from a
    full evaluation."""
    D = enumerate_feasible(inst)
    shuffled = random.Random(len(D)).sample(D, len(D))
    for points in (D, shuffled, D[::2]):
        table = PointTable(inst, points)
        sums, order = table.t1_columns()
        for k, y in enumerate(table.points):
            row = table.criteria(k)
            assert row == tuple(2 * obj.value(y) for obj in inst.quadratics)
            assert sums[k] == sum(row)
            assert all(type(v) is int for v in (sums[k], *row))
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


def test_columns_where_the_sum_is_linear_along_runs():
    # Every criterion's last row and column of Q zeroed (still convex):
    # the summed Q_nn is 0, so S climbs linearly along each run.
    inst = boxed_instance(random.Random(3), 3, 4, 2)
    quads = tuple(
        QuadraticObjective(
            tuple((*row[:-1], 0) for row in obj.Q[:-1]) + ((0,) * 3,), obj.c
        )
        for obj in inst.quadratics
    )
    flat = dataclasses.replace(inst, quadratics=quads)
    assert sum(obj.Q[-1][-1] for obj in quads) == 0 != sum(obj.c[-1] for obj in quads)
    assert all(obj.is_psd() for obj in quads)
    assert_columns_are_cleared_criteria(flat)


def test_columns_where_the_preferences_are_constant_along_runs():
    # p_n = q_n = 0 for both preferences: every slack n_s is constant along
    # a run (d_s = 0), while q >= 0 and beta >= 1 keep the denominators
    # positive.
    inst = boxed_instance(random.Random(5), 3, 4, 2)
    fracs = tuple(
        dataclasses.replace(fr, p=(*fr.p[:-1], F(0)), q=(*fr.q[:-1], F(0)))
        for fr in inst.fractionals
    )
    assert_matches_reference(dataclasses.replace(inst, fractionals=fracs))


def sign(v):
    return (v > 0) - (v < 0)


def t2_branches(inst, table):
    """Counter of the branches T2's interval code takes over (x*, run),
    signed from Fractions.  Along a run (h, v) each slack
    den_s(y) num_s(x*) - num_s(y) den_s(x*) is A_s + v d_s; the objective
    moves along the run's feasible points with the sign of
    d_1 / den_1(x*) + d_2 / den_2(x*)."""
    fracs = inst.fractionals
    ends = [
        [[(fr.numerator(y), fr.denominator(y)) for fr in fracs] for y in ((*h, 0), (*h, 1))]
        for h, _, _ in table.runs
    ]
    counts = Counter()
    for x in table.points:
        at_x = [(fr.numerator(x), fr.denominator(x)) for fr in fracs]
        for (_, first, length), (at0, at1) in zip(table.runs, ends):
            A, d = [], []
            for (px, qx), (p0, q0), (p1, q1) in zip(at_x, at0, at1):
                A.append(q0 * px - p0 * qx)
                d.append((q1 * px - p1 * qx) - A[-1])
                if d[-1] or A[-1] < 0:
                    counts["d", sign(d[-1])] += 1
            feasible = [
                v for v in range(first, first + length)
                if all(a + v * b >= 0 for a, b in zip(A, d))
            ]
            if len(feasible) >= 2:
                counts["slope", sign(d[0] / at_x[0][1] + d[1] / at_x[1][1])] += 1
    return counts


def test_t2_takes_every_branch_of_its_interval_code():
    # Boxed instances with rational preferences, some with p_n = q_n = 0
    # for one or both preferences so that d_s = 0 and a zero slope occur.
    counts = Counter()

    @seed(20240917)
    @settings(max_examples=10, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        n = data.draw(st.integers(2, 3))
        base = boxed_instance(random.Random(data.draw(st.integers(0, 999))), n, 3, 1)
        fracs = list(rational_preferences(data, n))
        for s in data.draw(st.sampled_from(((), (0,), (1,), (0, 1)))):
            fr = fracs[s]
            fracs[s] = dataclasses.replace(fr, p=(*fr.p[:-1], F(0)), q=(*fr.q[:-1], F(0)))
        inst = dataclasses.replace(base, fractionals=tuple(fracs))
        assert_matches_reference(inst)
        counts.update(t2_branches(inst, PointTable(inst, enumerate_feasible(inst))))

    check()
    # d_s = 0 counts only with A_s < 0, where the run is empty.
    branches = [(kind, s) for kind in ("d", "slope") for s in (1, -1, 0)]
    assert all(counts[b] >= 20 for b in branches), counts


def test_t1_fill_and_t2_calls_read_one_runs_object(demo_instance):
    class Walked(list):
        walks = 0

        def __iter__(self):
            Walked.walks += 1
            return super().__iter__()

    D = enumerate_feasible(demo_instance)
    table = PointTable(demo_instance, D)
    runs = table.__dict__["runs"] = Walked(PointTable(demo_instance, D).runs)
    table.t1_columns()
    assert Walked.walks == 1
    for x in D:
        fresh = PointTable(demo_instance, D)
        assert boilfp_efficiency(x, demo_instance, table) == boilfp_efficiency(
            x, demo_instance, fresh
        )
    assert Walked.walks == 1 + len(D)
    assert table.runs is runs


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
    columns = table.t1_columns()
    rows = [table.criteria(k) for k in range(len(table))]
    again = [
        (moiqp_efficiency(x, demo_instance, table), boilfp_efficiency(x, demo_instance, table))
        for x in table.points
    ]
    assert again == first
    assert table.t1_columns() is columns
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
    # T1 reads no denominator, so it still runs.
    assert moiqp_efficiency((0,), inst, table).efficient
    with pytest.raises(ValueError):
        boilfp_efficiency((0,), inst, table)
    with pytest.raises(ValueError):
        solve(inst)
