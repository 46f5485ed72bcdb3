"""Cut construction: reduced criterion rows, index sets, cut rows."""

import random
from fractions import Fraction

import pytest

from effcut import (
    Infeasible,
    Instance,
    Optimal,
    Row,
    System,
    add_rows_and_reoptimize,
    build_cut_report,
    build_H,
    build_H_prime,
    make_cut,
    solve_lfp,
)
from helpers import (
    RATIONAL_SEED,
    entry,
    quadratics,
    random_instance,
    rational_case,
    rational_row,
    reduced_gradient,
)

F = Fraction


def demo_root_tableau(inst):
    out = solve_lfp(System.from_polyhedron(inst.polyhedron), inst.fractionals[0])
    return out.tableau


def f_bar_fractions(rep, tab):
    """The report's f_bar numerators over their scale d^2, as Fractions."""
    den = tab.d * tab.d
    return tuple({j: F(v, den) for j, v in row.items()} for row in rep.f_bar)


# -- index-set rules ----------------------------------------------------------


def test_build_H_keeps_decreasing_and_all_flat_columns():
    f_bar = (
        {1: F(2), 2: F(-1), 3: F(0), 4: F(5)},
        {1: F(3), 2: F(4), 3: F(0), 4: F(-2)},
    )
    assert build_H(f_bar) == (2, 3, 4)


def test_build_H_empty_when_every_column_strictly_worsens_something():
    f_bar = ({1: F(1), 2: F(0)}, {1: F(0), 2: F(2)})
    assert build_H(f_bar) == ()


def test_build_H_prime_rules():
    gamma1 = {1: F(0), 2: F(3), 3: F(0), 4: F(1)}
    gamma2 = {1: F(0), 2: F(-2), 3: F(4), 4: F(0)}
    # 1: both zero; 2: gamma2 < 0; 3 and 4: neither rule applies.
    assert build_H_prime(gamma1, gamma2) == (1, 2)


def test_build_H_prime_empty():
    assert build_H_prime({1: F(1)}, {1: F(1)}) == ()


def test_make_cut():
    row = make_cut((3, 5))
    assert row == Row.make({3: 1, 5: 1}, ">=", 1)
    with pytest.raises(ValueError):
        make_cut(())


# -- the worked instance ------------------------------------------------------


def test_demo_root_cut_report(demo_instance):
    tab = demo_root_tableau(demo_instance)
    rep = build_cut_report(demo_instance, tab)
    assert rep.H == (3, 5)
    assert rep.H_prime == (1, 3, 5)
    f_bar = f_bar_fractions(rep, tab)
    assert f_bar[0] == {1: 61, 3: -55, 5: -26}
    assert f_bar[1] == {1: F(297, 2), 3: F(-425, 2), 5: F(-153, 2)}
    assert f_bar[2] == {1: 86, 3: -22, 5: 1}
    # f_bar holds those over d^2, d = 2.
    assert tab.d == 2 and rep.f_bar[2] == {1: 344, 3: -88, 5: 4}
    assert rep.cut_moiqp == Row.make({3: 1, 5: 1}, ">=", 1)
    assert rep.cut_boilfp == Row.make({1: 1, 3: 1, 5: 1}, ">=", 1)


def test_demo_cut_report_three_nodes_down(demo_instance):
    # Apply the root cuts plus the branch x2 <= 2 and read the next report.
    obj = demo_instance.fractionals[0]
    tab = demo_root_tableau(demo_instance)
    out = add_rows_and_reoptimize(
        tab,
        [
            Row.make({3: 1, 5: 1}, ">=", 1),
            Row.make({1: 1, 3: 1, 5: 1}, ">=", 1),
            Row.make({2: 1}, "<=", 2),
        ],
        obj,
    )
    assert out.point == (0, 2, 0)
    rep = build_cut_report(demo_instance, out.tableau)
    assert rep.H == (1, 3, 8)
    assert rep.H_prime == (1, 3, 8)
    f_bar = f_bar_fractions(rep, out.tableau)
    assert f_bar[0] == {1: -8, 3: 3, 8: -10}
    assert f_bar[1] == {1: 50, 3: -1, 8: -132}
    assert f_bar[2] == {1: 70, 3: -40, 8: 8}
    # Equal sets mean the two cut rows coincide.
    assert rep.cut_moiqp == rep.cut_boilfp == Row.make({1: 1, 3: 1, 8: 1}, ">=", 1)


def test_cut_report_absent_rows_signal_fathoming():
    # A one-variable region whose single criterion only worsens off x* = 0.
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
            QuadraticObjective(((2,),), (1,)),
        ),
        fractionals=(
            FractionalObjective((F(1),), (F(0),), F(0), F(1)),
            FractionalObjective((F(1),), (F(0),), F(0), F(1)),
        ),
        polyhedron=Polyhedron(((1,),), (3,)),
    )
    out = solve_lfp(System.from_polyhedron(inst.polyhedron), inst.fractionals[0])
    assert out.point == (0,)
    rep = build_cut_report(inst, out.tableau)
    assert rep.H == () and rep.cut_moiqp is None
    assert rep.H_prime == () and rep.cut_boilfp is None


# -- linearization identity ---------------------------------------------------


def column_direction(tab, j):
    """Unit step of nonbasic j expressed over the original variables."""
    n = tab.system.n
    direction = [F(0)] * n
    if j <= n:
        direction[j - 1] = F(1)
    for i, bid in enumerate(tab.basis):
        if bid <= n:
            direction[bid - 1] -= entry(tab, i, j)
    return tuple(direction)


def test_f_bar_equals_gradient_dot_column_direction(demo_instance):
    tab = demo_root_tableau(demo_instance)
    x_star = tab.original_point()
    rep = build_cut_report(demo_instance, tab)
    for obj, row in zip(demo_instance.quadratics, f_bar_fractions(rep, tab)):
        grad = obj.gradient(x_star)
        for j in tab.nonbasis():
            d = column_direction(tab, j)
            assert row[j] == sum(g * v for g, v in zip(grad, d))


def test_f_bar_identity_on_random_instances():
    rng = random.Random(31)
    for _ in range(20):
        inst = random_instance(rng)
        out = solve_lfp(System.from_polyhedron(inst.polyhedron), inst.fractionals[0])
        assert isinstance(out, Optimal)
        tab = out.tableau
        rep = build_cut_report(inst, tab)
        x_star = tab.original_point()
        for obj, row in zip(inst.quadratics, f_bar_fractions(rep, tab)):
            grad = obj.gradient(x_star)
            for j in tab.nonbasis():
                d = column_direction(tab, j)
                assert row[j] == sum(g * v for g, v in zip(grad, d))


def test_f_bar_equals_the_reduced_fraction_gradient():
    # Integer instances, whose root vertices are often fractional, then
    # the rational systems of the integer-tableau test, each row cleared
    # by its lcm: there d != 1 and the integer gradient (QX + cd)/d is
    # reduced over d^2.  Those are checked cold and after one more row
    # warm.
    cases, scaled = [], 0
    rng = random.Random(31)
    for _ in range(20):
        inst = random_instance(rng)
        out = solve_lfp(System.from_polyhedron(inst.polyhedron), inst.fractionals[0])
        cases.append((inst, out.tableau))
    rng, quad_rng = random.Random(RATIONAL_SEED), random.Random(59)
    for _ in range(30):
        poly, obj = rational_case(rng)
        out = solve_lfp(System.from_polyhedron(poly), obj)
        if isinstance(out, Infeasible):
            continue
        quads = quadratics(quad_rng, poly.n)
        inst = Instance(poly.n, len(quads), quads, (obj, obj), poly)
        cases.append((inst, out.tableau.clone()))
        scaled += out.tableau.d != 1
        a, c = rational_row(rng, poly.n)
        row = Row.make({j + 1: v for j, v in enumerate(a)}, ">=", c)
        warm = add_rows_and_reoptimize(out.tableau, [row], obj)
        if isinstance(warm, Optimal):
            cases.append((inst, warm.tableau))
    fractional = 0
    for inst, tab in cases:
        x_star = tab.original_point()
        want = tuple(reduced_gradient(tab, obj.gradient(x_star)) for obj in inst.quadratics)
        assert f_bar_fractions(build_cut_report(inst, tab), tab) == want
        fractional += any(v.denominator != 1 for v in x_star)
    assert fractional and scaled


def test_cut_report_from_the_optimum_gamma_equals_a_fresh_pricing():
    rng = random.Random(41)
    for _ in range(20):
        inst = random_instance(rng)
        out = solve_lfp(System.from_polyhedron(inst.polyhedron), inst.fractionals[0])
        priced = build_cut_report(inst, out.tableau)
        assert build_cut_report(inst, out.tableau, out.gamma) == priced
