"""Fractional simplex: registry, pricing, pivots, warm restarts."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from effcut import (
    FractionalObjective,
    Infeasible,
    Optimal,
    Polyhedron,
    Row,
    SimplexCycleError,
    System,
    Tableau,
    UnboundedError,
    add_rows_and_reoptimize,
    linear_objective,
    minimize_each,
    oracle_solve,
    solve,
    solve_lfp,
)
from effcut import simplex
from helpers import (
    RATIONAL_SEED,
    PivotCounts,
    entry,
    extend_point,
    gamma_numerators,
    integer_row,
    price,
    random_instance,
    rational,
    rational_case,
    rational_row,
    reduced_gradient,
    solve_exact,
    tableau_point,
    vertex_minimum,
)

F = Fraction

# Root cuts of the worked instance, then the branch x2 <= 2.
DEMO_PATH_ROWS = (
    Row.make({3: 1, 5: 1}, ">=", 1),
    Row.make({1: 1, 3: 1, 5: 1}, ">=", 1),
    Row.make({2: 1}, "<=", 2),
)


def box(*upper):
    """System for {0 <= x_k <= upper_k}."""
    n = len(upper)
    return System.from_polyhedron(
        Polyhedron(
            tuple(tuple(1 if j == k else 0 for j in range(n)) for k in range(n)),
            tuple(upper),
        )
    )


# -- rows and the registry ------------------------------------------------


def test_row_make_sorts_and_drops_zeros():
    row = Row.make({3: F(2), 1: 0, 2: -1}, "<=", F(4))
    assert row.coeffs == ((2, -1), (3, 2))
    assert row.rhs == 4
    assert all(type(v) is int for _, v in row.coeffs) and type(row.rhs) is int


def test_row_make_rejects_bad_input():
    with pytest.raises(ValueError):
        Row.make({1: 1}, "==", 0)
    with pytest.raises(ValueError):
        Row.make({0: 1}, "<=", 0)


def test_row_make_rejects_a_list_of_pairs():
    # A mapping has one coefficient per id; a list of pairs could repeat
    # an id and silently lose all but its last coefficient.
    with pytest.raises(AttributeError):
        Row.make([(1, 2), (1, 3)], "<=", 0)


def test_row_make_rejects_a_non_integral_coefficient():
    # Integer rows keep every slack integer at integer points, which the
    # efficiency cuts need.
    with pytest.raises(ValueError):
        Row.make({1: 1, 2: F(1, 2)}, "<=", 1)


def test_row_make_rejects_a_non_integral_rhs():
    with pytest.raises(ValueError):
        Row.make({1: 1}, ">=", F(1, 2))


def test_row_normalized_negates_ge():
    row = Row.make({1: 2, 2: -3}, ">=", 5).normalized()
    assert row.sense == "<="
    assert row.coeffs == ((1, -2), (2, 3))
    assert row.rhs == -5


def test_registry_numbering(demo_instance):
    poly = demo_instance.polyhedron
    system = System(poly.n)
    ids = [
        system.add_row(Row.make({j + 1: v for j, v in enumerate(arow)}, "<=", rhs))
        for arow, rhs in zip(poly.A, poly.b)
    ]
    assert ids == [4, 5]
    assert system.rows == System.from_polyhedron(poly).rows
    assert system.registry_size == 5
    slack = system.add_row(Row.make({3: 1, 5: 1}, ">=", 1))
    assert slack == 6
    assert system.registry_size == 6


def test_add_row_stores_rows_over_the_originals(demo_instance):
    # Rows 4 and 5: x1 + x2 + x3 <= 3 and -x1 + 2x2 + 3x3 <= 6.
    system = System.from_polyhedron(demo_instance.polyhedron)
    # -x3 - s5 <= -1 with s5 = 6 + x1 - 2x2 - 3x3.
    system.add_row(Row.make({3: 1, 5: 1}, ">=", 1))
    assert system.rows[-1] == Row(((1, -1), (2, 2), (3, 2)), "<=", 5)
    # -x1 - s6 <= -1 with s6 = 5 + x1 - 2x2 - 2x3, through row 6 to row 5.
    system.add_row(Row.make({1: 1, 6: 1}, ">=", 1))
    assert system.rows[-1] == Row(((1, -2), (2, 2), (3, 2)), "<=", 4)
    row = Row.make({2: 1, 3: -2}, ">=", 1)
    system.add_row(row)
    assert system.rows[-1] == row.normalized()
    assert all(j <= system.n for row in system.rows for j, _ in row.coeffs)


def test_add_row_rejects_unknown_variable(demo_instance):
    system = System.from_polyhedron(demo_instance.polyhedron)
    with pytest.raises(ValueError):
        system.add_row(Row.make({7: 1}, "<=", 1))


def test_extend_point_computes_slacks_in_row_order(demo_instance):
    system = System.from_polyhedron(demo_instance.polyhedron)
    system.add_row(Row.make({3: 1, 5: 1}, ">=", 1))
    ext = extend_point(system, (0, 1, 1))
    # slack4 = 3-2, slack5 = 6-5, slack6 = (x3 + slack5) - 1
    assert ext == (0, 1, 1, 1, 1, 1)
    assert system.satisfied_by((0, 1, 1))
    assert not system.satisfied_by((0, 3, 0))  # x3 + slack5 = 0 < 1


def test_satisfied_by_matches_the_fraction_reference():
    # Rational rows cleared to integers in both senses, over registry ids
    # that include earlier slacks, tested at rational points; about a
    # third of the rows are made tight at the integer point z, so some
    # slacks are exactly zero.  The reference walks the slack chain over
    # the rows as drawn, kept apart from the system's stored form.
    rng = random.Random(47)
    seen = {"verdicts": set(), "slack refs": 0, "tight and satisfied": 0}
    for _ in range(200):
        n = rng.randint(1, 3)
        system, drawn = System(n), []
        x = tuple(rational(rng, 0, 4) for _ in range(n))
        z = tuple(range(n))
        tight = False
        for _ in range(rng.randint(1, 4)):
            size = system.registry_size
            ids = rng.sample(range(1, size + 1), rng.randint(1, size))
            coeffs = [rational(rng, -4, 4) for _ in ids]
            seen["slack refs"] += max(ids) > n
            if rng.random() < 0.3:
                ext = extend_point(system, z, drawn)
                rhs = sum(v * ext[j - 1] for j, v in zip(ids, coeffs))
                tight = True
            else:
                rhs = rational(rng, -6, 10)
            a, c = integer_row(coeffs, rhs)
            row = Row.make(dict(zip(ids, a)), rng.choice(("<=", ">=")), c)
            drawn.append(row.normalized())
            system.add_row(row)
        points = [x, tuple(v + rational(rng, -2, 2) for v in x), z]
        for y in points:
            want = all(v >= 0 for v in extend_point(system, y, drawn))
            # The point as integer numerators over a common denominator,
            # the least one and a multiple of it.
            den = lcm(*(F(v).denominator for v in y))
            nums = [int(v * den) for v in y]
            assert system.satisfied_by(nums, den) == want
            assert system.satisfied_by([3 * v for v in nums], 3 * den) == want
            seen["verdicts"].add(want)
        seen["tight and satisfied"] += tight and system.satisfied_by(z)
        with pytest.raises(ValueError):
            system.satisfied_by(z + (0,))
        with pytest.raises(ValueError):
            system.satisfied_by(z[:-1])
    assert seen["verdicts"] == {True, False}
    assert seen["slack refs"] and seen["tight and satisfied"]


def test_finish_rejects_an_optimum_outside_its_system(demo_instance):
    obj = demo_instance.fractionals[0]
    tab = solve_lfp(System.from_polyhedron(demo_instance.polyhedron), obj).tableau
    priced = tab._primal(obj)
    # A row the tableau never saw, violated at every x >= 0.
    tab.system.add_row(Row.make({1: 1}, "<=", -1))
    with pytest.raises(RuntimeError, match="violates its own system"):
        simplex._finish(tab, priced)


def test_system_copy_is_independent(demo_instance):
    system = System.from_polyhedron(demo_instance.polyhedron)
    twin = system.copy()
    twin.add_row(Row.make({1: 1}, "<=", 1))
    assert system.registry_size == 5
    assert twin.registry_size == 6


# -- small exact solves -----------------------------------------------------


def test_minimize_linear_over_box():
    out = solve_lfp(box(3, 4), linear_objective((2, -5), 7))
    assert isinstance(out, Optimal)
    assert out.point == (0, 4)
    assert out.value == -13


def test_minimize_fractional_over_segment():
    # (x - 1)/(x + 1) is increasing, so the minimum on [0, 1] sits at 0.
    obj = FractionalObjective((F(1),), (F(1),), F(-1), F(1))
    out = solve_lfp(box(1), obj)
    assert out.point == (0,)
    assert out.value == -1


def test_two_phase_reaches_lower_bound():
    system = box(3)
    system.add_row(Row.make({1: 1}, ">=", 1))  # negative rhs after normalization
    out = solve_lfp(system, linear_objective((1,)))
    assert isinstance(out, Optimal)
    assert out.point == (1,)
    assert out.value == 1


def test_two_phase_certifies_empty_region():
    system = box(1)
    system.add_row(Row.make({1: 1}, ">=", 2))
    assert isinstance(solve_lfp(system, linear_objective((1,))), Infeasible)


def test_unbounded_objective_raises():
    system = System.from_polyhedron(Polyhedron(((1, -1),), (0,)))
    with pytest.raises(UnboundedError):
        solve_lfp(system, linear_objective((-1, 0)))


def test_minimize_each_reads_none_for_an_unbounded_objective():
    # x1 <= x2 and x1 <= 2: x1 is bounded above, x2 is not.
    system = System.from_polyhedron(Polyhedron(((1, -1), (1, 0)), (0, 2)))
    objectives = [
        linear_objective((-1, 0)),
        linear_objective((0, -1)),  # unbounded below
        FractionalObjective((F(-1), F(1)), (F(1), F(0)), F(1), F(1)),
        linear_objective((1, -1)),  # unbounded below
        linear_objective((-1, 1), 3),
    ]
    minima = minimize_each(system, objectives)
    assert minima == [-2, None, F(1, 3), None, 3]
    for obj, got in zip(objectives, minima):
        if got is None:
            with pytest.raises(UnboundedError):
                solve_lfp(system, obj)
        else:
            assert got == solve_lfp(system, obj).value
    empty = box(1)
    empty.add_row(Row.make({1: 1}, ">=", 2))
    assert isinstance(minimize_each(empty, objectives), Infeasible)


def test_redundant_zero_row_is_harmless():
    system = box(3, 4)
    system.add_row(Row.make({}, "<=", 1))
    out = solve_lfp(system, linear_objective((2, -5), 7))
    assert out.point[:2] == (0, 4)
    assert out.value == -13


def test_constant_objective_prices_to_zero():
    # p = 2q and alpha = 2 beta makes the objective identically 2.
    obj = FractionalObjective((F(2), F(4)), (F(1), F(2)), F(6), F(3))
    out = solve_lfp(box(2, 2), obj)
    assert out.value == 2
    assert all(g == 0 for g in out.gamma.values())
    assert all(g == 0 for g in price(out.tableau, obj)[2].values())


def test_degenerate_vertex_terminates():
    # Three constraints meet at (1, 1); plenty of zero-ratio pivots.
    poly = Polyhedron(((1, 0), (0, 1), (1, 1)), (1, 1, 2))
    out = solve_lfp(System.from_polyhedron(poly), linear_objective((-1, -1)))
    assert out.point == (1, 1)
    assert out.value == -2


# -- the worked instance ------------------------------------------------------


def test_demo_root_optimum(demo_instance):
    obj = demo_instance.fractionals[0]
    out = solve_lfp(System.from_polyhedron(demo_instance.polyhedron), obj)
    assert out.point == (0, 3, 0)
    assert out.value == F(-19, 3)
    tab = out.tableau
    assert sorted(tab.basis) == [2, 4]
    assert tab.nonbasis() == [1, 3, 5]
    P, Q, gamma1 = price(tab, obj)
    assert (P, Q) == (-19, 3)
    assert gamma1 == {1: 16, 3: 34, 5: 6}
    # Optimal.gamma is gamma over the pricing scale (L d)^2, here (1 * 2)^2.
    assert (obj.integers[-1], tab.d) == (1, 2)
    assert out.gamma == {1: 64, 3: 136, 5: 24}
    gamma2 = price(tab, demo_instance.fractionals[1])[2]
    assert gamma2 == {1: -9, 3: -22, 5: -2}


def test_demo_root_dictionary_rows(demo_instance):
    obj = demo_instance.fractionals[0]
    tab = solve_lfp(System.from_polyhedron(demo_instance.polyhedron), obj).tableau

    def row(var_id):
        i = tab.basis.index(var_id)
        return {j: entry(tab, i, j) for j in tab.nonbasis()}, F(tab.rhs[i], tab.d)

    assert row(2) == ({1: F(-1, 2), 3: F(3, 2), 5: F(1, 2)}, 3)
    assert row(4) == ({1: F(3, 2), 3: F(-1, 2), 5: F(-1, 2)}, 0)


def test_demo_warm_restart_after_cut_rows(demo_instance):
    obj = demo_instance.fractionals[0]
    root = solve_lfp(System.from_polyhedron(demo_instance.polyhedron), obj)
    out = add_rows_and_reoptimize(
        root.tableau.clone(),
        [Row.make({3: 1, 5: 1}, ">=", 1), Row.make({1: 1, 3: 1, 5: 1}, ">=", 1)],
        obj,
    )
    assert out.point == (0, F(5, 2), 0)
    assert out.value == F(-17, 3)
    tab = out.tableau
    assert tab.basis == [4, 2, 6, 5]
    assert price(tab, obj)[2] == {1: 8, 3: 26, 7: 6}
    assert price(tab, demo_instance.fractionals[1])[2] == {1: F(-11, 2), 3: -18, 7: -2}
    # the original tableau is untouched
    assert root.tableau.system.registry_size == 5


def test_demo_warm_restart_detects_infeasible_branch(demo_instance):
    obj = demo_instance.fractionals[0]
    root = solve_lfp(System.from_polyhedron(demo_instance.polyhedron), obj)
    step = add_rows_and_reoptimize(
        root.tableau.clone(),
        [Row.make({3: 1, 5: 1}, ">=", 1), Row.make({1: 1, 3: 1, 5: 1}, ">=", 1)],
        obj,
    )
    out = add_rows_and_reoptimize(step.tableau.clone(), [Row.make({2: 1}, ">=", 3)], obj)
    assert isinstance(out, Infeasible)


def warm_and_fresh(inst, rows):
    """The root optimum warm-started over rows, and a cold solve with them."""
    obj = inst.fractionals[0]
    root = solve_lfp(System.from_polyhedron(inst.polyhedron), obj)
    warm = add_rows_and_reoptimize(root.tableau.clone(), rows, obj)

    system = System.from_polyhedron(inst.polyhedron)
    for row in rows:
        system.add_row(row)
    return warm, solve_lfp(system, obj)


def test_warm_restart_matches_fresh_solve(demo_instance):
    warm, fresh = warm_and_fresh(demo_instance, DEMO_PATH_ROWS)
    assert warm.value == fresh.value == -5
    assert warm.point == fresh.point == (0, 2, 0)


def assert_gamma_of_its_basis(out, obj):
    tab = out.tableau
    assert out.gamma == gamma_numerators(tab, obj, price(tab, obj)[2])
    assert all(type(g) is int for g in out.gamma.values())


def test_optimum_carries_the_gamma_of_its_basis(demo_instance):
    obj = demo_instance.fractionals[0]
    for out in warm_and_fresh(demo_instance, DEMO_PATH_ROWS):
        assert_gamma_of_its_basis(out, obj)
    rng = random.Random(37)
    for _ in range(20):
        inst = random_instance(rng)
        for obj in inst.fractionals:
            out = solve_lfp(System.from_polyhedron(inst.polyhedron), obj)
            assert_gamma_of_its_basis(out, obj)


# -- certificates and invariants ---------------------------------------------


def test_optimum_certificate_on_random_instances():
    rng = random.Random(23)
    for _ in range(30):
        inst = random_instance(rng)
        for obj in inst.fractionals:
            out = solve_lfp(System.from_polyhedron(inst.polyhedron), obj)
            assert isinstance(out, Optimal)
            tab = out.tableau
            assert all(g >= 0 for g in price(tab, obj)[2].values())
            assert all(v >= 0 for v in tab.rhs)
            den = lcm(*(v.denominator for v in out.point))
            assert tab.system.satisfied_by([int(v * den) for v in out.point], den)
            assert obj.value(out.point) == out.value


def test_optimum_matches_vertex_enumeration():
    rng = random.Random(29)
    for _ in range(30):
        inst = random_instance(rng)
        for obj in inst.fractionals:
            out = solve_lfp(System.from_polyhedron(inst.polyhedron), obj)
            assert out.value == vertex_minimum(inst.polyhedron, obj)


def test_observer_sees_monotone_primal_and_consistent_points(demo_instance):
    obj = demo_instance.fractionals[0]
    seen = []

    def observer(tag, tab):
        x = tab.original_point()
        ext = extend_point(tab.system, x)
        assert ext == tableau_point(tab)
        if tag == "primal" and all(v >= 0 for v in tab.rhs):
            seen.append(obj.value(x))

    out = solve_lfp(System.from_polyhedron(demo_instance.polyhedron), obj, observer)
    assert seen, "expected at least one primal pivot"
    assert all(a >= b for a, b in zip(seen, seen[1:]))
    assert seen[-1] == out.value


def assert_tableau_is_basis_inverse(tab, rows=None):
    """Each body/d and rhs/d equals B^-1 [A | I | b], solved afresh by
    Gaussian elimination.  [A | I | b] is built from rows, '<=' rows over
    the registry that may name earlier slacks, by default the tableau's
    own system's."""
    assert tab.d > 0
    system = tab.system
    rows = system.rows if rows is None else rows
    m, ncols = len(rows), system.n + len(rows)
    matrix = [[F(0)] * ncols for _ in range(m)]
    for k, row in enumerate(rows):
        for j, v in row.coeffs:
            matrix[k][j - 1] = v
        matrix[k][system.n + k] = F(1)  # row k's slack has id n + k + 1
    basis = [[matrix[r][b - 1] for b in tab.basis] for r in range(m)]
    for k in range(ncols + 1):
        if k < ncols:
            column = [matrix[r][k] for r in range(m)]
            got = [entry(tab, i, k + 1) for i in range(m)]
        else:
            column = [row.rhs for row in rows]
            got = [F(v, tab.d) for v in tab.rhs]
        assert list(solve_exact(basis, column)) == got


def test_rational_data_on_the_integer_tableau():
    # No bench or corpus instance has a denominator in its preferences or
    # a row coefficient other than 0 and +-1; here the preferences are
    # rational and each rational row is cleared by its lcm, so d != 1.
    rng = random.Random(RATIONAL_SEED)
    tags, scaled = [], []

    def observer(tag, tab):
        tags.append(tag)
        scaled.append(tab.d != 1)
        assert_tableau_is_basis_inverse(tab)

    outcomes = []
    for _ in range(30):
        poly, obj = rational_case(rng)
        n = poly.n
        out = solve_lfp(System.from_polyhedron(poly), obj, observer)
        best = vertex_minimum(poly, obj)
        outcomes.append(best is None)
        if best is None:
            assert isinstance(out, Infeasible)
            continue
        assert out.value == best
        assert_tableau_is_basis_inverse(out.tableau)

        # One more rational row, warm.
        a, c = rational_row(rng, n)
        grown = Polyhedron(poly.A + (tuple(-v for v in a),), poly.b + (-c,))
        row = Row.make({j + 1: v for j, v in enumerate(a)}, ">=", c)
        warm = add_rows_and_reoptimize(out.tableau, [row], obj, observer)
        best = vertex_minimum(grown, obj)
        outcomes.append(best is None)
        if best is None:
            assert isinstance(warm, Infeasible)
        else:
            assert warm.value == best
            assert_tableau_is_basis_inverse(warm.tableau)
    assert any(outcomes) and not all(outcomes)
    assert {"phase1", "dual", "primal"} <= set(tags)
    assert any(scaled)


def assert_sparse_rows(tab):
    """The row-sparse layout: no stored zero, no id outside the registry,
    row_of the inverse of basis, and each basic column reading d in its
    own row and absent from every other."""
    assert tab.d > 0
    assert all(v for row in tab.body for v in row.values())
    assert all(1 <= k <= tab.ncols for row in tab.body for k in row)
    assert tab.row_of == {b: i for i, b in enumerate(tab.basis)}
    for i, b in enumerate(tab.basis):
        assert [k for k, row in enumerate(tab.body) if b in row] == [i]
        assert tab.body[i][b] == tab.d


def pivot_kernel_case(rng):
    """A seeded integer system with entries in -4..4 and rhs of either sign,
    a linear objective, one more row for a warm re-solve, which may name
    slacks, and every row as drawn in '<=' form."""
    n = rng.randint(2, 4)
    drawn = []
    for _ in range(rng.randint(2, 5)):
        coeffs = {j: rng.randint(-4, 4) for j in range(1, n + 1)}
        drawn.append(Row.make(coeffs, "<=", rng.randint(-6, 12)))
    obj = linear_objective([rng.randint(-5, 5) for _ in range(n)])
    ids = rng.sample(range(1, n + len(drawn) + 1), 2)
    extra = Row.make({j: rng.randint(-4, 4) for j in ids}, ">=", rng.randint(-3, 6))
    system = System(n)
    for row in drawn:
        system.add_row(row)
    return system, obj, extra, drawn + [extra.normalized()]


def test_pivot_kernel_matches_the_fraction_reference(monkeypatch):
    # Every pivot of about 300 seeded systems is checked entry by entry
    # against B^-1 [A | I | b] in Fractions, built from the rows as drawn,
    # and against the sparse layout; each branch of the kernel must run.
    kernel = Tableau.pivot
    hits = Counter()
    drawn = []

    def checked(tab, row, col_id):
        p, d = abs(tab.body[row][col_id]), tab.d
        for i, brow in enumerate(tab.body):
            if i == row:
                continue
            if col_id in brow:
                hits["hit, p == d" if p == d else "hit, p != d"] += 1
            elif p != d:
                hits["unhit, rescaled"] += 1
        kernel(tab, row, col_id)
        assert_sparse_rows(tab)
        assert_tableau_is_basis_inverse(tab, drawn[: len(tab.basis)])

    monkeypatch.setattr(Tableau, "pivot", checked)
    rng = random.Random(4242)
    outcomes = Counter()
    for _ in range(300):
        system, obj, extra, rows = pivot_kernel_case(rng)
        drawn[:] = rows
        try:
            out = solve_lfp(system, obj)
            if isinstance(out, Optimal):
                tab = out.tableau
                out = add_rows_and_reoptimize(tab, [extra], obj)
                assert_sparse_rows(tab)
                assert_tableau_is_basis_inverse(tab, drawn)
        except UnboundedError:
            out = None
        outcomes[type(out).__name__] += 1
    assert set(outcomes) == {"Optimal", "Infeasible", "NoneType"}, outcomes
    assert set(hits) == {"hit, p == d", "hit, p != d", "unhit, rescaled"}, hits


def reference_pricing(tab, obj):
    """(P, Q, gamma) at the tableau's vertex in Fractions, with gamma_j =
    Q(x*) reduced(p)_j - P(x*) reduced(q)_j."""
    x = tab.original_point()
    P, Q = obj.numerator(x), obj.denominator(x)
    eta, theta = reduced_gradient(tab, obj.p), reduced_gradient(tab, obj.q)
    return P, Q, {j: Q * eta[j] - P * theta[j] for j in eta}


def test_pricing_over_one_scale_matches_the_fraction_reference():
    # The tableau prices numerator and denominator over their joint lcm;
    # here many preferences clear p and q with different lcms.
    rng = random.Random(RATIONAL_SEED)
    optima, split = 0, 0
    for _ in range(30):
        poly, obj = rational_case(rng)
        out = solve_lfp(System.from_polyhedron(poly), obj)
        if isinstance(out, Infeasible):
            continue
        split += lcm(*(v.denominator for v in (*obj.p, obj.alpha))) != lcm(
            *(v.denominator for v in (*obj.q, obj.beta))
        )
        a, c = rational_row(rng, poly.n)
        row = Row.make({j + 1: v for j, v in enumerate(a)}, ">=", c)
        warm = add_rows_and_reoptimize(out.tableau.clone(), [row], obj)
        for res in (out, warm):
            if isinstance(res, Optimal):
                P, Q, gamma = reference_pricing(res.tableau, obj)
                assert res.value == P / Q
                assert res.gamma == gamma_numerators(res.tableau, obj, gamma)
                assert price(res.tableau, obj) == (P, Q, gamma)
                optima += 1
    assert split >= 10 and optima >= 20


def test_reduced_gradient_of_slackless_function(demo_instance):
    # With nothing basic but slacks the reduced row is the gradient itself.
    system = System.from_polyhedron(demo_instance.polyhedron)
    from effcut import Tableau

    tab = Tableau(system)
    grad = (7, -3, 2)
    assert reduced_gradient(tab, grad) == {1: 7, 2: -3, 3: 2}


# -- forced paths ------------------------------------------------------------


def corpus_pivots(corpus):
    """Solve the corpus, checking each efficient set; pivots by tag."""
    pivots = PivotCounts()
    for inst in corpus:
        assert solve(inst, observer=pivots).x_eff == oracle_solve(inst).X_Eff
    return pivots


_real_dual = Tableau._dual


def _cycling_dual(self, obj, observer=None, tag="dual"):
    """Every warm dual pass cycles; the cold feasibility pass still runs."""
    if tag == "dual":
        raise SimplexCycleError("forced")
    return _real_dual(self, obj, observer, tag)


def test_cycle_fallback_matches_fresh_solve(demo_instance, monkeypatch):
    monkeypatch.setattr(Tableau, "_dual", _cycling_dual)
    warm, fresh = warm_and_fresh(demo_instance, DEMO_PATH_ROWS)
    assert warm.value == fresh.value == -5
    assert warm.point == fresh.point == (0, 2, 0)


def test_cycle_fallback_solves_the_corpus(corpus, monkeypatch):
    # Every warm start falls back to a cold solve, whose feasibility pass
    # then runs through cut rows that reference earlier slacks.
    monkeypatch.setattr(Tableau, "_dual", _cycling_dual)
    assert corpus_pivots(corpus) == {"primal": 504, "dual": 0, "phase1": 343}


def test_bland_rule_from_the_first_pivot(corpus, monkeypatch):
    monkeypatch.setattr(simplex, "STALL_FACTOR", -(10**6))
    rng = random.Random(31)
    ge_rng = random.Random(37)
    empty = []
    for _ in range(30):
        inst = random_instance(rng)
        # Two rows a'x >= b with b >= 1 cut off the origin, so the
        # feasibility pass starts from at least two infeasible rows.
        ge = [
            ([ge_rng.randint(0, 3) for _ in range(inst.n)], ge_rng.randint(1, 4))
            for _ in range(2)
        ]
        poly = Polyhedron(
            inst.polyhedron.A + tuple(tuple(-v for v in a) for a, _ in ge),
            inst.polyhedron.b + tuple(-b for _, b in ge),
        )
        for obj in inst.fractionals:
            out = solve_lfp(System.from_polyhedron(poly), obj)
            best = vertex_minimum(poly, obj)
            empty.append(best is None)
            if best is None:
                assert isinstance(out, Infeasible)
            else:
                assert out.value == best
    assert any(empty) and not all(empty)
    # Bland's rule flips the dual pass too, so both counts move away from
    # the default rule's 125 primal and 481 dual pivots.
    assert corpus_pivots(corpus) == {"primal": 146, "dual": 631, "phase1": 0}
