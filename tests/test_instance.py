"""Instance model: parsing, rendering, evaluation, validation."""

import dataclasses
import random
from fractions import Fraction

import pytest

from effcut import (
    FractionalObjective,
    Instance,
    InstanceFormatError,
    Polyhedron,
    QuadraticObjective,
    coordinate_bounds,
    load_instance,
    oracle_solve,
    parse_instance,
    render_instance,
    simplex,
    solve,
    validate_instance,
)
from helpers import (
    binary_instance,
    is_psd_reference,
    quadratics,
    random_instance,
    solve_exact,
    validate_cold,
)

F = Fraction

# A 21-line valid instance; error tests mutate single lines of it.
MINIMAL = """\
n 1
r 2
Q
0
Q
2
c 1
c -1
fractional
p 1
q 0
alpha 0
beta 1
fractional
p -1
q 1
alpha 1
beta 2
A
1
b 3
"""


def replace_line(text: str, lineno: int, new: str) -> str:
    lines = text.splitlines()
    lines[lineno - 1] = new
    return "\n".join(lines) + "\n"


# -- parsing ---------------------------------------------------------------


def test_parse_demo_shape(demo_instance):
    inst = demo_instance
    assert (inst.n, inst.r) == (3, 3)
    assert len(inst.quadratics) == 3
    assert len(inst.fractionals) == 2
    assert inst.polyhedron.m == 2
    assert inst.polyhedron.A == ((1, 1, 1), (-1, 2, 3))
    assert inst.polyhedron.b == (3, 6)
    assert inst.quadratics[0].Q[0] == (50, 43, 20)
    assert inst.quadratics[0].c == (-94, -74, -37)
    assert inst.fractionals[0].p == (1, -4, -1)
    assert inst.fractionals[0].beta == 3
    assert inst.fractionals[1].q == (1, 1, 1)


def test_parse_minimal():
    inst = parse_instance(MINIMAL)
    assert (inst.n, inst.r) == (1, 2)
    assert inst.quadratics[0].Q == ((0,),)
    assert inst.fractionals[1].alpha == 1


def test_parse_accepts_comments_and_blank_lines():
    noisy = "# header\n\n" + MINIMAL.replace("alpha 0", "alpha 0  # inline")
    assert parse_instance(noisy) == parse_instance(MINIMAL)


def test_parse_accepts_rationals_in_fractional_blocks_only():
    inst = parse_instance(replace_line(MINIMAL, 12, "alpha -7/3"))
    assert inst.fractionals[0].alpha == F(-7, 3)
    with pytest.raises(InstanceFormatError):
        parse_instance(replace_line(MINIMAL, 21, "b 3/2"))


def test_parse_roundtrip_demo(demo_instance):
    assert parse_instance(render_instance(demo_instance)) == demo_instance


def test_parse_roundtrip_random():
    rng = random.Random(11)
    for _ in range(20):
        inst = random_instance(rng)
        text = render_instance(inst)
        assert parse_instance(text) == inst
        assert render_instance(parse_instance(text)) == text


# -- format errors -----------------------------------------------------------


@pytest.mark.parametrize(
    "lineno,new,needle",
    [
        (1, "n 0", "n must be positive"),
        (2, "r 1", "r must be at least 2"),
        (7, "c z", "integer"),
        (10, "p 1 2", "expected 1"),
        (12, "gamma 0", "alpha"),
        (12, "alpha 1/0", "bad rational literal"),
        (12, "alpha x", "bad rational literal"),
        (20, "1 2", None),
    ],
)
def test_parse_errors(lineno, new, needle):
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(replace_line(MINIMAL, lineno, new))
    if needle is not None:
        assert needle in str(err.value)


@pytest.mark.parametrize("tok", ["+3", "-0", "007", "4/2", "-6/4"])
def test_parse_rational_literal_is_the_fraction_of_it(tok):
    # An integer literal takes the int path, any other Fraction's parser:
    # either way the field is the Fraction Fraction(tok) would give.
    inst = parse_instance(replace_line(MINIMAL, 12, "alpha " + tok))
    first = dataclasses.replace(parse_instance(MINIMAL).fractionals[0], alpha=Fraction(tok))
    assert inst.fractionals[0] == first
    assert type(inst.fractionals[0].alpha) is Fraction


def test_parse_error_carries_line_number():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(replace_line(MINIMAL, 7, "c zebra"))
    assert err.value.line == 7


def test_parse_rejects_trailing_content():
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(MINIMAL + "junk 1\n")
    assert err.value.line == 22
    assert "trailing" in str(err.value)


def test_parse_rejects_asymmetric_q():
    text = (
        "n 2\nr 2\n"
        "Q\n0 1\n2 0\n"
        "Q\n2 0\n0 2\n"
        "c 1 0\nc 0 1\n"
        "fractional\np 1 0\nq 0 0\nalpha 0\nbeta 1\n"
        "fractional\np 0 1\nq 0 0\nalpha 0\nbeta 1\n"
        "A\n1 1\nb 3\n"
    )
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert "symmetric" in str(err.value)
    assert err.value.line == 3  # points at the offending Q block


def test_parse_rejects_empty_a_block():
    text = MINIMAL.replace("A\n1\n", "A\n")
    text = text.replace("b 3", "b")
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert "A block is empty" in str(err.value)


# -- evaluation ---------------------------------------------------------------


def test_quadratic_values_demo(demo_instance):
    f1, _, f3 = demo_instance.quadratics
    assert f1.value((0, 0, 0)) == 0
    assert f1.value((0, 3, 0)) == -33
    assert f3.value((0, 1, 1)) == -53


def test_fractional_values_demo(demo_instance):
    psi1, psi2 = demo_instance.fractionals
    assert psi1.value((0, 0, 0)) == F(-7, 3)
    assert psi1.value((0, 3, 0)) == F(-19, 3)
    assert psi2.value((0, 3, 0)) == F(1, 5)


def test_fractional_value_is_numerator_over_denominator(demo_instance):
    psi1, psi2 = demo_instance.fractionals
    for x in ((0, 0, 0), (0, 3, 0), (1, 0, 2), (F(1, 2), 1, F(3, 2))):
        for frac in (psi1, psi2):
            assert frac.value(x) * frac.denominator(x) == frac.numerator(x)


def test_fractional_value_is_exact_for_int_fields():
    # (x_1 + 2 x_2) / (3 x_2): int fields, int point, one exact Fraction.
    frac = FractionalObjective((1, 2), (0, 3), 0, 0)
    for got, want in (
        (frac.value((1, 1)), F(1)),
        (frac.value((0, 2)), F(2, 3)),
        (frac.value((1, 3)), F(7, 9)),
        (frac.numerator((1, 3)), F(7)),
        (frac.denominator((1, 3)), F(9)),
        (FractionalObjective((1, 2), (0, 1), 0, 1).value((1, 1)), F(3, 2)),
    ):
        assert type(got) is Fraction and got == want
    with pytest.raises(ZeroDivisionError):
        frac.value((1, 0))


def test_gradient_demo(demo_instance):
    f1, _, f3 = demo_instance.quadratics
    assert f1.gradient((0, 0, 0)) == f1.c
    assert f1.gradient((0, 3, 0)) == (35, 52, 23)
    assert f3.gradient((0, 1, 1)) == (96, 1, -17)


def test_gradient_matches_central_difference():
    rng = random.Random(5)
    for _ in range(50):
        inst = random_instance(rng)
        obj = inst.quadratics[0]
        x = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(inst.n))
        h = F(rng.randint(1, 7), rng.randint(1, 5))
        for i, g in enumerate(obj.gradient(x)):
            lo = tuple(v - h if j == i else v for j, v in enumerate(x))
            hi = tuple(v + h if j == i else v for j, v in enumerate(x))
            assert (obj.value(hi) - obj.value(lo)) / (2 * h) == g


def test_wrong_dimension_rejected(demo_instance):
    with pytest.raises(ValueError):
        demo_instance.quadratics[0].value((1, 2))
    with pytest.raises(ValueError):
        demo_instance.quadratics[0].gradient((1, 2, 3, 4))
    with pytest.raises(ValueError):
        demo_instance.fractionals[0].value((1,))
    with pytest.raises(ValueError):
        demo_instance.polyhedron.contains((1, 2))


def test_polyhedron_contains(demo_instance):
    poly = demo_instance.polyhedron
    assert poly.contains((0, 3, 0))
    assert poly.contains((F(1, 2), 1, F(3, 2)))
    assert not poly.contains((0, 0, 3))  # second row: 9 > 6
    assert not poly.contains((-1, 0, 0))


def test_instance_invariants(demo_instance):
    quads = demo_instance.quadratics
    fracs = demo_instance.fractionals
    poly = demo_instance.polyhedron
    with pytest.raises(ValueError):
        Instance(3, 2, quads, fracs, poly)  # count disagrees with r
    with pytest.raises(ValueError):
        Instance(3, 3, quads, (fracs[0],), poly)
    with pytest.raises(ValueError):
        Instance(2, 3, quads, fracs, poly)
    with pytest.raises(ValueError):
        QuadraticObjective(((0, 1), (1, 0)), (0,))
    with pytest.raises(ValueError):
        FractionalObjective((F(1),), (F(1), F(2)), F(0), F(1))
    with pytest.raises(ValueError):
        Polyhedron(((1, 0),), (1, 2))


def test_polyhedron_rejects_non_integral_data():
    with pytest.raises(ValueError):
        Polyhedron(((1, F(1, 2)),), (1,))
    with pytest.raises(ValueError):
        Polyhedron(((1, 0),), (F(1, 2),))
    assert Polyhedron(((F(2), 0),), (F(4),)).contains((2, 0))


# -- positive semidefiniteness ------------------------------------------------


@pytest.mark.parametrize(
    "Q,expected",
    [
        (((0, 0), (0, 0)), True),
        (((2, 1), (1, 1)), True),
        (((1, 1), (1, 1)), True),
        (((2, -2), (-2, 2)), True),
        (((0, 0), (0, 5)), True),
        (((1, 2), (2, 1)), False),
        (((0, 1), (1, 0)), False),
        (((-1, 0), (0, 1)), False),
    ],
)
def test_is_psd(Q, expected):
    obj = QuadraticObjective(Q, tuple(0 for _ in Q))
    assert obj.is_psd() is expected
    assert is_psd_reference(Q) is expected


def random_symmetric(rng, n):
    """A symmetric integer matrix of one of three kinds: M'M with M of
    rank at most n (PSD, singular when the rank falls short), that Gram
    matrix minus a rank-one term (often indefinite), or random entries."""
    kind = rng.randrange(3)
    if kind == 2:
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        return tuple(
            tuple(rows[min(i, j)][max(i, j)] for j in range(n)) for i in range(n)
        )
    M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))]
    u = [rng.randint(-2, 2) for _ in range(n)] if kind else [0] * n
    return tuple(
        tuple(sum(r[i] * r[j] for r in M) - u[i] * u[j] for j in range(n))
        for i in range(n)
    )


def test_integer_is_psd_agrees_with_the_fraction_elimination():
    rng = random.Random(11)
    verdicts = []
    for _ in range(3000):
        n = rng.randint(1, 5)
        Q = random_symmetric(rng, n)
        expected = is_psd_reference(Q)
        assert QuadraticObjective(Q, (0,) * n).is_psd() is expected, Q
        verdicts.append((expected, solve_exact(Q, (0,) * n) is None))
    # PSD and indefinite matrices, each both singular and not.
    assert {(True, True), (False, True), (True, False), (False, False)} <= set(verdicts)


def test_is_psd_gram_matrices():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        M = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        Q = tuple(
            tuple(sum(M[k][i] * M[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        assert QuadraticObjective(Q, tuple(0 for _ in range(n))).is_psd()


# -- validation ---------------------------------------------------------------


def test_validate_demo(demo_instance):
    assert validate_instance(demo_instance) == []


def test_validate_random_corpus_sample():
    rng = random.Random(17)
    for _ in range(10):
        assert validate_instance(random_instance(rng)) == []


def test_validate_single_point_region():
    inst = parse_instance(replace_line(MINIMAL, 21, "b 0"))
    assert validate_instance(inst) == []


def test_validate_flags_nonpositive_denominator():
    text = replace_line(MINIMAL, 17, "alpha 0")
    text = replace_line(text, 16, "q 0")
    text = replace_line(text, 18, "beta -10")
    violations = validate_instance(parse_instance(text))
    assert any("denominator" in v and "objective 2" in v for v in violations)


def test_validate_flags_unbounded_region():
    inst = Instance(
        n=2,
        r=2,
        quadratics=(
            QuadraticObjective(((0, 0), (0, 0)), (1, 1)),
            QuadraticObjective(((2, 0), (0, 2)), (0, 0)),
        ),
        fractionals=(
            FractionalObjective((F(1), F(0)), (F(0), F(0)), F(0), F(1)),
            FractionalObjective((F(0), F(1)), (F(0), F(0)), F(0), F(1)),
        ),
        polyhedron=Polyhedron(((1, -1),), (0,)),
    )
    assert validate_instance(inst) == [
        "unbounded region (x1 has no finite maximum)",
        "unbounded region (x2 has no finite maximum)",
    ]


def screening_instance(rng: random.Random) -> Instance:
    """An instance that may break any precondition: some coordinates lack
    an upper row, rhs may be negative, denominators take either sign, and
    a criterion may be negated to concave."""
    n = rng.randint(1, 4)
    rows, rhs = [], []
    for k in range(n):
        if rng.random() < 0.75:
            rows.append(tuple(int(j == k) for j in range(n)))
            rhs.append(rng.randint(-1, 5))
    for _ in range(rng.randint(0 if rows else 1, 2)):
        rows.append(tuple(rng.randint(-3, 3) for _ in range(n)))
        rhs.append(rng.randint(-3, 8))
    quads = list(quadratics(rng, n))
    if rng.random() < 0.2:
        Q, c = quads[0].Q, quads[0].c
        quads[0] = QuadraticObjective(tuple(tuple(-v for v in row) for row in Q), c)
    fracs = tuple(
        FractionalObjective(
            p=tuple(F(rng.randint(-5, 5)) for _ in range(n)),
            q=tuple(F(rng.randint(-2, 4), rng.randint(1, 3)) for _ in range(n)),
            alpha=F(rng.randint(-5, 5)),
            beta=F(rng.randint(-3, 8), rng.randint(1, 3)),
        )
        for _ in range(2)
    )
    return Instance(n, len(quads), tuple(quads), fracs, Polyhedron(tuple(rows), tuple(rhs)))


def test_validate_equals_one_cold_solve_per_question():
    rng = random.Random(1313)
    seen = {}
    for _ in range(600):
        inst = screening_instance(rng)
        got = validate_instance(inst)
        assert got == validate_cold(inst)
        unbounded = sum(v.startswith("unbounded region") for v in got)
        kinds = {
            "valid": not got,
            "empty": "empty feasible region" in got,
            "one unbounded": unbounded == 1,
            "several unbounded": unbounded > 1,
            "denominator unbounded": any("unbounded below" in v for v in got),
            "denominator minimum": any("minimum" in v for v in got),
            "concave": any("semidefinite" in v for v in got),
        }
        for kind, hit in kinds.items():
            seen[kind] = seen.get(kind, 0) + hit
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("which", ["demo", "binary"])
def test_one_minimize_each_call_per_instance(which, demo_path, monkeypatch):
    # Validation, the solver and the oracle all read inst.lp_minima.
    calls = []
    original = simplex.minimize_each

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(simplex, "minimize_each", counting)
    if which == "demo":
        inst = load_instance(demo_path)
    else:
        inst = binary_instance(random.Random(3))
    assert validate_instance(inst) == []
    solve(inst)
    oracle_solve(inst)
    assert len(calls) == 1


def test_replaced_polyhedron_computes_its_own_minima(demo_path):
    inst = load_instance(demo_path)
    assert validate_instance(inst) == []
    empty = dataclasses.replace(
        inst, polyhedron=Polyhedron(inst.polyhedron.A, (-1, -1))
    )
    assert isinstance(empty.lp_minima, simplex.Infeasible)
    assert validate_instance(empty) == ["empty feasible region"]
    smaller = dataclasses.replace(inst, polyhedron=Polyhedron(inst.polyhedron.A, (1, 2)))
    assert smaller.lp_minima != inst.lp_minima
    assert validate_instance(smaller) == validate_cold(smaller)
    assert coordinate_bounds(smaller) == (1, 1, 0)
    assert coordinate_bounds(inst) == (3, 3, 2)


def test_validate_flags_empty_region():
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
    assert "empty feasible region" in validate_instance(inst)


def test_validate_flags_indefinite_criterion():
    inst = Instance(
        n=2,
        r=2,
        quadratics=(
            QuadraticObjective(((2, 0), (0, 2)), (0, 0)),
            QuadraticObjective(((0, 1), (1, 0)), (0, 0)),
        ),
        fractionals=(
            FractionalObjective((F(1), F(0)), (F(0), F(0)), F(0), F(1)),
            FractionalObjective((F(0), F(1)), (F(0), F(0)), F(0), F(1)),
        ),
        polyhedron=Polyhedron(((1, 0), (0, 1)), (2, 2)),
    )
    assert validate_instance(inst) == ["Q2 not positive semidefinite"]
