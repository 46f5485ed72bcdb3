"""Branch-and-cut driver: tree shape, trace, budgets, branching, tableau copies."""

import dataclasses
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from effcut import (
    FractionalObjective,
    Instance,
    Node,
    Polyhedron,
    QuadraticObjective,
    Row,
    UnboundedError,
    branch,
    load_instance,
    oracle_solve,
    parse_instance,
    render_instance,
    select_branch_variable,
    solve,
    validate_instance,
)
from effcut import simplex
from effcut.search import render_trace
from conftest import INSTANCE_DIR
from helpers import (
    PivotCounts,
    binary_instance,
    cut_safety_failures,
    deep_instance,
    quadratics,
    random_instance,
    rational,
)
from test_cli import EMPTY_REGION

F = Fraction

EVENT_KEYS = ["node", "parent", "action", "point", "value", "H", "H_prime"]
ACTIONS = {
    "lfp_solved",
    "infeasible",
    "branched",
    "integer_found",
    "t1",
    "t2",
    "recorded",
    "fathomed",
    "cuts_added",
}

DEMO_X_EFF = ((0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1))

# Integer relaxation optima in discovery order, with their node ids.
DEMO_INTEGER_SEQUENCE = [
    (0, (0, 3, 0)),
    (2, (0, 2, 0)),
    (5, (0, 1, 0)),
    (7, (0, 1, 1)),
    (11, (0, 0, 1)),
    (13, (0, 0, 2)),
    (10, (1, 1, 1)),
    (15, (1, 0, 0)),
    (16, (1, 0, 1)),
    (17, (1, 0, 2)),
    (20, (1, 2, 0)),
]


@pytest.fixture(scope="module")
def demo_result(demo_instance):
    return solve(demo_instance)


# -- the worked instance ------------------------------------------------------


def test_demo_solution(demo_result):
    assert demo_result.x_eff == DEMO_X_EFF
    assert demo_result.complete
    assert demo_result.node_count == 16
    assert demo_result.cut_count == 21
    assert demo_result.counters == {"t1_runs": 11, "t2_runs": 7}


def test_demo_node_bookkeeping(demo_result):
    nodes = demo_result.nodes
    assert [node.id for node in nodes] == list(range(len(nodes)))
    assert nodes[0].parent is None and nodes[0].extra_rows == ()
    assert nodes[0].status == "cut_applied"
    assert nodes[3].status == "fathomed_infeasible"
    assert nodes[1].extra_rows == (
        Row.make({3: 1, 5: 1}, ">=", 1),
        Row.make({1: 1, 3: 1, 5: 1}, ">=", 1),
    )
    # Every child's row stack extends its parent's.
    for node in nodes[1:]:
        parent = nodes[node.parent]
        assert node.extra_rows[: len(parent.extra_rows)] == parent.extra_rows
    # No node was left unexplored.
    assert all(node.status != "open" for node in nodes)


def test_demo_branch_rows(demo_result):
    nodes = demo_result.nodes
    low, high = nodes[2], nodes[3]
    assert low.extra_rows[-1] == Row.make({2: 1}, "<=", 2)
    assert high.extra_rows[-1] == Row.make({2: 1}, ">=", 3)
    assert low.parent == high.parent == 1


def test_demo_single_row_when_cut_sets_coincide(demo_result):
    # Node 2 has H == H', so its successor gains one row, not two.
    nodes = demo_result.nodes
    children = [n for n in nodes if n.parent == 2]
    assert len(children) == 1
    assert len(children[0].extra_rows) == len(nodes[2].extra_rows) + 1
    assert children[0].extra_rows[-1] == Row.make({1: 1, 3: 1, 8: 1}, ">=", 1)


def test_demo_integer_sequence(demo_result):
    seq = [
        (ev["node"], tuple(int(v) for v in ev["point"]))
        for ev in demo_result.trace
        if ev["action"] == "integer_found"
    ]
    assert seq == DEMO_INTEGER_SEQUENCE


def test_demo_recorded_points_match_x_eff(demo_result):
    recorded = [
        tuple(int(v) for v in ev["point"])
        for ev in demo_result.trace
        if ev["action"] == "recorded"
    ]
    assert sorted(recorded) == list(DEMO_X_EFF)


def test_demo_counter_consistency(demo_result):
    by_action = {}
    for ev in demo_result.trace:
        by_action[ev["action"]] = by_action.get(ev["action"], 0) + 1
    assert by_action["t1"] == demo_result.counters["t1_runs"]
    assert by_action["t2"] == demo_result.counters["t2_runs"]
    assert by_action["lfp_solved"] == demo_result.node_count
    assert by_action["infeasible"] == sum(
        1 for n in demo_result.nodes if n.status == "fathomed_infeasible"
    )


# -- trace format ---------------------------------------------------------


def test_trace_first_events_exact(demo_result):
    lines = render_trace(demo_result.trace).splitlines()
    assert lines[0] == (
        '{"node":0,"parent":null,"action":"lfp_solved",'
        '"point":["0","3","0"],"value":"-19/3","H":null,"H_prime":null}'
    )
    assert lines[3] == (
        '{"node":0,"parent":null,"action":"cuts_added",'
        '"point":["0","3","0"],"value":"-19/3","H":[3,5],"H_prime":[1,3,5]}'
    )
    assert lines[4] == (
        '{"node":1,"parent":0,"action":"lfp_solved",'
        '"point":["0","5/2","0"],"value":"-17/3","H":null,"H_prime":null}'
    )
    # Depth-first: the early right branch x2 >= 3 is explored dead last.
    assert lines[-1] == (
        '{"node":3,"parent":1,"action":"infeasible",'
        '"point":null,"value":null,"H":null,"H_prime":null}'
    )


def test_trace_is_well_formed_jsonl(demo_result):
    for line in render_trace(demo_result.trace).splitlines():
        ev = json.loads(line)
        assert list(ev) == EVENT_KEYS
        assert ev["action"] in ACTIONS


def test_trace_is_byte_deterministic(demo_instance):
    first = render_trace(solve(demo_instance).trace)
    second = render_trace(solve(demo_instance).trace)
    assert first == second


def test_corpus_trajectory_is_frozen(corpus):
    # Exact arithmetic makes every pivot reproducible: a refactor of the
    # engine that computes the same numbers leaves these values unchanged.
    pivots = PivotCounts()
    digest = hashlib.sha256()
    for inst in corpus:
        digest.update(render_trace(solve(inst, observer=pivots).trace).encode())
    assert digest.hexdigest() == (
        "2f19763d9e62c01b752d7a5a7fe3a04601d4e645c2d2004cb3b39713ac6a435b"
    )
    assert pivots == {"primal": 125, "dual": 481, "phase1": 0}


def test_deep_cut_trajectory_is_frozen():
    # Binary instances carry long cut paths through many dual pivots on
    # tableaus the corpus never reaches.
    rng = random.Random(20240917)
    pivots = PivotCounts()
    digest = hashlib.sha256()
    for _ in range(20):
        res = solve(binary_instance(rng), observer=pivots)
        digest.update(render_trace(res.trace).encode())
    assert digest.hexdigest() == (
        "3ea5f4652b18c15b616f2077c99d5d8ffa5b1f7952c742ac78a7f4ee722170a2"
    )
    assert pivots == {"primal": 81, "dual": 520, "phase1": 0}


# Per instance at seed 11: trace digest and (primal, dual) pivots.  The
# first instance is instances/deep.txt.
DEEP_PATHS = (
    ("1a80ae3148a8ac95db864c4a7d87b18096556b7fc42d3f0ee28cfdf2a079d0c6", 7, 133),
    ("fc8e1244edf5176f52f82a8bf8eb518dc82bb2fe40896efbd28d61c9930d1f8e", 50, 1067),
    ("f03d8dcf06fda967f2f5df5e746ad5f7e463898c9948d0fc839ae48640b29e06", 13, 380),
    ("48da5d14b6681f4c2b34fc75f2b48e97e3b829c810d1e20e1020e07aa63cc065", 1, 3),
)


def test_deep_path_trajectory_is_frozen():
    # Tableaus of about 100 rows, which no other frozen instance reaches:
    # the bench workloads peak at 29-42 rows.
    rng = random.Random(11)
    for digest, primal, dual in DEEP_PATHS:
        inst = deep_instance(rng)
        pivots = PivotCounts()
        res = solve(inst, observer=pivots)
        assert hashlib.sha256(render_trace(res.trace).encode()).hexdigest() == digest
        assert pivots == {"primal": primal, "dual": dual, "phase1": 0}
        sets = oracle_solve(inst)
        assert res.complete
        assert res.x_eff == sets.X_Eff
        assert cut_safety_failures(inst, res, sets.X_Eff)[1] == []


def test_deep_instance_file_is_the_first_deep_instance():
    assert load_instance(str(INSTANCE_DIR / "deep.txt")) == deep_instance(random.Random(11))


# -- budgets ---------------------------------------------------------------


def test_node_budget_one_stops_after_root(demo_instance):
    res = solve(demo_instance, node_budget=1)
    assert not res.complete
    assert res.x_eff == ()
    assert res.node_count == 1
    assert any(node.status == "open" for node in res.nodes)


def test_node_budget_counts_pops_not_optima(demo_instance):
    res = solve(demo_instance, node_budget=2)
    assert not res.complete
    assert res.node_count == 2  # root and its cut successor both optimal


def test_large_budget_completes(demo_instance):
    res = solve(demo_instance, node_budget=22)
    assert res.complete
    assert res.x_eff == DEMO_X_EFF


# -- branching ----------------------------------------------------------------


def test_select_branch_variable_rules():
    x = (F(0), F(5, 2), F(0))
    assert select_branch_variable(x) == 2
    assert select_branch_variable((F(1, 2), F(3, 4))) == 1
    with pytest.raises(ValueError):
        select_branch_variable((F(1), F(2)))


def test_branch_builds_floor_and_ceiling_children():
    parent = Node(4, 1, (Row.make({1: 1}, "<=", 3),))
    low, high = branch(parent, 2, F(5, 2), 7)
    assert (low.id, high.id) == (7, 8)
    assert low.parent == high.parent == 4
    assert low.extra_rows == parent.extra_rows + (Row.make({2: 1}, "<=", 2),)
    assert high.extra_rows == parent.extra_rows + (Row.make({2: 1}, ">=", 3),)
    with pytest.raises(ValueError):
        branch(parent, 2, F(3), 7)


@pytest.mark.parametrize("name", ["demo.txt", "deep.txt"])
def test_one_tableau_copy_per_branch(name, monkeypatch):
    # The low child, popped first, gets the only copy of its parent's
    # tableau; the high child and a cut successor re-solve it in place.
    copies = []
    clone = simplex.Tableau.clone

    def counting_clone(tab):
        copies.append(tab)
        return clone(tab)

    monkeypatch.setattr(simplex.Tableau, "clone", counting_clone)
    res = solve(load_instance(str(INSTANCE_DIR / name)))
    branched = sum(ev["action"] == "branched" for ev in res.trace)
    assert branched > 0
    assert len(copies) == branched


# -- degenerate regions -------------------------------------------------------


def test_single_point_region():
    from effcut import parse_instance

    inst = parse_instance(
        "n 1\nr 2\n"
        "Q\n0\nQ\n2\n"
        "c 1\nc -1\n"
        "fractional\np 1\nq 0\nalpha 0\nbeta 1\n"
        "fractional\np -1\nq 1\nalpha 1\nbeta 2\n"
        "A\n1\nb 0\n"
    )
    res = solve(inst)
    assert res.complete
    assert res.x_eff == ((0,),)
    assert res.node_count == 1


def test_empty_region():
    inst = parse_instance(EMPTY_REGION)
    res = solve(inst)
    assert res.complete
    assert res.x_eff == oracle_solve(inst).X_Eff == ()
    assert res.node_count == 0
    assert [ev["action"] for ev in res.trace] == ["infeasible"]


def test_unbounded_region_raises():
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
    with pytest.raises(UnboundedError):
        solve(inst)


# psi_2's denominator -x1 - x2 + 5/4 falls to -1/4 on the edge x1 + x2 = 3/2,
# though it is positive at the integer points (0, 0), (1, 0) and (0, 1).
NEGATIVE_DENOMINATOR = """\
n 2
r 2
Q
1 0
0 1
Q
2 1
1 2
c -3 -1
c -1 -4
fractional
p 1 -2
q 1 1
alpha 0
beta 1
fractional
p -3 1
q -1 -1
alpha 2
beta 5/4
A
2 2
b 3
"""


def test_nonpositive_denominator_rejected():
    inst = parse_instance(NEGATIVE_DENOMINATOR)
    message = "denominator nonpositive (objective 2, minimum -1/4)"
    assert validate_instance(inst) == [message]
    with pytest.raises(ValueError) as exc:
        solve(parse_instance(NEGATIVE_DENOMINATOR))
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        oracle_solve(parse_instance(NEGATIVE_DENOMINATOR))
    assert str(exc.value) == message


def test_unvalidated_solve_equals_the_validated_solve(corpus):
    # A fresh instance solves its region LPs inside solve, a validated one
    # reads those validation cached: the same trajectory either way.
    for inst in corpus:
        text = render_instance(inst)
        fresh, validated = parse_instance(text), parse_instance(text)
        assert validate_instance(validated) == []
        a, b = solve(fresh), solve(validated)
        assert render_trace(a.trace) == render_trace(b.trace)
        assert a.x_eff == b.x_eff


def test_indefinite_criterion_rejected():
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
    with pytest.raises(ValueError, match="Q2 not positive semidefinite"):
        solve(inst)


# -- metamorphic properties ---------------------------------------------------


def _reverse(v):
    return tuple(reversed(v))


def reversed_variables(inst):
    return dataclasses.replace(
        inst,
        quadratics=tuple(
            QuadraticObjective(_reverse([_reverse(row) for row in q.Q]), _reverse(q.c))
            for q in inst.quadratics
        ),
        fractionals=tuple(
            FractionalObjective(_reverse(f.p), _reverse(f.q), f.alpha, f.beta)
            for f in inst.fractionals
        ),
        polyhedron=Polyhedron(
            tuple(_reverse(row) for row in inst.polyhedron.A), inst.polyhedron.b
        ),
    )


def first_row_scaled(inst, factor=3):
    A, b = inst.polyhedron.A, inst.polyhedron.b
    return dataclasses.replace(
        inst,
        polyhedron=Polyhedron(
            (tuple(factor * v for v in A[0]),) + A[1:], (factor * b[0],) + b[1:]
        ),
    )


def first_row_repeated_looser(inst):
    A, b = inst.polyhedron.A, inst.polyhedron.b
    return dataclasses.replace(inst, polyhedron=Polyhedron(A + (A[0],), b + (b[0] + 1,)))


def first_criterion_duplicated(inst):
    return dataclasses.replace(
        inst, r=inst.r + 1, quadratics=(inst.quadratics[0],) + inst.quadratics
    )


def test_metamorphic_properties(corpus):
    # A property that fails here is a bug to record, never a reason to
    # shrink the instance set.
    for inst in corpus[:30]:
        x_eff = solve(inst).x_eff
        assert solve(reversed_variables(inst)).x_eff == tuple(
            sorted(_reverse(x) for x in x_eff)
        )
        assert solve(first_row_scaled(inst)).x_eff == x_eff
        assert solve(first_row_repeated_looser(inst)).x_eff == x_eff
        assert solve(first_criterion_duplicated(inst)).x_eff == x_eff


def test_random_instances_complete_within_default_budget():
    rng = random.Random(37)
    for _ in range(15):
        res = solve(random_instance(rng))
        assert res.complete
        assert all(node.status != "open" for node in res.nodes)


# -- differential fuzz against the oracle --------------------------------------

# Largest box side per dimension, so that |D| stays at most 125.
FUZZ_SIDE = {1: 6, 2: 5, 3: 4, 4: 2, 5: 1}
FUZZ_REGIONS = ("random rows", "degenerate", "single point", "empty")


def fuzz_instance(data):
    """(instance, region kind) drawn from hypothesis's st.data(): n = 1-5 in
    a box of sides up to FUZZ_SIDE[n], extra rows of one kind, and, from
    one drawn Random, convex criteria with Q = M'M and a preference pair
    of rationals whose denominators are positive on x >= 0.  Kinds:

    - random rows a'x <= b, b of either sign, so D may be empty;
    - degenerate: rows a'x <= a'v through a corner v of the box, and a box
      row repeated, so more than n constraints are tight at the vertex v;
    - single point: v <= x <= v for a point v of the box, so D = {v};
    - empty: sum x >= 1 + the box's top sum.
    """
    draw = data.draw
    n = draw(st.integers(1, 5))
    upper = [draw(st.integers(0, FUZZ_SIDE[n])) for _ in range(n)]
    A = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    b = list(upper)
    kind = draw(st.sampled_from(FUZZ_REGIONS))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    if kind == "random rows":
        for _ in range(draw(st.integers(0, 3))):
            A.append(draw(row))
            b.append(draw(st.integers(-2, 8)))
    elif kind == "degenerate":
        v = [draw(st.sampled_from((0, u))) for u in upper]
        for _ in range(draw(st.integers(1, 3))):
            a = draw(row)
            A.append(a)
            b.append(sum(x * y for x, y in zip(a, v)))
        k = draw(st.integers(0, n - 1))
        A.append(A[k])
        b.append(b[k])
    elif kind == "single point":
        v = [draw(st.integers(0, u)) for u in upper]
        b = list(v)
        A += [tuple(-int(j == k) for j in range(n)) for k in range(n)]
        b += [-x for x in v]
    else:
        A.append((-1,) * n)
        b.append(-1 - sum(upper))
    rng = draw(st.randoms(use_true_random=False))
    quads = quadratics(rng, n)
    fracs = tuple(
        FractionalObjective(
            p=tuple(rational(rng, -10, 10) for _ in range(n)),
            q=tuple(rational(rng, 0, 5) for _ in range(n)),
            alpha=rational(rng, -10, 10),
            beta=rational(rng, 1, 10),
        )
        for _ in range(2)
    )
    inst = Instance(
        n=n,
        r=len(quads),
        quadratics=quads,
        fractionals=fracs,
        polyhedron=Polyhedron(tuple(A), tuple(b)),
    )
    return inst, kind


def test_solve_equals_the_oracle_under_differential_fuzz():
    # A mismatch here is a bug to fix, never a reason to narrow the strategy.
    seen = Counter()

    @seed(20240917)
    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def check(data):
        inst, kind = fuzz_instance(data)
        res, sets = solve(inst), oracle_solve(inst)
        assert res.complete
        assert res.x_eff == sets.X_Eff
        assert cut_safety_failures(inst, res, sets.X_Eff)[1] == []
        seen[kind] += 1
        seen["n = %d" % inst.n] += 1
        seen["empty D"] += not sets.D
        seen["|D| = 1"] += len(sets.D) == 1
        seen["empty X_Eff"] += bool(sets.D) and not sets.X_Eff
        seen["cuts"] += res.cut_count > 0

    check()
    expected = (*FUZZ_REGIONS, *("n = %d" % n for n in FUZZ_SIDE), "empty D",
                "|D| = 1", "empty X_Eff", "cuts")
    assert all(seen[k] for k in expected), seen
