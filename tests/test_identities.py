import operator
import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trigident.algebra import Polynomial
from trigident.dsl import parse
from trigident.fourier import linearize_closed
from trigident.identities import (
    CATALOG,
    Add,
    Bracket,
    BracketKind,
    IdentityStatement,
    Mul,
    Num,
    Pow,
    Sub,
    Var,
    Verdict,
    bracket_poly,
    catalog,
    catalog_entry,
    expr_to_poly,
    expr_value,
    reduce_difference,
    render_report,
    report_json,
    spot_check,
    verify,
)
from trigident import identities
from trigident.identities import (
    _WITNESS_DRAWS,
    _Block,
    _Decision,
    _PowerSums,
    _degrees,
    _integer_witness,
    _on_surface,
    _postorder,
    _power_sums_agree,
    _sample_point,
    _triple,
    _value,
)

A = Polynomial.variable("a")
B = Polynomial.variable("b")
C = Polynomial.variable("c")
D = Polynomial.variable("d")


def random_point(rng, constrained=False):
    def entry():
        num = 0
        while num == 0:
            num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 9))

    if constrained:
        a, b, c = entry(), entry(), entry()
        return (a, b, c, b * c / a)
    return (entry(), entry(), entry(), entry())


def test_degree_two_difference_bracket():
    p = bracket_poly(BracketKind.D, 2)
    assert p == 6 * B * C - 6 * A * D
    assert str(p) == "6*b*c - 6*a*d"


def test_brackets_vanish_in_degrees_zero_and_one():
    assert bracket_poly(BracketKind.D, 0) == Polynomial.zero()
    assert bracket_poly(BracketKind.D, 1) == Polynomial.zero()
    assert bracket_poly(BracketKind.A, 1) == Polynomial.zero()
    assert bracket_poly(BracketKind.B, 1) == Polynomial.zero()
    assert bracket_poly(BracketKind.A, 0) == Polynomial.constant(3)


def test_brackets_are_homogeneous():
    for kind in BracketKind:
        for power in range(2, 11):
            p = bracket_poly(kind, power)
            assert all(sum(m) == power for m in p.terms)


def test_difference_bracket_term_counts():
    counts = [len(bracket_poly(BracketKind.D, power).terms) for power in range(6, 21)]
    assert counts == [50, 84, 98, 144, 162, 220, 242, 312, 338, 420, 450, 544, 578, 684, 722]


def test_bracket_value_agrees_with_expanded_polynomial():
    rng = random.Random(17)
    for _ in range(30):
        point = random_point(rng)
        for kind in BracketKind:
            for power in range(0, 9):
                direct = expr_value(Bracket(kind, power), point)
                expanded = bracket_poly(kind, power).evaluate(point)
                assert direct == expanded


def test_expression_expansion_matches_manual_polynomial():
    expr = Sub(
        Mul(Num(Fraction(2)), Pow(Add(Var("a"), Var("b")), 2)),
        Mul(Var("a"), Var("b")),
    )
    assert expr_to_poly(expr) == 2 * (A + B) ** 2 - A * B


def test_expansion_builds_each_bracket_once(monkeypatch):
    # A(5) three times in the tree, and its three fifth powers built once.
    exponents, power = [], Polynomial.__pow__
    monkeypatch.setattr(Polynomial, "__pow__", lambda self, exponent: exponents.append(exponent) or power(self, exponent))
    a5 = Bracket(BracketKind.A, 5)
    expanded = expr_to_poly(Add(Mul(a5, a5), a5))
    monkeypatch.undo()
    assert exponents.count(5) == 3
    assert expanded == bracket_poly(BracketKind.A, 5) ** 2 + bracket_poly(BracketKind.A, 5)


def test_catalog_is_fixed_and_ordered():
    names = [s.name for s in catalog()]
    assert names == [
        "ramanujan-6-10-8",
        "gen-3-7-5-six",
        "gen-3-7-5-three",
        "asym-6-8-factored",
        "asym-6-8-r2",
    ]
    assert catalog_entry("ramanujan-6-10-8").constrained
    assert not catalog_entry("gen-3-7-5-three").constrained
    with pytest.raises(KeyError):
        catalog_entry("no-such-identity")


def test_all_catalog_entries_are_proved():
    for statement in catalog():
        report = verify(statement)
        assert report.verdict is Verdict.PROVED, statement.name
        assert report.reduced_terms == 0
        assert report.witness is None
        assert report.elapsed < 10.0


def test_verify_falsifies_unconstrained_degree_two_bracket():
    statement = IdentityStatement(
        "d2-zero", Bracket(BracketKind.D, 2), Num(Fraction(0)), constrained=False
    )
    report = verify(statement)
    assert report.verdict is Verdict.FALSIFIED
    assert report.reduced_terms == 2
    assert report.witness is not None
    assert expr_value(statement.lhs, report.witness) != 0


def test_degree_two_bracket_vanishes_under_the_constraint():
    statement = IdentityStatement(
        "d2-zero", Bracket(BracketKind.D, 2), Num(Fraction(0)), constrained=True
    )
    report = verify(statement)
    assert report.verdict is Verdict.PROVED


def corrupted_ramanujan():
    original = catalog_entry("ramanujan-6-10-8")
    return IdentityStatement(
        "ramanujan-corrupted",
        original.lhs,
        Mul(Num(Fraction(44)), Pow(Bracket(BracketKind.D, 8), 2)),
        constrained=True,
    )


def test_verify_falsifies_a_corrupted_constant():
    report = verify(corrupted_ramanujan())
    assert report.verdict is Verdict.FALSIFIED
    assert report.reduced_terms > 0
    a, b, c, d = report.witness
    assert a * d == b * c
    assert all(v != 0 for v in (a, b, c, d))


def test_witness_search_is_deterministic_in_the_seed():
    first = verify(corrupted_ramanujan(), seed=3)
    second = verify(corrupted_ramanujan(), seed=3)
    assert first.witness == second.witness


def test_spot_check_passes_catalog_entries():
    for statement in catalog():
        report = spot_check(statement, trials=100, seed=0)
        assert report.verdict is Verdict.PROVED, statement.name
        assert report.reduced_terms == 0
        assert report.witness is None


def test_spot_check_catches_the_corrupted_constant():
    report = spot_check(corrupted_ramanujan(), trials=100, seed=0)
    assert report.verdict is Verdict.FALSIFIED
    assert report.witness is not None
    assert report.reduced_terms > 0
    a, b, c, d = report.witness
    assert a * d == b * c
    for v in (a, b, c):
        assert v != 0
        assert abs(v.numerator) <= 9 and 1 <= v.denominator <= 9
    assert report.witness == (Fraction(3, 7), Fraction(-8, 5), Fraction(7, 8), Fraction(-49, 15))
    assert report.reduced_terms == 169
    repeat = spot_check(corrupted_ramanujan(), trials=100, seed=0)
    assert repeat.witness == report.witness


def test_spot_check_rejects_nonpositive_trials():
    with pytest.raises(ValueError):
        spot_check(catalog_entry("asym-6-8-r2"), trials=0)


def test_constrained_entries_hold_on_the_a_zero_slice():
    # The d := b*c/a elimination only covers a != 0; these points have
    # a = 0 and satisfy a*d = b*c because one of b, c vanishes too.
    slice_points = [
        (Fraction(0), Fraction(5), Fraction(0), Fraction(7)),
        (Fraction(0), Fraction(0), Fraction(-3), Fraction(2)),
        (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(-9, 4)),
    ]
    for statement in catalog():
        if not statement.constrained:
            continue
        for point in slice_points:
            assert expr_value(statement.lhs, point) == expr_value(
                statement.rhs, point
            ), (statement.name, point)


def test_a_falsified_report_counts_its_terms_when_read():
    # The first seeded draw falsifies each of these, so the report is built
    # without expanding; reduced_terms then expands the difference once.
    d2 = IdentityStatement("d2-zero", Bracket(BracketKind.D, 2), Num(Fraction(0)), constrained=False)
    for statement in (corrupted_ramanujan(), d2):
        terms = len(reduce_difference(statement).terms)
        with mock.patch.object(identities, "reduce_difference", side_effect=AssertionError("expanded early")):
            reports = [verify(statement), spot_check(statement)]
        for report in reports:
            assert report.verdict is Verdict.FALSIFIED
            elapsed = report.elapsed
            with mock.patch.object(identities, "reduce_difference", wraps=reduce_difference) as expand:
                assert report.reduced_terms == report.reduced_terms == terms
            assert expand.call_count == 1
            assert report.elapsed == elapsed


def test_report_rendering():
    report = verify(catalog_entry("asym-6-8-r2"))
    line = render_report(report)
    assert line.startswith("PROVED asym-6-8-r2 reduced_terms=0 elapsed=")
    assert line.endswith("ms")

    failed = verify(corrupted_ramanujan())
    line = render_report(failed)
    assert line.startswith("FALSIFIED ramanujan-corrupted witness=(")
    assert line.count(",") == 3


def test_report_json_shape():
    import json

    payload = json.loads(report_json(verify(catalog_entry("gen-3-7-5-three"))))
    assert payload == {
        "verdict": "PROVED",
        "name": "gen-3-7-5-three",
        "reduced_terms": 0,
        "elapsed_ms": payload["elapsed_ms"],
        "witness": None,
    }
    payload = json.loads(report_json(verify(corrupted_ramanujan())))
    assert payload["verdict"] == "FALSIFIED"
    assert len(payload["witness"]) == 4


def test_negative_powers_raise_on_both_routes():
    point = (Fraction(3, 7), Fraction(-8, 5), Fraction(7, 8), Fraction(-49, 15))
    cases = [
        (Pow(Var("a"), -2), "exponent must be a non-negative integer, got -2"),
        (Bracket(BracketKind.A, -1), "bracket power must be non-negative, got -1"),
        (Mul(Num(Fraction(2)), Bracket(BracketKind.D, -3)), "bracket power must be non-negative, got -3"),
    ]
    for expr, message in cases:
        with pytest.raises(ValueError, match=message):
            expr_to_poly(expr)
        with pytest.raises(ValueError, match=message):
            expr_value(expr, point)
        with pytest.raises(ValueError, match=message):
            _degrees(expr, "bcd")
        statement = IdentityStatement("negative", expr, Num(Fraction(0)), constrained=False)
        with pytest.raises(ValueError, match=message):
            spot_check(statement, trials=1)
        with pytest.raises(ValueError, match=message):
            verify(statement)


# ----------------------------------------------------------------------
# the exact evaluation certificate


@pytest.mark.parametrize(
    "text, points",
    [
        ("ramanujan-6-10-8", 289),
        ("gen-3-7-5-six", 121),
        ("gen-3-7-5-three", 286),
        ("asym-6-8-factored", 81),
        ("asym-6-8-r2", 81),
        # Exactly two and exactly four full blocks, under the constraint and
        # on the unconstrained tensor grid.
        pytest.param("constraint: a*d - b*c = 0; b^15*c^15 == c^15*b^15", 256, id="blocks-two-256"),
        pytest.param("a*b^7*c^7*d^7 == d^7*c^7*b^7*a", 512, id="blocks-four-512"),
    ],
)
def test_certificate_point_counts(text, points):
    statement = catalog_entry(text) if text in CATALOG else parse(text)
    decision = _Decision(statement)
    blocks = list(decision.blocks())
    # Every block is full but the last, and none is empty.
    sizes = [len(block) for block in blocks]
    assert 0 < sizes[-1] <= identities._BLOCK_SIZE
    assert sizes[:-1] == [identities._BLOCK_SIZE] * (len(sizes) - 1)
    grid = block_points(blocks)
    assert decision.grid_count == len(grid) == len(set(grid)) == points
    assert grid == certificate_points(statement)
    for a, b, c, d in grid:
        assert a >= 1
        assert a * d == b * c or not statement.constrained


def block_points(blocks):
    """Every point of the blocks in order, one tuple each."""
    return [point for block in blocks for point in block.points]


def certificate_points(statement):
    """The certificate's points enumerated one by one, as a reference for the blocks.

    They are t*(1, b, c, d), or (t, t*b, t*c, t*b*c) under the constraint,
    over the smaller grid in lexicographic order, with t innermost.
    """
    decision = _Decision(statement)
    degrees = decision.degrees
    top = max(degrees, default=0)
    sides = [min(bound, top) + 1 for bound in decision.bounds]
    if not statement.constrained and comb(top + 3, 3) < prod(sides):
        grid = [(b, c, d) for b in range(top + 1) for c in range(top + 1 - b) for d in range(top + 1 - b - c)]
    else:
        grid = product(*map(range, sides))
    scales = range(1, len(degrees) + 1)
    if statement.constrained:
        return [(t, t * b, t * c, t * b * c) for b, c in grid for t in scales]
    return [(t, t * b, t * c, t * d) for b, c, d in grid for t in scales]


def values_by_block(statement):
    """(point, lhs, rhs, difference) at each certificate point, from the blocks ``spot_check`` evaluates.

    Each side is compiled alone, and the difference is the decision's
    program, lhs - rhs as the degree pass prunes it.  They must be what
    ``reference_value`` gives, and what a block of that point alone gives,
    of the same types.
    """
    decision = _Decision(statement)
    blocks = decision.blocks()
    if blocks is None:
        return []
    programs = (_postorder(statement.lhs), _postorder(statement.rhs), decision.program)
    by_block = [
        (point, *values)
        for block in blocks
        for point, *values in zip(block.points, *(block.values(program) for program in programs))
    ]
    by_point = [
        (point, *(_Block([point]).values(program)[0] for program in programs))
        for point in certificate_points(statement)
    ]
    assert by_block == by_point
    for point, lhs, rhs, difference in by_block:
        expected = reference_value(statement.lhs, point), reference_value(statement.rhs, point)
        assert (lhs, rhs, difference) == (*expected, expected[0] - expected[1])
    assert [tuple(map(type, values)) for values in by_block] == [tuple(map(type, values)) for values in by_point]
    return by_block


def test_values_at_certificate_points_are_ints():
    # An integral point and integral constants keep the certificate out of
    # Fraction, in a block as at one point.  Two of the five certificates,
    # of 289 and 286 points, span more than one block.
    sizes = []
    for statement in catalog():
        values = values_by_block(statement)
        sizes.append(len(values))
        for _, lhs, rhs, difference in values:
            assert type(lhs) is int
            assert type(rhs) is int
            assert type(difference) is int
    assert sum(size > identities._BLOCK_SIZE for size in sizes) == 2


def test_degree_sets_are_sumsets():
    # The first member is the pruned program, the last says whether the
    # tree has no variable.
    sum_of_two = Add(Mul(Var("a"), Var("b")), Pow(Add(Var("a"), Bracket(BracketKind.D, 5)), 2))
    assert _degrees(sum_of_two, "bcd") == (_postorder(sum_of_two), frozenset({2, 10, 6}), (10, 10, 10), False)
    zero, one = Num(Fraction(0)), Num(Fraction(1))
    assert _degrees(Mul(zero, Var("d")), "bc") == (_postorder(zero), frozenset(), (1, 1), False)
    assert _degrees(Pow(zero, 0), "bc") == (_postorder(one), frozenset({0}), (0, 0), True)
    three_a2 = Mul(Bracket(BracketKind.A, 2), Num(Fraction(3)))
    assert _degrees(three_a2, "bc") == (_postorder(three_a2), frozenset({2}), (2, 2), True)


def program_key(program):
    """A program as ``identities._key`` flattens a tree: each node's type and own fields, its children left out.

    Two programs have equal keys exactly when they are the ``_postorder``
    of equal trees, even where a node kept its children as given.
    """
    fields = {Num: ("value",), Var: ("name",), Bracket: ("kind", "power"), Pow: ("exponent",)}
    return tuple(item for node in program for item in (type(node), *(getattr(node, name) for name in fields.get(type(node), ()))))


def same_nodes(program, expr):
    """Whether ``program`` is ``_postorder(expr)`` node for node, each the very same object."""
    nodes = _postorder(expr)
    return len(program) == len(nodes) and all(map(operator.is_, program, nodes))


def test_a_huge_power_is_over_budget_before_any_degree_set_is_built(monkeypatch):
    def unexpected(left, right):
        raise AssertionError("built a degree set")

    monkeypatch.setattr(identities, "_sumset", unexpected)
    with pytest.raises(ValueError) as excinfo:
        _degrees(Pow(Add(Var("a"), Num(Fraction(1))), 10**12), "bcd")
    assert str(excinfo.value) == "degree at least 1000000000000 is over the budget of 10000"


# ----------------------------------------------------------------------
# The degree pass that the bitmask one replaced, frozen as its reference:
# J as a frozenset, with a sumset built pair by pair.

_REFERENCE_CONSTANT = frozenset({0})


def reference_degrees(expr, free):
    nodes, bracket_only = [], True
    for node in identities._postorder(expr):
        kind = type(node)
        if kind is Num:
            degrees, bounds = (frozenset() if node.value == 0 else _REFERENCE_CONSTANT), (0,) * len(free)
        elif kind is Var:
            names = "bc" if node.name == "d" and "d" not in free else node.name
            degrees, bounds = frozenset({1}), tuple(int(name in names) for name in free)
            bracket_only = False
        elif kind is Bracket:
            degrees, bounds = frozenset({node.power}), (node.power,) * len(free)
        elif kind is Pow:
            base, base_degrees, base_bounds = nodes.pop()
            if node.exponent > REFERENCE_BUDGET and not any(base_degrees):
                raise reference_over_budget(f"exponent {node.exponent}")
            degrees = reference_multiple(base_degrees, node.exponent)
            bounds = tuple(node.exponent * bound for bound in base_bounds)
            if node.exponent == 0:
                node = Num(Fraction(1))
            elif base is not node.base:
                node = Pow(base, node.exponent)
        else:
            right, right_degrees, right_bounds = nodes.pop()
            left, left_degrees, left_bounds = nodes.pop()
            if kind is Mul:
                degrees = reference_sumset(left_degrees, right_degrees)
                bounds = tuple(map(lambda x, y: x + y, left_bounds, right_bounds))
            else:
                degrees, bounds = left_degrees | right_degrees, tuple(map(max, left_bounds, right_bounds))
                reference_within_budget(len(degrees))
            if left is not node.left or right is not node.right:
                node = kind(left, right)
        top = max(degrees, default=0)
        if top > REFERENCE_BUDGET:
            raise reference_over_budget(f"degree {top}")
        nodes.append((node if degrees or kind is Num else Num(Fraction(0)), degrees, bounds))
    return (*nodes.pop(), bracket_only)


REFERENCE_BUDGET = 10_000


def reference_within_budget(size):
    if size > REFERENCE_BUDGET:
        raise reference_over_budget(f"degree at least {size - 1}")


def reference_over_budget(what):
    return ValueError(f"{what} is over the budget of {REFERENCE_BUDGET}")


def reference_sumset(left, right):
    if left and right:
        reference_within_budget(len(left) + len(right) - 1)
    result = frozenset(i + j for i in left for j in right)
    reference_within_budget(len(result))
    return result


def reference_multiple(degrees, exponent):
    if len(degrees) > 1:
        reference_within_budget(exponent * (len(degrees) - 1) + 1)
    result = _REFERENCE_CONSTANT
    while exponent:
        if exponent & 1:
            result = reference_sumset(result, degrees)
        exponent >>= 1
        if exponent:
            degrees = reference_sumset(degrees, degrees)
    return result


def degree_outcome(degrees, expr, free):
    """What a degree pass gives: its program's key, whether it is ``expr``'s own postorder, J, the bounds and the flag, or the error."""
    try:
        program, found, bounds, bracket_only = degrees(expr, free)
    except ValueError as exc:
        return str(exc)
    assert type(found) is frozenset
    return program_key(program), same_nodes(program, expr), found, bounds, bracket_only


def reference_program(expr, free):
    """``reference_degrees`` with its pruned tree compiled by ``_postorder``."""
    pruned, *rest = reference_degrees(expr, free)
    return (_postorder(pruned), *rest)


# Zero factors, zeroth powers, exponents of 10**12 and brackets over the
# budget; the small exponents keep the reference's pairwise sumsets cheap.
degree_trees = st.recursive(
    st.one_of(
        st.sampled_from([Fraction(0), Fraction(1), Fraction(-3, 2)]).map(Num),
        st.sampled_from("abcd").map(Var),
        st.builds(Bracket, st.sampled_from(list(BracketKind)),
                  st.sampled_from([0, 1, 2, 3, 5, 12, 5000, 10_000, 10_001, 10**12])),
    ),
    lambda children: st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Pow, children, st.sampled_from([0, 1, 2, 3, 10_000, 10_001, 10**12])),
    ),
    max_leaves=10,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(degree_trees, st.sampled_from(["bcd", "bc"]))
@example(Pow(Add(Var("a"), Num(Fraction(1))), 10**12), "bcd")
@example(Mul(Num(Fraction(0)), Pow(Var("b"), 10**12)), "bc")
@example(Pow(Mul(Num(Fraction(0)), Bracket(BracketKind.D, 10**12)), 0), "bcd")
@example(Pow(Add(Num(Fraction(1)), Pow(Var("a"), 5000)), 3), "bcd")
@example(Pow(Add(Add(Num(Fraction(1)), Var("a")), Bracket(BracketKind.A, 9000)), 2), "bcd")
@example(Mul(Pow(Add(Var("a"), Num(Fraction(1))), 99), Pow(Add(Var("b"), Pow(Var("c"), 3)), 100)), "bc")
# Refused by a sumset's lower bound on its size, before it is built.
@example(Pow(Add(Add(Num(Fraction(1)), Var("a")), Bracket(BracketKind.A, 10_000)), 4999), "bcd")
# Degrees with a common step and a least one over 0: {2, 4}^3, and {5000, 10000}^2.
@example(Pow(Add(Pow(Var("a"), 2), Bracket(BracketKind.D, 4)), 3), "bcd")
@example(Pow(Sub(Bracket(BracketKind.A, 5000), Bracket(BracketKind.B, 10_000)), 2), "bc")
def test_degree_pass_matches_the_frozenset_reference(expr, free):
    assert degree_outcome(_degrees, expr, free) == degree_outcome(reference_program, expr, free)


def test_a_wide_power_product_has_every_degree_below_the_budget():
    # J of (1 + a)^4999*(1 + a)^5000 is 0..9,999: one shift-or per member of
    # the smaller side, where pairwise sums took seconds.
    statement = parse("(1 + a)^4999*(1 + a)^5000 == 0", "wide")
    assert _Decision(statement).degrees == frozenset(range(10_000))
    over = parse("(1 + a)^5000*(1 + a)^5001 == 0", "over")
    with pytest.raises(ValueError, match="^over: degree at least 10001 is over the budget of 10000$"):
        _Decision(over)


def test_a_certificate_over_the_point_budget_has_no_points():
    # (100 + 1)^2 points on the (b, c) grid, for the single degree 100.
    statement = IdentityStatement("over", Bracket(BracketKind.D, 100), Bracket(BracketKind.D, 100), constrained=True)
    decision = _Decision(statement)
    assert (decision.grid_count, decision.blocks()) == (10_201, None)


# ----------------------------------------------------------------------
# differential tests against the all-Fraction evaluator


def reference_value(expr, point):
    """The all-Fraction evaluator that the integer-pair evaluator replaced."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        return point["abcd".index(expr.name)]
    if isinstance(expr, Bracket):
        return reference_bracket_value(expr.kind, expr.power, point)
    if isinstance(expr, Add):
        return reference_value(expr.left, point) + reference_value(expr.right, point)
    if isinstance(expr, Sub):
        return reference_value(expr.left, point) - reference_value(expr.right, point)
    if isinstance(expr, Mul):
        return reference_value(expr.left, point) * reference_value(expr.right, point)
    if isinstance(expr, Pow):
        return reference_value(expr.base, point) ** expr.exponent
    raise TypeError(f"not an expression node: {expr!r}")


def reference_bracket_value(kind, power, point):
    a, b, c, d = point
    if kind is BracketKind.D:
        one = reference_bracket_value(BracketKind.A, power, point)
        two = reference_bracket_value(BracketKind.B, power, point)
        return one - two
    if kind is BracketKind.A:
        x, y, z = b + c + d, -(a + b + c), a - d
    else:
        x, y, z = a + c + d, -(a + b + d), b - c
    return x ** power + y ** power + z ** power


def reference_reports(statement, trials, seed):
    """(verdict, witness, reduced_terms) of spot_check and of verify, by reference_value.

    Both verdicts are FALSIFIED exactly when the reduced difference is
    nonzero, and the witness is then the first seeded draw where the sides
    differ.  When none of the ``trials`` draws differs, spot_check reports a
    point of its certificate instead; its witness here is None.
    """
    reduced = reduce_difference(statement)
    if not reduced:
        return (Verdict.PROVED, None, 0), (Verdict.PROVED, None, 0)

    def first_difference(draws):
        rng = random.Random(seed)
        for _ in range(draws):
            point = _sample_point(statement.constrained, rng)
            if reference_value(statement.lhs, point) != reference_value(statement.rhs, point):
                return point
        return None

    terms = len(reduced.terms)
    witness = first_difference(_WITNESS_DRAWS) or _integer_witness(reduced, statement.constrained)
    return (Verdict.FALSIFIED, first_difference(trials), terms), (Verdict.FALSIFIED, witness, terms)


def degree_bound(expr):
    """An upper bound on the degree of every subexpression the expansion builds."""
    if isinstance(expr, Var):
        return 1
    if isinstance(expr, Bracket):
        return expr.power
    if isinstance(expr, (Add, Sub)):
        return max(degree_bound(expr.left), degree_bound(expr.right))
    if isinstance(expr, Mul):
        return degree_bound(expr.left) + degree_bound(expr.right)
    if isinstance(expr, Pow):
        return degree_bound(expr.base) * max(expr.exponent, 1)
    return 0


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
leaves = st.one_of(
    rationals.map(Num),
    st.sampled_from("abcd").map(Var),
    st.builds(Bracket, st.sampled_from(list(BracketKind)), st.integers(0, 12)),
)


def branches(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Pow, children, st.integers(0, 3)),
    )


expressions = st.recursive(leaves, branches, max_leaves=8)
a_zero_slice = st.one_of(
    st.tuples(st.just(Fraction(0)), rationals, st.just(Fraction(0)), rationals),
    st.tuples(st.just(Fraction(0)), st.just(Fraction(0)), rationals, rationals),
)
points = st.one_of(st.tuples(rationals, rationals, rationals, rationals), a_zero_slice)
differential = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@differential
@given(expressions, points)
@example(Sub(Pow(Sub(Bracket(BracketKind.D, 12), Num(Fraction(3, 4))), 3), Var("a")),
         (Fraction(0), Fraction(5), Fraction(0), Fraction(-7, 9)))
@example(Add(Mul(Num(Fraction(1, 2)), Bracket(BracketKind.A, 5)), Bracket(BracketKind.B, 5)),
         (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), Fraction(1, 9)))
# One bracket twice in a product and again on the other side of the difference.
@example(Sub(Mul(Bracket(BracketKind.D, 6), Bracket(BracketKind.D, 6)), Bracket(BracketKind.D, 6)),
         (Fraction(2), Fraction(-3), Fraction(5), Fraction(1)))
@example(Sub(Mul(Bracket(BracketKind.D, 6), Bracket(BracketKind.D, 6)), Bracket(BracketKind.D, 6)),
         (Fraction(2, 3), Fraction(-3, 4), Fraction(5, 7), Fraction(1, 9)))
def test_expr_value_matches_the_fraction_reference(expr, point):
    value = expr_value(expr, point)
    assert type(value) is Fraction
    assert value == reference_value(expr, point)
    # Expansion shares _value, the reference does not.  As for the statements
    # below, only trees of degree at most 12 expand; higher ones take minutes.
    if degree_bound(expr) <= 12:
        assert expr_to_poly(expr).evaluate(point) == reference_value(expr, point)


def statement_strategy():
    catalog_identities = st.sampled_from(catalog())

    def scaled(pair):
        identity, factor = pair
        return IdentityStatement(
            "scaled", Mul(factor, identity.lhs), Mul(identity.rhs, factor), identity.constrained
        )

    def either_constraint(identity):
        return st.builds(
            IdentityStatement, st.just(identity.name), st.just(identity.lhs),
            st.just(identity.rhs), st.booleans(),
        )

    def commuted(left, right, constrained):
        # True, but each side combines the two values in the other order.
        return IdentityStatement("commuted", Add(left, right), Add(right, left), constrained)

    small = expressions.filter(lambda e: degree_bound(e) <= 12)
    return st.one_of(
        st.builds(IdentityStatement, st.just("generated"), small, small, st.booleans()),
        st.builds(commuted, small, small, st.booleans()),
        st.tuples(catalog_identities, small).map(scaled),
        catalog_identities.flatmap(either_constraint),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(statement_strategy(), st.integers(0, 50))
def test_spot_check_and_verify_match_the_fraction_reference(statement, seed):
    reference_spot, reference_verify = reference_reports(statement, trials=20, seed=seed)
    spot = spot_check(statement, trials=20, seed=seed)
    verdict, witness, terms = reference_spot
    if verdict is Verdict.FALSIFIED and witness is None:
        witness = spot.witness
        assert all(v.denominator == 1 for v in witness)
        assert reference_value(statement.lhs, witness) != reference_value(statement.rhs, witness)
    assert (spot.verdict, spot.witness, spot.reduced_terms) == (verdict, witness, terms)
    report = verify(statement, seed=seed)
    assert (report.verdict, report.witness, report.reduced_terms) == reference_verify


# A number on the left of + - * against a variable, a power of one, a
# constant subtree beside a list, and a D bracket: every way a block
# combines a list and a number, and a power of a list.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(statement_strategy())
@example(parse("3 - a*b == 2*(1 - b)^2 + (1 + c)*D(3) + 2*3"))
@example(parse("constraint: a*d - b*c = 0; 3 - a*b == 2*(1 - b)^2 + (1 + c)*D(3) + 2*3"))
def test_block_values_are_the_values_at_each_certificate_point(statement):
    values_by_block(statement)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(statement_strategy())
def test_spot_check_decides_what_verify_decides(statement):
    assert spot_check(statement, trials=1).verdict is verify(statement).verdict


def statements_with_a_variable():
    # Both sides gain the same variable, so the statement holds exactly when
    # it held without it, and brackets and numbers no longer take the power sums.
    def joined(statement, name):
        return IdentityStatement(
            statement.name, Add(statement.lhs, Var(name)), Add(Var(name), statement.rhs), statement.constrained
        )

    return st.one_of(
        statement_strategy().filter(lambda statement: not _Decision(statement).bracket_only),
        st.builds(joined, statement_strategy(), st.sampled_from("abcd")),
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(statements_with_a_variable())
def test_verify_proves_exactly_what_expands_to_zero(statement):
    # Both routes decide a statement with a variable on the grid certificate,
    # so this checks that decision against expansion itself.
    assert not _Decision(statement).bracket_only
    assert (verify(statement).verdict is Verdict.PROVED) is (not reduce_difference(statement))


def statements_sharing_a_factor():
    # A statement with a variable, both sides times one factor F, on either
    # side of each product and under either constraint; D(2) vanishes on the
    # surface, so there F*L == F*R holds however L and R differ.
    def shared(statement, factor, constrained, left_first):
        lhs = Mul(factor, statement.lhs) if left_first else Mul(statement.lhs, factor)
        return IdentityStatement("shared", lhs, Mul(factor, statement.rhs), constrained)

    factors = st.one_of(
        st.sampled_from([Bracket(BracketKind.D, 2), Var("a"), Add(Var("b"), Num(Fraction(1))), Bracket(BracketKind.A, 3)]),
        expressions.filter(lambda e: degree_bound(e) <= 4),
    )
    return st.builds(shared, statements_with_a_variable(), factors, st.booleans(), st.booleans()).filter(
        # Only a grid within its budget is decided by cancelling.
        lambda statement: _Decision(statement).blocks() is not None
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(statements_sharing_a_factor())
def test_both_routes_prove_a_shared_factor_statement_exactly_when_it_expands_to_zero(statement):
    # F*L == F*R is decided as L == R or else F == 0, which the whole
    # difference expanded decides too.
    proved = not reduce_difference(statement)
    assert (verify(statement).verdict is Verdict.PROVED) is proved
    assert (spot_check(statement, trials=1).verdict is Verdict.PROVED) is proved


@pytest.mark.parametrize("check", [verify, spot_check], ids=["symbolic", "numeric"])
@pytest.mark.parametrize("constrained", [True, False], ids=["surface", "free"])
def test_a_shared_factor_that_vanishes_on_the_surface_proves_the_statement(check, constrained):
    # D(2) = 0 wherever a*d = b*c, so D(2)*a == D(2)*b holds there, though
    # a == b does not; without the constraint it is false.
    statement = parse("D(2)*a == D(2)*b", "shared")
    report = check(IdentityStatement(statement.name, statement.lhs, statement.rhs, constrained))
    assert report.verdict is (Verdict.PROVED if constrained else Verdict.FALSIFIED)


@pytest.mark.parametrize("check", [verify, spot_check], ids=["symbolic", "numeric"])
@pytest.mark.parametrize(
    "left, right",
    [("(a + b)^2", "(a + b)^3"), ("A(3)", "B(3)"), ("A(3)", "A(4)"), ("(a + 1)", "(a + 2)"),
     ("(a + b)", "(a - b)"), ("(a + b)", "(a + c)")],
    ids=["exponent", "bracket-kind", "bracket-power", "number", "operator", "variable"],
)
def test_factors_that_differ_in_one_field_are_not_cancelled(check, left, right):
    # b is shared, and matching the two near factors as one would leave
    # 1 == 1 and prove a false statement.
    assert check(parse(f"{left}*b == {right}*b", "near")).verdict is Verdict.FALSIFIED


@pytest.mark.parametrize("check", [verify, spot_check], ids=["symbolic", "numeric"])
def test_a_part_left_by_cancelling_is_not_cancelled_again(check, monkeypatch):
    # The rests share no factor, so a part is compared at once; a call to
    # _cancelled while another is running is wasted work.
    cancelled, running = identities._cancelled, []

    def once(statement):
        assert not running, "_cancelled was called while deciding one of its parts"
        running.append(statement)
        try:
            return cancelled(statement)
        finally:
            running.pop()

    monkeypatch.setattr(identities, "_cancelled", once)
    assert check(parse("(a + b)*(c + d) == (a + b)*(d + c)", "swapped")).verdict is Verdict.PROVED


@pytest.mark.parametrize("check", [verify, spot_check], ids=["symbolic", "numeric"])
def test_a_statement_zero_by_construction_is_not_cancelled(check, monkeypatch):
    # The shared factor (0*a)^2 has an empty J, and so has the difference,
    # whose grid has no point; the part (a+b+c+d)^40 == b would need more.
    def refuse(statement):
        raise AssertionError("cancelled a statement that is zero by construction")

    monkeypatch.setattr(identities, "_cancelled", refuse)
    assert check(parse("(0*a)^2*(a+b+c+d)^40 == (0*a)^2*b", "zero")).verdict is Verdict.PROVED


# ----------------------------------------------------------------------
# the constraint surface


def eliminated_difference(statement):
    """lhs - rhs expanded at (a, b, c, d), then d := b*c/a with denominators cleared."""
    return (expr_to_poly(statement.lhs) - expr_to_poly(statement.rhs)).substitute_clear("d", B * C, A)


def eliminated_witness(reduced):
    """The integer witness search on an eliminated difference R(a, b, c), at (a, b, c, b*c/a)."""
    point = []
    for name in "abc":
        for value in range(1, reduced.degree_in(name) + 2):
            rest = reduced.substitute_clear(name, Polynomial.constant(value), Polynomial.constant(1))
            if rest:
                break
        reduced = rest
        point.append(Fraction(value))
    a, b, c = point
    return (a, b, c, b * c / a)


def shifted(k, left, right):
    # The factors a - 1, ..., a - k put the zero set over a = 1..k, so the
    # witness search steps past them and b and c step by 1/a with a > k.
    factor = Num(Fraction(1))
    for root in range(1, k + 1):
        factor = Mul(factor, Sub(Var("a"), Num(Fraction(root))))
    return IdentityStatement("shifted", Mul(factor, left), Mul(factor, right), constrained=True)


surface_expressions = expressions.filter(lambda e: degree_bound(e) <= 10)
# (a - 1)*(a - 2)*a*b on the surface: zero at a = 1 and a = 2.
STEPS = IdentityStatement("steps", Mul(Mul(Sub(Var("a"), Num(Fraction(1))), Sub(Var("a"), Num(Fraction(2)))), Var("b")),
                          Num(Fraction(0)), constrained=True)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    st.builds(IdentityStatement, st.just("surface"), surface_expressions, surface_expressions, st.just(True)),
    st.builds(shifted, st.integers(1, 2), surface_expressions, surface_expressions),
))
@example(STEPS)
def test_the_surface_route_matches_eliminating_d(statement):
    # S = P(a, a*b, a*c, a*b*c) = sum_j a^j * P_j(1, b, c, b*c) over the
    # homogeneous parts P_j, and R = a^K * P(a, b, c, b*c/a) takes the same
    # monomials of each part to distinct ones, so the term counts agree;
    # R(a, b, c) = a^K * S(a, b/a, c/a), so the witnesses do.
    surface, eliminated = reduce_difference(statement), eliminated_difference(statement)
    assert len(surface.terms) == len(eliminated.terms)
    assert bool(surface) is bool(eliminated)
    if eliminated:
        assert _integer_witness(surface, constrained=True) == eliminated_witness(eliminated)


def test_the_surface_witness_steps_by_one_over_a():
    reduced = reduce_difference(STEPS)
    assert reduced == (A - 1) * (A - 2) * A * B
    assert _integer_witness(reduced, constrained=True) == (3, 1, 1, Fraction(1, 3))


# ----------------------------------------------------------------------
# power sums by Newton's identities


def triple_invariants(x, y, z):
    return x * y + y * z + z * x, x * y * z


TRIPLE_ONE = triple_invariants(B + C + D, -(A + B + C), A - D)
TRIPLE_TWO = triple_invariants(A + C + D, -(A + B + D), B - C)
INVARIANTS = TRIPLE_ONE + TRIPLE_TWO


@cache
def composed_monomial(monomial):
    """e2^i * e3^j * e2'^k * e3'^l of the two triples, for the exponents (i, j, k, l)."""
    if not any(monomial):
        return Polynomial.constant(1)
    index = next(i for i, exponent in enumerate(monomial) if exponent)
    lower = list(monomial)
    lower[index] -= 1
    return composed_monomial(tuple(lower)) * INVARIANTS[index]


def compose(value):
    """A power-sum table entry with its slots (e2, e3, e2', e3') replaced by the triples' invariants."""
    if not isinstance(value, Polynomial):
        return Polynomial.constant(value)
    total = Polynomial.zero()
    for monomial, coefficient in value.terms.items():
        total = total + coefficient * composed_monomial(monomial)
    return total


def test_the_triples_share_e2_exactly_on_the_constraint_surface():
    assert TRIPLE_ONE[0] - TRIPLE_TWO[0] == 3 * (A * D - B * C)


def test_power_sum_table_composes_to_the_expansion():
    sums = _PowerSums(constrained=False)
    for power in range(31):
        for kind in BracketKind:
            assert compose(_value([Bracket(kind, power)], sums)) == bracket_poly(kind, power), (kind, power)


def test_power_sums_follow_newtons_recurrence():
    # The reference: p_0 = 3, p_1 = 0, p_2 = -2*e2, p_n = -e2*p_(n-2) + e3*p_(n-3).
    for constrained in (False, True):
        sums = _PowerSums(constrained)
        for triple, (e2, e3) in enumerate([(A, B), (A if constrained else C, D)]):
            expected = [3, 0, -2 * e2]
            while len(expected) <= 200:
                expected.append(-e2 * expected[-2] + e3 * expected[-3])
            for power, p in enumerate(expected):
                assert sums.of(triple, power) == p, (constrained, triple, power)


def test_power_sums_are_the_girard_waring_terms_built_once(monkeypatch):
    # Each (triple, power) is one Polynomial per table, with the canonical
    # int terms that the validating constructor makes of Girard-Waring.
    for constrained in (False, True):
        sums = _PowerSums(constrained)
        for triple, (two, three) in enumerate([(0, 1), (0 if constrained else 2, 3)]):
            for power in range(1, 60):
                terms = {}
                for k in range(power // 3 + 1):
                    j = (power - 3 * k) // 2
                    if 2 * j + 3 * k == power:
                        monomial = [0, 0, 0, 0]
                        monomial[two], monomial[three] = j, k
                        terms[tuple(monomial)] = Fraction((-1) ** j * power * comb(j + k, k), j + k)
                p = sums.of(triple, power)
                assert sums.of(triple, power) is p
                expected = Polynomial(terms)
                assert dict(p.terms) == dict(expected.terms), (constrained, triple, power)
                assert all(type(coefficient) is int for coefficient in p.terms.values())
    # A bracket on both sides is built once per statement: p_4 of triple 0
    # is the one table entry 2*e2^2.
    built = []

    def counted(terms):
        built.append(dict(terms))
        return wrap(terms)

    wrap = identities._wrap
    monkeypatch.setattr(identities, "_wrap", counted)
    statement = parse("constraint: a*d - b*c = 0; A(4)*(4*A(2)*D(6)) == A(4)*(3*D(8))", "shared-a4")
    assert verify(statement).verdict is Verdict.PROVED
    assert built.count({(2, 0, 0, 0): 2}) == 1
    assert len(built) == 6  # p_2, p_4 and p_6 of triple 0, p_6 of triple 1, and p_8 of both


def test_power_sum_table_shares_e2_under_the_constraint():
    # Under the constraint slot c, e2', is e2: B(n) = p_n(e2, e3').
    free, constrained = _PowerSums(constrained=False), _PowerSums(constrained=True)
    for power in range(2, 31):
        assert constrained.of(0, power) == free.of(0, power)
        assert constrained.of(1, power) == free.of(1, power).substitute_clear("c", A, Polynomial.constant(1))


def chebyshev(count):
    """Coefficient lists, lowest degree first, of T_0 .. T_(count-1)."""
    polynomials = [[1], [0, 1]]
    while len(polynomials) < count:
        twice_x = [0] + [2 * t for t in polynomials[-1]]
        previous = polynomials[-2] + [0] * (len(twice_x) - len(polynomials[-2]))
        polynomials.append([x - y for x, y in zip(twice_x, previous)])
    return polynomials


def test_power_sums_are_the_papers_polar_reading():
    # The triple rho*cos(theta + 2*k*pi/3) has p_n = rho^n * f_n(theta), with
    # f_n = sum_h c_h*cos(h*theta) over the harmonics h = 3*m of
    # linearize_closed(3, n) and cos(3*m*theta) = T_m(cos(3*theta)).  With
    # rho^2 = -4/3*e2 and cos(3*theta) = 4*e3/rho^3, the term x^k of T_m
    # contributes (4*e3)^k * (rho^2)^((n - 3k)/2): 3k <= h <= n, and k, m, h
    # and n share their parity, so every power of rho is even and non-negative.
    e2, e3 = A, B
    rho_squared = Fraction(-4, 3) * e2
    sums = _PowerSums(constrained=False)
    polynomials = chebyshev(41 // 3 + 1)
    for power in range(41):
        polar = Polynomial.zero()
        for harmonic, amplitude in linearize_closed(3, power).coefficients.items():
            for k, t in enumerate(polynomials[harmonic // 3]):
                if t:
                    assert (power - 3 * k) % 2 == 0 and 3 * k <= power
                    polar = polar + amplitude * t * (4 * e3) ** k * rho_squared ** ((power - 3 * k) // 2)
        assert polar == _value([Bracket(BracketKind.A, power)], sums), power




bracket_expressions = st.recursive(
    st.one_of(rationals.map(Num), st.builds(Bracket, st.sampled_from(list(BracketKind)), st.integers(0, 12))),
    branches,
    max_leaves=6,
).filter(lambda e: degree_bound(e) <= 12)


def bracket_statements():
    def commuted(left, right, constrained):
        return IdentityStatement("commuted", Mul(left, right), Mul(right, left), constrained)

    def scaled(identity, factor, constrained):
        return IdentityStatement("scaled", Mul(factor, identity.lhs), Mul(identity.rhs, factor), constrained)

    bracket_catalog = st.sampled_from([s for s in catalog() if s.name != "asym-6-8-factored"])
    return st.one_of(
        st.builds(IdentityStatement, st.just("generated"), bracket_expressions, bracket_expressions, st.booleans()),
        st.builds(commuted, bracket_expressions, bracket_expressions, st.booleans()),
        st.builds(scaled, bracket_catalog, bracket_expressions.filter(lambda e: degree_bound(e) <= 4), st.booleans()),
    )


class GridDecision(_Decision):
    """A ``_Decision`` that takes every statement for one with a variable."""

    def __init__(self, statement):
        super().__init__(statement)
        self.bracket_only, self.count = False, self.grid_count


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(bracket_statements(), st.integers(0, 50))
# Newton's identities: p_5 = -5*e2*e3 = 5/6 * p_2 * p_3, for either triple.
@example(IdentityStatement("newton", Mul(Num(Fraction(6)), Bracket(BracketKind.A, 5)),
                           Mul(Mul(Num(Fraction(5)), Bracket(BracketKind.A, 2)), Bracket(BracketKind.A, 3)),
                           constrained=False), 0)
# True only under the constraint, where both triples share e2.
@example(IdentityStatement("d2", Bracket(BracketKind.D, 2), Num(Fraction(0)), constrained=False), 0)
@example(IdentityStatement("d2", Bracket(BracketKind.D, 2), Num(Fraction(0)), constrained=True), 0)
def test_power_sum_route_agrees_with_the_full_route(statement, seed):
    # The invariants are algebraically independent, so the power-sum route
    # decides the statement both ways.
    assert _power_sums_agree(_Decision(statement)) is (not reduce_difference(statement))
    report = verify(statement, seed=seed)
    # The full route is the one a statement with a variable takes.
    with mock.patch.object(identities, "_Decision", GridDecision):
        full = verify(statement, seed=seed)
    assert (report.verdict, report.witness, report.reduced_terms) == (full.verdict, full.witness, full.reduced_terms)


def test_only_bracket_statements_take_the_power_sum_route(monkeypatch):
    for statement in catalog():
        bracket_only = statement.name != "asym-6-8-factored"
        assert _Decision(statement).bracket_only is bracket_only, statement.name
        assert not bracket_only or _power_sums_agree(_Decision(statement)), statement.name

    def no_table(self, constrained):
        raise AssertionError("built a power-sum table for a statement with a variable")

    monkeypatch.setattr(_PowerSums, "__init__", no_table)
    report = verify(catalog_entry("asym-6-8-factored"))
    assert (report.verdict, report.reduced_terms, report.witness) == (Verdict.PROVED, 0, None)


def test_verify_draws_before_the_power_sums_over_the_budget(monkeypatch):
    # D(2000) has an invariant count of C(1003, 3), far over the budget, and
    # its first seed-0 draw falsifies it: that draw comes before the power
    # sums, whose size the count bounds, and is the witness they lead to.
    def no_table(self, constrained):
        raise AssertionError("built a power-sum table before the first draw")

    monkeypatch.setattr(_PowerSums, "__init__", no_table)
    statement = parse("D(2000) == 0", "d2000")
    assert _Decision(statement).count > identities._POINT_BUDGET
    report = verify(statement)
    assert (report.verdict, report.witness) == (Verdict.FALSIFIED, tuple(map(Fraction, ("3/7", "-8/5", "7/8", "3/5"))))


def test_pruning_drops_only_what_no_degree_shows():
    zero, one, hidden = Num(Fraction(0)), Num(Fraction(1)), Pow(Add(Bracket(BracketKind.A, 2), Var("a")), 80)
    # The degree pass prunes as it goes; what it leaves is compiled node for
    # node, and the statement is kept as given.
    ramanujan = catalog_entry("ramanujan-6-10-8")
    decision = _Decision(ramanujan)
    assert decision.statement is ramanujan
    assert decision.program[-1] == Sub(ramanujan.lhs, ramanujan.rhs)
    assert same_nodes(decision.program, decision.program[-1])
    cases = [
        (Mul(hidden, zero), zero),
        (Pow(hidden, 0), one),
        (Pow(Mul(zero, hidden), 3), zero),
        (Sub(Mul(zero, hidden), Pow(zero, 2)), zero),
        (Add(Bracket(BracketKind.D, 3), Mul(Var("b"), Mul(hidden, zero))), Add(Bracket(BracketKind.D, 3), zero)),
        (Mul(Pow(hidden, 0), Pow(Num(Fraction(2)), 3)), Mul(one, Pow(Num(Fraction(2)), 3))),
    ]
    point = _sample_point(False, random.Random(0))
    for expr, expected in cases:
        assert program_key(_degrees(expr, "bcd")[0]) == program_key(_postorder(expected))
        assert expr_value(expr, point) == expr_value(expected, point)


# ----------------------------------------------------------------------
# deciding brackets and numbers in the invariants


def partial_derivative_at(polynomial, index, point):
    """d(polynomial)/d(variable ``index``) at the point, from its terms."""
    total = Fraction(0)
    for monomial, coefficient in polynomial.terms.items():
        if monomial[index]:
            lowered = list(monomial)
            lowered[index] -= 1
            total += coefficient * monomial[index] * prod(x ** e for x, e in zip(point, lowered))
    return total


def rank(rows):
    """Rank of a matrix of Fractions, by Gaussian elimination."""
    rows, result = [list(row) for row in rows], 0
    for column in range(len(rows[0])):
        pivot = next((row for row in rows[result:] if row[column]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(result, pivot)
        for row in rows[result + 1:]:
            factor = row[column] / pivot[column]
            row[:] = [x - factor * y for x, y in zip(row, pivot)]
        result += 1
    return result


def test_the_invariants_have_full_jacobian_rank():
    # Full rank at one point means full rank generically, so by the Jacobian
    # criterion the invariants are algebraically independent, and a bracket
    # statement holds exactly when its difference is zero in them.
    invariants = [*triple_invariants(*_triple(0, A, B, C, D)), *triple_invariants(*_triple(1, A, B, C, D))]
    point = tuple(map(Fraction, (2, 3, 5, 7)))
    jacobian = [[partial_derivative_at(f, i, point) for i in range(4)] for f in invariants]
    assert rank(jacobian) == 4
    # On the surface (a, a*b, a*c, a*b*c) the triples share e2, so (e2, e3, e3')
    # in (a, b, c); d does not occur, so its coordinate is immaterial.
    e2, e3 = triple_invariants(*_triple(0, *_on_surface(A, B, C)))
    e2_prime, e3_prime = triple_invariants(*_triple(1, *_on_surface(A, B, C)))
    assert e2 == e2_prime
    point = tuple(map(Fraction, (2, 3, 5, 1)))
    jacobian = [[partial_derivative_at(f, i, point) for i in range(3)] for f in (e2, e3, e3_prime)]
    assert rank(jacobian) == 3


@pytest.mark.parametrize(
    "name, points",
    [
        ("ramanujan-6-10-8", 21),
        ("gen-3-7-5-six", 10),
        ("gen-3-7-5-three", 56),
        ("asym-6-8-r2", 6),
        # Under the constraint C(max J//3 + 2, 2) for a single degree.
        pytest.param("constraint: a*d - b*c = 0; D(100) == D(100)", 595, id="d100-595"),
        pytest.param("constraint: a*d - b*c = 0; D(150)*D(3) == D(3)*D(150)", 1_378, id="d150-1378"),
        pytest.param("constraint: a*d - b*c = 0; D(200)*D(200) == D(200)^2", 9_045, id="d200-9045"),
        pytest.param("constraint: a*d - b*c = 0; D(210)*D(210) == D(210)^2", 10_011, id="d210-10011"),
        # Unconstrained C(max J//2 + 3, 3).
        pytest.param("A(60)*B(40) == B(40)*A(60)", 23_426, id="a60-23426"),
    ],
)
def test_invariant_certificate_point_counts(name, points):
    # The bound on the power sums' terms that spot_check holds to the
    # budget, and names when it refuses a statement over it.
    statement = catalog_entry(name) if name in CATALOG else parse(name, "count")
    decision = _Decision(statement)
    assert decision.bracket_only
    assert decision.invariant_count == decision.count == points


@pytest.mark.parametrize("source", [
    pytest.param("constraint: a*d - b*c = 0; 64*D(6)*D(10) == 45*D(8)^2", id="holds"),
    pytest.param("64*D(6)*D(10) == 45*D(8)^2", id="fails-unconstrained"),
    pytest.param("25*A(3)*A(7) == 21*A(5)^2 + 1/2", id="fails"),
    pytest.param("constraint: a*d - b*c = 0; D(210)*D(210) == D(210)^2", id="over-budget"),
])
def test_a_statement_of_brackets_and_numbers_is_decided_without_its_grid(source, monkeypatch):
    # Its count is the invariants' count, so the grid's is never needed.
    statement = parse(source, "brackets")
    expected = identities._decide(statement)

    def refuse(self):
        raise AssertionError("_lattice called")

    monkeypatch.setattr(_Decision, "_lattice", refuse)
    decision = identities._decide(statement)
    assert decision.bracket_only
    assert (decision.outcome, decision.count) == (expected.outcome, expected.count)


def grid_verdict(statement):
    """Whether today's (a, b, c, d) certificate proves the statement."""
    decision = _Decision(statement)
    assert decision.blocks() is not None
    return decision.first_difference() is None


def test_the_power_sums_decide_the_catalog_as_the_grid_does():
    for statement in [*catalog(), corrupted_ramanujan()]:
        if _Decision(statement).bracket_only:
            assert _power_sums_agree(_Decision(statement)) is grid_verdict(statement) is (statement.name in CATALOG)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(bracket_statements())
# Each example is false, yet its sides agree on a grid with one scale t, or
# one lattice degree, too few.
# Equal wherever t = 1: 4*e2^2 against 4*e2, of weights 4 and 2.
@example(IdentityStatement("scales", Pow(Bracket(BracketKind.A, 2), 2),
                           Mul(Num(Fraction(-2)), Bracket(BracketKind.A, 2)), constrained=False))
# False, and equal on the lattice one degree smaller: 3*e3 at e3 = 0; 9*e3*e3'
# under the constraint, where v*w = 0 at total degree 1; and 4*e2'^2 against
# 4*e2*e2', where u^2 = u at u = 0 and 1.
@example(IdentityStatement("lattice", Bracket(BracketKind.A, 3), Num(Fraction(0)), constrained=False))
@example(IdentityStatement("lattice", Bracket(BracketKind.A, 3), Num(Fraction(0)), constrained=True))
@example(IdentityStatement("lattice", Mul(Bracket(BracketKind.A, 3), Bracket(BracketKind.B, 3)),
                           Num(Fraction(0)), constrained=True))
@example(IdentityStatement("lattice", Pow(Bracket(BracketKind.B, 2), 2),
                           Mul(Bracket(BracketKind.A, 2), Bracket(BracketKind.B, 2)), constrained=False))
def test_the_power_sums_decide_what_the_grid_certificate_decides(statement):
    assert _power_sums_agree(_Decision(statement)) is grid_verdict(statement)


def agreeing_at_the_first_draw(bracket, exponent=1):
    """A false statement bracket^exponent == q^exponent, with q the bracket's value at the first seed-0 draw."""
    point = _sample_point(False, random.Random(0))
    value = expr_value(bracket, point)
    statement = IdentityStatement("first-agrees", Pow(bracket, exponent), Num(value ** exponent), constrained=False)
    assert reference_value(statement.lhs, point) == reference_value(statement.rhs, point)
    return statement


def test_verify_falsifies_a_bracket_statement_without_expanding():
    # The invariants differ, so the statement is false before the expansion
    # that the first draw's agreement used to lead to; the remaining draws
    # still pick the witness, and reduced_terms still counts on first read.
    statement = agreeing_at_the_first_draw(Bracket(BracketKind.A, 2))
    _, expected = reference_reports(statement, trials=_WITNESS_DRAWS, seed=0)
    with mock.patch.object(identities, "reduce_difference", side_effect=AssertionError("expanded early")):
        report = verify(statement, seed=0)
    assert (report.verdict, report.witness) == expected[:2]
    with mock.patch.object(identities, "reduce_difference", wraps=reduce_difference) as expand:
        assert report.reduced_terms == report.reduced_terms == expected[2] == 11
    assert expand.call_count == 1


def test_spot_check_reports_the_grid_point_when_every_draw_agrees():
    # The power sums say false, and the one draw agrees: the witness is the
    # first point of the grid certificate where the sides differ.
    statement = agreeing_at_the_first_draw(Bracket(BracketKind.A, 2))
    report = spot_check(statement, trials=1)
    first = next(point for point in certificate_points(statement)
                 if reference_value(statement.lhs, point) != reference_value(statement.rhs, point))
    assert (report.verdict, report.witness, report.reduced_terms) == (Verdict.FALSIFIED, first, 11)
    # A(2)^15 counts 1,632 in the invariants but needs 10,912 grid points, so
    # the witness is the expanded difference's integer point, as in verify.
    statement = agreeing_at_the_first_draw(Bracket(BracketKind.A, 2), 15)
    decision = _Decision(statement)
    assert (decision.grid_count, decision.blocks()) == (10_912, None)
    reduced = reduce_difference(statement)
    report = spot_check(statement, trials=1)
    witness = _integer_witness(reduced, constrained=False)
    assert (report.verdict, report.witness) == (Verdict.FALSIFIED, witness)
    assert reference_value(statement.lhs, witness) != reference_value(statement.rhs, witness)
    with mock.patch.object(identities, "reduce_difference", side_effect=AssertionError("expanded twice")):
        assert report.reduced_terms == len(reduced.terms) == 5457
