import random
from fractions import Fraction

import pytest

from trigident.algebra import Polynomial
from trigident.identities import (
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
    render_report,
    report_json,
    spot_check,
    verify,
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
