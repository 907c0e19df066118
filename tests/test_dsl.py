import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigident.dsl import (
    DslError,
    DslSemanticError,
    DslSyntaxError,
    Format,
    load_statement,
    parse,
    render,
)
from trigident.identities import (
    Add,
    Bracket,
    BracketKind,
    Mul,
    Num,
    Pow,
    Sub,
    Var,
    catalog,
    catalog_entry,
)

CANONICAL = {
    "ramanujan-6-10-8": "constraint: a*d - b*c = 0; 64*D(6)*D(10) == 45*D(8)^2",
    "gen-3-7-5-six": "constraint: a*d - b*c = 0; 25*D(3)*D(7) == 21*D(5)^2",
    "gen-3-7-5-three": "25*A(3)*A(7) == 21*A(5)^2",
    "asym-6-8-factored": (
        "constraint: a*d - b*c = 0; "
        "8*(a^2 + a*b + b^2)*(a^2 + a*c + c^2)*D(6) == 3*a^2*D(8)"
    ),
    "asym-6-8-r2": "constraint: a*d - b*c = 0; 4*A(2)*D(6) == 3*D(8)",
}


def random_expr(rng, depth):
    choices = ["num", "var", "bracket"]
    if depth > 0:
        choices += ["add", "sub", "mul", "pow"]
    choice = rng.choice(choices)
    if choice == "num":
        return Num(Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
    if choice == "var":
        return Var(rng.choice("abcd"))
    if choice == "bracket":
        return Bracket(rng.choice(list(BracketKind)), rng.randint(0, 12))
    if choice == "pow":
        return Pow(random_expr(rng, depth - 1), rng.randint(0, 5))
    node = {"add": Add, "sub": Sub, "mul": Mul}[choice]
    return node(random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def random_statement(rng):
    from trigident.identities import IdentityStatement

    return IdentityStatement(
        "", random_expr(rng, 4), random_expr(rng, 4), rng.random() < 0.5
    )


def test_parse_canonical_classical_statement():
    statement = parse(CANONICAL["ramanujan-6-10-8"])
    assert statement == catalog_entry("ramanujan-6-10-8")
    assert statement.constrained
    assert statement.lhs == Mul(
        Mul(Num(Fraction(64)), Bracket(BracketKind.D, 6)), Bracket(BracketKind.D, 10)
    )
    assert statement.rhs == Mul(Num(Fraction(45)), Pow(Bracket(BracketKind.D, 8), 2))


def test_catalog_renders_to_canonical_text_and_round_trips():
    for statement in catalog():
        text = render(statement, Format.PLAIN)
        assert text == CANONICAL[statement.name]
        assert parse(text) == statement


def test_whitespace_and_comments_are_ignored():
    source = """
    # the classical product identity
    constraint : a * d - b * c = 0 ;   # side condition
    64 * D( 6 ) * D( 10 )
        == 45 * D( 8 ) ^ 2   # conclusion
    """
    assert parse(source) == catalog_entry("ramanujan-6-10-8")
    assert parse("a\u00a0==\u2003a") == parse("a == a")


def test_precedence_and_associativity():
    statement = parse("a + b*c^2 == a - b - c")
    assert statement.lhs == Add(Var("a"), Mul(Var("b"), Pow(Var("c"), 2)))
    assert statement.rhs == Sub(Sub(Var("a"), Var("b")), Var("c"))

    statement = parse("(a + b)*c == (a^2)^3")
    assert statement.lhs == Mul(Add(Var("a"), Var("b")), Var("c"))
    assert statement.rhs == Pow(Pow(Var("a"), 2), 3)


def test_negative_rationals_parse_as_atoms():
    statement = parse("2*-3 == a - -3/4")
    assert statement.lhs == Mul(Num(Fraction(2)), Num(Fraction(-3)))
    assert statement.rhs == Sub(Var("a"), Num(Fraction(-3, 4)))


def test_round_trip_on_random_statements():
    rng = random.Random(20260819)
    for _ in range(100):
        statement = random_statement(rng)
        text = render(statement, Format.PLAIN)
        assert parse(text) == statement, text


OPERAND = ("number", "variable", "bracket", "'('")


def test_syntax_errors_carry_positions_and_expectations():
    # source -> (line, column, offset, expected)
    cases = {
        "64*D(6": (1, 7, 6, ("')'",)),
        "D(2)^-2": (1, 6, 5, ("number",)),
        "a == ": (1, 6, 5, OPERAND),
        "a = b": (1, 3, 2, ("'=='",)),
        "a == b c": (1, 8, 7, ("end of input",)),
        "E(2) == 0": (1, 1, 0, ("variable", "bracket", "'constraint'")),
        "== a": (1, 1, 0, OPERAND),
        "a ++ b == c": (1, 4, 3, OPERAND),
        "constraint a*d - b*c = 0; a == a": (1, 12, 11, ("':'",)),
        "a ==\n  b c": (2, 5, 9, ("end of input",)),
        "a\t== $": (
            1,
            6,
            5,
            ("'+'", "'-'", "'*'", "'/'", "'^'", "'('", "')'", "':'", "';'"),
        ),
    }
    for source, position in cases.items():
        with pytest.raises(DslSyntaxError) as excinfo:
            parse(source)
        error = excinfo.value
        assert (error.line, error.column, error.offset, error.expected) == position, source
        assert str(error).startswith(f"{error.line}:{error.column}: ")


def test_comments_count_towards_columns():
    with pytest.raises(DslSyntaxError) as excinfo:
        parse("a == # note")
    error = excinfo.value
    assert (error.line, error.column, error.offset) == (1, 12, 11)
    assert error.expected == OPERAND


@pytest.mark.parametrize(
    "source",
    ["D(\u00b2) == 0", "D(\u0663) == D(3)"],
    ids=["superscript-two", "arabic-indic-three"],
)
def test_non_ascii_digits_are_syntax_errors(source):
    with pytest.raises(DslSyntaxError) as excinfo:
        parse(source)
    error = excinfo.value
    assert (error.line, error.column, error.offset) == (1, 3, 2)
    assert f"unexpected character {source[2]!r}" in str(error)


def position_of(source, offset):
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


# The language's lexemes and characters, plus a non-ASCII digit that is not
# a decimal digit, one that is, a non-breaking space and a non-ASCII letter.
FUZZ_PIECES = list("abcdDAB0123456789+-*/^()=:;# \t\n_x") + [
    "constraint",
    "==",
    "\u00b2",
    "\u0663",
    "\u00a0",
    "\u00e9",
]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(FUZZ_PIECES), max_size=40).map("".join))
def test_parse_returns_or_raises_a_positioned_error(source):
    try:
        parse(source)
    except DslError as error:
        assert 0 <= error.offset <= len(source)
        assert (error.line, error.column) == position_of(source, error.offset)
        assert str(error).startswith(f"{error.line}:{error.column}: ")


def test_unsupported_constraint_is_a_semantic_error():
    with pytest.raises(DslSemanticError):
        parse("constraint: a*b - c*d = 0; D(2) == 0")
    with pytest.raises(DslSemanticError):
        parse("constraint: a*d - b*c = 1; D(2) == 0")
    with pytest.raises(DslSemanticError):
        parse("1/0 == a")


def test_latex_rendering_expands_brackets():
    latex = render(catalog_entry("gen-3-7-5-three"), Format.LATEX)
    assert "(b+c+d)^{3}-(a+b+c)^{3}+(a-d)^{3}" in latex
    assert "(b+c+d)^{5}-(a+b+c)^{5}+(a-d)^{5}" in latex
    assert "\\implies" not in latex

    latex = render(catalog_entry("ramanujan-6-10-8"), Format.LATEX)
    assert latex.startswith("ad=bc \\implies ")
    assert (
        "(a+b+c)^{6}+(b+c+d)^{6}-(c+d+a)^{6}-(d+a+b)^{6}+(a-d)^{6}-(b-c)^{6}" in latex
    )
    assert "^{2}" in latex


def test_json_rendering_is_a_faithful_serialization():
    text = render(parse("a == 3/4"), Format.JSON)
    assert text == (
        '{"name":"","constraint":false,'
        '"lhs":{"type":"var","name":"a"},'
        '"rhs":{"type":"num","value":"3/4"}}'
    )
    payload = json.loads(render(catalog_entry("ramanujan-6-10-8"), Format.JSON))
    assert payload["name"] == "ramanujan-6-10-8"
    assert payload["constraint"] is True
    assert payload["lhs"]["type"] == "mul"
    assert payload["rhs"]["right"] == {
        "type": "pow",
        "base": {"type": "bracket", "kind": "D", "power": 8},
        "exponent": 2,
    }


def test_load_statement_names_after_file_stem(tmp_path):
    path = tmp_path / "my-identity.rid"
    path.write_text("# a trivial equation\nD(2) == D(2)\n", encoding="utf-8")
    statement = load_statement(path)
    assert statement.name == "my-identity"
    assert statement.lhs == statement.rhs == Bracket(BracketKind.D, 2)
    assert not statement.constrained
