import json
import random
import re
import sys
import time
from enum import Enum
from fractions import Fraction
from pathlib import Path, PurePath
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigident.algebra import VARIABLES
from trigident.dsl import (
    _CONSTRAINT_LHS,
    _LEXEME,
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
    IdentityStatement,
    Mul,
    Num,
    Pow,
    Sub,
    Var,
    catalog,
    catalog_entry,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import statements as bench_statements  # noqa: E402

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


# ----------------------------------------------------------------------
# The front end that the one-scan parser replaced, frozen as its reference:
# a token kind, text, line, column and offset per token, and an
# explicit-stack parser over them.


class _TokenKind(Enum):
    NUMBER = "number"
    VARIABLE = "variable"
    BRACKET = "bracket"
    CONSTRAINT = "'constraint'"
    PLUS = "'+'"
    MINUS = "'-'"
    STAR = "'*'"
    SLASH = "'/'"
    CARET = "'^'"
    LPAREN = "'('"
    RPAREN = "')'"
    COLON = "':'"
    SEMICOLON = "';'"
    EQUAL = "'='"
    EQUALITY = "'=='"
    END = "end of input"


class _Token(NamedTuple):
    kind: _TokenKind
    text: str
    line: int
    column: int
    offset: int


_SYMBOLS = {
    "+": _TokenKind.PLUS,
    "-": _TokenKind.MINUS,
    "*": _TokenKind.STAR,
    "/": _TokenKind.SLASH,
    "^": _TokenKind.CARET,
    "(": _TokenKind.LPAREN,
    ")": _TokenKind.RPAREN,
    ":": _TokenKind.COLON,
    ";": _TokenKind.SEMICOLON,
}

_LEXEMES = {
    **_SYMBOLS,
    "=": _TokenKind.EQUAL,
    "==": _TokenKind.EQUALITY,
    "constraint": _TokenKind.CONSTRAINT,
    **dict.fromkeys(VARIABLES, _TokenKind.VARIABLE),
    **dict.fromkeys((kind.value for kind in BracketKind), _TokenKind.BRACKET),
}

_REFERENCE_LEXEME = re.compile(
    r"(?P<skip>[^\S\n]+|#.*)"
    r"|(?P<newline>\n)"
    r"|(?P<number>[0-9]+)"
    r"|(?P<word>[A-Za-z_]\w*)"
    r"|==|."
)


def _tokenize(source):
    tokens = []
    line, line_start = 1, 0
    for match in _REFERENCE_LEXEME.finditer(source):
        group = match.lastgroup
        if group == "skip":
            continue
        offset = match.start()
        if group == "newline":
            line += 1
            line_start = offset + 1
            continue
        text = match.group()
        column = offset - line_start + 1
        kind = _TokenKind.NUMBER if group == "number" else _LEXEMES.get(text)
        if kind is None and group == "word":
            raise DslSyntaxError(
                f"unknown word {text!r}",
                line,
                column,
                offset,
                expected=("variable", "bracket", "'constraint'"),
            )
        if kind is None:
            raise DslSyntaxError(
                f"unexpected character {text!r}",
                line,
                column,
                offset,
                expected=tuple(k.value for k in _SYMBOLS.values()),
            )
        tokens.append(_Token(kind, text, line, column, offset))
    tokens.append(_Token(_TokenKind.END, "", line, len(source) - line_start + 1, len(source)))
    return tokens


_BINARY = {_TokenKind.PLUS: Add, _TokenKind.MINUS: Sub, _TokenKind.STAR: Mul}


class _Parser:
    def __init__(self, tokens):
        self._tokens = tokens
        self._index = 0

    def _peek(self):
        return self._tokens[self._index]

    def _advance(self):
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind):
        token = self._peek()
        if token.kind is not kind:
            self._fail(token, (kind.value,))
        return self._advance()

    def _natural(self):
        token = self._expect(_TokenKind.NUMBER)
        try:
            return int(token.text)
        except ValueError:  # more digits than int() converts
            raise DslSemanticError(
                f"number has {len(token.text)} digits, over the limit of {sys.get_int_max_str_digits()}",
                token.line,
                token.column,
                token.offset,
            ) from None

    def _fail(self, token, expected):
        got = token.text or "end of input"
        raise DslSyntaxError(
            f"expected {' or '.join(expected)}, got {got!r}",
            token.line,
            token.column,
            token.offset,
            expected=expected,
        )

    def parse_statement(self, name):
        constrained = self._peek().kind is _TokenKind.CONSTRAINT and self._parse_constraint()
        lhs, rhs = self._parse_equation(_TokenKind.EQUALITY, _TokenKind.END)
        return IdentityStatement(name, lhs, rhs, constrained)

    def _parse_equation(self, equals, end):
        lhs = self.parse_expr()
        self._expect(equals)
        rhs = self.parse_expr()
        self._expect(end)
        return lhs, rhs

    def _parse_constraint(self):
        keyword = self._expect(_TokenKind.CONSTRAINT)
        self._expect(_TokenKind.COLON)
        lhs, rhs = self._parse_equation(_TokenKind.EQUAL, _TokenKind.SEMICOLON)
        if lhs != _CONSTRAINT_LHS or rhs != Num(Fraction(0)):
            raise DslSemanticError(
                "unsupported constraint; only a*d - b*c = 0 is recognized",
                keyword.line,
                keyword.column,
                keyword.offset,
            )
        return True

    def parse_expr(self):
        pending = []
        while True:
            while self._peek().kind is _TokenKind.LPAREN:
                self._advance()
                pending.append(None)
            operand = self._parse_base()
            while True:
                if self._peek().kind is _TokenKind.CARET:
                    self._advance()
                    operand = Pow(operand, self._natural())
                operator = _BINARY.get(self._peek().kind)
                while pending and pending[-1] and (operator is not Mul or pending[-1][0] is Mul):
                    waiting, left = pending.pop()
                    operand = waiting(left, operand)
                if operator is not None:
                    self._advance()
                    pending.append((operator, operand))
                    break
                if not pending:
                    return operand
                self._expect(_TokenKind.RPAREN)
                pending.pop()

    def _parse_base(self):
        token = self._peek()
        if token.kind is _TokenKind.MINUS or token.kind is _TokenKind.NUMBER:
            return self._parse_rational()
        if token.kind is _TokenKind.VARIABLE:
            return Var(self._advance().text)
        if token.kind is _TokenKind.BRACKET:
            kind = BracketKind(self._advance().text)
            self._expect(_TokenKind.LPAREN)
            power = self._natural()
            self._expect(_TokenKind.RPAREN)
            return Bracket(kind, power)
        self._fail(token, ("number", "variable", "bracket", "'('"))

    def _parse_rational(self):
        negative = False
        if self._peek().kind is _TokenKind.MINUS:
            self._advance()
            negative = True
        numerator = self._natural()
        denominator = 1
        if self._peek().kind is _TokenKind.SLASH:
            self._advance()
            denominator_token = self._peek()
            denominator = self._natural()
            if denominator == 0:
                raise DslSemanticError(
                    "zero denominator",
                    denominator_token.line,
                    denominator_token.column,
                    denominator_token.offset,
                )
        value = Fraction(numerator, denominator)
        return Num(-value if negative else value)


class RecursiveParser(_Parser):
    """The recursive-descent parser that the explicit-stack one replaced, as its reference.

    It recurses once per parenthesis, so it serves only shallow sources.
    """

    def parse_statement(self, name):
        constrained = False
        if self._peek().kind is _TokenKind.CONSTRAINT:
            constrained = self._parse_constraint()
        lhs = self.parse_expr()
        self._expect(_TokenKind.EQUALITY)
        rhs = self.parse_expr()
        self._expect(_TokenKind.END)
        return IdentityStatement(name, lhs, rhs, constrained)

    def _parse_constraint(self):
        keyword = self._expect(_TokenKind.CONSTRAINT)
        self._expect(_TokenKind.COLON)
        lhs = self.parse_expr()
        self._expect(_TokenKind.EQUAL)
        rhs = self.parse_expr()
        self._expect(_TokenKind.SEMICOLON)
        if lhs != _CONSTRAINT_LHS or rhs != Num(Fraction(0)):
            message = "unsupported constraint; only a*d - b*c = 0 is recognized"
            raise DslSemanticError(message, keyword.line, keyword.column, keyword.offset)
        return True

    def parse_expr(self):
        left = self._parse_term()
        while self._peek().kind in (_TokenKind.PLUS, _TokenKind.MINUS):
            op = self._advance()
            right = self._parse_term()
            left = Add(left, right) if op.kind is _TokenKind.PLUS else Sub(left, right)
        return left

    def _parse_term(self):
        left = self._parse_factor()
        while self._peek().kind is _TokenKind.STAR:
            self._advance()
            left = Mul(left, self._parse_factor())
        return left

    def _parse_factor(self):
        base = self._parse_base()
        if self._peek().kind is _TokenKind.CARET:
            self._advance()
            return Pow(base, self._natural())
        return base

    def _parse_base(self):
        if self._peek().kind is _TokenKind.LPAREN:
            self._advance()
            inner = self.parse_expr()
            self._expect(_TokenKind.RPAREN)
            return inner
        # Numbers, variables and brackets, and the error for anything else.
        return super()._parse_base()


def outcome(parse_source, source):
    """The statement and its constraint flag, or the error's class, message, position and expectation."""
    try:
        statement = parse_source(source)
    except DslError as error:
        return type(error), str(error), error.line, error.column, error.offset, getattr(error, "expected", None)
    return statement, statement.constrained


def parse_outcome(parser, source):
    return outcome(lambda text: parser(_tokenize(text)).parse_statement(""), source)


# Whole lexemes, so that random strings of them are often well formed.
PARSE_PIECES = ["a", "b", "d", "D(2)", "A(3)", "B(0)", "2", "10", "3/4", "-1/2", "0", "1/0", "-",
                "+", "*", "^", "^2", "(", ")", "==", "=", ";", "constraint:", "a*d - b*c = 0;"]


def parser_sources(rng):
    """Random lexeme strings, and rendered random statements with one lexeme inserted, deleted or neither."""
    for _ in range(1500):
        yield " ".join(rng.choice(PARSE_PIECES) for _ in range(rng.randint(1, 14)))
    for _ in range(1500):
        pieces = render(random_statement(rng), Format.PLAIN).split(" ")
        edit = rng.randrange(len(pieces))
        if rng.random() < 0.4:
            pieces.insert(edit, rng.choice(PARSE_PIECES))
        elif rng.random() < 0.5:
            del pieces[edit]
        yield " ".join(pieces)


def test_parser_matches_the_recursive_reference():
    kinds = []
    for source in parser_sources(random.Random(20261019)):
        outcome = parse_outcome(_Parser, source)
        assert outcome == parse_outcome(RecursiveParser, source), source
        kinds.append(outcome[0] if isinstance(outcome[0], type) else IdentityStatement)
    # Each kind of outcome is well represented.
    assert min(map(kinds.count, (IdentityStatement, DslSyntaxError, DslSemanticError))) >= 50


def test_parser_edge_cases():
    # A power is not itself a base, an operand does not start with a lone
    # minus, and an exponent is a bare natural number.
    cases = {
        "a^2^3 == a": (1, 4, ("'=='",)),
        "-a == a": (1, 2, ("number",)),
        "a^(2) == a": (1, 3, ("number",)),
    }
    for source, (line, column, expected) in cases.items():
        with pytest.raises(DslSyntaxError) as excinfo:
            parse(source)
        assert (excinfo.value.line, excinfo.value.column, excinfo.value.expected) == (line, column, expected)
    # A negative number is an atom, so its power needs no parentheses.
    statement = parse("2*(-3)^2 == 18")
    assert render(statement, Format.PLAIN) == "2*-3^2 == 18"
    assert parse("2*-3^2 == 18") == statement


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


LONG = "1" * 5000


@pytest.mark.parametrize(
    "source, position",
    [
        (f"{LONG} == a", (1, 1, 0)),
        (f"a == -2/{LONG}", (1, 9, 8)),
        (f"D({LONG}) == 0", (1, 3, 2)),
        (f"a ==\n  a^{LONG}", (2, 5, 9)),
    ],
    ids=["rational", "denominator", "bracket-power", "exponent"],
)
def test_overlong_numbers_are_positioned_errors(source, position):
    # int() refuses more than 4,300 digits; the parser reports where.
    with pytest.raises(DslSemanticError) as excinfo:
        parse(source)
    error = excinfo.value
    assert (error.line, error.column, error.offset) == position
    assert str(error).startswith(f"{position[0]}:{position[1]}: number has 5000 digits, over the limit of ")


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


def test_parse_matches_the_reference_front_end():
    rng = random.Random(20261121)
    fuzz = ["".join(rng.choices(FUZZ_PIECES, k=rng.randint(0, 40))) for _ in range(5000)]
    overlong = [f"{LONG} == a", f"a == -2/{LONG}", f"D({LONG}) == 0", f"a ==\n  a^{LONG}", f"-{LONG}/0 == a"]
    for source in [*parser_sources(random.Random(20261019)), *fuzz, *overlong]:
        assert outcome(parse, source) == parse_outcome(_Parser, source), source


@pytest.mark.parametrize(
    "source, position",
    [
        ("a ==\r\n b c", (2, 4, 9)),
        ("a ==\r b c", (1, 9, 8)),
        ("a ==\x0b\x0c b c", (1, 10, 9)),
        ("a ==\x85 b c", (1, 9, 8)),
        ("a ==\u2028 b c", (1, 9, 8)),
        ("a == # x\n# y\n  b c", (3, 5, 17)),
    ],
    ids=["crlf", "cr", "vt-ff", "nel", "line-separator", "comment-lines"],
)
def test_only_a_newline_ends_a_line(source, position):
    with pytest.raises(DslSyntaxError) as excinfo:
        parse(source)
    error = excinfo.value
    assert (error.line, error.column, error.offset) == position
    assert str(error) == f"{position[0]}:{position[1]}: expected end of input, got 'c'"


@pytest.mark.parametrize(
    "source, position",
    [
        ("a ++ b == $", (1, 11, 10)),
        (f"{LONG} == $", (1, 5005, 5004)),
        ("constraint: a*d - c*b = 0; a == $", (1, 33, 32)),
    ],
    ids=["after-a-syntax-error", "after-an-overlong-number", "after-a-foreign-constraint"],
)
def test_a_lexical_error_anywhere_is_reported_first(source, position):
    with pytest.raises(DslSyntaxError) as excinfo:
        parse(source)
    error = excinfo.value
    assert (error.line, error.column, error.offset) == position
    assert str(error) == f"{position[0]}:{position[1]}: unexpected character '$'"


def test_lexer_character_classes_match_the_str_predicates():
    # A blank is what str.isspace accepts, and a word goes on over what
    # str.isalnum accepts and "_", as the module docstring says.
    chars = [chr(code) for code in range(sys.maxunicode + 1)]
    blank = [c for c in chars if c != "#" and (_LEXEME.match(c)[1] is None) != c.isspace()]
    word = [c for c in chars if (_LEXEME.match("a" + c)[1] == "a" + c) != (c.isalnum() or c == "_")]
    assert (blank, word) == ([], [])


def test_unsupported_constraint_is_a_semantic_error():
    with pytest.raises(DslSemanticError):
        parse("constraint: a*b - c*d = 0; D(2) == 0")
    with pytest.raises(DslSemanticError):
        parse("constraint: a*d - b*c = 1; D(2) == 0")
    with pytest.raises(DslSemanticError):
        parse("1/0 == a")
    # The clause is read as two expressions and compared as trees.
    assert parse("constraint: (a*d) - (b*c) = 0; D(2) == 0").constrained
    assert parse("constraint: a*d - b*c = 0/7; D(2) == 0").constrained
    with pytest.raises(DslSemanticError):
        parse("constraint: a*d - c*b = 0; D(2) == 0")


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


def reference_latex(expr, parent=0):
    """The recursive LaTeX renderer that the work-stack one replaced."""
    wrap = "\\left({}\\right)".format
    if isinstance(expr, Num):
        value = expr.value
        text = str(value.numerator) if value.denominator == 1 else f"\\frac{{{value.numerator}}}{{{value.denominator}}}"
        return wrap(text) if parent > 3 and value < 0 else text
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Bracket):
        return render(IdentityStatement("", expr, expr, False), Format.LATEX).split(" = ")[0]
    if isinstance(expr, (Add, Sub)):
        body = reference_latex(expr.left, 1) + ("+" if isinstance(expr, Add) else "-") + reference_latex(expr.right, 2)
        return wrap(body) if parent > 1 else body
    if isinstance(expr, Mul):
        separator = "\\cdot " if isinstance(expr.right, Num) else ""
        body = reference_latex(expr.left, 2) + separator + reference_latex(expr.right, 3)
        return wrap(body) if parent > 2 else body
    if isinstance(expr.base, (Add, Sub, Mul, Pow)):
        return wrap(reference_latex(expr.base)) + f"^{{{expr.exponent}}}"
    return reference_latex(expr.base, 4) + f"^{{{expr.exponent}}}"


def reference_json(expr):
    """The JSON object of a node, built recursively."""
    if isinstance(expr, Num):
        return {"type": "num", "value": str(expr.value)}
    if isinstance(expr, Var):
        return {"type": "var", "name": expr.name}
    if isinstance(expr, Bracket):
        return {"type": "bracket", "kind": expr.kind.value, "power": expr.power}
    if isinstance(expr, Pow):
        return {"type": "pow", "base": reference_json(expr.base), "exponent": expr.exponent}
    kind = {Add: "add", Sub: "sub", Mul: "mul"}[type(expr)]
    return {"type": kind, "left": reference_json(expr.left), "right": reference_json(expr.right)}


def test_renderers_match_the_recursive_references():
    rng = random.Random(20261020)
    for _ in range(300):
        statement = random_statement(rng)
        prefix = "ad=bc \\implies " if statement.constrained else ""
        latex = f"{prefix}{reference_latex(statement.lhs)} = {reference_latex(statement.rhs)}"
        assert render(statement, Format.LATEX) == latex
        payload = {
            "name": statement.name,
            "constraint": statement.constrained,
            "lhs": reference_json(statement.lhs),
            "rhs": reference_json(statement.rhs),
        }
        assert render(statement, Format.JSON) == json.dumps(payload, separators=(",", ":"))


def test_renderers_take_a_deep_statement_in_linear_time():
    depth = 3000
    source = "(" * depth + "D(6)" + "*1 + 0)^1" * depth + " == D(6)"
    statement = parse(source, "deep")
    latex_bracket = render(parse("D(6) == 0"), Format.LATEX).split(" = ")[0]
    json_bracket = '{"type":"bracket","kind":"D","power":6}'
    expected = {
        Format.PLAIN: source,
        Format.LATEX: "\\left(" * depth + latex_bracket + "\\cdot 1+0\\right)^{1}" * depth + " = " + latex_bracket,
        Format.JSON: '{"name":"deep","constraint":false,"lhs":'
        + '{"type":"pow","base":{"type":"add","left":{"type":"mul","left":' * depth
        + json_bracket
        + ',"right":{"type":"num","value":"1"}},"right":{"type":"num","value":"0"}},"exponent":1}' * depth
        + ',"rhs":' + json_bracket + "}",
    }
    # Texts are compared, never trees: == on a deep tree recurses, and so
    # does json.loads.
    for fmt, text in expected.items():
        start = time.perf_counter()
        rendered = render(statement, fmt)
        assert time.perf_counter() - start < 1.0, fmt
        assert rendered == text, fmt
    assert render(parse(expected[Format.PLAIN]), Format.PLAIN) == expected[Format.PLAIN]


def test_load_statement_names_after_file_stem(tmp_path):
    path = tmp_path / "my-identity.rid"
    path.write_text("# a trivial equation\nD(2) == D(2)\n", encoding="utf-8")
    statement = load_statement(path)
    assert statement.name == "my-identity"
    assert statement.lhs == statement.rhs == Bracket(BracketKind.D, 2)
    assert not statement.constrained


# (name, bytes): line ends, other whitespace and a byte order mark, each in a
# file that parses and in one that fails after it.
UNUSUAL_FILES = [
    ("crlf", b"constraint: a*d - b*c = 0;\r\n64*D(6)*D(10) == 45*D(8)^2\r\n"),
    ("crlf-error", b"a ==\r\n b c\n"),
    ("cr", b"constraint: a*d - b*c = 0;\r64*D(6)*D(10) == 45*D(8)^2\r"),
    ("cr-error", b"a ==\r b c\n"),
    ("cr-at-end", b"a ==\r"),
    ("nel", "a ==\x85b\x85".encode()),
    ("nel-error", "a ==\x85 b c\n".encode()),
    ("form-feed", b"a ==\x0cb\n"),
    ("form-feed-error", b"a ==\x0c\n b c"),
    ("bom", b"\xef\xbb\xbfa == a\n"),
    ("bom-inside", b"a == \xef\xbb\xbfa\n"),
]


def test_load_statement_parses_a_file_exactly_as_read(tmp_path):
    # Every benchmark statement text, and files with unusual whitespace.
    files = [
        (f"{statement.name}-{seed}", statement.source().encode())
        for seed in range(3)
        for statement in [*bench_statements.generate(seed), *bench_statements.true_versions(seed)]
    ]
    for name, data in [*files, *UNUSUAL_FILES]:
        path = tmp_path / f"{name}.rid"
        path.write_bytes(data)
        reference = outcome(lambda source: parse(source, path.stem), path.read_bytes().decode("utf-8"))
        assert outcome(load_statement, path) == outcome(load_statement, str(path)) == reference, name


@pytest.mark.parametrize("name, stem", [
    ("x.rid", "x"),
    ("a.b.rid", "a.b"),
    (".rid", ".rid"),
    ("..rid", "."),
    ("x.", "x."),
    ("dir/x.rid", "x"),
])
def test_load_statement_names_the_statement_as_pathlib_names_the_stem(tmp_path, name, stem):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_text("a == a\n", encoding="utf-8")
    assert PurePath(name).stem == stem
    assert load_statement(path).name == load_statement(str(path)).name == stem


def test_load_statement_refuses_a_bytes_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("x.rid").write_text("a == a\n", encoding="utf-8")
    with pytest.raises(TypeError):
        load_statement(b"x.rid")
