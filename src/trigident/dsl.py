"""A small language for identity statements, with parser and renderers.

Grammar (whitespace-insensitive, ``#`` starts a comment that runs to the
end of the line):

    statement  := [ constraint ";" ] expr "==" expr
    constraint := "constraint" ":" "a" "*" "d" "-" "b" "*" "c" "=" "0"
    expr       := term { ("+" | "-") term }
    term       := factor { "*" factor }
    factor     := base [ "^" natural ]
    base       := rational | variable | bracket | "(" expr ")"
    bracket    := ("D" | "A" | "B") "(" natural ")"
    rational   := [ "-" ] natural [ "/" natural ]
    variable   := "a" | "b" | "c" | "d"

Every token is ASCII: numbers use the digits 0-9 only, so a non-ASCII digit
such as a superscript two is a syntax error.  Whitespace is any character
str.isspace accepts.  Errors report a 1-based ``line:column`` counted in
characters, where only a newline ends a line and comments count like any
other text, plus the 0-based character ``offset``.

The only side condition the language admits is a*d - b*c = 0; any other
constraint clause is rejected as unsupported after parsing.  ``parse`` and
``render(..., Format.PLAIN)`` are mutually inverse on abstract syntax
trees, with PLAIN output inserting parentheses only where precedence or
associativity requires them.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .algebra import VARIABLES
from .identities import (
    Add,
    Bracket,
    BracketKind,
    Expr,
    IdentityStatement,
    Mul,
    Num,
    Pow,
    Sub,
    Var,
)


class Format(Enum):
    PLAIN = "plain"
    LATEX = "latex"
    JSON = "json"


class DslError(ValueError):
    """Base for statement-language errors; carries a source position."""

    def __init__(self, message: str, line: int, column: int, offset: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.offset = offset


class DslSyntaxError(DslError):
    """Unexpected token, with the set of token kinds that were legal."""

    def __init__(self, message: str, line: int, column: int, offset: int, expected: tuple[str, ...]):
        super().__init__(message, line, column, offset)
        self.expected = expected


class DslSemanticError(DslError):
    """Well-formed input with unsupported meaning, e.g. a foreign constraint."""


# ----------------------------------------------------------------------
# lexer


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

# Every fixed lexeme and its kind; numbers are the only other tokens.
_LEXEMES = {
    **_SYMBOLS,
    "=": _TokenKind.EQUAL,
    "==": _TokenKind.EQUALITY,
    "constraint": _TokenKind.CONSTRAINT,
    **dict.fromkeys(VARIABLES, _TokenKind.VARIABLE),
    **dict.fromkeys((kind.value for kind in BracketKind), _TokenKind.BRACKET),
}

# One match per lexeme, in source order, covering the whole source.  Digits
# are ASCII; blanks are whatever str.isspace accepts.  Words, "==" and any
# other single character are looked up in _LEXEMES.
_LEXEME = re.compile(
    r"(?P<skip>[^\S\n]+|#.*)"
    r"|(?P<newline>\n)"
    r"|(?P<number>[0-9]+)"
    r"|(?P<word>[A-Za-z_]\w*)"
    r"|==|."
)


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _LEXEME.finditer(source):
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


# ----------------------------------------------------------------------
# parser

_CONSTRAINT_LHS: Expr = Sub(Mul(Var("a"), Var("d")), Mul(Var("b"), Var("c")))


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> _Token:
        return self._tokens[self._index]

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: _TokenKind) -> _Token:
        token = self._peek()
        if token.kind is not kind:
            self._fail(token, (kind.value,))
        return self._advance()

    def _fail(self, token: _Token, expected: tuple[str, ...]) -> None:
        got = token.text or "end of input"
        raise DslSyntaxError(
            f"expected {' or '.join(expected)}, got {got!r}",
            token.line,
            token.column,
            token.offset,
            expected=expected,
        )

    def parse_statement(self, name: str) -> IdentityStatement:
        constrained = False
        if self._peek().kind is _TokenKind.CONSTRAINT:
            constrained = self._parse_constraint()
        lhs = self.parse_expr()
        self._expect(_TokenKind.EQUALITY)
        rhs = self.parse_expr()
        self._expect(_TokenKind.END)
        return IdentityStatement(name, lhs, rhs, constrained)

    def _parse_constraint(self) -> bool:
        keyword = self._expect(_TokenKind.CONSTRAINT)
        self._expect(_TokenKind.COLON)
        lhs = self.parse_expr()
        self._expect(_TokenKind.EQUAL)
        rhs = self.parse_expr()
        self._expect(_TokenKind.SEMICOLON)
        if lhs != _CONSTRAINT_LHS or rhs != Num(Fraction(0)):
            raise DslSemanticError(
                "unsupported constraint; only a*d - b*c = 0 is recognized",
                keyword.line,
                keyword.column,
                keyword.offset,
            )
        return True

    def parse_expr(self) -> Expr:
        left = self._parse_term()
        while self._peek().kind in (_TokenKind.PLUS, _TokenKind.MINUS):
            op = self._advance()
            right = self._parse_term()
            left = Add(left, right) if op.kind is _TokenKind.PLUS else Sub(left, right)
        return left

    def _parse_term(self) -> Expr:
        left = self._parse_factor()
        while self._peek().kind is _TokenKind.STAR:
            self._advance()
            left = Mul(left, self._parse_factor())
        return left

    def _parse_factor(self) -> Expr:
        base = self._parse_base()
        if self._peek().kind is _TokenKind.CARET:
            self._advance()
            exponent = int(self._expect(_TokenKind.NUMBER).text)
            return Pow(base, exponent)
        return base

    def _parse_base(self) -> Expr:
        token = self._peek()
        if token.kind is _TokenKind.MINUS or token.kind is _TokenKind.NUMBER:
            return self._parse_rational()
        if token.kind is _TokenKind.VARIABLE:
            return Var(self._advance().text)
        if token.kind is _TokenKind.BRACKET:
            kind = BracketKind(self._advance().text)
            self._expect(_TokenKind.LPAREN)
            power = int(self._expect(_TokenKind.NUMBER).text)
            self._expect(_TokenKind.RPAREN)
            return Bracket(kind, power)
        if token.kind is _TokenKind.LPAREN:
            self._advance()
            inner = self.parse_expr()
            self._expect(_TokenKind.RPAREN)
            return inner
        self._fail(token, ("number", "variable", "bracket", "'('"))

    def _parse_rational(self) -> Num:
        negative = False
        if self._peek().kind is _TokenKind.MINUS:
            self._advance()
            negative = True
        numerator_token = self._expect(_TokenKind.NUMBER)
        numerator = int(numerator_token.text)
        denominator = 1
        if self._peek().kind is _TokenKind.SLASH:
            self._advance()
            denominator_token = self._expect(_TokenKind.NUMBER)
            denominator = int(denominator_token.text)
            if denominator == 0:
                raise DslSemanticError(
                    "zero denominator",
                    denominator_token.line,
                    denominator_token.column,
                    denominator_token.offset,
                )
        value = Fraction(numerator, denominator)
        return Num(-value if negative else value)


def parse(source: str, name: str = "") -> IdentityStatement:
    """Parse one statement; raises DslSyntaxError or DslSemanticError."""
    return _Parser(_tokenize(source)).parse_statement(name)


def load_statement(path: str | Path) -> IdentityStatement:
    """Parse a statement file, naming the statement after the file stem."""
    path = Path(path)
    return parse(path.read_text(encoding="utf-8"), name=path.stem)


# ----------------------------------------------------------------------
# rendering

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4

_CONSTRAINT_PLAIN = "constraint: a*d - b*c = 0; "


def render(statement: IdentityStatement, fmt: Format) -> str:
    """Render a statement; PLAIN output re-parses to an equal statement."""
    if fmt is Format.PLAIN:
        prefix = _CONSTRAINT_PLAIN if statement.constrained else ""
        return f"{prefix}{_plain(statement.lhs, 0)} == {_plain(statement.rhs, 0)}"
    if fmt is Format.LATEX:
        prefix = "ad=bc \\implies " if statement.constrained else ""
        return f"{prefix}{_latex(statement.lhs, 0)} = {_latex(statement.rhs, 0)}"
    if fmt is Format.JSON:
        payload = {
            "name": statement.name,
            "constraint": statement.constrained,
            "lhs": _json_node(statement.lhs),
            "rhs": _json_node(statement.rhs),
        }
        return json.dumps(payload, separators=(",", ":"))
    raise ValueError(f"unknown format {fmt!r}")


def _plain(expr: Expr, parent: int) -> str:
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Bracket):
        return f"{expr.kind.value}({expr.power})"
    if isinstance(expr, (Add, Sub)):
        op = " + " if isinstance(expr, Add) else " - "
        body = f"{_plain(expr.left, _PREC_ADD)}{op}{_plain(expr.right, _PREC_MUL)}"
        return f"({body})" if parent > _PREC_ADD else body
    if isinstance(expr, Mul):
        body = f"{_plain(expr.left, _PREC_MUL)}*{_plain(expr.right, _PREC_POW)}"
        return f"({body})" if parent > _PREC_MUL else body
    if isinstance(expr, Pow):
        body = f"{_plain(expr.base, _PREC_ATOM)}^{expr.exponent}"
        return f"({body})" if parent > _PREC_POW else body
    raise TypeError(f"not an expression node: {expr!r}")


# Power-sum layouts of the brackets over their defining zero-sum triples,
# one layout per parity because odd powers flip the middle sign.
_BRACKET_LATEX = {
    (BracketKind.D, 0): "(a+b+c)^{{{n}}}+(b+c+d)^{{{n}}}-(c+d+a)^{{{n}}}-(d+a+b)^{{{n}}}+(a-d)^{{{n}}}-(b-c)^{{{n}}}",
    (BracketKind.D, 1): "(b+c+d)^{{{n}}}-(a+b+c)^{{{n}}}-(a+c+d)^{{{n}}}+(a+b+d)^{{{n}}}+(a-d)^{{{n}}}-(b-c)^{{{n}}}",
    (BracketKind.A, 0): "(a+b+c)^{{{n}}}+(b+c+d)^{{{n}}}+(a-d)^{{{n}}}",
    (BracketKind.A, 1): "(b+c+d)^{{{n}}}-(a+b+c)^{{{n}}}+(a-d)^{{{n}}}",
    (BracketKind.B, 0): "(a+c+d)^{{{n}}}+(a+b+d)^{{{n}}}+(b-c)^{{{n}}}",
    (BracketKind.B, 1): "(a+c+d)^{{{n}}}-(a+b+d)^{{{n}}}+(b-c)^{{{n}}}",
}


def _latex(expr: Expr, parent: int) -> str:
    if isinstance(expr, Num):
        value = expr.value
        if value.denominator == 1:
            text = str(value.numerator)
        else:
            text = f"\\frac{{{value.numerator}}}{{{value.denominator}}}"
        return f"\\left({text}\\right)" if parent > _PREC_POW and value < 0 else text
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Bracket):
        layout = _BRACKET_LATEX[(expr.kind, expr.power % 2)]
        return "\\left\\{" + layout.format(n=expr.power) + "\\right\\}"
    if isinstance(expr, (Add, Sub)):
        op = "+" if isinstance(expr, Add) else "-"
        body = f"{_latex(expr.left, _PREC_ADD)}{op}{_latex(expr.right, _PREC_MUL)}"
        return f"\\left({body}\\right)" if parent > _PREC_ADD else body
    if isinstance(expr, Mul):
        left = _latex(expr.left, _PREC_MUL)
        right = _latex(expr.right, _PREC_POW)
        separator = "\\cdot " if isinstance(expr.right, Num) else ""
        body = f"{left}{separator}{right}"
        return f"\\left({body}\\right)" if parent > _PREC_MUL else body
    if isinstance(expr, Pow):
        if isinstance(expr.base, (Add, Sub, Mul, Pow)):
            base = f"\\left({_latex(expr.base, 0)}\\right)"
        else:
            base = _latex(expr.base, _PREC_ATOM)
        return f"{base}^{{{expr.exponent}}}"
    raise TypeError(f"not an expression node: {expr!r}")


def _json_node(expr: Expr) -> dict:
    if isinstance(expr, Num):
        return {"type": "num", "value": str(expr.value)}
    if isinstance(expr, Var):
        return {"type": "var", "name": expr.name}
    if isinstance(expr, Bracket):
        return {"type": "bracket", "kind": expr.kind.value, "power": expr.power}
    if isinstance(expr, Add):
        return {"type": "add", "left": _json_node(expr.left), "right": _json_node(expr.right)}
    if isinstance(expr, Sub):
        return {"type": "sub", "left": _json_node(expr.left), "right": _json_node(expr.right)}
    if isinstance(expr, Mul):
        return {"type": "mul", "left": _json_node(expr.left), "right": _json_node(expr.right)}
    if isinstance(expr, Pow):
        return {"type": "pow", "base": _json_node(expr.base), "exponent": expr.exponent}
    raise TypeError(f"not an expression node: {expr!r}")
