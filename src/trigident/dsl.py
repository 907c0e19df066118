"""A small language for identity statements, with parser and renderers.

Grammar (whitespace-insensitive, ``#`` starts a comment that runs to the
end of the line):

    statement  := [ "constraint" ":" expr "=" expr ";" ] expr "==" expr
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

The only side condition the language admits is a*d - b*c = 0: a clause
whose two expressions parse to other trees than those of ``a*d - b*c`` and
``0`` (``a*d - c*b``, say, but not ``(a*d) - (b*c)`` or ``0/7``) is rejected
as unsupported after parsing, as are a zero denominator and a number with
more digits than ``int`` converts (``sys.get_int_max_str_digits``, 4,300
by default).  ``parse`` and ``render(..., Format.PLAIN)`` are mutually
inverse on abstract syntax trees, with PLAIN output inserting parentheses
only where precedence or associativity requires them.
"""

from __future__ import annotations

import json
import re
import sys
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
_BINARY = {_TokenKind.PLUS: Add, _TokenKind.MINUS: Sub, _TokenKind.STAR: Mul}


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

    def _natural(self) -> int:
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
        constrained = self._peek().kind is _TokenKind.CONSTRAINT and self._parse_constraint()
        lhs, rhs = self._parse_equation(_TokenKind.EQUALITY, _TokenKind.END)
        return IdentityStatement(name, lhs, rhs, constrained)

    def _parse_equation(self, equals: _TokenKind, end: _TokenKind) -> tuple[Expr, Expr]:
        lhs = self.parse_expr()
        self._expect(equals)
        rhs = self.parse_expr()
        self._expect(end)
        return lhs, rhs

    def _parse_constraint(self) -> bool:
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

    def parse_expr(self) -> Expr:
        # Operator precedence over an explicit stack of the operators awaiting
        # a right operand, each with its left one, and None per open parenthesis.
        pending: list = []
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
                # Apply the waiting operators that bind at least as tightly.
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

    def _parse_base(self) -> Expr:
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

    def _parse_rational(self) -> Num:
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
        return f"{prefix}{_emit(statement.lhs, _plain)} == {_emit(statement.rhs, _plain)}"
    if fmt is Format.LATEX:
        prefix = "ad=bc \\implies " if statement.constrained else ""
        lhs, rhs = (_emit(side, _latex, "\\left(", "\\right)") for side in (statement.lhs, statement.rhs))
        return f"{prefix}{lhs} = {rhs}"
    if fmt is Format.JSON:
        # What json.dumps writes with separators (",", ":"), which recurses.
        lhs, rhs = _emit(statement.lhs, _json_node), _emit(statement.rhs, _json_node)
        return f'{{"name":{json.dumps(statement.name)},"constraint":{json.dumps(statement.constrained)},"lhs":{lhs},"rhs":{rhs}}}'
    raise ValueError(f"unknown format {fmt!r}")


def _emit(expr: Expr, spell, opening: str = "(", closing: str = ")") -> str:
    """The text of a tree from a work stack, in time linear in its length.

    ``spell(node)`` gives a node's precedence and its text, as strings and
    (child, least precedence) pairs; a child below it is put in parentheses.
    """
    out, work = [], [(expr, 0)]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, needed = item
        precedence, pieces = spell(node)
        if precedence < needed:
            pieces = [opening, *pieces, closing]
        work += reversed(pieces)
    return "".join(out)


def _plain(expr: Expr) -> tuple[int, list]:
    if isinstance(expr, Num):
        return _PREC_ATOM, [str(expr.value)]
    if isinstance(expr, Var):
        return _PREC_ATOM, [expr.name]
    if isinstance(expr, Bracket):
        return _PREC_ATOM, [f"{expr.kind.value}({expr.power})"]
    if isinstance(expr, (Add, Sub)):
        return _PREC_ADD, [(expr.left, _PREC_ADD), " + " if isinstance(expr, Add) else " - ", (expr.right, _PREC_MUL)]
    if isinstance(expr, Mul):
        return _PREC_MUL, [(expr.left, _PREC_MUL), "*", (expr.right, _PREC_POW)]
    if isinstance(expr, Pow):
        return _PREC_POW, [(expr.base, _PREC_ATOM), f"^{expr.exponent}"]
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


def _latex(expr: Expr) -> tuple[int, list]:
    if isinstance(expr, Num):
        value = expr.value
        text = str(value) if value.denominator == 1 else f"\\frac{{{value.numerator}}}{{{value.denominator}}}"
        # A negative number is bracketed only as the base of a power.
        return (_PREC_POW if value < 0 else _PREC_ATOM), [text]
    if isinstance(expr, Var):
        return _PREC_ATOM, [expr.name]
    if isinstance(expr, Bracket):
        layout = _BRACKET_LATEX[(expr.kind, expr.power % 2)]
        return _PREC_ATOM, ["\\left\\{" + layout.format(n=expr.power) + "\\right\\}"]
    if isinstance(expr, (Add, Sub)):
        return _PREC_ADD, [(expr.left, _PREC_ADD), "+" if isinstance(expr, Add) else "-", (expr.right, _PREC_MUL)]
    if isinstance(expr, Mul):
        separator = "\\cdot " if isinstance(expr.right, Num) else ""
        return _PREC_MUL, [(expr.left, _PREC_MUL), separator, (expr.right, _PREC_POW)]
    if isinstance(expr, Pow):
        return _PREC_POW, [(expr.base, _PREC_ATOM), f"^{{{expr.exponent}}}"]
    raise TypeError(f"not an expression node: {expr!r}")


def _json_node(expr: Expr) -> tuple[int, list]:
    if isinstance(expr, Num):
        return _PREC_ATOM, [f'{{"type":"num","value":{json.dumps(str(expr.value))}}}']
    if isinstance(expr, Var):
        return _PREC_ATOM, [f'{{"type":"var","name":{json.dumps(expr.name)}}}']
    if isinstance(expr, Bracket):
        return _PREC_ATOM, [f'{{"type":"bracket","kind":"{expr.kind.value}","power":{json.dumps(expr.power)}}}']
    if isinstance(expr, (Add, Sub, Mul)):
        kind = "add" if isinstance(expr, Add) else "sub" if isinstance(expr, Sub) else "mul"
        return _PREC_ATOM, [f'{{"type":"{kind}","left":', (expr.left, 0), ',"right":', (expr.right, 0), "}"]
    if isinstance(expr, Pow):
        return _PREC_ATOM, ['{"type":"pow","base":', (expr.base, 0), f',"exponent":{json.dumps(expr.exponent)}}}']
    raise TypeError(f"not an expression node: {expr!r}")
