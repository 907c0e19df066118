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
str.isspace accepts.  A word starts with an ASCII letter or "_" and runs on
over what str.isalnum accepts and "_", so ``a1`` or ``aé`` is one unknown
word.  Errors report a 1-based ``line:column`` counted in characters, where
only a newline ends a line and comments count like any other text, plus the
0-based character ``offset``.  An unknown word or character anywhere is
reported before any syntax or semantic error.

The parser reads token texts alone.  Only when it fails does it scan the
source again for the failing token's offset, then count the newlines before
that offset for the line and the characters since the last one for the
column.

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
import os
import re
import sys
from enum import Enum
from fractions import Fraction

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

# One match per lexeme, in source order, covering the whole source: a run of
# blanks (whatever str.isspace accepts) or a comment, whose group is empty,
# or a token: ASCII digits, a word, "==" or any other single character.
_LEXEME = re.compile(r"\s+|#.*|([0-9]+|[A-Za-z_]\w*|==|.)")

_DIGITS = frozenset("0123456789")
_BRACKETS = {kind.value: kind for kind in BracketKind}
_VARIABLES = frozenset(VARIABLES)
_SYMBOLS = "+-*/^():;"
# Every token but numbers; any other word or character is a lexical error.
_LEXEMES = frozenset({*_SYMBOLS, "=", "==", "constraint", *_VARIABLES, *_BRACKETS})


def _tokens(source: str) -> list[str]:
    """The texts of the source's tokens, then "" for the end of input."""
    tokens = list(filter(None, _LEXEME.findall(source)))
    tokens.append("")
    return tokens


class _Failure(Exception):
    """A DslError at a token index: (index, error class, message, *expected).

    Only ``parse`` turns the index into an offset, line and column.
    """


def _syntax(tokens: list[str], index: int, *expected: str) -> _Failure:
    got = tokens[index] or "end of input"
    return _Failure(index, DslSyntaxError, f"expected {' or '.join(expected)}, got {got!r}", expected)


def _lexical_failure(tokens: list[str]) -> _Failure | None:
    """The first token that is neither a lexeme nor a number, if any."""
    for index, text in enumerate(tokens[:-1]):
        if text in _LEXEMES or text[0] in _DIGITS:
            continue
        if re.match("[A-Za-z_]", text):  # a word, as _LEXEME reads one
            return _Failure(index, DslSyntaxError, f"unknown word {text!r}", ("variable", "bracket", "'constraint'"))
        expected = tuple(f"'{symbol}'" for symbol in _SYMBOLS)
        return _Failure(index, DslSyntaxError, f"unexpected character {text!r}", expected)
    return None


# ----------------------------------------------------------------------
# parser

_CONSTRAINT_LHS: Expr = Sub(Mul(Var("a"), Var("d")), Mul(Var("b"), Var("c")))
_BINARY = {"+": Add, "-": Sub, "*": Mul}
_OPERAND = ("number", "variable", "bracket", "'('")


def _expect(tokens: list[str], index: int, text: str) -> int:
    """The index after the token ``text`` at ``index``; "" is the end of input."""
    if tokens[index] != text:
        raise _syntax(tokens, index, f"'{text}'" if text else "end of input")
    return index + 1


def _natural(tokens: list[str], index: int) -> int:
    text = tokens[index]
    if text[:1] not in _DIGITS:
        raise _syntax(tokens, index, "number")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        message = f"number has {len(text)} digits, over the limit of {sys.get_int_max_str_digits()}"
        raise _Failure(index, DslSemanticError, message) from None


def _rational(tokens: list[str], index: int) -> tuple[Num, int]:
    negative = tokens[index] == "-"
    if negative:
        index += 1
    elif tokens[index][:1] not in _DIGITS:
        raise _syntax(tokens, index, *_OPERAND)
    numerator = _natural(tokens, index)
    if negative:
        numerator = -numerator
    if tokens[index + 1] != "/":
        return Num(Fraction(numerator)), index + 1
    denominator = _natural(tokens, index + 2)
    if denominator == 0:
        raise _Failure(index + 2, DslSemanticError, "zero denominator")
    return Num(Fraction(numerator, denominator)), index + 3


def _expression(tokens: list[str], index: int) -> tuple[Expr, int]:
    """The expression that starts at ``index``, and the index after it."""
    # Operator precedence over an explicit stack of the operators awaiting
    # a right operand, each with its left one, and None per open parenthesis.
    pending: list = []
    while True:
        while tokens[index] == "(":
            index += 1
            pending.append(None)
        text = tokens[index]
        if text in _VARIABLES:
            operand = Var(text)
            index += 1
        elif text in _BRACKETS:
            power = _natural(tokens, _expect(tokens, index + 1, "("))
            index = _expect(tokens, index + 3, ")")
            operand = Bracket(_BRACKETS[text], power)
        else:
            operand, index = _rational(tokens, index)
        while True:
            text = tokens[index]
            if text == "^":
                operand = Pow(operand, _natural(tokens, index + 1))
                index += 2
                text = tokens[index]
            operator = _BINARY.get(text)
            # Apply the waiting operators that bind at least as tightly.
            while pending and pending[-1] and (operator is not Mul or pending[-1][0] is Mul):
                waiting, left = pending.pop()
                operand = waiting(left, operand)
            if operator is not None:
                index += 1
                pending.append((operator, operand))
                break
            if not pending:
                return operand, index
            index = _expect(tokens, index, ")")
            pending.pop()


def _equation(tokens: list[str], index: int, equals: str, end: str) -> tuple[Expr, Expr, int]:
    lhs, index = _expression(tokens, index)
    rhs, index = _expression(tokens, _expect(tokens, index, equals))
    return lhs, rhs, _expect(tokens, index, end)


def _statement(tokens: list[str], name: str) -> IdentityStatement:
    index = 0
    constrained = tokens[0] == "constraint"
    if constrained:
        lhs, rhs, index = _equation(tokens, _expect(tokens, 1, ":"), "=", ";")
        if lhs != _CONSTRAINT_LHS or rhs != Num(Fraction(0)):
            raise _Failure(0, DslSemanticError, "unsupported constraint; only a*d - b*c = 0 is recognized")
    lhs, rhs, _ = _equation(tokens, index, "==", "")
    return IdentityStatement(name, lhs, rhs, constrained)


def parse(source: str, name: str = "") -> IdentityStatement:
    """Parse one statement; raises DslSyntaxError or DslSemanticError."""
    tokens = _tokens(source)
    try:
        return _statement(tokens, name)
    except _Failure as failure:
        # A lexical error anywhere is reported before the parser's own.
        index, error, message, *expected = (_lexical_failure(tokens) or failure).args
    # The failing token's offset: that of the index-th token, or of the end.
    offset = [*(match.start() for match in _LEXEME.finditer(source) if match[1]), len(source)][index]
    line_start = source.rfind("\n", 0, offset) + 1
    raise error(message, source.count("\n", 0, offset) + 1, offset - line_start + 1, offset, *expected)


def load_statement(path: str | os.PathLike[str]) -> IdentityStatement:
    """Parse a statement file, naming the statement after the file stem.

    The file is decoded as UTF-8 and parsed exactly as read: nothing
    translates its line ends, so a carriage return is whitespace here as it
    is to ``parse``.  It is read in one unbuffered binary read, and the stem
    is ``PurePath.stem`` of the path, taken without building a path object.
    """
    name = os.path.basename(os.fspath(path))
    # pathlib's suffix rule: the last dot, strictly inside the name.  A bytes
    # path fails here with TypeError, as PurePath refuses one.
    dot = name.rfind(".")
    if 0 < dot < len(name) - 1:
        name = name[:dot]
    with open(path, "rb", buffering=0) as file:
        source = file.readall().decode("utf-8")
    return parse(source, name)


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
