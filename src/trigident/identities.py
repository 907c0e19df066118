"""Identity statements over power-sum brackets, and their verification.

The brackets are power sums of two specific zero-sum triples of linear
forms in a, b, c, d:

    triple one:  x1 = b + c + d,   y1 = -(a + b + c),   z1 = a - d
    triple two:  x2 = a + c + d,   y2 = -(a + b + d),   z2 = b - c

    A(n) = x1^n + y1^n + z1^n
    B(n) = x2^n + y2^n + z2^n
    D(n) = A(n) - B(n)

Each triple sums to zero, so for odd n the bracket expands to a six-term
(or three-term) alternating sum of n-th powers; the classical degree
(6, 10, 8) product identity lives over D under the side condition
a*d = b*c.

An IdentityStatement asserts lhs == rhs for expressions built from
rationals, the variables, brackets, +, -, *, and integer powers, optionally
assuming a*d - b*c = 0.  ``verify`` decides the statement symbolically:
expand both sides to polynomials, subtract, eliminate d via d := b*c/a
(clearing denominators) when the constraint is assumed, and test for the
zero polynomial.  ``spot_check`` corroborates numerically with exact
rational sampling and never expands anything on the passing path: each
sample point is lifted to integers over one common denominator, and the
tree is evaluated in integer (numerator, denominator) pairs.  A spot check
is random corroboration, not a proof: a false statement whose difference
vanishes on every point the sampler can draw passes it.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Union

from .algebra import VARIABLES, Polynomial

# ----------------------------------------------------------------------
# expression AST


class BracketKind(Enum):
    D = "D"
    A = "A"
    B = "B"


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Bracket:
    kind: BracketKind
    power: int


@dataclass(frozen=True)
class Add:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow:
    base: Expr
    exponent: int


Expr = Union[Num, Var, Bracket, Add, Sub, Mul, Pow]


@dataclass(frozen=True)
class IdentityStatement:
    """An equation, optionally under the side condition a*d - b*c = 0.

    The name labels reports and catalog lookups; it does not participate
    in equality, so a re-parsed rendering compares equal to the original.
    """

    name: str = field(compare=False)
    lhs: Expr
    rhs: Expr
    constrained: bool


# ----------------------------------------------------------------------
# bracket polynomials

_A_POLY = Polynomial.variable("a")
_B_POLY = Polynomial.variable("b")
_C_POLY = Polynomial.variable("c")
_D_POLY = Polynomial.variable("d")

_TRIPLE_ONE = (
    _B_POLY + _C_POLY + _D_POLY,
    -(_A_POLY + _B_POLY + _C_POLY),
    _A_POLY - _D_POLY,
)
_TRIPLE_TWO = (
    _A_POLY + _C_POLY + _D_POLY,
    -(_A_POLY + _B_POLY + _D_POLY),
    _B_POLY - _C_POLY,
)


@lru_cache(maxsize=None)
def bracket_poly(kind: BracketKind, power: int) -> Polynomial:
    """Expanded polynomial of one bracket; homogeneous of degree ``power``."""
    if power < 0:
        raise ValueError(f"bracket power must be non-negative, got {power}")
    if kind is BracketKind.D:
        return bracket_poly(BracketKind.A, power) - bracket_poly(BracketKind.B, power)
    triple = _TRIPLE_ONE if kind is BracketKind.A else _TRIPLE_TWO
    return triple[0] ** power + triple[1] ** power + triple[2] ** power


# ----------------------------------------------------------------------
# evaluation routes

Point = tuple[Fraction, Fraction, Fraction, Fraction]


def expr_to_poly(expr: Expr) -> Polynomial:
    """Fully expanded polynomial of an expression."""
    if isinstance(expr, Num):
        return Polynomial.constant(expr.value)
    if isinstance(expr, Var):
        return Polynomial.variable(expr.name)
    if isinstance(expr, Bracket):
        return bracket_poly(expr.kind, expr.power)
    if isinstance(expr, Add):
        return expr_to_poly(expr.left) + expr_to_poly(expr.right)
    if isinstance(expr, Sub):
        return expr_to_poly(expr.left) - expr_to_poly(expr.right)
    if isinstance(expr, Mul):
        return expr_to_poly(expr.left) * expr_to_poly(expr.right)
    if isinstance(expr, Pow):
        return expr_to_poly(expr.base) ** expr.exponent
    raise TypeError(f"not an expression node: {expr!r}")


def expr_value(expr: Expr, point: Point) -> Fraction:
    """Exact value at a rational point, computed without polynomial expansion.

    The point is lifted to integers over one common denominator and the
    tree is evaluated as integer (numerator, denominator) pairs; brackets
    are evaluated by powering the three linear-form values directly, so
    this route is independent of ``expr_to_poly`` and of the symbolic
    verifier that builds on it.  Negative powers raise ``ValueError``, as
    they do there.
    """
    numerator, denominator = _LiftedPoint(point).value(expr)
    return Fraction(numerator, denominator)


class _LiftedPoint:
    """A rational point as integer coordinates over one common denominator.

    With ``scale`` the lcm of the four denominators, each coordinate is
    ``coords[i] / scale``.  Values are unnormalized (numerator, denominator)
    pairs of ints with a positive denominator; no gcd is ever taken, and a
    bracket is ``(X^n + Y^n + Z^n, scale^n)`` over the integer linear forms.
    Brackets are cached per point, so both sides of a statement share them.
    """

    __slots__ = ("coords", "scale", "brackets")

    def __init__(self, point: Point):
        self.scale = lcm(*(v.denominator for v in point))
        self.coords = tuple(v.numerator * (self.scale // v.denominator) for v in point)
        self.brackets: dict[tuple[BracketKind, int], tuple[int, int]] = {}

    def value(self, expr: Expr) -> tuple[int, int]:
        if isinstance(expr, Bracket):
            return self.bracket(expr.kind, expr.power)
        if isinstance(expr, Mul):
            ln, ld = self.value(expr.left)
            rn, rd = self.value(expr.right)
            return ln * rn, ld * rd
        if isinstance(expr, (Add, Sub)):
            ln, ld = self.value(expr.left)
            rn, rd = self.value(expr.right)
            if isinstance(expr, Sub):
                rn = -rn
            if ld == rd:
                return ln + rn, ld
            return ln * rd + rn * ld, ld * rd
        if isinstance(expr, Pow):
            exponent = expr.exponent
            if not isinstance(exponent, int) or exponent < 0:
                raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
            n, d = self.value(expr.base)
            return n ** exponent, d ** exponent
        if isinstance(expr, Num):
            return expr.value.numerator, expr.value.denominator
        if isinstance(expr, Var):
            return self.coords[VARIABLES.index(expr.name)], self.scale
        raise TypeError(f"not an expression node: {expr!r}")

    def bracket(self, kind: BracketKind, power: int) -> tuple[int, int]:
        key = (kind, power)
        cached = self.brackets.get(key)
        if cached is not None:
            return cached
        if power < 0:
            raise ValueError(f"bracket power must be non-negative, got {power}")
        a, b, c, d = self.coords
        one = two = 0
        if kind is not BracketKind.B:
            one = (b + c + d) ** power + (-(a + b + c)) ** power + (a - d) ** power
        if kind is not BracketKind.A:
            two = (a + c + d) ** power + (-(a + b + d)) ** power + (b - c) ** power
        numerator = one - two if kind is BracketKind.D else one + two
        result = self.brackets[key] = numerator, self.scale ** power
        return result


def _sides_agree(statement: IdentityStatement, point: Point) -> bool:
    lifted = _LiftedPoint(point)
    ln, ld = lifted.value(statement.lhs)
    rn, rd = lifted.value(statement.rhs)
    return ln * rd == rn * ld


# ----------------------------------------------------------------------
# verification


class Verdict(Enum):
    PROVED = "PROVED"
    FALSIFIED = "FALSIFIED"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a symbolic verification or a numeric spot check.

    reduced_terms is the term count of the reduced difference polynomial;
    it is 0 exactly when the verdict is PROVED, and a witness point is
    present exactly when the verdict is FALSIFIED.  elapsed is wall time
    in seconds.
    """

    name: str
    verdict: Verdict
    witness: Optional[Point]
    reduced_terms: int
    elapsed: float


def reduce_difference(statement: IdentityStatement) -> Polynomial:
    """lhs - rhs as a polynomial, with d eliminated when constrained.

    Under the constraint the substitution d := b*c/a is applied and
    denominators are cleared, so the result vanishes identically exactly
    when the statement holds on the a != 0 chart of the constraint surface.
    """
    difference = expr_to_poly(statement.lhs) - expr_to_poly(statement.rhs)
    if statement.constrained:
        return difference.substitute_clear("d", _B_POLY * _C_POLY, _A_POLY)
    return difference


def verify(statement: IdentityStatement, seed: int = 0) -> VerificationReport:
    """Symbolic verdict; a FALSIFIED verdict carries a concrete witness."""
    start = time.perf_counter()
    reduced = reduce_difference(statement)
    if not reduced:
        return VerificationReport(
            statement.name, Verdict.PROVED, None, 0, time.perf_counter() - start
        )
    witness = _search_witness(statement, reduced, random.Random(seed))
    return VerificationReport(
        statement.name,
        Verdict.FALSIFIED,
        witness,
        len(reduced.terms),
        time.perf_counter() - start,
    )


def spot_check(statement: IdentityStatement, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Exact rational sampling of both sides at random admissible points.

    Free coordinates are nonzero rationals with numerator and denominator
    bounded by 9; for a constrained statement the fourth coordinate is
    derived as d = b*c/a so every point satisfies a*d = b*c exactly.  The
    passing path never expands a polynomial; on a failure the reduced
    difference is expanded once so the report's term count stays truthful.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    start = time.perf_counter()
    point = _first_disagreement(statement, trials, random.Random(seed))
    if point is None:
        return VerificationReport(
            statement.name, Verdict.PROVED, None, 0, time.perf_counter() - start
        )
    return VerificationReport(
        statement.name,
        Verdict.FALSIFIED,
        point,
        len(reduce_difference(statement).terms),
        time.perf_counter() - start,
    )


def _first_disagreement(
    statement: IdentityStatement, draws: int, rng: random.Random
) -> Optional[Point]:
    """The first of ``draws`` sample points where the sides differ, else None."""
    for _ in range(draws):
        point = _sample_point(statement.constrained, rng)
        if not _sides_agree(statement, point):
            return point
    return None


def _sample_point(constrained: bool, rng: random.Random) -> Point:
    if constrained:
        a, b, c = (_nonzero_rational(rng) for _ in range(3))
        return (a, b, c, b * c / a)
    return tuple(_nonzero_rational(rng) for _ in range(4))


def _nonzero_rational(rng: random.Random) -> Fraction:
    numerator = 0
    while numerator == 0:
        numerator = rng.randint(-9, 9)
    return Fraction(numerator, rng.randint(1, 9))


_WITNESS_DRAWS = 100


def _search_witness(
    statement: IdentityStatement, reduced: Polynomial, rng: random.Random
) -> Point:
    # The reduced difference is a nonzero polynomial, so random rational
    # points miss its zero set with overwhelming probability and the first
    # draw almost always succeeds.  The cap only bounds the rare statement
    # whose zero set covers the sampling box.
    return _first_disagreement(statement, _WITNESS_DRAWS, rng) or _integer_witness(
        reduced, statement.constrained
    )


def _integer_witness(reduced: Polynomial, constrained: bool) -> Point:
    # A zero set can hold the whole sampling box, e.g. (a - 1)*(a - 1/2)*...
    # over every rational it draws from.  Fix the free variables one at a
    # time: a polynomial of degree k in a variable that is nonzero stays
    # nonzero at one of the integers 1..k+1.  Under the constraint d is
    # already eliminated and d = b*c/a follows, with a >= 1.
    point = []
    for name in "abc" if constrained else "abcd":
        for value in range(1, reduced.degree_in(name) + 2):
            rest = reduced.substitute_clear(name, Polynomial.constant(value), Polynomial.constant(1))
            if rest:
                break
        reduced = rest
        point.append(Fraction(value))
    if constrained:
        a, b, c = point
        point.append(b * c / a)
    return tuple(point)


# ----------------------------------------------------------------------
# report rendering


def render_report(report: VerificationReport) -> str:
    """One-line verdict, e.g. ``PROVED ramanujan-6-10-8 reduced_terms=0 elapsed=1.2ms``."""
    if report.verdict is Verdict.PROVED:
        return (
            f"PROVED {report.name} reduced_terms={report.reduced_terms}"
            f" elapsed={report.elapsed * 1000.0:.1f}ms"
        )
    witness = ",".join(str(v) for v in report.witness)
    return f"FALSIFIED {report.name} witness=({witness})"


def report_json(report: VerificationReport) -> str:
    payload = {
        "verdict": report.verdict.value,
        "name": report.name,
        "reduced_terms": report.reduced_terms,
        "elapsed_ms": round(report.elapsed * 1000.0, 3),
        "witness": None
        if report.witness is None
        else [str(v) for v in report.witness],
    }
    return json.dumps(payload, separators=(",", ":"))


# ----------------------------------------------------------------------
# built-in catalog


# name -> (equation in the statement language, whether a*d = b*c is assumed).
# Entries are parsed on lookup, one at a time.
CATALOG: dict[str, tuple[str, bool]] = {
    "ramanujan-6-10-8": ("64*D(6)*D(10) == 45*D(8)^2", True),
    "gen-3-7-5-six": ("25*D(3)*D(7) == 21*D(5)^2", True),
    "gen-3-7-5-three": ("25*A(3)*A(7) == 21*A(5)^2", False),
    "asym-6-8-factored": ("8*(a^2+a*b+b^2)*(a^2+a*c+c^2)*D(6) == 3*a^2*D(8)", True),
    "asym-6-8-r2": ("4*A(2)*D(6) == 3*D(8)", True),
}


def catalog() -> list[IdentityStatement]:
    """The five built-in statements of ``CATALOG``, in its order.

    * ramanujan-6-10-8: the classical (6, 10, 8) product of six-term
      brackets under a*d = b*c.
    * gen-3-7-5-six: its (3, 7, 5) sibling over the same brackets.
    * gen-3-7-5-three: the (3, 7, 5) identity over the first triple alone,
      with no side condition.
    * asym-6-8-factored: an asymmetric consequence relating D(6) and D(8)
      through two quadratic factors.
    * asym-6-8-r2: the same content with the quadratics repackaged as the
      degree-2 sum bracket.
    """
    return [catalog_entry(name) for name in CATALOG]


def catalog_entry(name: str) -> IdentityStatement:
    """Catalog lookup by name; raises KeyError for unknown names."""
    text, constrained = CATALOG[name]
    from .dsl import parse  # dsl imports this module

    return replace(parse(text, name), constrained=constrained)
