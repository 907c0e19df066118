"""Exact sparse polynomial arithmetic over the rationals in a, b, c, d.

A polynomial is stored as a mapping from monomials to nonzero rational
coefficients.  An integral coefficient is stored as a plain int and only a
non-integral one as a Fraction, so the integer polynomials that brackets
and constraints produce multiply at int speed; Python mixes the two types
exactly.  A monomial is a 4-tuple of non-negative exponents, one per
variable in the fixed order (a, b, c, d).  The zero polynomial stores no
terms at all, so structural equality of the term mappings coincides with
mathematical equality.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

VARIABLES: tuple[str, str, str, str] = ("a", "b", "c", "d")

Monomial = tuple[int, int, int, int]
Scalar = Union[int, Fraction]

_ZERO_MONOMIAL: Monomial = (0, 0, 0, 0)


def _order_key(monomial: Monomial) -> tuple[int, tuple[int, ...]]:
    # Ascending sort on this key lists terms in descending graded
    # reverse-lexicographic order: higher total degree first, ties broken so
    # that the monomial whose rightmost differing exponent is smaller wins.
    # The degree-2 six-term bracket therefore renders as "6*b*c - 6*a*d".
    return (-sum(monomial), tuple(reversed(monomial)))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        accumulated: dict[Monomial, Scalar] = {}
        for monomial, coefficient in items:
            monomial = tuple(monomial)
            if len(monomial) != len(VARIABLES) or any(e < 0 or not isinstance(e, int) for e in monomial):
                raise ValueError(f"bad monomial {monomial!r}")
            if type(coefficient) is not int:
                coefficient = Fraction(coefficient)
            accumulated[monomial] = accumulated.get(monomial, 0) + coefficient
        self._terms = _canonical(accumulated)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> Polynomial:
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> Polynomial:
        return cls({_ZERO_MONOMIAL: value})

    @classmethod
    def variable(cls, name: str) -> Polynomial:
        index = VARIABLES.index(name)
        exponents = [0, 0, 0, 0]
        exponents[index] = 1
        return cls({tuple(exponents): 1})

    # ------------------------------------------------------------------
    # inspection

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        """Read-only view of the canonical term mapping.

        No coefficient is zero, and each is an int when integral, otherwise
        a Fraction with denominator > 1.
        """
        return MappingProxyType(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in the canonical rendering order (graded, then reverse-lex)."""
        return [(m, self._terms[m]) for m in sorted(self._terms, key=_order_key)]

    def degree_in(self, name: str) -> int:
        """Largest exponent of one variable; 0 for polynomials not involving it."""
        index = VARIABLES.index(name)
        return max((m[index] for m in self._terms), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _coerce(other)
        merged = dict(self._terms)
        for monomial, coefficient in other._terms.items():
            merged[monomial] = merged.get(monomial, 0) + coefficient
        return _wrap(_canonical(merged))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return _wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> Polynomial:
        return _coerce(other) - self

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _coerce(other)
        product: dict[Monomial, Scalar] = {}
        _accumulate_product(product, self._terms.items(), list(other._terms.items()))
        return _wrap(_canonical(product))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = Polynomial.constant(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # evaluation and substitution

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Exact value at a 4-tuple of rationals, in (a, b, c, d) order."""
        if len(point) != len(VARIABLES):
            raise ValueError(f"point must have {len(VARIABLES)} entries")
        values = [Fraction(v) for v in point]
        total = Fraction(0)
        for monomial, coefficient in self._terms.items():
            term = coefficient
            for value, exponent in zip(values, monomial):
                if exponent:
                    term *= value ** exponent
            total += term
        return total

    def substitute_clear(self, name: str, numerator: Polynomial, denominator: Polynomial) -> Polynomial:
        """Substitute name := numerator/denominator and clear denominators.

        Returns denominator**k * p(..., name := numerator/denominator, ...)
        where k is the degree of p in the substituted variable, so the result
        is again a polynomial.  The replacement polynomials must not involve
        the substituted variable.  A polynomial with k = 0 is returned
        unchanged, and the result is the zero polynomial exactly when p
        vanishes identically on the locus denominator * name = numerator
        (away from denominator = 0).
        """
        index = VARIABLES.index(name)
        if numerator.degree_in(name) or denominator.degree_in(name):
            raise ValueError(f"replacement for {name} must not involve {name}")
        k = self.degree_in(name)
        if k == 0:
            return self
        # Group the terms by their exponent e of the substituted variable, so
        # each factor numerator^e * denominator^(k-e) is built once and every
        # product lands in one dict.
        by_exponent: list[list[tuple[Monomial, Scalar]]] = [[] for _ in range(k + 1)]
        for monomial, coefficient in self._terms.items():
            stripped = list(monomial)
            stripped[index] = 0
            by_exponent[monomial[index]].append((tuple(stripped), coefficient))
        numerator_powers = _powers(numerator, k)
        denominator_powers = _powers(denominator, k)
        result: dict[Monomial, Scalar] = {}
        for e, stripped_terms in enumerate(by_exponent):
            if stripped_terms:
                factor = numerator_powers[e] * denominator_powers[k - e]
                _accumulate_product(result, stripped_terms, list(factor._terms.items()))
        return _wrap(_canonical(result))

    # ------------------------------------------------------------------
    # rendering

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for monomial, coefficient in self.sorted_terms():
            body = _render_term(monomial, abs(coefficient))
            if not pieces:
                pieces.append(body if coefficient > 0 else "-" + body)
            else:
                pieces.append((" + " if coefficient > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _coerce(value: Polynomial | Scalar) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")


def _wrap(terms: dict[Monomial, Scalar]) -> Polynomial:
    # Internal fast path: terms is already canonical.
    poly = Polynomial.__new__(Polynomial)
    poly._terms = terms
    return poly


def _accumulate_product(
    into: dict[Monomial, Scalar],
    left: Iterable[tuple[Monomial, Scalar]],
    right: Sequence[tuple[Monomial, Scalar]],
) -> None:
    # Adds every pairwise product of left and right terms into one dict.
    # Zeros and integral Fractions are left for _canonical to clean up once.
    get = into.get
    for (e0, e1, e2, e3), c1 in left:
        for m2, c2 in right:
            monomial = (e0 + m2[0], e1 + m2[1], e2 + m2[2], e3 + m2[3])
            into[monomial] = get(monomial, 0) + c1 * c2


def _canonical(terms: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
    # One pass per result: drop zeros, and store an integral coefficient as
    # an int.  An int coefficient never needs narrowing; a Fraction does when
    # its denominators cancelled to 1.
    return {
        monomial: coefficient
        if type(coefficient) is int or coefficient.denominator != 1
        else coefficient.numerator
        for monomial, coefficient in terms.items()
        if coefficient
    }


def _powers(poly: Polynomial, up_to: int) -> list[Polynomial]:
    powers = [Polynomial.constant(1)]
    for _ in range(up_to):
        powers.append(powers[-1] * poly)
    return powers


def _render_term(monomial: Monomial, magnitude: Scalar) -> str:
    factors = [
        name if exponent == 1 else f"{name}^{exponent}"
        for name, exponent in zip(VARIABLES, monomial)
        if exponent
    ]
    if not factors:
        return str(magnitude)
    if magnitude != 1:
        factors.insert(0, str(magnitude))
    return "*".join(factors)
