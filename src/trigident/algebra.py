"""Exact sparse polynomial arithmetic over the rationals in a, b, c, d.

A polynomial is stored as a mapping from monomials to nonzero rational
coefficients.  An integral coefficient is stored as a plain int and only a
non-integral one as a Fraction, so the integer polynomials that brackets
and constraints produce multiply at int speed; Python mixes the two types
exactly.  A monomial is a 4-tuple of non-negative exponents, one per
variable in the fixed order (a, b, c, d), and ``terms`` shows it so.
Inside, it is packed into one int key with a field of ``_FIELD_BITS`` (16)
bits per exponent, a in the lowest bits, so the key of a product of
monomials is the sum of their keys and that of a power is a multiple.
Each polynomial carries an upper bound on its exponents, and an operation
whose bound would pass ``_MAX_EXPONENT`` (65,535) raises ``ValueError``
before it forms such a key, so an exponent never spills into the next
variable's field.  A product's bound is the sum of its factors' bounds,
which stays far inside the limit under the 10,000 node-degree budget of
``identities``.  A sum's bound is the larger of its addends', even where
they cancel, so before it refuses, an operation recounts its operands'
bounds from their terms, as the largest total degree of a term.  A power
of at most three terms is written out by the multinomial theorem, one
term per composition of the exponent, and a longer one is built by
repeated squaring.  The zero polynomial stores no terms at all, so
structural equality of the term mappings coincides with mathematical
equality.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb
from operator import index, mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

VARIABLES: tuple[str, str, str, str] = ("a", "b", "c", "d")

Monomial = tuple[int, int, int, int]
Scalar = Union[int, Fraction]

_FIELD_BITS = 16
_MAX_EXPONENT = (1 << _FIELD_BITS) - 1


def _pack(monomial: Iterable[int]) -> tuple[int, int]:
    """Key and largest exponent of a 4-tuple of exponents; ``ValueError`` if it is none or does not fit."""
    try:
        a, b, c, d = map(index, monomial)
    except (TypeError, ValueError):
        raise ValueError(f"bad monomial {monomial!r}") from None
    if min(a, b, c, d) < 0:
        raise ValueError(f"bad monomial {monomial!r}")
    largest = max(a, b, c, d)
    if largest > _MAX_EXPONENT:
        raise ValueError(f"monomial {monomial!r} has an exponent over the limit of {_MAX_EXPONENT}")
    return a | b << _FIELD_BITS | c << 2 * _FIELD_BITS | d << 3 * _FIELD_BITS, largest


def _unpack(key: int) -> Monomial:
    return (
        key & _MAX_EXPONENT,
        key >> _FIELD_BITS & _MAX_EXPONENT,
        key >> 2 * _FIELD_BITS & _MAX_EXPONENT,
        key >> 3 * _FIELD_BITS,
    )


def _bounded(bound: int) -> int:
    """The exponent bound of a result, or ``ValueError`` if its exponents might not fit."""
    if bound > _MAX_EXPONENT:
        raise ValueError(f"an exponent could reach {bound}, over the limit of {_MAX_EXPONENT}")
    return bound


def _recounted(poly: Polynomial) -> int:
    # A tighter exponent bound, counted from the terms in one pass on the rare
    # path where a carried bound passes the limit: the largest total degree of
    # a term, if that is smaller.  A product's total degree is the sum of its
    # factors', as its carried bound is, but + and - may cancel the terms
    # that set a bound, and the carried bound does not fall with them.
    return min(poly._bound, max((sum(_unpack(key)) for key in poly._terms), default=0))


def _order_key(monomial: Monomial) -> tuple[int, tuple[int, ...]]:
    # Ascending sort on this key lists terms in descending graded
    # reverse-lexicographic order: higher total degree first, ties broken so
    # that the monomial whose rightmost differing exponent is smaller wins.
    # The degree-2 six-term bracket therefore renders as "6*b*c - 6*a*d".
    return (-sum(monomial), tuple(reversed(monomial)))


class _Terms(MappingABC):
    """Read-only view of packed terms as a mapping from 4-tuples to coefficients."""

    __slots__ = ("_packed",)

    def __init__(self, packed: dict[int, Scalar]):
        self._packed = packed

    def __len__(self) -> int:
        return len(self._packed)

    def __iter__(self) -> Iterator[Monomial]:
        return map(_unpack, self._packed)

    def __getitem__(self, monomial: Monomial) -> Scalar:
        try:
            key, _ = _pack(monomial)
        except ValueError:
            raise KeyError(monomial) from None
        return self._packed[key]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_terms", "_bound")

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        accumulated: dict[int, Scalar] = {}
        bound = 0
        for monomial, coefficient in items:
            key, largest = _pack(monomial)
            if largest > bound:
                bound = largest
            if type(coefficient) is not int:
                coefficient = Fraction(coefficient)
            accumulated[key] = accumulated.get(key, 0) + coefficient
        self._terms = _canonical(accumulated)
        self._bound = bound

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> Polynomial:
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> Polynomial:
        # The constant monomial's key is 0; every scalar operand comes through here.
        return _wrap(_canonical({0: value if type(value) is int else Fraction(value)}), 0)

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
        """Read-only view of the canonical term mapping, keyed by 4-tuples.

        No coefficient is zero, and each is an int when integral, otherwise
        a Fraction with denominator > 1.  Its length is the term count,
        read without unpacking any monomial.
        """
        return _Terms(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in the canonical rendering order (graded, then reverse-lex)."""
        terms = [(_unpack(key), coefficient) for key, coefficient in self._terms.items()]
        return sorted(terms, key=lambda term: _order_key(term[0]))

    def degree_in(self, name: str) -> int:
        """Largest exponent of one variable; 0 for polynomials not involving it."""
        shift = VARIABLES.index(name) * _FIELD_BITS
        return max((k >> shift & _MAX_EXPONENT for k in self._terms), default=0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == Polynomial.constant(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals its scalar, so it hashes as one (0 for zero).
        if self._terms.keys() <= {0}:
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _coerce(other)
        merged = dict(self._terms)
        for key, coefficient in other._terms.items():
            merged[key] = merged.get(key, 0) + coefficient
        return _wrap(_canonical(merged), max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return _wrap({k: -c for k, c in self._terms.items()}, self._bound)

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        return self + (-_coerce(other))

    def __rsub__(self, other: Scalar) -> Polynomial:
        return _coerce(other) - self

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        other = _coerce(other)
        bound = self._bound + other._bound
        if bound > _MAX_EXPONENT:
            bound = _bounded(_recounted(self) + _recounted(other))
        product: dict[int, Scalar] = {}
        _accumulate_product(product, self._terms.items(), list(other._terms.items()))
        return _wrap(_canonical(product), bound)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        bound = self._bound * exponent
        if bound > _MAX_EXPONENT:
            bound = _bounded(_recounted(self) * exponent)
        if len(self._terms) <= 3:
            return _wrap(_canonical(_multinomial_power(list(self._terms.items()), exponent)), bound)
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
        for key, coefficient in self._terms.items():
            term = coefficient
            for value, exponent in zip(values, _unpack(key)):
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
        shift = VARIABLES.index(name) * _FIELD_BITS
        if numerator.degree_in(name) or denominator.degree_in(name):
            raise ValueError(f"replacement for {name} must not involve {name}")
        k = self.degree_in(name)
        if k == 0:
            return self
        # Group the terms by their exponent e of the substituted variable, so
        # each factor numerator^e * denominator^(k-e) is built once and every
        # product lands in one dict.
        by_exponent: list[list[tuple[int, Scalar]]] = [[] for _ in range(k + 1)]
        for key, coefficient in self._terms.items():
            e = key >> shift & _MAX_EXPONENT
            by_exponent[e].append((key - (e << shift), coefficient))
        numerator_powers = _powers(numerator, k)
        denominator_powers = _powers(denominator, k)
        result: dict[int, Scalar] = {}
        bound = 0
        for e, stripped_terms in enumerate(by_exponent):
            if stripped_terms:
                factor = numerator_powers[e] * denominator_powers[k - e]
                step = self._bound + factor._bound
                if step > _MAX_EXPONENT:
                    step = _bounded(_recounted(self) + _recounted(factor))
                bound = max(bound, step)
                _accumulate_product(result, stripped_terms, list(factor._terms.items()))
        return _wrap(_canonical(result), bound)

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


def _wrap(terms: dict[int, Scalar], bound: int) -> Polynomial:
    # Internal fast path: terms is already canonical and its exponents are at most bound.
    poly = Polynomial.__new__(Polynomial)
    poly._terms = terms
    poly._bound = bound
    return poly


def _accumulate_product(
    into: dict[int, Scalar],
    left: Iterable[tuple[int, Scalar]],
    right: Sequence[tuple[int, Scalar]],
) -> None:
    # Adds every pairwise product of left and right terms into one dict; the
    # caller has checked that the sums of their keys fit.  Zeros and integral
    # Fractions are left for _canonical to clean up once.
    get = into.get
    for k1, c1 in left:
        for k2, c2 in right:
            key = k1 + k2
            into[key] = get(key, 0) + c1 * c2


def _multinomial_power(items: list[tuple[int, Scalar]], n: int) -> dict[int, Scalar]:
    # (u + v + w)^n for at most three terms, one term per composition
    # i + j + k = n with coefficient C(n, i)*C(n - i, j)*u^i*v^j*w^k.  Of two
    # terms, u is the missing one, held at exponent 0.  Monomials can collide
    # (a^2, a*b, b^2), so the terms are summed into one dict.
    if len(items) < 2:
        # One term, or none: the zero polynomial's 0th power is 1.
        return {n * k: c ** n for k, c in items} if items or n else {0: 1}
    (ku, cu), (kv, cv), (kw, cw) = [(0, 0)] * (3 - len(items)) + items
    pu, pv, pw = (list(accumulate(repeat(c, n), mul, initial=1)) for c in (cu, cv, cw))
    into: dict[int, Scalar] = {}
    get = into.get
    step = kv - kw
    for i in range(n + 1 if cu else 1):
        m = n - i
        head = comb(n, i) * pu[i]
        key = i * ku + m * kw
        for j in range(m + 1):
            into[key] = get(key, 0) + head * comb(m, j) * pv[j] * pw[m - j]
            key += step
    return into


def _canonical(terms: dict[int, Scalar]) -> dict[int, Scalar]:
    # One pass per result: drop zeros, and store an integral coefficient as
    # an int.  An int coefficient never needs narrowing; a Fraction does when
    # its denominators cancelled to 1.
    return {
        key: coefficient
        if type(coefficient) is int or coefficient.denominator != 1
        else coefficient.numerator
        for key, coefficient in terms.items()
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
