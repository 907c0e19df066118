"""Exact sparse polynomial arithmetic over the rationals in a, b, c, d.

A polynomial is stored as a dict from monomials to nonzero rational
coefficients.  An integral coefficient is stored as a plain int and only a
non-integral one as a Fraction, so the integer polynomials that brackets
and constraints produce multiply at int speed; Python mixes the two types
exactly.  A monomial is a 4-tuple of non-negative int exponents, one per
variable in the fixed order (a, b, c, d), and ``terms`` shows that dict
through a read-only view.  An exponent is a Python int, so it has no upper
limit.  A power of at most three terms is written out by the multinomial
theorem, one term per composition of the exponent, and a longer one is
built by repeated squaring.  The zero polynomial stores no terms at all,
so structural equality of the term mappings coincides with mathematical
equality.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb
from operator import add, index, mul, sub
from types import MappingProxyType
from typing import Union

VARIABLES: tuple[str, str, str, str] = ("a", "b", "c", "d")

Monomial = tuple[int, int, int, int]
Scalar = Union[int, Fraction]

_CONSTANT: Monomial = (0, 0, 0, 0)


def _monomial(monomial: Iterable[int]) -> Monomial:
    """The 4-tuple of int exponents of ``monomial``; ``ValueError`` if it is not 4 non-negative integers."""
    try:
        a, b, c, d = map(index, monomial)
    except (TypeError, ValueError):
        raise ValueError(f"bad monomial {monomial!r}") from None
    if min(a, b, c, d) < 0:
        raise ValueError(f"bad monomial {monomial!r}")
    return a, b, c, d


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
            key = _monomial(monomial)
            if type(coefficient) is not int:
                coefficient = Fraction(coefficient)
            accumulated[key] = accumulated.get(key, 0) + coefficient
        self._terms = _canonical(accumulated)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> Polynomial:
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> Polynomial:
        return _wrap(_canonical({_CONSTANT: value if type(value) is int else Fraction(value)}))

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
        a Fraction with denominator > 1.  Its length is the term count.
        """
        return MappingProxyType(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in the canonical rendering order (graded, then reverse-lex)."""
        return sorted(self._terms.items(), key=lambda term: _order_key(term[0]))

    def degree_in(self, name: str) -> int:
        """Largest exponent of one variable; 0 for polynomials not involving it."""
        position = VARIABLES.index(name)
        return max((monomial[position] for monomial in self._terms), default=0)

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
        if self._terms.keys() <= {_CONSTANT}:
            return hash(self._terms.get(_CONSTANT, 0))
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        return _merged(self, _coerce(other), add)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return _wrap({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        return _merged(self, _coerce(other), sub)

    def __rsub__(self, other: Scalar) -> Polynomial:
        return _merged(_coerce(other), self, sub)

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if not isinstance(other, Polynomial):
            return _wrap(_scaled(self._terms, _scalar(other)))
        product: dict[Monomial, Scalar] = {}
        _accumulate_product(product, self._terms.items(), other._terms)
        return _wrap(_canonical(product))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        if len(self._terms) <= 3:
            return _wrap(_canonical(_multinomial_power(list(self._terms.items()), exponent)))
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
        position = VARIABLES.index(name)
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
            stripped = monomial[:position] + (0,) + monomial[position + 1:]
            by_exponent[monomial[position]].append((stripped, coefficient))
        numerator_powers = _powers(numerator, k)
        denominator_powers = _powers(denominator, k)
        result: dict[Monomial, Scalar] = {}
        for e, stripped_terms in enumerate(by_exponent):
            if stripped_terms:
                factor = numerator_powers[e] * denominator_powers[k - e]
                _accumulate_product(result, stripped_terms, factor._terms)
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
    return value if isinstance(value, Polynomial) else Polynomial.constant(_scalar(value))


def _scalar(value: Scalar) -> Scalar:
    # Every scalar operand comes through here, as an int or a Fraction: a
    # bool or another int subclass becomes a Fraction, which the terms it
    # makes narrow again.
    if type(value) is int:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")


def _wrap(terms: dict[Monomial, Scalar]) -> Polynomial:
    # Internal fast path: terms is already canonical.
    poly = Polynomial.__new__(Polynomial)
    poly._terms = terms
    return poly


def _merged(left: Polynomial, right: Polynomial, op: Callable[[Scalar, Scalar], Scalar]) -> Polynomial:
    # left + right or left - right in one merge.  Both are canonical, so only
    # a key of the right one can cancel or need narrowing; it is settled as
    # it is merged.
    merged = dict(left._terms)
    for key, coefficient in right._terms.items():
        total = op(merged.get(key, 0), coefficient)
        if not total:
            del merged[key]
        elif type(total) is int or total.denominator != 1:
            merged[key] = total
        else:
            merged[key] = total.numerator
    return _wrap(merged)


def _scaled(terms: dict[Monomial, Scalar], scalar: Scalar) -> dict[Monomial, Scalar]:
    # Every coefficient times an int or Fraction scalar, in one pass.  A
    # nonzero product of nonzero exact numbers is nonzero, so only a Fraction
    # that turned integral needs narrowing.
    if not scalar:
        return {}
    return {
        key: product
        if type(product := coefficient * scalar) is int or product.denominator != 1
        else product.numerator
        for key, coefficient in terms.items()
    }


def _accumulate_product(
    into: dict[Monomial, Scalar],
    left: Iterable[tuple[Monomial, Scalar]],
    right: Mapping[Monomial, Scalar],
) -> None:
    # Adds every pairwise product of left and right terms into one dict.
    # Each right term is flattened to one 5-tuple once, so the inner loop
    # unpacks a single tuple per pair.  Zeros and integral Fractions are left
    # for _canonical to clean up once.
    flat = [(*monomial, coefficient) for monomial, coefficient in right.items()]
    get = into.get
    for (a1, b1, c1, d1), x in left:
        for a2, b2, c2, d2, y in flat:
            key = a1 + a2, b1 + b2, c1 + c2, d1 + d2
            into[key] = get(key, 0) + x * y


def _multinomial_power(items: list[tuple[Monomial, Scalar]], n: int) -> dict[Monomial, Scalar]:
    # (u + v + w)^n for at most three terms, one term per composition
    # i + j + k = n with coefficient C(n, i)*C(n - i, j)*u^i*v^j*w^k.  Of two
    # terms, u is the missing one, held at exponent 0.  Monomials can collide
    # (a^2, a*b, b^2), so the terms are summed into one dict.
    if len(items) < 2:
        # One term, or none: the zero polynomial's 0th power is 1.
        return {tuple(n * e for e in k): c ** n for k, c in items} if items or n else {_CONSTANT: 1}
    (ku, cu), (kv, cv), (kw, cw) = [(_CONSTANT, 0)] * (3 - len(items)) + items
    pu, pv, pw = (list(accumulate(repeat(c, n), mul, initial=1)) for c in (cu, cv, cw))
    into: dict[Monomial, Scalar] = {}
    get = into.get
    # From j to j + 1, one w is traded for one v.
    sa, sb, sc, sd = map(sub, kv, kw)
    for i in range(n + 1 if cu else 1):
        m = n - i
        head = comb(n, i) * pu[i]
        a, b, c, d = (i * eu + m * ew for eu, ew in zip(ku, kw))
        for j in range(m + 1):
            key = a, b, c, d
            into[key] = get(key, 0) + head * comb(m, j) * pv[j] * pw[m - j]
            a, b, c, d = a + sa, b + sb, c + sc, d + sd
    return into


def _canonical(terms: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
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
