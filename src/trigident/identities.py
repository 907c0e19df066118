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
assuming a*d - b*c = 0.  It holds when one difference, P = lhs - rhs, is
zero: P(a, a*b, a*c, a*b*c) under the constraint, whose surface a*d = b*c
is read as the image of ``_on_surface``, and P itself otherwise.  One
evaluator, ``_value``, runs a program, a tree's nodes in ``_postorder``,
at a point in plain exact arithmetic: ints where the point and the
constants are integral, Fractions elsewhere, and Polynomials at the point
(a, b, c, d) itself, which expands it.  The points come in a ``_Block``,
which computes each bracket once: of one point for a seeded draw, for
``expr_value`` and for an expansion, and of up to ``_BLOCK_SIZE`` points
on the grid below.  A statement of brackets and numbers alone makes P a
polynomial in the two triples' invariants (e2, e3, e2', e3'), with e2' =
e2 under the constraint, by Newton's identities (``_PowerSums``); they are
algebraically independent, so it holds exactly when that polynomial is
zero.  Any other statement holds exactly when P is zero at every integer
point (a, b, c, d) of ``_Decision.blocks``.  Within that grid's budget, a
statement whose sides are products sharing a factor F is decided by
cancelling it (``_cancelled``): both routes decide in an integral domain,
Q[a, b, c, d] or, under the constraint, Q[a, b, c] through
``_on_surface``, where F*(L - R) = 0 exactly when F = 0 or L = R.  So
L == R is decided first, then F == 0 for each distinct F; the report, its
witness and its counts are still those of the whole statement.
``_decide`` is the one home of that decision, and ``verify`` and
``spot_check`` both make it.  Seeded random draws pick a false
statement's witness; over ``_POINT_BUDGET`` both routes take the first
draw before anything else, then ``verify`` decides in the power sums or
expands, and ``spot_check`` refuses once its draws agree.  A falsified
report counts the terms of the expanded difference only when its
``reduced_terms`` is read.  ``_decide`` first builds a ``_Decision`` by
one degree pass, which refuses a statement with a node of degree over
``_POINT_BUDGET``, or a power of a constant with exponent over it, and
compiles P as it walks it, pruned: a subtree that is zero by
construction becomes 0 and a zeroth power 1.  Every route, expansion too,
evaluates that ``program`` and asks only whether its value is zero.
"""

from __future__ import annotations

import json
import random
import time
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import chain, compress, islice, product, repeat
from math import comb, gcd, prod
from operator import add, mul, sub
from typing import Callable, Iterable, Iterator, Optional, Union

from ._record import Record, replace, setfield
from .algebra import VARIABLES, Polynomial, _wrap

# ----------------------------------------------------------------------
# expression AST
#
# A node's ==, hash and repr still recurse once per level, so library code
# hashes no subtree, keys no dict by one, and compares one only with a fixed
# tree of a few levels, where == stops.


class BracketKind(Enum):
    D = "D"
    A = "A"
    B = "B"


class Num(Record):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        setfield(self, "value", value)


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        setfield(self, "name", name)


class Bracket(Record):
    __slots__ = ("kind", "power")

    def __init__(self, kind: BracketKind, power: int):
        setfield(self, "kind", kind)
        setfield(self, "power", power)


class _Binary(Record):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        setfield(self, "left", left)
        setfield(self, "right", right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Pow(Record):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        setfield(self, "base", base)
        setfield(self, "exponent", exponent)


Expr = Union[Num, Var, Bracket, Add, Sub, Mul, Pow]


class IdentityStatement(Record, uncompared=("name",)):
    """An equation, optionally under the side condition a*d - b*c = 0.

    The name labels reports and catalog lookups; it does not participate
    in equality, so a re-parsed rendering compares equal to the original.
    """

    __slots__ = ("name", "lhs", "rhs", "constrained")

    def __init__(self, name: str, lhs: Expr, rhs: Expr, constrained: bool):
        setfield(self, "name", name)
        setfield(self, "lhs", lhs)
        setfield(self, "rhs", rhs)
        setfield(self, "constrained", constrained)


# ----------------------------------------------------------------------
# evaluation

Point = tuple[Fraction, Fraction, Fraction, Fraction]

# A value at the point (a, b, c, d) itself is the expanded polynomial.
_VARIABLE_POINT = tuple(map(Polynomial.variable, VARIABLES))

_OPERATORS = {Add: add, Sub: sub, Mul: mul}


def expr_to_poly(expr: Expr) -> Polynomial:
    """Fully expanded polynomial of an expression: its value at (a, b, c, d)."""
    value = _at(_postorder(expr), _VARIABLE_POINT)
    return value if isinstance(value, Polynomial) else Polynomial.constant(value)


@lru_cache(maxsize=None)
def bracket_poly(kind: BracketKind, power: int) -> Polynomial:
    """Cached ``expr_to_poly`` of one bracket; homogeneous of degree ``power``."""
    return expr_to_poly(Bracket(kind, power))


def expr_value(expr: Expr, point: Point) -> Fraction:
    """Exact value at a rational point, computed without polynomial expansion.

    It evaluates a ``_Block`` of one point, as ``expr_to_poly``, the seeded
    draws and the certificate of ``spot_check`` do; the tests check the tree
    semantics against a plain Fraction reference.  Negative powers raise
    ``ValueError``.
    """
    return Fraction(_at(_postorder(expr), point))


def _at(program: list[Expr], point: tuple) -> Union[int, Fraction, Polynomial]:
    """The value of a program at one point (a, b, c, d): ``_value`` at the ``_Block`` of that point alone."""
    return _Block([point]).values(program)[0]


def _postorder(expr: Expr) -> list[Expr]:
    """Every node, after its children and left before right, gathered on an explicit stack.

    The one home of the tree's shape and of the node checks (``ValueError``);
    anything but an instance of exactly one of ``Expr``'s classes is a ``TypeError``.
    """
    order, stack = [], [expr]
    while stack:
        node = stack.pop()
        order.append(node)
        kind = type(node)
        if kind is Add or kind is Sub or kind is Mul:
            stack += node.left, node.right
        elif kind is Pow:
            if not isinstance(node.exponent, int) or node.exponent < 0:
                raise ValueError(f"exponent must be a non-negative integer, got {node.exponent!r}")
            stack.append(node.base)
        elif kind is Bracket and node.power < 0:
            raise ValueError(f"bracket power must be non-negative, got {node.power}")
        elif kind not in (Num, Var, Bracket):
            raise TypeError(f"not an expression node: {node!r}")
    return order[::-1]


def _value(program: list[Expr], point: Union[_PowerSums, _Block]) -> Union[int, Fraction, Polynomial, list]:
    """Value at the point of a program, a tree's ``_postorder`` compiled once: one exact value per node on a stack.

    It walks no tree.  The point gives each bracket through its ``of``.  A
    ``_PowerSums`` gives it as a polynomial in the triples' invariants, and
    a variable no value.  At a ``_Block`` a bracket is the power sum of
    ``_triple`` and every node is a list of its values, one per point, or
    one number for a constant subtree; ``_apply`` combines them, and no
    list is changed in place, since a variable's and a bracket's are the
    block's own.  Each value is an ``int`` wherever the point and the
    constants are integral, as at every certificate point, a ``Fraction``
    elsewhere, and a ``Polynomial`` at ``_VARIABLE_POINT``, which mixes
    exactly with both.
    """
    of, values = point.of, []
    for node in program:
        kind = type(node)
        if kind is Num:
            values.append(node.value.numerator if node.value.denominator == 1 else node.value)
        elif kind is Bracket:
            if node.kind is BracketKind.D:
                values.append(_apply(sub, of(0, node.power), of(1, node.power)))
            else:
                values.append(of(0 if node.kind is BracketKind.A else 1, node.power))
        elif kind is Var:
            values.append(point[VARIABLES.index(node.name)])
        elif kind is Pow:
            base = values[-1]
            values[-1] = [value ** node.exponent for value in base] if type(base) is list else base ** node.exponent
        else:
            right = values.pop()
            values[-1] = _apply(_OPERATORS[kind], values[-1], right)
    return values.pop()


def _apply(op: Callable, left, right):
    """``op`` of two values: pointwise where either is a block's list, a number standing for itself at each point."""
    if type(left) is list:
        return list(map(op, left, right if type(right) is list else repeat(right)))
    if type(right) is list:
        return list(map(op, repeat(left), right))
    return op(left, right)


def _triple(which: int, a, b, c, d):
    """Triple one (``which`` 0, the A brackets) or two (1, the B brackets) at (a, b, c, d).

    The brackets' two zero-sum triples of linear forms are written here and
    nowhere else in the engine; ``dsl._BRACKET_LATEX`` spells them again as
    LaTeX text, in bytes the tests pin.
    """
    if which == 0:
        return b + c + d, -(a + b + c), a - d
    return a + c + d, -(a + b + d), b - c


def _on_surface(a, b, c):
    """The point of the constraint surface a*d = b*c that (a, b, c) parametrizes."""
    return a, a * b, a * c, a * b * c


# ----------------------------------------------------------------------
# power sums by Newton's identities


class _PowerSums:
    """The power sums of both triples, as polynomials in (e2, e3, e2', e3').

    A zero-sum triple with e2 = xy + yz + zx and e3 = xyz has p_0 = 3 and,
    by Girard-Waring with e1 = 0, p_n = sum over 2j + 3k = n of
    (-1)^j * n*C(j+k, k)/(j+k) * e2^j * e3^k, the closed form of Newton's
    p_n = -e2*p_(n-2) + e3*p_(n-3); so A(n) = p_n(e2, e3) and B(n) =
    p_n(e2', e3').  Since e2 - e2' = 3*(a*d - b*c), e2' is e2 on the whole
    constraint surface, a = 0 included; in polar form e2 = -3/4*rho^2 and
    e3 = 1/4*rho^3*cos(3*theta), the paper's one radius and two angles.  The
    slots a, b, c, d of ``Polynomial`` hold e2, e3, e2', e3'.  The maps
    (a, b, c, d) -> (e2, e3, e2', e3') and, on ``_on_surface``, (a, b, c) ->
    (e2, e3, e3') have Jacobians of full rank (4 at (2, 3, 5, 7), 3 at
    (2, 3, 5)), so by the Jacobian criterion in characteristic 0 (Beecken,
    Mittmann and Saxena, ICALP 2011) the invariants are algebraically
    independent: a polynomial in them is zero exactly when it is zero once
    the triples' actual invariants are put in.  Like a ``_Block``, a table
    computes each (triple, power) once, and it writes p_n's terms, which
    are nonzero ints, straight into a ``Polynomial``.
    """

    def __init__(self, constrained: bool):
        # The slots of each triple's (e2, e3).
        self._slots = ((0, 1), (0 if constrained else 2, 3))
        # Each (triple, power) once, as in a ``_Block``.
        self._sums: dict[tuple[int, int], Polynomial] = {}

    def of(self, triple: int, power: int) -> Union[int, Polynomial]:
        """p_power of triple 0 (the A brackets) or triple 1 (the B brackets)."""
        if power == 0:
            return 3
        sums = self._sums.get((triple, power))
        if sums is None:
            two, three = self._slots[triple]
            terms = {}
            for k in range(power % 2, power // 3 + 1, 2):
                j, monomial = (power - 3 * k) // 2, [0, 0, 0, 0]
                monomial[two], monomial[three] = j, k
                # n*C(j+k, k) is a multiple of j + k.
                terms[tuple(monomial)] = (-1) ** j * power * comb(j + k, k) // (j + k)
            sums = self._sums[triple, power] = _wrap(terms)
        return sums


def _power_sums_agree(decision: _Decision) -> bool:
    """Whether a statement of brackets and numbers holds: its program, lhs - rhs, is zero in ``_PowerSums``."""
    return not _value(decision.program, _PowerSums(decision.statement.constrained))


# ----------------------------------------------------------------------
# exact evaluation certificate
#
# Split the difference P = lhs - rhs into homogeneous parts P_j, j in J.  At
# the points t*(1, b, c, d) it takes the value sum_j t^j * P_j(1, b, c, d);
# for t = 1..|J| these sums form a generalized Vandermonde system, which is
# nonsingular for distinct positive t (Descartes' rule of signs), so
# agreement at all of them gives P_j(1, b, c, d) = 0 for each j.  Each
# P_j(1, b, c, d) has degree at most min(bound, max J) in each free
# variable and total degree at most max J, so it is the zero polynomial
# once it vanishes on the tensor grid 0..min(bound, max J) (Alon,
# "Combinatorial Nullstellensatz", 1999, Lemma 2.1) or on the simplex
# lattice of total degree max J (Chung & Yao, SIAM J. Numer. Anal. 14,
# 1977); a homogeneous P_j is then zero as well.  Under the constraint the
# points are ``_on_surface(t, b, c)``, the free variables are b and c, and
# the total degree is at most 2*max J; agreement proves P(a, a*b, a*c, a*b*c)
# zero, the polynomial that ``verify`` expands.

# Most integer points ``spot_check`` evaluates for a certificate, and the
# largest ``invariant_count`` of a statement of brackets and numbers whose
# power sums it compares.  The catalog's bracket entries count 6-56,
# asym-6-8-factored needs 81 points and the benchmark's statements with a
# variable 81-560; b^99*c^99 == b^99*c^99 under the constraint needs exactly
# 10,000 and takes 0.04-0.05 s on a 2-core x86 host.
_POINT_BUDGET = 10_000

_ZERO, _ONE = Num(Fraction(0)), Num(Fraction(1))


def _degrees(expr: Expr, free: str) -> tuple[list[Expr], frozenset[int], tuple[int, ...], bool]:
    """The pruned program, its homogeneous degrees J, a degree bound per free variable, and whether it has no variable.

    ``free`` is "bcd", or "bc" under the constraint, where d := b*c; a
    becomes the scale t.  J is empty for a tree that is zero by
    construction, and this is the one place that prunes.  The program is
    the tree's one ``_postorder``, each node appended as it is: a node with
    empty J has its span cut and replaced by 0, and a zeroth power by 1,
    so the value is the same at every point.  J, the bounds and the flag
    are those of the tree as given.  Each node's J is held as an int
    bitmask, bit j set for degree j, and made a frozenset once, at the
    root: a union is ``|``, a product's J is ``_sumset`` and a power's
    ``_multiple``.  Raises ``ValueError`` as ``_postorder`` does, for a
    node of degree or a power of a constant with exponent over the budget,
    and as soon as J outgrows it, before building J where its size
    follows; a degree is checked before its bit is set.
    """
    # Per node on the stack: where its span in the program starts, J and the bounds.
    program, stack, bracket_only = [], [], True
    for node in _postorder(expr):
        kind, start = type(node), len(program)
        if kind is Num:
            degrees, bounds = int(node.value != 0), (0,) * len(free)
        elif kind is Var:
            names = "bc" if node.name == "d" and "d" not in free else node.name
            degrees, bounds = 1 << 1, tuple(int(name in names) for name in free)
            bracket_only = False
        elif kind is Bracket:
            _within_degree(node.power)
            degrees, bounds = 1 << node.power, (node.power,) * len(free)
        elif kind is Pow:
            start, base_degrees, base_bounds = stack.pop()
            if node.exponent > _POINT_BUDGET and base_degrees <= 1:
                # Degree 0, but the value of the power is still huge.
                raise _over_budget(f"exponent {node.exponent}")
            degrees = _multiple(base_degrees, node.exponent)
            bounds = tuple(node.exponent * bound for bound in base_bounds)
        else:
            _, right_degrees, right_bounds = stack.pop()
            start, left_degrees, left_bounds = stack.pop()
            if kind is Mul:
                degrees, bounds = _sumset(left_degrees, right_degrees), tuple(map(add, left_bounds, right_bounds))
            else:
                degrees, bounds = left_degrees | right_degrees, tuple(map(max, left_bounds, right_bounds))
                _within_budget(degrees.bit_count())
        # Bound every node, not only the difference, and before it is pruned: a
        # zero factor or a zeroth power hides a huge one from the whole.
        _within_degree(degrees.bit_length() - 1)
        # A zero constant is 0 already, and a zeroth power, of J {0}, is 1.
        if not degrees and kind is not Num or kind is Pow and not node.exponent:
            del program[start:]
            node = _ONE if degrees else _ZERO
        program.append(node)
        stack.append((start, degrees, bounds))
    return program, frozenset(_members(degrees)), bounds, bracket_only


def _within_budget(size: int) -> None:
    # Every degree needs its own t, so |J| points at least, and then
    # max J >= |J| - 1 >= _POINT_BUDGET.
    if size > _POINT_BUDGET:
        raise _over_budget(f"degree at least {size - 1}")


def _within_degree(top: int) -> None:
    if top > _POINT_BUDGET:
        raise _over_budget(f"degree {top}")


def _over_budget(what: str) -> ValueError:
    # A value at any point, and any expansion, would hold huge powers.
    return ValueError(f"{what} is over the budget of {_POINT_BUDGET}")


def _members(degrees: int) -> Iterator[int]:
    """The degrees whose bits are set, in increasing order."""
    digits, j = bin(degrees)[:1:-1], -1
    while (j := digits.find("1", j + 1)) >= 0:
        yield j


def _sumset(left: int, right: int) -> int:
    # A sumset of nonempty integer sets has at least |left| + |right| - 1
    # members.  It is one shift-or of the larger set per member of the smaller.
    if left and right:
        _within_budget(left.bit_count() + right.bit_count() - 1)
    if left.bit_count() > right.bit_count():
        left, right = right, left
    result = 0
    while left:
        low = left & -left
        result |= right << low.bit_length() - 1
        left ^= low
    _within_budget(result.bit_count())
    return result


def _multiple(degrees: int, exponent: int) -> int:
    # The exponent-fold sumset.  Of at most one member it is one shift, by a
    # degree checked first; the zero polynomial's 0th power is 1.
    count = degrees.bit_count()
    if count < 2:
        top = max(degrees.bit_length() - 1, 0) * exponent
        _within_degree(top)
        return 1 << top if degrees or not exponent else 0
    # Of two or more it has at least exponent * (|J| - 1) + 1 members.  It is
    # built by doubling, with the same checks, from K, where J = low + step*K
    # and K has least member 0 and gcd 1: the folds of K have the sizes of
    # J's, and no more bits than they need.
    _within_budget(exponent * (count - 1) + 1)
    low = (degrees & -degrees).bit_length() - 1
    shifted = list(_members(degrees >> low))
    step = gcd(*shifted)
    base, result, folds = sum(1 << (j // step) for j in shifted), 1, exponent
    while folds:
        if folds & 1:
            result = _sumset(result, base)
        folds >>= 1
        if folds:
            base = _sumset(base, base)
    low *= exponent
    _within_degree(low + step * (result.bit_length() - 1))
    return result << low if step == 1 else sum(1 << (low + step * k) for k in _members(result))


class _Decision:
    """What ``_decide`` knows of a statement, built by its one degree pass and completed by ``_compared``.

    The statement as given; and what ``_degrees`` gives of its lhs - rhs,
    with the pass's ``ValueError`` prefixed by the name: ``program``, the
    pruned lhs - rhs compiled once, which every route evaluates, J, the
    bounds and ``bracket_only``.
    """

    __slots__ = ("statement", "program", "degrees", "bounds", "bracket_only", "_grid_count", "invariant_count", "count", "outcome", "difference")

    def __init__(self, statement: IdentityStatement):
        self.statement, difference = statement, Sub(statement.lhs, statement.rhs)
        try:
            self.program, self.degrees, self.bounds, self.bracket_only = _degrees(difference, "bc" if statement.constrained else "bcd")
        except ValueError as exc:
            raise ValueError(f"{statement.name}: {exc}") from None
        self._grid_count = None
        # How many weighted monomials lhs - rhs of a statement of brackets and
        # numbers can have in the invariants.  With e2 of weight 2 and e3 of
        # weight 3 a bracket of power n has weight n, so the difference splits
        # into weighted parts over J.  A monomial e2^i*e3^k*e2'^l*e3'^m of
        # weight j follows from (k, l, m), since i does from j, and k + l + m
        # <= j/2; under the constraint, where e2' = e2, it follows from (k, m),
        # with k + m <= j/3.  So |J|*C(floor(max J/2) + 3, 3), or
        # |J|*C(floor(max J/3) + 2, 2) under the constraint, bounds the terms
        # of the power sums' difference, and of each node of ``program``, whose
        # degrees are never more, nor larger, than J's.
        dimension, weight = (2, 3) if statement.constrained else (3, 2)
        self.invariant_count = len(self.degrees) * comb(max(self.degrees, default=0) // weight + dimension, dimension)
        # The one of the two counts that ``_POINT_BUDGET`` holds.
        self.count = self.invariant_count if self.bracket_only else self.grid_count
        self.outcome = self.difference = None

    @property
    def grid_count(self) -> int:
        """How many points ``blocks`` has: |J| per point of ``_lattice``; computed when first read."""
        if self._grid_count is None:
            self._grid_count = len(self.degrees) * self._lattice()[0]
        return self._grid_count

    def _lattice(self) -> tuple[int, Iterator[tuple]]:
        """The size of the smaller of the tensor grid and the simplex lattice of (b, c[, d]), and its points."""
        top = max(self.degrees, default=0)
        sides = [min(bound, top) + 1 for bound in self.bounds]
        # Under the constraint the simplex lattice, of total degree 2*max J in
        # (b, c), is never smaller than the (max J + 1)^2 tensor grid.
        if self.statement.constrained or comb(top + 3, 3) >= prod(sides):
            return prod(sides), product(*map(range, sides))
        return comb(top + 3, 3), ((b, c, d) for b in range(top + 1) for c in range(top + 1 - b) for d in range(top + 1 - b - c))

    def blocks(self) -> Optional[Iterator[_Block]]:
        """The points that prove the statement by agreement, a block at a time; None over ``_POINT_BUDGET``.

        Points are t*(1, b, c, d), or ``_on_surface(t, b, c)`` under the
        constraint, for (b, c[, d]) on the smaller of the tensor grid and the
        simplex lattice, in lexicographic order, and t = 1..|J| innermost.  The
        points are enumerated one tuple each and cut into ``_blocks`` lazily.
        """
        if self.grid_count > _POINT_BUDGET:
            return None
        grid, scales = self._lattice()[1], range(1, len(self.degrees) + 1)
        if self.statement.constrained:
            return _blocks(_on_surface(t, b, c) for b, c in grid for t in scales)
        return _blocks((t, t * b, t * c, t * d) for b, c, d in grid for t in scales)

    def first_difference(self) -> Optional[tuple]:
        """The first point of ``blocks`` where lhs - rhs is nonzero; None where it is zero, or over the budget."""
        return _first_difference(self.program, self.blocks() or ())


# ----------------------------------------------------------------------
# blocks of certificate points
#
# A ``_Block`` holds points (a, b, c, d) as tuples, in order, and one list
# per coordinate: up to ``_BLOCK_SIZE`` consecutive certificate points, or
# the one point of a seeded draw, of ``expr_value`` or of an expansion.  At
# a block a node's value is a list of exact numbers, one per point, or one
# number for a constant subtree.  A list's entry at a point does not depend
# on the other points of its block, so it is an ``int`` at every integral
# point with integral constants.

# Points per block.  A larger block saves little more time, and holding the
# whole certificate as lists costs memory that grows with its size.
_BLOCK_SIZE = 128


class _Block:
    """Points (a, b, c, d), evaluated together: a variable is the list of its coordinates.

    Its ``points`` are tuples, in order, transposed once into one list per
    coordinate; each point's linear forms come from its tuple.  Like
    ``_PowerSums``, a block gives each bracket through ``of``, and it
    computes each power sum once, however often a program uses it.
    """

    def __init__(self, points: list[tuple]):
        self.points = points
        self._coordinates = tuple(map(list, zip(*points)))
        # Each (triple, power) once, since both sides often share brackets.
        self._sums: dict[tuple[int, int], list] = {}

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, index: int) -> list:
        return self._coordinates[index]

    @cached_property
    def _forms(self) -> list[list[tuple]]:
        # Per triple, the three linear forms at each point.
        return [[_triple(which, *point) for point in self.points] for which in (0, 1)]

    def of(self, triple: int, power: int) -> list:
        """p_power of triple 0 (the A brackets) or triple 1 (the B brackets) at each point."""
        sums = self._sums.get((triple, power))
        if sums is None:
            sums = [x ** power + y ** power + z ** power for x, y, z in self._forms[triple]]
            self._sums[triple, power] = sums
        return sums

    def values(self, program: list[Expr]) -> list:
        """The value of ``program`` at each point, in order."""
        value = _value(program, self)
        return value if type(value) is list else [value] * len(self)


def _blocks(points: Iterator[tuple]) -> Iterator[_Block]:
    """The points, in order, ``_BLOCK_SIZE`` to a block; only the last block may be shorter."""
    while block := list(islice(points, _BLOCK_SIZE)):
        yield _Block(block)


def _first_difference(program: list[Expr], blocks: Iterable[_Block]) -> Optional[tuple]:
    """The first point where ``program``, a lhs - rhs, is nonzero, taking the blocks in order and none past its own; else None."""
    nonzero = (compress(block.points, block.values(program)) for block in blocks)
    return next(chain.from_iterable(nonzero), None)


_HOLDS, _FAILS, _OVER_BUDGET = "holds", "fails", "over budget"


def _decide(statement: IdentityStatement) -> _Decision:
    """The one decision of both routes: the statement's ``_Decision``, with its outcome set.

    A statement of brackets and numbers holds exactly when
    ``_power_sums_agree``.  Any other holds exactly when its lhs - rhs is
    zero at every point of its ``blocks``; within their budget, a statement
    whose sides' products share factors is decided instead by
    ``_cancelled``, since F*L == F*R holds exactly when L == R or F == 0,
    unless its count is 0: J is empty, and it is zero by construction.
    The outcome is ``_HOLDS``, ``_FAILS``, or ``_OVER_BUDGET`` when
    ``count`` is over the budget and nothing was evaluated; ``difference``
    is the first grid point where lhs - rhs is nonzero, which
    ``spot_check`` reports, else None, as after a cancellation.  All of it
    is of the statement as given, never of a cancelled part.
    """
    decision = _Decision(statement)
    if 0 < decision.count <= _POINT_BUDGET and not decision.bracket_only:
        holds = _cancelled(statement)
        if holds is not None:
            decision.outcome = _HOLDS if holds else _FAILS
            return decision
    return _compared(decision)


def _compared(decision: _Decision) -> _Decision:
    """``decision`` with its outcome set by its program, in the power sums or on the grid, with no cancelling."""
    decision.outcome = _OVER_BUDGET
    if decision.count <= _POINT_BUDGET:
        if decision.bracket_only:
            holds = _power_sums_agree(decision)
        else:
            decision.difference = decision.first_difference()
            holds = decision.difference is None
        decision.outcome = _HOLDS if holds else _FAILS
    return decision


def _cancelled(statement: IdentityStatement) -> Optional[bool]:
    """Whether F*L == F*R holds, decided as L == R or else F == 0 for each shared F; None if no F or a part is over budget.

    The factors are those of each side's top-level product as given,
    matched across the sides as a multiset by ``_key``, and each part's own
    ``_Decision`` prunes it; numbers are not matched, and a side with no
    factor left is 1.  Both routes decide in an integral domain:
    Q[a, b, c, d], or under the constraint Q[a, b, c] through
    ``_on_surface``, which is also what the power sums decide.  There
    F*(L - R) is zero exactly when F or L - R is.  Each part is decided by
    ``_compared``, under the statement's constraint, with no second attempt
    to cancel, since it shares no factor itself: the rests have none in
    common, and F == 0 has 0 on the right.
    A part's count is never over the statement's, whose J ``_decide`` found
    nonempty, so every F, and L or R, has a nonempty J.  A product's J
    holds each factor's shifted by the others' least degree, and its bounds
    add, so a part's J is a shifted subset of the statement's, with no
    larger top degree, bounds or grid; of brackets and numbers, whose
    bounds are at least their top degree, its invariant count is at most
    that grid's size.  None for a part over budget, which falls back to
    the statement's own grid, is only a guard.
    """
    lhs, rhs = _factors(statement.lhs), _factors(statement.rhs)
    unmatched: dict[tuple, list[int]] = {}
    for index, factor in enumerate(rhs):
        if type(factor) is not Num:
            unmatched.setdefault(_key(factor), []).append(index)
    shared, lhs_rest = {}, []
    for factor in lhs:
        key = None if type(factor) is Num else _key(factor)
        indices = unmatched.get(key)
        if indices:
            rhs[indices.pop()] = None
            shared.setdefault(key, factor)
        else:
            lhs_rest.append(factor)
    if not shared:
        return None
    rhs_rest = [factor for factor in rhs if factor is not None]
    reduced = replace(statement, lhs=_product(lhs_rest), rhs=_product(rhs_rest))
    for part in (reduced, *(replace(statement, lhs=factor, rhs=_ZERO) for factor in shared.values())):
        outcome = _compared(_Decision(part)).outcome
        if outcome is not _FAILS:
            return None if outcome is _OVER_BUDGET else True
    return False


def _factors(expr: Expr) -> list[Expr]:
    """The factors of a top-level product, left to right, gathered on an explicit stack; else the expression alone."""
    factors, stack = [], [expr]
    while stack:
        node = stack.pop()
        if type(node) is Mul:
            stack += node.right, node.left
        else:
            factors.append(node)
    return factors


def _product(factors: list[Expr]) -> Expr:
    return reduce(Mul, factors) if factors else _ONE


def _key(expr: Expr) -> tuple:
    """A flat tuple, equal for two trees exactly when they are the same: each node of ``_postorder``, with its fields."""
    key = []
    for node in _postorder(expr):
        kind = type(node)
        key.append(kind)
        if kind is Num:
            key.append(node.value)
        elif kind is Var:
            key.append(node.name)
        elif kind is Bracket:
            key += node.kind, node.power
        elif kind is Pow:
            key.append(node.exponent)
    return tuple(key)


# ----------------------------------------------------------------------
# verification

# Seeded draws for a witness, in ``verify`` and by default in ``spot_check``.
_WITNESS_DRAWS = 100


class Verdict(Enum):
    PROVED = "PROVED"
    FALSIFIED = "FALSIFIED"


class VerificationReport(Record, hidden=("_count_terms",)):
    """Outcome of a symbolic verification or a numeric spot check.

    reduced_terms is the term count of the reduced difference polynomial;
    it is 0 exactly when the verdict is PROVED, and a witness point is
    present exactly when the verdict is FALSIFIED.  A falsified statement
    is usually settled without that polynomial, so its count is computed
    on the first read of reduced_terms, by expanding the difference with
    ``reduce_difference``, which can take far longer than the verdict did,
    and then kept.  elapsed is the wall time in seconds of reaching the
    verdict; it does not include that count.
    """

    # _count_terms returns reduced_terms; it is called at most once.
    __slots__ = ("name", "verdict", "witness", "elapsed", "_count_terms", "__dict__")

    def __init__(self, name: str, verdict: Verdict, witness: Optional[Point], elapsed: float, _count_terms: Callable[[], int]):
        setfield(self, "name", name)
        setfield(self, "verdict", verdict)
        setfield(self, "witness", witness)
        setfield(self, "elapsed", elapsed)
        setfield(self, "_count_terms", _count_terms)

    @cached_property
    def reduced_terms(self) -> int:
        return self._count_terms()


def reduce_difference(statement: IdentityStatement) -> Polynomial:
    """lhs - rhs expanded at (a, b, c, d), or at ``_on_surface(a, b, c)`` when constrained.

    It expands ``_Decision(statement).program``, so it prunes and refuses
    as ``_Decision`` does, with its ``ValueError``, naming the statement.
    Under the constraint the result is P(a, a*b, a*c, a*b*c) for P = lhs -
    rhs, the polynomial ``_decide`` evaluates at its certificate; it is
    zero exactly when the statement holds on the a != 0 chart of a*d = b*c.
    """
    point = _on_surface(*_VARIABLE_POINT[:3]) if statement.constrained else _VARIABLE_POINT
    return Polynomial.zero() + _at(_Decision(statement).program, point)


def verify(statement: IdentityStatement, seed: int = 0) -> VerificationReport:
    """Symbolic verdict; a FALSIFIED verdict carries a concrete witness.

    The statement is decided by ``_decide``, as ``spot_check`` decides it.
    Over the budget the first of ``_WITNESS_DRAWS`` seeded draws (see
    ``spot_check``) comes first; where it agrees, brackets and numbers are
    compared in the power sums and a statement with a variable is expanded
    by ``reduce_difference``, which proves a zero difference.  A false
    statement is FALSIFIED at the first of the draws where the sides
    differ, else at ``_integer_witness`` of the expanded difference.
    ``reduced_terms`` is counted on first read when the difference was not
    expanded.  ``ValueError`` is raised as in ``spot_check``, before either
    route runs.
    """
    start = time.perf_counter()
    decision = _decide(statement)
    if decision.outcome is _HOLDS:
        return _report(statement, start)
    # A false statement's difference is a nonzero polynomial, so random
    # rational points miss its zero set with overwhelming probability and
    # the first draw almost always falsifies it.  The cap only bounds the
    # rare statement whose zero set covers the sampling box.  Over the budget
    # it comes before the power sums or expansion, whose work is unbounded.
    rng = random.Random(seed)
    witness, reduced = _first_disagreement(decision, 1, rng), None
    if witness is None and decision.outcome is _OVER_BUDGET:
        if decision.bracket_only:
            holds = _power_sums_agree(decision)
        else:
            reduced = reduce_difference(statement)
            holds = not reduced
        if holds:
            return _report(statement, start)
    if witness is None:
        witness = _first_disagreement(decision, _WITNESS_DRAWS - 1, rng)
    if witness is None:
        reduced = reduce_difference(statement) if reduced is None else reduced
        witness = _integer_witness(reduced, statement.constrained)
    return _report(statement, start, witness, None if reduced is None else len(reduced.terms))


def spot_check(statement: IdentityStatement, trials: int = _WITNESS_DRAWS, seed: int = 0) -> VerificationReport:
    """Decide the statement exactly, without expanding it in a, b, c, d.

    The statement is decided by ``_decide``, as ``verify`` decides it, so
    within the grid's budget F*L == F*R by L == R or F == 0 when its sides
    share a factor F.  On a disagreement the witness is the first of
    ``trials`` seeded draws where the sides differ: free coordinates are
    nonzero rationals with numerator and denominator bounded by 9, and d =
    b*c/a under the constraint, so a*d = b*c exactly.  The draws, like the
    rest of the report, are of the statement's own program, never of a
    cancelled part.  If every draw agrees, it is the first point of the
    whole statement's ``blocks`` where they differ, or, over their
    budget, which only brackets and numbers reach here,
    ``_integer_witness`` of the expanded difference.  A node of degree over
    ``_POINT_BUDGET``, or a power of a constant with exponent over it,
    raises ``ValueError`` at once.  A statement that ``_decide`` finds over
    the budget gets the draws alone, and ``ValueError`` naming the record's
    ``count`` if every draw agrees.  A FALSIFIED report counts the terms of
    ``reduce_difference`` on the first read of its ``reduced_terms``.
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    start = time.perf_counter()
    decision = _decide(statement)
    if decision.outcome is _HOLDS:
        return _report(statement, start)
    witness = _first_disagreement(decision, trials, random.Random(seed))
    if witness is not None:
        return _report(statement, start, witness)
    if decision.outcome is _OVER_BUDGET:
        # For brackets and numbers the count bounds the power sums' terms; the
        # message names it as points, as when they were evaluated at points.
        raise ValueError(
            f"{statement.name}: deciding it exactly needs at least {decision.count} integer"
            f" points, over the budget of {_POINT_BUDGET}, and all {trials} seeded draws"
            " agree; verify it symbolically instead"
        )
    # Brackets and numbers were compared in the power sums, and a statement
    # with shared factors in its cancelled parts, not on its own grid.
    difference = decision.difference or decision.first_difference()
    if difference is not None:
        return _report(statement, start, tuple(map(Fraction, difference)))
    reduced = reduce_difference(statement)
    return _report(statement, start, _integer_witness(reduced, statement.constrained), len(reduced.terms))


def _report(
    statement: IdentityStatement, start: float, witness: Optional[Point] = None, terms: Optional[int] = None
) -> VerificationReport:
    """PROVED with no witness and 0 terms, else FALSIFIED with the witness and the reduced difference's term count.

    The count is ``terms`` when the caller expanded the difference, else
    ``reduce_difference`` runs when ``reduced_terms`` is first read.
    """
    elapsed = time.perf_counter() - start
    if witness is None:
        verdict, count = Verdict.PROVED, lambda: 0
    elif terms is None:
        verdict, count = Verdict.FALSIFIED, lambda: len(reduce_difference(statement).terms)
    else:
        verdict, count = Verdict.FALSIFIED, lambda: terms
    return VerificationReport(statement.name, verdict, witness, elapsed, count)


def _first_disagreement(decision: _Decision, draws: int, rng: random.Random) -> Optional[Point]:
    """The first of ``draws`` sample points where the decision's program is nonzero, else None.

    Each is a block of one point, drawn only once the draws before it agree.
    """
    constrained = decision.statement.constrained
    blocks = (_Block([_sample_point(constrained, rng)]) for _ in range(draws))
    return _first_difference(decision.program, blocks)


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


def _integer_witness(reduced: Polynomial, constrained: bool) -> Point:
    # A zero set can hold the whole sampling box, e.g. (a - 1)*(a - 1/2)*...
    # over every rational it draws from.  Fix the free variables one at a
    # time: a polynomial of degree k in a variable that is nonzero stays
    # nonzero at one of the integers 1..k+1.  On the surface b and c step by
    # 1/a instead, so the point is (a, v, w, v*w/a) for integers a, v, w >= 1.
    point, denominator = [], 1
    for name in "abc" if constrained else "abcd":
        for value in range(1, reduced.degree_in(name) + 2):
            rest = reduced.substitute_clear(name, Polynomial.constant(value), Polynomial.constant(denominator))
            if rest:
                break
        reduced = rest
        point.append(Fraction(value, denominator))
        denominator = point[0] if constrained else 1
    return _on_surface(*point) if constrained else tuple(point)


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
