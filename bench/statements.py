"""Seeded workload inputs and their known answers, independent of trigident.

Statements are built in a small tuple AST of the benchmark's own:

    ("num", k)                 positive integer constant
    ("var", name)              one of a, b, c, d
    ("br", kind, n)            bracket A(n), B(n) or D(n)
    ("add" | "sub" | "mul", left, right)
    ("pow", base, e)

rendered to the trigident statement language for the program, and
evaluated exactly with ``fractions.Fraction`` for the checks.  Every
statement's truth is known by construction: catalog identities, both sides
of a true identity times one common factor, and the sum of two true
constrained identities are true; changing one integer constant of a true
statement by one makes it false (the difference is that constant's
nonzero term).  ``generate`` also confirms each known answer at random
admissible points before the statement is used.

The discover reference expands cos^n by the binomial theorem and never
calls trigident.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

CONSTRAINT_PREFIX = "constraint: a*d - b*c = 0; "

# ----------------------------------------------------------------------
# AST helpers


def num(k):
    return ("num", k)


def var(name):
    return ("var", name)


def br(kind, n):
    return ("br", kind, n)


def mul(*factors):
    node = factors[0]
    for factor in factors[1:]:
        node = ("mul", node, factor)
    return node


def add(left, right):
    return ("add", left, right)


def pow_(base, e):
    return ("pow", base, e)


def quadratic(x, y):
    return add(add(pow_(var(x), 2), mul(var(x), var(y))), pow_(var(y), 2))


# ----------------------------------------------------------------------
# rendering to the statement language

_PREC = {"add": 1, "sub": 1, "mul": 2, "pow": 3, "num": 4, "var": 4, "br": 4}


def render(node) -> str:
    tag = node[0]
    if tag == "num":
        return str(node[1])
    if tag == "var":
        return node[1]
    if tag == "br":
        return f"{node[1]}({node[2]})"
    if tag == "pow":
        return f"{_wrap(node[1], 4)}^{node[2]}"
    if tag == "mul":
        return f"{_wrap(node[1], 2)}*{_wrap(node[2], 3)}"
    op = " + " if tag == "add" else " - "
    return f"{_wrap(node[1], 1)}{op}{_wrap(node[2], 2)}"


def _wrap(node, at_least: int) -> str:
    text = render(node)
    return text if _PREC[node[0]] >= at_least else f"({text})"


# ----------------------------------------------------------------------
# exact evaluation


def evaluate(node, point) -> Fraction:
    tag = node[0]
    if tag == "num":
        return Fraction(node[1])
    if tag == "var":
        return point["abcd".index(node[1])]
    if tag == "br":
        return bracket_value(node[1], node[2], point)
    if tag == "pow":
        return evaluate(node[1], point) ** node[2]
    left, right = evaluate(node[1], point), evaluate(node[2], point)
    if tag == "add":
        return left + right
    if tag == "sub":
        return left - right
    return left * right


def bracket_value(kind: str, n: int, point) -> Fraction:
    a, b, c, d = point
    first = (b + c + d) ** n + (-(a + b + c)) ** n + (a - d) ** n
    second = (a + c + d) ** n + (-(a + b + d)) ** n + (b - c) ** n
    return {"A": first, "B": second, "D": first - second}[kind]


def sample_point(constrained: bool, rng: random.Random):
    """Nonzero rationals with |numerator|, denominator <= 9; d = b*c/a if constrained."""

    def coordinate():
        numerator = 0
        while numerator == 0:
            numerator = rng.randint(-9, 9)
        return Fraction(numerator, rng.randint(1, 9))

    if constrained:
        a, b, c = coordinate(), coordinate(), coordinate()
        return (a, b, c, b * c / a)
    return tuple(coordinate() for _ in range(4))


# ----------------------------------------------------------------------
# statements

_C, _U = True, False

RAM = (mul(num(64), br("D", 6), br("D", 10)), mul(num(45), pow_(br("D", 8), 2)), _C)
GEN6 = (mul(num(25), br("D", 3), br("D", 7)), mul(num(21), pow_(br("D", 5), 2)), _C)
GEN3 = (mul(num(25), br("A", 3), br("A", 7)), mul(num(21), pow_(br("A", 5), 2)), _U)
ASYM_F = (
    mul(num(8), quadratic("a", "b"), quadratic("a", "c"), br("D", 6)),
    mul(num(3), pow_(var("a"), 2), br("D", 8)),
    _C,
)
ASYM_R2 = (mul(num(4), br("A", 2), br("D", 6)), mul(num(3), br("D", 8)), _C)


def _times(factor, identity):
    lhs, rhs, constrained = identity
    return (mul(factor, lhs), mul(factor, rhs), constrained)


def _sum(first, second):
    return (add(first[0], second[0]), add(first[1], second[1]), _C)


def _bracket(n, kinds="AB"):
    return lambda rng: br(rng.choice(kinds), n)


def _linear(e, names="abc"):
    def choose(rng):
        x, y = rng.sample(names, 2)
        return pow_((rng.choice(("add", "sub")), var(x), var(y)), e)

    return choose


def _factored(identity, factor):
    return lambda rng: _times(factor(rng), identity)


def _fixed(identity):
    return lambda rng: identity


def _sum_of(*identities):
    return lambda rng: _sum(*rng.sample(identities, 2))


# One slot per statement of a round, grouped in cost classes.  A slot fixes
# the statement's shape and so its cost; the seed picks only among
# alternatives of about equal cost (A or B, which linear form, the order of a
# sum), which statements of each class are false and how, and the op order.
# Relative cold symbolic cost per class, measured on a 2-core x86 host: 6
# light slots (0.3-0.5x), 7 of about equal cost (1x) holding the median, 4
# of 1.5-3x, 4 of about 7x holding the 90th percentile, and the classical
# product times D(8) (about 20x), which stays true.  D(2) and D(4) vanish
# under a*d = b*c, so constrained slots never multiply by them.
CLASSES = (  # (false statements per round, slots)
    (1, (
        _fixed(GEN6),
        _fixed(GEN3),
        _fixed(ASYM_F),
        _fixed(ASYM_R2),
        _factored(GEN3, _linear(3, "abcd")),
        _factored(ASYM_F, _linear(3)),
    )),
    (2, (
        _factored(GEN6, _bracket(2)),
        _factored(GEN6, _bracket(3)),
        _factored(ASYM_F, _bracket(4)),
        _factored(ASYM_F, _bracket(4)),
        _factored(ASYM_R2, _bracket(4)),
        _factored(ASYM_R2, _bracket(4)),
        _sum_of(GEN6, ASYM_R2),
    )),
    (1, (
        _factored(GEN6, _bracket(4)),
        _fixed(RAM),
        _sum_of(RAM, GEN6),
        _sum_of(RAM, ASYM_R2),
    )),
    (1, (
        _factored(RAM, _bracket(4)),
        _factored(RAM, _bracket(4)),
        _factored(RAM, _bracket(5)),
        _factored(RAM, _bracket(5)),
    )),
    (0, (
        _fixed((mul(RAM[0], br("D", 8)), mul(num(45), pow_(br("D", 8), 3)), _C)),
    )),
)
SLOTS = tuple(slot for _, group in CLASSES for slot in group)


@dataclass(frozen=True)
class Statement:
    name: str
    lhs: tuple
    rhs: tuple
    constrained: bool
    holds: bool

    def source(self) -> str:
        prefix = CONSTRAINT_PREFIX if self.constrained else ""
        return f"{prefix}{render(self.lhs)} == {render(self.rhs)}\n"


def generate(seed: int) -> list[Statement]:
    """One round of statements; about a quarter of them, chosen by the seed, are false."""
    rng = random.Random(seed)
    shapes = [slot(rng) for slot in SLOTS]
    false_slots, first = set(), 0
    for false_count, group in CLASSES:
        false_slots.update(rng.sample(range(first, first + len(group)), false_count))
        first += len(group)
    statements = []
    for index, (lhs, rhs, constrained) in enumerate(shapes):
        holds = index not in false_slots
        if not holds:
            lhs, rhs = _perturb(lhs, rhs, rng)
        statement = Statement(f"s{index:02d}", lhs, rhs, constrained, holds)
        _confirm(statement, rng)
        statements.append(statement)
    return statements


def true_versions(seed: int) -> list[Statement]:
    """The same shapes as ``generate(seed)``, every one in its true form."""
    rng = random.Random(seed)
    return [
        Statement(f"t{index:02d}", *slot(rng), holds=True)
        for index, slot in enumerate(SLOTS)
    ]


def _perturb(lhs, rhs, rng):
    paths = [(side,) + path for side, root in enumerate((lhs, rhs)) for path in _num_paths(root)]
    target = rng.choice(paths)
    sides = [lhs, rhs]
    sides[target[0]] = _replace(sides[target[0]], target[1:], rng.choice((-1, 1)))
    return tuple(sides)


def _num_paths(node, path=()):
    if node[0] == "num":
        yield path
    elif node[0] in ("add", "sub", "mul"):
        yield from _num_paths(node[1], path + (1,))
        yield from _num_paths(node[2], path + (2,))
    elif node[0] == "pow":
        yield from _num_paths(node[1], path + (1,))


def _replace(node, path, delta):
    if not path:
        return num(node[1] + delta)
    children = list(node)
    children[path[0]] = _replace(node[path[0]], path[1:], delta)
    return tuple(children)


def _confirm(statement: Statement, rng: random.Random) -> None:
    # Generation-time sanity check of the known answer, with the benchmark's
    # own evaluator: a true statement agrees at sampled points, a false one
    # differs at one of them.
    for _ in range(8):
        point = sample_point(statement.constrained, rng)
        differs = evaluate(statement.lhs, point) != evaluate(statement.rhs, point)
        if differs and statement.holds:
            raise AssertionError(f"{statement.source()} labelled true but differs at {point}")
        if differs:
            return
    if not statement.holds:
        raise AssertionError(f"{statement.source()} labelled false but never differs")


# ----------------------------------------------------------------------
# discover grid and its reference

# One op per (N, max_n band) cell; the seed picks max_n within the band of 2
# and the mode, so a round's cost barely depends on the seed.  Every shift
# count 3..12 appears, with max_n from 30 to 119.  The cells form cost
# classes: 9 cheap ones (under 0.3x), 9 of about equal cost (1x) holding
# the median, 2 of about 1.5x and 4 of about 4x holding the 90th percentile.
DISCOVER_CELLS = (
    (3, 30), (4, 30), (5, 30), (6, 42), (7, 42), (8, 42), (9, 54), (10, 54), (11, 54),
    (12, 84), (3, 66), (4, 70), (5, 72), (6, 78), (7, 78), (8, 86), (9, 88), (10, 86),
    (11, 102), (12, 102),
    (3, 102), (4, 108), (5, 114), (6, 118),
)


def discover_grid(seed: int) -> list[tuple[int, int, str]]:
    rng = random.Random(seed)
    return [
        (shift_count, rng.randint(low, low + 1), rng.choice(("diff", "point")))
        for shift_count, low in DISCOVER_CELLS
    ]


def expansion(shift_count: int, power: int) -> dict[int, Fraction]:
    """Harmonic -> coefficient of sum_k cos^power(theta + 2k*pi/N), by the binomial theorem."""
    coefficients: dict[int, Fraction] = {}
    for j in range(power + 1):
        harmonic = abs(power - 2 * j)
        if harmonic % shift_count == 0:
            coefficients[harmonic] = coefficients.get(harmonic, 0) + Fraction(
                shift_count * math.comb(power, j), 2**power
            )
    return coefficients


def reference_relations(shift_count: int, max_n: int, mode: str) -> list[dict]:
    """Every (m, n, p) with m + n = 2p whose three expansions share one harmonic."""
    single = {}
    for power in range(1, max_n + 1):
        terms = expansion(shift_count, power)
        positive = [(h, c) for h, c in terms.items() if h > 0]
        if len(positive) == 1 and not (mode == "point" and 0 in terms):
            single[power] = positive[0]
    found = []
    for m in range(1, max_n + 1):
        for n in range(m + 2, max_n + 1, 2):
            p = (m + n) // 2
            if m in single and n in single and p in single:
                (hm, am), (hn, an), (hp, ap) = single[m], single[n], single[p]
                if hm == hn == hp:
                    ratio = am * an / (ap * ap)
                    found.append({"m": m, "n": n, "p": p, "harmonic": hm,
                                  "P": ratio.numerator, "Q": ratio.denominator})
    found.sort(key=lambda r: (r["p"], r["m"], r["n"]))
    return found


def reference_json(shift_count: int, max_n: int, mode: str) -> str:
    """The exact bytes ``discover --emit json`` must print."""
    return json.dumps(reference_relations(shift_count, max_n, mode), separators=(",", ":")) + "\n"
