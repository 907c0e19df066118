"""Search for product-equals-square relations among power-sum expansions.

For a shift count N, the search space is pairs m < n <= max_power with
m + n even and p = (m + n) / 2.  Writing Delta_k for either the two-angle
difference f_k(theta1) - f_k(theta2) (DIFFERENCE mode) or the value
f_k(theta) itself (POINTWISE mode), a triple (m, n, p) is reported exactly
when f_m, f_n, f_p each carry a single positive harmonic, the harmonic is
the same h for all three, and in POINTWISE mode no constant term is
present.  Under those conditions

    product_factor * Delta_m * Delta_n == square_factor * Delta_p^2

holds identically, with square_factor / product_factor equal to the
amplitude ratio A_m * A_n / A_p^2 in lowest terms.  The m + n = 2p shape
makes both sides scale as rho^(m + n) when the cosines are scaled by rho,
so each relation extends to arbitrary radius.

Which powers qualify follows from arithmetic alone (see ``fourier``): the
positive harmonics of f_k step by lcm(2, N) from h0, the least multiple
of N with the parity of k, so f_k has one exactly when
h0 <= k < h0 + lcm(2, N).  The qualifying powers therefore form one run
h0, h0 + 2, ... per least harmonic (N, and 2N when N is odd), and ``_runs``
is the one home of that rule.  Each qualifying power k is described by
one integer pair, h0 and the binomial C_k = C(k, (k - h0) / 2) of its
amplitude A_k = N * C_k / 2^(k - 1) (``_binomial``).  When m + n = 2p the factors N and
the powers of two cancel, so a relation's constant is C_m * C_n / C_p^2,
put in lowest terms by one gcd (``_lowest_terms``).  All three powers of
a relation lie in one run, with p at its middle, so the search pairs
powers only within a run and expands none.

The number of relations follows from the run lengths alone, (s - 1)^2 / 4
rounded down for a run of s powers.  Before it builds any relation,
``discover`` refuses a query that would relate a power over
``fourier.POWER_BUDGET``, as ``linearize`` refuses that power, or that has
more than ``RELATION_BUDGET`` relations.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Union

from ._record import Record, replace, setfield
from .dsl import Format, parse, render
from .fourier import POWER_BUDGET, Mode
from .identities import CATALOG, IdentityStatement

# The most relations one query may build.  Outside the tests of this budget,
# the largest query of the tests, README, CI and benchmark (N = 63,
# difference mode) has 1,922.  N = 400 has 9,900 and N = 1000 has 62,250,
# which printed 35 MB of JSON in 6.4 s before this budget.
RELATION_BUDGET = 10_000


class DiscoveryQuery(Record):
    __slots__ = ("shift_count", "max_power", "mode")

    def __init__(self, shift_count: int, max_power: int, mode: Mode):
        setfield(self, "shift_count", shift_count)
        setfield(self, "max_power", max_power)
        setfield(self, "mode", mode)


class DiscoveredIdentity(NamedTuple):
    """One relation product_factor * D_m * D_n == square_factor * D_p^2."""

    m: int
    n: int
    p: int
    harmonic: int
    square_factor: int
    product_factor: int


def _runs(shift_count: int, max_power: int, mode: Mode) -> dict[int, range]:
    """Least harmonic h0 -> the powers k <= max_power whose f_k has h0 alone.

    The least harmonics are the multiples of N up to lcm(2, N), one per
    parity, and f_k has one positive harmonic exactly when
    h0 <= k < h0 + lcm(2, N) with k of the parity of h0.  An even power
    also has the constant term, which POINTWISE mode rejects.
    """
    period = math.lcm(2, shift_count)
    return {
        least: range(least, min(least + period, max_power + 1), 2)
        for least in range(shift_count, period + 1, shift_count)
        if mode is Mode.DIFFERENCE or least % 2
    }


def _binomial(power: int, harmonic: int) -> int:
    # C(k, (k - h) / 2): the amplitude of harmonic h in f_k is N * C / 2^(k - 1).
    return math.comb(power, (power - harmonic) // 2)


def _lowest_terms(numerator: int, denominator: int) -> tuple[int, int]:
    # The constant of a relation is a ratio of positive integers.
    common = math.gcd(numerator, denominator)
    return numerator // common, denominator // common


def derive_constant(
    shift_count: int, m: int, n: int, p: int, mode: Mode
) -> Optional[tuple[int, int]]:
    """(square_factor, product_factor) for the triple, or None.

    The pair is the amplitude ratio A_m * A_n / A_p^2 in lowest terms, for
    any m, n and p.  None means the triple does not qualify: the three
    powers do not lie in one run, because some expansion has zero or
    several positive harmonics, the harmonics disagree, or (POINTWISE) a
    constant term survives.
    """
    if shift_count < 1:
        raise ValueError(f"shift count must be positive, got {shift_count}")
    for power in (m, n, p):
        if power < 0:
            raise ValueError(f"power must be non-negative, got {power}")
    for least, run in _runs(shift_count, max(m, n, p), mode).items():
        if m in run and n in run and p in run:
            c_m, c_n, c_p = (_binomial(k, least) for k in (m, n, p))
            # N cancels; the powers of two leave 2^(2p - m - n).
            shift = 2 * p - m - n
            return _lowest_terms(c_m * c_n << max(shift, 0), c_p * c_p << max(-shift, 0))
    return None


def discover(query: DiscoveryQuery) -> list[DiscoveredIdentity]:
    """All qualifying triples, sorted by (p, m, n); deterministic.

    Each triple is a power p of a run with m and n the same distance d on
    either side of it in that run.  Raises ``ValueError``, before building
    any relation, for a query that would relate a power over
    ``fourier.POWER_BUDGET`` or has more than ``RELATION_BUDGET`` relations.
    The cost does not depend on max_power past 2 * lcm(2, N).
    """
    if query.shift_count < 1:
        raise ValueError(f"shift count must be positive, got {query.shift_count}")
    if query.max_power < 1:
        raise ValueError(f"max power must be positive, got {query.max_power}")
    runs = _runs(query.shift_count, query.max_power, query.mode)
    # Every power of a run of three or more is in a relation.  None may be a
    # power that linearize refuses; far past that budget a constant outgrows
    # the limit on integer strings.  Checked first, it also keeps each run
    # short enough for len().
    top = max((run[-1] for run in runs.values() if run[2:]), default=0)
    if top > POWER_BUDGET:
        raise ValueError(f"power {top} is over the budget of {POWER_BUDGET}")
    count = sum((len(run) - 1) ** 2 // 4 for run in runs.values())
    if count > RELATION_BUDGET:
        raise ValueError(
            f"the query has {count} relations, over the budget of {RELATION_BUDGET}"
        )
    found: list[DiscoveredIdentity] = []
    for least, run in runs.items():
        binomials = [_binomial(k, least) for k in run]
        for j, p in enumerate(run):
            square = binomials[j] ** 2
            for d in range(min(j, len(run) - 1 - j), 0, -1):
                square_factor, product_factor = _lowest_terms(
                    binomials[j - d] * binomials[j + d], square
                )
                found.append(DiscoveredIdentity(
                    run[j - d], run[j + d], p, least, square_factor, product_factor
                ))
    found.sort(key=lambda d: (d.p, d.m, d.n))
    return found


def emit_statement(
    identity: DiscoveredIdentity, shift_count: int, mode: Mode = Mode.DIFFERENCE
) -> Union[IdentityStatement, str]:
    """Concrete statement of one discovered relation.

    For shift count 3 the relation has an exact algebraic form: the
    bracket triples parameterize two angles of a common radius (the second
    one under a*d = b*c), so DIFFERENCE relations become D-bracket
    statements with the constraint on and POINTWISE relations become
    A-bracket statements with it off.  A relation the catalog holds keeps
    its catalog name.  For any other shift count the relation is returned
    as plain text over f_k evaluations.
    """
    if shift_count != 3:
        return render_relation(identity, shift_count, mode, Format.PLAIN)
    kind, suffix = ("D", "six") if mode is Mode.DIFFERENCE else ("A", "three")
    constrained = mode is Mode.DIFFERENCE
    # Catalog-style text; P is the square factor and Q the product factor.
    text = "{Q}*{K}({m})*{K}({n}) == {P}*{K}({p})^2".format(
        K=kind, m=identity.m, n=identity.n, p=identity.p,
        P=identity.square_factor, Q=identity.product_factor,
    )
    name = f"gen-{identity.m}-{identity.n}-{identity.p}-{suffix}"
    name = _CATALOG_NAMES.get((text, constrained), name)
    return replace(parse(text, name), constrained=constrained)


# Catalog name of each (text, constrained) entry, for relations it holds.
_CATALOG_NAMES = {entry: name for name, entry in CATALOG.items()}


# Relation text for shift counts other than 3, which have no bracket form;
# P is the square factor and Q the product factor.
_RELATION_TEXT = {
    (Format.PLAIN, Mode.DIFFERENCE): "{Q}*(f_{m}(θ1) - f_{m}(θ2))*(f_{n}(θ1) - f_{n}(θ2)) = {P}*(f_{p}(θ1) - f_{p}(θ2))^2",
    (Format.PLAIN, Mode.POINTWISE): "{Q}*f_{m}(θ)*f_{n}(θ) = {P}*f_{p}(θ)^2",
    (Format.LATEX, Mode.DIFFERENCE): r"{Q}\bigl(f_{{{m}}}(\theta_1)-f_{{{m}}}(\theta_2)\bigr)"
    r"\bigl(f_{{{n}}}(\theta_1)-f_{{{n}}}(\theta_2)\bigr) = {P}\bigl(f_{{{p}}}(\theta_1)-f_{{{p}}}(\theta_2)\bigr)^{{2}}",
    (Format.LATEX, Mode.POINTWISE): r"{Q}f_{{{m}}}(\theta)f_{{{n}}}(\theta) = {P}f_{{{p}}}(\theta)^{{2}}",
}


def render_relation(
    identity: DiscoveredIdentity, shift_count: int, mode: Mode, fmt: Format
) -> str:
    """One discovered relation as PLAIN or LATEX text.

    Shift count 3 renders the statement of ``emit_statement``; other shift
    counts render over f_k evaluations.
    """
    if shift_count == 3:
        return render(emit_statement(identity, shift_count, mode), fmt)
    return _RELATION_TEXT[fmt, mode].format(
        m=identity.m, n=identity.n, p=identity.p,
        P=identity.square_factor, Q=identity.product_factor,
    )
