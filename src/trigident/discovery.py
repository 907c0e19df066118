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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .dsl import Format, render
from .fourier import Mode, linearize_closed, single_harmonic
from .identities import Bracket, BracketKind, IdentityStatement, Mul, Num, Pow


@dataclass(frozen=True)
class DiscoveryQuery:
    shift_count: int
    max_power: int
    mode: Mode


@dataclass(frozen=True)
class DiscoveredIdentity:
    """One relation product_factor * D_m * D_n == square_factor * D_p^2."""

    m: int
    n: int
    p: int
    harmonic: int
    square_factor: int
    product_factor: int


_Harmonic = Optional[tuple[int, Fraction]]


def _relate(m: _Harmonic, n: _Harmonic, p: _Harmonic) -> Optional[tuple[int, int, int]]:
    # (harmonic, square_factor, product_factor) from the single_harmonic
    # results for f_m, f_n and f_p, or None when the triple does not qualify.
    if m is None or n is None or p is None:
        return None
    (h_m, a_m), (h_n, a_n), (h_p, a_p) = m, n, p
    if not (h_m == h_n == h_p):
        return None
    ratio = (a_m * a_n) / (a_p * a_p)
    return (h_m, ratio.numerator, ratio.denominator)


def derive_constant(
    shift_count: int, m: int, n: int, p: int, mode: Mode
) -> Optional[tuple[int, int]]:
    """(square_factor, product_factor) for the triple, or None.

    None means the triple does not qualify: some expansion has zero or
    several positive harmonics, the harmonics disagree, or (POINTWISE) a
    constant term survives.
    """
    related = _relate(
        *(single_harmonic(linearize_closed(shift_count, k), mode) for k in (m, n, p))
    )
    return None if related is None else related[1:]


def discover(query: DiscoveryQuery) -> list[DiscoveredIdentity]:
    """All qualifying triples, sorted by (p, m, n); deterministic.

    Each power is linearized and classified once; the pairs then only
    compare classifications.
    """
    if query.shift_count < 1:
        raise ValueError(f"shift count must be positive, got {query.shift_count}")
    if query.max_power < 1:
        raise ValueError(f"max power must be positive, got {query.max_power}")
    harmonics = {
        k: single_harmonic(linearize_closed(query.shift_count, k), query.mode)
        for k in range(1, query.max_power + 1)
    }
    found: list[DiscoveredIdentity] = []
    for m in range(1, query.max_power + 1):
        for n in range(m + 2, query.max_power + 1, 2):
            p = (m + n) // 2
            related = _relate(harmonics[m], harmonics[n], harmonics[p])
            if related is not None:
                found.append(DiscoveredIdentity(m, n, p, *related))
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
    A-bracket statements with it off.  The classical (6, 10, 8) triple
    keeps its catalog name.  For any other shift count the relation is
    returned as plain text over f_k evaluations.
    """
    if shift_count == 3:
        if mode is Mode.DIFFERENCE:
            kind = BracketKind.D
            suffix = "six"
            constrained = True
        else:
            kind = BracketKind.A
            suffix = "three"
            constrained = False
        triple = (identity.m, identity.n, identity.p)
        if mode is Mode.DIFFERENCE and triple == (6, 10, 8):
            name = "ramanujan-6-10-8"
        else:
            name = f"gen-{identity.m}-{identity.n}-{identity.p}-{suffix}"
        lhs = Mul(
            Mul(Num(Fraction(identity.product_factor)), Bracket(kind, identity.m)),
            Bracket(kind, identity.n),
        )
        rhs = Mul(
            Num(Fraction(identity.square_factor)), Pow(Bracket(kind, identity.p), 2)
        )
        return IdentityStatement(name, lhs, rhs, constrained)
    return render_relation(identity, shift_count, mode, Format.PLAIN)


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
