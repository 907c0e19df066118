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

Which powers qualify follows from arithmetic alone (see ``fourier``): f_k
has one positive harmonic h0 exactly when h0 <= k < h0 + lcm(2, N), so no
power k >= 2 * lcm(2, N) qualifies.  The search classifies only the powers
below that bound, and expands none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

from .dsl import Format, parse, render
from .fourier import Mode
from .identities import CATALOG, IdentityStatement


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


def _classify(shift_count: int, power: int, mode: Mode) -> _Harmonic:
    """``single_harmonic(linearize_closed(shift_count, power), mode)``, by arithmetic.

    The positive harmonics of f_power step by lcm(2, N) from the least
    multiple of N with the parity of power, so there is one exactly when
    that least harmonic h0 satisfies h0 <= power < h0 + lcm(2, N).  An even
    power also has the constant term, which POINTWISE mode rejects.
    """
    if shift_count < 1:
        raise ValueError(f"shift count must be positive, got {shift_count}")
    if power < 0:
        raise ValueError(f"power must be non-negative, got {power}")
    if mode is Mode.POINTWISE and power % 2 == 0:
        return None
    least = shift_count if (power - shift_count) % 2 == 0 else 2 * shift_count
    if (power - least) % 2 or not least <= power < least + math.lcm(2, shift_count):
        return None
    binomial = math.comb(power, (power - least) // 2)
    return least, shift_count * Fraction(binomial, 2 ** (power - 1))


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
    related = _relate(*(_classify(shift_count, k, mode) for k in (m, n, p)))
    return None if related is None else related[1:]


def discover(query: DiscoveryQuery) -> list[DiscoveredIdentity]:
    """All qualifying triples, sorted by (p, m, n); deterministic.

    Only the powers below 2 * lcm(2, N) can qualify, so only those are
    classified, and only the qualifying ones are paired.  The cost does not
    depend on max_power beyond that bound.
    """
    if query.shift_count < 1:
        raise ValueError(f"shift count must be positive, got {query.shift_count}")
    if query.max_power < 1:
        raise ValueError(f"max power must be positive, got {query.max_power}")
    bound = min(query.max_power, 2 * math.lcm(2, query.shift_count) - 1)
    harmonics = {
        k: _classify(query.shift_count, k, query.mode) for k in range(1, bound + 1)
    }
    qualifying = [k for k, harmonic in harmonics.items() if harmonic is not None]
    found: list[DiscoveredIdentity] = []
    for i, m in enumerate(qualifying):
        for n in qualifying[i + 1:]:
            if (m + n) % 2:
                continue
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
