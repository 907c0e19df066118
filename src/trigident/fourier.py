"""Exact Fourier expansions of shifted-cosine power sums.

The object of study is

    f_n(theta) = sum_{k=0}^{N-1} cos^n(theta + 2*k*pi/N),

a trigonometric polynomial in which only harmonics divisible by N survive:
averaging cos(h*theta + 2*k*h*pi/N) over the N shifts kills every h that is
not a multiple of N and leaves the rest untouched.  Two independent routes
compute the surviving coefficients exactly over the rationals:

* ``linearize_closed`` evaluates the power-reduction formula
  cos^n theta = 2^(1-n) * sum_{k < n/2} C(n, k) * cos((n - 2k) theta),
  plus 2^-n * C(n, n/2) for even n, one harmonic per k.
* ``linearize_oracle`` expands cos^n theta = 2^-n * sum_k C(n, k) *
  cos((n - 2k) theta) directly and keeps the harmonics divisible by N.

Both return the coefficients of the full sum over N shifts, not of the
average, so f_0 is the constant N.

The positive harmonics of f_n are therefore the h in 0 < h <= n with
h = n (mod 2) and N | h: an arithmetic progression with step
L = lcm(2, N) from its least member h0, where h0 is N or 2N and h0 <= L.
So f_n has exactly one positive harmonic when h0 <= n < h0 + L, and never
once n >= 2L; its amplitude is N * C(n, (n - h0)/2) / 2^(n-1).  Every
even n also has the constant term.

Both routes refuse a power over ``POWER_BUDGET``.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional

from ._record import Record, setfield

# Largest power either route expands.  The expansion of f_n is Theta(n^2)
# bits, and its coefficients have denominators up to 2^(n-1), which print
# under Python's default 4,300-digit integer string limit only up to
# n = 14,285.  At this budget no coefficient of f_n for N <= 64 has more
# than 3,010 digits, and linearize -N 1 prints 26 MB in about 3 s.
POWER_BUDGET = 10_000


class Mode(Enum):
    """How the constant term is treated when classifying an expansion.

    DIFFERENCE ignores the constant term, because it cancels in
    f_n(theta1) - f_n(theta2).  POINTWISE requires the constant term to be
    absent, because nothing cancels it in f_n(theta) itself.
    """

    DIFFERENCE = "difference"
    POINTWISE = "pointwise"


class FourierExpansion(Record):
    """Expansion of one power sum: harmonic -> exact coefficient.

    Every stored harmonic h satisfies h % shift_count == 0, h <= power, and
    h has the same parity as power; zero coefficients are never stored.
    """

    __slots__ = ("shift_count", "power", "coefficients")

    def __init__(self, shift_count: int, power: int, coefficients: Optional[Mapping[int, Fraction]] = None):
        setfield(self, "shift_count", shift_count)
        setfield(self, "power", power)
        setfield(self, "coefficients", {} if coefficients is None else coefficients)

    def sorted_items(self) -> list[tuple[int, Fraction]]:
        return sorted(self.coefficients.items())


def linearize_closed(shift_count: int, power: int) -> FourierExpansion:
    """Closed-form coefficients of f_power for shift_count shifts.

    By power reduction, the coefficient of cos(h * theta) for h = n - 2k > 0
    is N * C(n, k) / 2^(n-1), and the constant term (h = 0, even n only) is
    N * C(n, n/2) / 2^n.  Only harmonics divisible by N are kept.  The
    binomials are walked down from C(n, floor(n/2)), one step per k.
    """
    _check_arguments(shift_count, power)
    coefficients: dict[int, Fraction] = {}
    binomial = math.comb(power, power // 2)
    for k in range(power // 2, -1, -1):
        harmonic = power - 2 * k
        if harmonic % shift_count == 0:
            scale = 2 ** (power - (harmonic > 0))
            coefficients[harmonic] = shift_count * Fraction(binomial, scale)
        binomial = binomial * k // (power - k + 1)  # C(n, k - 1)
    return FourierExpansion(shift_count, power, coefficients)


def linearize_oracle(shift_count: int, power: int) -> FourierExpansion:
    """Same expansion via the binomial theorem, with no closed form involved.

    Writing cos theta = (e^(i theta) + e^(-i theta)) / 2 and expanding the
    n-th power gives cos^n theta = 2^-n * sum_{k=0}^{n} C(n, k) *
    cos((n - 2k) theta).  Summing the shifts keeps the harmonics divisible
    by shift_count and multiplies each by shift_count.
    """
    _check_arguments(shift_count, power)
    scale = Fraction(1, 2 ** power)
    folded: dict[int, Fraction] = {}
    for k in range(power + 1):
        harmonic = abs(power - 2 * k)
        if harmonic % shift_count:
            continue
        folded[harmonic] = folded.get(harmonic, Fraction(0)) + math.comb(power, k) * scale
    coefficients = {h: shift_count * c for h, c in folded.items() if c}
    return FourierExpansion(shift_count, power, coefficients)


def eval_expansion(expansion: FourierExpansion, theta: float) -> float:
    """Float value of the expansion at one angle."""
    return sum(float(c) * math.cos(h * theta) for h, c in expansion.coefficients.items())


def single_harmonic(expansion: FourierExpansion, mode: Mode) -> Optional[tuple[int, Fraction]]:
    """The unique positive harmonic and its amplitude, if there is exactly one.

    Returns None when the expansion has zero or several positive harmonics,
    or when mode is POINTWISE and a constant term is present.
    """
    positive = [(h, c) for h, c in expansion.coefficients.items() if h > 0]
    if len(positive) != 1:
        return None
    if mode is Mode.POINTWISE and 0 in expansion.coefficients:
        return None
    return positive[0]


def to_json(expansion: FourierExpansion) -> str:
    """Canonical JSON with terms sorted by harmonic and exact string coefficients."""
    payload = {
        "N": expansion.shift_count,
        "n": expansion.power,
        "terms": [
            {"harmonic": h, "coeff": str(c)} for h, c in expansion.sorted_items()
        ],
    }
    return json.dumps(payload, separators=(",", ":"))


def render_plain(expansion: FourierExpansion) -> str:
    """One-line human form, e.g. ``f_6 = 15/16 + 3/32 cos(6θ)``."""
    pieces = [
        str(c) if h == 0 else f"{c} cos({h}θ)"
        for h, c in expansion.sorted_items()
    ]
    body = " + ".join(pieces) if pieces else "0"
    return f"f_{expansion.power} = {body}"


def render_latex(expansion: FourierExpansion) -> str:
    """LaTeX form of the expansion, mirroring ``render_plain``."""
    pieces = [
        _latex_rational(c) if h == 0 else f"{_latex_rational(c)}\\cos({h}\\theta)"
        for h, c in expansion.sorted_items()
    ]
    body = " + ".join(pieces) if pieces else "0"
    return f"f_{{{expansion.power}}}(\\theta) = {body}"


def _latex_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"\\frac{{{value.numerator}}}{{{value.denominator}}}"


def _check_arguments(shift_count: int, power: int) -> None:
    if shift_count < 1:
        raise ValueError(f"shift count must be positive, got {shift_count}")
    if power < 0:
        raise ValueError(f"power must be non-negative, got {power}")
    if power > POWER_BUDGET:
        raise ValueError(f"power {power} is over the budget of {POWER_BUDGET}")
