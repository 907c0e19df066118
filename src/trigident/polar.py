"""Polar coordinates for real triples that sum to zero.

Every triple (x, y, z) with x + y + z = 0 can be written as

    x = rho * cos(theta)
    y = rho * cos(theta - 2*pi/3)
    z = rho * cos(theta + 2*pi/3)

for a unique rho >= 0 and, when rho > 0, a unique theta in (-pi, pi].  The
decomposition inverts the linear change of variables X = x + y/2,
Y = (sqrt(3)/2) * y, which satisfies X + iY = (sqrt(3)/2) * rho *
e^(i(theta - pi/6)), and reads the radius off the rotation-invariant
quantity x^2 + y^2 + z^2 = (3/2) * rho^2.
"""

from __future__ import annotations

import math

from ._record import Record, setfield

_ZERO_SUM_TOLERANCE = 1e-9


class ZeroSumTriple(Record):
    """A triple constrained to x + y + z = 0 up to float round-off."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        setfield(self, "x", x)
        setfield(self, "y", y)
        setfield(self, "z", z)
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError(f"triple entries must be finite: {self}")
        residual = abs(self.x + self.y + self.z)
        scale = 1.0 + abs(self.x) + abs(self.y) + abs(self.z)
        if residual > _ZERO_SUM_TOLERANCE * scale:
            raise ValueError(f"triple does not sum to zero: {self}")


class PolarForm(Record):
    """Radius and angle with rho >= 0 and theta in (-pi, pi]."""

    __slots__ = ("rho", "theta")

    def __init__(self, rho: float, theta: float):
        setfield(self, "rho", rho)
        setfield(self, "theta", theta)
        if not (math.isfinite(self.rho) and math.isfinite(self.theta)):
            raise ValueError(f"radius and angle must be finite: {self}")
        if self.rho < 0:
            raise ValueError(f"negative radius: {self.rho}")
        if not -math.pi < self.theta <= math.pi:
            raise ValueError(f"angle out of range (-pi, pi]: {self.theta}")


def decompose(triple: ZeroSumTriple) -> PolarForm:
    """Polar form of a zero-sum triple; (0, 0, 0) maps to rho = 0, theta = 0."""
    if triple.x == 0.0 and triple.y == 0.0 and triple.z == 0.0:
        return PolarForm(0.0, 0.0)
    try:
        rho = math.sqrt((triple.x ** 2 + triple.y ** 2 + triple.z ** 2) * 2.0 / 3.0)
    except OverflowError as exc:
        raise ValueError(f"triple too large for a finite radius: {triple}") from exc
    alpha = math.atan2(math.sqrt(3.0) / 2.0 * triple.y, triple.x + triple.y / 2.0)
    theta = alpha + math.pi / 6.0
    if theta > math.pi:
        theta -= 2.0 * math.pi
    return PolarForm(rho, theta)


def compose(polar: PolarForm) -> ZeroSumTriple:
    """Zero-sum triple with the given radius and angle."""
    return ZeroSumTriple(
        polar.rho * math.cos(polar.theta),
        polar.rho * math.cos(polar.theta - 2.0 * math.pi / 3.0),
        polar.rho * math.cos(polar.theta + 2.0 * math.pi / 3.0),
    )


def pair_product_sum(triple: ZeroSumTriple) -> float:
    """xy + xz + yz, which equals -(3/4) * rho^2 on the zero-sum plane."""
    return triple.x * triple.y + triple.x * triple.z + triple.y * triple.z
