import math
import random
from fractions import Fraction

import pytest

from trigident.fourier import (
    POWER_BUDGET,
    Mode,
    eval_expansion,
    linearize_closed,
    linearize_oracle,
    render_plain,
    single_harmonic,
    to_json,
)

# Exact cosine values at the shift angles 2*k*pi/N, for the N where they
# are rational.  Used to cross-check coefficient sums without floats.
RATIONAL_COSINES = {
    1: [Fraction(1)],
    2: [Fraction(1), Fraction(-1)],
    3: [Fraction(1), Fraction(-1, 2), Fraction(-1, 2)],
    4: [Fraction(1), Fraction(0), Fraction(-1), Fraction(0)],
    6: [
        Fraction(1),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(1, 2),
    ],
}


def direct_power_sum(shift_count, power, theta):
    return sum(
        math.cos(theta + 2 * math.pi * k / shift_count) ** power
        for k in range(shift_count)
    )


def test_three_fold_even_expansions_match_known_values():
    assert dict(linearize_closed(3, 6).coefficients) == {
        0: Fraction(15, 16),
        6: Fraction(3, 32),
    }
    assert dict(linearize_closed(3, 8).coefficients) == {
        0: Fraction(105, 128),
        6: Fraction(3, 16),
    }
    assert dict(linearize_closed(3, 10).coefficients) == {
        0: Fraction(189, 256),
        6: Fraction(135, 512),
    }


def test_three_fold_odd_expansions_match_known_values():
    assert dict(linearize_closed(3, 3).coefficients) == {3: Fraction(3, 4)}
    assert dict(linearize_closed(3, 5).coefficients) == {3: Fraction(15, 16)}
    assert dict(linearize_closed(3, 7).coefficients) == {3: Fraction(63, 64)}


def test_small_cases():
    assert dict(linearize_closed(1, 1).coefficients) == {1: Fraction(1)}
    assert dict(linearize_closed(2, 2).coefficients) == {0: Fraction(1), 2: Fraction(1)}
    assert dict(linearize_closed(4, 2).coefficients) == {0: Fraction(2)}
    assert dict(linearize_closed(5, 5).coefficients) == {5: Fraction(5, 16)}
    assert dict(linearize_closed(3, 1).coefficients) == {}
    assert dict(linearize_closed(3, 0).coefficients) == {0: Fraction(3)}


def test_closed_form_agrees_with_binomial_oracle():
    for shift_count in range(1, 9):
        for power in range(0, 41):
            closed = linearize_closed(shift_count, power)
            oracle = linearize_oracle(shift_count, power)
            assert dict(closed.coefficients) == dict(oracle.coefficients), (
                shift_count,
                power,
            )


def test_harmonic_support_invariants():
    for shift_count in range(1, 9):
        for power in range(0, 17):
            expansion = linearize_closed(shift_count, power)
            for harmonic, coefficient in expansion.coefficients.items():
                assert coefficient != 0
                assert harmonic % shift_count == 0
                assert harmonic <= power
                if power > 0:
                    assert harmonic % 2 == power % 2


def test_coefficient_sums_match_exact_rational_evaluation_at_theta_zero():
    for shift_count, cosines in RATIONAL_COSINES.items():
        for power in range(0, 17):
            expansion = linearize_closed(shift_count, power)
            total = sum(expansion.coefficients.values(), Fraction(0))
            assert total == sum((c ** power for c in cosines), Fraction(0))


def test_float_evaluation_matches_direct_cosine_power_sum():
    rng = random.Random(42)
    for _ in range(200):
        shift_count = rng.randint(1, 8)
        power = rng.randint(0, 16)
        theta = rng.uniform(-math.pi, math.pi)
        expansion = linearize_closed(shift_count, power)
        expected = direct_power_sum(shift_count, power, theta)
        got = eval_expansion(expansion, theta)
        assert abs(got - expected) <= 1e-9 * (1.0 + abs(expected))


def test_single_harmonic_classification():
    f6 = linearize_closed(3, 6)
    assert single_harmonic(f6, Mode.DIFFERENCE) == (6, Fraction(3, 32))
    assert single_harmonic(f6, Mode.POINTWISE) is None
    assert single_harmonic(linearize_closed(3, 5), Mode.POINTWISE) == (3, Fraction(15, 16))
    assert single_harmonic(linearize_closed(3, 9), Mode.DIFFERENCE) is None
    assert single_harmonic(linearize_closed(3, 2), Mode.DIFFERENCE) is None
    assert single_harmonic(linearize_closed(3, 1), Mode.DIFFERENCE) is None


def test_json_rendering_is_canonical():
    assert to_json(linearize_closed(3, 6)) == (
        '{"N":3,"n":6,"terms":'
        '[{"harmonic":0,"coeff":"15/16"},{"harmonic":6,"coeff":"3/32"}]}'
    )


def test_plain_rendering():
    assert render_plain(linearize_closed(3, 6)) == "f_6 = 15/16 + 3/32 cos(6θ)"
    assert render_plain(linearize_closed(3, 1)) == "f_1 = 0"
    assert render_plain(linearize_closed(3, 0)) == "f_0 = 3"


def test_argument_validation():
    with pytest.raises(ValueError):
        linearize_closed(0, 4)
    with pytest.raises(ValueError):
        linearize_closed(3, -1)
    with pytest.raises(ValueError):
        linearize_oracle(-2, 4)


def test_powers_over_the_budget_are_refused():
    for linearize in (linearize_closed, linearize_oracle):
        with pytest.raises(ValueError, match=f"budget of {POWER_BUDGET}"):
            linearize(3, POWER_BUDGET + 1)
        with pytest.raises(ValueError, match="budget"):
            linearize(3, 10**12)
