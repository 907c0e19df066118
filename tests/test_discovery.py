import math
import time

import pytest

from trigident.discovery import (
    DiscoveredIdentity,
    DiscoveryQuery,
    _classify,
    derive_constant,
    discover,
    emit_statement,
)
from trigident.fourier import Mode, linearize_closed, single_harmonic
from trigident.identities import Verdict, catalog_entry, verify

GRID_SIZE = 64


def direct_power_sum(shift_count, power, theta):
    return sum(
        math.cos(theta + 2.0 * math.pi * k / shift_count) ** power
        for k in range(shift_count)
    )


def brute_force_triples(shift_count, max_power, mode):
    """Grid-sampled proportionality test over the same (m, n, p) space.

    Uses only direct cosine sums, no expansions, so it is independent of
    the closed form behind discover().  Returns {(m, n, p): constant}.
    """
    thetas = [2.0 * math.pi * j / GRID_SIZE for j in range(GRID_SIZE)]
    table = {
        k: [direct_power_sum(shift_count, k, t) for t in thetas]
        for k in range(1, max_power + 1)
    }

    def samples(k):
        row = table[k]
        if mode is Mode.DIFFERENCE:
            return [row[i] - row[j] for i in range(GRID_SIZE) for j in range(GRID_SIZE)]
        return row

    found = {}
    for m in range(1, max_power + 1):
        for n in range(m + 2, max_power + 1, 2):
            p = (m + n) // 2
            g1 = [u * v for u, v in zip(samples(m), samples(n))]
            g2 = [u * u for u in samples(p)]
            peak1 = max(abs(v) for v in g1)
            peak2 = max(abs(v) for v in g2)
            if peak1 <= 1e-12 or peak2 <= 1e-12:
                continue
            pivot = max(range(len(g2)), key=lambda i: abs(g2[i]))
            constant = g1[pivot] / g2[pivot]
            tolerance = 1e-9 * max(peak1, peak2)
            if all(abs(u - constant * v) <= tolerance for u, v in zip(g1, g2)):
                found[(m, n, p)] = constant
    return found


def test_classical_constants_are_derived():
    assert derive_constant(3, 6, 10, 8, Mode.DIFFERENCE) == (45, 64)
    assert derive_constant(3, 3, 7, 5, Mode.DIFFERENCE) == (21, 25)
    assert derive_constant(3, 3, 7, 5, Mode.POINTWISE) == (21, 25)


def test_derive_constant_rejects_unaligned_triples():
    # f_6 carries a constant term, so it cannot appear pointwise.
    assert derive_constant(3, 6, 10, 8, Mode.POINTWISE) is None
    # f_9 carries two positive harmonics at shift count 3.
    assert derive_constant(3, 5, 9, 7, Mode.DIFFERENCE) is None
    # Harmonic 3 against harmonic 6.
    assert derive_constant(3, 5, 7, 6, Mode.DIFFERENCE) is None
    # f_1 vanishes identically at shift count 3.
    assert derive_constant(3, 1, 3, 2, Mode.DIFFERENCE) is None


def test_three_fold_difference_search():
    results = discover(DiscoveryQuery(3, 11, Mode.DIFFERENCE))
    assert results == [
        DiscoveredIdentity(3, 7, 5, 3, 21, 25),
        DiscoveredIdentity(6, 10, 8, 6, 45, 64),
    ]


def test_three_fold_pointwise_search():
    results = discover(DiscoveryQuery(3, 11, Mode.POINTWISE))
    assert results == [DiscoveredIdentity(3, 7, 5, 3, 21, 25)]


def test_four_fold_search_is_empty():
    assert discover(DiscoveryQuery(4, 9, Mode.DIFFERENCE)) == []


def test_five_fold_search_finds_the_odd_family():
    results = discover(DiscoveryQuery(5, 13, Mode.DIFFERENCE))
    assert results == [
        DiscoveredIdentity(5, 9, 7, 5, 36, 49),
        DiscoveredIdentity(5, 13, 9, 5, 715, 1296),
        DiscoveredIdentity(7, 11, 9, 5, 385, 432),
        DiscoveredIdentity(9, 13, 11, 5, 52, 55),
    ]


def test_search_is_deterministic_and_sorted():
    query = DiscoveryQuery(5, 13, Mode.DIFFERENCE)
    first = discover(query)
    second = discover(query)
    assert first == second
    assert [(d.p, d.m, d.n) for d in first] == sorted((d.p, d.m, d.n) for d in first)
    assert all(d.m < d.n for d in first)
    assert all(d.m + d.n == 2 * d.p for d in first)


def test_difference_search_agrees_with_grid_brute_force():
    for shift_count in range(1, 7):
        expected = brute_force_triples(shift_count, 14, Mode.DIFFERENCE)
        results = discover(DiscoveryQuery(shift_count, 14, Mode.DIFFERENCE))
        assert {(d.m, d.n, d.p) for d in results} == set(expected), shift_count
        for d in results:
            ratio = d.square_factor / d.product_factor
            constant = expected[(d.m, d.n, d.p)]
            assert abs(constant - ratio) <= 1e-9 * abs(ratio)


def test_pointwise_search_is_sound_against_the_grid():
    # Pointwise the grid also accepts degenerate relations with no positive
    # harmonic (pure powers when the shift count is 1 or 2, all-constant
    # expansions like f_2*f_6 vs f_4^2 at shift count 5), so the search
    # output is a subset of the grid survivors rather than the whole set.
    for shift_count in range(1, 7):
        expected = brute_force_triples(shift_count, 14, Mode.POINTWISE)
        results = discover(DiscoveryQuery(shift_count, 14, Mode.POINTWISE))
        assert {(d.m, d.n, d.p) for d in results} <= set(expected), shift_count
        for d in results:
            ratio = d.square_factor / d.product_factor
            constant = expected[(d.m, d.n, d.p)]
            assert abs(constant - ratio) <= 1e-9 * abs(ratio)
        extras = set(expected) - {(d.m, d.n, d.p) for d in results}
        if shift_count in (3, 4, 6):
            assert not extras


def test_constants_are_coprime_with_positive_denominator():
    for shift_count in range(1, 7):
        for d in discover(DiscoveryQuery(shift_count, 14, Mode.DIFFERENCE)):
            assert math.gcd(d.square_factor, d.product_factor) == 1
            assert d.product_factor > 0


def test_classifier_matches_the_expansion():
    for shift_count in range(1, 13):
        for power in range(0, 301):
            expansion = linearize_closed(shift_count, power)
            for mode in Mode:
                assert _classify(shift_count, power, mode) == single_harmonic(
                    expansion, mode
                ), (shift_count, power, mode)


def test_search_stops_at_the_last_power_that_can_qualify():
    # No power k >= 2*lcm(2, N) <= 4N has a single positive harmonic, so a
    # huge bound finds what 4N finds, at the same cost.
    start = time.perf_counter()
    for shift_count in range(1, 13):
        for mode in Mode:
            assert discover(DiscoveryQuery(shift_count, 10**6, mode)) == discover(
                DiscoveryQuery(shift_count, 4 * shift_count, mode)
            ), (shift_count, mode)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_invalid_queries_are_rejected():
    with pytest.raises(ValueError):
        discover(DiscoveryQuery(0, 11, Mode.DIFFERENCE))
    with pytest.raises(ValueError):
        discover(DiscoveryQuery(3, 0, Mode.DIFFERENCE))


def test_emitted_three_fold_statements_match_the_catalog():
    difference = discover(DiscoveryQuery(3, 11, Mode.DIFFERENCE))
    emitted = emit_statement(difference[1], 3, Mode.DIFFERENCE)
    assert emitted == catalog_entry("ramanujan-6-10-8")
    assert emitted.name == "ramanujan-6-10-8"
    emitted = emit_statement(difference[0], 3, Mode.DIFFERENCE)
    assert emitted == catalog_entry("gen-3-7-5-six")
    assert emitted.name == "gen-3-7-5-six"

    pointwise = discover(DiscoveryQuery(3, 11, Mode.POINTWISE))
    emitted = emit_statement(pointwise[0], 3, Mode.POINTWISE)
    assert emitted == catalog_entry("gen-3-7-5-three")
    assert emitted.name == "gen-3-7-5-three"


def test_emitted_three_fold_statements_verify():
    for mode in Mode:
        for d in discover(DiscoveryQuery(3, 11, mode)):
            statement = emit_statement(d, 3, mode)
            assert verify(statement).verdict is Verdict.PROVED, statement.name


def test_emitted_text_for_other_shift_counts():
    d = DiscoveredIdentity(5, 9, 7, 5, 36, 49)
    assert emit_statement(d, 5, Mode.DIFFERENCE) == (
        "49*(f_5(θ1) - f_5(θ2))*(f_9(θ1) - f_9(θ2)) = 36*(f_7(θ1) - f_7(θ2))^2"
    )
    assert emit_statement(d, 5, Mode.POINTWISE) == (
        "49*f_5(θ)*f_9(θ) = 36*f_7(θ)^2"
    )


def test_float_spot_check_of_five_fold_relations():
    import random

    rng = random.Random(99)
    for d in discover(DiscoveryQuery(5, 13, Mode.DIFFERENCE)):
        for _ in range(100):
            theta1 = rng.uniform(-math.pi, math.pi)
            theta2 = rng.uniform(-math.pi, math.pi)
            rho = rng.uniform(0.5, 2.0)
            delta = lambda k: rho ** k * (
                direct_power_sum(5, k, theta1) - direct_power_sum(5, k, theta2)
            )
            lhs = d.product_factor * delta(d.m) * delta(d.n)
            rhs = d.square_factor * delta(d.p) ** 2
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))
