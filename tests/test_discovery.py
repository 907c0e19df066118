import math
import time
from fractions import Fraction

import pytest

from trigident.discovery import (
    RELATION_BUDGET,
    DiscoveredIdentity,
    DiscoveryQuery,
    _binomial,
    _runs,
    derive_constant,
    discover,
    emit_statement,
)
from trigident.fourier import POWER_BUDGET, Mode, linearize_closed, single_harmonic
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
    # Both are C_m*C_n/C_p^2 in lowest terms, as Fraction reduces it.
    for shift_count in range(1, 7):
        for mode in Mode:
            for d in discover(DiscoveryQuery(shift_count, 14, mode)):
                assert math.gcd(d.square_factor, d.product_factor) == 1
                assert d.product_factor > 0
                assert type(d.square_factor) is int and type(d.product_factor) is int
                ratio = Fraction(
                    _binomial(d.m, d.harmonic) * _binomial(d.n, d.harmonic),
                    _binomial(d.p, d.harmonic) ** 2,
                )
                assert (d.square_factor, d.product_factor) == (ratio.numerator, ratio.denominator)
                assert derive_constant(shift_count, d.m, d.n, d.p, mode) == (
                    ratio.numerator, ratio.denominator,
                )


def test_a_discovered_identity_is_a_named_tuple_of_its_six_fields():
    relation = discover(DiscoveryQuery(3, 7, Mode.DIFFERENCE))[0]
    assert repr(relation) == (
        "DiscoveredIdentity(m=3, n=7, p=5, harmonic=3, square_factor=21, product_factor=25)"
    )
    assert DiscoveredIdentity._fields == (
        "m", "n", "p", "harmonic", "square_factor", "product_factor",
    )
    assert relation == (3, 7, 5, 3, 21, 25) and relation[4:] == (21, 25)
    m, n, p, harmonic, square_factor, product_factor = relation
    assert (m, n, p, harmonic, square_factor, product_factor) == (3, 7, 5, 3, 21, 25)
    with pytest.raises(AttributeError):
        relation.square_factor = 42
    same = DiscoveredIdentity(3, 7, 5, 3, 21, 25)
    assert relation == same and hash(relation) == hash(same)
    assert relation._replace(m=4) == DiscoveredIdentity(4, 7, 5, 3, 21, 25)


def amplitude(shift_count, power, mode):
    # The run holding power, and its binomial C, as single_harmonic's
    # (h0, N*C/2^(power-1)).
    for harmonic, run in _runs(shift_count, power, mode).items():
        if power in run:
            binomial = _binomial(power, harmonic)
            return harmonic, shift_count * Fraction(binomial, 2 ** (power - 1))
    return None


def test_classifier_matches_the_expansion():
    for shift_count in range(1, 13):
        for power in range(0, 301):
            expansion = linearize_closed(shift_count, power)
            for mode in Mode:
                assert amplitude(shift_count, power, mode) == single_harmonic(
                    expansion, mode
                ), (shift_count, power, mode)


def test_derive_constant_matches_the_amplitude_ratio():
    # Every triple of powers 0..15, so m + n != 2p, m >= n and triples
    # that do not qualify are all covered; the ratio keeps its power of two.
    powers = range(16)
    for shift_count in range(1, 9):
        for mode in Mode:
            single = {
                k: single_harmonic(linearize_closed(shift_count, k), mode) for k in powers
            }
            for m in powers:
                for n in powers:
                    for p in powers:
                        triple = (single[m], single[n], single[p])
                        expected = None
                        if None not in triple and len({h for h, _ in triple}) == 1:
                            ratio = triple[0][1] * triple[1][1] / triple[2][1] ** 2
                            expected = (ratio.numerator, ratio.denominator)
                        assert derive_constant(shift_count, m, n, p, mode) == expected, (
                            shift_count, m, n, p, mode,
                        )


def pairwise_definition(shift_count, max_power, mode):
    # derive_constant is None once n >= 2*lcm(2, N), which is at most 4N
    # (test_classifier_matches_the_expansion), so no larger n is tried.
    top = min(max_power, 4 * shift_count + 3)
    found = []
    for m in range(1, top + 1):
        for n in range(m + 2, top + 1, 2):
            p = (m + n) // 2
            derived = derive_constant(shift_count, m, n, p, mode)
            if derived is not None:
                harmonic = amplitude(shift_count, p, mode)[0]
                ratio = Fraction(
                    _binomial(m, harmonic) * _binomial(n, harmonic), _binomial(p, harmonic) ** 2
                )
                assert derived == (ratio.numerator, ratio.denominator)
                found.append(DiscoveredIdentity(m, n, p, harmonic, *derived))
    return sorted(found, key=lambda d: (d.p, d.m, d.n))


def test_discover_matches_its_pairwise_definition():
    for shift_count in range(1, 25):
        for mode in Mode:
            for max_power in (1, 2 * shift_count - 1, 4 * shift_count + 3, 10**6):
                assert discover(DiscoveryQuery(shift_count, max_power, mode)) == (
                    pairwise_definition(shift_count, max_power, mode)
                ), (shift_count, max_power, mode)


def test_a_query_over_the_relation_budget_is_refused():
    # A run of s powers holds (s - 1)^2 // 4 relations: N = 402 has one run
    # of 201 powers in difference mode, exactly the budget, and N = 404 one
    # of 202, with 10,100.
    assert RELATION_BUDGET == 10_000
    assert len(discover(DiscoveryQuery(402, 10**12, Mode.DIFFERENCE))) == RELATION_BUDGET
    start = time.perf_counter()
    for shift_count in (404, 1000, 3000):
        count = (shift_count // 2 - 1) ** 2 // 4
        with pytest.raises(ValueError, match=f"has {count} relations, over the budget"):
            discover(DiscoveryQuery(shift_count, 10**12, Mode.DIFFERENCE))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_a_relation_past_the_power_budget_is_refused():
    # f_9996, f_9998, f_10000 make one relation at the budget; one more
    # power, or a longer run, reaches past it.  A run of two powers holds
    # no relation, so its powers are not checked.  A run of more than
    # sys.maxsize powers is refused too, before anything counts it.
    assert POWER_BUDGET == 10_000
    assert len(discover(DiscoveryQuery(9996, 10_000, Mode.DIFFERENCE))) == 1
    assert discover(DiscoveryQuery(9999, 10_002, Mode.DIFFERENCE)) == []
    for shift_count, max_power, top in (
        (9997, 10_001, 10_001),
        (10**30 + 1, 10**30 + 401, 10**30 + 401),
        (10**20 + 1, 10**100, 3 * 10**20 + 1),
    ):
        with pytest.raises(ValueError, match=f"power {top} is over the budget of 10000"):
            discover(DiscoveryQuery(shift_count, max_power, Mode.POINTWISE))


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
