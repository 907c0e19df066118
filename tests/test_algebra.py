import random
from fractions import Fraction

from trigident.algebra import VARIABLES, Polynomial

A = Polynomial.variable("a")
B = Polynomial.variable("b")
C = Polynomial.variable("c")
D = Polynomial.variable("d")


def random_polynomial(rng, max_terms=6, max_exponent=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        monomial = tuple(rng.randint(0, max_exponent) for _ in VARIABLES)
        terms[monomial] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Polynomial(terms)


def random_point(rng, allow_zero=True):
    def entry():
        low = -9 if allow_zero else 1
        num = rng.randint(low, 9)
        while not allow_zero and num == 0:
            num = rng.randint(1, 9)
        return Fraction(num, rng.randint(1, 9))

    return tuple(entry() for _ in VARIABLES)


def test_zero_polynomial_has_no_terms():
    assert not Polynomial.zero()
    assert dict(Polynomial.zero().terms) == {}
    assert str(Polynomial.zero()) == "0"
    assert Polynomial({(0, 0, 0, 0): Fraction(0)}) == Polynomial.zero()


def test_constants_and_variables():
    assert Polynomial.constant(Fraction(3, 4)).evaluate((0, 0, 0, 0)) == Fraction(3, 4)
    assert A.evaluate((5, 0, 0, 0)) == 5
    assert str(A) == "a"
    assert str(Polynomial.constant(-2)) == "-2"


def test_sum_of_variables_to_the_sixth_has_28_terms_and_central_coefficient_90():
    p = (A + B + C) ** 6
    assert len(p.terms) == 28
    assert p.terms[(2, 2, 2, 0)] == 90


def test_square_rendering_follows_term_order():
    p = (A + B + C) ** 2
    assert str(p) == "a^2 + 2*a*b + b^2 + 2*a*c + 2*b*c + c^2"


def test_degree_two_bracket_rendering():
    p = 6 * B * C - 6 * A * D
    assert str(p) == "6*b*c - 6*a*d"


def test_rendering_of_fractional_and_unit_coefficients():
    p = A * A - Polynomial.constant(Fraction(1, 2)) * B + Polynomial.constant(7)
    assert str(p) == "a^2 - 1/2*b + 7"


def test_association_order_does_not_change_stored_terms():
    rng = random.Random(20260819)
    for _ in range(50):
        p = random_polynomial(rng)
        q = random_polynomial(rng)
        r = random_polynomial(rng)
        left = (p + q) + r
        right = p + (q + r)
        assert dict(left.terms) == dict(right.terms)
        left = (p * q) * r
        right = p * (q * r)
        assert dict(left.terms) == dict(right.terms)
        assert dict((p * (q + r)).terms) == dict((p * q + p * r).terms)


def test_evaluation_is_a_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(50):
        p = random_polynomial(rng)
        q = random_polynomial(rng)
        point = random_point(rng)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p - q).evaluate(point) == p.evaluate(point) - q.evaluate(point)


def test_pow_rejects_negative_exponent():
    try:
        _ = A ** -1
    except ValueError:
        pass
    else:
        raise AssertionError("negative exponent must raise")


def test_substitute_clear_kills_the_constraint_polynomial():
    constraint = A * D - B * C
    assert constraint.substitute_clear("d", B * C, A) == Polynomial.zero()


def test_substitute_clear_with_absent_variable_returns_same_polynomial():
    p = A * B + C ** 2
    assert p.substitute_clear("d", B * C, A) is p


def test_substitute_clear_matches_exact_evaluation():
    rng = random.Random(13)
    for _ in range(40):
        p = random_polynomial(rng)
        k = p.degree_in("d")
        a, b, c, _ = random_point(rng, allow_zero=False)
        d = b * c / a
        cleared = p.substitute_clear("d", B * C, A)
        assert cleared.degree_in("d") == 0
        assert cleared.evaluate((a, b, c, 0)) == a ** k * p.evaluate((a, b, c, d))


def test_substitute_clear_rejects_replacement_involving_the_variable():
    try:
        (A * D).substitute_clear("d", D, A)
    except ValueError:
        pass
    else:
        raise AssertionError("self-referential substitution must raise")


def test_equality_against_scalars():
    assert Polynomial.constant(5) == 5
    assert A - A == 0
    assert A != 0


# ----------------------------------------------------------------------
# differential check against all-Fraction reference arithmetic
#
# The reference keeps every coefficient a Fraction and drops zeros term by
# term, as the original implementation did; Polynomial stores integral
# coefficients as int and normalizes once per result.  Both must describe
# the same polynomial, term for term.

CONSTANT_MONOMIAL = (0, 0, 0, 0)


def reference_add(left, right):
    merged = dict(left)
    for monomial, coefficient in right.items():
        value = merged.get(monomial, Fraction(0)) + coefficient
        if value:
            merged[monomial] = value
        else:
            merged.pop(monomial, None)
    return merged


def reference_mul(left, right):
    product = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            monomial = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
            value = product.get(monomial, Fraction(0)) + c1 * c2
            if value:
                product[monomial] = value
            else:
                product.pop(monomial, None)
    return product


def reference_substitute_clear(terms, name, numerator, denominator):
    index = VARIABLES.index(name)
    k = max((m[index] for m in terms), default=0)
    if k == 0:
        return dict(terms)
    numerator_powers = [{CONSTANT_MONOMIAL: Fraction(1)}]
    denominator_powers = [{CONSTANT_MONOMIAL: Fraction(1)}]
    for _ in range(k):
        numerator_powers.append(reference_mul(numerator_powers[-1], numerator))
        denominator_powers.append(reference_mul(denominator_powers[-1], denominator))
    result = {}
    for monomial, coefficient in terms.items():
        e = monomial[index]
        stripped = list(monomial)
        stripped[index] = 0
        base = {tuple(stripped): coefficient}
        result = reference_add(
            result, reference_mul(reference_mul(base, numerator_powers[e]), denominator_powers[k - e])
        )
    return result


def mixed_coefficient(rng):
    # Integers, integral Fractions such as 4/2, and small denominators that
    # often cancel to 1 or to zero when terms collide.
    numerator = rng.randint(-6, 6)
    if rng.random() < 0.4:
        return numerator
    return Fraction(numerator, rng.choice((1, 2, 3, 4, 6)))


def mixed_pair(rng, max_terms=8, max_exponent=2, variables=VARIABLES):
    """A Polynomial and its all-Fraction reference term dict."""
    indices = [VARIABLES.index(name) for name in variables]
    raw = []
    for _ in range(rng.randint(0, max_terms)):
        monomial = [0, 0, 0, 0]
        for index in indices:
            monomial[index] = rng.randint(0, max_exponent)
        raw.append((tuple(monomial), mixed_coefficient(rng)))
    reference = {}
    for monomial, coefficient in raw:
        reference = reference_add(reference, {monomial: Fraction(coefficient)})
    return Polynomial(raw), reference


def assert_matches_reference(poly, reference):
    assert dict(poly.terms) == reference
    assert str(poly) == str(Polynomial(reference))
    for coefficient in poly.terms.values():
        assert coefficient != 0
        assert type(coefficient) is int or (
            type(coefficient) is Fraction and coefficient.denominator > 1
        )


def test_integral_scalars_are_stored_as_int():
    assert type(Polynomial.constant(True).terms[CONSTANT_MONOMIAL]) is int
    assert type(Polynomial({(1, 0, 0, 0): Fraction(4, 2)}).terms[(1, 0, 0, 0)]) is int
    assert type(Polynomial.constant(Fraction(3, 4)).terms[CONSTANT_MONOMIAL]) is Fraction
    half = Polynomial.constant(Fraction(1, 2)) * A
    assert_matches_reference(half + half, {(1, 0, 0, 0): Fraction(1)})
    assert_matches_reference(half * 2 - A, {})


def test_arithmetic_matches_fraction_reference():
    rng = random.Random(20261017)
    for _ in range(300):
        p, p_ref = mixed_pair(rng)
        q, q_ref = mixed_pair(rng)
        assert_matches_reference(p, p_ref)
        assert_matches_reference(p + q, reference_add(p_ref, q_ref))
        assert_matches_reference(p * q, reference_mul(p_ref, q_ref))
        assert_matches_reference(p * q - q * p, {})
        assert_matches_reference(p * p, reference_mul(p_ref, p_ref))


def test_products_that_cancel_match_fraction_reference():
    third = Polynomial.constant(Fraction(1, 3))
    p = third * A + Polynomial.constant(Fraction(2, 3)) * B
    q = Polynomial.constant(Fraction(3, 2)) * A - 3 * B
    p_ref = {(1, 0, 0, 0): Fraction(1, 3), (0, 1, 0, 0): Fraction(2, 3)}
    q_ref = {(1, 0, 0, 0): Fraction(3, 2), (0, 1, 0, 0): Fraction(-3)}
    product = p * q
    assert_matches_reference(product, reference_mul(p_ref, q_ref))
    assert (1, 1, 0, 0) not in product.terms
    assert product.terms[(0, 2, 0, 0)] == -2
    assert type(product.terms[(0, 2, 0, 0)]) is int


def test_substitute_clear_matches_fraction_reference():
    rng = random.Random(17)
    for _ in range(200):
        p, p_ref = mixed_pair(rng, max_exponent=3)
        numerator, numerator_ref = mixed_pair(rng, max_terms=3, variables=("a", "b", "c"))
        denominator, denominator_ref = mixed_pair(rng, max_terms=3, variables=("a", "b", "c"))
        cleared = p.substitute_clear("d", numerator, denominator)
        expected = reference_substitute_clear(p_ref, "d", numerator_ref, denominator_ref)
        assert_matches_reference(cleared, expected)
    constraint = A * D - B * C
    assert_matches_reference(constraint.substitute_clear("d", B * C, A), {})


# ----------------------------------------------------------------------
# powers and the packed exponent field
#
# A power of at most three terms is written out by the multinomial theorem,
# a longer one by repeated squaring; both must agree with repeated products.

ALL_MONOMIALS = [(i, j, k, l) for i in range(3) for j in range(3) for k in range(3) for l in range(3)]
# Monomials in a and b alone, so that products of them collide (a^2, a*b, b^2).
COLLIDING_MONOMIALS = [(i, j, 0, 0) for i in range(3) for j in range(3)]


def polynomial_of(rng, term_count, monomials):
    """term_count distinct monomials with nonzero int, Fraction or negative coefficients."""
    terms = {}
    for monomial in rng.sample(monomials, term_count):
        numerator = rng.choice([n for n in range(-7, 8) if n])
        terms[monomial] = numerator if rng.random() < 0.5 else Fraction(numerator, rng.randint(1, 5))
    return Polynomial(terms)


def assert_same_polynomial(p, q):
    assert p == q
    assert dict(p.terms) == dict(q.terms)
    assert hash(p) == hash(q)
    assert str(p) == str(q)
    assert Polynomial(p.terms) == p
    assert hash(Polynomial(p.terms)) == hash(p)
    assert str(Polynomial(p.terms)) == str(p)
    if all(not any(monomial) for monomial in p.terms):
        # A constant equals its scalar, so sets and dicts must treat them as one.
        scalar = p.terms.get((0, 0, 0, 0), 0)
        assert p == scalar and hash(p) == hash(scalar)
        assert scalar in {p} and p in {scalar} and len({p, scalar}) == 1


def test_power_matches_repeated_multiplication():
    rng = random.Random(11)
    for _ in range(20):
        p = random_polynomial(rng, max_terms=3, max_exponent=2)
        expected = Polynomial.constant(1)
        for exponent in range(5):
            assert p ** exponent == expected
            expected = expected * p
    rng = random.Random(20261019)
    for term_count in (0, 1, 2, 3, 4, 5):
        for monomials in (ALL_MONOMIALS, COLLIDING_MONOMIALS):
            for _ in range(4 if term_count <= 3 else 1):
                p = polynomial_of(rng, term_count, monomials)
                expected = Polynomial.constant(1)
                for exponent in range(13):
                    assert_same_polynomial(p ** exponent, expected)
                    expected = expected * p


def test_power_of_colliding_monomials():
    p = A * A + A * B + B * B
    assert str(p ** 2) == "a^4 + 2*a^3*b + 3*a^2*b^2 + 2*a*b^3 + b^4"
    assert_same_polynomial(p ** 9, p ** 4 * p ** 5)
    # Opposite coefficients cancel terms that collide.
    q = A * A - A * B
    assert_same_polynomial(q ** 3, A ** 3 * (A - B) ** 3)


def test_power_of_the_zero_polynomial():
    zero = Polynomial.zero()
    assert_same_polynomial(zero ** 0, Polynomial.constant(1))
    for exponent in (1, 2, 12):
        assert_same_polynomial(zero ** exponent, zero)
    assert_same_polynomial((zero + 3) ** 1, Polynomial.constant(3))
    assert_same_polynomial((zero + Fraction(3, 2)) ** 2, Polynomial.constant(Fraction(9, 4)))


def test_terms_is_a_read_only_view_keyed_by_tuples():
    p = 3 * A * B - Polynomial.constant(Fraction(1, 2))
    assert len(p.terms) == 2
    assert p.terms == {(1, 1, 0, 0): 3, (0, 0, 0, 0): Fraction(-1, 2)}
    assert (1, 1, 0, 0) in p.terms
    for missing in ((1, 1, 1, 0), (1, 1, 0), (-1, 0, 0, 0), (70000, 0, 0, 0), "ab"):
        assert missing not in p.terms
    try:
        p.terms[(1, 0, 0, 0)] = 1
    except TypeError:
        pass
    else:
        raise AssertionError("terms must be read-only")


WIDE = 65535  # the largest exponent that 16 bits hold; the tests below go past it


def raises_value_error(operation):
    try:
        operation()
    except ValueError:
        return True
    return False


def test_a_monomial_must_be_four_non_negative_integers():
    for bad in ((1, 1, 0), (1, 1, 0, 0, 0), (-1, 0, 0, 0), (0.5, 0, 0, 0), "abcd", 7):
        assert raises_value_error(lambda: Polynomial({bad: 1}))
    # Any 4 integers will do, and the view shows them as a tuple.
    assert dict(Polynomial([([1, 0, 0, 2], 3)]).terms) == {(1, 0, 0, 2): 3}


def test_exponents_past_16_bits_stay_in_their_own_variable():
    for index, variable in enumerate((A, B, C, D)):
        at_limit = [0, 0, 0, 0]
        at_limit[index] = WIDE
        at_limit = tuple(at_limit)
        over = tuple(e + (e > 0) for e in at_limit)
        p = Polynomial({at_limit: 1})
        assert dict(p.terms) == {at_limit: 1}
        assert p.degree_in(VARIABLES[index]) == WIDE
        for result in (variable ** WIDE, variable ** (WIDE - 1) * variable, p * 1):
            # Exactly one term, in this variable alone: nothing spilled.
            assert dict(result.terms) == {at_limit: 1}
            assert result == p
        for result in (Polynomial({over: 1}), variable ** (WIDE + 1), p * variable):
            assert dict(result.terms) == {over: 1}
        doubled = tuple(2 * e for e in at_limit)
        assert dict(((variable ** WIDE + 1) ** 2).terms) == {doubled: 1, at_limit: 2, (0, 0, 0, 0): 1}


def test_a_product_past_16_bit_exponents_is_exact():
    # A product's exponents are the sums of its factors', whatever the variables.
    left, right = A ** 40000 * B, C ** (WIDE - 40002) * D
    product = left * right
    assert dict(product.terms) == {(40000, 1, WIDE - 40002, 1): 1}
    assert dict((left * (right * A)).terms) == {(40001, 1, WIDE - 40002, 1): 1}
    assert dict(((A * B) ** 30000 * (C + D) ** 2 * C ** (WIDE - 30001)).terms) == {
        (30000, 30000, WIDE - 29999, 0): 1,
        (30000, 30000, WIDE - 30000, 1): 2,
        (30000, 30000, WIDE - 30001, 2): 1,
    }


def test_terms_that_a_sum_cancels_leave_nothing_behind():
    # A sum whose high powers cancel is the polynomial of the terms left.
    p = A ** 60000 - A ** 60000 + B
    assert dict((p * A ** 10000).terms) == {(10000, 1, 0, 0): 1}
    assert dict((p ** 2 * A ** 40000).terms) == {(40000, 2, 0, 0): 1}
    q = D * (C ** 60000 - C ** 60000 + B)
    assert dict(q.substitute_clear("d", A ** 10000, B).terms) == {(10000, 1, 0, 0): 1}
    r = Polynomial({(30000, 30000, 0, 0): 1})
    assert dict((r * (A ** 60000 - A ** 60000 + C ** 20000)).terms) == {(30000, 30000, 20000, 0): 1}
    # The same operations with exponents past 16 bits.
    assert dict((p * A ** WIDE).terms) == {(WIDE, 1, 0, 0): 1}
    assert dict(((p + A ** 30000) ** 3).terms) == {
        (90000, 0, 0, 0): 1,
        (60000, 1, 0, 0): 3,
        (30000, 2, 0, 0): 3,
        (0, 3, 0, 0): 1,
    }
    assert dict(q.substitute_clear("d", A ** WIDE, B).terms) == {(WIDE, 1, 0, 0): 1}


def typed_terms(poly):
    return {monomial: (type(coefficient), coefficient) for monomial, coefficient in poly.terms.items()}


def test_scaling_matches_the_product_with_a_constant():
    # A scalar factor scales the terms in one pass; the reference multiplies
    # by the constant polynomial.  Fraction terms may turn integral, a zero
    # factor leaves no term, and a bool factor is the number it stands for.
    p = Polynomial({(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): 3, (0, 0, 0, 0): Fraction(2, 3)})
    for scalar in (0, -1, -3, 2, 6, True, False, Fraction(3, 2), Fraction(-4, 1), Fraction(0)):
        expected = typed_terms(p * Polynomial.constant(scalar))
        assert typed_terms(p * scalar) == expected, scalar
        assert typed_terms(scalar * p) == expected, scalar
    assert typed_terms(p * 6) == {(1, 0, 0, 0): (int, 3), (0, 1, 0, 0): (int, 18), (0, 0, 0, 0): (int, 4)}
    assert typed_terms(p * True) == typed_terms(p)
    assert not (p * 0).terms and not (p * False).terms
    try:
        p * 0.5
    except TypeError as exc:
        assert str(exc) == "cannot treat float as a polynomial"
    else:
        raise AssertionError("scaled by a float")


def test_differences_match_adding_the_negation():
    # A difference subtracts in one merge; the reference adds the negation.
    p = Polynomial({(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): 3, (0, 0, 0, 0): Fraction(2, 3)})
    q = Polynomial({(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): 4, (0, 0, 0, 0): Fraction(-1, 3), (0, 0, 1, 0): 5})
    assert typed_terms(p - q) == typed_terms(p + (-q)) == {(0, 1, 0, 0): (int, -1), (0, 0, 0, 0): (int, 1),
                                                           (0, 0, 1, 0): (int, -5)}
    assert typed_terms(q - p) == typed_terms(q + (-p))
    assert typed_terms(p - 3) == typed_terms(p + (-3))
    assert typed_terms(3 - p) == typed_terms(3 + (-p))
    assert typed_terms(p - Fraction(2, 3)) == typed_terms(p + Fraction(-2, 3))
    assert typed_terms(Fraction(2, 3) - p) == typed_terms(Fraction(2, 3) + (-p))
    assert not (p - p).terms
    rng = random.Random(20261020)
    for _ in range(200):
        left, right = random_polynomial(rng), random_polynomial(rng)
        assert typed_terms(left - right) == typed_terms(left + (-right))
        scalar = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
        assert typed_terms(left - scalar) == typed_terms(left + (-scalar))
        assert typed_terms(scalar - left) == typed_terms(scalar + (-left))
