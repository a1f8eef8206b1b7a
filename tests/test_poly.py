"""Exact polynomials: products, extraction, the canonical representation."""

import random
from fractions import Fraction

import pytest

from conftest import enum_product, random_poly
import votepower.poly
from votepower.poly import ONE, ZERO, RationalPoly, int_product

F = Fraction
HALF = F(1, 2)


def half_structure(votes: int) -> RationalPoly:
    return RationalPoly({0: HALF, votes: HALF})


class TestMul:
    def test_three_fifty_fifty_structures(self):
        # (1/2 + x^3/2)(1/2 + x^2/2)(1/2 + x/2) spreads 1/8 over degrees
        # 0..6 with weight 2 at degree 3.
        product = half_structure(3) * half_structure(2) * half_structure(1)
        eighth = F(1, 8)
        assert product == RationalPoly(
            {0: eighth, 1: eighth, 2: eighth, 3: 2 * eighth, 4: eighth, 5: eighth, 6: eighth}
        )

    def test_multiplicative_identity(self):
        rng = random.Random(11)
        for _ in range(20):
            p = random_poly(rng)
            assert p * ONE == p
            assert ONE * p == p

    def test_zero_annihilates(self):
        p = half_structure(4)
        assert p * ZERO == ZERO
        assert ZERO * p == ZERO

    def test_matches_tuple_enumeration(self):
        # Independent oracle: enumerate all support pairs and sum the
        # probability products per total degree.
        a = RationalPoly({0: HALF, 4: HALF})  # all-or-nothing at p = 1/2
        b = half_structure(3)
        assert a * b == enum_product([a, b])

        rng = random.Random(23)
        for _ in range(50):
            p, q = random_poly(rng), random_poly(rng)
            assert p * q == enum_product([p, q])

    def test_commutative_and_associative(self):
        rng = random.Random(37)
        for _ in range(30):
            factors = [random_poly(rng, max_degree=8) for _ in range(rng.randint(2, 6))]
            ordered = ONE
            for f in factors:
                ordered = ordered * f
            reversed_order = ONE
            for f in reversed(factors):
                reversed_order = f * reversed_order
            assert ordered == reversed_order
            if len(factors) >= 3:
                a, b, c = factors[:3]
                assert (a * b) * c == a * (b * c)

    def test_degree_adds(self):
        rng = random.Random(41)
        for _ in range(20):
            p, q = random_poly(rng), random_poly(rng)
            if p and q:
                assert (p * q).degree == p.degree + q.degree

    def test_only_polynomials_multiply(self):
        p = half_structure(4)
        for scalar in (3, F(1, 3), "1/2"):
            with pytest.raises(TypeError):
                p * scalar
            with pytest.raises(TypeError):
                scalar * p
        for removed in ("__add__", "dot", "__call__", "scaled"):
            assert not hasattr(p, removed)

    def test_product_by_one_is_a_new_dict(self):
        # top is at or above the other factor's degree, so nothing is cut.
        other = {0: -3, 2: 5, 7: 2**70}
        for a, b in (({0: 1}, other), (other, {0: 1})):
            product = int_product(a, b, 7)
            assert product == other and product is not other
            product[0] = 11
            assert other == {0: -3, 2: 5, 7: 2**70}

    def test_pow_matches_repeated_multiplication(self):
        p = RationalPoly({0: F(1, 4), 1: F(3, 4)})
        by_hand = ONE
        for k in range(41):
            assert p**k == by_hand, k
            by_hand = by_hand * p
        with pytest.raises(ValueError):
            p ** (-1)

    def test_pow_squares_and_multiplies(self, monkeypatch):
        # k costs bit_length - 1 squarings and popcount - 1 multiplies; the
        # first multiply, by ONE, is not counted.
        engine, calls = votepower.poly.int_product, []

        def counted(a, b, top):
            if a != {0: 1} and b != {0: 1}:
                calls.append(top)
            return engine(a, b, top)

        monkeypatch.setattr(votepower.poly, "int_product", counted)
        p = RationalPoly({0: F(1, 4), 1: F(3, 4)})
        for k in range(1, 65):
            calls.clear()
            p**k
            assert len(calls) == (k.bit_length() - 1) + (k.bit_count() - 1), k


class TestExtract:
    def test_losing_range(self):
        # Truncating the three-player product below a quota of 6 drops only
        # the degree-6 term.
        product = half_structure(3) * half_structure(2) * half_structure(1)
        eighth = F(1, 8)
        assert product.extract(0, 5) == RationalPoly(
            {0: eighth, 1: eighth, 2: eighth, 3: 2 * eighth, 4: eighth, 5: eighth}
        )

    def test_full_range_is_identity(self):
        rng = random.Random(53)
        for _ in range(20):
            p = random_poly(rng)
            assert p.extract(0, p.degree) == p
            assert p.extract(0) == p

    def test_unbounded_above(self):
        winning = RationalPoly({9: F(1, 16), 8: F(1, 16), 7: F(2, 16), 6: F(1, 16)})
        assert winning.extract(6) == winning
        assert winning.extract(10) == ZERO

    def test_invalid_range(self):
        p = half_structure(4)
        with pytest.raises(ValueError):
            p.extract(3, 2)
        with pytest.raises(ValueError):
            p.extract(-1, 2)

    def test_adjacent_ranges_add_up(self):
        rng = random.Random(59)
        for _ in range(30):
            p = random_poly(rng, max_degree=12)
            a, b, c = sorted(rng.sample(range(13), 3))
            low, high = p.extract(a, b), p.extract(b + 1, c)
            assert not set(low.support()) & set(high.support())
            assert dict(low.items()) | dict(high.items()) == dict(p.extract(a, c).items())

    def test_decisive_probability(self):
        # A fifty-fifty 4-vote player against the quota-6 losing tail of the
        # other three players.
        tail = (half_structure(3) * half_structure(2) * half_structure(1)).extract(0, 5)
        undecided = RationalPoly({2: HALF, 3: HALF, 4: HALF, 5: HALF})
        assert sum(c * tail.coeff(z) for z, c in undecided.items()) == F(5, 16)


def value(p: RationalPoly, x: Fraction) -> Fraction:
    return sum((c * x**d for d, c in p.items()), F(0))


class TestCoefficients:
    def test_probabilities_sum_to_one(self):
        for pmf in (
            half_structure(4),
            half_structure(3) * half_structure(2) * half_structure(1),
            RationalPoly({0: F(1, 4), 1: F(3, 4)}) ** 5,
        ):
            assert sum(c for _, c in pmf.items()) == 1
            assert sum(pmf.numerators.values()) == pmf.den

    def test_constant_term(self):
        p = RationalPoly({0: F(3, 7), 2: F(4, 7)})
        assert p.coeff(0) == F(3, 7)
        assert p.coeff(1) == 0
        assert p.coeff(5) == 0
        assert ZERO.coeff(0) == 0

    def test_values_multiply(self):
        rng = random.Random(67)
        for _ in range(30):
            p, q = random_poly(rng), random_poly(rng)
            x = F(rng.randint(-5, 5), rng.randint(1, 5))
            assert value(p * q, x) == value(p, x) * value(q, x)


class TestRepresentation:
    def test_zero_coefficients_are_dropped(self):
        p = RationalPoly({0: 0, 3: F(1, 2), 5: F(0)})
        assert p.support() == (3,)
        assert p == RationalPoly({3: F(1, 2)})

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            RationalPoly({-1: 1})

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            RationalPoly({0: 0.5})

    def test_string_coefficients_parse_exactly(self):
        assert RationalPoly({0: "0.94"}) == RationalPoly({0: F(47, 50)})

    def test_equality_and_hash(self):
        p = RationalPoly({0: HALF, 4: HALF})
        q = RationalPoly({4: HALF, 0: HALF})
        assert p == q
        assert hash(p) == hash(q)
        assert p != RationalPoly({0: HALF})

    def test_zero_poly_degree_and_bool(self):
        assert ZERO.degree == 0
        assert not ZERO
        assert ONE

    def test_str(self):
        assert str(RationalPoly({0: HALF, 1: F(1, 3), 4: HALF})) == "1/2 + 1/3*x + 1/2*x^4"
        assert str(ZERO) == "0"


class TestCanonicalForm:
    def test_common_factors_are_reduced(self):
        numerators = {0: 3, 2: -5, 7: 4}
        base = RationalPoly.from_integers(numerators, 10)
        for k in (2, 3, 12, 2**64):
            scaled = RationalPoly.from_integers({d: k * c for d, c in numerators.items()}, k * 10)
            assert scaled == base and hash(scaled) == hash(base)
            assert (scaled.den, scaled.numerators) == (10, numerators)

    def test_zero_polynomial(self):
        built = [
            ZERO,
            RationalPoly(),
            RationalPoly({0: 0, 5: F(0)}),
            RationalPoly.from_integers({0: 0, 3: 0}, 7),
            half_structure(4) * ZERO,
            half_structure(4).extract(1, 3),
        ]
        assert all((p.den, p.numerators) == (1, {}) for p in built)

    def test_operations_reduce_again(self):
        p = RationalPoly({0: HALF, 1: F(1, 6), 2: F(1, 3)})
        assert p.den == 6
        assert p.extract(0, 0).den == 2
        assert p.extract(1, 1).den == 6
        for factor, den, numerators in (
            (RationalPoly({0: 3}), 2, {0: 3, 1: 1, 2: 2}),
            (RationalPoly({0: "6/7"}), 7, {0: 3, 1: 1, 2: 2}),
            (RationalPoly({1: 6}), 1, {1: 3, 2: 1, 3: 2}),
        ):
            product = p * factor
            assert (product.den, product.numerators) == (den, numerators)

    def test_denominator_must_be_positive(self):
        for den in (0, -2):
            with pytest.raises(ValueError, match="positive integer"):
                RationalPoly.from_integers({0: 1}, den)
