"""Shared generators for randomized (but seeded) test instances, and
independent references for the polynomial and product code."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from votepower.model import VoteDistribution, pmf_structure
from votepower.poly import RationalPoly


def random_poly(rng: random.Random, max_degree: int = 8, max_terms: int = 5) -> RationalPoly:
    """Random sparse polynomial with small rational coefficients."""
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.randint(0, max_degree)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return RationalPoly(coeffs)


def random_distribution(
    rng: random.Random, max_support: int = 5, max_votes: int = 8
) -> VoteDistribution:
    """Random normalized vote distribution with exact probabilities."""
    size = rng.randint(1, max_support)
    votes = rng.sample(range(max_votes + 1), size)
    weights = [rng.randint(1, 9) for _ in votes]
    total = sum(weights)
    return pmf_structure([(v, Fraction(w, total)) for v, w in zip(votes, weights)])


def enum_product(polys) -> RationalPoly:
    """Oracle: expand a product by enumerating all term combinations.

    Independent of RationalPoly multiplication; sums the coefficient
    products per total degree.
    """
    coeffs: dict[int, Fraction] = {}
    for combo in product(*(list(p.items()) for p in polys)):
        degree = sum(d for d, _ in combo)
        value = Fraction(1)
        for _, c in combo:
            value *= c
        coeffs[degree] = coeffs.get(degree, Fraction(0)) + value
    return RationalPoly(coeffs)


def mixture(weight: Fraction, a: RationalPoly, b: RationalPoly) -> RationalPoly:
    """weight * a + (1 - weight) * b, summed coefficient by coefficient."""
    degrees = set(a.support()) | set(b.support())
    return RationalPoly({d: weight * a.coeff(d) + (1 - weight) * b.coeff(d) for d in degrees})


# Reference polynomial arithmetic on plain {degree: Fraction} dicts, zero
# terms dropped; it shares no code with RationalPoly.


def ref_clean(coeffs: dict) -> dict[int, Fraction]:
    return {d: Fraction(c) for d, c in coeffs.items() if c}


def ref_mul(a: dict, b: dict) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return ref_clean(out)


def ref_pow(a: dict, exponent: int) -> dict[int, Fraction]:
    out = {0: Fraction(1)}
    for _ in range(exponent):
        out = ref_mul(out, a)
    return out


def ref_extract(a: dict, lo: int, hi: int | None) -> dict[int, Fraction]:
    return {d: c for d, c in a.items() if lo <= d and (hi is None or d <= hi)}


def ref_str(a: dict) -> str:
    terms = []
    for d, c in sorted(a.items()):
        terms.append(str(c) if d == 0 else f"{c}*x" if d == 1 else f"{c}*x^{d}")
    return " + ".join(terms) or "0"
