"""Exact polynomial arithmetic over the rationals.

A polynomial in one variable is stored sparsely as integer numerators over
one common denominator: a map from degree to a nonzero integer, and the
least common denominator of the coefficients.  Two interpretations share
this carrier:

* probability generating functions over vote counts, where the coefficient
  of x^j is the probability of casting exactly j votes, and
* influence polynomials, where the coefficient of x^Z measures how undecided
  a player still is against a coalition that already holds Z votes.

Every operation is exact; nothing in this module touches floating point, so
polynomial identities can be asserted with ``==``.  ``Fraction``
coefficients are formed only when a caller reads them.

Products go through one integer engine, ``int_product``: the numerators are
convolved and the result is put over the product of the denominators.  The
engine cuts the product at a given degree, so callers that only need the
low coefficients, such as the losing tails below a quota, never build the
rest.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, Union

from .errors import as_count

Coefficient = Union[Fraction, int, str]


def int_product(a: Mapping[int, int], b: Mapping[int, int], top: int) -> dict[int, int]:
    """Exact product of two integer polynomials, cut above degree ``top``.

    Both inputs map degree to a nonzero integer coefficient, of either sign;
    terms above ``top`` are ignored.  The result is in the same form.

    Sparse inputs, whose term pairs number no more than the output has
    degrees, are multiplied term by term.  Otherwise both are evaluated at
    x = 2^k, with k wide enough that no product coefficient overflows its
    slot (Kronecker substitution), multiplied as one integer, and the
    coefficients are read back from the product's bytes.
    """
    a, b = _cut(a, top), _cut(b, top)
    if not a or not b:
        return {}
    length = min(max(a) + max(b), top) + 1
    if len(a) * len(b) <= length:
        out: dict[int, int] = {}
        for da, ca in a.items():
            for db, cb in b.items():
                if da + db <= top:
                    out[da + db] = out.get(da + db, 0) + ca * cb
        return {d: c for d, c in out.items() if c}

    def largest(terms: Mapping[int, int]) -> int:
        return max(max(terms.values()), -min(terms.values()))

    # Each slot holds a coefficient plus an offset of half the slot, so
    # signed coefficients read back as unsigned bytes.
    bound = min(len(a), len(b)) * largest(a) * largest(b)
    width = bound.bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * length, "little")
    packed = _evaluate(a, width) * _evaluate(b, width) + offset
    data = (packed & ((1 << (8 * width * length)) - 1)).to_bytes(width * length, "little")
    coeffs = (
        int.from_bytes(data[i:i + width], "little") - half for i in range(0, len(data), width)
    )
    return {d: c for d, c in enumerate(coeffs) if c}


def _cut(terms: Mapping[int, int], top: int) -> Mapping[int, int]:
    """The terms of degree at most ``top``."""
    if max(terms, default=0) <= top:
        return terms
    return {d: c for d, c in terms.items() if d <= top}


def _evaluate(terms: Mapping[int, int], width: int) -> int:
    """The polynomial's value at x = 2^(8 * width), for coefficients that fit
    in ``width`` bytes."""
    length = max(terms) + 1

    def pack(magnitudes: Mapping[int, int]) -> int:
        slots = [bytes(width)] * length
        for d, c in magnitudes.items():
            slots[d] = c.to_bytes(width, "little")
        return int.from_bytes(b"".join(slots), "little")

    if min(terms.values()) > 0:
        return pack(terms)
    return pack({d: c for d, c in terms.items() if c > 0}) - pack(
        {d: -c for d, c in terms.items() if c < 0}
    )


def _exact(value: Coefficient) -> Fraction:
    """Coerce to Fraction, refusing floats (they are already rounded)."""
    if isinstance(value, float):
        raise TypeError(
            f"floats are not exact; pass {value!r} as a Fraction, int, or string"
        )
    return Fraction(value)


class RationalPoly:
    """Immutable sparse polynomial with exact rational coefficients.

    The coefficient of x^d is ``numerators[d] / den``.  Only nonzero
    numerators are stored, and no factor divides ``den`` and all of them, so
    the pair is canonical; the zero polynomial is (1, {}).  Readers share
    both, so nothing may modify them.  Instances are value objects: hashable,
    comparable coefficient by coefficient, and safe to share between threads.
    """

    __slots__ = ("den", "numerators")

    def __init__(self, coeffs: Mapping[int, Coefficient] | None = None) -> None:
        cleaned: dict[int, Fraction] = {}
        if coeffs:
            for degree, raw in coeffs.items():
                as_count(degree, "degree", ValueError, least=0)
                value = _exact(raw)
                if value:
                    cleaned[degree] = value
        # Reduced fractions over their least common denominator are canonical.
        self.den = lcm(*(c.denominator for c in cleaned.values()))
        self.numerators = {
            d: c.numerator * (self.den // c.denominator) for d, c in cleaned.items()
        }

    @classmethod
    def from_integers(cls, numerators: Mapping[int, int], den: int) -> RationalPoly:
        """The polynomial with coefficient numerators[d] / den at each degree d,
        for a positive ``den``.  Zero entries are dropped and one gcd pass
        reduces the pair to its canonical form."""
        as_count(den, "the denominator", ValueError)
        common = gcd(den, *numerators.values())
        poly = cls.__new__(cls)
        poly.den = den // common
        poly.numerators = {d: c // common for d, c in numerators.items() if c}
        return poly

    def coeff(self, degree: int) -> Fraction:
        """Coefficient of x^degree; zero if the term is absent."""
        return Fraction(self.numerators.get(degree, 0), self.den)

    @property
    def degree(self) -> int:
        """Largest stored degree (0 for the zero polynomial)."""
        return max(self.numerators, default=0)

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Yield (degree, coefficient) pairs in increasing degree order."""
        for degree in sorted(self.numerators):
            yield degree, Fraction(self.numerators[degree], self.den)

    def support(self) -> tuple[int, ...]:
        """Degrees that carry a nonzero coefficient, ascending."""
        return tuple(sorted(self.numerators))

    def extract(self, lo: int, hi: int | None = None) -> RationalPoly:
        """Keep exactly the terms with lo <= degree <= hi.

        ``hi=None`` means unbounded above: everything from ``lo`` up.
        """
        if lo < 0:
            raise ValueError(f"extraction range must start at 0 or above, got {lo}")
        if hi is not None and hi < lo:
            raise ValueError(f"invalid extraction range [{lo}, {hi}]")
        kept = {
            d: c for d, c in self.numerators.items() if lo <= d and (hi is None or d <= hi)
        }
        return RationalPoly.from_integers(kept, self.den)

    def __mul__(self, other: RationalPoly) -> RationalPoly:
        if not isinstance(other, RationalPoly):
            return NotImplemented
        top = self.degree + other.degree
        product = int_product(self.numerators, other.numerators, top)
        return RationalPoly.from_integers(product, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> RationalPoly:
        as_count(exponent, "exponent", ValueError, least=0)
        result, base = ONE, self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalPoly):
            return self.den == other.den and self.numerators == other.numerators
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.den, frozenset(self.numerators.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{d}: {c}" for d, c in self.items())
        return f"RationalPoly({{{inner}}})"

    def __str__(self) -> str:
        if not self.numerators:
            return "0"
        parts = []
        for degree, value in self.items():
            if degree == 0:
                parts.append(str(value))
            elif degree == 1:
                parts.append(f"{value}*x")
            else:
                parts.append(f"{value}*x^{degree}")
        return " + ".join(parts)


ZERO = RationalPoly()
ONE = RationalPoly({0: 1})
