"""Exact polynomial arithmetic over the rationals.

A polynomial in one variable is stored sparsely as a map from degree to a
nonzero ``fractions.Fraction`` coefficient.  Two interpretations share this
carrier:

* probability generating functions over vote counts, where the coefficient
  of x^j is the probability of casting exactly j votes, and
* influence polynomials, where the coefficient of x^Z measures how undecided
  a player still is against a coalition that already holds Z votes.

Every operation is exact; nothing in this module touches floating point, so
polynomial identities can be asserted with ``==``.

Products go through one integer engine, ``int_product``: each factor is
scaled to integer numerators over its least common denominator
(``RationalPoly.scaled``), the numerators are convolved, and the result is
divided once by the product of the denominators
(``RationalPoly.from_integers``).  The engine cuts the product at a given
degree, so callers that only need the low coefficients, such as the losing
tails below a quota, never build the rest.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, Union

Coefficient = Union[Fraction, int, str]

_ZERO = Fraction(0)


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

    Zero coefficients are never stored; the zero polynomial is the empty
    map.  Instances are value objects: hashable, comparable coefficient by
    coefficient, and safe to share between threads.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Coefficient] | None = None) -> None:
        cleaned: dict[int, Fraction] = {}
        if coeffs:
            for degree, raw in coeffs.items():
                if not isinstance(degree, int) or degree < 0:
                    raise ValueError(
                        f"degrees must be non-negative integers, got {degree!r}"
                    )
                value = _exact(raw)
                if value:
                    cleaned[degree] = value
        self._coeffs = cleaned

    def coeff(self, degree: int) -> Fraction:
        """Coefficient of x^degree; zero if the term is absent."""
        return self._coeffs.get(degree, _ZERO)

    @property
    def degree(self) -> int:
        """Largest stored degree (0 for the zero polynomial)."""
        return max(self._coeffs) if self._coeffs else 0

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Yield (degree, coefficient) pairs in increasing degree order."""
        for degree in sorted(self._coeffs):
            yield degree, self._coeffs[degree]

    def support(self) -> tuple[int, ...]:
        """Degrees that carry a nonzero coefficient, ascending."""
        return tuple(sorted(self._coeffs))

    def extract(self, lo: int, hi: int | None = None) -> RationalPoly:
        """Keep exactly the terms with lo <= degree <= hi.

        ``hi=None`` means unbounded above: everything from ``lo`` up.
        """
        if lo < 0:
            raise ValueError(f"extraction range must start at 0 or above, got {lo}")
        if hi is not None and hi < lo:
            raise ValueError(f"invalid extraction range [{lo}, {hi}]")
        return RationalPoly(
            {d: c for d, c in self._coeffs.items() if lo <= d and (hi is None or d <= hi)}
        )

    def scaled(self) -> tuple[int, dict[int, int]]:
        """The least common denominator of the coefficients, and the integer
        numerators over it, keyed by degree."""
        den = lcm(*(c.denominator for c in self._coeffs.values()))
        return den, {d: c.numerator * (den // c.denominator) for d, c in self._coeffs.items()}

    @classmethod
    def from_integers(cls, numerators: Mapping[int, int], den: int) -> RationalPoly:
        """The polynomial with coefficient numerators[d] / den at each degree d;
        the inverse of ``scaled``."""
        poly = cls.__new__(cls)
        poly._coeffs = {d: Fraction(c, den) for d, c in numerators.items() if c}
        return poly

    def dot(self, other: RationalPoly) -> Fraction:
        """Sum of products of coefficients at common degrees."""
        a, b = self._coeffs, other._coeffs
        if len(b) < len(a):
            a, b = b, a
        total = _ZERO
        for degree, value in a.items():
            match = b.get(degree)
            if match is not None:
                total += value * match
        return total

    def __call__(self, point: Coefficient) -> Fraction:
        """Evaluate exactly at ``point``."""
        x = _exact(point)
        total = _ZERO
        for degree, value in self._coeffs.items():
            total += value * x**degree
        return total

    def __add__(self, other: RationalPoly) -> RationalPoly:
        if not isinstance(other, RationalPoly):
            return NotImplemented
        merged = dict(self._coeffs)
        for degree, value in other._coeffs.items():
            merged[degree] = merged.get(degree, _ZERO) + value
        return RationalPoly(merged)

    def __mul__(self, other: RationalPoly | Coefficient) -> RationalPoly:
        if isinstance(other, RationalPoly):
            den_a, a = self.scaled()
            den_b, b = other.scaled()
            top = self.degree + other.degree
            return RationalPoly.from_integers(int_product(a, b, top), den_a * den_b)
        if isinstance(other, (int, str, Fraction)):
            scalar = Fraction(other)
            if not scalar:
                return ZERO
            return RationalPoly({d: c * scalar for d, c in self._coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> RationalPoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        if not exponent:
            return ONE
        # Square up to the lowest set bit and start the result there, so no
        # product is spent multiplying by ONE.
        base = self
        while not exponent & 1:
            base = base * base
            exponent >>= 1
        result = base
        exponent >>= 1
        while exponent:
            base = base * base
            if exponent & 1:
                result = result * base
            exponent >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RationalPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{d}: {c}" for d, c in self.items())
        return f"RationalPoly({{{inner}}})"

    def __str__(self) -> str:
        if not self._coeffs:
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
