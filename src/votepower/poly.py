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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Union

Coefficient = Union[Fraction, int, str]

_ZERO = Fraction(0)


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
            if not self._coeffs or not other._coeffs:
                return ZERO
            # Vote-structure products fill in nearly every degree, so a dense
            # accumulator up to the product degree beats a dict here.
            acc = [_ZERO] * (self.degree + other.degree + 1)
            for da, ca in self._coeffs.items():
                for db, cb in other._coeffs.items():
                    acc[da + db] += ca * cb
            return RationalPoly({d: c for d, c in enumerate(acc) if c})
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
