"""Parameter sweeps, closed-form references, and finite-difference
sensitivities.

A sweep re-evaluates a game over a 1-D or 2-D grid of structure parameters
(a player's p or L) and collects the power reports, ready for CSV emission.
Sensitivities are central finite differences of the normalized powers,
computed with exact interior arithmetic and reported as decimals.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod
from typing import Iterable, Mapping, Sequence

from .errors import CapacityError, DegenerateGameError, InputError, as_count
from .model import (
    HALF,
    PARAMETERS,
    Game,
    ProbabilityLike,
    VoteDistribution,
    as_probability,
    format_value,
)
from .power import SERIES_CAP, PowerReport, generalized_banzhaf, influence_polynomial


@dataclass(frozen=True)
class ParamRef:
    """Reference to one tunable field (p or L) of one player's structure."""

    player: str
    field: str

    def __post_init__(self) -> None:
        if self.field not in PARAMETERS:
            expected = " or ".join(map(repr, PARAMETERS))
            raise InputError(f"unknown parameter field {self.field!r} (expected {expected})")

    @property
    def key(self) -> str:
        return f"{self.player}.{self.field}"

    @classmethod
    def parse(cls, text: str) -> ParamRef:
        player, sep, field = text.rpartition(".")
        if not sep or not player:
            raise InputError(
                f"parameter must look like PLAYER.p or PLAYER.L, got {text!r}"
            )
        return cls(player, field)

    def check(self, game: Game) -> None:
        spec = game.player(self.player).spec
        if self.field not in spec.parameters():
            raise InputError(
                f"player {self.player!r} has structure kind {spec.kind!r}, "
                f"which has no parameter {self.field!r}"
            )

    def current(self, game: Game) -> Fraction:
        self.check(game)
        return getattr(game.player(self.player).spec, self.field)


def grid_values(
    start: ProbabilityLike, stop: ProbabilityLike, steps: int
) -> tuple[Fraction, ...]:
    """Inclusive grid of ``steps`` exactly spaced values from start to stop.

    Each grid point is one CSV row, so more than ``SERIES_CAP`` steps raise
    CapacityError before any value is built.  With start = a/b and
    stop = c/d, value k is (a*d*(steps - 1) + k*(c*b - a*d)) / (b*d*(steps - 1)),
    one reduction per value.
    """
    lo = as_probability(start, "grid start")
    hi = as_probability(stop, "grid stop")
    as_count(steps, "steps")
    if steps > SERIES_CAP:
        raise CapacityError(f"a grid of {steps} steps exceeds the series cap of {SERIES_CAP}")
    if steps == 1:
        return (lo,)
    a, b = lo.numerator, lo.denominator
    c, d = hi.numerator, hi.denominator
    base, rise, den = a * d * (steps - 1), c * b - a * d, b * d * (steps - 1)
    return tuple(Fraction(base + k * rise, den) for k in range(steps))


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter and its grid values."""

    param: ParamRef
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class SweepGrid:
    """Power reports over a parameter grid, row-major in axis order.

    Degenerate grid points (all influences zero) hold ``None``.
    """

    axes: tuple[SweepAxis, ...]
    player_names: tuple[str, ...]
    cells: tuple[PowerReport | None, ...]

    def cell(self, *indices: int) -> PowerReport | None:
        if len(indices) != len(self.axes):
            raise InputError(f"expected {len(self.axes)} indices, got {len(indices)}")
        flat = 0
        for axis, i in zip(self.axes, indices):
            if i not in range(len(axis.values)):
                raise InputError(f"index {i!r} is outside axis {axis.param.key}")
            flat = flat * len(axis.values) + i
        return self.cells[flat]

    def points(self):
        """Yield (parameter values tuple, cell) pairs in emission order."""
        grids = [axis.values for axis in self.axes]
        for values, cell in zip(product(*grids), self.cells):
            yield values, cell

    def to_csv(self, precision: int = 6, exact: bool = False) -> str:
        """Render the grid as CSV: axis columns, then one power column per
        player.  Degenerate cells leave the power fields empty."""
        header = [f"{axis.param.field}_{axis.param.player}" for axis in self.axes]
        header += [f"beta_{name}" for name in self.player_names]
        rows = [header]
        for values, cell in self.points():
            row = [format_value(v, precision, exact) for v in values]
            if cell is None:
                row += [""] * len(self.player_names)
            else:
                row += [
                    format_value(cell.powers[name], precision, exact)
                    for name in self.player_names
                ]
            rows.append(row)
        return csv_text(rows)


def csv_text(rows: Iterable[Sequence]) -> str:
    """The rows as CSV text, one line each."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _check_distinct(params: Sequence[ParamRef]) -> None:
    """Raise InputError if a parameter is named twice: the later value would
    silently replace the earlier one at every point."""
    seen = set()
    for ref in params:
        if ref.key in seen:
            raise InputError(f"parameter {ref.key} is given more than once")
        seen.add(ref.key)


def sweep(game: Game, axes: Sequence[SweepAxis], strict: bool = False) -> SweepGrid:
    """Evaluate generalized power at every grid point.

    Each point gets a fresh game with the axis values substituted.
    Degenerate points become empty cells rather than errors.  A repeated
    parameter raises InputError, and a grid of more than ``SERIES_CAP``
    points (one CSV row each) CapacityError, before any point is evaluated.
    """
    axes = tuple(axes)
    if not 1 <= len(axes) <= 2:
        raise InputError(f"sweeps support 1 or 2 axes, got {len(axes)}")
    _check_distinct([axis.param for axis in axes])
    points = prod(len(axis.values) for axis in axes)
    if points > SERIES_CAP:
        raise CapacityError(
            f"a sweep of {points} grid points exceeds the series cap of {SERIES_CAP}"
        )
    for axis in axes:
        axis.param.check(game)
        for value in axis.values:
            if not 0 <= value <= 1:
                raise InputError(f"{axis.param.key}: grid value {value} outside [0, 1]")

    cells = []
    fields = [(axis.param.player, axis.param.field) for axis in axes]
    for point in product(*(axis.values for axis in axes)):
        g = game.with_parameters(dict(zip(fields, point)))
        try:
            cells.append(generalized_banzhaf(g, strict=strict))
        except DegenerateGameError:
            cells.append(None)
    return SweepGrid(axes, game.names(), tuple(cells))


CLOSED_FORMS = ("eq25", "eq26", "eq27", "eq28")


def closed_form_beta(
    which: str, p: ProbabilityLike
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Closed-form power vectors for the four single-parameter presets
    paper-eq25 through paper-eq28.

    In each, one player of the [6; 4, 3, 2, 1] game votes all-or-nothing
    with probability p (A, B, C, or D respectively) while the rest vote
    fifty-fifty.  Returns exact powers in player order (A, B, C, D); used as
    an independent reference for the sweep engine.
    """
    p = as_probability(p, "p")
    m = min(p, 1 - p)
    if which == "eq25":
        delta = 3 + p + 5 * m
        return (5 * m / delta, (1 + p) / delta, (1 + p) / delta, (1 - p) / delta)
    if which == "eq26":
        delta = 4 + p + 3 * m
        return ((2 + p) / delta, 3 * m / delta, (2 - p) / delta, p / delta)
    if which == "eq27":
        delta = 4 + p + 3 * m
        return ((2 + p) / delta, (2 - p) / delta, 3 * m / delta, p / delta)
    if which == "eq28":
        delta = 5 + p + m
        return ((3 - p) / delta, (1 + p) / delta, (1 + p) / delta, m / delta)
    raise InputError(f"unknown closed form {which!r} (expected one of {CLOSED_FORMS})")


@dataclass(frozen=True)
class SensitivityReport:
    """Central-difference partials of each power against each parameter."""

    point: tuple[tuple[str, Fraction], ...]  # (parameter key, value)
    step: Fraction
    partials: tuple[tuple[str, str, float], ...]  # (player, parameter key, slope)

    def partial(self, player: str, param_key: str) -> float:
        for name, key, value in self.partials:
            if name == player and key == param_key:
                return value
        raise InputError(f"no partial for power {player!r} and parameter {param_key!r}")


def sensitivity(
    game: Game,
    params: Sequence[ParamRef],
    point: Mapping[str, ProbabilityLike] | None = None,
    h: ProbabilityLike = Fraction(1, 1000),
    strict: bool = False,
) -> SensitivityReport:
    """Central finite differences of every player's power at one point.

    ``point`` maps parameter keys ("Dem.p") to values; parameters missing
    from it keep the game's current values.  The interior arithmetic is
    exact; only the reported slopes are decimals.  Each parameter may be
    named once.  Steps may not leave [0, 1], and an all-or-nothing p may not
    be differenced across its kink at p = 1/2.
    """
    params = tuple(params)
    if not params:
        raise InputError("at least one parameter is required")
    _check_distinct(params)
    h = as_probability(h, "h")
    if h == 0:
        raise InputError("h must be positive")

    values: dict[str, Fraction] = {}
    for ref in params:
        values[ref.key] = ref.current(game)
    if point:
        for key, raw in point.items():
            if key not in values:
                raise InputError(f"point names {key!r}, which is not a swept parameter")
            values[key] = as_probability(raw, key)

    base = game.with_parameters({(ref.player, ref.field): values[ref.key] for ref in params})

    for ref in params:
        x = values[ref.key]
        if x - h < 0 or x + h > 1:
            raise InputError(f"{ref.key}: step {h} leaves [0, 1] from {x}")
        if base.player(ref.player).spec.kind == "bernoulli" and abs(x - HALF) < h:
            raise InputError(
                f"{ref.key}: the central difference at {x} straddles the kink "
                "at p = 1/2; evaluate that point directly instead"
            )

    partials = []
    for ref in params:
        x = values[ref.key]
        field = (ref.player, ref.field)
        upper = generalized_banzhaf(base.with_parameters({field: x + h}), strict=strict)
        lower = generalized_banzhaf(base.with_parameters({field: x - h}), strict=strict)
        for name in base.names():
            slope = (upper.powers[name] - lower.powers[name]) / (2 * h)
            partials.append((name, ref.key, float(slope)))
    return SensitivityReport(
        tuple((ref.key, values[ref.key]) for ref in params), h, tuple(partials)
    )


def structure_series(
    dist: VoteDistribution, quota: int, strict: bool = False
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Dense coefficient series of a structure and its influence polynomial.

    Returns (pmf coefficients for 0..max_votes, influence coefficients for
    0..quota-1), ready to plot or dump as CSV.  Raises CapacityError when
    either would run past ``SERIES_CAP`` degrees, before building either.
    """
    as_count(quota, "quota")
    length = max(dist.max_votes + 1, quota)
    if length > SERIES_CAP:
        raise CapacityError(
            f"a series of {length} degrees exceeds the series cap of {SERIES_CAP}"
        )
    ipoly = influence_polynomial(dist, quota, strict=strict)
    pmf = tuple(dist.pmf.coeff(j) for j in range(dist.max_votes + 1))
    infl = tuple(ipoly.coeff(z) for z in range(quota))
    return pmf, infl
