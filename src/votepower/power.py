"""Power engines: the classic index and the generalized index, both built
from generating functions.

``classic_banzhaf`` counts marginal players of an all-or-nothing weighted
game from the counting polynomial prod(1 + x^w_j), whose coefficient of x^z
is the number of coalitions of weight z, and divides each player's factor
back out to count the coalitions of the others.  The generalized index
(``generalized_banzhaf``, and ``influence`` for one player's entry) handles
arbitrary voting structures and reduces exactly to the classic index when
every player votes all-or-nothing with probability one half;
``losing_tail`` and ``influence_polynomial`` expose its two factors.

The route works on integers.  Every product, of the stored numerators of
vote distributions or of the counting polynomial, is one running product
``_chain`` on ``poly.int_product`` cut below the quota: n - 1 products for
one player's losing tail.  The undecided fractions min(v_Z, 1 - v_Z) are one
integer running sum over the player's window; fractions come only at the end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import prod
from typing import Iterator, Mapping, Sequence

from .errors import CapacityError, DegenerateGameError, InputError, as_count
from .model import Game, VoteDistribution
from .poly import RationalPoly, int_product

# Above this many players the classic index stops being desk-scale: with
# distinct large weights no two coalitions share a weight, so the counting
# polynomial keeps up to 2^n terms below the quota.  With distinct 9-digit
# weights and the quota just over half, 20 players took 20 s and a 123 MiB
# peak (Python 3.11, 2-CPU virtual machine); 24 would need over 1.5 GB.
ENUMERATION_CAP = 24

# Above this many degrees a dense coefficient series stops being printable.
SERIES_CAP = 10**6


@dataclass(frozen=True)
class BanzhafReport:
    """Marginality counts and normalized powers, in player order."""

    marginal_counts: tuple[int, ...]
    powers: tuple[Fraction, ...]

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> BanzhafReport:
        """The counts with their powers: each count over the total, or all
        zero if nobody is ever marginal."""
        grand = sum(counts)
        powers = tuple(Fraction(c, grand) if grand else Fraction(0) for c in counts)
        return cls(tuple(counts), powers)


def classic_banzhaf(
    quota: int, weights: Sequence[int], cap: int = ENUMERATION_CAP
) -> BanzhafReport:
    """Count, over all 2^n coalitions, how often each player is marginal.

    A player is marginal for a coalition when entering or leaving it changes
    whether the coalition meets the quota.  Each such swing pairs a losing
    coalition without the player with the winning one it becomes when the
    player joins, so it is counted once, from its losing side, as 2.  Powers
    are the counts normalized by their total (all zero if nobody is ever
    marginal).

    No coalition is visited.  The counting polynomial prod(1 + x^w_j), cut
    below the quota, is one ``_chain`` on the integer engine.  Dividing
    player i's factor 1 + x^w_i back out gives the others' coalition counts
    by weight, rest[z] = full[z] - rest[z - w_i], and the player swings the
    coalitions of weight quota - w_i to quota - 1.
    """
    weights = tuple(weights)
    if not weights:
        raise InputError("at least one weight is required")
    as_count(quota, "quota")
    for w in weights:
        as_count(w, "weight")
    n = len(weights)
    if n > cap:
        raise CapacityError(
            f"{n} players exceeds the enumeration cap of {cap}; "
            "use the generating-function route for larger games"
        )

    # full[z] counts the coalitions of weight z, for the losing weights z < quota.
    full = deque(_chain([{0: 1, w: 1} for w in weights], quota - 1), maxlen=1)[0]
    # Sorted: the engine's sparse branch returns degrees out of order.
    degrees = sorted(full)
    counts = []
    for w in weights:
        # Divide 1 + x^w out of full, lowest degree first; exact over the
        # integers because the factor's constant term is 1.  rest only has
        # terms where full does, since neither has negative coefficients.
        rest: dict[int, int] = {}
        for z in degrees:
            rest[z] = full[z] - rest.get(z - w, 0)
        counts.append(2 * sum(rest[z] for z in degrees if z >= quota - w))
    return BanzhafReport.from_counts(counts)


def _chain(factors: Sequence[Mapping[int, int]], top: int) -> Iterator[Mapping[int, int]]:
    """1, then the running products of ``factors``, each cut above ``top``;
    lazy, so a caller that keeps only the last holds one at a time."""
    return accumulate(factors, lambda acc, f: int_product(acc, f, top), initial={0: 1})


def _undecided(dist: VoteDistribution, quota: int, strict: bool) -> Iterator[tuple[int, int]]:
    """(Z, dist.den * min(v_Z, 1 - v_Z)) at each Z, rising, where it is nonzero.

    v_Z is one running sum over the distribution's numerators: 0 below
    Z = quota - max_votes, starting from the mass above the quota and
    growing by P(quota - Z) per step.  Nothing is stored per threshold.
    """
    den, pmf = dist.den, dist.numerators
    if strict:
        pmf = {d: c for d, c in pmf.items() if d < quota}
    v = sum(c for d, c in pmf.items() if d > quota)
    for z in range(max(0, quota - max(pmf, default=0)), quota):
        v += pmf.get(quota - z, 0)
        gamma = min(v, den - v)
        if gamma:
            yield z, gamma


def losing_tail(game: Game, excluded: str) -> RationalPoly:
    """Distribution of the other players' vote total, truncated below quota.

    The coefficient of x^Z, for the Z < quota that ``excluded`` could still
    tip, is the probability that the other players jointly cast Z votes:
    one ``_chain`` of their numerators, n - 1 products for n players.
    """
    game.player(excluded)  # raises InputError for unknown names
    others = [p.structure for p in game.players if p.name != excluded]
    tail = deque(_chain([dist.numerators for dist in others], game.quota - 1), maxlen=1)[0]
    return RationalPoly.from_integers(tail, prod(dist.den for dist in others))


def influence_polynomial(
    dist: VoteDistribution, quota: int, strict: bool = False
) -> RationalPoly:
    """Per-threshold undecided fractions of one voting structure.

    Against a coalition already holding Z votes, v_Z is the probability this
    player casts enough votes (at least quota - Z) to lift it to winning.
    The coefficient of x^Z is min(v_Z, 1 - v_Z): how far the player is from
    a foregone conclusion at that threshold, which is exactly what the other
    players still have to negotiate over.

    By default v_Z sums the structure's full support and the Z = 0 term is
    included, so a player whose own weight reaches the quota keeps the
    influence the coalition count gives them.  ``strict=True`` applies that
    definition to the vote counts below the quota only, so v_0 = 0 and such a
    player has zero influence.
    """
    as_count(quota, "quota")
    return RationalPoly.from_integers(dict(_undecided(dist, quota, strict)), dist.den)


def influence(game: Game, who: str, strict: bool = False) -> Fraction:
    """Expected decisiveness of one player, as ``generalized_banzhaf``
    reports it; defined also where every influence is zero.  It is the
    player's ``losing_tail``, n - 1 products, dotted with their window."""
    dist, tail = game.player(who).structure, losing_tail(game, who)
    dot = sum(g * tail.numerators.get(z, 0) for z, g in _undecided(dist, game.quota, strict))
    return Fraction(dot, dist.den * tail.den)


@dataclass(frozen=True)
class PowerReport:
    """Raw influences and normalized powers, keyed by player name."""

    influences: dict[str, Fraction]
    powers: dict[str, Fraction]
    proper_game: bool


def _influences(game: Game, strict: bool) -> tuple[int, dict[str, int]]:
    """The product of all the denominators, and every player's influence
    as an integer over it.  Player i's losing tail is the prefix chain of
    the players before i times the suffix chain after i, all cut below the
    quota, so the n tails cost 3n - 2 products.  Each influence is one
    integer dot product of the tail with the player's streamed window.
    """
    quota = game.quota
    dists = [p.structure for p in game.players]
    # prefix[i] is the product over the players before i, suffix[i] over those after i.
    prefix = _chain([dist.numerators for dist in dists[:-1]], quota - 1)
    suffix = list(_chain([dist.numerators for dist in dists[:0:-1]], quota - 1))[::-1]
    dots = {}
    for player, before, after in zip(game.players, prefix, suffix):
        tail = int_product(before, after, quota - 1)
        window = _undecided(player.structure, quota, strict)
        dots[player.name] = sum(gamma * tail.get(z, 0) for z, gamma in window)
    return prod(dist.den for dist in dists), dots


def generalized_banzhaf(game: Game, strict: bool = False) -> PowerReport:
    """Influence of every player, normalized to a power vector summing to 1."""
    den, dots = _influences(game, strict)
    total = sum(dots.values())
    if not total:
        raise DegenerateGameError(
            "every player has zero influence; powers are undefined"
        )
    influences = {name: Fraction(dot, den) for name, dot in dots.items()}
    powers = {name: Fraction(dot, total) for name, dot in dots.items()}
    return PowerReport(influences, powers, game.is_proper)
