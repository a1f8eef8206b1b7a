"""Independent validation routes for the polynomial engines.

Nothing here reuses polynomial multiplication: vote totals are enumerated
tuple by tuple, classic swings coalition by coalition, influence is
recomputed from its definition, and a seeded sampler estimates it
statistically.  The test suite and the CLI ``verify`` command compare these
against the fast path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from random import Random
from typing import Sequence

from .errors import CapacityError, as_count
from .model import Game, VoteDistribution
from .poly import RationalPoly
from .power import ENUMERATION_CAP, BanzhafReport

ENUM_TUPLE_CAP = 10**6


def joint_distribution_enum(structures: Sequence[VoteDistribution]) -> RationalPoly:
    """Distribution of the summed votes, by explicit tuple enumeration.

    Walks the full Cartesian product of the supports instead of convolving,
    so it can serve as an independence check on the polynomial product.
    """
    supports = [s.support() for s in structures]
    size = math.prod(len(s) for s in supports)
    if size > ENUM_TUPLE_CAP:
        raise CapacityError(
            f"{size} support tuples exceeds the enumeration cap of {ENUM_TUPLE_CAP}"
        )
    totals: dict[int, Fraction] = {}
    for combo in product(*supports):
        prob = Fraction(1)
        for dist, votes in zip(structures, combo):
            prob *= dist.prob_exactly(votes)
        key = sum(combo)
        totals[key] = totals.get(key, Fraction(0)) + prob
    return RationalPoly(totals)


def classic_banzhaf_enum(quota: int, weights: Sequence[int]) -> BanzhafReport:
    """Classic Banzhaf counts by walking all 2^n coalitions.

    Each losing coalition adds 2 for every outside player whose weight lifts
    it to the quota, the same counts ``power.classic_banzhaf`` takes from the
    counting polynomial.
    """
    n = len(weights)
    if n > ENUMERATION_CAP:
        raise CapacityError(f"{n} players exceeds the enumeration cap of {ENUMERATION_CAP}")
    counts = [0] * n
    for mask in range(1 << n):
        total = 0
        m = mask
        while m:
            low = m & -m
            total += weights[low.bit_length() - 1]
            m ^= low
        if total >= quota:
            continue
        for i, w in enumerate(weights):
            if not mask >> i & 1 and total + w >= quota:
                counts[i] += 2
    return BanzhafReport.from_counts(counts)


def _undecided_at(dist: VoteDistribution, needed: int) -> Fraction:
    """min(v, 1 - v), with v the probability of casting at least ``needed`` votes."""
    v = dist.prob_at_least(needed)
    return min(v, 1 - v)


def influence_first_principles(game: Game, who: str) -> Fraction:
    """Influence recomputed from its definition, avoiding the fast path.

    Sums, over every coalition total Z below the quota, the probability of
    that total (from tuple enumeration) times the undecided fraction
    min(v_Z, 1 - v_Z), where v_Z is the probability the player casts at
    least quota - Z votes.
    """
    focal = game.player(who)
    others = [p.structure for p in game.players if p.name != who]
    totals = joint_distribution_enum(others)
    result = Fraction(0)
    for z, p_z in totals.extract(0, game.quota - 1).items():
        result += p_z * _undecided_at(focal.structure, game.quota - z)
    return result


@dataclass(frozen=True)
class McEstimate:
    """Seeded sampling estimate of one player's influence."""

    mean: float
    std_error: float
    trials: int
    seed: int


def monte_carlo_influence(game: Game, who: str, trials: int, seed: int) -> McEstimate:
    """Estimate a player's influence by sampling the others' vote totals.

    Each trial draws every other player's vote count by inverse CDF from
    Mersenne Twister uniforms (``random.Random(seed)``, so results are
    bit-reproducible across platforms), then scores the exact undecided
    fraction for the sampled total z: min(v, 1 - v), with v the probability
    the player casts at least quota - z votes.  Scoring the exact per-total
    value instead of also simulating the focal player keeps the variance
    down.
    """
    as_count(trials, "trials")
    focal = game.player(who)

    # Cumulative sampling thresholds are float-rounded; the sampled values
    # and the per-sample influence weights stay exact.
    samplers = []
    for p in game.players:
        if p.name == who:
            continue
        support = p.structure.support()
        cums = list(accumulate(float(p.structure.prob_exactly(v)) for v in support))
        samplers.append((support, cums))

    rng = Random(seed)
    hits: dict[int, int] = {}
    for _ in range(trials):
        z = 0
        for support, cums in samplers:
            idx = bisect_right(cums, rng.random())
            if idx >= len(support):  # guard against float round-down of the last cum
                idx = len(support) - 1
            z += support[idx]
        hits[z] = hits.get(z, 0) + 1

    # A total at or above the quota needs no votes from the player: v = 1, so it scores 0.
    gamma = {z: _undecided_at(focal.structure, game.quota - z) for z in hits}
    s1 = sum((gamma[z] * count for z, count in hits.items()), Fraction(0))
    s2 = sum((gamma[z] ** 2 * count for z, count in hits.items()), Fraction(0))
    mean = s1 / trials
    if trials > 1:
        variance = (s2 - s1 * s1 / trials) / (trials - 1)
        std_error = math.sqrt(variance / trials)
    else:
        std_error = 0.0
    return McEstimate(float(mean), std_error, trials, seed)
