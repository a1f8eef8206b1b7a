"""Property tests: the influence polynomial against its definition, the
generalized index against classic Banzhaf counts under random voting and
against first-principles influence, single influences against the
generalized index, classic Banzhaf against coalition enumeration, the
integer product engine against enumerated products, RationalPoly's
operators against plain Fraction dicts, the structure builders against the
Fraction route, exactly spaced grids against their Fraction formula,
probability parsing, and game documents against their round trip.

Examples are derandomized, so every run checks the same games.
"""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    enum_product,
    mixture,
    ref_clean,
    ref_extract,
    ref_mul,
    ref_pow,
    ref_str,
)
from votepower.errors import DegenerateGameError, GameValidationError
from votepower.model import (
    KINDS,
    Game,
    Player,
    StructureSpec,
    VoteDistribution,
    as_probability,
    bernoulli_structure,
    load_game,
    pmf_structure,
    team_structure,
    uniform_team_structure,
)
from votepower.oracle import (
    classic_banzhaf_enum,
    influence_first_principles,
    joint_distribution_enum,
)
from votepower.poly import RationalPoly, int_product
from votepower.power import (
    classic_banzhaf,
    generalized_banzhaf,
    influence,
    influence_polynomial,
)
from votepower.sweep import grid_values

deterministic = settings(derandomize=True, database=None, deadline=None)

# Up to 8 support points over 0..20 votes; quotas up to 25 fall below, at
# and above max_votes.
distributions = st.lists(
    st.tuples(st.integers(0, 20), st.integers(1, 9)),
    min_size=1,
    max_size=8,
    unique_by=lambda entry: entry[0],
).map(
    lambda entries: pmf_structure(
        [(d, Fraction(w, sum(w for _, w in entries))) for d, w in entries]
    )
)
quotas = st.integers(1, 25)


def undecided(lifts: dict[int, Fraction]) -> RationalPoly:
    return RationalPoly({z: min(v, 1 - v) for z, v in lifts.items()})


@deterministic
@given(distributions, quotas)
def test_default_influence_polynomial_is_its_definition(dist, quota):
    lifts = {z: dist.prob_at_least(quota - z) for z in range(quota)}
    assert influence_polynomial(dist, quota) == undecided(lifts)


@deterministic
@given(distributions, quotas)
def test_strict_influence_polynomial_is_its_definition(dist, quota):
    lifts = {
        z: sum(dist.prob_exactly(d) for d in range(quota - z, quota))
        for z in range(1, quota)
    }
    assert influence_polynomial(dist, quota, strict=True) == undecided(lifts)


@st.composite
def weighted_games(draw):
    weights = draw(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    return draw(st.integers(1, sum(weights) + 3)), weights


@deterministic
@given(weighted_games())
def test_classic_counts_are_random_voting_influences(game):
    # Under fifty-fifty all-or-nothing voting, influence is the swing count
    # over 2^n, and classic_banzhaf counts each swing twice.
    quota, weights = game
    n = len(weights)
    players = tuple(
        Player.from_spec(f"P{i}", StructureSpec(kind="random", votes=w))
        for i, w in enumerate(weights)
    )
    random_game = Game(quota, players)
    counts = classic_banzhaf(quota, weights).marginal_counts
    assert counts == tuple(
        2 ** (n + 1) * influence(random_game, p.name) for p in players
    )


@st.composite
def classic_games(draw, weight_lists):
    weights = draw(weight_lists)
    return draw(st.integers(1, sum(weights) + 3)), weights


@deterministic
@given(
    st.one_of(
        classic_games(st.lists(st.integers(1, 12), min_size=1, max_size=10)),
        # Distinct 9-digit weights leave the counting polynomial sparse.
        classic_games(
            st.lists(st.integers(10**8, 10**9 - 1), min_size=1, max_size=10, unique=True)
        ),
        # Small and large weights mixed make sparse products in which
        # coalitions share a weight, so degrees come back out of order.
        classic_games(
            st.lists(st.one_of(st.integers(1, 3), st.integers(10, 60)), min_size=1, max_size=10)
        ),
    )
)
# The product's degrees come back as 0, 19, 20, 39, 1, ...: weight 1 after 20.
@example((41, [1, 20, 19]))
def test_classic_banzhaf_is_coalition_enumeration(game):
    quota, weights = game
    assert classic_banzhaf(quota, weights) == classic_banzhaf_enum(quota, weights)


# Small and wide magnitudes of both signs: slot widths from one byte up.
coefficients = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80)).filter(bool)
int_polys = st.one_of(
    st.just({}),
    st.dictionaries(st.integers(0, 12), coefficients, max_size=13),  # dense
    st.dictionaries(st.integers(0, 300), coefficients, max_size=3),  # sparse
    # Equal coefficients make a product coefficient reach the slot bound.
    st.builds(dict.fromkeys, st.integers(1, 12).map(range), coefficients),
)


@deterministic
@given(int_polys, int_polys)
# Its middle coefficient, 2^15, fills the top bit of a two-byte slot.
@example({0: 128, 1: 128}, {0: 128, 1: 128})
# Its middle coefficient, -20000, has 15 bits: a two-byte slot read back
# through an offset of half the slot, 2^15, and no less.
@example({0: -100, 1: -100}, {0: 100, 1: 100})
# A factor of exactly 1 on either side: the other factor, signed, is cut at
# every top from 0 to past its degree.
@example({0: 1}, {0: -3, 2: 5, 5: -7, 9: 2**70})
@example({0: -3, 2: 5, 5: -7, 9: 2**70}, {0: 1})
def test_int_product_is_the_enumerated_product_cut_at_every_degree(a, b):
    expanded = enum_product([RationalPoly(a), RationalPoly(b)])
    for top in range(max(a, default=0) + max(b, default=0) + 2):
        assert RationalPoly(int_product(a, b, top)) == expanded.extract(0, top)


# Signed coefficients, zeros included, over small and wide numerators.
fraction_coefficients = st.one_of(
    st.fractions(-5, 5, max_denominator=12),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 10**6)),
)
fraction_dicts = st.dictionaries(st.integers(0, 12), fraction_coefficients, max_size=7)


def reference(poly):
    """The polynomial as {degree: Fraction}, read from its stored integers,
    after checking that they are in canonical form."""
    assert poly.den >= 1 and all(poly.numerators.values())
    assert gcd(poly.den, *poly.numerators.values()) == 1
    return {d: Fraction(c, poly.den) for d, c in poly.numerators.items()}


@deterministic
@given(
    fraction_dicts,
    fraction_dicts,
    st.integers(0, 4),
    st.integers(0, 14),
    st.one_of(st.none(), st.integers(0, 14)),
)
def test_poly_operators_are_the_fraction_dict_operations(a, b, exponent, lo, span):
    pa, pb = RationalPoly(a), RationalPoly(b)
    a, b = ref_clean(a), ref_clean(b)
    assert reference(pa) == a
    assert (pa == pb) == (a == b) and pa == RationalPoly(a)
    assert reference(pa * pb) == ref_mul(a, b)
    assert reference(pa**exponent) == ref_pow(a, exponent)
    hi = None if span is None else lo + span
    assert reference(pa.extract(lo, hi)) == ref_extract(a, lo, hi)
    assert all(pa.coeff(d) == a.get(d, 0) for d in range(14))
    assert list(pa.items()) == sorted(a.items())
    assert str(pa) == ref_str(a)


# Up to 4 support points over 0..8 votes, as pmf entries.
small_entries = st.lists(
    st.tuples(st.integers(0, 8), st.integers(1, 9)),
    min_size=1,
    max_size=4,
    unique_by=lambda entry: entry[0],
).map(lambda entries: tuple((d, Fraction(w, sum(w for _, w in entries))) for d, w in entries))


@st.composite
def pmf_games(draw):
    players = tuple(
        Player.from_spec(f"P{i}", StructureSpec("pmf", entries=entries))
        for i, entries in enumerate(draw(st.lists(small_entries, min_size=1, max_size=4)))
    )
    return Game(draw(st.integers(1, 1 + sum(p.structure.max_votes for p in players))), players)


def strict_influence_first_principles(game, who):
    # The strict lift counts only the player's vote totals below the quota.
    focal = game.player(who).structure
    totals = joint_distribution_enum([p.structure for p in game.players if p.name != who])
    result = Fraction(0)
    for z, p_z in totals.items():
        if not 0 < z < game.quota:
            continue
        v = sum(focal.prob_exactly(d) for d in range(game.quota - z, game.quota))
        result += p_z * min(v, 1 - v)
    return result


def influences_or_none(game, strict=False):
    try:
        return generalized_banzhaf(game, strict).influences
    except DegenerateGameError:
        return None


@deterministic
@given(pmf_games())
def test_generalized_influences_are_first_principles(game):
    for strict, oracle in (
        (False, influence_first_principles),
        (True, strict_influence_first_principles),
    ):
        expected = {name: oracle(game, name) for name in game.names()}
        if not any(expected.values()):
            expected = None
        assert influences_or_none(game, strict) == expected


@deterministic
@given(pmf_games())
def test_influence_is_one_entry_of_the_generalized_index(game):
    for strict in (False, True):
        single = {name: influence(game, name, strict) for name in game.names()}
        # Where every influence is zero, the index raises but each entry is 0.
        assert single == (influences_or_none(game, strict) or dict.fromkeys(single, 0))


@deterministic
@given(pmf_games(), st.randoms(use_true_random=False))
def test_powers_do_not_depend_on_player_order(game, rnd):
    shuffled = list(game.players)
    rnd.shuffle(shuffled)
    reordered = Game(game.quota, tuple(shuffled))
    for strict in (False, True):
        try:
            report = generalized_banzhaf(game, strict)
        except DegenerateGameError:
            assert influences_or_none(reordered, strict) is None
            continue
        other = generalized_banzhaf(reordered, strict)
        assert other.influences == report.influences
        assert other.powers == report.powers


@deterministic
@given(pmf_games())
def test_powers_sum_to_one(game):
    for strict in (False, True):
        try:
            report = generalized_banzhaf(game, strict)
        except DegenerateGameError:
            continue
        assert sum(report.powers.values()) == 1


@deterministic
@given(pmf_games().filter(lambda g: g.quota > max(p.structure.max_votes for p in g.players)))
def test_strict_influence_is_default_influence_below_the_quota(game):
    # No player can reach the quota alone, so dropping the vote counts at or
    # above it changes nothing.
    assert influences_or_none(game, strict=True) == influences_or_none(game)


probabilities = st.fractions(0, 1, max_denominator=12)
votes = st.integers(1, 9)
# Each structure kind's fields, drawn with the types load_game gives back.
spec_fields = {
    "random": {"votes": votes},
    "deterministic": {"votes": votes},
    "bernoulli": {"votes": votes, "p": probabilities},
    "pmf": {"entries": small_entries},
    "team": {
        "weights": st.lists(st.integers(1, 4), min_size=1, max_size=4).map(tuple),
        "p": probabilities,
        "L": probabilities,
    },
    "uniform_team": {"n": st.integers(1, 4), "p": probabilities, "L": probabilities},
}
specs = st.one_of(
    [st.builds(StructureSpec, st.just(kind), **fields) for kind, fields in spec_fields.items()]
)


@st.composite
def spec_games(draw):
    players = tuple(
        Player.from_spec(f"P{i}", spec)
        for i, spec in enumerate(draw(st.lists(specs, min_size=1, max_size=4)))
    )
    return Game(draw(st.integers(1, 40)), players)


def test_round_trip_draws_every_kind():
    assert set(spec_fields) == set(KINDS)


@deterministic
@given(spec_games())
def test_game_document_round_trip(game):
    doc = game.to_doc()
    assert load_game(doc) == game
    assert load_game(json.loads(json.dumps(doc))) == game


# Probabilities 0, 1 and k/P, so certain and impossible members show up often.
edge_probabilities = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.integers(1, 12).flatmap(lambda P: st.integers(0, P).map(lambda k: Fraction(k, P))),
)
# Few distinct weights repeated, or distinct weights spread out.
member_weights = st.one_of(
    st.lists(st.integers(1, 3), min_size=1, max_size=8),
    st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True),
)


def assert_built_as(dist, pmf):
    """``dist`` is the distribution ``pmf``, stored canonically."""
    assert dist.pmf == pmf
    assert (dist.den, dict(dist.numerators)) == (pmf.den, pmf.numerators)
    twin = VoteDistribution(pmf)
    assert twin == dist and hash(twin) == hash(dist)


def member(w, cast):
    return RationalPoly({0: 1 - cast, w: cast})


@deterministic
@given(member_weights, edge_probabilities, edge_probabilities)
def test_team_builder_is_the_fraction_route(weights, p, L):
    follow = enum_product([member(w, p) for w in weights])
    defy = enum_product([member(w, 1 - p) for w in weights])
    assert_built_as(team_structure(weights, p, L), mixture(L, follow, defy))
    assert team_structure(weights, p, L) == team_structure(weights, 1 - p, 1 - L)


@deterministic
@given(st.integers(1, 9), edge_probabilities, edge_probabilities)
def test_uniform_team_builder_is_the_fraction_route(n, p, L):
    follow = enum_product([member(1, p)] * n)
    defy = enum_product([member(1, 1 - p)] * n)
    assert_built_as(uniform_team_structure(n, p, L), mixture(L, follow, defy))


@deterministic
@given(st.integers(1, 50), edge_probabilities)
def test_bernoulli_builder_is_the_fraction_route(votes, p):
    assert_built_as(bernoulli_structure(votes, p), member(votes, p))


@deterministic
@given(
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 9)), min_size=1, max_size=6,
             unique_by=lambda entry: entry[0])
    .filter(lambda entries: any(w for _, w in entries))
)
def test_pmf_builder_is_the_fraction_route(weighted):
    # Zero weights give zero-probability entries, a lone entry probability one.
    total = sum(w for _, w in weighted)
    entries = [(votes, Fraction(w, total)) for votes, w in weighted]
    assert_built_as(pmf_structure(entries), RationalPoly(dict(entries)))


def written(q: Fraction, form: int):
    """``q`` as a caller may pass it: a Fraction, an "a/b" string, an int
    where it is whole, or a decimal string where its denominator divides
    10^6."""
    if form == 1:
        return f"{q.numerator}/{q.denominator}"
    if form == 2 and q.denominator == 1:
        return q.numerator
    if form == 3 and 10**6 % q.denominator == 0:
        digits = str(q.numerator * (10**6 // q.denominator)).rjust(7, "0")
        return f"{digits[:-6]}.{digits[-6:]}"
    return q


def old_pmf_route(entries) -> VoteDistribution:
    """The Fraction route, kept as the reference for pmf_structure."""
    return VoteDistribution(RationalPoly(dict(entries)))


# Weights over a total with many divisors, so the reduced probabilities have
# denominators that share factors (1/2, 1/3, 5/12, ...) and decimal forms
# (1/8, 3/40, ...); zero weights give zero entries, and a lone weight gives
# probability one.  The total is sometimes off by one, so the sum check
# must fail the same way on both routes.
@deterministic
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 12), st.integers(0, 3)),
             min_size=1, max_size=7, unique_by=lambda entry: entry[0])
    .filter(lambda entries: any(w for _, w, _ in entries)),
    st.sampled_from([1, 2, 3, 8, 10, 12, 40, 120, 1000]),
    st.sampled_from([0, 0, 0, 1]),
)
@example([(0, 0, 0), (3, 1, 1)], 1, 0)
@example([(0, 1, 3), (5, 0, 2), (9, 1, 3)], 8, 0)
def test_pmf_builder_is_the_old_fraction_route(weighted, scale, off):
    total = scale * sum(w for _, w, _ in weighted) + off
    entries = [(v, written(Fraction(scale * w, total), form)) for v, w, form in weighted]
    try:
        old = old_pmf_route(entries)
    except GameValidationError as exc:
        with pytest.raises(GameValidationError) as new:
            pmf_structure(entries)
        assert str(new.value) == str(exc)
        return
    new = pmf_structure(entries)
    assert new == old
    assert (new.den, dict(new.numerators), hash(new)) == (old.den, dict(old.numerators), hash(old))


probabilities = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(0, 1, max_denominator=60),
)


@deterministic
@given(probabilities, probabilities, st.integers(1, 50), st.integers(0, 3), st.integers(0, 3))
@example(Fraction(1, 3), Fraction(1, 3), 7, 0, 1)
@example(Fraction(1), Fraction(0), 50, 2, 2)
@example(Fraction(0), Fraction(1), 1, 0, 0)
@example(Fraction(3, 7), Fraction(9, 10), 4, 1, 3)
def test_grid_values_are_the_fraction_formula(lo, hi, steps, lo_form, hi_form):
    grid = grid_values(written(lo, lo_form), written(hi, hi_form), steps)
    if steps == 1:
        assert grid == (lo,)
    else:
        assert grid == tuple(lo + k * (hi - lo) / (steps - 1) for k in range(steps))
    assert all(type(value) is Fraction for value in grid)


@deterministic
@given(probabilities)
def test_a_fraction_is_its_own_probability(q):
    assert as_probability(q) is q
