"""Property tests: the influence polynomial against its definition, and the
generalized index against classic Banzhaf counts under random voting.

Examples are derandomized, so every run checks the same games.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from votepower.model import Game, Player, StructureSpec, pmf_structure
from votepower.poly import RationalPoly
from votepower.power import classic_banzhaf, influence, influence_polynomial

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
