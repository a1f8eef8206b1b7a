"""Both power engines and their agreement on all-or-nothing games."""

import random
import time
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import enum_product, random_distribution
from votepower import power
from votepower.errors import CapacityError, DegenerateGameError, InputError
from votepower.model import (
    Game,
    Player,
    StructureSpec,
    bernoulli_structure,
    pmf_structure,
    random_structure,
)
from votepower.poly import ONE, ZERO, RationalPoly, int_product
from votepower.power import (
    classic_banzhaf,
    generalized_banzhaf,
    influence,
    influence_polynomial,
    losing_tail,
)

F = Fraction
HALF = F(1, 2)


def all_random_game(quota: int, weights) -> Game:
    players = tuple(
        Player.from_spec(f"P{i}", StructureSpec(kind="random", votes=w))
        for i, w in enumerate(weights)
    )
    return Game(quota, players)


def game_6_4321() -> Game:
    return all_random_game(6, (4, 3, 2, 1))


def game_sec32() -> Game:
    a = Player.from_spec(
        "P0",
        StructureSpec(
            kind="pmf",
            entries=((0, F(1, 10)), (2, F(4, 10)), (3, F(3, 10)), (4, F(2, 10))),
        ),
    )
    rest = all_random_game(6, (3, 2, 1))
    renamed = tuple(
        Player.from_spec(f"P{i + 1}", p.spec) for i, p in enumerate(rest.players)
    )
    return Game(6, (a,) + renamed)


class TestClassicBanzhaf:
    def test_continuing_example(self):
        report = classic_banzhaf(6, (4, 3, 2, 1))
        assert report.marginal_counts == (10, 6, 6, 2)
        assert report.powers == (F(5, 12), F(1, 4), F(1, 4), F(1, 12))

    def test_single_player_over_quota(self):
        report = classic_banzhaf(3, (4,))
        assert report.marginal_counts == (2,)
        assert report.powers == (F(1),)

    def test_matches_generalized_index_on_senate_weights(self):
        report = classic_banzhaf(60, (53, 45, 2))
        gf = generalized_banzhaf(all_random_game(60, (53, 45, 2)))
        assert report.powers == tuple(gf.powers.values())

    def test_nobody_marginal(self):
        report = classic_banzhaf(10, (2, 3))
        assert report.marginal_counts == (0, 0)
        assert report.powers == (F(0), F(0))

    def test_enumeration_cap(self):
        with pytest.raises(CapacityError):
            classic_banzhaf(10, (1,) * 25)
        with pytest.raises(CapacityError):
            classic_banzhaf(10, (1,) * 5, cap=4)

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            classic_banzhaf(0, (1, 2))
        with pytest.raises(InputError):
            classic_banzhaf(3, ())
        with pytest.raises(InputError):
            classic_banzhaf(3, (1, 0))


def test_twenty_four_players_are_fast():
    # Counts from walking all 2^24 coalitions, which takes about a minute;
    # the counting polynomial has at most quota terms.
    weights = [1 + i % 10 for i in range(24)]  # 120 votes
    started = time.perf_counter()
    report = classic_banzhaf(61, weights)
    assert time.perf_counter() - started < 1
    by_weight = (463712, 928516, 1395472, 1865784, 2340696,
                 2821616, 3310164, 3808288, 4318372, 4843640)
    assert report.marginal_counts == tuple(by_weight[w - 1] for w in weights)


class TestLosingTail:
    def test_continuing_example(self):
        eighth = F(1, 8)
        assert losing_tail(game_6_4321(), "P0") == RationalPoly(
            {0: eighth, 1: eighth, 2: eighth, 3: 2 * eighth, 4: eighth, 5: eighth}
        )

    def test_alone_in_the_game(self):
        game = all_random_game(6, (4,))
        assert losing_tail(game, "P0") == ONE

    def test_unknown_player(self):
        with pytest.raises(InputError):
            losing_tail(game_6_4321(), "nobody")

    def test_two_team_tail_matches_tuple_enumeration(self):
        # Scaled-down two-teams-plus-swing layout, checked against the
        # tuple-enumeration oracle.
        players = (
            Player.from_spec("T1", StructureSpec(kind="uniform_team", n=3, p=F(7, 10), L=F(1))),
            Player.from_spec("T2", StructureSpec(kind="uniform_team", n=2, p=F(9, 10), L=F(0))),
            Player.from_spec("S", StructureSpec(kind="random", votes=1)),
        )
        game = Game(4, players)
        expected = enum_product(
            [players[0].structure.pmf, players[1].structure.pmf]
        ).extract(0, 3)
        assert losing_tail(game, "S") == expected

    def test_degree_capped_below_quota(self):
        game = Game(
            60,
            (
                Player.from_spec("Dem", StructureSpec(kind="uniform_team", n=53, p=F(21, 25), L=F(1))),
                Player.from_spec("Rep", StructureSpec(kind="uniform_team", n=45, p=F(47, 50), L=F(0))),
                Player.from_spec("Ind", StructureSpec(kind="random", votes=2)),
            ),
        )
        tail = losing_tail(game, "Ind")
        assert tail.degree == 59
        assert sum(c for _, c in tail.items()) < 1  # some mass lies at 60 votes and above


class TestInfluencePolynomial:
    def test_non_uniform_spread(self):
        dist = pmf_structure([(0, "1/10"), (2, "4/10"), (3, "3/10"), (4, "2/10")])
        assert influence_polynomial(dist, 6) == RationalPoly(
            {2: F(2, 10), 3: F(5, 10), 4: F(1, 10), 5: F(1, 10)}
        )

    def test_fifty_fifty_three_votes(self):
        assert influence_polynomial(random_structure(3), 6) == RationalPoly(
            {3: HALF, 4: HALF, 5: HALF}
        )

    def test_certain_voter_has_nothing_in_play(self):
        assert influence_polynomial(bernoulli_structure(4, 1), 6) == ZERO

    def test_coefficients_within_half(self):
        rng = random.Random(79)
        for _ in range(50):
            dist = random_distribution(rng)
            quota = rng.randint(1, 12)
            for _, coeff in influence_polynomial(dist, quota).items():
                assert 0 < coeff <= HALF

    def test_lift_probability_is_monotone_in_coalition_size(self):
        rng = random.Random(83)
        for _ in range(30):
            dist = random_distribution(rng)
            quota = rng.randint(1, 12)
            lifts = [dist.prob_at_least(quota - z) for z in range(quota)]
            assert all(a <= b for a, b in zip(lifts, lifts[1:]))

    def test_obedience_flip_symmetry(self):
        # min(v, 1-v) makes the polynomial invariant under p -> 1-p.
        for w in (1, 3, 5):
            for p in (F(0), F(1, 5), F(2, 5), F(1, 2)):
                assert influence_polynomial(
                    bernoulli_structure(w, p), 6
                ) == influence_polynomial(bernoulli_structure(w, 1 - p), 6)

    def test_strict_mode_matches_when_support_is_below_quota(self):
        rng = random.Random(89)
        for _ in range(30):
            quota = rng.randint(2, 12)
            dist = random_distribution(rng, max_support=min(5, quota), max_votes=quota - 1)
            assert influence_polynomial(dist, quota, strict=True) == influence_polynomial(
                dist, quota
            )

    def test_strict_mode_drops_over_quota_support(self):
        dist = random_structure(4)
        assert influence_polynomial(dist, 3, strict=True) == ZERO
        assert influence_polynomial(dist, 3) == RationalPoly({0: HALF, 1: HALF, 2: HALF})

    def test_strict_mode_with_mixed_support(self):
        # Support straddles the quota: strict mode ignores the 5-vote mass
        # and the zero threshold, the default counts both.
        dist = pmf_structure([(0, F(1, 4)), (2, F(1, 4)), (5, HALF)])
        assert influence_polynomial(dist, 4, strict=True) == RationalPoly(
            {2: F(1, 4), 3: F(1, 4)}
        )
        assert influence_polynomial(dist, 4) == RationalPoly(
            {0: HALF, 1: HALF, 2: F(1, 4), 3: F(1, 4)}
        )

    def test_invalid_quota(self):
        with pytest.raises(InputError):
            influence_polynomial(random_structure(2), 0)


class TestInfluence:
    def test_continuing_example(self):
        assert influence(game_6_4321(), "P0") == F(5, 16)

    def test_non_uniform_game(self):
        game = game_sec32()
        assert influence(game, "P0") == F(7, 40)
        assert influence(game, "P1") == F(13, 40)
        assert influence(game, "P2") == F(3, 20)
        assert influence(game, "P3") == F(1, 10)

    def test_certain_voter_has_none(self):
        players = (
            Player.from_spec("A", StructureSpec(kind="deterministic", votes=4)),
            Player.from_spec("B", StructureSpec(kind="random", votes=3)),
        )
        assert influence(Game(6, players), "A") == 0

    def test_invariant_under_other_player_order(self):
        rng = random.Random(97)
        specs = [
            StructureSpec(kind="random", votes=3),
            StructureSpec(kind="bernoulli", votes=2, p=F(1, 3)),
            StructureSpec(
                kind="pmf", entries=((0, F(1, 4)), (1, F(1, 4)), (4, F(1, 2)))
            ),
        ]
        focal = StructureSpec(kind="random", votes=4)
        values = set()
        for order in permutations(range(3)):
            players = (Player.from_spec("me", focal),) + tuple(
                Player.from_spec(f"o{i}", specs[i]) for i in order
            )
            values.add(influence(Game(6, players), "me"))
        assert len(values) == 1

    def test_one_player_reads_one_chain(self, monkeypatch):
        # One player's tail is a chain over the other n - 1 players; building
        # every player's tail from prefix and suffix chains takes 3n - 2.
        calls = []

        def spy(*args):
            calls.append(args)
            return int_product(*args)

        monkeypatch.setattr(power, "int_product", spy)
        game = all_random_game(11, (6, 5, 4, 3, 2, 1))
        for read in (influence, losing_tail):
            calls.clear()
            read(game, "P2")
            assert len(calls) <= len(game.players) - 1


class TestGeneralizedBanzhaf:
    def test_recovers_classic_powers_under_fifty_fifty_voting(self):
        report = generalized_banzhaf(game_6_4321())
        assert report.influences == {
            "P0": F(5, 16),
            "P1": F(3, 16),
            "P2": F(3, 16),
            "P3": F(1, 16),
        }
        assert report.powers == {
            "P0": F(5, 12),
            "P1": F(1, 4),
            "P2": F(1, 4),
            "P3": F(1, 12),
        }
        assert report.proper_game

    def test_non_uniform_game(self):
        report = generalized_banzhaf(game_sec32())
        assert report.powers == {
            "P0": F(7, 30),
            "P1": F(13, 30),
            "P2": F(6, 30),
            "P3": F(4, 30),
        }

    def test_silent_player_leaves_a_three_player_game(self):
        # With A certain to cast nothing, B, C, D face quota 6 alone and
        # split the power evenly.
        players = (
            Player.from_spec("A", StructureSpec(kind="bernoulli", votes=4, p=F(0))),
        ) + game_6_4321().players[1:]
        report = generalized_banzhaf(Game(6, players))
        assert report.powers == {"A": F(0), "P1": F(1, 3), "P2": F(1, 3), "P3": F(1, 3)}

    def test_degenerate_game(self):
        players = (
            Player.from_spec("A", StructureSpec(kind="deterministic", votes=4)),
            Player.from_spec("B", StructureSpec(kind="deterministic", votes=3)),
        )
        with pytest.raises(DegenerateGameError):
            generalized_banzhaf(Game(6, players))

    def test_quota_far_above_the_votes_is_cheap(self):
        # Only thresholds within max_votes of the quota can be undecided, so
        # the cost must not grow with the quota.
        game = all_random_game(10**6, (3, 4))
        started = time.perf_counter()
        for strict in (False, True):
            for player in game.players:
                assert influence(game, player.name, strict) == 0
            with pytest.raises(DegenerateGameError):
                generalized_banzhaf(game, strict)
        assert time.perf_counter() - started < 1

    def test_fifty_players_are_fast(self):
        # The n losing tails come from prefix and suffix products, so the
        # cost grows with n, not n^2; all-pairs products take seconds here.
        players = tuple(
            Player.from_spec(
                f"P{i}",
                StructureSpec(kind="bernoulli", votes=1 + i % 10, p=F(i + 1, 2 * i + 3)),
            )
            for i in range(50)
        )
        game = Game(138, players)  # just over half of the 275 votes
        started = time.perf_counter()
        report = generalized_banzhaf(game)
        assert time.perf_counter() - started < 2
        assert sum(report.powers.values()) == 1
        assert report.influences["P0"] == influence(game, "P0")

    def test_far_support_points_stay_sparse(self):
        # Support points far above the quota add to each lift's starting mass
        # but must not make any coefficient list grow with max_votes.
        far = 10**7
        players = (
            Player.from_spec("A", StructureSpec(kind="pmf", entries=(
                (0, F(1, 4)), (2, F(1, 4)), (6, F(1, 4)), (far, F(1, 4))))),
            Player.from_spec("B", StructureSpec(kind="pmf", entries=(
                (1, HALF), (3, F(1, 8)), (5, F(1, 8)), (far, F(1, 4))))),
            Player.from_spec("C", StructureSpec(kind="random", votes=1)),
        )
        game = Game(10, players)
        started = time.perf_counter()
        assert generalized_banzhaf(game).influences == {
            "A": F(15, 64), "B": F(15, 64), "C": F(1, 64)}
        assert generalized_banzhaf(game, True).influences == {
            "A": F(3, 64), "B": F(3, 64), "C": F(1, 64)}
        assert time.perf_counter() - started < 1

    def test_undecided_window_is_not_stored(self):
        # A's window spans every threshold below the quota; streaming it into
        # the dot product keeps memory off the quota.  A stored window peaks
        # at about 10 MiB here.
        quota = 10**5
        players = (
            Player.from_spec("A", StructureSpec(kind="pmf", entries=((0, HALF), (quota, HALF)))),
            Player.from_spec("B", StructureSpec(kind="random", votes=1)),
        )
        game = Game(quota, players)
        tracemalloc.start()
        try:
            report = generalized_banzhaf(game)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.influences == {"A": HALF, "B": F(0)}
        assert peak < 2**20

    def test_powers_sum_to_one(self):
        rng = random.Random(101)
        for _ in range(25):
            n = rng.randint(1, 5)
            players = tuple(
                Player.from_spec(f"P{i}", StructureSpec(kind="random", votes=rng.randint(1, 5)))
                for i in range(n)
            )
            total = sum(p.structure.max_votes for p in players)
            game = Game(rng.randint(1, total), players)
            report = generalized_banzhaf(game)
            assert sum(report.powers.values()) == 1

    def test_matches_classic_enumeration_on_random_games(self):
        rng = random.Random(103)
        for _ in range(25):
            n = rng.randint(1, 6)
            weights = [rng.randint(1, 5) for _ in range(n)]
            quota = rng.randint(1, sum(weights))
            classic = classic_banzhaf(quota, weights)
            if sum(classic.marginal_counts) == 0:
                continue
            gf = generalized_banzhaf(all_random_game(quota, weights))
            assert tuple(gf.powers.values()) == classic.powers
