"""Voting-structure constructors, validation, and the game loader."""

import json
import math
import random
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from conftest import mixture, random_distribution
from votepower import model
from votepower.errors import GameValidationError, InputError
from votepower.model import (
    KINDS,
    Game,
    Player,
    StructureSpec,
    VoteDistribution,
    as_probability,
    bernoulli_structure,
    deterministic_structure,
    load_game,
    pmf_structure,
    random_structure,
    team_structure,
    uniform_team_structure,
)
from votepower.oracle import joint_distribution_enum
from votepower.poly import ONE, RationalPoly, int_product

F = Fraction
HALF = F(1, 2)

PROB_GRID = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))


class TestAsProbability:
    def test_parses_decimal_and_rational_strings(self):
        assert as_probability("0.94") == F(47, 50)
        assert as_probability("47/50") == F(47, 50)
        assert as_probability(1) == 1

    def test_rejects_floats(self):
        with pytest.raises(InputError):
            as_probability(0.94)

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            as_probability("3/2")
        with pytest.raises(InputError):
            as_probability("-1/2")

    def test_rejects_garbage(self):
        with pytest.raises(InputError):
            as_probability("one half")

    @pytest.mark.parametrize(
        "value, text",
        [
            ("3/2", "p: 3/2 is outside [0, 1]"),
            ("-1/2", "p: -1/2 is outside [0, 1]"),
            (F(3, 2), "p: 3/2 is outside [0, 1]"),
            ("x", "p: cannot parse 'x' as a rational number"),
            ("1/0", "p: cannot parse '1/0' as a rational number"),
            (0.5, "p: floats are not exact; write the value as a string"),
        ],
    )
    def test_error_texts(self, value, text):
        with pytest.raises(InputError) as exc:
            as_probability(value, "p")
        assert str(exc.value) == text


class TestRandomStructure:
    def test_four_votes(self):
        assert random_structure(4).pmf == RationalPoly({0: HALF, 4: HALF})

    def test_one_vote(self):
        assert random_structure(1).pmf == RationalPoly({0: HALF, 1: HALF})

    def test_normalized(self):
        assert sum(c for _, c in random_structure(7).pmf.items()) == 1

    def test_zero_votes_rejected(self):
        with pytest.raises(GameValidationError):
            random_structure(0)


class TestPmfStructure:
    def test_non_uniform_spread(self):
        dist = pmf_structure([(0, "1/10"), (2, "4/10"), (3, "3/10"), (4, "2/10")])
        assert dist.pmf == RationalPoly({0: F(1, 10), 2: F(4, 10), 3: F(3, 10), 4: F(2, 10)})
        assert dist.max_votes == 4

    def test_never_votes(self):
        dist = pmf_structure([(0, 1)])
        assert dist.pmf == ONE
        assert dist.max_votes == 0

    def test_matches_fifty_fifty(self):
        assert pmf_structure([(0, HALF), (4, HALF)]) == random_structure(4)

    def test_bad_sum_rejected(self):
        with pytest.raises(GameValidationError, match="sum"):
            pmf_structure([(0, "1/2"), (4, "4/10")])

    def test_duplicate_votes_rejected(self):
        with pytest.raises(GameValidationError, match="duplicate"):
            pmf_structure([(2, HALF), (2, HALF)])

    def test_negative_votes_rejected(self):
        with pytest.raises(GameValidationError):
            pmf_structure([(-1, 1)])


class TestBernoulliStructure:
    def test_certain_voter_casts_everything(self):
        assert bernoulli_structure(4, 1).pmf == RationalPoly({4: 1})

    def test_half_is_fifty_fifty(self):
        assert bernoulli_structure(4, HALF) == random_structure(4)

    def test_three_tenths(self):
        assert bernoulli_structure(3, "3/10").pmf == RationalPoly({0: F(7, 10), 3: F(3, 10)})

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            bernoulli_structure(4, "11/10")

    def test_deterministic_shorthand(self):
        assert deterministic_structure(5) == bernoulli_structure(5, 1)


class TestTeamStructure:
    def test_unanimous_team_acts_like_one_voter(self):
        for L in PROB_GRID:
            dist = team_structure((1, 1, 2), 1, L)
            assert dist.pmf == RationalPoly({4: L, 0: 1 - L})

    def test_coin_flipping_members_ignore_leader(self):
        # ((x+1)/2)^2 * ((x^2+1)/2), whatever the leader wants.
        expected = RationalPoly({0: F(1, 8), 1: F(2, 8), 2: F(2, 8), 3: F(2, 8), 4: F(1, 8)})
        for L in PROB_GRID:
            assert team_structure((1, 1, 2), HALF, L).pmf == expected

    def test_contrarian_team_inverts_the_leader(self):
        for L in PROB_GRID:
            dist = team_structure((1, 1, 2), 0, L)
            assert dist.pmf == RationalPoly({0: L, 4: 1 - L})

    def test_unanimous_undecided_leader_is_fifty_fifty(self):
        assert team_structure((1, 1, 2), 1, HALF) == random_structure(4)

    def test_flip_symmetry(self):
        # Flipping both the leader's wish and the members' obedience leaves
        # the structure unchanged.
        for p in PROB_GRID:
            for L in PROB_GRID:
                assert team_structure((1, 1, 2), p, L) == team_structure(
                    (1, 1, 2), 1 - p, 1 - L
                )

    def test_normalized_and_non_negative_on_grid(self):
        # VoteDistribution construction enforces both; it just must not raise.
        for p in PROB_GRID:
            for L in PROB_GRID:
                dist = team_structure((2, 1, 3), p, L)
                assert sum(c for _, c in dist.pmf.items()) == 1

    def test_empty_team_rejected(self):
        with pytest.raises(GameValidationError):
            team_structure((), HALF, HALF)

    def test_zero_weight_member_rejected(self):
        with pytest.raises(GameValidationError):
            team_structure((1, 0), HALF, HALF)

    def test_mixes_enumerated_follow_and_defy(self):
        # Independent of the grouped powers inside team_structure: enumerate
        # every member's vote, all following the leader's wish or all defying it.
        weights = (3, 2, 2, 1, 1, 1)
        for p in PROB_GRID:
            for L in PROB_GRID:
                follow = joint_distribution_enum([bernoulli_structure(w, p) for w in weights])
                defy = joint_distribution_enum([bernoulli_structure(w, 1 - p) for w in weights])
                assert team_structure(weights, p, L).pmf == mixture(L, follow, defy)

    @pytest.mark.parametrize(
        "build, products",
        [
            (lambda: team_structure((2, 1, 1), F(9, 10), F(3, 10)), 1),
            (lambda: team_structure((3, 2, 2, 1), F(9, 10), F(3, 10)), 2),
            (lambda: uniform_team_structure(53, F(21, 25), F(3, 10)), 0),
        ],
        ids=["2,1,1", "3,2,2,1", "53 unit members"],
    )
    def test_one_product_chain(self, monkeypatch, build, products):
        # The defy branch is the follow branch reflected, so only the follow
        # branch multiplies its weight groups.
        calls = []

        def spy(*args):
            calls.append(args)
            return int_product(*args)

        monkeypatch.setattr(model, "int_product", spy)
        build()
        assert len(calls) == products


class TestUniformTeamStructure:
    def test_unanimous(self):
        for L in PROB_GRID:
            assert uniform_team_structure(6, 1, L).pmf == RationalPoly({6: L, 0: 1 - L})

    def test_coin_flipping(self):
        expected = RationalPoly({0: HALF, 1: HALF}) ** 5
        for L in PROB_GRID:
            assert uniform_team_structure(5, HALF, L).pmf == expected

    def test_single_member_matches_team(self):
        for p in PROB_GRID:
            for L in PROB_GRID:
                assert uniform_team_structure(1, p, L) == team_structure((1,), p, L)

    def test_matches_team_of_ones(self):
        rng = random.Random(71)
        for _ in range(10):
            n = rng.randint(1, 6)
            p = F(rng.randint(0, 8), 8)
            L = F(rng.randint(0, 8), 8)
            assert uniform_team_structure(n, p, L) == team_structure((1,) * n, p, L)

    def test_bad_size_rejected(self):
        with pytest.raises(GameValidationError):
            uniform_team_structure(0, HALF, HALF)

    @pytest.mark.parametrize("n", [1, 5, 53])
    def test_binomial_mixture(self, n):
        for p in (F(0), F(1, 3), F(47, 50), F(1)):
            for L in (F(0), F(2, 5), F(1)):
                dist = uniform_team_structure(n, p, L)
                for j in range(n + 1):
                    ways = math.comb(n, j)
                    expected = (L * ways * p**j * (1 - p) ** (n - j)
                                + (1 - L) * ways * (1 - p) ** j * p ** (n - j))
                    assert dist.prob_exactly(j) == expected, (p, L, j)


class TestVoteDistribution:
    def test_negative_probability_text(self):
        with pytest.raises(GameValidationError) as info:
            VoteDistribution(RationalPoly({0: F(2), 3: F(-1, 2), 5: F(-1, 2)}))
        assert str(info.value) == "negative probability -1/2 for 3 votes"

    def test_bad_sum_text(self):
        with pytest.raises(GameValidationError) as info:
            VoteDistribution(RationalPoly({0: HALF, 2: F(1, 4)}))
        assert str(info.value) == "probabilities sum to 3/4, not 1"

    def test_stored_over_the_least_common_denominator(self):
        dist = pmf_structure([(0, F(1, 6)), (1, HALF), (3, F(1, 3))])
        assert dist.den == 6
        assert dict(dist.numerators) == {0: 1, 1: 3, 3: 2}
        assert (dist.pmf.den, dist.pmf.numerators) == (6, {0: 1, 1: 3, 3: 2})

    def test_integers_are_reduced(self):
        dist = VoteDistribution.from_integers({0: 2, 4: 2, 7: 0}, 4)
        assert (dist.den, dict(dist.numerators)) == (2, {0: 1, 4: 1})
        assert dist == random_structure(4)

    def test_equal_however_built(self):
        built = [
            random_structure(4),
            bernoulli_structure(4, "1/2"),
            pmf_structure([(4, "0.5"), (0, "1/2")]),
            team_structure((4,), 1, HALF),
            VoteDistribution(RationalPoly({0: HALF, 4: HALF})),
        ]
        assert all(dist == built[0] for dist in built)
        assert len({hash(dist) for dist in built}) == 1
        assert uniform_team_structure(3, HALF, F(1, 5)) != random_structure(3)
        assert random_structure(3) != random_structure(4)

    def test_frozen(self):
        dist = random_structure(2)
        with pytest.raises(FrozenInstanceError):
            dist.den = 4
        assert dist.den == 2

    def test_pmf_round_trip(self):
        dist = team_structure((3, 1, 1), F(2, 3), F(1, 4))
        assert VoteDistribution(dist.pmf) == dist
        assert repr(random_structure(1)) == "VoteDistribution(RationalPoly({0: 1/2, 1: 1/2}))"


class TestRandomDistributions:
    def test_generated_distributions_are_normalized(self):
        rng = random.Random(73)
        for _ in range(50):
            dist = random_distribution(rng)
            assert sum(c for _, c in dist.pmf.items()) == 1
            assert all(c > 0 for _, c in dist.pmf.items())
            assert dist.prob_at_least(0) == 1
            assert dist.prob_at_least(dist.max_votes + 1) == 0


def doc_6_4321() -> dict:
    return {
        "quota": 6,
        "players": [
            {"name": "A", "structure": {"kind": "random", "votes": 4}},
            {"name": "B", "structure": {"kind": "random", "votes": 3}},
            {"name": "C", "structure": {"kind": "random", "votes": 2}},
            {"name": "D", "structure": {"kind": "random", "votes": 1}},
        ],
    }


class TestLoadGame:
    def test_loads_the_continuing_example(self):
        game = load_game(doc_6_4321())
        assert game.quota == 6
        assert game.names() == ("A", "B", "C", "D")
        assert game.player("A").structure == random_structure(4)
        assert game.is_proper

    def test_all_kinds_load(self):
        doc = {
            "quota": 10,
            "players": [
                {"name": "r", "structure": {"kind": "random", "votes": 3}},
                {"name": "d", "structure": {"kind": "deterministic", "votes": 2}},
                {"name": "b", "structure": {"kind": "bernoulli", "votes": 4, "p": "0.3"}},
                {"name": "m", "structure": {"kind": "pmf", "entries": [[0, "1/2"], [2, "1/2"]]}},
                {"name": "t", "structure": {"kind": "team", "weights": [1, 2], "p": "3/4", "L": "1"}},
                {"name": "u", "structure": {"kind": "uniform_team", "n": 3, "p": "0.9", "L": "0"}},
            ],
        }
        game = load_game(doc)
        assert game.player("d").structure == deterministic_structure(2)
        assert game.player("b").structure == bernoulli_structure(4, "0.3")
        assert game.player("t").structure == team_structure((1, 2), "3/4", 1)
        assert game.player("u").structure == uniform_team_structure(3, "0.9", 0)

    def test_unnormalized_pmf_names_the_player(self):
        doc = doc_6_4321()
        doc["players"][1]["structure"] = {
            "kind": "pmf",
            "entries": [[0, "1/2"], [3, "4/10"]],
        }
        with pytest.raises(GameValidationError, match=r"players\[1\] \(B\)"):
            load_game(doc)

    def test_unknown_kind_rejected(self):
        doc = doc_6_4321()
        doc["players"][0]["structure"] = {"kind": "quantum", "votes": 4}
        with pytest.raises(GameValidationError, match="quantum"):
            load_game(doc)

    def test_duplicate_player_names_rejected(self):
        doc = doc_6_4321()
        doc["players"][1]["name"] = "A"
        with pytest.raises(GameValidationError, match="duplicate"):
            load_game(doc)

    def test_numeric_probability_rejected(self):
        doc = doc_6_4321()
        doc["players"][0]["structure"] = {"kind": "bernoulli", "votes": 4, "p": 0.94}
        with pytest.raises(GameValidationError, match=r"players\[0\].*\.p"):
            load_game(doc)

    def test_missing_field_rejected(self):
        doc = doc_6_4321()
        doc["players"][0]["structure"] = {"kind": "bernoulli", "votes": 4}
        with pytest.raises(GameValidationError, match="missing"):
            load_game(doc)

    def test_unexpected_field_rejected(self):
        doc = doc_6_4321()
        doc["players"][0]["structure"] = {"kind": "random", "votes": 4, "p": "1/2"}
        with pytest.raises(GameValidationError, match="unexpected"):
            load_game(doc)

    def test_bad_quota_rejected(self):
        doc = doc_6_4321()
        doc["quota"] = 0
        with pytest.raises(GameValidationError, match="quota"):
            load_game(doc)

    def test_non_object_rejected(self):
        with pytest.raises(GameValidationError):
            load_game([1, 2, 3])

    def test_empty_players_rejected(self):
        with pytest.raises(GameValidationError, match="players"):
            load_game({"quota": 3, "players": []})

    def test_loads_the_cloture_game(self):
        from votepower.presets import preset_doc

        game = load_game(preset_doc("senate-113"))
        assert game.quota == 60
        assert game.names() == ("Dem", "Rep", "Ind")
        assert game.player("Dem").structure.max_votes == 53
        assert game.player("Rep").structure.max_votes == 45
        assert game.player("Ind").structure == random_structure(2)

    def test_round_trips_through_to_doc(self):
        doc = {
            "quota": 7,
            "players": [
                {"name": "team", "structure": {"kind": "team", "weights": [2, 1], "p": "0.7", "L": "2/5"}},
                {"name": "solo", "structure": {"kind": "bernoulli", "votes": 3, "p": "1/3"}},
                {"name": "mix", "structure": {"kind": "pmf", "entries": [[1, "1/4"], [2, "3/4"]]}},
            ],
        }
        game = load_game(doc)
        again = load_game(game.to_doc())
        assert again == game

    def test_six_kinds_round_trip_to_the_same_document(self):
        # Canonical fraction strings come back unchanged, and in the same
        # key order: "kind" first, then the kind's fields in document order.
        doc = {
            "quota": 12,
            "players": [
                {"name": "r", "structure": {"kind": "random", "votes": 3}},
                {"name": "d", "structure": {"kind": "deterministic", "votes": 2}},
                {"name": "b", "structure": {"kind": "bernoulli", "votes": 4, "p": "3/10"}},
                {"name": "m", "structure": {"kind": "pmf", "entries": [[0, "1/4"], [2, "3/4"]]}},
                {"name": "t", "structure": {"kind": "team", "weights": [2, 1], "p": "7/10", "L": "2/5"}},
                {"name": "u", "structure": {"kind": "uniform_team", "n": 3, "p": "9/10", "L": "0"}},
            ],
        }
        game = load_game(doc)
        assert game.to_doc() == doc
        assert json.dumps(game.to_doc()) == json.dumps(doc)
        assert load_game(game.to_doc()) == game

    def test_unhashable_kind_rejected(self):
        doc = doc_6_4321()
        doc["players"][0]["structure"] = {"kind": ["random"], "votes": 4}
        with pytest.raises(GameValidationError, match="unknown structure kind"):
            load_game(doc)

    # A count that is not an integer, a bool among them, is refused at its
    # JSON path before the structure's builder sees it.
    @pytest.mark.parametrize(
        "structure, path, value",
        [
            ({"kind": "random", "votes": True}, "votes", "True"),
            ({"kind": "uniform_team", "n": False, "p": "1", "L": "1"}, "n", "False"),
            ({"kind": "team", "weights": [2, True], "p": "1", "L": "1"}, "weights[1]", "True"),
            ({"kind": "pmf", "entries": [[False, "1"]]}, "entries[0][0]", "False"),
            ({"kind": "deterministic", "votes": "3"}, "votes", "'3'"),
            ({"kind": "team", "weights": [-1], "p": "1", "L": "1"}, "weights[0]", "-1"),
        ],
    )
    def test_a_count_is_refused_at_its_path(self, structure, path, value):
        doc = {"quota": 1, "players": [{"name": "A", "structure": structure}]}
        with pytest.raises(GameValidationError) as excinfo:
            load_game(doc)
        assert str(excinfo.value) == (
            f"players[0] (A).structure.{path} must be a non-negative integer, got {value}"
        )

    @pytest.mark.parametrize("name, shown", [("", ""), (None, "None"), (5, "5")])
    def test_a_bad_name_is_refused_at_its_player(self, name, shown):
        doc = {"quota": 1, "players": [{"name": name, "structure": {"kind": "random", "votes": 1}}]}
        with pytest.raises(GameValidationError) as excinfo:
            load_game(doc)
        assert str(excinfo.value) == f"players[0] ({shown}): player name must be a nonempty string"


class TestGame:
    def test_improper_game_is_flagged_not_rejected(self):
        # Quota 3 is exactly half the 6 votes: both sides can reach it.
        for quota in (2, 3):
            game = load_game(
                {
                    "quota": quota,
                    "players": [
                        {"name": "B", "structure": {"kind": "random", "votes": 3}},
                        {"name": "C", "structure": {"kind": "random", "votes": 2}},
                        {"name": "D", "structure": {"kind": "random", "votes": 1}},
                    ],
                }
            )
            assert not game.is_proper
            assert game.total_max_votes == 6

    def test_unknown_player_lookup(self):
        game = load_game(doc_6_4321())
        with pytest.raises(InputError, match="unknown player"):
            game.player("Z")

    def test_with_parameter_substitutes_one_player(self):
        game = load_game(
            {
                "quota": 6,
                "players": [
                    {"name": "A", "structure": {"kind": "bernoulli", "votes": 4, "p": "1/2"}},
                    {"name": "B", "structure": {"kind": "random", "votes": 3}},
                ],
            }
        )
        changed = game.with_parameter("A", "p", "3/4")
        assert changed.player("A").structure == bernoulli_structure(4, "3/4")
        assert changed.player("B") == game.player("B")
        assert game.player("A").structure == bernoulli_structure(4, HALF)  # original intact

    def test_with_parameter_rejects_unsupported_field(self):
        game = load_game(doc_6_4321())
        with pytest.raises(InputError, match="no parameter"):
            game.with_parameter("A", "p", "1/2")

    def test_with_parameters_changes_several_fields_at_once(self):
        game = load_game(
            {
                "quota": 5,
                "players": [
                    {"name": "A", "structure": {"kind": "team", "weights": [2, 1], "p": "1/2", "L": "1"}},
                    {"name": "B", "structure": {"kind": "bernoulli", "votes": 3, "p": "1/2"}},
                    {"name": "C", "structure": {"kind": "random", "votes": 1}},
                ],
            }
        )
        changed = game.with_parameters({("A", "p"): "3/4", ("B", "p"): "1/3", ("A", "L"): "1/5"})
        chained = (
            game.with_parameter("A", "p", "3/4")
            .with_parameter("B", "p", "1/3")
            .with_parameter("A", "L", "1/5")
        )
        assert changed == chained
        assert changed.player("A").structure == team_structure((2, 1), "3/4", "1/5")
        assert changed.player("C") is game.player("C")
        with pytest.raises(InputError, match="unknown player"):
            game.with_parameters({("A", "p"): "3/4", ("Z", "p"): "1/2"})

    def test_player_must_have_nonempty_name(self):
        with pytest.raises(GameValidationError):
            Player.from_spec("", StructureSpec(kind="random", votes=1))

    def test_quota_must_be_positive(self):
        player = Player.from_spec("A", StructureSpec(kind="random", votes=1))
        with pytest.raises(GameValidationError):
            Game(0, (player,))

    def test_needs_at_least_one_player(self):
        with pytest.raises(GameValidationError):
            Game(3, ())

    def test_duplicate_names_text(self):
        spec = StructureSpec(kind="random", votes=1)
        players = tuple(Player.from_spec(name, spec) for name in "BACBAB")
        with pytest.raises(GameValidationError) as info:
            Game(3, players)
        assert str(info.value) == "duplicate player names: ['A', 'B']"

    def test_ten_thousand_players_build_fast(self):
        spec = StructureSpec(kind="random", votes=1)
        dist = spec.build()
        players = tuple(Player(f"P{i}", spec, dist) for i in range(10_000))
        start = time.perf_counter()
        game = Game(5_001, players)
        assert time.perf_counter() - start < 1.0
        assert len(game.players) == 10_000


KIND_PARAMETERS = {
    "random": (),
    "deterministic": (),
    "bernoulli": ("p",),
    "pmf": (),
    "team": ("p", "L"),
    "uniform_team": ("p", "L"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_kind_parameters(kind):
    assert StructureSpec(kind=kind).parameters() == KIND_PARAMETERS[kind]
