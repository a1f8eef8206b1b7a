"""Independent validation routes against the fast polynomial path."""

import random
from fractions import Fraction

import pytest

import votepower
from conftest import random_distribution
from votepower import oracle, power
from votepower.errors import CapacityError, InputError
from votepower.model import (
    Game,
    Player,
    StructureSpec,
    load_game,
    random_structure,
    team_structure,
    uniform_team_structure,
)
from votepower.oracle import (
    influence_first_principles,
    joint_distribution_enum,
    monte_carlo_influence,
)
from votepower.poly import ONE, RationalPoly
from votepower.power import influence, influence_polynomial
from votepower.presets import preset_game

F = Fraction
SIXTEENTH = F(1, 16)


class TestJointDistributionEnum:
    def test_four_fifty_fifty_players(self):
        structures = [random_structure(w) for w in (4, 3, 2, 1)]
        expected = RationalPoly(
            {
                10: SIXTEENTH,
                9: SIXTEENTH,
                8: SIXTEENTH,
                7: 2 * SIXTEENTH,
                6: 2 * SIXTEENTH,
                5: 2 * SIXTEENTH,
                4: 2 * SIXTEENTH,
                3: 2 * SIXTEENTH,
                2: SIXTEENTH,
                1: SIXTEENTH,
                0: SIXTEENTH,
            }
        )
        assert joint_distribution_enum(structures) == expected

    def test_single_structure_is_itself(self):
        dist = random_structure(5)
        assert joint_distribution_enum([dist]) == dist.pmf

    def test_no_structures_gives_certain_zero(self):
        assert joint_distribution_enum([]) == ONE

    def test_team_game_matches_polynomial_product(self):
        structures = [
            team_structure((2, 1, 1), "0.7", "0.4"),
            random_structure(3),
            random_structure(2),
            random_structure(1),
        ]
        convolved = ONE
        for s in structures:
            convolved = convolved * s.pmf
        assert joint_distribution_enum(structures) == convolved

    def test_random_instances_match_polynomial_product(self):
        rng = random.Random(107)
        for _ in range(200):
            structures = [
                random_distribution(rng, max_support=5) for _ in range(rng.randint(1, 6))
            ]
            convolved = ONE
            for s in structures:
                convolved = convolved * s.pmf
            assert joint_distribution_enum(structures) == convolved

    def test_capacity_cap(self):
        big = uniform_team_structure(39, "1/4", "1/2")  # support of 40 values
        with pytest.raises(CapacityError):
            joint_distribution_enum([big, big, big, big])


class TestInfluenceFirstPrinciples:
    def test_continuing_example(self):
        game = preset_game("paper-6-4321-random")
        assert influence_first_principles(game, "A") == F(5, 16)

    def test_non_uniform_game(self):
        game = preset_game("paper-sec32")
        assert influence_first_principles(game, "B") == F(13, 40)

    def test_certain_voter(self):
        game = load_game(
            {
                "quota": 6,
                "players": [
                    {"name": "A", "structure": {"kind": "deterministic", "votes": 4}},
                    {"name": "B", "structure": {"kind": "random", "votes": 3}},
                ],
            }
        )
        assert influence_first_principles(game, "A") == 0

    def test_agrees_with_fast_path_on_random_games(self):
        rng = random.Random(109)
        for _ in range(50):
            n = rng.randint(1, 5)
            specs = []
            for _ in range(n):
                if rng.random() < 0.5:
                    specs.append(StructureSpec(kind="random", votes=rng.randint(1, 6)))
                else:
                    dist = random_distribution(rng)
                    specs.append(
                        StructureSpec(kind="pmf", entries=tuple(dist.pmf.items()))
                    )
            players = tuple(
                Player.from_spec(f"P{i}", spec) for i, spec in enumerate(specs)
            )
            game = Game(rng.randint(1, 12), players)
            who = f"P{rng.randrange(n)}"
            assert influence_first_principles(game, who) == influence(game, who)


class TestMonteCarloInfluence:
    def test_estimate_brackets_the_exact_value(self):
        game = preset_game("paper-6-4321-random")
        exact = influence(game, "A")
        est = monte_carlo_influence(game, "A", trials=100_000, seed=2024)
        assert est.trials == 100_000
        assert est.std_error > 0
        assert abs(est.mean - float(exact)) <= 3 * est.std_error

    def test_senate_estimate_brackets_the_exact_value(self):
        game = preset_game("senate-113")
        exact = influence(game, "Dem")
        est = monte_carlo_influence(game, "Dem", trials=100_000, seed=5)
        assert abs(est.mean - float(exact)) <= 3 * est.std_error

    def test_single_trial_scores_one_sampled_total(self):
        game = preset_game("paper-6-4321-random")
        gamma = influence_polynomial(game.player("A").structure, game.quota)
        est = monte_carlo_influence(game, "A", trials=1, seed=3)
        assert est.std_error == 0.0
        achievable = {float(gamma.coeff(z)) for z in range(11)}
        assert est.mean in achievable

    def test_two_trials_take_the_sample_variance(self):
        # Dividing by N - 1, two scores g1 and g2 have standard error
        # |g1 - g2| / 2; dividing by N would give |g1 - g2| / (2 sqrt 2).
        game = preset_game("paper-6-4321-random")
        first = monte_carlo_influence(game, "A", trials=1, seed=1).mean
        both = monte_carlo_influence(game, "A", trials=2, seed=1)
        second = 2 * both.mean - first
        assert first != second
        assert both.std_error == pytest.approx(abs(first - second) / 2, rel=1e-12)

    def test_deterministic_given_seed(self):
        game = preset_game("paper-6-4321-random")
        first = monte_carlo_influence(game, "B", trials=5000, seed=42)
        second = monte_carlo_influence(game, "B", trials=5000, seed=42)
        assert first == second
        other_seed = monte_carlo_influence(game, "B", trials=5000, seed=43)
        assert other_seed.mean != first.mean

    def test_does_not_use_the_influence_polynomial(self, monkeypatch):
        game = preset_game("senate-113")
        expected = monte_carlo_influence(game, "Rep", trials=2000, seed=11)

        def fast_path(*args, **kwargs):
            raise AssertionError("the sampler called influence_polynomial")

        for module in (votepower, power, oracle):
            monkeypatch.setattr(module, "influence_polynomial", fast_path, raising=False)
        assert monte_carlo_influence(game, "Rep", trials=2000, seed=11) == expected

    def test_invalid_trials(self):
        game = preset_game("paper-6-4321-random")
        with pytest.raises(InputError):
            monte_carlo_influence(game, "A", trials=0, seed=1)
