"""The package's public surface, pinned: its exported names, and each
exported callable's signature (for an exception, its base classes).  A
change to either is a public-surface decision, so it shows up here in a diff.
"""

import inspect

import votepower

EXPORTS = [
    "BanzhafReport",
    "CLOSED_FORMS",
    "COHESION_ASSIGNMENTS",
    "CapacityError",
    "DEFAULT_COHESION",
    "DegenerateGameError",
    "ENUMERATION_CAP",
    "ENUM_TUPLE_CAP",
    "Game",
    "GameValidationError",
    "InputError",
    "McEstimate",
    "ONE",
    "PRESETS",
    "ParamRef",
    "Player",
    "PowerReport",
    "RationalPoly",
    "SERIES_CAP",
    "SensitivityReport",
    "StructureSpec",
    "SweepAxis",
    "SweepGrid",
    "VoteDistribution",
    "VotingError",
    "ZERO",
    "as_probability",
    "bernoulli_structure",
    "classic_banzhaf",
    "closed_form_beta",
    "deterministic_structure",
    "generalized_banzhaf",
    "grid_values",
    "influence",
    "influence_first_principles",
    "influence_polynomial",
    "joint_distribution_enum",
    "load_game",
    "losing_tail",
    "monte_carlo_influence",
    "pmf_structure",
    "preset_doc",
    "preset_game",
    "random_structure",
    "sensitivity",
    "structure_series",
    "sweep",
    "team_structure",
    "uniform_team_structure",
]

SIGNATURES = {
    "BanzhafReport": (
        "(marginal_counts: 'tuple[int, ...]', powers: 'tuple[Fraction, ...]') -> None"
    ),
    "CapacityError": "(VotingError)",
    "DegenerateGameError": "(VotingError)",
    "Game": "(quota: 'int', players: 'tuple[Player, ...]') -> None",
    "GameValidationError": "(InputError)",
    "InputError": "(VotingError, ValueError)",
    "McEstimate": "(mean: 'float', std_error: 'float', trials: 'int', seed: 'int') -> None",
    "ParamRef": "(player: 'str', field: 'str') -> None",
    "Player": "(name: 'str', spec: 'StructureSpec', structure: 'VoteDistribution') -> None",
    "PowerReport": (
        "(influences: 'dict[str, Fraction]', powers: 'dict[str, Fraction]', "
        "proper_game: 'bool') -> None"
    ),
    "RationalPoly": "(coeffs: 'Mapping[int, Coefficient] | None' = None) -> 'None'",
    "SensitivityReport": (
        "(point: 'tuple[tuple[str, Fraction], ...]', step: 'Fraction', "
        "partials: 'tuple[tuple[str, str, float], ...]') -> None"
    ),
    "StructureSpec": (
        "(kind: 'str', votes: 'int | None' = None, p: 'Fraction | None' = None, "
        "L: 'Fraction | None' = None, weights: 'tuple[int, ...] | None' = None, "
        "n: 'int | None' = None, entries: 'tuple[tuple[int, Fraction], "
        "...] | None' = None) -> None"
    ),
    "SweepAxis": "(param: 'ParamRef', values: 'tuple[Fraction, ...]') -> None",
    "SweepGrid": (
        "(axes: 'tuple[SweepAxis, ...]', player_names: 'tuple[str, ...]', "
        "cells: 'tuple[PowerReport | None, ...]') -> None"
    ),
    "VoteDistribution": "(pmf: 'RationalPoly') -> None",
    "VotingError": "(Exception)",
    "as_probability": (
        "(value: 'ProbabilityLike', where: 'str' = 'probability') -> 'Fraction'"
    ),
    "bernoulli_structure": "(votes: 'int', p: 'ProbabilityLike') -> 'VoteDistribution'",
    "classic_banzhaf": (
        "(quota: 'int', weights: 'Sequence[int]', cap: 'int' = 24) -> 'BanzhafReport'"
    ),
    "closed_form_beta": (
        "(which: 'str', p: 'ProbabilityLike') -> 'tuple[Fraction, Fraction, Fraction, "
        "Fraction]'"
    ),
    "deterministic_structure": "(votes: 'int') -> 'VoteDistribution'",
    "generalized_banzhaf": "(game: 'Game', strict: 'bool' = False) -> 'PowerReport'",
    "grid_values": (
        "(start: 'ProbabilityLike', stop: 'ProbabilityLike', "
        "steps: 'int') -> 'tuple[Fraction, ...]'"
    ),
    "influence": "(game: 'Game', who: 'str', strict: 'bool' = False) -> 'Fraction'",
    "influence_first_principles": "(game: 'Game', who: 'str') -> 'Fraction'",
    "influence_polynomial": (
        "(dist: 'VoteDistribution', quota: 'int', "
        "strict: 'bool' = False) -> 'RationalPoly'"
    ),
    "joint_distribution_enum": (
        "(structures: 'Sequence[VoteDistribution]') -> 'RationalPoly'"
    ),
    "load_game": "(doc) -> 'Game'",
    "losing_tail": "(game: 'Game', excluded: 'str') -> 'RationalPoly'",
    "monte_carlo_influence": (
        "(game: 'Game', who: 'str', trials: 'int', seed: 'int') -> 'McEstimate'"
    ),
    "pmf_structure": (
        "(entries: 'Iterable[tuple[int, ProbabilityLike]]') -> 'VoteDistribution'"
    ),
    "preset_doc": "(name: 'str', **options) -> 'dict'",
    "preset_game": "(name: 'str', **options) -> 'Game'",
    "random_structure": "(votes: 'int') -> 'VoteDistribution'",
    "sensitivity": (
        "(game: 'Game', params: 'Sequence[ParamRef]', point: 'Mapping[str, "
        "ProbabilityLike] | None' = None, h: 'ProbabilityLike' = Fraction(1, 1000), "
        "strict: 'bool' = False) -> 'SensitivityReport'"
    ),
    "structure_series": (
        "(dist: 'VoteDistribution', quota: 'int', "
        "strict: 'bool' = False) -> 'tuple[tuple[Fraction, ...], tuple[Fraction, ...]]'"
    ),
    "sweep": (
        "(game: 'Game', axes: 'Sequence[SweepAxis]', "
        "strict: 'bool' = False) -> 'SweepGrid'"
    ),
    "team_structure": (
        "(weights: 'Sequence[int]', p: 'ProbabilityLike', "
        "L: 'ProbabilityLike') -> 'VoteDistribution'"
    ),
    "uniform_team_structure": (
        "(n: 'int', p: 'ProbabilityLike', L: 'ProbabilityLike') -> 'VoteDistribution'"
    ),
}


def surface(obj) -> str:
    if isinstance(obj, type) and issubclass(obj, Exception):
        return "(" + ", ".join(base.__name__ for base in obj.__bases__) + ")"
    return str(inspect.signature(obj))


def test_exported_names():
    assert list(votepower.__all__) == EXPORTS


def test_exported_signatures():
    exported = {name: getattr(votepower, name) for name in EXPORTS}
    assert {name: surface(obj) for name, obj in exported.items() if callable(obj)} == SIGNATURES
