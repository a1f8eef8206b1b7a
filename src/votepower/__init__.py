"""Exact voting-power computations for probabilistic and team voting.

Computes classic Banzhaf power from the coalition-counting polynomial and a
generalized index for players with arbitrary voting structures
(probabilistic, partial, or leader-led team voting), using exact
generating-function arithmetic, integer numerators over one denominator,
throughout.
"""

from .errors import (
    CapacityError,
    DegenerateGameError,
    GameValidationError,
    InputError,
    VotingError,
)
from .model import (
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
from .oracle import (
    ENUM_TUPLE_CAP,
    McEstimate,
    influence_first_principles,
    joint_distribution_enum,
    monte_carlo_influence,
)
from .poly import ONE, ZERO, RationalPoly
from .power import (
    ENUMERATION_CAP,
    SERIES_CAP,
    BanzhafReport,
    PowerReport,
    classic_banzhaf,
    generalized_banzhaf,
    influence,
    influence_polynomial,
    losing_tail,
)
from .presets import COHESION_ASSIGNMENTS, DEFAULT_COHESION, PRESETS, preset_doc, preset_game
from .sweep import (
    CLOSED_FORMS,
    ParamRef,
    SensitivityReport,
    SweepAxis,
    SweepGrid,
    closed_form_beta,
    grid_values,
    sensitivity,
    structure_series,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
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
