"""Bundled example games.

Each preset returns a game description document (the JSON schema of
``model.load_game``), so presets and user files flow through the same
validation.  The senate preset exposes the leaders' wishes and the two
party cohesion values as options.
"""

from __future__ import annotations

from functools import partial

from .errors import InputError
from .model import Game, load_game

# The 112th-Congress party-line voting averages were 94% and 84%.  The two
# assignments below put the 94% figure on the Democrats or the Republicans
# respectively; see the README for which one reproduces the reference power
# values bundled with this library.
COHESION_ASSIGNMENTS = {
    "paper-text": {"pD": "0.94", "pR": "0.84"},
    "paper-figure": {"pD": "0.84", "pR": "0.94"},
}
DEFAULT_COHESION = "paper-figure"


def _random(name: str, votes: int) -> dict:
    return {"name": name, "structure": {"kind": "random", "votes": votes}}


def _bernoulli(name: str, votes: int, p: str) -> dict:
    return {"name": name, "structure": {"kind": "bernoulli", "votes": votes, "p": p}}


def _uniform_team(name: str, n: int, p: str, L: str) -> dict:
    return {"name": name, "structure": {"kind": "uniform_team", "n": n, "p": p, "L": L}}


# The [6; 4, 3, 2, 1] players, by slot.
_SLOTS_6_4321 = (("A", 4), ("B", 3), ("C", 2), ("D", 1))


def _game_6_4321(slot: int = 0, player: dict | None = None) -> dict:
    """[6; 4, 3, 2, 1] with everyone fifty-fifty, or ``player`` in ``slot``."""
    players = [_random(name, votes) for name, votes in _SLOTS_6_4321]
    if player is not None:
        players[slot] = player
    return {"quota": 6, "players": players}


def paper_sec32() -> dict:
    """[6; 4, 3, 2, 1] where player A spreads votes non-uniformly."""
    structure = {
        "kind": "pmf",
        "entries": [[0, "1/10"], [2, "4/10"], [3, "3/10"], [4, "2/10"]],
    }
    return _game_6_4321(0, {"name": "A", "structure": structure})


def _all_or_nothing(slot: int, p: str = "1/2") -> dict:
    """[6; 4, 3, 2, 1] with the player in ``slot`` all-or-nothing at
    probability p: eq. 25 for A, 26 for B, 27 for C and 28 for D."""
    return _game_6_4321(slot, _bernoulli(*_SLOTS_6_4321[slot], p))


def paper_eq31(p: str = "1/2", L: str = "1/2") -> dict:
    """[6; 4, 3, 2, 1] with A replaced by a led team of weights {2, 1, 1}."""
    team = {"kind": "team", "weights": [2, 1, 1], "p": p, "L": L}
    return _game_6_4321(0, {"name": "A", "structure": team})


def paper_eq32(p: str = "1/2", L: str = "1/2") -> dict:
    """[6; 4, 3, 2, 1] with A replaced by a led team of four single votes."""
    return _game_6_4321(0, _uniform_team("A", 4, p, L))


def senate_113(
    LD: str = "1",
    LR: str = "0",
    pD: str | None = None,
    pR: str | None = None,
    cohesion: str = DEFAULT_COHESION,
) -> dict:
    """The [60; 53, 45, 2] cloture game: two led parties and two independents.

    ``cohesion`` picks which party gets the historical 94% follow-the-leader
    value; explicit pD/pR override it.
    """
    if cohesion not in COHESION_ASSIGNMENTS:
        raise InputError(
            f"unknown cohesion assignment {cohesion!r} "
            f"(expected one of {sorted(COHESION_ASSIGNMENTS)})"
        )
    defaults = COHESION_ASSIGNMENTS[cohesion]
    return {
        "quota": 60,
        "players": [
            _uniform_team("Dem", 53, pD if pD is not None else defaults["pD"], LD),
            _uniform_team("Rep", 45, pR if pR is not None else defaults["pR"], LR),
            _random("Ind", 2),
        ],
    }


# Each preset's builder and the options it takes.
_BUILDERS = {
    "paper-6-4321-random": (_game_6_4321, ()),
    "paper-sec32": (paper_sec32, ()),
    "paper-eq25": (partial(_all_or_nothing, 0), ("p",)),
    "paper-eq26": (partial(_all_or_nothing, 1), ("p",)),
    "paper-eq27": (partial(_all_or_nothing, 2), ("p",)),
    "paper-eq28": (partial(_all_or_nothing, 3), ("p",)),
    "paper-eq31": (paper_eq31, ("p", "L")),
    "paper-eq32": (paper_eq32, ("p", "L")),
    "senate-113": (senate_113, ("LD", "LR", "pD", "pR", "cohesion")),
}

PRESETS = tuple(_BUILDERS)

# Every option some preset takes, in first-listed order.
PRESET_OPTIONS = tuple(dict.fromkeys(o for _, allowed in _BUILDERS.values() for o in allowed))


def preset_doc(name: str, **options) -> dict:
    """Game description document for a named preset.

    Options (``PRESET_OPTIONS``) are passed to the preset builder; options
    the preset does not take are rejected.
    """
    if name not in PRESETS:
        raise InputError(f"unknown preset {name!r} (available: {', '.join(PRESETS)})")
    builder, allowed = _BUILDERS[name]
    supplied = {k: v for k, v in options.items() if v is not None}
    rejected = sorted(set(supplied) - set(allowed))
    if rejected:
        raise InputError(f"preset {name!r} does not take options {rejected}")
    return builder(**supplied)


def preset_game(name: str, **options) -> Game:
    """Load a named preset as a validated Game."""
    return load_game(preset_doc(name, **options))
