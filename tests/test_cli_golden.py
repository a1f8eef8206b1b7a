"""Golden CLI digests: the sha256 of stdout and the exit code of a fixed set
of commands, run in-process through ``cli.main``.

The table in ``cli_golden.json`` pins the output byte for byte, so a change
that should leave the CLI output alone can show that it does.  When an
output is meant to change, regenerate the table with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json

and say in the change which commands moved and why.
"""

import contextlib
import functools
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from votepower.cli import main
from votepower.presets import PRESETS, preset_game

TABLE = Path(__file__).with_name("cli_golden.json")

SWEEPS = [
    "--preset paper-eq25 --param A.p --from 0 --to 1 --steps 21",
    "--preset paper-eq31 --param A.L --from 0 --to 1 --steps 11 "
    "--param A.p --from 0 --to 1 --steps 11",
    "--preset senate-113 --param Dem.p --from 0 --to 1 --steps 11",
]

# Probability parsing at its edges: a descending grid, decimal and fraction
# grid ends, a one-step axis, and preset options given as strings.
PARSING = [
    "sweep --preset paper-eq25 --param A.p --from 1 --to 0 --steps 5 --exact",
    "sweep --preset paper-eq31 --param A.L --from 0.25 --to 0.75 --steps 1 "
    "--param A.p --from 3/7 --to 0.9 --steps 4 --exact",
    "power --preset paper-eq25 --p 0.3",
    "power --preset senate-113 --pD 0.9 --LR 1/3",
]


def commands():
    """Every command of the table, as the one-line string that keys it."""
    out = []
    for preset in PRESETS:
        names = preset_game(preset).names()
        for strict in ("", " --strict-influence"):
            out.append(f"power --preset {preset}{strict}")
            for name in names:
                out.append(f"influence-poly --preset {preset} --player {name}{strict}")
                out.append(f"series --preset {preset} --player {name} --exact{strict}")
        out.append(f"verify --preset {preset} --trials 10000 --seed 1")
    for strict in ("", " --strict-influence"):
        out.extend(f"sweep {spec} --exact{strict}" for spec in SWEEPS)
        out.append(f"sensitivity --preset senate-113{strict}")
    out.append("banzhaf 6 4 3 2 1")
    out.extend(PARSING)
    return out


def digest(command):
    """(sha256 of stdout, exit code) of one command."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
        code = main(shlex.split(command))
    return [hashlib.sha256(buffer.getvalue().encode()).hexdigest(), code]


@functools.cache
def table():
    return json.loads(TABLE.read_text())


def test_table_covers_the_commands():
    assert sorted(table()) == sorted(commands())


@pytest.mark.parametrize("command", commands())
def test_output_matches_the_table(command):
    assert digest(command) == table()[command]


if __name__ == "__main__":
    rows = (f"{json.dumps(command)}: {json.dumps(digest(command))}" for command in commands())
    print("{\n" + ",\n".join(rows) + "\n}")
