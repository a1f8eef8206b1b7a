"""Command-line front end.

Subcommands: power, banzhaf, influence-poly, sweep, sensitivity, series,
verify.  Results go to stdout (or ``--out``): JSON for single evaluations,
CSV for grid-shaped output.  All output is byte-identical across runs with
the same inputs and seed.

Exit codes: 0 success, 2 input error, 3 degenerate game, 4 capacity
exceeded (``--precision`` above ``MAX_PRECISION`` among others), 5
verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import prod
from pathlib import Path
from typing import Sequence

from .errors import CapacityError, DegenerateGameError, InputError, as_count
from .model import Game, exact_text, format_value, load_game
from .oracle import joint_distribution_enum, influence_first_principles, monte_carlo_influence
from .power import (
    ENUMERATION_CAP,
    classic_banzhaf,
    generalized_banzhaf,
    influence,
    influence_polynomial,
)
from .presets import COHESION_ASSIGNMENTS, DEFAULT_COHESION, PRESET_OPTIONS, PRESETS, preset_doc
from .sweep import ParamRef, SweepAxis, csv_text, grid_values, sensitivity, structure_series, sweep
from .poly import ONE

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_CAPACITY = 4
EXIT_VERIFY = 5

# The most significant digits a decimal field may ask for.  Digits cost time
# super-linear in their count (about 3 ms a value at this bound), and
# exact fields and --exact print every digit anyway.
MAX_PRECISION = 10**4


def _load_game_from_args(args) -> Game:
    if (args.game is None) == (args.preset is None):
        raise InputError("exactly one of --game or --preset is required")
    if args.game is not None:
        try:
            doc = json.loads(Path(args.game).read_text())
        except RecursionError as exc:
            raise InputError(f"{args.game}: the document is nested too deeply to parse") from exc
    else:
        doc = preset_doc(args.preset, **{name: getattr(args, name) for name in PRESET_OPTIONS})
    return load_game(doc)


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _emit_json(args, payload) -> None:
    _emit(args, json.dumps(payload, indent=2))


def cmd_power(args) -> int:
    game = _load_game_from_args(args)
    report = generalized_banzhaf(game, strict=args.strict_influence)
    payload = {
        "quota": game.quota,
        "proper_game": report.proper_game,
        "players": [
            {
                "name": name,
                "influence": exact_text(report.influences[name]),
                "influence_decimal": format_value(report.influences[name], args.precision),
                "power": exact_text(report.powers[name]),
                "power_decimal": format_value(report.powers[name], args.precision),
            }
            for name in game.names()
        ],
    }
    _emit_json(args, payload)
    return EXIT_OK


def cmd_banzhaf(args) -> int:
    report = classic_banzhaf(args.quota, args.weights, cap=args.cap)
    payload = {
        "quota": args.quota,
        "weights": args.weights,
        "marginal_counts": list(report.marginal_counts),
        "powers": [exact_text(p) for p in report.powers],
        "powers_decimal": [format_value(p, args.precision) for p in report.powers],
    }
    _emit_json(args, payload)
    return EXIT_OK


def cmd_influence_poly(args) -> int:
    game = _load_game_from_args(args)
    player = game.player(args.player)
    ipoly = influence_polynomial(
        player.structure, game.quota, strict=args.strict_influence
    )
    payload = {
        "player": player.name,
        "quota": game.quota,
        "influence": exact_text(influence(game, player.name, strict=args.strict_influence)),
        "terms": [
            {
                "degree": degree,
                "coefficient": exact_text(coeff),
                "coefficient_decimal": format_value(coeff, args.precision),
            }
            for degree, coeff in ipoly.items()
        ],
    }
    _emit_json(args, payload)
    return EXIT_OK


def cmd_sweep(args) -> int:
    game = _load_game_from_args(args)
    names = args.param or []
    if not names:
        raise InputError("at least one --param is required")
    starts, stops, steps = args.start or [], args.stop or [], args.steps or []
    if not (len(names) == len(starts) == len(stops) == len(steps)):
        raise InputError("each --param needs matching --from, --to, and --steps")
    axes = [
        SweepAxis(ParamRef.parse(name), grid_values(lo, hi, count))
        for name, lo, hi, count in zip(names, starts, stops, steps)
    ]
    grid = sweep(game, axes, strict=args.strict_influence)
    _emit(args, grid.to_csv(precision=args.precision, exact=args.exact))
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    game = _load_game_from_args(args)
    if args.param:
        params = [ParamRef.parse(name) for name in args.param]
    else:
        # Default to every player's follow-the-leader probability.
        params = [
            ParamRef(p.name, "p") for p in game.players if "p" in p.spec.parameters()
        ]
        if not params:
            raise InputError("this game has no tunable parameters; pass --param")
    report = sensitivity(game, params, h=args.h, strict=args.strict_influence)
    payload = {
        "h": exact_text(report.step),
        "point": {key: exact_text(value) for key, value in report.point},
        "partials": [
            {"power": name, "param": key, "value": format_value(slope, args.precision)}
            for name, key, slope in report.partials
        ],
    }
    _emit_json(args, payload)
    return EXIT_OK


def cmd_series(args) -> int:
    game = _load_game_from_args(args)
    player = game.player(args.player)
    pmf, infl = structure_series(
        player.structure, game.quota, strict=args.strict_influence
    )
    rows = [["degree", "pmf", "influence"]]
    for degree in range(max(len(pmf), len(infl))):
        row = [degree]
        for series in (pmf, infl):
            if degree < len(series):
                row.append(format_value(series[degree], args.precision, args.exact))
            else:
                row.append("")
        rows.append(row)
    _emit(args, csv_text(rows))
    return EXIT_OK


def cmd_verify(args) -> int:
    game = _load_game_from_args(args)
    lines = []
    failures = 0

    def check(ok: bool, label: str) -> None:
        nonlocal failures
        lines.append(f"{'PASS' if ok else 'FAIL'} {label}")
        if not ok:
            failures += 1

    structures = [p.structure for p in game.players]
    enumerated = joint_distribution_enum(structures)
    convolved = prod((s.pmf for s in structures), start=ONE)
    check(enumerated == convolved, "joint vote distribution: enumeration matches polynomial product")

    try:
        influences = generalized_banzhaf(game).influences
    except DegenerateGameError:
        # The influences are non-negative and sum to zero, so each is zero.
        influences = dict.fromkeys(game.names(), Fraction(0))
    for player in game.players:
        exact = influences[player.name]
        first = influence_first_principles(game, player.name)
        check(
            first == exact,
            f"influence {player.name}: first principles equal the polynomial route ({exact_text(exact)})",
        )

    for player in game.players:
        exact = influences[player.name]
        est = monte_carlo_influence(game, player.name, args.trials, args.seed)
        # A sample that never left the player undecided has standard error 0.
        # One score moves the mean by at most 1/(2N), since scores lie in
        # [0, 1/2], so no sample resolves an influence finer than that floor.
        se = max(est.std_error, 0.5 / args.trials)
        check(
            abs(est.mean - float(exact)) <= 3 * se,
            f"monte carlo {player.name}: estimate {format_value(est.mean, args.precision)} "
            f"within 3 standard errors of {exact_text(exact)} ({args.trials} trials, seed {args.seed})",
        )

    _emit(args, "\n".join(lines) + "\n")
    return EXIT_VERIFY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votepower",
        description="Exact Banzhaf and generalized voting power for probabilistic and team voting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    source = argparse.ArgumentParser(add_help=False)
    group = source.add_argument_group("game source")
    group.add_argument("--game", metavar="PATH", help="game description JSON file")
    group.add_argument("--preset", choices=PRESETS, help="bundled example game")
    group.add_argument("--p", help="parameter p for the parametric presets")
    group.add_argument("--L", help="parameter L for the team presets")
    group.add_argument("--LD", help="senate-113: Democratic leader's wish")
    group.add_argument("--LR", help="senate-113: Republican leader's wish")
    group.add_argument("--pD", help="senate-113: Democratic cohesion override")
    group.add_argument("--pR", help="senate-113: Republican cohesion override")
    group.add_argument(
        "--cohesion",
        choices=sorted(COHESION_ASSIGNMENTS),
        default=None,
        help=f"senate-113: which party gets the 94%% cohesion value (default {DEFAULT_COHESION})",
    )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    output.add_argument(
        "--precision", type=int, default=6, metavar="N",
        help="significant digits for decimal output (default 6)",
    )

    exact = argparse.ArgumentParser(add_help=False)
    exact.add_argument(
        "--exact", action="store_true",
        help="write exact fractions (num/den) instead of decimals in CSV output",
    )

    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument(
        "--strict-influence", action="store_true",
        help="restrict influence to vote counts below the quota and thresholds above zero",
    )

    p = sub.add_parser("power", parents=[source, output, strict],
                       help="influences and generalized powers")
    p.set_defaults(handler=cmd_power)

    p = sub.add_parser("banzhaf", parents=[output],
                       help="classic index from the coalition-counting polynomial")
    p.add_argument("quota", type=int)
    p.add_argument("weights", type=int, nargs="+")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP, help="player-count cap")
    p.set_defaults(handler=cmd_banzhaf)

    p = sub.add_parser("influence-poly", parents=[source, output, strict],
                       help="one player's influence polynomial")
    p.add_argument("--player", required=True)
    p.set_defaults(handler=cmd_influence_poly)

    p = sub.add_parser("sweep", parents=[source, output, exact, strict],
                       help="powers over a parameter grid (CSV)")
    p.add_argument("--param", action="append", metavar="PLAYER.FIELD",
                   help="swept parameter, e.g. A.p (repeat for a 2-D grid)")
    p.add_argument("--from", action="append", dest="start", metavar="VALUE")
    p.add_argument("--to", action="append", dest="stop", metavar="VALUE")
    p.add_argument("--steps", action="append", type=int, metavar="N")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("sensitivity", parents=[source, output, strict],
                       help="central-difference partials of the powers")
    p.add_argument("--param", action="append", metavar="PLAYER.FIELD",
                   help="parameters to vary (default: every player's p)")
    p.add_argument("--h", default="1/1000", help="finite-difference step (default 1/1000)")
    p.set_defaults(handler=cmd_sensitivity)

    p = sub.add_parser("series", parents=[source, output, exact, strict],
                       help="structure and influence coefficient series (CSV)")
    p.add_argument("--player", required=True)
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("verify", parents=[source, output],
                       help="cross-check the polynomial route against the oracles")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if as_count(args.precision, "precision") > MAX_PRECISION:
            raise CapacityError(f"precision must be at most {MAX_PRECISION} digits")
        return args.handler(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except DegenerateGameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, OSError) as exc:  # InputError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
