"""Seeded inputs, operations and exact result checks for the four workloads.

``generate(workload, seed)`` runs without the library: it only makes the
JSON-able input documents.  ``Workload`` runs inside the measuring child,
after ``import votepower``: it loads the documents (the set-up phase), runs
one op per document (the timed phase) and checks each result exactly.

Inputs come in *rounds*.  Every round of a workload has the same fixed mix of
op sizes; only weights, probabilities and grid ranges vary with the seed.  A
run always measures whole rounds, so every run sees the same size mix, and
each round is ordered so that the median and the 90th percentile of op
latency fall inside a size group rather than on the edge between two.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("many-players", "large-quota", "sweep", "classic")

# The reference kernel (refspeed.py) whose work is most like each workload's
# ops; its times are scaled by that kernel's speed.
KERNEL = {"many-players": "fractions", "large-quota": "fractions", "sweep": "fractions",
          "classic": "bits"}

# Rounds generated per run.  A run that finishes all of them before its time
# is up starts again from the first, so later rounds repeat earlier inputs.
POOL_ROUNDS = 40

# Latency percentile reported as op_tail_ms: a run measures at least ten
# rounds of at least ten ops (child.MIN_ROUNDS), so at least ten of its ops
# lie beyond it.
TAIL_PERCENTILE = 90

# many-players: players per game in one round.  The median falls between
# the two 12-player games; the two 20-player games are the top fifth of
# latencies, so op_tail_ms measures them.
MANY_PLAYERS_SIZES = (10, 10, 11, 11, 12, 12, 13, 14, 20, 20)
# Structure kind of player slot i, which holds 1 + i % 10 votes.
MANY_PLAYERS_KINDS = ("random", "bernoulli", "random", "pmf", "bernoulli",
                      "random", "team", "bernoulli", "pmf", "random")

# large-quota: (weight scale, players) per game in one round.  The median
# falls between the two (900, 4) games and the 90th percentile between the
# two (1800, 5) games.
LARGE_QUOTA_SHAPES = ((500, 3), (500, 4), (700, 3), (700, 4), (900, 4),
                      (900, 4), (1100, 4), (1100, 5), (1800, 5), (1800, 5))

# classic: players per weight vector in one round.
CLASSIC_SIZES = (12, 12, 13, 13, 14, 14, 14, 15, 16, 16)

# The CLI command of a workload redoes one op: the round-0 op in slot
# CLI_SLOT (a game from the tail-sized group) or, for sweep, a 13x13 L-by-p
# grid on paper-eq31.  Each does a few tenths of a second of work, so that a
# CLI run is not all interpreter start-up.
CLI_SLOT = 8

# What an op costs depends mostly on its sizes: players, total votes (hence
# the quota), support sizes and denominator sizes.  The generators fix those
# per slot of a round and let the seed choose the rest (probabilities,
# support points, team splits, grid offsets; classic weights, which barely
# move the cost of a 2^n walk), so runs on different seeds measure the same
# amount of work.  Probabilities and grid values are k/P with P prime, so
# their denominators never shrink by cancellation; sensitivity points are
# k/100, so with the default step 1/1000 both ends have denominator 1000.


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"votepower-bench:{workload}:{seed}")


def _player(name: str, structure: dict) -> dict:
    return {"name": name, "structure": structure}


def _prob(rng: random.Random, prime: int) -> str:
    return f"{rng.randint(1, prime - 1)}/{prime}"


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """``parts`` positive integers summing to ``total``, uniformly at random."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def _pmf(rng: random.Random, votes: list[int], prime: int) -> dict:
    """Distribution over the given vote counts with shares of ``prime``."""
    shares = _split(rng, prime, len(votes))
    return {"kind": "pmf", "entries": [[v, f"{s}/{prime}"] for v, s in zip(sorted(votes), shares)]}


def _majority(players: list[dict], total: int) -> dict:
    """Game document with the quota just over half of ``total`` votes."""
    return {"quota": total // 2 + 1, "players": players}


def _many_players_game(rng: random.Random, n: int) -> dict:
    # Slot i holds 1 + i % 10 votes with kind MANY_PLAYERS_KINDS[i % 10]; the
    # seed draws the probabilities, supports and team splits.  Player order
    # stays fixed: it changes the intermediate product sizes.
    players = []
    for i in range(n):
        w = 1 + i % 10
        kind = MANY_PLAYERS_KINDS[i % len(MANY_PLAYERS_KINDS)]
        if kind == "random":
            s = {"kind": "random", "votes": w}
        elif kind == "bernoulli":
            s = {"kind": "bernoulli", "votes": w, "p": _prob(rng, 11)}
        elif kind == "pmf":
            s = _pmf(rng, [w, *rng.sample(range(w), 2 if w > 2 else 1)], 17)
        else:
            s = {"kind": "team", "weights": _split(rng, w, 2),
                 "p": _prob(rng, 13), "L": _prob(rng, 7)}
        players.append(_player(f"P{i}", s))
    return _majority(players, sum(1 + i % 10 for i in range(n)))


def _large_quota_game(rng: random.Random, scale: int, n: int) -> dict:
    votes = [scale, 3 * scale // 4, 2 * scale // 3, scale // 2, 3 * scale // 5][:n]
    players = [
        _player("pmf", _pmf(rng, [0, scale, *rng.sample(range(1, scale), 28)], 101)),
        _player("bernoulli", {"kind": "bernoulli", "votes": votes[1], "p": _prob(rng, 19)}),
        _player("random", {"kind": "random", "votes": votes[2]}),
    ]
    if n >= 4:
        players.append(_player("team", {"kind": "team", "weights": _split(rng, votes[3], 3),
                                        "p": _prob(rng, 13), "L": _prob(rng, 11)}))
    if n >= 5:
        players.append(_player("bernoulli2", {"kind": "bernoulli", "votes": votes[4],
                                              "p": _prob(rng, 17)}))
    return _majority(players, sum(votes))


def _classic_game(rng: random.Random, n: int) -> dict:
    weights = [rng.randint(1, 10) for _ in range(n)]
    players = [_player(f"P{i}", {"kind": "random", "votes": w}) for i, w in enumerate(weights)]
    return _majority(players, sum(weights))


def _grid(rng: random.Random, steps: int, pitch: int, prime: int) -> list[str]:
    """End points of a grid of values k/prime, 0 < k < prime, spaced by pitch/prime,
    at a seeded offset."""
    lo = rng.randint(1, prime - 1 - (steps - 1) * pitch)
    return [f"{lo}/{prime}", f"{lo + (steps - 1) * pitch}/{prime}"]


def _sweep_round(rng: random.Random) -> list[dict]:
    ops = []
    for preset, player in (("paper-eq25", "A"), ("paper-eq26", "B"),
                           ("paper-eq27", "C"), ("paper-eq28", "D")):
        ops.append({"call": "sweep", "preset": preset, "closed_form": preset[-4:],
                    "axes": [[f"{player}.p", *_grid(rng, 31, 1, 41), 31]]})
    for preset in ("paper-eq31", "paper-eq31", "paper-eq32"):
        ops.append({"call": "sweep", "preset": preset, "closed_form": None,
                    "axes": [["A.L", *_grid(rng, 7, 1, 13), 7],
                             ["A.p", *_grid(rng, 7, 1, 13), 7]]})
    for param in ("Dem.p", "Rep.p", "Dem.L"):
        ops.append({"call": "sweep", "preset": "senate-113", "closed_form": None,
                    "axes": [[param, *_grid(rng, 3, 2, 13), 3]]})
    ops.append({"call": "sensitivity", "preset": "senate-113", "params": ["Dem.p"],
                "point": {"Dem.p": f"{rng.randint(60, 95)}/100"}})
    ops.append({"call": "sensitivity", "preset": "senate-113", "params": ["Dem.L"],
                "point": {"Dem.L": f"{rng.randint(10, 90)}/100"}})
    return ops


def generate(workload: str, seed: int, rounds: int = POOL_ROUNDS) -> dict:
    """Input documents for ``rounds`` rounds of ``workload``; pure in the seed."""
    rng = _rng(workload, seed)
    if workload == "many-players":
        make = lambda: [{"game": _many_players_game(rng, n)} for n in MANY_PLAYERS_SIZES]
    elif workload == "large-quota":
        make = lambda: [{"game": _large_quota_game(rng, s, n)} for s, n in LARGE_QUOTA_SHAPES]
    elif workload == "classic":
        make = lambda: [{"game": _classic_game(rng, n)} for n in CLASSIC_SIZES]
    elif workload == "sweep":
        make = lambda: _sweep_round(rng)
    else:
        raise ValueError(f"unknown workload {workload!r} (expected one of {WORKLOADS})")
    pool = [make() for _ in range(rounds)]
    if workload == "sweep":
        rng = _rng("sweep-cli", seed)
        cli_op = {"call": "sweep", "preset": "paper-eq31", "closed_form": None,
                  "axes": [["A.L", *_grid(rng, 13, 1, 17), 13],
                           ["A.p", *_grid(rng, 13, 1, 17), 13]]}
    else:
        cli_op = pool[0][CLI_SLOT]
    return {"workload": workload, "seed": seed, "rounds": pool,
            "cli_op": cli_op, "cli": cli_command(workload, cli_op)}


def cli_command(workload: str, op: dict) -> list[str]:
    """CLI arguments that redo ``op``; ``GAME`` stands for its game file."""
    if workload in ("many-players", "large-quota"):
        return ["power", "--game", "GAME"]
    if workload == "classic":
        game = op["game"]
        return ["banzhaf", str(game["quota"]),
                *(str(p["structure"]["votes"]) for p in game["players"])]
    args = ["sweep", "--preset", op["preset"], "--exact"]
    for param, start, stop, steps in op["axes"]:
        args += ["--param", param, "--from", start, "--to", stop, "--steps", str(steps)]
    return args


def cli_result(workload: str, stdout: str):
    """The exact result the CLI printed, in the shape ``serialize`` gives."""
    if workload == "sweep":
        return stdout
    doc = json.loads(stdout)
    if workload == "classic":
        return {"counts": doc["marginal_counts"], "powers": doc["powers"]}
    return {"proper_game": doc["proper_game"],
            "players": [[p["name"], p["influence"], p["power"]] for p in doc["players"]]}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """The library side of one workload: set-up, ops and exact checks.

    Ops look the library function up on the ``votepower`` package at call
    time, so a tracer that wraps it there sees every call.
    """

    def __init__(self, vp, docs: dict) -> None:
        self.vp = vp
        self.name = docs["workload"]
        self.docs = docs["rounds"]
        self.cli_op = docs["cli_op"]
        self._presets: dict = {}
        self.rounds = [[self._prepare(op) for op in ops] for ops in self.docs]

    def _prepare(self, op: dict):
        vp = self.vp
        if self.name == "classic":
            game = op["game"]
            weights = [p["structure"]["votes"] for p in game["players"]]
            return lambda q=game["quota"], w=weights: vp.classic_banzhaf(q, w)
        if "game" in op:
            game = vp.load_game(op["game"])
            return lambda: vp.generalized_banzhaf(game)
        game = self._preset(op["preset"])
        if op["call"] == "sensitivity":
            params = [vp.ParamRef.parse(p) for p in op["params"]]
            return lambda: vp.sensitivity(game, params, point=op["point"])
        axes = [vp.SweepAxis(vp.ParamRef.parse(p), vp.grid_values(a, b, s))
                for p, a, b, s in op["axes"]]
        return lambda: vp.sweep(game, axes)

    def _preset(self, name: str):
        if name not in self._presets:
            self._presets[name] = self.vp.preset_game(name)
        return self._presets[name]

    def cli_expect(self):
        """The exact result the workload's CLI command must print."""
        return self.serialize(self._prepare(self.cli_op)())

    def serialize(self, result):
        """Exact, JSON-able form of one op's result."""
        if self.name == "classic":
            return {"counts": list(result.marginal_counts),
                    "powers": [str(p) for p in result.powers]}
        if self.name != "sweep":
            return {"proper_game": result.proper_game,
                    "players": [[name, str(value), str(result.powers[name])]
                                for name, value in result.influences.items()]}
        if isinstance(result, self.vp.SweepGrid):
            return result.to_csv(exact=True)
        return {"point": [[k, str(v)] for k, v in result.point], "step": str(result.step),
                "partials": [[name, key, repr(slope)] for name, key, slope in result.partials]}

    def check(self, op: dict, result) -> list[str]:
        """Problems with one op's exact result; empty when it passes."""
        if self.name == "classic":
            return _check_classic(op["game"], result)
        if self.name != "sweep":
            names = [p["name"] for p in op["game"]["players"]]
            return _check_power(result, names)
        if op["call"] == "sensitivity":
            return _check_sensitivity(result, len(op["params"]))
        problems = []
        cells = list(result.points())
        expected = math.prod(steps for *_, steps in op["axes"])
        if len(cells) != expected:
            problems.append(f"{len(cells)} cells, expected {expected}")
        for values, cell in cells:
            if cell is None:
                problems.append(f"degenerate cell at {values}")
                continue
            problems += _check_power(cell, list(result.player_names))
            if op["closed_form"]:
                want = self.vp.closed_form_beta(op["closed_form"], values[0])
                got = tuple(cell.powers[n] for n in result.player_names)
                if got != want:
                    problems.append(f"{op['closed_form']} at p={values[0]}: {got} != {want}")
        return problems

    @property
    def has_deep_check(self) -> bool:
        return self.name == "classic"

    def deep_check(self, op: dict, result) -> list[str]:
        """Costlier independent check, run on a sample of ops."""
        if not self.has_deep_check:
            return []
        report = self.vp.generalized_banzhaf(self.vp.load_game(op["game"]))
        if tuple(report.powers.values()) != result.powers:
            return ["classic powers differ from the generalized index on fifty-fifty players"]
        return []


def _check_power(report, names: list[str]) -> list[str]:
    problems = []
    if list(report.powers) != names or list(report.influences) != names:
        problems.append("players out of order")
    if sum(report.powers.values(), Fraction(0)) != 1:
        problems.append("powers do not sum to 1")
    if any(v < 0 for v in report.influences.values()):
        problems.append("negative influence")
    return problems


def _check_classic(game: dict, report) -> list[str]:
    weights = [p["structure"]["votes"] for p in game["players"]]
    counts = report.marginal_counts
    problems = []
    grand = sum(counts)
    if len(counts) != len(weights) or not grand:
        return ["wrong number of counts or nobody marginal"]
    if report.powers != tuple(Fraction(c, grand) for c in counts):
        problems.append("powers are not the normalized counts")
    if sum(report.powers) != 1:
        problems.append("powers do not sum to 1")
    ranked = sorted(zip(weights, counts))
    for (w1, c1), (w2, c2) in zip(ranked, ranked[1:]):
        if c2 < c1 or (w1 == w2 and c1 != c2):
            problems.append("counts are not monotone in weight")
            break
    return problems


def _check_sensitivity(report, params: int) -> list[str]:
    # The powers sum to 1 at both ends of every difference, so the exact
    # slopes of one parameter sum to 0; the floats keep only rounding error.
    problems = []
    by_key: dict[str, list[float]] = {}
    for _, key, slope in report.partials:
        by_key.setdefault(key, []).append(slope)
    if len(by_key) != params:
        problems.append(f"partials for {len(by_key)} parameters, expected {params}")
    for key, slopes in by_key.items():
        if abs(sum(slopes)) > 1e-9 * (1 + sum(abs(s) for s in slopes)):
            problems.append(f"partials of {key} sum to {sum(slopes)}, not 0")
    return problems
