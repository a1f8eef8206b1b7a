"""Voting structures and the weighted game container.

A voting structure is an exact probability distribution over how many votes
a player casts for a motion, held as integer numerators over one common
denominator.  The constructors here cover the standard cases: fifty-fifty
all-or-nothing voting, deterministic voting, all-or-nothing with an
arbitrary probability, a free-form distribution, and leader-led teams whose
members follow the leader's wish independently with some probability.
No constructor does ``Fraction`` arithmetic: teams are built from
binomial numerators on the integer product engine, one product chain per
team, since a defying member casts exactly when a follower would not.
Every distribution wraps one ``RationalPoly``, whose integers the power
engines read as stored.

Games are loaded from a small JSON schema.  Probabilities in documents must
be strings ("0.94" or "47/50") so they stay exact; ordinary JSON numbers
would round.  ``as_probability`` reads a probability with ``poly``'s
``parse_rational`` and checks its range; ``poly``'s ``exact_text`` prints
an exact value, and ``format_value`` prints one exactly or in decimal.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from decimal import MAX_EMAX, ROUND_HALF_EVEN, Context
from fractions import Fraction
from math import comb, floor, lcm, log10
from typing import Iterable, Mapping, Sequence, Union

from .errors import GameValidationError, InputError, as_count
from .poly import RationalPoly, exact_text, int_product, parse_rational

ProbabilityLike = Union[Fraction, int, str]

HALF = Fraction(1, 2)


def as_probability(value: ProbabilityLike, where: str = "probability") -> Fraction:
    """Read a string ("0.94" or "47/50"), int, or Fraction as an exact
    probability in [0, 1].

    A ``Fraction`` is returned as it is (it is immutable), so a value parsed
    once is never parsed again; the range is checked on its integers.
    """
    try:
        p = parse_rational(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        # A float's refusal says why; anything else could not be read.
        reason = exc if isinstance(value, float) else f"cannot parse {value!r} as a rational number"
        raise InputError(f"{where}: {reason}") from exc
    if not 0 <= p.numerator <= p.denominator:
        raise InputError(f"{where}: {exact_text(p)} is outside [0, 1]")
    return p


def format_value(value: Union[Fraction, float], precision: int, exact: bool = False) -> str:
    """One value as it is printed: the fraction itself (num/den) when
    ``exact``, else ``precision`` significant digits.

    The digits are the exact value's, rounded half to even, so a float
    prints as ``format(value, f".{precision}g")`` does and a fraction prints
    its own digits however small or long it is.  One integer division keeps
    at least precision + 1 digits and marks a nonzero remainder with one
    more digit, and a ``decimal`` context rounds those digits.  They are
    laid out as that format lays them out: fixed point for decimal
    exponents from -4 to precision - 1, else one digit, the rest, and a
    signed exponent of at least two digits; trailing zeros are dropped.
    ``precision`` must be a positive integer (``InputError`` otherwise).
    """
    if exact:
        return exact_text(value)
    as_count(precision, "precision")
    value = Fraction(value)
    if not value:
        return "0"
    num, den = abs(value.numerator), value.denominator
    # The bit lengths put the decimal exponent within one of its true value,
    # so the quotient has precision + 1 to precision + 3 digits.
    shift = precision + 1 - floor((num.bit_length() - den.bit_length()) * log10(2))
    digits, rest = divmod(num * 10 ** max(shift, 0), den * 10 ** max(-shift, 0))
    context = Context(prec=precision, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX)
    rounded = context.create_decimal(10 * digits + bool(rest))
    exponent = rounded.adjusted() - shift - 1
    text = "".join(map(str, rounded.as_tuple().digits)).rstrip("0")
    sign = "-" if value < 0 else ""
    if not -4 <= exponent < precision:
        mantissa = text[0] + ("." + text[1:] if text[1:] else "")
        return f"{sign}{mantissa}e{exponent:+03d}"
    if exponent < 0:
        return f"{sign}0.{'0' * (-exponent - 1)}{text}"
    whole, fraction = text[: exponent + 1].ljust(exponent + 1, "0"), text[exponent + 1:]
    return f"{sign}{whole}.{fraction}" if fraction else f"{sign}{whole}"


@dataclass(frozen=True, repr=False)
class VoteDistribution:
    """A normalized distribution over the number of votes cast.

    ``pmf`` is the distribution as a polynomial: the coefficient of x^j is
    the probability of casting exactly j votes.  ``den`` and ``numerators``
    read its canonical integers, so distributions built different ways
    compare and hash equal when their probabilities are equal.  Construction
    checks exact normalization in integers: numerators must be non-negative
    and sum to ``den``.  ``from_integers`` builds a distribution from
    numerators over any denominator.
    """

    pmf: RationalPoly

    def __post_init__(self) -> None:
        den, terms = self.pmf.den, self.pmf.numerators
        negative = [d for d, c in terms.items() if c < 0]
        if negative:
            lowest = min(negative)
            raise GameValidationError(
                f"negative probability {exact_text(Fraction(terms[lowest], den))} "
                f"for {lowest} votes"
            )
        total = sum(terms.values())
        if total != den:
            raise GameValidationError(
                f"probabilities sum to {exact_text(Fraction(total, den))}, not 1"
            )

    @classmethod
    def from_integers(cls, numerators: Mapping[int, int], den: int) -> VoteDistribution:
        """The distribution with P(j) = numerators[j] / den; zero entries are
        dropped."""
        return cls(RationalPoly.from_integers(numerators, den))

    def __repr__(self) -> str:
        return f"VoteDistribution({self.pmf!r})"

    @property
    def den(self) -> int:
        """The least common denominator of the probabilities."""
        return self.pmf.den

    @property
    def numerators(self) -> Mapping[int, int]:
        """Vote count -> integer numerator of its probability over ``den``;
        shared with the polynomial, so nothing may modify it."""
        return self.pmf.numerators

    @property
    def max_votes(self) -> int:
        return max(self.numerators)

    def support(self) -> tuple[int, ...]:
        """Vote counts with nonzero probability, ascending."""
        return tuple(sorted(self.numerators))

    def prob_exactly(self, votes: int) -> Fraction:
        return self.pmf.coeff(votes)

    def prob_at_least(self, votes: int) -> Fraction:
        """Probability of casting at least ``votes`` votes."""
        return Fraction(sum(c for d, c in self.numerators.items() if d >= votes), self.den)


def bernoulli_structure(votes: int, p: ProbabilityLike) -> VoteDistribution:
    """Casts all ``votes`` votes with probability p, none otherwise."""
    as_count(votes, "votes", GameValidationError)
    p = as_probability(p, "p")
    a, b = p.numerator, p.denominator
    return VoteDistribution.from_integers({0: b - a, votes: a}, b)


def random_structure(votes: int) -> VoteDistribution:
    """Equally likely to cast all ``votes`` votes or none (bernoulli with p = 1/2)."""
    return bernoulli_structure(votes, HALF)


def deterministic_structure(votes: int) -> VoteDistribution:
    """Always casts all ``votes`` votes (bernoulli with p = 1)."""
    return bernoulli_structure(votes, 1)


def pmf_structure(entries: Iterable[tuple[int, ProbabilityLike]]) -> VoteDistribution:
    """Free-form distribution from (votes, probability) pairs, put over the
    least common multiple of their denominators."""
    coeffs: dict[int, Fraction] = {}
    for votes, raw in entries:
        as_count(votes, "vote count", GameValidationError, least=0)
        if votes in coeffs:
            raise GameValidationError(f"duplicate entry for {votes} votes")
        coeffs[votes] = as_probability(raw, f"probability of {votes} votes")
    den = lcm(*(q.denominator for q in coeffs.values()))
    return VoteDistribution.from_integers(
        {v: q.numerator * (den // q.denominator) for v, q in coeffs.items()}, den
    )


def _members(weight: int, k: int, cast: int, abstain: int) -> dict[int, int]:
    """k independent members of one weight, each casting with probability
    cast / (cast + abstain): numerators over (cast + abstain)^k."""
    terms = {j * weight: comb(k, j) * cast**j * abstain ** (k - j) for j in range(k + 1)}
    return {d: c for d, c in terms.items() if c}


def team_structure(
    weights: Sequence[int], p: ProbabilityLike, L: ProbabilityLike
) -> VoteDistribution:
    """Leader-led team over members with the given vote weights.

    The leader wants every member to cast their votes with probability L.
    Each member independently follows the leader's wish with probability p,
    and does the exact opposite otherwise.

    With p = a/b, members of equal weight form one binomial factor, and the
    factors multiply on the integer engine into the follow branch, numerators
    over b^K (K members), without any ``Fraction`` arithmetic.  A defying
    member casts exactly when a follower would not, so the defy branch is the
    follow branch reflected, x^W * follow(1/x) for the total weight W, and
    needs no product of its own.  With L = c/e the team is
    c * follow + (e - c) * defy over e * b^K.
    """
    weights = tuple(weights)
    if not weights:
        raise GameValidationError("a team needs at least one member")
    for w in weights:
        as_count(w, "member weight", GameValidationError)
    p = as_probability(p, "p")
    L = as_probability(L, "L")
    a, b = p.numerator, p.denominator
    c, e = L.numerator, L.denominator
    top = sum(weights)
    factors = [_members(w, k, a, b - a) for w, k in Counter(weights).items()]
    follow = factors[0]
    for factor in factors[1:]:
        follow = int_product(follow, factor, top)
    mixed: Counter[int] = Counter()
    for d, count in follow.items():
        mixed[d] += c * count
        mixed[top - d] += (e - c) * count
    return VoteDistribution.from_integers(mixed, e * b ** len(weights))


def uniform_team_structure(
    n: int, p: ProbabilityLike, L: ProbabilityLike
) -> VoteDistribution:
    """Team of ``n`` members holding one vote each."""
    as_count(n, "team size", GameValidationError)
    return team_structure((1,) * n, p, L)


# Each structure kind's builder and its JSON fields after "kind", in document
# order.  The fields are also the builder's positional arguments.
_KINDS = {
    "random": (random_structure, ("votes",)),
    "deterministic": (deterministic_structure, ("votes",)),
    "bernoulli": (bernoulli_structure, ("votes", "p")),
    "pmf": (pmf_structure, ("entries",)),
    "team": (team_structure, ("weights", "p", "L")),
    "uniform_team": (uniform_team_structure, ("n", "p", "L")),
}

KINDS = tuple(_KINDS)

# The fields that sweeps and sensitivities may vary.
PARAMETERS = ("p", "L")


@dataclass(frozen=True)
class StructureSpec:
    """Declarative description of a voting structure.

    Mirrors the JSON game schema one field to one, which keeps loading,
    serialization, and parameter substitution for sweeps trivial.
    """

    kind: str
    votes: int | None = None
    p: Fraction | None = None
    L: Fraction | None = None
    weights: tuple[int, ...] | None = None
    n: int | None = None
    entries: tuple[tuple[int, Fraction], ...] | None = None

    def _entry(self) -> tuple:
        if self.kind not in KINDS:
            raise GameValidationError(f"unknown structure kind {self.kind!r}")
        return _KINDS[self.kind]

    def build(self) -> VoteDistribution:
        builder, fields = self._entry()
        return builder(*(getattr(self, f) for f in fields))

    def parameters(self) -> tuple[str, ...]:
        """Names of the tunable fields this structure kind exposes."""
        fields = _KINDS[self.kind][1] if self.kind in KINDS else ()
        return tuple(f for f in fields if f in PARAMETERS)

    def with_parameter(self, field: str, value: ProbabilityLike) -> StructureSpec:
        if field not in self.parameters():
            raise InputError(
                f"structure kind {self.kind!r} has no parameter {field!r}"
            )
        return replace(self, **{field: as_probability(value, field)})

    def to_json(self) -> dict:
        _, fields = self._entry()
        return {"kind": self.kind, **{f: _CODECS[f][1](getattr(self, f)) for f in fields}}


@dataclass(frozen=True)
class Player:
    """A named participant with a voting structure."""

    name: str
    spec: StructureSpec
    structure: VoteDistribution

    @classmethod
    def from_spec(cls, name: str, spec: StructureSpec) -> Player:
        if not name or not isinstance(name, str):
            raise GameValidationError("player name must be a nonempty string")
        return cls(name, spec, spec.build())


@dataclass(frozen=True)
class Game:
    """A quota plus an ordered list of players."""

    quota: int
    players: tuple[Player, ...]

    def __post_init__(self) -> None:
        as_count(self.quota, "quota", GameValidationError)
        if not self.players:
            raise GameValidationError("a game needs at least one player")
        counts = Counter(p.name for p in self.players)
        dupes = sorted(n for n, k in counts.items() if k > 1)
        if dupes:
            raise GameValidationError(f"duplicate player names: {dupes}")

    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.players)

    @property
    def total_max_votes(self) -> int:
        return sum(p.structure.max_votes for p in self.players)

    @property
    def is_proper(self) -> bool:
        """True when the quota exceeds half the total votes in play."""
        return 2 * self.quota > self.total_max_votes

    def player(self, name: str) -> Player:
        for p in self.players:
            if p.name == name:
                return p
        raise InputError(f"unknown player {name!r}")

    def with_parameters(self, changes: Mapping[tuple[str, str], ProbabilityLike]) -> Game:
        """A copy of the game with players' p or L replaced, keyed by
        (player name, field); each changed player is rebuilt once."""
        specs: dict[str, StructureSpec] = {}
        for (name, field), value in changes.items():
            specs[name] = specs.get(name, self.player(name).spec).with_parameter(field, value)
        players = tuple(
            Player.from_spec(p.name, specs[p.name]) if p.name in specs else p
            for p in self.players
        )
        return Game(self.quota, players)

    def with_parameter(self, name: str, field: str, value: ProbabilityLike) -> Game:
        """A copy of the game with one player's p or L replaced."""
        return self.with_parameters({(name, field): value})

    def to_doc(self) -> dict:
        """Serialize back to the JSON document schema."""
        return {
            "quota": self.quota,
            "players": [
                {"name": p.name, "structure": p.spec.to_json()} for p in self.players
            ],
        }


def _json_int(value, where: str) -> int:
    return as_count(value, where, GameValidationError, least=0)


def _json_probability(value, where: str) -> Fraction:
    if not isinstance(value, str):
        raise GameValidationError(
            f'{where}: probabilities must be strings like "0.94" or "47/50", '
            f"got {value!r}"
        )
    try:
        return as_probability(value, where)
    except InputError as exc:
        raise GameValidationError(str(exc)) from exc


def _json_weights(raw, where: str) -> tuple[int, ...]:
    if not isinstance(raw, list) or not raw:
        raise GameValidationError(f"{where}: expected a non-empty array")
    return tuple(_json_int(w, f"{where}[{i}]") for i, w in enumerate(raw))


def _json_entries(raw, where: str) -> tuple[tuple[int, Fraction], ...]:
    if not isinstance(raw, list) or not raw:
        raise GameValidationError(f"{where}: expected a non-empty array")
    entries = []
    for i, item in enumerate(raw):
        spot = f"{where}[{i}]"
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise GameValidationError(f"{spot}: expected a [votes, probability] pair")
        entries.append(
            (_json_int(item[0], f"{spot}[0]"), _json_probability(item[1], f"{spot}[1]"))
        )
    return tuple(entries)


def _as_is(value):
    return value


# How each structure field is read from a document (decode) and written back
# (encode).  Probabilities are written as exact fraction strings.
_CODECS = {
    "votes": (_json_int, _as_is),
    "n": (_json_int, _as_is),
    "p": (_json_probability, exact_text),
    "L": (_json_probability, exact_text),
    "weights": (_json_weights, list),
    "entries": (_json_entries, lambda entries: [[v, exact_text(q)] for v, q in entries]),
}


def _spec_from_json(obj, where: str) -> StructureSpec:
    if not isinstance(obj, dict):
        raise GameValidationError(f"{where}: expected an object")
    kind = obj.get("kind")
    # A tuple test, not a dict lookup, so an unhashable kind is reported too.
    if kind not in KINDS:
        raise GameValidationError(
            f"{where}.kind: unknown structure kind {kind!r} (expected one of {list(KINDS)})"
        )
    required = _KINDS[kind][1]
    missing = [f for f in required if f not in obj]
    if missing:
        raise GameValidationError(f"{where}: missing fields {missing} for kind {kind!r}")
    extras = sorted(set(obj) - {"kind", *required})
    if extras:
        raise GameValidationError(f"{where}: unexpected fields {extras} for kind {kind!r}")

    fields = {f: _CODECS[f][0](obj[f], f"{where}.{f}") for f in required}
    return StructureSpec(kind, **fields)


def load_game(doc) -> Game:
    """Validate a game description document and build the Game.

    Errors name the offending player and field path.  ``Player.from_spec``
    checks each player's name, and its errors get the player's path in
    front, as the structure's errors do.
    """
    if not isinstance(doc, dict):
        raise GameValidationError("game document must be a JSON object")
    extras = sorted(set(doc) - {"quota", "players"})
    if extras:
        raise GameValidationError(f"unexpected top-level fields {extras}")
    quota = as_count(doc.get("quota"), "quota", GameValidationError)
    raw_players = doc.get("players")
    if not isinstance(raw_players, list) or not raw_players:
        raise GameValidationError("players: must be a non-empty array")

    players = []
    for i, entry in enumerate(raw_players):
        where = f"players[{i}]"
        if not isinstance(entry, dict):
            raise GameValidationError(f"{where}: expected an object")
        extras = sorted(set(entry) - {"name", "structure"})
        if extras:
            raise GameValidationError(f"{where}: unexpected fields {extras}")
        name = entry.get("name")
        where = f"{where} ({name})"
        spec = _spec_from_json(entry.get("structure"), f"{where}.structure")
        try:
            players.append(Player.from_spec(name, spec))
        except GameValidationError as exc:
            raise GameValidationError(f"{where}: {exc}") from exc
    return Game(quota, tuple(players))
