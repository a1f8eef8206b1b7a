"""The library's edge rules, each stated once: what counts as a count, and
how a value is printed."""

import math
import random
import re
import signal
from contextlib import contextmanager
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest

from votepower.errors import GameValidationError, InputError
from votepower.model import (
    Game,
    Player,
    as_probability,
    exact_text,
    format_value,
    StructureSpec,
    bernoulli_structure,
    load_game,
    pmf_structure,
    random_structure,
    team_structure,
    uniform_team_structure,
)
from votepower.oracle import monte_carlo_influence
from votepower.poly import ONE, RationalPoly
from votepower.power import classic_banzhaf, influence_polynomial
from votepower.sweep import ParamRef, SweepAxis, grid_values, structure_series, sweep

PLAYERS = (Player.from_spec("A", StructureSpec("random", votes=1)),)
GAME = Game(1, PLAYERS)
DOC = {"players": [{"name": "A", "structure": {"kind": "random", "votes": 1}}]}

# Every public entry that takes a count, called with a bool in its place, and
# the error class that entry raises for any other bad count.
BOOL_COUNTS = {
    "bernoulli votes": (lambda: bernoulli_structure(True, "1/2"), GameValidationError),
    "pmf vote count": (lambda: pmf_structure([(False, 1)]), GameValidationError),
    "member weight": (lambda: team_structure([2, True], "1/2", 1), GameValidationError),
    "team size": (lambda: uniform_team_structure(True, "1/2", 1), GameValidationError),
    "game quota": (lambda: Game(True, PLAYERS), GameValidationError),
    "document quota": (lambda: load_game({"quota": True, **DOC}), GameValidationError),
    "classic quota": (lambda: classic_banzhaf(True, [1]), InputError),
    "classic weight": (lambda: classic_banzhaf(1, [1, True]), InputError),
    "influence quota": (lambda: influence_polynomial(random_structure(1), True), InputError),
    "series quota": (lambda: structure_series(random_structure(1), True), InputError),
    "grid steps": (lambda: grid_values(0, 1, True), InputError),
    "trials": (lambda: monte_carlo_influence(GAME, "A", True, 0), InputError),
    "degree": (lambda: RationalPoly({True: 1}), ValueError),
    "denominator": (lambda: RationalPoly.from_integers({0: 1}, True), ValueError),
    "exponent": (lambda: ONE ** False, ValueError),
    "precision": (lambda: format_value(Fraction(1, 3), True), InputError),
}


@pytest.mark.parametrize("entry", BOOL_COUNTS)
def test_a_bool_is_not_a_count(entry):
    call, error = BOOL_COUNTS[entry]
    message = r"must be a (positive|non-negative) integer, got (True|False)$"
    with pytest.raises(ValueError, match=message) as excinfo:
        call()
    assert type(excinfo.value) is error


def rounded(value: Fraction, precision: int) -> Fraction:
    """Reference: the value rounded half to even to ``precision`` significant
    digits by decimal division, which is correctly rounded."""
    context = Context(prec=precision, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return Fraction(context.divide(Decimal(value.numerator), Decimal(value.denominator)))


def printed_exponent(text: str) -> int:
    """The decimal exponent of a printed nonzero value, read from its text."""
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = mantissa.partition(".")
    if exponent:
        return int(exponent)
    if whole != "0":
        return len(whole) - 1
    return len(fraction.lstrip("0")) - len(fraction) - 1


def rounded_half_even(value: Fraction, precision: int, text: str) -> bool:
    """A second reference, in Fraction arithmetic and free of decimal's
    rounding: the printed value lies within half a unit of its last kept
    digit from the exact value, and on an exact tie that digit is even."""
    printed = Fraction(Decimal(text))
    unit = Fraction(10) ** (printed_exponent(text) - precision + 1) if printed else 1
    error = abs(value - printed)
    return error < unit / 2 or (error == unit / 2 and printed / unit % 2 == 0)


def random_fraction(rng: random.Random) -> Fraction:
    """A signed fraction of small, large or very long numerator and denominator;
    past 14,000 bits int-to-str conversion refuses either."""
    sizes = [(8, 8), (60, 90), (200, 20), (14_500, 14_500), (100, 14_600), (14_600, 100)]
    num_bits, den_bits = rng.choice(sizes)
    sign = rng.choice((-1, 1))
    return Fraction(sign * rng.getrandbits(num_bits), rng.getrandbits(den_bits) | 1)


def carries_and_ties():
    yield Fraction("9.9999996"), 7, "10"
    yield Fraction("0.000099999999"), 3, "0.0001"
    yield Fraction("9.5"), 1, "1e+01"
    yield Fraction("2.5"), 1, "2"
    yield Fraction("-3.5"), 1, "-4"
    yield Fraction(5, 12), 30, "0.416666666666666666666666666667"
    yield Fraction(1, 10**360), 6, "1e-360"
    yield Fraction(-123456789, 1), 3, "-1.23e+08"
    yield Fraction(0), 6, "0"
    # More digits than int-to-str conversion allows by default.
    yield Fraction(-1, 3), 5000, "-0." + "3" * 5000


# float's own ".Ng" layout: fixed point for exponents from -4 to N - 1, else
# one digit, the rest, and a signed exponent of at least two digits.
FIXED = re.compile(r"-?(0|[1-9]\d*)(\.\d*[1-9])?")
SCIENTIFIC = re.compile(r"-?[1-9](\.\d*[1-9])?e([+-]\d{2,})")


@pytest.mark.parametrize("precision", [*range(1, 41), 5000])
def test_format_value_is_the_exact_value_rounded(precision):
    rng = random.Random(precision)
    values = [random_fraction(rng) for _ in range(40)]
    for value in values:
        text = format_value(value, precision)
        assert Fraction(Decimal(text)) == rounded(value, precision)
        assert rounded_half_even(value, precision, text), text
        assert len(re.sub(r"e.*|[-.]", "", text).strip("0")) <= precision
        if SCIENTIFIC.fullmatch(text):
            assert not -4 <= int(text.partition("e")[2]) < precision, text
        else:
            assert FIXED.fullmatch(text), text
            magnitude = abs(Fraction(Decimal(text)))
            assert magnitude == 0 or Fraction(1, 10**4) <= magnitude < 10**precision, text
    for _ in range(40):
        # Normal and subnormal doubles of either sign, never zero.
        mantissa = rng.choice((-1, 1)) * (rng.getrandbits(52) | 1 << 52)
        double = math.ldexp(mantissa, rng.randint(-1126, 970))
        assert format_value(double, precision) == format(double, f".{precision}g")
    for value, digits, text in carries_and_ties():
        if digits == precision:
            assert format_value(value, precision) == text
            assert rounded_half_even(value, precision, text), text


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block after ``seconds``, so a call that
    loops forever fails the test instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("precision", [0, -1])
def test_a_precision_below_one_is_refused(precision):
    message = rf"precision must be a positive integer, got {precision}$"
    grid = sweep(
        Game(1, (Player.from_spec("A", StructureSpec("bernoulli", votes=1, p=Fraction(1, 2))),)),
        [SweepAxis(ParamRef("A", "p"), grid_values(0, 1, 3))],
    )
    with time_limit(5):
        with pytest.raises(InputError, match=message):
            format_value(Fraction(1, 3), precision)
        with pytest.raises(InputError, match=message):
            grid.to_csv(precision=precision)
    # The exact text never reads the precision.
    assert format_value(Fraction(1, 3), precision, exact=True) == "1/3"


def test_exact_text_is_str_without_a_length_limit():
    # random_fraction's longest integers are past int-to-str's limit.
    rng = random.Random(0)
    for value in [Fraction(0), Fraction(-7), Fraction(3, 4)] + [random_fraction(rng) for _ in range(60)]:
        text = exact_text(value)
        num, _, den = text.partition("/")
        assert (Decimal(num), Decimal(den or "1")) == (value.numerator, value.denominator)
        assert format_value(value, 6, exact=True) == text
        if max(value.numerator.bit_length(), value.denominator.bit_length()) < 14_000:
            assert text == str(value)


def test_to_doc_writes_probabilities_of_any_length():
    p = Fraction(1, 10**5000)
    specs = {
        "A": StructureSpec("bernoulli", votes=1, p=p),
        "B": StructureSpec("pmf", entries=((0, 1 - p), (1, p))),
        "C": StructureSpec("team", weights=(1, 1), p=p, L=p),
    }
    game = Game(2, tuple(Player.from_spec(name, spec) for name, spec in specs.items()))
    doc = game.to_doc()
    a, b, c = (player["structure"] for player in doc["players"])
    den = "1" + "0" * 5000
    assert a["p"] == c["p"] == c["L"] == b["entries"][1][1] == "1/" + den
    assert b["entries"][0][1] == "9" * 5000 + "/" + den
    assert load_game(doc) == game
    with pytest.raises(InputError, match=r"^probability: 20{4999} is outside \[0, 1\]$"):
        as_probability("2" + "0" * 4999)
