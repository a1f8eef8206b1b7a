"""End-to-end CLI behaviour: outputs, exit codes, determinism."""

import json
import time
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest

import votepower.power
from votepower.cli import MAX_PRECISION, main
from votepower.errors import InputError
from votepower.model import load_game
from votepower.oracle import McEstimate
from votepower.power import generalized_banzhaf, influence
from votepower.presets import COHESION_ASSIGNMENTS, PRESET_OPTIONS, preset_doc

F = Fraction


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestPowerCommand:
    def test_continuing_example(self, capsys):
        payload = run_json(capsys, "power", "--preset", "paper-6-4321-random")
        assert payload["quota"] == 6
        assert payload["proper_game"] is True
        powers = {p["name"]: p["power"] for p in payload["players"]}
        assert powers == {"A": "5/12", "B": "1/4", "C": "1/4", "D": "1/12"}
        influences = {p["name"]: p["influence"] for p in payload["players"]}
        assert influences == {"A": "5/16", "B": "3/16", "C": "3/16", "D": "1/16"}

    def test_non_uniform_preset(self, capsys):
        payload = run_json(capsys, "power", "--preset", "paper-sec32")
        powers = {p["name"]: F(p["power"]) for p in payload["players"]}
        assert powers == {"A": F(7, 30), "B": F(13, 30), "C": F(6, 30), "D": F(4, 30)}

    def test_senate_default_cohesion(self, capsys):
        payload = run_json(capsys, "power", "--preset", "senate-113", "--LD", "1", "--LR", "0")
        decimals = {p["name"]: float(p["power_decimal"]) for p in payload["players"]}
        assert decimals["Dem"] == pytest.approx(0.35, abs=0.01)
        assert decimals["Rep"] == pytest.approx(0.35, abs=0.01)
        assert decimals["Ind"] == pytest.approx(0.30, abs=0.01)

    def test_game_file(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(preset_doc("paper-6-4321-random")))
        payload = run_json(capsys, "power", "--game", str(path))
        assert payload["players"][0]["power"] == "5/12"

    def test_round_trip_preset_to_file(self, capsys, tmp_path):
        from votepower.model import load_game

        doc = preset_doc("senate-113")
        path = tmp_path / "senate.json"
        path.write_text(json.dumps(load_game(doc).to_doc()))
        direct = run_json(capsys, "power", "--preset", "senate-113")
        reloaded = run_json(capsys, "power", "--game", str(path))
        assert direct == reloaded

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "power", "--preset", "paper-eq31", "--p", "0.7", "--L", "2/5")
        _, second = run(capsys, "power", "--preset", "paper-eq31", "--p", "0.7", "--L", "2/5")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out = run(capsys, "power", "--preset", "paper-6-4321-random", "--out", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["players"][0]["power"] == "5/12"


class TestBanzhafCommand:
    def test_continuing_example(self, capsys):
        payload = run_json(capsys, "banzhaf", "6", "4", "3", "2", "1")
        assert payload["marginal_counts"] == [10, 6, 6, 2]
        assert payload["powers"] == ["5/12", "1/4", "1/4", "1/12"]

    def test_single_player(self, capsys):
        payload = run_json(capsys, "banzhaf", "3", "4")
        assert payload["marginal_counts"] == [2]
        assert payload["powers"] == ["1"]

    def test_matches_power_on_all_random_senate_weights(self, capsys, tmp_path):
        enum = run_json(capsys, "banzhaf", "60", "53", "45", "2")
        doc = {
            "quota": 60,
            "players": [
                {"name": "Dem", "structure": {"kind": "random", "votes": 53}},
                {"name": "Rep", "structure": {"kind": "random", "votes": 45}},
                {"name": "Ind", "structure": {"kind": "random", "votes": 2}},
            ],
        }
        path = tmp_path / "senate-random.json"
        path.write_text(json.dumps(doc))
        gf = run_json(capsys, "power", "--game", str(path))
        assert [F(x) for x in enum["powers"]] == [F(p["power"]) for p in gf["players"]]


class TestInfluencePolyCommand:
    def test_non_uniform_player(self, capsys):
        payload = run_json(capsys, "influence-poly", "--preset", "paper-sec32", "--player", "A")
        terms = {t["degree"]: F(t["coefficient"]) for t in payload["terms"]}
        assert terms == {2: F(2, 10), 3: F(5, 10), 4: F(1, 10), 5: F(1, 10)}
        assert payload["influence"] == "7/40"

    def test_fifty_fifty_player(self, capsys):
        payload = run_json(capsys, "influence-poly", "--preset", "paper-6-4321-random", "--player", "B")
        terms = {t["degree"]: F(t["coefficient"]) for t in payload["terms"]}
        assert terms == {3: F(1, 2), 4: F(1, 2), 5: F(1, 2)}

    def test_certain_voter_has_empty_series(self, capsys, tmp_path):
        doc = {
            "quota": 6,
            "players": [
                {"name": "A", "structure": {"kind": "deterministic", "votes": 4}},
                {"name": "B", "structure": {"kind": "random", "votes": 3}},
            ],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        payload = run_json(capsys, "influence-poly", "--game", str(path), "--player", "A")
        assert payload["terms"] == []
        assert payload["influence"] == "0"

    def test_influence_is_the_power_command_influence(self, capsys):
        power = run_json(capsys, "power", "--preset", "paper-sec32", "--strict-influence")
        for player in power["players"]:
            payload = run_json(
                capsys, "influence-poly", "--preset", "paper-sec32",
                "--player", player["name"], "--strict-influence",
            )
            assert payload["influence"] == player["influence"]


class TestSweepCommand:
    def test_matches_closed_form(self, capsys):
        from votepower.sweep import closed_form_beta

        code, out = run(
            capsys,
            "sweep", "--preset", "paper-eq25", "--param", "A.p",
            "--from", "0", "--to", "1", "--steps", "21", "--exact",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p_A,beta_A,beta_B,beta_C,beta_D"
        assert len(lines) == 22
        for line in lines[1:]:
            p, *betas = line.split(",")
            assert tuple(F(b) for b in betas) == closed_form_beta("eq25", F(p))

    def test_two_axes(self, capsys):
        code, out = run(
            capsys,
            "sweep", "--preset", "paper-eq32",
            "--param", "A.L", "--from", "0", "--to", "1", "--steps", "3",
            "--param", "A.p", "--from", "1/2", "--to", "1", "--steps", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "L_A,p_A,beta_A,beta_B,beta_C,beta_D"
        assert len(lines) == 10

    def test_mismatched_axis_flags(self, capsys):
        code, _ = run(
            capsys,
            "sweep", "--preset", "paper-eq25", "--param", "A.p", "--from", "0", "--to", "1",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "axes",
        [
            ["--param", "A.p", "--from", "0", "--to", "1", "--steps", "100000000"],
            ["--param", "A.L", "--from", "0", "--to", "1", "--steps", "1001",
             "--param", "A.p", "--from", "0", "--to", "1", "--steps", "1000"],
        ],
        ids=["one-axis", "two-axes"],
    )
    def test_grid_over_the_series_cap_exits_4(self, capsys, axes):
        started = time.perf_counter()
        code, out = run(capsys, "sweep", "--preset", "paper-eq31", *axes)
        assert time.perf_counter() - started < 1
        assert code == 4
        assert out == ""

    def test_repeated_parameter_exits_2(self, capsys):
        code, out = run(
            capsys,
            "sweep", "--preset", "paper-eq25", "--exact",
            "--param", "A.p", "--from", "0", "--to", "1", "--steps", "3",
            "--param", "A.p", "--from", "1/4", "--to", "3/4", "--steps", "2",
        )
        assert code == 2
        assert out == ""


class TestSensitivityCommand:
    def test_senate_defaults_to_both_cohesions(self, capsys):
        payload = run_json(capsys, "sensitivity", "--preset", "senate-113", "--LD", "1", "--LR", "0")
        assert payload["h"] == "1/1000"
        partials = {(p["power"], p["param"]): float(p["value"]) for p in payload["partials"]}
        assert partials[("Dem", "Dem.p")] == pytest.approx(0.04, abs=0.05)
        assert partials[("Dem", "Rep.p")] == pytest.approx(-0.36, abs=0.05)
        assert partials[("Rep", "Dem.p")] == pytest.approx(0.06, abs=0.05)
        assert partials[("Rep", "Rep.p")] == pytest.approx(-0.37, abs=0.05)

    def test_kink_exits_with_input_error(self, capsys):
        code, _ = run(capsys, "sensitivity", "--preset", "paper-eq25", "--p", "1/2")
        assert code == 2

    def test_game_without_parameters(self, capsys):
        code, _ = run(capsys, "sensitivity", "--preset", "paper-6-4321-random")
        assert code == 2

    def test_repeated_parameter_exits_2(self, capsys):
        code, out = run(
            capsys, "sensitivity", "--preset", "senate-113", "--param", "Dem.p", "--param", "Dem.p"
        )
        assert code == 2
        assert out == ""


class TestSeriesCommand:
    def test_deterministic_player(self, capsys, tmp_path):
        doc = {
            "quota": 6,
            "players": [
                {"name": "A", "structure": {"kind": "deterministic", "votes": 4}},
                {"name": "B", "structure": {"kind": "random", "votes": 3}},
            ],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "series", "--game", str(path), "--player", "A", "--exact")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "degree,pmf,influence"
        assert lines[1] == "0,0,0"
        assert lines[5] == "4,1,0"
        assert all(line.split(",")[2] == "0" for line in lines[1:])


    def test_quota_above_the_series_cap_exits_4(self, capsys, tmp_path):
        doc = {
            "quota": 10**9,
            "players": [
                {"name": "A", "structure": {"kind": "random", "votes": 3}},
                {"name": "B", "structure": {"kind": "random", "votes": 4}},
            ],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        started = time.perf_counter()
        code, out = run(capsys, "series", "--game", str(path), "--player", "A")
        assert time.perf_counter() - started < 1
        assert code == 4
        assert out == ""

    def test_player_over_the_series_cap_exits_4_without_building(self, capsys, tmp_path):
        doc = {
            "quota": 1_200_000,
            "players": [
                {"name": "A", "structure": {"kind": "pmf", "entries": [[0, "1/2"], [1_200_000, "1/2"]]}},
                {"name": "B", "structure": {"kind": "random", "votes": 1}},
            ],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            code, out = run(capsys, "series", "--game", str(path), "--player", "A")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4
        assert out == ""
        assert peak < 2**20

    def test_quota_below_the_series_cap_prints_every_degree(self, capsys, tmp_path):
        doc = {
            "quota": 10**5,
            "players": [
                {"name": "A", "structure": {"kind": "random", "votes": 3}},
                {"name": "B", "structure": {"kind": "random", "votes": 4}},
            ],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "series", "--game", str(path), "--player", "A", "--exact")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 10**5
        assert lines[1:5] == ["0,1/2,0", "1,0,0", "2,0,0", "3,1/2,0"]
        assert lines[5] == "4,,0"
        assert lines[-3:] == ["99997,,1/2", "99998,,1/2", "99999,,1/2"]


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        code, out = run(
            capsys,
            "verify", "--preset", "paper-6-4321-random", "--trials", "20000", "--seed", "7",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9  # 1 joint + 4 influence + 4 monte carlo
        assert all(line.startswith("PASS") for line in lines)

    def test_team_game_verifies(self, capsys):
        code, out = run(
            capsys,
            "verify", "--preset", "paper-eq31", "--p", "0.7", "--L", "0.4",
            "--trials", "2000", "--seed", "11",
        )
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_unlucky_seed_fails_with_code_5(self, capsys):
        # Seed 57 at 10000 trials lands a legitimate >3-sigma excursion for
        # player A; frozen here to exercise the failure path.
        code, out = run(
            capsys,
            "verify", "--preset", "paper-6-4321-random", "--trials", "10000", "--seed", "57",
        )
        assert code == 5
        fails = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1
        assert "monte carlo A" in fails[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_rare_influence_passes(self, capsys, seed):
        # Each senate influence is about 1.4e-4, so 2000 samples often never
        # leave a player undecided and their own standard error is 0.
        code, out = run(
            capsys,
            "verify", "--preset", "senate-113", "--trials", "2000", "--seed", str(seed),
        )
        assert code == 0, out

    @pytest.mark.parametrize("player", ["A", "D"])
    def test_wrong_exact_value_fails_monte_carlo(self, capsys, monkeypatch, player):
        def doubled(game, strict=False):
            report = generalized_banzhaf(game, strict)
            influences = {
                name: 2 * value if name == player else value
                for name, value in report.influences.items()
            }
            return replace(report, influences=influences)

        monkeypatch.setattr("votepower.cli.generalized_banzhaf", doubled)
        code, out = run(
            capsys,
            "verify", "--preset", "paper-6-4321-random", "--trials", "10000", "--seed", "0",
        )
        assert code == 5
        assert f"FAIL monte carlo {player}:" in out

    @pytest.mark.parametrize("gap, code", [(1.4, 0), (2, 5)])
    def test_a_sample_without_spread_is_held_to_the_floor(self, capsys, monkeypatch, gap, code):
        # A standard error of 0 falls back to the floor 1/(2N), so the check
        # allows a gap of 3/(2N): 1.4/N passes and 2/N fails.  A floor of 1/N
        # would pass both.
        def flat(game, who, trials, seed):
            return McEstimate(float(influence(game, who)) + gap / trials, 0.0, trials, seed)

        monkeypatch.setattr("votepower.cli.monte_carlo_influence", flat)
        got, out = run(
            capsys,
            "verify", "--preset", "paper-6-4321-random", "--trials", "1000", "--seed", "0",
        )
        assert got == code
        verdicts = {line.split()[0] for line in out.splitlines() if "monte carlo" in line}
        assert verdicts == {"PASS" if code == 0 else "FAIL"}

    def test_one_engine_pass_serves_every_influence(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return engine(*args, **kwargs)

        engine = votepower.power._influences
        monkeypatch.setattr(votepower.power, "_influences", counted)
        code, out = run(
            capsys, "verify", "--preset", "senate-113", "--trials", "2000", "--seed", "0"
        )
        assert code == 0, out
        assert len(calls) == 1

    def test_degenerate_game_verifies(self, capsys, tmp_path):
        # Every influence is zero, so `power` exits 3; verify still checks
        # each zero against the oracles.
        doc = {
            "quota": 6,
            "players": [
                {"name": "A", "structure": {"kind": "deterministic", "votes": 4}},
                {"name": "B", "structure": {"kind": "deterministic", "votes": 3}},
            ],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "verify", "--game", str(path))
        assert code == 0
        assert out == (
            "PASS joint vote distribution: enumeration matches polynomial product\n"
            "PASS influence A: first principles equal the polynomial route (0)\n"
            "PASS influence B: first principles equal the polynomial route (0)\n"
            "PASS monte carlo A: estimate 0 within 3 standard errors of 0 (10000 trials, seed 0)\n"
            "PASS monte carlo B: estimate 0 within 3 standard errors of 0 (10000 trials, seed 0)\n"
        )


class TestPresetDoc:
    def test_rejects_options_the_preset_does_not_take(self):
        with pytest.raises(InputError, match=r"does not take options \['L'\]"):
            preset_doc("paper-eq25", p="1/3", L="1/2")
        with pytest.raises(InputError, match=r"does not take options \['p'\]"):
            preset_doc("senate-113", p="1/2", LD="0")

    def test_passes_the_options_it_takes(self):
        doc = preset_doc("senate-113", LD="0", pR="9/10", cohesion="paper-text")
        dem, rep = (player["structure"] for player in doc["players"][:2])
        assert (dem["L"], dem["p"], rep["p"]) == ("0", "0.94", "9/10")

    @pytest.mark.parametrize("name", ["nope", ["paper-eq25"]])
    def test_unknown_preset(self, name):
        with pytest.raises(InputError, match="unknown preset"):
            preset_doc(name)

    @pytest.mark.parametrize("p", [None, "1/3"])
    @pytest.mark.parametrize("slot", range(4))
    def test_all_or_nothing_presets_replace_one_player(self, slot, p):
        # paper-eq25 to paper-eq28 make A, B, C or D all-or-nothing at p.
        expected = preset_doc("paper-6-4321-random")
        expected["players"][slot]["structure"] = {
            "kind": "bernoulli", "votes": 4 - slot, "p": p or "1/2",
        }
        doc = preset_doc(f"paper-eq{25 + slot}", p=p)
        assert json.dumps(doc) == json.dumps(expected)


class TestDecimals:
    def test_digits_past_a_double_are_the_values_own(self, capsys):
        payload = run_json(capsys, "power", "--preset", "paper-eq25", "--precision", "30")
        decimals = {p["name"]: p["power_decimal"] for p in payload["players"]}
        assert decimals["A"] == "0.416666666666666666666666666667"

    def test_an_influence_below_the_double_range_is_not_zero(self, capsys, tmp_path):
        # P0 tips the vote only when the other 119 all cast, so its influence
        # is (1/1000)^119 * min(1/1000, 999/1000) = 10^-360.
        player = {"kind": "bernoulli", "votes": 1, "p": "1/1000"}
        doc = {"quota": 120, "players": [{"name": f"P{i}", "structure": player} for i in range(120)]}
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        payload = run_json(capsys, "power", "--game", str(path))
        first = payload["players"][0]
        assert first["influence"] == f"1/{10**360}"
        assert first["influence_decimal"] == "1e-360"

    def test_precision_up_to_its_bound(self, capsys):
        payload = run_json(capsys, "power", "--preset", "paper-eq25", "--precision", str(MAX_PRECISION))
        decimals = {p["name"]: p["power_decimal"] for p in payload["players"]}
        assert decimals["A"] == "0.41" + "6" * (MAX_PRECISION - 3) + "7"

    def test_precision_past_its_bound_exits_4_before_the_game_is_read(self, capsys, tmp_path):
        # A missing game file would exit 2 if it were read.
        for source in (["--preset", "paper-eq25"], ["--game", str(tmp_path / "missing.json")]):
            code = main(["power", *source, "--precision", str(MAX_PRECISION + 1)])
            captured = capsys.readouterr()
            assert (code, captured.out) == (4, "")
            assert captured.err == f"error: precision must be at most {MAX_PRECISION} digits\n"


def tiny_probability_game(tmp_path):
    """Two all-or-nothing voters at p = 10^-2500 with quota 2.  Each tips the
    vote only when the other casts, so each influence is p * min(p, 1 - p) =
    10^-5000, whose 5,001-digit denominator is past int-to-str's default
    limit of 4,300 digits."""
    player = {"kind": "bernoulli", "votes": 1, "p": "1/1" + "0" * 2500}
    doc = {"quota": 2, "players": [{"name": name, "structure": player} for name in "AB"]}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    return doc, str(path)


class TestExactText:
    def test_exact_fields_print_the_whole_fraction(self, capsys, tmp_path):
        doc, path = tiny_probability_game(tmp_path)
        influences = generalized_banzhaf(load_game(doc)).influences
        payload = run_json(capsys, "power", "--game", path)
        for player in payload["players"]:
            num, den = player["influence"].split("/")
            assert len(den) == 5001
            exact = influences[player["name"]]
            assert (Decimal(num), Decimal(den)) == (exact.numerator, exact.denominator)
            assert player["influence_decimal"] == "1e-5000"
            assert player["power"] == "1/2"

    @pytest.mark.parametrize("argv", [
        ["influence-poly", "--player", "A"],
        ["verify", "--trials", "100"],
    ])
    def test_every_exact_printer_takes_long_values(self, capsys, tmp_path, argv):
        _, path = tiny_probability_game(tmp_path)
        code = main([*argv, "--game", path])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert "0" * 2500 in captured.out


class TestExitCodes:
    def test_unknown_preset(self, capsys):
        # argparse rejects bad --preset choices itself, also with code 2.
        with pytest.raises(SystemExit) as exc:
            main(["power", "--preset", "nope"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_missing_game_file(self, capsys):
        code, _ = run(capsys, "power", "--game", "/nonexistent/game.json")
        assert code == 2

    def test_invalid_json_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(capsys, "power", "--game", str(path))
        assert code == 2

    def test_deeply_nested_game_file(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000)
        code = main(["power", "--game", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}: the document is nested too deeply to parse\n"

    def test_game_and_preset_together(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(preset_doc("paper-6-4321-random")))
        code, _ = run(capsys, "power", "--game", str(path), "--preset", "paper-6-4321-random")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["verify", "--preset", "paper-6-4321-random", "--strict-influence"],
        ["power", "--preset", "paper-6-4321-random", "--exact"],
    ])
    def test_flag_the_subcommand_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_player(self, capsys):
        code, _ = run(capsys, "influence-poly", "--preset", "paper-6-4321-random", "--player", "Z")
        assert code == 2

    def test_degenerate_game(self, capsys, tmp_path):
        doc = {
            "quota": 6,
            "players": [
                {"name": "A", "structure": {"kind": "deterministic", "votes": 4}},
                {"name": "B", "structure": {"kind": "deterministic", "votes": 3}},
            ],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, "power", "--game", str(path))
        assert code == 3

    def test_capacity_exceeded(self, capsys):
        code, _ = run(capsys, "banzhaf", "10", *(["1"] * 25))
        assert code == 4

    def test_preset_rejects_foreign_options(self, capsys):
        code, _ = run(capsys, "power", "--preset", "paper-6-4321-random", "--p", "1/2")
        assert code == 2

    @pytest.mark.parametrize("name", PRESET_OPTIONS)
    def test_every_preset_option_reaches_the_preset(self, capsys, name):
        value = sorted(COHESION_ASSIGNMENTS)[0] if name == "cohesion" else "1/2"
        code = main(["power", "--preset", "paper-6-4321-random", f"--{name}", value])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            f"error: preset 'paper-6-4321-random' does not take options ['{name}']\n"
        )

    def test_bad_precision(self, capsys):
        code = main(["power", "--preset", "paper-6-4321-random", "--precision", "0"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: precision must be a positive integer, got 0\n"


class TestStrictInfluence:
    def test_restricted_mode_zeroes_an_over_quota_player(self, capsys, tmp_path):
        # One player whose weight alone meets the quota: by default they keep
        # the power the coalition count gives them; in strict mode every
        # influence is zero and the game degenerates.
        doc = {
            "quota": 3,
            "players": [{"name": "A", "structure": {"kind": "random", "votes": 4}}],
        }
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        payload = run_json(capsys, "power", "--game", str(path))
        assert payload["players"][0]["power"] == "1"
        code, _ = run(capsys, "power", "--game", str(path), "--strict-influence")
        assert code == 3
