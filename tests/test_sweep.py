"""Grid sweeps, closed-form agreement, sensitivities, and CSV emission."""

import math
import random
import sys
from fractions import Fraction

import pytest

from votepower.errors import CapacityError, InputError
from votepower.model import (
    StructureSpec,
    deterministic_structure,
    load_game,
    pmf_structure,
    uniform_team_structure,
)
from votepower.power import SERIES_CAP, generalized_banzhaf
from votepower.presets import preset_game
from votepower.sweep import (
    ParamRef,
    SweepAxis,
    closed_form_beta,
    grid_values,
    sensitivity,
    structure_series,
    sweep,
)

F = Fraction
HALF = F(1, 2)


def unreachable(*args, **kwargs):
    raise AssertionError("a grid point was evaluated")


class TestGridValues:
    def test_exact_spacing(self):
        values = grid_values(0, 1, 21)
        assert values == tuple(F(k, 20) for k in range(21))

    def test_single_point(self):
        assert grid_values("1/3", "1/3", 1) == (F(1, 3),)

    def test_reversed_endpoints(self):
        assert grid_values(1, 0, 3) == (F(1), HALF, F(0))

    def test_bad_steps(self):
        with pytest.raises(InputError):
            grid_values(0, 1, 0)

    def test_steps_over_the_series_cap_raise_before_building(self):
        with pytest.raises(CapacityError):
            grid_values(0, 1, SERIES_CAP + 1)
        assert len(grid_values(0, 1, 1000)) == 1000


class TestParamRef:
    def test_parse(self):
        ref = ParamRef.parse("Dem.p")
        assert (ref.player, ref.field) == ("Dem", "p")
        assert ParamRef.parse("my.team.L").player == "my.team"

    def test_parse_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            ParamRef.parse("Dem")
        with pytest.raises(InputError):
            ParamRef.parse("Dem.q")

    def test_check_requires_a_tunable_structure(self):
        game = preset_game("paper-6-4321-random")
        with pytest.raises(InputError, match="no parameter"):
            ParamRef("A", "p").check(game)


class TestSweep:
    def test_one_axis_endpoints_and_middle(self):
        game = preset_game("paper-eq25")
        grid = sweep(game, [SweepAxis(ParamRef("A", "p"), (F(0), HALF, F(1)))])
        powers = [tuple(cell.powers.values()) for cell in grid.cells]
        assert powers[0] == (F(0), F(1, 3), F(1, 3), F(1, 3))
        assert powers[1] == (F(5, 12), F(1, 4), F(1, 4), F(1, 12))
        assert powers[2] == (F(0), HALF, HALF, F(0))

    def test_single_point_matches_direct_evaluation(self):
        game = preset_game("paper-eq26")
        grid = sweep(game, [SweepAxis(ParamRef("B", "p"), (F(3, 10),))])
        direct = generalized_banzhaf(game.with_parameter("B", "p", F(3, 10)))
        assert grid.cells == (direct,)

    @pytest.mark.parametrize("preset", ["paper-eq31", "paper-eq32"])
    def test_two_axis_team_game_shape(self, preset):
        # Led-team power surface: zero wherever both the leader and the
        # members are fully decided, flat in L once members flip coins, and
        # globally maximal where the team collapses to a fifty-fifty block
        # voter (obedient members, undecided leader).
        game = preset_game(preset)
        values = (F(0), F(1, 4), HALF, F(3, 4), F(1))
        grid = sweep(
            game,
            [SweepAxis(ParamRef("A", "L"), values), SweepAxis(ParamRef("A", "p"), values)],
        )
        a_power = [[grid.cell(i, j).powers["A"] for j in range(5)] for i in range(5)]
        for corner_l, corner_p in ((0, 0), (0, 4), (4, 0), (4, 4)):
            assert a_power[corner_l][corner_p] == 0
        assert len({a_power[i][2] for i in range(5)}) == 1
        peak = max(v for row in a_power for v in row)
        assert peak == a_power[2][0] == a_power[2][4] == F(5, 12)

    def test_wish_and_obedience_flip_leaves_grid_unchanged(self):
        game = preset_game("paper-eq31")
        values = (F(0), F(1, 4), HALF, F(3, 4), F(1))
        grid = sweep(
            game,
            [SweepAxis(ParamRef("A", "L"), values), SweepAxis(ParamRef("A", "p"), values)],
        )
        for i in range(5):
            for j in range(5):
                assert grid.cell(i, j) == grid.cell(4 - i, 4 - j)

    def test_degenerate_points_become_empty_cells(self):
        game = load_game(
            {
                "quota": 6,
                "players": [
                    {"name": "A", "structure": {"kind": "bernoulli", "votes": 4, "p": "1/2"}},
                    {"name": "B", "structure": {"kind": "deterministic", "votes": 3}},
                ],
            }
        )
        grid = sweep(game, [SweepAxis(ParamRef("A", "p"), (F(0), HALF, F(1)))])
        assert grid.cells[0] is None
        assert grid.cells[1] is not None
        assert grid.cells[2] is None

    def test_builds_each_swept_player_once_per_point(self, monkeypatch):
        # A 2-axis sweep over one player's L and p rebuilds that player once
        # per grid point, not once per axis.
        game = preset_game("paper-eq31")
        builds = []
        original = StructureSpec.build

        def spy(spec):
            builds.append(spec)
            return original(spec)

        monkeypatch.setattr(StructureSpec, "build", spy)
        values = grid_values(0, 1, 7)
        sweep(game, [SweepAxis(ParamRef("A", "L"), values), SweepAxis(ParamRef("A", "p"), values)])
        assert len(builds) == 49
        assert {(spec.L, spec.p) for spec in builds} == {(L, p) for L in values for p in values}

    # On a 3x3 grid the first two used to read cells (1, 2) and (2, 2); the
    # third raised a bare IndexError.  A range holds True and 1.0, which
    # used to read cell 1 and raise a bare TypeError.
    @pytest.mark.parametrize(
        "indices, message",
        [((0, 5), "index 5 is outside axis A.p"), ((0, -1), "index -1 is outside axis A.p"),
         ((3, 0), "index 3 is outside axis A.L"),
         ((0, True), r"index on axis A.p must be a non-negative integer, got True$"),
         ((1.0, 0), r"index on axis A.L must be a non-negative integer, got 1.0$")],
    )
    def test_cell_rejects_an_index_outside_its_axis(self, indices, message):
        game = preset_game("paper-eq31")
        values = (F(0), HALF, F(1))
        grid = sweep(
            game,
            [SweepAxis(ParamRef("A", "L"), values), SweepAxis(ParamRef("A", "p"), values)],
        )
        with pytest.raises(InputError, match=message):
            grid.cell(*indices)

    def test_axis_count_enforced(self):
        game = preset_game("paper-eq25")
        axis = SweepAxis(ParamRef("A", "p"), (HALF,))
        with pytest.raises(InputError):
            sweep(game, [])
        with pytest.raises(InputError):
            sweep(game, [axis, axis, axis])

    def test_grid_over_the_series_cap_raises_before_any_point(self, monkeypatch):
        # 1,001 x 1,000 points, each axis within the cap, one CSV row each.
        # The package's ``sweep`` attribute is the function, so reach the
        # module through sys.modules.
        monkeypatch.setattr(sys.modules["votepower.sweep"], "generalized_banzhaf", unreachable)
        game = preset_game("paper-eq31")
        axes = [
            SweepAxis(ParamRef("A", "L"), grid_values(0, 1, 1001)),
            SweepAxis(ParamRef("A", "p"), grid_values(0, 1, 1000)),
        ]
        with pytest.raises(CapacityError, match="1001000 grid points"):
            sweep(game, axes)

    def test_repeated_parameter_raises_before_any_point(self, monkeypatch):
        # A second axis on A.p would overwrite the first at every point.
        monkeypatch.setattr(sys.modules["votepower.sweep"], "generalized_banzhaf", unreachable)
        game = preset_game("paper-eq25")
        axes = [
            SweepAxis(ParamRef("A", "p"), grid_values(0, 1, 3)),
            SweepAxis(ParamRef("A", "p"), grid_values("1/4", "3/4", 2)),
        ]
        with pytest.raises(InputError, match="A.p is given more than once"):
            sweep(game, axes)


class TestClosedForms:
    def test_reference_points(self):
        assert closed_form_beta("eq25", HALF) == (F(5, 12), F(1, 4), F(1, 4), F(1, 12))
        assert closed_form_beta("eq25", 1) == (F(0), HALF, HALF, F(0))
        assert closed_form_beta("eq28", HALF)[3] == F(1, 12)

    def test_unknown_form(self):
        with pytest.raises(InputError):
            closed_form_beta("eq99", HALF)

    @pytest.mark.parametrize(
        "which,player", [("eq25", "A"), ("eq26", "B"), ("eq27", "C"), ("eq28", "D")]
    )
    def test_sweeps_match_closed_forms(self, which, player):
        game = preset_game(f"paper-{which}")
        values = grid_values(0, 1, 21)
        grid = sweep(game, [SweepAxis(ParamRef(player, "p"), values)])
        for p, cell in zip(values, grid.cells):
            assert tuple(cell.powers.values()) == closed_form_beta(which, p)

    def test_symmetric_players_share_power(self):
        for p in grid_values(0, 1, 21):
            beta = closed_form_beta("eq25", p)
            assert beta[1] == beta[2]

    def test_first_player_peaks_at_one_half(self):
        values = grid_values(0, 1, 21)
        betas = [closed_form_beta("eq25", p)[0] for p in values]
        assert max(betas) == betas[10]


class TestSensitivity:
    def test_irrelevant_parameter_has_zero_partials(self):
        # B's single vote can never bridge a 10-vote quota, so its p moves
        # nothing.
        game = load_game(
            {
                "quota": 10,
                "players": [
                    {"name": "A", "structure": {"kind": "random", "votes": 10}},
                    {"name": "B", "structure": {"kind": "bernoulli", "votes": 1, "p": "3/10"}},
                ],
            }
        )
        report = sensitivity(game, [ParamRef("B", "p")])
        assert all(value == 0.0 for _, _, value in report.partials)

    def test_symmetric_pair_gets_identical_partials(self):
        game = preset_game("paper-eq25", p="3/10")
        report = sensitivity(game, [ParamRef("A", "p")])
        assert report.partial("B", "A.p") == report.partial("C", "A.p")

    def test_matches_closed_form_slope(self):
        # Away from the kink the closed form is linear in p, so the central
        # difference is exact.
        game = preset_game("paper-eq28", p="3/10")
        h = F(1, 1000)
        report = sensitivity(game, [ParamRef("D", "p")], h=h)
        upper = closed_form_beta("eq28", F(3, 10) + h)
        lower = closed_form_beta("eq28", F(3, 10) - h)
        for i, name in enumerate(("A", "B", "C", "D")):
            expected = float((upper[i] - lower[i]) / (2 * h))
            assert report.partial(name, "D.p") == pytest.approx(expected, abs=1e-12)

    def test_point_override(self):
        game = preset_game("paper-eq25")
        report = sensitivity(game, [ParamRef("A", "p")], point={"A.p": "3/10"})
        assert dict(report.point) == {"A.p": F(3, 10)}

    def test_step_must_stay_inside_the_unit_interval(self):
        game = preset_game("paper-eq25", p="0")
        with pytest.raises(InputError, match="leaves"):
            sensitivity(game, [ParamRef("A", "p")])

    def test_kink_straddling_is_refused(self):
        game = preset_game("paper-eq25", p="1/2")
        with pytest.raises(InputError, match="kink"):
            sensitivity(game, [ParamRef("A", "p")])
        # 3h/4 from the kink, the difference still reaches across it.
        inside = preset_game("paper-eq25", p="2003/4000")
        with pytest.raises(InputError, match="kink"):
            sensitivity(inside, [ParamRef("A", "p")], h=F(1, 1000))
        # Exactly h away from the kink is fine: the difference only touches it.
        near = preset_game("paper-eq25", p="501/1000")
        sensitivity(near, [ParamRef("A", "p")], h=F(1, 1000))

    def test_unused_point_key_rejected(self):
        game = preset_game("paper-eq25", p="3/10")
        with pytest.raises(InputError):
            sensitivity(game, [ParamRef("A", "p")], point={"B.p": "1/2"})

    def test_repeated_parameter_rejected_before_any_evaluation(self, monkeypatch):
        monkeypatch.setattr(sys.modules["votepower.sweep"], "generalized_banzhaf", unreachable)
        game = preset_game("senate-113")
        with pytest.raises(InputError, match="Dem.p is given more than once"):
            sensitivity(game, [ParamRef("Dem", "p"), ParamRef("Rep", "p"), ParamRef("Dem", "p")])


class TestStructureSeries:
    def test_coin_flipping_team_is_binomial(self):
        pmf, _ = structure_series(uniform_team_structure(50, HALF, F(3, 10)), 60)
        scale = F(1, 2**50)
        assert pmf == tuple(math.comb(50, j) * scale for j in range(51))

    def test_obedient_team_is_a_two_bump_mixture(self):
        # Leader weight 3/10 on the follow component, 7/10 on the defy one.
        p, L = F(1, 10), F(3, 10)
        pmf, _ = structure_series(uniform_team_structure(50, p, L), 60)
        expected = tuple(
            L * math.comb(50, j) * p**j * (1 - p) ** (50 - j)
            + (1 - L) * math.comb(50, j) * (1 - p) ** j * p ** (50 - j)
            for j in range(51)
        )
        assert pmf == expected

    def test_certain_voter_is_a_spike_with_no_influence(self):
        pmf, infl = structure_series(deterministic_structure(4), 6)
        assert pmf == (F(0), F(0), F(0), F(0), F(1))
        assert infl == (F(0),) * 6

    def test_over_the_cap_refuses_before_building(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built the influence polynomial")

        monkeypatch.setattr(sys.modules["votepower.sweep"], "influence_polynomial", refuse)
        far = pmf_structure([(0, HALF), (1_200_000, HALF)])
        with pytest.raises(CapacityError) as excinfo:
            structure_series(far, 1_200_000)
        assert str(excinfo.value) == "a series of 1200001 degrees exceeds the series cap of 1000000"

    @pytest.mark.parametrize("quota", [0, -3, "6", 2.5, 10**7 + 0.5])
    def test_bad_quota_is_an_input_error_not_a_capacity_error(self, quota):
        with pytest.raises(InputError, match="quota must be a positive integer"):
            structure_series(deterministic_structure(4), quota)


class TestCsv:
    def test_header_and_shape(self):
        game = preset_game("paper-eq25")
        grid = sweep(game, [SweepAxis(ParamRef("A", "p"), grid_values(0, 1, 5))])
        lines = grid.to_csv().splitlines()
        assert lines[0] == "p_A,beta_A,beta_B,beta_C,beta_D"
        assert len(lines) == 6
        assert lines[3] == "0.5,0.416667,0.25,0.25,0.0833333"

    def test_exact_mode_writes_fractions(self):
        game = preset_game("paper-eq25")
        grid = sweep(game, [SweepAxis(ParamRef("A", "p"), (F(1, 4),))])
        lines = grid.to_csv(exact=True).splitlines()
        assert lines[1] == "1/4,5/18,5/18,5/18,1/6"

    def test_degenerate_cells_leave_empty_fields(self):
        game = load_game(
            {
                "quota": 6,
                "players": [
                    {"name": "A", "structure": {"kind": "bernoulli", "votes": 4, "p": "1/2"}},
                    {"name": "B", "structure": {"kind": "deterministic", "votes": 3}},
                ],
            }
        )
        grid = sweep(game, [SweepAxis(ParamRef("A", "p"), (F(0), HALF))])
        lines = grid.to_csv().splitlines()
        assert lines[1] == "0,,"

    def test_two_axis_row_order_and_determinism(self):
        game = preset_game("paper-eq31")
        axes = [
            SweepAxis(ParamRef("A", "L"), grid_values(0, 1, 2)),
            SweepAxis(ParamRef("A", "p"), grid_values(0, 1, 3)),
        ]
        grid = sweep(game, axes)
        text = grid.to_csv()
        lines = text.splitlines()
        assert lines[0].startswith("L_A,p_A,")
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["0", "0"], ["0", "0.5"], ["0", "1"], ["1", "0"], ["1", "0.5"], ["1", "1"],
        ]
        assert sweep(game, axes).to_csv() == text
