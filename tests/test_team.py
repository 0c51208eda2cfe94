import re

import numpy as np
import pytest
import yaml

import swarmdeform as sd
from swarmdeform import scenario
from swarmdeform.team import (MAX_COORDINATE, boundary_reference_magnitude, check_range,
                              in_range, projected_weights)

from conftest import SCENARIO_DIR, leaders_only_team


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.0 * MAX_COORDINATE,
                                   -2.0 * MAX_COORDINATE])
@pytest.mark.parametrize("form", ["scalar", "array"])
def test_check_range_refuses_beyond_the_magnitude_bound(value, form):
    # nan is never in range, whatever the interval; the message names the
    # input and the first entry outside
    x = value if form == "scalar" else np.array([[0.0, 1.0], [value, np.nan]])
    with pytest.raises(sd.ScenarioError, match=rf"^x must be in \[-1.60694e\+60, 1.60694e\+60\], "
                                               rf"got {re.escape(str(value))}$"):
        check_range("x", x)
    assert not in_range(value)
    with pytest.raises(sd.ScenarioError, match=r"must be in \(-inf, inf\), got nan"):
        check_range("x", [1.0, np.nan], -np.inf, np.inf, "()")


@pytest.mark.parametrize("ends", ["[]", "[)", "(]", "()"])
@pytest.mark.parametrize("form", ["scalar", "array"])
def test_check_range_ends_are_closed_or_open(ends, form):
    lo, hi = -2.0, 3.0
    for end, value in ((0, lo), (1, hi)):
        closed = ends[end] in "[]"
        x = value if form == "scalar" else np.array([0.5, value])
        assert bool(np.all(in_range(x, lo, hi, ends))) == closed
        if closed:
            check_range("x", x, lo, hi, ends)
        else:
            with pytest.raises(sd.ScenarioError, match=rf"^x must be in \{ends[0]}-2, 3\{ends[1]}, "
                                                       rf"got {value}$"):
                check_range("x", x, lo, hi, ends)
    # integers of any size compare exactly, and the bounds print as given
    check_range("id", 10**400 - 10**400 + 7, 1, 13)
    with pytest.raises(sd.SafetyWindowError, match=r"^id must be in \[1, 13\], got 10{400}$"):
        check_range("id", 10**400, 1, 13, error=sd.SafetyWindowError)


def test_projected_weights_vertices_exact():
    v0 = np.array([0.0, 0.0, 0.0])
    v1 = np.array([20.0, 0.0, -1.0])
    v2 = np.array([10.0, 10.0, 1.0])
    assert np.array_equal(projected_weights(v0, v1, v2, v0), [1.0, 0.0, 0.0])
    assert np.array_equal(projected_weights(v0, v1, v2, v1), [0.0, 1.0, 0.0])
    assert np.array_equal(projected_weights(v0, v1, v2, v2), [0.0, 0.0, 1.0])


def test_projected_weights_reconstruct_in_plane():
    rng = np.random.default_rng(7)
    v0, v1, v2 = rng.normal(size=(3, 3)) * 4.0
    for _ in range(50):
        w1, w2 = rng.uniform(-0.5, 1.5, size=2)
        point = v0 + w1 * (v1 - v0) + w2 * (v2 - v0)
        w = projected_weights(v0, v1, v2, point)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        recon = w[0] * v0 + w[1] * v1 + w[2] * v2
        assert np.linalg.norm(recon - point) < 1e-12


def test_projected_weights_projects_off_plane_component():
    v0 = np.zeros(3)
    v1 = np.array([2.0, 0.0, 0.0])
    v2 = np.array([0.0, 2.0, 0.0])
    w = projected_weights(v0, v1, v2, np.array([0.5, 0.5, 3.0]))
    assert np.allclose(w, [0.5, 0.25, 0.25], atol=1e-15)


def test_projected_weights_collinear_raises():
    v0 = np.zeros(3)
    v1 = np.array([1.0, 1.0, 0.0])
    v2 = np.array([2.0, 2.0, 0.0])
    with pytest.raises(sd.ScenarioError, match="collinear"):
        projected_weights(v0, v1, v2, np.array([0.3, 0.3, 0.0]))


def test_square_cells_membership_and_p_min(square_team):
    expected_members = {
        1: (1, 2, 5, 6, 10),
        2: (2, 3, 5, 7, 11),
        3: (3, 4, 5, 8, 12),
        4: (1, 4, 5, 9, 13),
    }
    for cell in square_team.cells:
        assert cell.members == expected_members[cell.cell_id]
        # closest pair is interior leader vs follower: |(1, -0.5, 0)| = sqrt(1.25)
        assert cell.p_min == pytest.approx(np.sqrt(1.25), abs=1e-15)


def test_helix_cells_cover_all_agents(helix_team):
    covered = set()
    for cell in helix_team.cells:
        covered.update(cell.members)
        assert cell.p_min > 2.2
    assert covered == set(range(1, 68))


def test_home_cell_is_the_deepest_enclosing_cell(square_team):
    # on the shared edge of cells 1 and 2 (a tie, so the lower id), inside cell 3
    # only, inside cell 2 but within tolerance of cell 1, and outside every cell
    points = [[0.0, 2.0, 0.0], [-2.0, -0.5, 0.0], [-1e-11, 2.0, 0.0], [4.0, 4.0, 0.0]]
    positions = np.vstack([square_team.positions, points])
    partition = sd.LayerPartition(square_team.partition.new_sets + ((14, 15, 16, 17),))
    cells = sd.build_cells(partition, positions)
    home = {agent: cell.cell_id for cell in cells for agent in cell.home}
    assert sorted(home) == list(range(1, 17))
    assert [home.get(agent) for agent in (14, 15, 16, 17)] == [1, 3, 2, None]
    assert 16 in cells[0].members and 16 in cells[1].members
    assert cells[0].home_weights[cells[0].home.index(14)].tolist() == [0.5, 0.0, 0.5]


def test_enclosing_triangle_outside_raises(square_team):
    # an agent outside every cell has no barycentric row in the hierarchy
    positions = np.vstack([square_team.positions, [4.0, 4.0, 0.0]])
    partition = sd.LayerPartition(square_team.partition.new_sets[:-1]
                                  + (square_team.partition.new_sets[-1] + (14,),))
    team = sd.TeamConfiguration(partition, positions, sd.build_cells(partition, positions),
                                square_team.safety)
    with pytest.raises(sd.ScenarioError, match="outside the leading polygon"):
        sd.build_layer_weights(team)


def test_validate_leaders_only_team_ok():
    team = leaders_only_team()
    report = sd.validate_team(team)
    assert report.ok
    assert report.warnings == []


def test_validate_rejects_core_off_origin(monkeypatch):
    # refused at load, before any geometry is built
    doc = yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())
    doc["team"]["positions"][5] = [0.1, 0.0, 0.0]
    monkeypatch.setattr(scenario, "build_cells", None)
    with pytest.raises(sd.ScenarioError, match="invalid team: core must be at origin"):
        sd.load_scenario(doc)


def test_validate_rejects_small_first_layer():
    # the partition type refuses the team before any geometry is built
    with pytest.raises(sd.ScenarioError, match="at least 3 boundary leaders"):
        sd.LayerPartition(((1, 2, 3),))


def test_validate_detects_agent_outside_polygon(square_team):
    positions = np.vstack([square_team.positions, [[6.0, 6.0, 0.0]]])
    partition = sd.LayerPartition(square_team.partition.new_sets[:-1]
                                  + ((10, 11, 12, 13, 14),))
    cells = sd.build_cells(partition, positions)
    team = sd.TeamConfiguration(partition, positions, cells, square_team.safety)
    report = sd.validate_team(team)
    assert any("agent 14 lies outside" in v for v in report.violations)


def test_validate_warns_on_magnitude_spread(helix_scenario):
    warnings = helix_scenario.validation.warnings
    assert any("magnitudes differ" in w for w in warnings)


def test_validate_warns_off_plane(square_team):
    positions = square_team.positions.copy()
    positions[12, 2] = 0.5
    cells = sd.build_cells(square_team.partition, positions)
    team = sd.TeamConfiguration(square_team.partition, positions, cells,
                                square_team.safety)
    report = sd.validate_team(team)
    assert report.ok
    assert any("off their cell plane" in w for w in report.warnings)


def test_validate_warns_empty_motion_budget(square_team):
    safety = sd.SafetyParameters(delta=0.05, epsilon=0.15, a_max=0.3, a0=4.0)
    team = sd.TeamConfiguration(square_team.partition, square_team.positions,
                                square_team.cells, safety)
    report = sd.validate_team(team)
    assert any("safety window is empty" in w for w in report.warnings)
    with pytest.raises(sd.SafetyWindowError, match="safety window empty"):
        sd.alpha_bounds(team)


def test_partition_properties(helix_team):
    part = helix_team.partition
    assert part.depth == 3
    assert part.n_pl == 7
    assert part.nested(1) == tuple(range(1, 8))
    assert part.nested(3) == tuple(range(1, 68))
    assert part.all_ids() == tuple(range(1, 68))


def test_boundary_reference_magnitude(helix_team):
    assert helix_team.safety.a0 == np.sqrt(401.0)
    assert boundary_reference_magnitude(helix_team.positions, 7) == np.sqrt(401.0)


def test_cell_vertex_positions(square_team):
    core, va, vb = square_team.cell_vertices[1]
    assert np.array_equal(core, [0.0, 0.0, 0.0])
    assert np.array_equal(va, [0.0, 4.0, 0.0])
    assert np.array_equal(vb, [-4.0, 0.0, 0.0])


def test_load_configuration_from_path():
    team = sd.load_scenario(SCENARIO_DIR / "square13.yaml").team
    assert team.n_agents == 13
    assert team.n_pl == 5
