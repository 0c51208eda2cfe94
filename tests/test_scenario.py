import numpy as np
import pytest
import yaml

import swarmdeform as sd
from swarmdeform.scenario import _YAML_LOADER, _parse_ids, planning_bounds

from swarmdeform.team import MIN_COORDINATE

from conftest import SCENARIO_DIR


@pytest.fixture()
def square_doc():
    return yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())


@pytest.mark.parametrize("name", ["square13", "helix67"])
def test_libyaml_loader_parses_same_document(name):
    text = (SCENARIO_DIR / f"{name}.yaml").read_text()
    assert _YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    assert yaml.load(text, Loader=_YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


def test_malformed_yaml_is_scenario_error():
    with pytest.raises(sd.ScenarioError, match="malformed scenario document"):
        sd.load_scenario("schema: swarm-scenario/1\nteam: [1, 2\n")


def test_load_square_round_trip(square_scenario, square_doc):
    assert square_scenario.name == "square13"
    team = square_scenario.team
    assert team.n_agents == 13
    for agent, triple in square_doc["team"]["positions"].items():
        assert np.array_equal(team.positions[int(agent) - 1], np.asarray(triple, dtype=float))
    assert team.safety.delta == 0.05
    assert team.safety.a0 == 4.0
    assert square_scenario.qp.bounds_mode == "fixed"
    assert planning_bounds(square_scenario) == (0.5, 1.1)
    assert square_scenario.sim.duration == 30.0
    assert square_scenario.sim.mode == "closed-loop"
    assert square_scenario.trajectory.kind == "waypoints"


def test_load_helix(helix_scenario):
    assert helix_scenario.team.n_agents == 67
    assert helix_scenario.team.n_pl == 7
    assert helix_scenario.trajectory.kind == "helix"
    assert helix_scenario.sim.duration == 1000.0
    assert planning_bounds(helix_scenario) == (0.6, 5.0)


def test_load_from_mapping_and_string(square_doc):
    from_map = sd.load_scenario(square_doc)
    from_str = sd.load_scenario(yaml.safe_dump(square_doc))
    assert np.array_equal(from_map.team.positions, from_str.team.positions)


def test_rejects_wrong_schema_tag(square_doc):
    square_doc["schema"] = "swarm-scenario/9"
    with pytest.raises(sd.ScenarioError, match="unsupported scenario schema"):
        sd.load_scenario(square_doc)


def test_rejects_missing_sections(square_doc):
    del square_doc["trajectory"]
    with pytest.raises(sd.ScenarioError, match="missing 'trajectory'"):
        sd.load_scenario(square_doc)


def test_rejects_missing_position(square_doc):
    del square_doc["team"]["positions"][13]
    with pytest.raises(sd.ScenarioError, match=r"agents \[13\] have no material position"):
        sd.load_scenario(square_doc)


def _scaled(doc, factor):
    doc["team"]["positions"] = {agent: [factor * x for x in triple]
                                for agent, triple in doc["team"]["positions"].items()}
    return doc


@pytest.mark.parametrize("power", [-190, -202], ids=["small", "at-the-bound"])
def test_small_team_keeps_its_cells_and_weights(square_scenario, square_weights, square_doc,
                                                power):
    # scaled by a power of two, down to a largest coordinate of MIN_COORDINATE
    # (square13's is 4), every Gram entry scales exactly
    team = sd.load_scenario(_scaled(square_doc, 2.0 ** power)).team
    weights = sd.build_layer_weights(team, square_scenario.weights)
    for cell, ref in zip(team.cells, square_scenario.team.cells, strict=True):
        assert (cell.vertices, cell.members) == (ref.vertices, ref.members)
        assert cell.p_min == 2.0 ** power * ref.p_min
    assert weights.composite.tobytes() == square_weights.composite.tobytes()


@pytest.mark.parametrize("factor, scale", [(1e-170, "4e-170"), (2.0 ** -203, "3.11151e-61")])
def test_team_below_min_coordinate_rejected(square_doc, factor, scale):
    # below it the containment solve's Gram entries underflow
    with pytest.raises(sd.ScenarioError, match=rf"^largest boundary-leader \|coordinate\| must "
                                               rf"be in \[{MIN_COORDINATE:.6g}, ") as info:
        sd.load_scenario(_scaled(square_doc, factor))
    assert f"{float(str(info.value).rsplit('got ', 1)[1]):.6g}" == scale


def test_parse_ids_forms():
    assert _parse_ids(7, 13) == [7]
    assert _parse_ids("8..13", 13) == [8, 9, 10, 11, 12, 13]
    assert _parse_ids("1,3,5..9", 13) == [1, 3, 5, 6, 7, 8, 9]
    assert _parse_ids([1, "2..3", "6"], 13) == [1, 2, 3, 6]
    with pytest.raises(sd.ScenarioError, match="empty id range"):
        _parse_ids("9..4", 13)
    for value in (True, 7.0, [1, 2.5]):
        with pytest.raises(sd.ScenarioError, match="agent id must be an integer"):
            _parse_ids(value, 13)
    # bounded before expansion: the last range would need about 100 GiB
    for value in (0, 14, "0..3", "13..14", "10..1000000000"):
        with pytest.raises(sd.ScenarioError, match=r"agent id '.*' must be in \[1, 13\]"):
            _parse_ids(value, 13)


def test_integer_fields_accept_numeral_strings(square_scenario, square_doc):
    square_doc["team"]["n_agents"] = "13"
    square_doc["team"]["positions"] = {
        str(agent): triple for agent, triple in square_doc["team"]["positions"].items()}
    square_doc["team"]["layers"] = [["1", 2, "3..5"], "6..9", "10..13"]
    team = sd.load_scenario(square_doc).team
    assert np.array_equal(team.positions, square_scenario.team.positions)
    assert team.partition.new_sets == square_scenario.team.partition.new_sets


def test_float_fields_accept_numeral_strings(square_scenario, square_doc):
    square_doc["team"]["positions"][13] = ["1.0", "-2.5", "0"]
    square_doc["safety"] = {"delta": "0.05", "epsilon": "0.15", "a_max": "4.9"}
    square_doc["qp"]["zeta"] = "1.0e-6"
    square_doc["qp"]["alpha_bounds"].update(min="0.5", max="1.1")
    square_doc["sim"] = {"duration": "30", "dt": "0.1", "gains": {"kp": "4", "kd": "4.0"}}
    square_doc["trajectory"]["times"] = ["0", 10, "20.0", 30.0]
    square_doc["trajectory"]["points"][1] = ["0.3", "0.2", 0.1]
    scenario = sd.load_scenario(square_doc)
    assert np.array_equal(scenario.team.positions, square_scenario.team.positions)
    assert scenario.team.safety == square_scenario.team.safety
    assert scenario.qp == square_scenario.qp and scenario.sim == square_scenario.sim
    t = np.linspace(0.0, 30.0, 61)
    assert np.array_equal(scenario.trajectory.position(t), square_scenario.trajectory.position(t))
    helix = sd.load_scenario({**square_doc, "trajectory": {
        "kind": "helix", "omega": "0.02", "amplitudes": ["1", 2.0, "3e0"]}})
    assert np.array_equal(helix.trajectory.position(t),
                          sd.helix_reference(0.02, (1.0, 2.0, 3.0)).position(t))


def test_duplicate_layer_ids_rejected(square_doc):
    square_doc["team"]["layers"][1] = "6..9,7"
    with pytest.raises(sd.ScenarioError, match="duplicate agent ids"):
        sd.load_scenario(square_doc)


def test_bad_scaling_rejected(square_doc):
    square_doc["qp"]["scaling"] = "exact"
    with pytest.raises(sd.ScenarioError, match="qp.scaling"):
        sd.load_scenario(square_doc)


def test_inverted_fixed_bounds_rejected(square_doc):
    square_doc["qp"]["alpha_bounds"] = {"mode": "fixed", "min": 1.5, "max": 0.5}
    with pytest.raises(sd.ScenarioError, match="exceeds max"):
        sd.load_scenario(square_doc)


def test_safety_bounds_mode(square_doc):
    square_doc["qp"]["alpha_bounds"] = {"mode": "safety"}
    scenario = sd.load_scenario(square_doc)
    lo, hi = planning_bounds(scenario)
    # clearance 0.4 against p_min sqrt(1.25); budget (4.9 - 0.4) against a0 = 4
    assert lo == pytest.approx(0.4 / np.sqrt(1.25), abs=1e-15)
    assert hi == pytest.approx(4.5 / 4.0, abs=1e-15)


def test_bad_sim_mode_rejected(square_doc):
    square_doc["sim"]["mode"] = "offline"
    with pytest.raises(sd.ScenarioError, match="sim.mode"):
        sd.load_scenario(square_doc)


def test_nonpositive_duration_rejected(square_doc):
    square_doc["sim"]["duration"] = -5.0
    with pytest.raises(sd.ScenarioError, match=r"sim.duration must be in \(0, .*got -5.0"):
        sd.load_scenario(square_doc)


def test_invalid_team_surfaces_violations(square_doc):
    square_doc["team"]["positions"][5] = [0.5, 0.0, 0.0]
    with pytest.raises(sd.ScenarioError, match="invalid team: .*core must be at origin"):
        sd.load_scenario(square_doc)


def test_unreadable_path_rejected(tmp_path):
    with pytest.raises(sd.ScenarioError, match="cannot read scenario"):
        sd.load_scenario(tmp_path / "nope.yaml")
