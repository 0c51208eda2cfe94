import numpy as np
import pytest

import swarmdeform as sd
from swarmdeform.hierarchy import ROW_SUM_TOL, averaging_ids
from swarmdeform.scenario import WeightsSettings


def assert_stochastic_structure(team, weights):
    c = weights.composite
    assert c.shape == (team.n_agents, team.n_pl)
    assert np.all(c >= 0.0) and np.all(c <= 1.0)
    assert np.max(np.abs(c.sum(axis=1) - 1.0)) <= ROW_SUM_TOL
    # first-layer agents are their own leaders; deeper rows have at most 3 supports
    assert np.array_equal(c[: team.n_pl], np.eye(team.n_pl))
    assert np.all(np.count_nonzero(c[team.n_pl:], axis=1) <= 3)


def test_square_weight_structure(square_team, square_weights):
    assert square_team.partition.depth == 3
    assert_stochastic_structure(square_team, square_weights)


def test_helix_weight_structure(helix_team, helix_weights):
    assert_stochastic_structure(helix_team, helix_weights)


@pytest.mark.parametrize("fixture", ["square", "helix"])
def test_unit_scale_reproduces_material_positions(fixture, request):
    team = request.getfixturevalue(f"{fixture}_team")
    weights = request.getfixturevalue(f"{fixture}_weights")
    desired = sd.forward_pass(team, weights, np.ones(team.n_pl), np.zeros(3))
    assert np.max(np.abs(desired - team.positions)) < 1e-13


def test_forward_pass_affine_in_shift(square_team, square_weights):
    rng = np.random.default_rng(3)
    alpha = rng.uniform(0.5, 1.1, size=square_team.n_pl)
    shift = rng.normal(size=3)
    moved = sd.forward_pass(square_team, square_weights, alpha, shift)
    base = sd.forward_pass(square_team, square_weights, alpha, np.zeros(3))
    assert np.max(np.abs(moved - (base + shift))) < 1e-12


def test_forward_pass_shape_validation(square_team, square_weights):
    with pytest.raises(sd.ScenarioError, match="alpha must have length 5"):
        sd.forward_pass(square_team, square_weights, np.ones(4), np.zeros(3))
    with pytest.raises(sd.ScenarioError, match="shift"):
        sd.forward_pass(square_team, square_weights, np.ones(5), np.zeros(2))


def test_composite_matrix_matches_forward_pass(helix_team, helix_weights):
    rng = np.random.default_rng(11)
    w_full = helix_weights.composite
    assert w_full.shape == (67, 7)
    assert np.max(np.abs(w_full.sum(axis=1) - 1.0)) < 1e-12
    for _ in range(5):
        alpha = rng.uniform(0.6, 5.0, size=7)
        shift = rng.normal(size=3)
        leaders = alpha[:, None] * helix_team.leader_positions + shift
        assert np.max(np.abs(w_full @ leaders
                             - sd.forward_pass(helix_team, helix_weights, alpha, shift))) < 1e-12


def test_nominal_position_matches_composite_rows(helix_team, helix_weights):
    rng = np.random.default_rng(19)
    r = sd.compose_delta_rows(helix_team, helix_weights)
    assert r.shape == (3, 10)
    for _ in range(10):
        alpha = rng.uniform(0.6, 5.0, size=7)
        shift = rng.normal(size=3)
        x = np.concatenate([alpha, shift])
        nominal = sd.forward_pass(helix_team, helix_weights, alpha, shift).mean(axis=0)
        assert np.max(np.abs(r @ x - nominal)) < 1e-12


def test_averaging_new_set(square_team, square_weights):
    assert averaging_ids(square_team, "new") == (10, 11, 12, 13)
    rng = np.random.default_rng(2)
    alpha = rng.uniform(0.5, 1.1, size=5)
    shift = rng.normal(size=3)
    desired = sd.forward_pass(square_team, square_weights, alpha, shift)
    direct = desired[9:13].mean(axis=0)
    x = np.concatenate([alpha, shift])
    nominal = sd.compose_delta_rows(square_team, square_weights, average="new") @ x
    assert np.max(np.abs(nominal - direct)) < 1e-15
    with pytest.raises(sd.ScenarioError, match="averaging mode"):
        averaging_ids(square_team, "outer")


def test_trajectory_positions_stacks_forward_pass(square_team, square_weights):
    rng = np.random.default_rng(5)
    alphas = rng.uniform(0.5, 1.1, size=(4, 5))
    shifts = rng.normal(size=(4, 3))
    stacked = sd.trajectory_positions(square_team, square_weights, alphas, shifts)
    assert stacked.shape == (4, 13, 3)
    for i in range(4):
        assert np.array_equal(
            stacked[i], sd.forward_pass(square_team, square_weights, alphas[i], shifts[i]))


EXPLICIT_SQUARE = WeightsSettings(
    mode="explicit",
    matrices=(
        (2, {6: {5: 0.25, 1: 0.375, 2: 0.375},
             7: {5: 0.25, 2: 0.375, 3: 0.375},
             8: {5: 0.25, 3: 0.375, 4: 0.375},
             9: {5: 0.25, 4: 0.375, 1: 0.375}}),
        (3, {10: {1: 0.5, 6: 0.5},
             11: {2: 0.5, 7: 0.5},
             12: {3: 0.5, 8: 0.5},
             13: {4: 0.5, 9: 0.5}}),
    ))


def test_explicit_weights_round_trip(square_team, square_weights):
    weights = sd.build_layer_weights(square_team, EXPLICIT_SQUARE)
    assert_stochastic_structure(square_team, weights)
    # layer 2 rows coincide with the auto barycentric derivation
    assert np.max(np.abs(weights.composite[5:9] - square_weights.composite[5:9])) < 1e-15
    alpha = np.array([0.8, 0.9, 1.0, 1.1, 1.0])
    desired = sd.forward_pass(square_team, weights, alpha, np.array([1.0, -2.0, 0.5]))
    assert np.allclose(desired[9], 0.5 * desired[0] + 0.5 * desired[5], atol=1e-15)


def test_explicit_composite_equals_layer_product(square_team):
    # reference: the per-layer matrices W_{k-1} -> W_k, identity rows for old agents
    part = square_team.partition
    product = np.eye(square_team.n_pl)
    for layer, rows in EXPLICIT_SQUARE.matrices:
        prev_ids = part.nested(layer - 1)
        cur_ids = part.nested(layer)
        matrix = np.zeros((len(cur_ids), len(prev_ids)))
        for i, agent in enumerate(cur_ids):
            for leader, w in rows.get(agent, {agent: 1.0}).items():
                matrix[i, prev_ids.index(leader)] = w
        product = matrix @ product
    weights = sd.build_layer_weights(square_team, EXPLICIT_SQUARE)
    assert weights.composite.shape == product.shape == (13, 5)
    assert np.max(np.abs(weights.composite - product)) <= 1e-15


def test_explicit_weights_validation(square_team):
    bad_sum = WeightsSettings(mode="explicit", matrices=(
        (2, {6: {5: 0.5, 1: 0.2}, 7: {5: 1.0}, 8: {5: 1.0}, 9: {5: 1.0}}),
        (3, {10: {6: 1.0}, 11: {7: 1.0}, 12: {8: 1.0}, 13: {9: 1.0}}),
    ))
    with pytest.raises(sd.ScenarioError, match="not row-stochastic"):
        sd.build_layer_weights(square_team, bad_sum)

    # rows that sum to 1 with a weight outside [0, 1]
    negative = WeightsSettings(mode="explicit", matrices=(
        (2, {6: {5: 1.5, 1: -0.5}, 7: {5: 1.0}, 8: {5: 1.0}, 9: {5: 1.0}}),
        (3, {10: {6: 1.0}, 11: {7: 1.0}, 12: {8: 1.0}, 13: {9: 1.0}}),
    ))
    with pytest.raises(sd.ScenarioError,
                       match=r"^layer 2 weights must be in \[-1e-12, 1\], got (1.5|-0.5)$"):
        sd.build_layer_weights(square_team, negative)

    missing = WeightsSettings(mode="explicit", matrices=(
        (2, {6: {5: 1.0}, 7: {5: 1.0}, 8: {5: 1.0}}),
        (3, {10: {6: 1.0}, 11: {7: 1.0}, 12: {8: 1.0}, 13: {9: 1.0}}),
    ))
    with pytest.raises(sd.ScenarioError, match="no weights given for agent 9"):
        sd.build_layer_weights(square_team, missing)

    unknown_leader = WeightsSettings(mode="explicit", matrices=(
        (2, {6: {10: 1.0}, 7: {5: 1.0}, 8: {5: 1.0}, 9: {5: 1.0}}),
        (3, {10: {6: 1.0}, 11: {7: 1.0}, 12: {8: 1.0}, 13: {9: 1.0}}),
    ))
    with pytest.raises(sd.ScenarioError, match="references agent 10"):
        sd.build_layer_weights(square_team, unknown_leader)

    too_wide = WeightsSettings(mode="explicit", matrices=(
        (2, {6: {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25}, 7: {5: 1.0},
             8: {5: 1.0}, 9: {5: 1.0}}),
        (3, {10: {6: 1.0}, 11: {7: 1.0}, 12: {8: 1.0}, 13: {9: 1.0}}),
    ))
    with pytest.raises(sd.ScenarioError, match="more than 3 supporting"):
        sd.build_layer_weights(square_team, too_wide)


def pentagon_with_edge_agent(u):
    """Regular pentagon of radius 10 plus a layer-2 agent at fraction u of the
    edge from leader 1 to leader 2, every coordinate rounded to 10 decimals."""
    angles = 2.0 * np.pi * np.arange(5) / 5
    ring = np.round(10.0 * np.stack([np.cos(angles), np.sin(angles), np.zeros(5)], axis=1), 10)
    on_edge = np.round((1.0 - u) * ring[0] + u * ring[1], 10)
    positions = np.vstack([ring, [0.0, 0.0, 0.0], on_edge, [2.0, 1.0, 0.0]])
    partition = sd.LayerPartition(((1, 2, 3, 4, 5, 6), (7, 8)))
    return sd.TeamConfiguration(partition, positions, sd.build_cells(partition, positions),
                                sd.SafetyParameters(0.05, 0.15, 20.0, 10.0))


def test_rows_clipped_onto_a_cell_edge_stay_row_stochastic():
    # rounding leaves the edge agent's weight on the core slightly negative, a
    # hair inside the containment tolerance and far outside the row-sum one
    for k in range(1, 31):
        team = pentagon_with_edge_agent(k / 31)
        assert sd.validate_team(team).ok
        assert_stochastic_structure(team, sd.build_layer_weights(team))
