"""Leader-follower weight hierarchy as one composite barycentric map.

Each hidden-layer agent follows a convex combination of previous-layer agents,
by default the vertices of its enclosing fan cell, which all lie in W_1. The
layers compose into one row-stochastic N x n_pl map C (at most three non-zeros
per auto-mode row), and the desired positions are C @ (alpha_l * a_l0 + shift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .team import MAX_VALUE, TeamConfiguration, cell_coordinates, enclosing_cells

ROW_SUM_TOL = 1e-12
# agents averaged into the nominal position: all of W_p, or the last new set
AVERAGING_MODES = ("all", "new")


def _clip_rows(weights: np.ndarray) -> np.ndarray:
    """Barycentric rows clipped into [0, 1], each row the clip moved rescaled to sum 1.

    Roundoff from the projection solve may leave weights a hair outside
    [0, 1]; containment accepts them down to -team.CONTAINMENT_TOL, far more than
    ROW_SUM_TOL, so a clipped row has to be renormalised.
    """
    clipped = np.clip(weights, 0.0, 1.0)
    moved = np.any(clipped != weights, axis=-1, keepdims=True)
    return np.where(moved, clipped / clipped.sum(axis=-1, keepdims=True), clipped)


@dataclass(frozen=True, eq=False)
class LayerWeights:
    """Composite map C: each agent's desired position as a convex combination of W_1's."""

    composite: np.ndarray   # (N, n_pl), row i-1 holds agent i; read-only

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        # the benchmark harness sizes the hierarchy by iterating over `matrices`
        return (self.composite,)


def _validate_rows(weights: np.ndarray, new: np.ndarray, cur_ids: tuple, layer: int):
    if not np.all((weights >= -1e-12) & (weights <= 1.0 + 1e-12)):
        raise ScenarioError(f"layer {layer} weights fall outside [0, 1]")
    sums = weights.sum(axis=1)
    bad = np.where(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
    if bad.size:
        raise ScenarioError(
            f"layer {layer} weights not row-stochastic (row sums {sums[bad][:3]})")
    wide = np.flatnonzero(np.count_nonzero(weights, axis=1) > 3)
    if wide.size:
        raise ScenarioError(f"layer {layer} row {cur_ids.index(new[wide[0]])} "
                            "has more than 3 supporting agents")


def _explicit_rows(given: dict, new: np.ndarray, prev_ids: tuple[int, ...],
                   core: int, layer: int) -> tuple[np.ndarray, np.ndarray]:
    """Scenario rows of the new agents as (weights, supporting ids), padded with the core."""
    width = max([len(given.get(agent, ())) for agent in new.tolist()] + [1])
    weights = np.zeros((new.size, width))
    support = np.full(weights.shape, core)
    for i, agent in enumerate(new.tolist()):
        if agent not in given:
            raise ScenarioError(f"layer {layer}: no weights given for agent {agent}")
        for j, (leader, w) in enumerate(given[agent].items()):
            if leader not in prev_ids:
                raise ScenarioError(
                    f"layer {layer}: agent {agent} references agent {leader} "
                    f"not present in layer {layer - 1}")
            weights[i, j], support[i, j] = w, leader
    return weights, support


def _auto_rows(team: TeamConfiguration, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the new agents over their enclosing cell's vertices, which lie in W_1."""
    weights = cell_coordinates(team.cell_vertices, team.positions[new - 1])
    index = enclosing_cells(weights)
    if np.any(index < 0):
        point = team.positions[new[np.argmin(index)] - 1]
        raise ScenarioError(f"point {point.tolist()} is outside the leading polygon")
    # of the cells holding an agent, the one it lies deepest in: the lowest id
    # could hold it only within tolerance, and clipping that row would move it
    index = weights.min(axis=-1).argmax(axis=-1)
    support = np.array([cell.vertices for cell in team.cells])[index]
    return _clip_rows(weights[np.arange(new.size), index]), support


def build_layer_weights(team: TeamConfiguration, settings=None) -> LayerWeights:
    """Construct the composite weight map C of a team.

    Each new agent of layer k gets a weight row over agents of W_{k-1}: its
    scenario row in explicit mode, else its clipped barycentric weights over its
    enclosing cell. Rows are validated, then composed over their supports' C rows.
    """
    part = team.partition
    layer_ids = tuple(part.nested(k) for k in range(1, part.depth + 1))
    explicit = {}
    if settings is not None and getattr(settings, "mode", "auto") == "explicit":
        explicit = {layer: rows for layer, rows in settings.matrices}

    composite = np.eye(len(layer_ids[-1]), team.n_pl)  # W_1 agents are their own leaders
    for k in range(2, part.depth + 1):
        new = np.array(sorted(part.new_sets[k - 1]), dtype=int)
        if k in explicit:
            weights, support = _explicit_rows(explicit[k], new, layer_ids[k - 2],
                                              team.n_pl, k)
        else:
            weights, support = _auto_rows(team, new)
        _validate_rows(weights, new, layer_ids[k - 1], k)
        composite[new - 1] = (weights[:, :, None] * composite[support - 1]).sum(axis=1)
    composite.setflags(write=False)
    return LayerWeights(composite)


def averaging_ids(team: TeamConfiguration, average: str = "all") -> tuple[int, ...]:
    """Agent ids averaged into the nominal position (all of W_p, or the new set)."""
    if average not in AVERAGING_MODES:
        raise ScenarioError(f"averaging mode must be all or new, got {average!r}")
    if average == "new":
        return tuple(sorted(team.partition.new_sets[-1]))
    return team.partition.all_ids()


def trajectory_positions(team: TeamConfiguration, weights: LayerWeights,
                         alphas: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Desired positions C @ (alpha_l * a_l0 + shift) per sample, shape (n_steps, N, 3)."""
    alphas = np.asarray(alphas, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    if alphas.ndim != 2 or alphas.shape[1] != team.n_pl:
        raise ScenarioError(f"alpha must have length {team.n_pl}")
    if shifts.shape != (alphas.shape[0], 3):
        raise ScenarioError("shift must be an [x, y, z] triple")
    # beyond MAX_VALUE (inf too) reads nan: no inf * 0 warning, and the rest stay below 2**1001
    alphas, shifts = (np.where(np.abs(x) <= MAX_VALUE, x, np.nan) for x in (alphas, shifts))
    return weights.composite @ (alphas[:, :, None] * team.leader_positions + shifts[:, None, :])


def forward_pass(team: TeamConfiguration, weights: LayerWeights,
                 alpha: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Desired positions of all agents, shape (N, 3), ordered by agent id."""
    return trajectory_positions(team, weights, [alpha], [shift])[0]


def compose_delta_rows(team: TeamConfiguration, weights: LayerWeights,
                       average: str = "all") -> np.ndarray:
    """The output layer R = [delta | I], shape (3, n_pl + 3).

    delta is the averaged rows of C times the leaders' material positions, so
    R @ X is the nominal position for X = [alpha_1 .. alpha_{n_pl}, s_x, s_y, s_z].
    """
    rows = weights.composite[np.array(averaging_ids(team, average)) - 1]
    delta = (rows.sum(axis=0)[None, :] * team.leader_positions.T) / rows.shape[0]
    return np.hstack([delta, np.eye(3)])

