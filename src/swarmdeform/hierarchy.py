"""Leader-follower weight hierarchy as one composite barycentric map.

Each hidden-layer agent follows a convex combination of previous-layer agents,
by default the vertices of its home fan cell, which all lie in W_1. An
auto-mode hierarchy is therefore one row-stochastic N x n_pl map C: identity
rows on W_1 and every other agent's clipped home row (at most three
non-zeros). Explicit scenario layers replace their agents' rows, composed over
the previous layers' rows of C. The desired positions are
C @ (alpha_l * a_l0 + shift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .team import TeamConfiguration, check_range, in_range

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
    check_range(f"layer {layer} weights", weights, -1e-12, 1.0 + 1e-12)
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


def build_layer_weights(team: TeamConfiguration, settings=None) -> LayerWeights:
    """Construct the composite weight map C of a team.

    Every agent beyond W_1 gets its clipped home row over its home cell's
    vertices in one scatter; these rows are in [0, 1], at most three wide and
    row-stochastic by construction. In explicit mode each layer given in the
    scenario then replaces its new agents' rows, in layer order: its rows over
    W_{k-1} are validated, then composed over their supports' rows of C.
    """
    part = team.partition
    explicit = {}
    if settings is not None and getattr(settings, "mode", "auto") == "explicit":
        explicit = {layer: rows for layer, rows in settings.matrices}

    agents, support, rows = team.homes
    homeless = np.setdiff1d(np.arange(1, team.n_agents + 1), agents)
    if homeless.size:
        point = team.positions[homeless[0] - 1]
        raise ScenarioError(f"point {point.tolist()} is outside the leading polygon")
    composite = np.eye(team.n_agents, team.n_pl)  # W_1 agents are their own leaders
    follower = agents > team.n_pl
    composite[agents[follower, None] - 1, support[follower] - 1] = _clip_rows(rows[follower])

    for k in range(2, part.depth + 1):
        if k in explicit:
            new = np.array(sorted(part.new_sets[k - 1]), dtype=int)
            weights, support = _explicit_rows(explicit[k], new, part.nested(k - 1),
                                              team.n_pl, k)
            _validate_rows(weights, new, part.nested(k), k)
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
    # outside in_range (inf too) reads nan: no inf * 0 warning, and the rest stay below 2**401
    alphas, shifts = (np.where(in_range(x), x, np.nan) for x in (alphas, shifts))
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

