"""Scenario documents: structured-text (YAML) schema, parsing, settings bundles.

A scenario bundles the team (layers, material positions), safety margins,
weight-construction options, planner settings, the reference trajectory, and
simulation settings under the versioned tag ``swarm-scenario/1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Mapping

import numpy as np
import yaml

from .errors import ScenarioError
from .hierarchy import AVERAGING_MODES
from .qp import SCALING_MODES
from .safety import alpha_bounds
from .sim import SIM_MODES, ReferenceTrajectory, make_trajectory
from .team import (MAX_COORDINATE, MIN_COORDINATE, LayerPartition, SafetyParameters,
                   TeamConfiguration, ValidationReport, boundary_reference_magnitude,
                   build_cells, check_range, in_range, validate_team)

SCHEMA_TAG = "swarm-scenario/1"
# libyaml's loader when it is built in: the same documents, several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class WeightsSettings:
    mode: str = "auto"            # auto | explicit
    average: str = "all"          # output averaging set: all | new
    matrices: tuple = ()          # explicit mode: ((layer, {agent: {leader: w}}), ...)


@dataclass(frozen=True)
class QpSettings:
    zeta: float = 1e-6
    scaling: str = "consistent"   # consistent | paper-exact
    bounds_mode: str = "fixed"    # fixed | safety
    alpha_min: float | None = None
    alpha_max: float | None = None


@dataclass(frozen=True)
class SimSettings:
    duration: float = 100.0
    dt: float = 0.1
    kp: float = 4.0
    kd: float = 4.0
    mode: str = "closed-loop"     # closed-loop | open-loop


@dataclass(eq=False)
class Scenario:
    name: str
    team: TeamConfiguration
    weights: WeightsSettings
    qp: QpSettings
    trajectory: "object"          # sim.ReferenceTrajectory
    sim: SimSettings
    validation: ValidationReport = field(default_factory=lambda: ValidationReport([], []))


def _integer(value, what: str) -> int:
    """An int (not a bool) or an integer numeral string, as an int.

    `int` would truncate a fraction and read a bool as 0 or 1.
    """
    if isinstance(value, str):
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str, lo: float | None = None, ends: str = "[]") -> float:
    """A number (not a bool) or a numeral string, as a float; given `lo`, it
    must lie in the interval from lo to MAX_COORDINATE (`team.check_range`).

    `float` would read a bool as 1.0 or 0.0.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ScenarioError(f"{what} must be a number, got {value!r}")
    value = float(value)
    if lo is not None:
        check_range(what, value, lo, ends=ends)
    return value


def _id_ranges(value, n: int, what: str = "agent id") -> list[tuple[int, int]]:
    """Accept 7, "7", "8..13", "1,3,5..9", or lists of those, as (lo, hi) ranges
    with ids checked in 1..n; nothing is expanded."""
    if isinstance(value, (list, tuple)):
        return [r for item in value for r in _id_ranges(item, n, what)]
    if not isinstance(value, str):
        value = str(_integer(value, what))
    out = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, hi = (_integer(end, what) for end in
                  (chunk.split("..") if ".." in chunk else (chunk, chunk)))
        for end in (lo, hi):
            check_range(f"{what} '{chunk}'", end, 1, n)
        if hi < lo:
            raise ScenarioError(f"empty id range '{chunk}'")
        out.append((lo, hi))
    return out


def _parse_ids(value, n: int, what: str = "agent id") -> list[int]:
    """The ids of `_id_ranges`, expanded in order."""
    return [agent for lo, hi in _id_ranges(value, n, what) for agent in range(lo, hi + 1)]


def _choice(section: Mapping, key: str, where: str, default: str, allowed) -> str:
    value = section.get(key, default)
    if value not in allowed:
        raise ScenarioError(f"{where}.{key} must be {' or '.join(allowed)}, got {value!r}")
    return value


def _require(mapping: Mapping, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"scenario is missing '{where}.{key}'" if where else
                            f"scenario is missing '{key}'")
    return mapping[key]


def _section(mapping: Mapping, key: str, where: str, required: bool = False) -> Mapping:
    """The nested mapping under `key`; {} for a missing or null optional one."""
    value = _require(mapping, key, where) if required else mapping.get(key)
    if value is None and not required:
        return {}
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{where}.{key} must be a mapping" if where else
                            f"{key} must be a mapping")
    return value


def _parse_team(doc: Mapping) -> TeamConfiguration:
    tsec = _section(doc, "team", "", required=True)
    ssec = _section(doc, "safety", "", required=True)
    n = _integer(_require(tsec, "n_agents", "team"), "team.n_agents")
    layers = _require(tsec, "layers", "team")
    listed = sum(hi - lo + 1 for spec in layers for lo, hi in _id_ranges(spec, n, "team.layers id"))
    miscount = ScenarioError(f"invalid partition: the layers list {listed} agents, "
                             f"team.n_agents is {n}")
    placed = {_integer(key, "team.positions key"): triple for key, triple in
              _section(tsec, "positions", "team", required=True).items()}
    # the document bounds the team: nothing of size n is built for agents it cannot place
    if n > len(placed):
        if listed != n:
            raise miscount
        missing = list(islice((agent for agent in range(1, n + 1) if agent not in placed), 10))
        rest = n - sum(1 <= agent <= n for agent in placed) - len(missing)
        raise ScenarioError(f"agents {missing}{f' and {rest} more' if rest else ''} "
                            "have no material position")
    partition = LayerPartition(tuple(tuple(sorted(_parse_ids(spec, n, "team.layers id")))
                                     for spec in layers))
    if listed != n:
        raise miscount

    # at least n distinct keys, and none may lie outside 1..n: every agent is placed
    for agent in (min(placed), max(placed)):
        check_range("team.positions key", agent, 1, n)
    positions = np.zeros((n, 3))
    for agent, triple in placed.items():
        if not isinstance(triple, (list, tuple, np.ndarray)) or len(triple) != 3:
            raise ScenarioError(f"agent {agent}: position must be an [x, y, z] triple")
        positions[agent - 1] = [_real(x, "team.positions coordinate") for x in triple]
    # checked before any geometry, in one pass; the error names the first agent out of range
    agent = int(in_range(positions).all(axis=1).argmin()) + 1
    check_range(f"agent {agent}: material position", positions[agent - 1])
    n_pl = partition.n_pl
    if np.any(positions[n_pl - 1] != 0.0):
        raise ScenarioError("invalid team: core must be at origin")
    zero = np.flatnonzero(~positions[: n_pl - 1].any(axis=1))
    if zero.size:
        raise ScenarioError(f"invalid team: boundary leader {zero[0] + 1} "
                            "has zero material position")
    check_range("largest boundary-leader |coordinate|",
                float(np.abs(positions[: n_pl - 1]).max()), MIN_COORDINATE)

    margins = [_real(_require(ssec, key, "safety"), f"safety.{key}", 0.0, "(]")
               for key in ("delta", "epsilon", "a_max")]
    safety = SafetyParameters(*margins, boundary_reference_magnitude(positions, partition.n_pl))
    return TeamConfiguration(partition, positions, build_cells(partition, positions), safety)


def _parse_weights(doc: Mapping) -> WeightsSettings:
    wsec = _section(doc, "weights", "")
    mode = _choice(wsec, "mode", "weights", "auto", ("auto", "explicit"))
    average = _choice(wsec, "average", "weights", "all", AVERAGING_MODES)
    matrices: list = []
    if mode == "explicit":
        for entry in _require(wsec, "matrices", "weights"):
            layer = _integer(_require(entry, "layer", "weights.matrices"),
                             "weights.matrices.layer")
            rows = _section(entry, "rows", "weights.matrices", required=True)
            matrices.append((layer, {
                _integer(a, "weights.matrices.rows agent id"): {
                    _integer(l, "weights.matrices.rows leader id"):
                    _real(w, "weights.matrices.rows weight") for l, w in
                    _section(rows, a, "weights.matrices.rows", required=True).items()}
                for a in rows}))
    return WeightsSettings(mode, average, tuple(matrices))


def _parse_qp(doc: Mapping) -> QpSettings:
    qsec = _section(doc, "qp", "")
    zeta = _real(qsec.get("zeta", 1e-6), "qp.zeta", 0.0, "(]")
    scaling = _choice(qsec, "scaling", "qp", "consistent", SCALING_MODES)
    bsec = _section(qsec, "alpha_bounds", "qp")
    bounds_mode = _choice(bsec, "mode", "qp.alpha_bounds",
                          "safety" if "min" not in bsec else "fixed", ("fixed", "safety"))
    amin = amax = None
    if bounds_mode == "fixed":
        amin, amax = (_real(_require(bsec, key, "qp.alpha_bounds"), f"qp.alpha_bounds.{key}",
                            -MAX_COORDINATE) for key in ("min", "max"))
        if amin > amax:
            raise ScenarioError(f"qp.alpha_bounds: min {amin} exceeds max {amax}")
    return QpSettings(zeta, scaling, bounds_mode, amin, amax)


def _parse_sim(doc: Mapping) -> SimSettings:
    ssec = _section(doc, "sim", "")
    duration = _real(ssec.get("duration", 100.0), "sim.duration", 0.0, "(]")
    dt = _real(ssec.get("dt", 0.1), "sim.dt", 0.0, "(]")
    gains = _section(ssec, "gains", "sim")
    kp, kd = (_real(gains.get(key, 4.0), f"sim.gains.{key}", 0.0) for key in ("kp", "kd"))
    mode = _choice(ssec, "mode", "sim", "closed-loop", SIM_MODES)
    return SimSettings(duration, dt, kp, kd, mode)


def _parse_trajectory(doc: Mapping) -> ReferenceTrajectory:
    spec = dict(_section(doc, "trajectory", "", required=True))
    if "omega" in spec:
        spec["omega"] = _real(spec["omega"], "trajectory.omega")
    for key in ("amplitudes", "times"):
        if key in spec:
            spec[key] = [_real(v, f"trajectory.{key}") for v in spec[key]]
    if "points" in spec:
        spec["points"] = [[_real(v, "trajectory.points") for v in point]
                          for point in spec["points"]]
    return make_trajectory(spec)


def parse_scenario(doc: Mapping) -> Scenario:
    if not isinstance(doc, Mapping):
        raise ScenarioError("scenario document must be a mapping")
    tag = doc.get("schema")
    if tag != SCHEMA_TAG:
        raise ScenarioError(f"unsupported scenario schema {tag!r}; expected {SCHEMA_TAG!r}")
    try:
        team = _parse_team(doc)
        report = validate_team(team)
        if not report.ok:
            raise ScenarioError("invalid team: " + "; ".join(report.violations))
        return Scenario(
            name=str(doc.get("name", "unnamed")),
            team=team,
            weights=_parse_weights(doc),
            qp=_parse_qp(doc),
            trajectory=_parse_trajectory(doc),
            sim=_parse_sim(doc),
            validation=report,
        )
    except (ValueError, TypeError) as exc:  # a field that does not convert
        raise ScenarioError(f"malformed scenario value: {exc}") from exc


def load_scenario(source) -> Scenario:
    """Parse a scenario from a path, a YAML string with newlines, or a mapping."""
    if isinstance(source, Mapping):
        return parse_scenario(source)
    if isinstance(source, (str, Path)):
        if isinstance(source, str) and "\n" in source:
            text = source
        else:
            try:
                text = Path(source).read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise ScenarioError(f"cannot read scenario {source}: {exc}") from exc
        try:
            doc = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"malformed scenario document: {exc}") from exc
        return parse_scenario(doc)
    raise ScenarioError(f"cannot load scenario from {type(source).__name__}")


def planning_bounds(scenario: Scenario) -> tuple[float, float]:
    """Scale-factor bounds the planner should use for this scenario."""
    if scenario.qp.bounds_mode == "fixed":
        return scenario.qp.alpha_min, scenario.qp.alpha_max
    window = alpha_bounds(scenario.team)
    # 0 < alpha_min <= alpha_max, so the upper edge bounds both
    safety = scenario.team.safety
    check_range(f"safety window edge alpha_max (safety.a_max {safety.a_max:.6g}, a0 "
                f"{safety.a0:.6g})", window.alpha_max)
    return window.alpha_min, window.alpha_max
