"""Scenario documents: structured-text (YAML) schema, parsing, settings bundles.

A scenario bundles the team (layers, material positions), safety margins,
weight-construction options, planner settings, the reference trajectory, and
simulation settings under the versioned tag ``swarm-scenario/1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np
import yaml

from .errors import ScenarioError
from .hierarchy import AVERAGING_MODES
from .qp import SCALING_MODES
from .safety import alpha_bounds
from .sim import SIM_MODES, make_trajectory
from .team import (LayerPartition, SafetyParameters, TeamConfiguration,
                   ValidationReport, boundary_reference_magnitude, build_cells,
                   validate_team)

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


def _parse_ids(value) -> list[int]:
    """Accept 7, "7", "8..13", "1,3,5..9", or lists of those."""
    if isinstance(value, int):
        return [value]
    if isinstance(value, (list, tuple)):
        out: list[int] = []
        for item in value:
            out.extend(_parse_ids(item))
        return out
    if isinstance(value, str):
        out = []
        for chunk in value.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ".." in chunk:
                lo_s, hi_s = chunk.split("..")
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise ScenarioError(f"empty id range '{chunk}'")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(chunk))
        return out
    raise ScenarioError(f"cannot parse agent ids from {value!r}")


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


def _parse_team(doc: Mapping) -> TeamConfiguration:
    tsec = _require(doc, "team", "")
    ssec = _require(doc, "safety", "")
    n = int(_require(tsec, "n_agents", "team"))
    layer_specs = _require(tsec, "layers", "team")
    new_sets = []
    for spec in layer_specs:
        ids = _parse_ids(spec)
        if len(ids) != len(set(ids)):
            raise ScenarioError(f"duplicate agent ids in layer spec {spec!r}")
        new_sets.append(tuple(sorted(ids)))
    partition = LayerPartition(tuple(new_sets))

    pos_map = _require(tsec, "positions", "team")
    positions = np.full((n, 3), np.nan)
    for key, triple in pos_map.items():
        agent = int(key)
        if not 1 <= agent <= n:
            raise ScenarioError(f"position given for unknown agent {agent}")
        arr = np.asarray(triple, dtype=float)
        if arr.shape != (3,):
            raise ScenarioError(f"agent {agent}: position must be an [x, y, z] triple")
        positions[agent - 1] = arr
    missing = [i + 1 for i in range(n) if np.isnan(positions[i]).any()]
    if missing:
        raise ScenarioError(f"agents {missing} have no material position")

    delta = float(_require(ssec, "delta", "safety"))
    epsilon = float(_require(ssec, "epsilon", "safety"))
    a_max = float(_require(ssec, "a_max", "safety"))
    safety = SafetyParameters(delta, epsilon, a_max,
                              boundary_reference_magnitude(positions, partition.n_pl))

    explicit_members = None
    if "cell_members" in tsec and tsec["cell_members"] is not None:
        explicit_members = {int(cid): _parse_ids(ids)
                            for cid, ids in tsec["cell_members"].items()}
    cells = build_cells(partition, positions, explicit_members)
    return TeamConfiguration(partition, positions, cells, safety)


def _parse_weights(doc: Mapping) -> WeightsSettings:
    wsec = doc.get("weights") or {}
    mode = _choice(wsec, "mode", "weights", "auto", ("auto", "explicit"))
    average = _choice(wsec, "average", "weights", "all", AVERAGING_MODES)
    matrices: list = []
    if mode == "explicit":
        for entry in _require(wsec, "matrices", "weights"):
            layer = int(_require(entry, "layer", "weights.matrices"))
            rows = {int(a): {int(l): float(w) for l, w in row.items()}
                    for a, row in _require(entry, "rows", "weights.matrices").items()}
            matrices.append((layer, rows))
    return WeightsSettings(mode, average, tuple(matrices))


def _parse_qp(doc: Mapping) -> QpSettings:
    qsec = doc.get("qp") or {}
    zeta = float(qsec.get("zeta", 1e-6))
    scaling = _choice(qsec, "scaling", "qp", "consistent", SCALING_MODES)
    bsec = qsec.get("alpha_bounds") or {}
    bounds_mode = _choice(bsec, "mode", "qp.alpha_bounds",
                          "safety" if "min" not in bsec else "fixed", ("fixed", "safety"))
    amin = amax = None
    if bounds_mode == "fixed":
        amin = float(_require(bsec, "min", "qp.alpha_bounds"))
        amax = float(_require(bsec, "max", "qp.alpha_bounds"))
        if amin > amax:
            raise ScenarioError(f"qp.alpha_bounds: min {amin} exceeds max {amax}")
    return QpSettings(zeta, scaling, bounds_mode, amin, amax)


def _parse_sim(doc: Mapping) -> SimSettings:
    ssec = doc.get("sim") or {}
    duration = float(ssec.get("duration", 100.0))
    dt = float(ssec.get("dt", 0.1))
    if duration <= 0.0 or dt <= 0.0:
        raise ScenarioError("sim.duration and sim.dt must be positive")
    gains = ssec.get("gains") or {}
    kp = float(gains.get("kp", 4.0))
    kd = float(gains.get("kd", 4.0))
    mode = _choice(ssec, "mode", "sim", "closed-loop", SIM_MODES)
    return SimSettings(duration, dt, kp, kd, mode)


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
            trajectory=make_trajectory(_require(doc, "trajectory", "")),
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
    return window.alpha_min, window.alpha_max
