"""Seeded generator for the hex2k-4layer workload.

The team is the full hexagon of a unit triangular lattice with 27 rings
(1 + 3*27*28 = 2269 agents), planar at z = 0. Layer 1 is the six hexagon
corners plus the core at the origin; layer 2 is one interior leader per fan
cell, at the lattice point on the cell centroid; layer 3 is the inner third
of the remaining followers by lattice radius; layer 4 is the rest. Every
point off the hexagon boundary and off the core is jittered in-plane by at
most JITTER, so no pair comes closer than 1 - 2*JITTER and no point leaves
the leading polygon (the nearest interior row sits sqrt(3)/2 inside it).
"""

from __future__ import annotations

import math

import numpy as np

RINGS = 27
JITTER = 0.04
SEPARATION_FLOOR = 1.0 - 2.0 * JITTER
AMPLITUDES = (0.4, 0.4, 0.6)
AMPLITUDE_JITTER = 0.05
SAFETY = {"delta": 0.05, "epsilon": 0.15, "a_max": 60.0}
BOX = (0.6, 2.0)
DURATION = 20.0
DT = 0.4
OMEGA = 0.05

# axial lattice directions, counter-clockwise from +x
_DIRS = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]


def _cartesian(i: int, j: int) -> tuple[float, float]:
    return i + 0.5 * j, 0.5 * math.sqrt(3.0) * j


def _hex_radius(i: int, j: int) -> int:
    return max(abs(i), abs(j), abs(i + j))


def hex_team(seed: int, rings: int = RINGS) -> tuple[np.ndarray, list[tuple[int, int]], list[float]]:
    """Positions (N, 3) ordered by agent id, the layer id ranges and amplitudes."""
    rng = np.random.default_rng(seed)
    corners = [(rings * di, rings * dj) for di, dj in _DIRS]
    centroids = [((ci + ni) // 3, (cj + nj) // 3)
                 for (ci, cj), (ni, nj) in zip(corners, corners[1:] + corners[:1])]
    special = set(corners) | set(centroids) | {(0, 0)}
    followers = [(i, j) for i in range(-rings, rings + 1)
                 for j in range(-rings, rings + 1)
                 if _hex_radius(i, j) <= rings and (i, j) not in special]

    def radial_key(p):
        x, y = _cartesian(*p)
        return (round(x * x + y * y, 9), math.atan2(y, x) % (2.0 * math.pi))

    followers.sort(key=radial_key)
    ordered = corners + [(0, 0)] + centroids + followers
    positions = np.zeros((len(ordered), 3))
    for row, (i, j) in enumerate(ordered):
        positions[row, :2] = _cartesian(i, j)
    # jitter everything strictly inside the hexagon except the core
    movable = np.array([row >= 7 and _hex_radius(*p) < rings
                        for row, p in enumerate(ordered)])
    radius = JITTER * np.sqrt(rng.random(movable.sum()))
    angle = 2.0 * np.pi * rng.random(movable.sum())
    positions[movable, 0] += radius * np.cos(angle)
    positions[movable, 1] += radius * np.sin(angle)

    n = len(ordered)
    n_inner = len(followers) // 3
    layers = [(1, 7), (8, 13), (14, 13 + n_inner), (14 + n_inner, n)]
    amplitudes = [a * (1.0 + AMPLITUDE_JITTER * (2.0 * rng.random() - 1.0))
                  for a in AMPLITUDES]
    return positions, layers, amplitudes


def scenario_yaml(seed: int, rings: int = RINGS) -> str:
    """The hex2k-4layer scenario document for `seed`, exact under %r floats."""
    positions, layers, amplitudes = hex_team(seed, rings)
    lines = [
        'schema: "swarm-scenario/1"',
        f"name: hex{positions.shape[0]}-4layer-seed{seed}",
        "team:",
        f"  n_agents: {positions.shape[0]}",
        "  layers:",
        *(f'    - "{lo}..{hi}"' for lo, hi in layers),
        "  positions:",
        *(f"    {i}: [{x!r}, {y!r}, {z!r}]"
          for i, (x, y, z) in enumerate(positions.tolist(), start=1)),
        "safety:",
        *(f"  {key}: {value!r}" for key, value in SAFETY.items()),
        "weights:",
        "  mode: auto",
        "  average: all",
        "qp:",
        "  zeta: 1.0e-6",
        "  scaling: paper-exact",
        "  alpha_bounds:",
        "    mode: fixed",
        f"    min: {BOX[0]!r}",
        f"    max: {BOX[1]!r}",
        "trajectory:",
        "  kind: helix",
        f"  omega: {OMEGA!r}",
        f"  amplitudes: [{', '.join(repr(a) for a in amplitudes)}]",
        "sim:",
        f"  duration: {DURATION!r}",
        f"  dt: {DT!r}",
        "  gains: {kp: 4.0, kd: 4.0}",
        "  mode: closed-loop",
        "",
    ]
    return "\n".join(lines)


def check_team(team, report) -> None:
    """Raise unless the team and its validation report meet every designed floor."""
    if not report.ok:
        raise ValueError(f"generated team invalid: {report.violations}")
    bad = [w for w in report.warnings if "off their cell plane" in w or "outside" in w]
    if bad:
        raise ValueError(f"generated team warnings: {bad}")
    low = [(cell.cell_id, cell.p_min) for cell in team.cells
           if cell.p_min < SEPARATION_FLOOR]
    if low:
        raise ValueError(f"cells below the separation floor {SEPARATION_FLOOR}: {low}")
