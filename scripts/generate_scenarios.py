#!/usr/bin/env python3
"""Regenerate the bundled scenario fixtures.

Both teams are constructed on a 1/64 lattice so every coordinate, every
row-stochastic weight and every coordinate sum is exact in binary floating
point; in particular each team's material centroid is exactly the origin,
which pins the symmetric planner solution to the lower scale bound.

helix67: 7 leaders (hexagon boundary + core), 6 fan cells, 10 interior
agents per cell placed so all pairwise separations clear 2.2 within a cell
and 2.5 across cells. Interior patterns repeat under the 180-degree rotation
(x, y, z) -> (-x, -y, z) that maps the boundary onto itself, so x and y sums
cancel pairwise; cell patterns are chosen so the z sum cancels exactly too.

square13: 4 boundary leaders on the axes plus core, one interior leader and
one follower per cell; small enough for quick unit tests and CLI runs.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from swarmdeform import (  # noqa: E402
    LayerPartition,
    SafetyParameters,
    TeamConfiguration,
    alpha_bounds,
    assemble_problem,
    build_cells,
    build_layer_weights,
    compose_delta_rows,
    solve_box_eq_qp,
    validate_team,
)
from swarmdeform.team import boundary_reference_magnitude  # noqa: E402

# hexagon boundary with alternating heights summing to zero; core at origin
HELIX_BOUNDARY = [
    (20, 0, -1), (10, 10, 1), (-10, 10, 0),
    (-20, 0, -1), (-10, -10, 1), (10, -10, 0),
]

# (k1, k2) weight numerators (denominator 64) on each cell's two boundary
# vertices; the first point of each cell is its interior leader.
# C1 balances sum(k2 - k1) to zero; C3 is the transpose of C2, so the
# positive z mass of the C2-type cells cancels the C3-type cells exactly.
C1 = [(10, 8), (18, 8), (26, 8), (34, 8),
      (8, 20), (16, 20), (24, 20), (32, 20),
      (6, 38), (14, 38)]
C2 = [(6, 8), (16, 8), (26, 8), (36, 8),
      (6, 18), (16, 18), (26, 18),
      (6, 28), (16, 28),
      (6, 38)]
C3 = [(k2, k1) for (k1, k2) in C2]
HELIX_PATTERNS = [C1, C2, C3, C1, C2, C3]

HELIX_SAFETY = {"delta": 0.1, "epsilon": 0.4, "a_max": 25.0}
MIN_WITHIN = 2.2    # designed within-cell separation floor
MIN_CROSS = 2.45    # designed cross-cell separation floor


def helix_positions() -> dict[int, tuple[Fraction, Fraction, Fraction]]:
    pos: dict[int, tuple[Fraction, Fraction, Fraction]] = {}
    for j, b in enumerate(HELIX_BOUNDARY, start=1):
        pos[j] = tuple(Fraction(c) for c in b)
    pos[7] = (Fraction(0), Fraction(0), Fraction(0))

    interiors: list[list[tuple[Fraction, Fraction, Fraction]]] = []
    for j, pattern in enumerate(HELIX_PATTERNS, start=1):
        va = HELIX_BOUNDARY[j - 1]
        vb = HELIX_BOUNDARY[j % 6]
        cell_pts = []
        for k1, k2 in pattern:
            p = tuple(Fraction(k1 * va[i] + k2 * vb[i], 64) for i in range(3))
            cell_pts.append(p)
        interiors.append(cell_pts)

    for j, cell_pts in enumerate(interiors):
        pos[8 + j] = cell_pts[0]
    follower = 14
    for cell_pts in interiors:
        for p in cell_pts[1:]:
            pos[follower] = p
            follower += 1
    assert follower == 68
    return pos


def verify_helix(pos: dict[int, tuple[Fraction, Fraction, Fraction]]) -> TeamConfiguration:
    n = 67
    for axis in range(3):
        total = sum(p[axis] for p in pos.values())
        assert total == 0, f"axis {axis} sum {total}"

    arr = np.array([[float(c) for c in pos[i]] for i in range(1, n + 1)])
    assert np.all(arr.sum(axis=0) == 0.0), "float sums must cancel exactly"

    cell_of = {}
    for j in range(6):
        ids = [8 + j] + list(range(14 + 9 * j, 14 + 9 * (j + 1)))
        for i in ids:
            cell_of[i] = j + 1
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            d = float(np.linalg.norm(arr[a - 1] - arr[b - 1]))
            same = (cell_of.get(a) is not None and cell_of.get(a) == cell_of.get(b))
            if a <= 7 or b <= 7:
                assert d >= MIN_WITHIN, f"leader pair {a},{b}: {d}"
            elif same:
                assert d >= MIN_WITHIN, f"within-cell pair {a},{b}: {d}"
            else:
                assert d >= MIN_CROSS, f"cross-cell pair {a},{b}: {d}"

    partition = LayerPartition((tuple(range(1, 8)), tuple(range(8, 14)),
                                tuple(range(14, 68))))
    cells = build_cells(partition, arr)
    for j, cell in enumerate(cells, start=1):
        expected = tuple(sorted([7, j, j % 6 + 1, 8 + (j - 1)]
                                + list(range(14 + 9 * (j - 1), 14 + 9 * j))))
        assert cell.members == expected, f"cell {j}: {cell.members} != {expected}"
        assert cell.p_min >= MIN_WITHIN

    safety = SafetyParameters(**HELIX_SAFETY,
                              a0=boundary_reference_magnitude(arr, 7))
    team = TeamConfiguration(partition, arr, cells, safety)
    report = validate_team(team)
    assert report.ok, report.violations
    assert not any("outside" in w for w in report.warnings), report.warnings

    window = alpha_bounds(team)
    assert window.alpha_min < 0.6 < window.alpha_max < 5.0, window

    # symmetric team + exact-zero centroid: planner rides the lower bound
    weights = build_layer_weights(team)
    r = compose_delta_rows(team, weights)
    for lo, s in ((window.alpha_min, (0.0, 0.0, 0.6)), (0.6, (2.3, -0.4, 0.1))):
        sol = solve_box_eq_qp(assemble_problem(r, np.array(s), (lo, 5.0)))
        assert np.all(sol.alpha[:6] == lo), sol.alpha
        assert max(sol.kkt) <= 1e-8, sol.kkt
    print(f"helix67 ok: window [{window.alpha_min:.6f}, {window.alpha_max:.6f}], "
          f"global p_min {min(c.p_min for c in cells):.6f}")
    return team


def square_positions() -> dict[int, tuple[Fraction, ...]]:
    f = Fraction
    pos = {
        1: (f(4), f(0), f(0)), 2: (f(0), f(4), f(0)),
        3: (f(-4), f(0), f(0)), 4: (f(0), f(-4), f(0)),
        5: (f(0), f(0), f(0)),
    }
    corners = [(1, 2), (2, 3), (3, 4), (4, 1)]
    for j, (a, b) in enumerate(corners):
        va, vb = pos[a], pos[b]
        pos[6 + j] = tuple(f(3, 8) * va[i] + f(3, 8) * vb[i] for i in range(3))
        pos[10 + j] = tuple(f(5, 8) * va[i] + f(2, 8) * vb[i] for i in range(3))
    return pos


def verify_square(pos) -> TeamConfiguration:
    arr = np.array([[float(c) for c in pos[i]] for i in range(1, 14)])
    for axis in range(3):
        assert sum(p[axis] for p in pos.values()) == 0
    partition = LayerPartition(((1, 2, 3, 4, 5), (6, 7, 8, 9), (10, 11, 12, 13)))
    cells = build_cells(partition, arr)
    safety = SafetyParameters(delta=0.05, epsilon=0.15, a_max=4.9,
                              a0=boundary_reference_magnitude(arr, 5))
    team = TeamConfiguration(partition, arr, cells, safety)
    report = validate_team(team)
    assert report.ok and not report.warnings, (report.violations, report.warnings)
    window = alpha_bounds(team)
    assert window.alpha_min < 0.5 < 1.1 < window.alpha_max, window
    print(f"square13 ok: window [{window.alpha_min:.6f}, {window.alpha_max:.6f}], "
          f"global p_min {min(c.p_min for c in cells):.6f}")
    return team


def fmt(x: Fraction) -> str:
    return repr(float(x))


def emit_positions(pos: dict[int, tuple]) -> list[str]:
    lines = []
    for i in sorted(pos):
        x, y, z = (fmt(c) for c in pos[i])
        lines.append(f"    {i}: [{x}, {y}, {z}]")
    return lines


def write_helix(pos) -> None:
    lines = [
        "# 67-agent hexagonal team: 6 boundary leaders around a core, 6 fan",
        "# cells with one interior leader and nine followers each. All",
        "# coordinates are multiples of 1/64 and every axis sums to zero",
        "# exactly. Regenerate with scripts/generate_scenarios.py.",
        'schema: "swarm-scenario/1"',
        "name: helix67",
        "team:",
        "  n_agents: 67",
        "  layers:",
        '    - "1..7"',
        '    - "8..13"',
        '    - "14..67"',
        "  positions:",
        *emit_positions(pos),
        "safety:",
        f"  delta: {HELIX_SAFETY['delta']}",
        f"  epsilon: {HELIX_SAFETY['epsilon']}",
        f"  a_max: {HELIX_SAFETY['a_max']}",
        "weights:",
        "  mode: auto",
        "  average: all",
        "qp:",
        "  zeta: 1.0e-6",
        "  scaling: consistent",
        "  alpha_bounds:",
        "    mode: fixed",
        "    min: 0.6",
        "    max: 5.0",
        "trajectory:",
        "  kind: helix",
        "  omega: 0.01",
        "  amplitudes: [0.4, 0.4, 0.6]",
        "sim:",
        "  duration: 1000.0",
        "  dt: 0.1",
        "  gains: {kp: 4.0, kd: 4.0}",
        "  mode: closed-loop",
        "",
    ]
    (ROOT / "scenarios" / "helix67.yaml").write_text("\n".join(lines))


def write_square(pos) -> None:
    lines = [
        "# 13-agent four-cell team on the coordinate axes; planar and fully",
        "# symmetric, intended for quick tests and CLI examples. Regenerate",
        "# with scripts/generate_scenarios.py.",
        'schema: "swarm-scenario/1"',
        "name: square13",
        "team:",
        "  n_agents: 13",
        "  layers:",
        '    - "1..5"',
        '    - "6..9"',
        '    - "10..13"',
        "  positions:",
        *emit_positions(pos),
        "safety:",
        "  delta: 0.05",
        "  epsilon: 0.15",
        "  a_max: 4.9",
        "weights:",
        "  mode: auto",
        "  average: all",
        "qp:",
        "  zeta: 1.0e-6",
        "  scaling: consistent",
        "  alpha_bounds:",
        "    mode: fixed",
        "    min: 0.5",
        "    max: 1.1",
        "trajectory:",
        "  kind: waypoints",
        "  times: [0.0, 10.0, 20.0, 30.0]",
        "  points:",
        "    - [0.0, 0.0, 0.0]",
        "    - [0.3, 0.2, 0.1]",
        "    - [0.5, -0.2, 0.2]",
        "    - [0.8, 0.0, 0.0]",
        "sim:",
        "  duration: 30.0",
        "  dt: 0.1",
        "  gains: {kp: 4.0, kd: 4.0}",
        "  mode: closed-loop",
        "",
    ]
    (ROOT / "scenarios" / "square13.yaml").write_text("\n".join(lines))


def main() -> None:
    helix = helix_positions()
    verify_helix(helix)
    write_helix(helix)

    square = square_positions()
    verify_square(square)
    write_square(square)

    # round-trip: the written files must load into identical teams
    from swarmdeform import load_scenario
    for name, pos in (("helix67", helix), ("square13", square)):
        scenario = load_scenario(ROOT / "scenarios" / f"{name}.yaml")
        arr = np.array([[float(c) for c in pos[i]] for i in sorted(pos)])
        assert np.array_equal(scenario.team.positions, arr), name
        print(f"wrote scenarios/{name}.yaml ({scenario.team.n_agents} agents)")


if __name__ == "__main__":
    main()
