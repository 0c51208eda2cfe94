"""Benchmark workloads and the scenario each one hands to the program.

helix67-consistent and helix67-paper-exact run the shipped
scenarios/helix67.yaml unchanged (the seed does not alter them); only the
scaling mode and the simulation start differ. hex2k-4layer is generated from
the seed by hexgen. square13-smoke is a short grid for the benchmark's own
tests and is not part of BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import hexgen

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Expected:
    """The verdict the code gives today; a different one is a failed check."""

    safe: bool
    worst_margin: str | None = None   # "%.3e" of the worst deformation margin
    worst_cell: int | None = None
    worst_sample: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    source: str                  # scenario file under the repository root, or "hexgen"
    scaling: str | None          # overrides the scenario's qp.scaling
    start_from_command: bool     # simulate from the first commanded positions
    expected: Expected
    dt: float | None = None        # overrides the scenario's sim.dt
    duration: float | None = None  # overrides the scenario's sim.duration

    def scenario_path(self, seed: int, out_dir: Path) -> Path:
        if self.source != "hexgen":
            return ROOT / self.source
        path = out_dir / f"{self.name}-seed{seed}.yaml"
        path.write_text(hexgen.scenario_yaml(seed))
        return path


# helix67 runs its whole 1000 s mission at dt 0.4 (2501 samples) instead of
# the shipped 0.1: each stage then takes about a second, so a run holds enough
# repeats to see through the multi-second speed swings of a shared host. The
# PD loop stays inside its divergence guard at that step.
HELIX_DT = 0.4
HELIX67 = "scenarios/helix67.yaml"

WORKLOADS = {w.name: w for w in (
    Workload("helix67-consistent", HELIX67, None, False, Expected(True), dt=HELIX_DT),
    # Starting from the material configuration trips the divergence guard at
    # t = 0.1 in paper-exact mode. The UNSAFE verdict is a known fact of the
    # shipped box [0.6, 5.0] (at dt 0.1: -5.953e-04, cell 6, sample 8993),
    # recorded here rather than tuned away.
    Workload("helix67-paper-exact", HELIX67, "paper-exact", True,
             Expected(False, "-5.952e-04", 6, 2248), dt=HELIX_DT),
    Workload("hex2k-4layer", "hexgen", None, True, Expected(True)),
    Workload("square13-smoke", "scenarios/square13.yaml", None, False, Expected(True), duration=3.0),
)}

BENCHMARKED = ("helix67-consistent", "helix67-paper-exact", "hex2k-4layer")
