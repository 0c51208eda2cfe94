"""Multi-layer continuum deformation planning for leader-follower teams.

A team is organized as an input layer of primary leaders (a boundary polygon
fanned into triangular cells around a core agent) plus hidden layers whose
agents are convex combinations of three enclosing agents from the previous
layer. Leaders move to alpha_l * a_l0 + s(t); a per-sample QP picks the scale
factors and shift, and the smallest singular value of each cell's deformation
Jacobian certifies inter-agent clearance along the whole plan.
"""

from .errors import NumericalError, SafetyWindowError, ScenarioError, SwarmError
from .hierarchy import (
    CompositeRows,
    LayerWeights,
    barycentric_weights,
    build_layer_weights,
    compose_delta_rows,
    composite_weight_matrix,
    forward_pass,
    nominal_position,
    trajectory_positions,
)
from .io import (
    read_certification,
    read_schedule,
    read_trajectory,
    write_certification,
    write_schedule,
    write_trajectory,
)
from .qp import (
    QpProblem,
    QpSolution,
    Schedule,
    alpha_schedule,
    assemble_problem,
    kkt_residual,
    solve_box_eq_qp,
)
from .safety import (
    CertificationReport,
    SafetyBounds,
    alpha_bounds,
    certify_configuration,
    min_pairwise_distance,
    pure_deformation_spectrum,
    safety_window,
    triangle_jacobian,
)
from .scenario import Scenario, load_scenario, parse_scenario, planning_bounds
from .sim import (
    ControllerGains,
    ReferenceTrajectory,
    SimLog,
    helix_reference,
    make_trajectory,
    run_simulation,
    time_grid,
    tracking_error,
    waypoint_reference,
)
from .team import (
    LayerPartition,
    SafetyParameters,
    TeamConfiguration,
    TriangleCell,
    ValidationReport,
    build_cells,
    enclosing_triangle,
    load_configuration,
    validate_team,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationReport",
    "CompositeRows",
    "ControllerGains",
    "LayerPartition",
    "LayerWeights",
    "NumericalError",
    "QpProblem",
    "QpSolution",
    "ReferenceTrajectory",
    "SafetyBounds",
    "SafetyParameters",
    "SafetyWindowError",
    "Scenario",
    "ScenarioError",
    "Schedule",
    "SimLog",
    "SwarmError",
    "TeamConfiguration",
    "TriangleCell",
    "ValidationReport",
    "alpha_bounds",
    "alpha_schedule",
    "assemble_problem",
    "barycentric_weights",
    "build_cells",
    "build_layer_weights",
    "certify_configuration",
    "compose_delta_rows",
    "composite_weight_matrix",
    "enclosing_triangle",
    "forward_pass",
    "helix_reference",
    "kkt_residual",
    "load_configuration",
    "load_scenario",
    "make_trajectory",
    "min_pairwise_distance",
    "nominal_position",
    "parse_scenario",
    "planning_bounds",
    "pure_deformation_spectrum",
    "read_certification",
    "read_schedule",
    "read_trajectory",
    "run_simulation",
    "safety_window",
    "solve_box_eq_qp",
    "time_grid",
    "tracking_error",
    "trajectory_positions",
    "triangle_jacobian",
    "validate_team",
    "waypoint_reference",
    "write_certification",
    "write_schedule",
    "write_trajectory",
]
