"""Per-timestep quadratic program for the leader scale factors.

Decision vector X = [alpha_1 .. alpha_{n_pl}, s_x, s_y, s_z]. Equality rows pin
the core scale factor to 0 and the shift block to the desired trajectory
sample; inequality rows box the boundary scale factors. The equality variables
are eliminated in closed form and the remaining box-constrained strictly
convex problem is solved with a primal active-set iteration.

Two scaling modes build the quadratic term:

* "consistent" (default): H = 2*zeta*I + 2*sum_a r_a^T r_a with
  k = -2*sum_a s_a r_a, i.e. the exact 0.5*X'HX + k'X form of
  sum_a (r_a.X - s_a)^2 + zeta*|X|^2, whose optimum keeps the nominal
  position on the desired trajectory.
* "paper-exact": H = zeta*I + sum_a r_a^T r_a with the same k. Its
  unconstrained optimum overshoots the desired shift by a factor of 2; it is
  kept for reproducing published traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import lsq_linear

from .errors import NumericalError, ScenarioError
from .hierarchy import CompositeRows, LayerWeights, compose_delta_rows
from .team import TeamConfiguration

SCALING_MODES = ("consistent", "paper-exact")


@dataclass(frozen=True, eq=False)
class QpProblem:
    h: np.ndarray
    k: np.ndarray
    a_ineq: np.ndarray
    b_ineq: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    n_pl: int
    zeta: float
    scaling: str
    alpha_min: float
    alpha_max: float

    @property
    def dim(self) -> int:
        return self.n_pl + 3

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.h @ x + self.k @ x)


@dataclass(frozen=True, eq=False)
class QpSolution:
    x: np.ndarray
    objective: float
    stationarity: float
    primal: float
    complementarity: float
    active_set: tuple[int, ...]
    iterations: int

    @property
    def alpha(self) -> np.ndarray:
        return self.x[:-3]

    @property
    def shift(self) -> np.ndarray:
        return self.x[-3:]

    @property
    def kkt(self) -> tuple[float, float, float]:
        return (self.stationarity, self.primal, self.complementarity)


def assemble_problem(rows: CompositeRows, s_desired: np.ndarray,
                     bounds: tuple[float, float], zeta: float = 1e-6,
                     scaling: str = "consistent") -> QpProblem:
    """Build H, k and the constraint blocks for one trajectory sample."""
    if not 0.0 < zeta < math.inf:
        raise ScenarioError("zeta must be positive and finite")
    if scaling not in SCALING_MODES:
        raise ScenarioError(f"unknown scaling mode {scaling!r}")
    alpha_min, alpha_max = float(bounds[0]), float(bounds[1])
    if not (math.isfinite(alpha_min) and math.isfinite(alpha_max)):
        raise ScenarioError(f"alpha bounds must be finite, got [{alpha_min}, {alpha_max}]")
    if alpha_min > alpha_max:
        raise ScenarioError(f"infeasible alpha bounds: {alpha_min} > {alpha_max}")
    s_desired = np.asarray(s_desired, dtype=float)
    if s_desired.shape != (3,) or not np.all(np.isfinite(s_desired)):
        raise ScenarioError("desired shift must be a finite [x, y, z] triple")

    n_pl = rows.n_pl
    dim = n_pl + 3
    r = rows.r_matrix()
    rtr = r.T @ r
    if scaling == "consistent":
        h = 2.0 * zeta * np.eye(dim) + 2.0 * rtr
    else:
        h = zeta * np.eye(dim) + rtr
    k = -2.0 * (r.T @ s_desired)

    n_free = n_pl - 1
    a_ineq = np.zeros((2 * n_free, dim))
    a_ineq[:n_free, :n_free] = -np.eye(n_free)
    a_ineq[n_free:, :n_free] = np.eye(n_free)
    b_ineq = np.concatenate([np.full(n_free, -alpha_min), np.full(n_free, alpha_max)])

    a_eq = np.zeros((4, dim))
    a_eq[0, n_pl - 1] = 1.0
    a_eq[1:, n_pl:] = np.eye(3)
    b_eq = np.concatenate([[0.0], s_desired])

    return QpProblem(h, k, a_ineq, b_ineq, a_eq, b_eq, n_pl, zeta, scaling,
                     alpha_min, alpha_max)


def _box_active_set(q: np.ndarray, c: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, int]:
    """Minimize 0.5 y'Qy + c'y over the box [lo, hi]^n, Q positive definite."""
    n = c.size
    if n == 0:
        return np.empty(0), 0
    if lo == hi:
        return np.full(n, lo), 0
    x = np.clip(np.linalg.solve(q, -c), lo, hi)
    at_lo = x <= lo
    at_hi = x >= hi
    x[at_lo] = lo
    x[at_hi] = hi
    max_iter = 30 + 10 * n
    for it in range(1, max_iter + 1):
        free = ~(at_lo | at_hi)
        if free.any():
            fixed = ~free
            rhs = -(c[free] + q[np.ix_(free, fixed)] @ x[fixed])
            xf = np.linalg.solve(q[np.ix_(free, free)], rhs)
            d = xf - x[free]
            # largest step inside the box along d
            with np.errstate(divide="ignore", invalid="ignore"):
                t_lo = np.where(d < 0.0, (lo - x[free]) / d, np.inf)
                t_hi = np.where(d > 0.0, (hi - x[free]) / d, np.inf)
            t_coord = np.minimum(t_lo, t_hi)
            t_min = t_coord.min() if t_coord.size else np.inf
            if t_min < 1.0:
                step = x[free] + t_min * d
                blocked = t_coord <= t_min * (1.0 + 1e-12)
                hit_lo = blocked & (d < 0.0)
                hit_hi = blocked & (d > 0.0)
                step[hit_lo] = lo
                step[hit_hi] = hi
                x[free] = step
                idx = np.where(free)[0]
                at_lo[idx[hit_lo]] = True
                at_hi[idx[hit_hi]] = True
                continue
            x[free] = np.clip(xf, lo, hi)
        # minimizer on the current active set; check bound multipliers
        g = q @ x + c
        worst = 0.0
        release = -1
        release_lo = False
        for i in np.where(at_lo)[0]:
            if g[i] < worst:
                worst, release, release_lo = g[i], i, True
        for i in np.where(at_hi)[0]:
            if -g[i] < worst:
                worst, release, release_lo = -g[i], i, False
        if release < 0 or worst >= -1e-11:
            return x, it
        if release_lo:
            at_lo[release] = False
        else:
            at_hi[release] = False
    raise NumericalError("box active-set solve did not converge")


def solve_box_eq_qp(problem: QpProblem) -> QpSolution:
    """Solve the planner QP; the returned KKT residuals use exact multipliers."""
    n_pl = problem.n_pl
    dim = problem.dim
    free = np.arange(n_pl - 1)
    pinned = np.arange(n_pl - 1, dim)
    x = np.empty(dim)
    x[pinned] = problem.b_eq

    q_red = problem.h[np.ix_(free, free)]
    c_red = problem.k[free] + problem.h[np.ix_(free, pinned)] @ problem.b_eq
    y, iterations = _box_active_set(q_red, c_red, problem.alpha_min, problem.alpha_max)
    x[free] = y

    g = problem.h @ x + problem.k
    n_free = n_pl - 1
    mu = np.zeros(2 * n_free)
    collapsed = problem.alpha_min == problem.alpha_max
    for i in range(n_free):
        gi = g[i]
        if collapsed:
            mu[i] = max(gi, 0.0)
            mu[n_free + i] = max(-gi, 0.0)
        elif x[i] == problem.alpha_min:
            mu[i] = max(gi, 0.0)
        elif x[i] == problem.alpha_max:
            mu[n_free + i] = max(-gi, 0.0)
    nu = -g[pinned]

    stationarity = float(np.abs(g + problem.a_ineq.T @ mu + problem.a_eq.T @ nu).max())
    slack = problem.b_ineq - problem.a_ineq @ x
    primal = float(max(0.0, -slack.min() if slack.size else 0.0,
                       np.abs(problem.a_eq @ x - problem.b_eq).max()))
    complementarity = float(np.abs(mu * slack).max()) if slack.size else 0.0
    active = tuple(int(i) for i in np.where(slack <= 1e-9)[0])
    return QpSolution(x, problem.objective(x), stationarity, primal,
                      complementarity, active, iterations)


def kkt_residual(problem: QpProblem, x: np.ndarray,
                 active_tol: float = 1e-8) -> tuple[float, float, float]:
    """Stationarity / primal / complementarity residuals at an arbitrary point.

    Multipliers are recovered by a nonnegative least-squares fit supported on
    the constraints active at `x`, so the stationarity figure is the best
    achievable for this point.
    """
    x = np.asarray(x, dtype=float)
    g = problem.h @ x + problem.k
    slack = problem.b_ineq - problem.a_ineq @ x
    primal = float(max(0.0, -slack.min() if slack.size else 0.0,
                       np.abs(problem.a_eq @ x - problem.b_eq).max()))
    active = np.where(slack <= active_tol)[0]
    basis = np.vstack([problem.a_ineq[active], problem.a_eq])
    lower = np.concatenate([np.zeros(active.size), np.full(4, -np.inf)])
    upper = np.full(active.size + 4, np.inf)
    fit = lsq_linear(basis.T, -g, bounds=(lower, upper))
    mu = np.zeros(problem.a_ineq.shape[0])
    mu[active] = fit.x[: active.size]
    nu = fit.x[active.size:]
    stationarity = float(np.abs(g + problem.a_ineq.T @ mu + problem.a_eq.T @ nu).max())
    complementarity = float(np.abs(mu * slack).max()) if slack.size else 0.0
    return (stationarity, primal, complementarity)


@dataclass(eq=False)
class Schedule:
    """Planner output over a time grid."""

    t: np.ndarray          # (n,)
    alpha: np.ndarray      # (n, n_pl), core column pinned to 0
    shift: np.ndarray      # (n, 3)
    objective: np.ndarray  # (n,)
    kkt: np.ndarray | None  # (n, 3) stationarity/primal/complementarity
    alpha_min: float
    alpha_max: float
    zeta: float
    scaling: str

    @property
    def n_samples(self) -> int:
        return self.t.size

    def decision_vector(self, i: int) -> np.ndarray:
        return np.concatenate([self.alpha[i], self.shift[i]])


def _trajectory_sample(trajectory, t: float) -> np.ndarray:
    if hasattr(trajectory, "position"):
        return np.asarray(trajectory.position(t), dtype=float)
    return np.asarray(trajectory(t), dtype=float)


def alpha_schedule(team: TeamConfiguration, weights: LayerWeights, trajectory,
                   t_grid: np.ndarray, bounds: tuple[float, float],
                   zeta: float = 1e-6, scaling: str = "consistent",
                   average: str = "all") -> Schedule:
    """Solve the planner QP at every sample of `t_grid`."""
    t_grid = np.asarray(t_grid, dtype=float)
    rows = compose_delta_rows(team, weights, average)
    n = t_grid.size
    alpha = np.empty((n, rows.n_pl))
    shift = np.empty((n, 3))
    objective = np.empty(n)
    kkt = np.empty((n, 3))
    for i, t in enumerate(t_grid):
        problem = assemble_problem(rows, _trajectory_sample(trajectory, t),
                                   bounds, zeta, scaling)
        sol = solve_box_eq_qp(problem)
        alpha[i] = sol.alpha
        shift[i] = sol.shift
        objective[i] = sol.objective
        kkt[i] = sol.kkt
    return Schedule(t_grid.copy(), alpha, shift, objective, kkt,
                    float(bounds[0]), float(bounds[1]), zeta, scaling)
