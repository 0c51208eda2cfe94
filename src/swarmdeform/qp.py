"""Per-timestep quadratic program for the leader scale factors.

Decision vector X = [alpha_1 .. alpha_{n_pl}, s_x, s_y, s_z]. Equality rows pin
the core scale factor to 0 and the shift block to the desired trajectory
sample; inequality rows box the boundary scale factors. The equality variables
are eliminated in closed form and the remaining box-constrained strictly
convex problem is solved with a primal active-set iteration.

H and the constraints are the same at every sample of a mission; only k and
b_eq follow the desired shift. `alpha_schedule` therefore solves all samples
in one stack, and `solve_box_eq_qp` is the one-sample case of the same code.

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
# slack at or below which kkt_residual treats a box row as active
KKT_ACTIVE_TOL = 1e-8


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
    k, b_eq = _linear_terms(r, s_desired)

    n_free = n_pl - 1
    a_ineq = np.zeros((2 * n_free, dim))
    a_ineq[:n_free, :n_free] = -np.eye(n_free)
    a_ineq[n_free:, :n_free] = np.eye(n_free)
    b_ineq = np.concatenate([np.full(n_free, -alpha_min), np.full(n_free, alpha_max)])

    a_eq = np.zeros((4, dim))
    a_eq[0, n_pl - 1] = 1.0
    a_eq[1:, n_pl:] = np.eye(3)

    return QpProblem(h, k, a_ineq, b_ineq, a_eq, b_eq, n_pl, zeta, scaling,
                     alpha_min, alpha_max)


def _linear_terms(r: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k = -2 r's and b_eq = [0, s] for one shift (3,) or a stack of them (n, 3).

    The stacked matmul runs the same matrix-vector product per row as `r.T @ s`.
    """
    k = -2.0 * np.matmul(r.T, s[..., None])[..., 0]
    b_eq = np.concatenate([np.zeros(s.shape[:-1] + (1,)), s], axis=-1)
    return k, b_eq


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[..., j] * b[..., j] (broadcast), accumulated left to right.

    Every output element goes through the same float operations whatever
    batch it sits in, so a stacked solve equals its one-row solves bit for
    bit; a BLAS product or a pairwise sum gives no such guarantee.
    """
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape[:-1])
    for j in range(a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out


def _box_active_set(q: np.ndarray, c: np.ndarray, lo: float,
                    hi: float) -> tuple[np.ndarray, np.ndarray | int]:
    """Minimize 0.5 y'Qy + c'y over the box [lo, hi]^m, Q positive definite.

    `c` is one linear term (m,) or a stack (n, m). Every row runs its own
    primal active-set iteration and all rows advance together; a row drops
    out once it converges. Returns the minimizers in the shape of `c` and the
    iteration count of each row.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim == 1:
        y, iterations = _box_active_set(q, c[None], lo, hi)
        return y[0], int(iterations[0])
    n, m = c.shape
    iterations = np.zeros(n, dtype=int)
    if m == 0 or lo == hi:
        return np.full((n, m), lo), iterations
    y = np.clip(np.linalg.solve(np.broadcast_to(q, (n, m, m)), -c[..., None])[..., 0],
                lo, hi)
    at_lo = y <= lo
    at_hi = y >= hi
    eye = np.eye(m)
    live = np.arange(n)  # rows still iterating
    for it in range(1, 31 + 10 * m):
        x, x_lo, x_hi, cl = y[live], at_lo[live], at_hi[live], c[live]
        free = ~(x_lo | x_hi)
        # free block of Q, identity rows on the fixed coordinates
        system = np.where(free[:, :, None] & free[:, None, :], q, eye)
        rhs = np.where(free, -(cl + _dot(q, np.where(free, 0.0, x)[:, None, :])), x)
        xf = np.linalg.solve(system, rhs[..., None])[..., 0]
        d = np.where(free, xf - x, 0.0)
        # largest step inside the box along d; a ratio that overflows to +inf
        # does not block, as intended
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t_coord = np.minimum(np.where(d < 0.0, (lo - x) / d, np.inf),
                                 np.where(d > 0.0, (hi - x) / d, np.inf))
        t_min = t_coord.min(axis=1, keepdims=True)
        blocked = t_min < 1.0
        hit = blocked & (t_coord <= t_min * (1.0 + 1e-12))
        step = x + np.where(blocked, t_min, 0.0) * d
        x = np.where(free, np.where(blocked, step, np.clip(xf, lo, hi)), x)
        x[hit & (d < 0.0)] = lo
        x[hit & (d > 0.0)] = hi
        x_lo |= hit & (d < 0.0)
        x_hi |= hit & (d > 0.0)
        # an unblocked row sits at the minimizer on its active set: it is done
        # unless a bound multiplier is negative, then the most negative bound
        # (first on ties, lower bounds first) is released
        g = _dot(q, x[:, None, :]) + cl
        mult = np.concatenate([np.where(x_lo, g, 0.0), np.where(x_hi, -g, 0.0)], axis=1)
        worst = mult.argmin(axis=1)
        rows = np.arange(live.size)
        settled = ~blocked[:, 0]
        done = settled & (mult[rows, worst] >= -1e-11)
        on_lo = settled & ~done & (worst < m)
        on_hi = settled & ~done & (worst >= m)
        x_lo[rows[on_lo], worst[on_lo]] = False
        x_hi[rows[on_hi], worst[on_hi] - m] = False
        y[live], at_lo[live], at_hi[live] = x, x_lo, x_hi
        iterations[live[done]] = it
        live = live[~done]
        if live.size == 0:
            return y, iterations
    raise NumericalError("box active-set solve did not converge")


@dataclass(frozen=True, eq=False)
class _Solved:
    """Planner QP solutions for a stack of linear terms, one row per sample."""

    x: np.ndarray           # (n, dim)
    objective: np.ndarray   # (n,)
    kkt: np.ndarray         # (n, 3) stationarity/primal/complementarity
    active: np.ndarray      # (n, 2 n_free) box rows with slack <= 1e-9
    iterations: np.ndarray  # (n,)


def _solve_stack(problem: QpProblem, k: np.ndarray, b_eq: np.ndarray) -> _Solved:
    """Solve `problem` once per row of k (n, dim) and b_eq (n, 4).

    H and the constraint blocks are shared; the problem's own k and b_eq are
    not used. KKT residuals use exact multipliers: the bound gradients on the
    free block and -g on the pinned block.
    """
    n_free = problem.n_pl - 1
    h, lo, hi = problem.h, problem.alpha_min, problem.alpha_max
    x = np.empty(k.shape)
    x[:, n_free:] = b_eq
    c_red = k[:, :n_free] + _dot(h[:n_free, n_free:], b_eq[:, None, :])
    x[:, :n_free], iterations = _box_active_set(h[:n_free, :n_free], c_red, lo, hi)

    g = _dot(h, x[:, None, :]) + k
    y, g_free = x[:, :n_free], g[:, :n_free]
    collapsed = lo == hi
    mu = np.concatenate([np.where(collapsed | (y == lo), np.maximum(g_free, 0.0), 0.0),
                         np.where(collapsed | (y == hi), np.maximum(-g_free, 0.0), 0.0)],
                        axis=1)
    nu = -g[:, n_free:]
    stationarity = np.abs(g + _dot(problem.a_ineq.T, mu[:, None, :])
                          + _dot(problem.a_eq.T, nu[:, None, :])).max(axis=1)
    slack = problem.b_ineq - _dot(problem.a_ineq, x[:, None, :])
    primal = np.maximum(np.max(-slack, axis=1, initial=0.0),
                        np.abs(_dot(problem.a_eq, x[:, None, :]) - b_eq).max(axis=1))
    complementarity = np.max(np.abs(mu * slack), axis=1, initial=0.0)
    objective = 0.5 * _dot(x, _dot(h, x[:, None, :])) + _dot(k, x)
    return _Solved(x, objective, np.stack([stationarity, primal, complementarity], axis=1),
                   slack <= 1e-9, iterations)


def solve_box_eq_qp(problem: QpProblem) -> QpSolution:
    """Solve the planner QP; the returned KKT residuals use exact multipliers."""
    out = _solve_stack(problem, problem.k[None], problem.b_eq[None])
    stationarity, primal, complementarity = (float(v) for v in out.kkt[0])
    active = tuple(int(i) for i in np.flatnonzero(out.active[0]))
    return QpSolution(out.x[0], float(out.objective[0]), stationarity, primal,
                      complementarity, active, int(out.iterations[0]))


def kkt_residual(problem: QpProblem, x: np.ndarray) -> tuple[float, float, float]:
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
    active = np.where(slack <= KKT_ACTIVE_TOL)[0]
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
    iterations: np.ndarray | None = None     # (n,) active-set iterations
    active_bounds: np.ndarray | None = None  # (n,) box rows active at the solution

    @property
    def n_samples(self) -> int:
        return self.t.size

    def decision_vector(self, i: int) -> np.ndarray:
        return np.concatenate([self.alpha[i], self.shift[i]])


def alpha_schedule(team: TeamConfiguration, weights: LayerWeights, trajectory,
                   t_grid: np.ndarray, bounds: tuple[float, float],
                   zeta: float = 1e-6, scaling: str = "consistent",
                   average: str = "all") -> Schedule:
    """Solve the planner QP at every sample of `t_grid`, all samples in one stack.

    H and the constraints are the same at every sample; only k and b_eq
    follow the desired shift, sampled in one `trajectory.position(t_grid)`
    call. Each row equals `solve_box_eq_qp` on
    `assemble_problem(rows, trajectory.position(t))` bit for bit wherever that
    call's rows equal the one-t calls, as they do on the shipped trajectories.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    rows = compose_delta_rows(team, weights, average)
    shifts = np.asarray(trajectory.position(t_grid), dtype=float)
    if shifts.shape != (t_grid.size, 3) or not np.all(np.isfinite(shifts)):
        raise ScenarioError("desired shift must be a finite [x, y, z] triple")
    problem = assemble_problem(rows, np.zeros(3), bounds, zeta, scaling)
    out = _solve_stack(problem, *_linear_terms(rows.r_matrix(), shifts))
    n_pl = rows.n_pl
    return Schedule(t_grid.copy(), out.x[:, :n_pl], out.x[:, n_pl:], out.objective,
                    out.kkt, float(bounds[0]), float(bounds[1]), zeta, scaling,
                    out.iterations, out.active.sum(axis=1))
