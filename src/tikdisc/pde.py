"""Parabolic forward model and discrete-adjoint misfit gradients.

The governing equation on D = [0, 1] x [-5, 5] is

    u_t = a(t, y) * u_yy + (b - a(t, y)) * u_y

with u(0, y) = max(0, 1 - exp(y)), u(t, -5) = 1, u(t, 5) = 0.  Time stepping
is Crank-Nicolson with centred space differences: writing eta = dt/dy**2 and
am = dt/dy, the spatial stencil applied to an interior row is

    C(a) u |_j = 0.5 * eta * a_j * (u_{j+1} - 2 u_j + u_{j-1})
                 - 0.25 * am * (a_j - b) * (u_{j+1} - u_{j-1})

and each step solves (I - C(a_new)) u_new = (I + C(a_old)) u_old on the
interior, one tridiagonal system per step.  The left-hand rows must be
diagonally dominant, which is checked at assembly; a failure means the time
step is too large for the space step.

Each step's tridiagonal system goes straight to LAPACK ``?gtsv`` (partial
pivoting), one call per time step (``solve_banded``).  It is solved in
negated form so that the off-diagonals are views of the stencil coefficients
of that time row; only the diagonal is formed per row, and nothing per row
is stored beyond the coefficients.  The forward march sets the Dirichlet
columns once and takes the boundary sources from two precomputed columns.

The misfit gradient is the exact gradient of the *discretized* functional
a -> ||u(a) - data||^2: differentiate the stepping recurrence, transpose it,
and sweep backwards in time reusing the stored forward states.  The adjoint
step solves the transposed system, i.e. the same bands with lower and upper
swapped.  The sweep keeps every adjoint state in one array and applies the
coefficient sensitivity to all time rows in one elementwise expression
afterwards: the same products as row by row, so the same bits.
Coefficients given on a coarser grid than the solver's are prolonged
bilinearly before the solve and the gradient is restricted back by the
transpose of that prolongation, so the chain rule stays exact to machine
precision.

Solves are single-threaded and deterministic.  ``ParabolicModel`` keeps its
last forward state in a one-entry memo keyed by the identity of the
coefficient surface, so a gradient at the point just evaluated does not
solve forward again.  Surfaces are immutable and the memo holds a reference
to its key, so an identity match is never stale; the memo is one tuple
replaced whole, so threads sharing a model can miss it but never take a
wrong state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from .grids import Grid, Surface, constant_surface, interpolate, interpolate_adjoint

__all__ = [
    "PdeParams",
    "CnSystem",
    "true_sigma",
    "true_coefficient",
    "initial_condition",
    "solve_forward",
    "ParabolicModel",
]

U_LEFT = 1.0
U_RIGHT = 0.0

_GTSV, = get_lapack_funcs(("gtsv",), (np.empty(0),))


@dataclass(frozen=True)
class PdeParams:
    """Drift coefficient, prior diffusion coefficient, and coefficient box."""

    b: float = 0.03
    a0: "float | Surface" = 0.08
    bounds: tuple = (0.005, 1.0)

    def __post_init__(self):
        lo, hi = self.bounds
        if not (0.0 < lo <= hi < np.inf):
            raise ValueError(f"need 0 < a1 <= a2 < inf, got {self.bounds}")
        a0 = self.a0.values if isinstance(self.a0, Surface) else self.a0
        if np.min(a0) < lo or np.max(a0) > hi:
            raise ValueError(f"prior coefficient outside the box {self.bounds}")


def true_sigma(tau, y):
    """Reference volatility: a cosine bump for |y| <= 2/5, flat 2/5 outside."""
    tau = np.asarray(tau, dtype=float)
    y = np.asarray(y, dtype=float)
    bump = 0.4 - 0.16 * np.exp(-tau / 2.0) * np.cos(4.0 * np.pi * y / 5.0)
    return np.where(np.abs(y) <= 0.4, bump, 0.4)


def true_coefficient(grid: Grid) -> Surface:
    """Diffusion coefficient a = sigma**2 / 2 sampled on the grid."""
    tt = grid.t_nodes()[:, None]
    yy = grid.y_nodes()[None, :]
    return Surface(grid, 0.5 * true_sigma(tt, yy) ** 2)


def initial_condition(y):
    """Payoff profile max(0, 1 - exp(y))."""
    return np.maximum(0.0, 1.0 - np.exp(np.asarray(y, dtype=float)))


class CnSystem:
    """Stencil coefficients for one solve.

    Holds the mesh ratios eta = dt/dy**2 and am = dt/dy together with the
    per-node stencil coefficients of C(a): ``cl``, ``cd`` and ``cr`` act on
    the left, centre and right neighbours, one row per time level.  Assembly
    verifies strict diagonal dominance of every implicit row.
    """

    def __init__(self, a_values: np.ndarray, grid: Grid, b: float):
        self.grid = grid
        self.eta = grid.dt / grid.dy ** 2
        self.am = grid.dt / grid.dy
        a_in = a_values[:, 1:-1]
        self.cd = -self.eta * a_in
        half_adv = 0.25 * self.am * (a_in - b)
        diff = 0.5 * self.eta * a_in
        self.cl = diff + half_adv
        self.cr = diff - half_adv
        # implicit rows: diag 1 + eta a, off-diagonals -cl, -cr
        dominance = 1.0 + self.eta * a_in[1:] - (np.abs(self.cl[1:]) + np.abs(self.cr[1:]))
        if dominance.min() <= 0.0:
            raise ValueError(
                f"Crank-Nicolson rows lose diagonal dominance: dt/dy**2={self.eta:.4g}, "
                f"dt/dy={self.am:.4g}; reduce dt relative to dy")

    def apply_c(self, n: int, u_row: np.ndarray) -> np.ndarray:
        """C(a_n) applied to a full row (boundaries included), interior output."""
        out = self.cl[n] * u_row[:-2]
        out += self.cd[n] * u_row[1:-1]
        out += self.cr[n] * u_row[2:]
        return out

    def apply_c_transpose(self, n: int, v: np.ndarray) -> np.ndarray:
        """Transpose of the interior block of C(a_n) applied to an interior vector."""
        out = self.cd[n] * v
        out[:-1] += self.cl[n, 1:] * v[1:]
        out[1:] += self.cr[n, :-1] * v[:-1]
        return out

    def coefficient_sensitivity(self, u: np.ndarray) -> np.ndarray:
        """d[C(a) u]_j / d a_j on full rows (last axis); interior output."""
        second = u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]
        first = u[..., 2:] - u[..., :-2]
        return 0.5 * self.eta * second - 0.25 * self.am * first


def solve_banded(sys: CnSystem, n: int, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve one tridiagonal system (I - C(a_n)) x = rhs on the interior.

    With ``transpose`` the system is (I - C(a_n))^T x = rhs.  ``rhs`` must be
    a contiguous float vector; it is overwritten and returned as x.

    LAPACK gets the negated system (C(a_n) - I) x = -rhs, whose off-diagonals
    are the stencil rows themselves: they go in as views, which the wrapper
    copies and never writes, and only the diagonal cd - 1 is formed.  Negation
    is exact and partial pivoting compares magnitudes, so the pivots and x
    are those of the unnegated system.
    """
    lower = sys.cl[n, 1:]
    upper = sys.cr[n, :-1]
    if transpose:
        lower, upper = upper, lower
    np.negative(rhs, out=rhs)
    _, _, _, x, info = _GTSV(lower, sys.cd[n] - 1.0, upper, rhs, 0, 1, 0, 1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"?gtsv failed on time row {n}: info={info} (singular pivot)")
    return x


def _coefficient_on(a: Surface, grid: Grid) -> np.ndarray:
    if a.grid == grid:
        return a.values
    return interpolate(a, grid).values


def solve_forward(a: Surface, params: PdeParams, grid: Grid) -> Surface:
    """March the Crank-Nicolson scheme; returns u on the grid.

    The first row is the payoff profile with the Dirichlet corner values
    enforced; all later rows carry u = 1 and u = 0 on the space boundaries.
    """
    a_vals = _coefficient_on(a, grid)
    sys = CnSystem(a_vals, grid, params.b)
    src_l = sys.cl[:, 0] * U_LEFT
    src_r = sys.cr[:, -1] * U_RIGHT
    u = np.empty(grid.shape)
    u[0] = initial_condition(grid.y_nodes())
    u[:, 0] = U_LEFT
    u[:, -1] = U_RIGHT
    for n in range(1, grid.nt):
        rhs = sys.apply_c(n - 1, u[n - 1])
        rhs += u[n - 1, 1:-1]
        rhs[0] += src_l[n]
        rhs[-1] += src_r[n]
        u[n, 1:-1] = solve_banded(sys, n, rhs)
    return Surface(grid, u)


def _misfit_gradient_values(a: Surface, target: Surface, params: PdeParams,
                            grid: Grid, u: Surface) -> np.ndarray:
    """Euclidean-to-L2 gradient of ||u(a) - target||^2 on a's own grid.

    ``u`` is the forward state u(a).
    """
    a_vals = _coefficient_on(a, grid)
    sys = CnSystem(a_vals, grid, params.b)
    u = u.values
    source = 2.0 * grid.cell_weights() * (u - target.values)

    nt = grid.nt
    # mu[n] is the adjoint state of time row n; mu[nt] = 0 closes the sweep,
    # and mu[0] = -0.0, the exact additive identity, makes row 0's term -mu[1]
    mu = np.zeros((nt + 1, grid.ny - 2))
    mu[0] = -0.0
    for n in range(nt - 1, 0, -1):
        rhs = sys.apply_c_transpose(n, mu[n + 1])
        rhs += mu[n + 1]
        rhs -= source[n, 1:-1]
        mu[n] = solve_banded(sys, n, rhs, transpose=True)
    grad = np.zeros(grid.shape)
    grad[:, 1:-1] = -(mu[:-1] + mu[1:]) * sys.coefficient_sensitivity(u)

    if a.grid != grid:
        grad = interpolate_adjoint(grad, a.grid, grid)
    return grad / a.grid.cell_weights()


class ParabolicModel:
    """Forward model a -> u(a) - u(a0) on a fixed solver grid.

    The base solution u(a0) is computed once; ``apply`` accepts coefficients
    on the solver grid or any coarser grid inside the domain.  ``solve``
    memoizes the last forward state by the coefficient's identity, which
    ``apply`` and ``misfit_gradient`` share.  Deterministic: equal inputs
    give bitwise-equal output.
    """

    def __init__(self, params: PdeParams, grid: Grid):
        self.params = params
        self.grid = grid
        self.bounds = params.bounds
        self.name = "parabolic-diffusion"
        a0 = params.a0 if isinstance(params.a0, Surface) else constant_surface(grid, params.a0)
        self._base = solve_forward(a0, params, grid)
        self._last = (None, None)

    def base_solution(self) -> Surface:
        return self._base

    def solve(self, a: Surface) -> Surface:
        last_a, u = self._last
        if a is not last_a:
            u = solve_forward(a, self.params, self.grid)
            self._last = (a, u)
        return u

    def apply(self, a: Surface) -> Surface:
        return self.solve(a) - self._base

    def shift_data(self, u_delta: Surface) -> Surface:
        """Observed solution surface -> data for ``apply`` (subtract the base)."""
        if u_delta.grid != self.grid:
            raise ValueError("data must live on the solver grid")
        return u_delta - self._base

    def misfit_gradient(self, a: Surface, ydelta: Surface) -> Surface:
        target = ydelta + self._base
        return Surface(a.grid, _misfit_gradient_values(a, target, self.params, self.grid,
                                                       self.solve(a)))
