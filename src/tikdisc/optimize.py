"""Limited-memory BFGS descent with a strong-Wolfe line search for Tikhonov functionals.

Each step searches the L-BFGS direction (Nocedal's two-loop recursion over
the ``LBFGS_MEMORY`` newest curvature pairs of the run, scaled by
``s'y / y'y`` of the newest pair) once with a strong-Wolfe rule (sufficient
decrease plus curvature), starting from the unit step.  A pair is kept only
when ``s'y > 0``, so the implied inverse Hessian stays positive definite;
with no pairs the direction is the negative gradient.  Inner products are
the weighted L2 product on ``Surface``s and the euclidean one on vectors.
On a model with a box the search walks the projected path
``clamp(x + t d, box)`` with its right derivative, which drops the
components of ``d`` that sit at a bound and point out of the box; search
directions lie in the level's subspace, so every trial point is feasible.
A direction that is no descent direction restarts the memory on the
projected steepest descent.  The run ends ``stalled`` when that is none
either, when the slope along the direction is below the rounding level of
the functional (``-slope <= eps * |f|``, so the unit step's first-order
decrease would vanish in ``f``'s last bit), when the Wolfe search fails, or
when the residual stagnates; it also stops on a discrepancy band hit, a
vanishing gradient, or the cap.

Runs are deterministic: identical inputs produce bitwise-identical output.
Independent runs share no state and may execute concurrently.

The start point is projected onto the level and clamped into the model's
box, not checked against it.  Validation happens once per run, before the
first model evaluation: when a penalty is given, the start point is checked
against the penalty's space (``Surface`` or vector, grid or shape).
The inner product and the residual norm are picked once per run by the
types of the start point and the data, so the loop does no per-call type
dispatch.  The model's ``apply``/``misfit_gradient`` and the penalty's
``penalty_value``/``penalty_subgradient`` are still called on every
evaluation; they keep their own checks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .grids import Surface, clamp, inner, norm
from .ladder import project
from .penalties import _check_space, penalty_subgradient, penalty_value
from .tikhonov import TikhonovConfig

__all__ = [
    "StopRule",
    "RegularizedSolution",
    "wolfe_line_search",
    "minimize_tikhonov",
    "minimize_misfit",
]

STOP_REASONS = ("band-hit", "max-iters", "stalled", "gradient-zero")

_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps

# Strong-Wolfe constants 0 < C1 < C2 < 1 and the bracket budget, shared by
# the bracketing phase and the zoom.
WOLFE_C1 = 1e-8
WOLFE_C2 = 0.95
WOLFE_BRACKET_STEPS = 50

# Number of curvature pairs (s, y) the L-BFGS direction remembers.
LBFGS_MEMORY = 8


@dataclass(frozen=True)
class StopRule:
    """Stopping criteria for a minimization run.

    ``discrepancy_band`` is an optional (lower, upper) residual interval: the
    run stops as soon as the residual lies inside it.  ``rel_residual_tol``
    stops the run when the relative change of the residual between accepted
    iterates falls below it.  ``grad_norm_tol`` declares the gradient zero.
    """

    discrepancy_band: "tuple | None" = None
    max_iters: int = 500
    rel_residual_tol: float = 1e-4
    grad_norm_tol: float = 0.0

    def __post_init__(self):
        if self.discrepancy_band is not None:
            lo, hi = self.discrepancy_band
            if lo > hi:
                raise ValueError(f"band lower {lo} exceeds upper {hi}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not self.rel_residual_tol > 0.0:
            raise ValueError("rel_residual_tol must be positive")
        if self.grad_norm_tol < 0.0:
            raise ValueError("grad_norm_tol must be non-negative")


@dataclass(frozen=True)
class RegularizedSolution:
    """Outcome of one Tikhonov minimization at fixed (level, alpha)."""

    x: object
    residual: float
    penalty: float
    iterations: int
    stop_reason: str
    alpha: float

    def __post_init__(self):
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")
        if self.residual < 0.0:
            raise ValueError("residual must be non-negative")


def wolfe_line_search(f, g, t0: float):
    """Strong-Wolfe step along a descent ray; ``None`` on bracket exhaustion.

    ``f(t)`` and ``g(t)`` evaluate the restricted functional and its
    derivative; ``g(0) < 0`` is required.  The returned step satisfies both
    the sufficient-decrease and the curvature condition.
    """
    if not t0 > 0.0:
        raise ValueError("initial step must be positive")
    phi0 = f(0.0)
    dphi0 = g(0.0)
    if dphi0 >= 0.0:
        raise ValueError(f"not a descent direction (slope {dphi0})")
    c1, c2 = WOLFE_C1, WOLFE_C2
    budget = WOLFE_BRACKET_STEPS
    # Value comparisons get a few-ulp slack: near convergence the true
    # per-step decrease drops below the rounding jitter of the functional,
    # and the (cancellation-free) derivative condition must take over.
    slack = 1e-13 * abs(phi0)

    t_prev, phi_prev, dphi_prev = 0.0, phi0, dphi0
    t = float(t0)
    for i in range(budget):
        phi_t = f(t)
        if not phi_t <= phi0 + c1 * t * dphi0 + slack or (i > 0 and phi_t >= phi_prev + slack):
            return _zoom(t_prev, phi_prev, dphi_prev, t, phi_t, f, g,
                         phi0, dphi0, c1, c2, budget, slack)
        dphi_t = g(t)
        if abs(dphi_t) <= -c2 * dphi0:
            return t
        if dphi_t >= 0.0:
            return _zoom(t, phi_t, dphi_t, t_prev, phi_prev, f, g,
                         phi0, dphi0, c1, c2, budget, slack)
        t_prev, phi_prev, dphi_prev = t, phi_t, dphi_t
        t *= 2.0
    return None


def _zoom(lo, phi_lo, dphi_lo, hi, phi_hi, f, g, phi0, dphi0, c1, c2, budget, slack):
    """Refine a bracketing interval (Wolfe zoom); ``None`` if the budget runs out."""
    for _ in range(budget):
        h = hi - lo
        # quadratic model through (lo, phi_lo, dphi_lo) and (hi, phi_hi)
        curv = phi_hi - phi_lo - dphi_lo * h
        if curv > 0.0:
            t = lo - 0.5 * dphi_lo * h * h / curv
        else:
            t = lo + 0.5 * h
        # keep the trial strictly interior
        left, right = (lo, hi) if lo < hi else (hi, lo)
        margin = 0.1 * (right - left)
        if not (left + margin <= t <= right - margin):
            t = 0.5 * (lo + hi)
        if t == lo or t == hi:  # interval collapsed to float resolution
            return None
        phi_t = f(t)
        if phi_t > phi0 + c1 * t * dphi0 + slack or phi_t >= phi_lo + slack:
            hi, phi_hi = t, phi_t
        else:
            dphi_t = g(t)
            if abs(dphi_t) <= -c2 * dphi0:
                return t
            if dphi_t * (hi - lo) >= 0.0:
                hi, phi_hi = lo, phi_lo
            lo, phi_lo, dphi_lo = t, phi_t, dphi_t
    return None


def _vector_inner(a, b) -> float:
    # grids.inner on float vectors, without its type dispatch
    return float(a.dot(b))


def _vector_norm(r) -> float:
    # grids.norm on float vectors, without its type dispatch
    return math.sqrt(r.dot(r))


def _lbfgs_direction(grad, pairs, gamma, dot):
    """L-BFGS search direction ``-H grad`` by the two-loop recursion.

    ``pairs`` holds ``(s, y, rho)`` with ``rho = 1 / dot(s, y) > 0``, oldest
    first; ``H`` is the BFGS inverse update of ``gamma * I`` by every pair,
    with the transposes taken in ``dot``.  With no pairs the result is
    ``-grad``.
    """
    if not pairs:
        return -1.0 * grad
    q = grad
    coefs = []
    for s, y, rho in reversed(pairs):
        a = rho * dot(s, q)
        q = q - a * y
        coefs.append(a)
    r = gamma * q
    for (s, y, rho), a in zip(pairs, reversed(coefs)):
        r = r + (a - rho * dot(y, r)) * s
    return -1.0 * r


def _free(x, d, box):
    """Zero the components of ``d`` that sit at a bound of ``box`` and point out of it.

    Returns ``d`` itself when ``box`` is None or no component is stuck.
    """
    if box is None:
        return d
    xa = x.values if isinstance(x, Surface) else x
    da = d.values if isinstance(d, Surface) else d
    stuck = ((xa <= box[0]) & (da < 0.0)) | ((xa >= box[1]) & (da > 0.0))
    if not stuck.any():
        return d
    out = np.where(stuck, 0.0, da)
    return d.with_values(out) if isinstance(d, Surface) else out


def minimize_misfit(model, ydelta, stop=None, x_start=None,
                    penalty=None) -> RegularizedSolution:
    """Minimize ||F(x) - ydelta||^2 over the model's box, the alpha = 0 entry point.

    Evaluates unregularized residuals with the same dynamics and stopping
    rules as the Tikhonov runs.  A penalty, when given, only supplies the
    start point and the reported penalty value.
    """
    return _descend(model, ydelta, penalty, 0.0, None, None, stop, x_start)


def minimize_tikhonov(model, ydelta, cfg: TikhonovConfig, ladder=None, level=None,
                      stop: "StopRule | None" = None, x_start=None) -> RegularizedSolution:
    """L-BFGS descent on the Tikhonov functional over one level.

    The start defaults to the penalty prior projected into the feasible set.
    Accepted functional values are non-increasing; every iterate lies in the
    level's subspace and inside the model's box.  When the projected
    gradient vanishes, the slope falls below the rounding level of the
    functional, or the Wolfe search along the projected path finds no step,
    the run ends with ``stalled`` (never an exception).
    """
    return _descend(model, ydelta, cfg.penalty, cfg.alpha, ladder, level, stop, x_start)


def _descend(model, ydelta, penalty, alpha, ladder, level, stop, x_start):
    stop = stop or StopRule()
    box = getattr(model, "bounds", None)

    if x_start is None:
        if penalty is None:
            raise ValueError("need x_start or a penalty whose prior can start the run")
        x_start = penalty.x0
    x = clamp(x_start if ladder is None else project(ladder, level, x_start), box)
    if penalty is not None:
        _check_space(penalty, x)
    regularized = penalty is not None and alpha != 0.0
    dot = inner if isinstance(x, Surface) else _vector_inner
    res_norm = norm if isinstance(ydelta, Surface) else _vector_norm

    def full_eval(z):
        res = res_norm(model.apply(z) - ydelta)
        pen = penalty_value(penalty, z) if regularized else 0.0
        return res ** 2 + alpha * pen, res, pen

    def gradient(z):
        grad = model.misfit_gradient(z, ydelta)
        if regularized:
            grad = grad + alpha * penalty_subgradient(penalty, z)
        return grad if ladder is None else project(ladder, level, grad)

    # The functional along the current projected path and its right
    # derivative: phi and dphi read the loop's x, direction, fval and slope,
    # and share one trial cache that is cleared at the start of every
    # iteration.  The search evaluates f(t) before g(t), so dphi finds its
    # point and value cached, and it returns a step only after g(t), so the
    # accepted step's gradient is cached as well.
    cache = {}

    def phi(t):
        if t == 0.0:
            return fval
        z = clamp(x + t * direction, box)
        val = full_eval(z)
        cache[t] = (z, val, None)
        return val[0]

    def dphi(t):
        if t == 0.0:
            return slope
        z, val, _ = cache[t]
        g_z = gradient(z)
        cache[t] = (z, val, g_z)
        return dot(g_z, _free(z, direction, box))

    fval, res, pen = full_eval(x)
    if not math.isfinite(fval):
        raise ValueError(f"non-finite functional value {fval} at the start point")
    grad = gradient(x)
    gsq = dot(grad, grad)
    # curvature pairs (s, y, 1 / s'y) and the initial inverse-Hessian scale
    pairs = deque(maxlen=LBFGS_MEMORY)
    gamma = 1.0
    iterations = 0
    band = stop.discrepancy_band
    grad_norm_tol = stop.grad_norm_tol
    max_iters = stop.max_iters
    rel_residual_tol = stop.rel_residual_tol

    while True:
        if band is not None and band[0] <= res <= band[1]:
            reason = "band-hit"
            break
        if math.sqrt(gsq) <= grad_norm_tol:
            reason = "gradient-zero"
            break
        if iterations >= max_iters:
            reason = "max-iters"
            break

        direction = _free(x, _lbfgs_direction(grad, pairs, gamma, dot), box)
        slope = dot(grad, direction)
        if not slope < 0.0:
            # rounding broke the positive definiteness, or the box cut the
            # descent: restart the memory on the projected steepest descent
            pairs.clear()
            gamma = 1.0
            direction = _free(x, -1.0 * grad, box)
            slope = dot(grad, direction)
        if not slope < -_EPS * abs(fval):
            # the projected gradient is zero, or the unit step's first-order
            # decrease is below the rounding of fval
            reason = "stalled"
            break
        cache.clear()
        t = wolfe_line_search(phi, dphi, 1.0)
        if t is None:
            reason = "stalled"
            break
        x_new, val, g_z = cache[t]
        fnew, res_new, pen_new = val
        if not math.isfinite(fnew):
            arr = x_new.values if isinstance(x_new, Surface) else np.asarray(x_new)
            raise ValueError(
                f"non-finite functional value {fnew} at iteration {iterations + 1}; "
                f"residual {res_new}, step {t}, iterate range "
                f"[{arr.min()}, {arr.max()}], shape {arr.shape}")
        iterations += 1
        rel_change = abs(res_new - res) / max(res, _TINY)
        x_old, grad_old = x, grad
        x, fval, res, pen = x_new, fnew, res_new, pen_new
        if band is not None and band[0] <= res <= band[1]:
            reason = "band-hit"
            break
        if rel_change < rel_residual_tol:
            reason = "stalled"
            break
        grad = g_z
        gsq = dot(grad, grad)
        s, y = x - x_old, grad - grad_old
        sy = dot(s, y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / dot(y, y)

    if penalty is not None and alpha == 0.0:
        pen = penalty_value(penalty, x)
    return RegularizedSolution(
        x=x,
        residual=res,
        penalty=pen,
        iterations=iterations,
        stop_reason=reason,
        alpha=alpha,
    )
