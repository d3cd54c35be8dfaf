"""Gradient descent with a strong-Wolfe line search for Tikhonov functionals.

The iteration is the classical projected gradient method: at each step the
negative gradient is searched along with a strong-Wolfe rule (sufficient
decrease plus curvature), the accepted point is projected back onto the
level's feasible set, and the run stops on a discrepancy band hit, a
stagnating residual, a vanishing gradient, or the iteration cap.

The first trial step of every search is the ratio of the previous to the
current squared gradient norm (1 on the first iteration), which acts as a
cheap spectral step guess; the Wolfe conditions then accept or correct it.

Runs are deterministic: identical inputs produce bitwise-identical output.
Independent runs share no state and may execute concurrently.

Validation happens once per run, before the first model evaluation: the
start point is checked against the model's box and, when a penalty is
given, against the penalty's space (``Surface`` or vector, grid or shape).
The inner product and the residual norm are picked once per run by the
types of the start point and the data, so the loop does no per-call type
dispatch.  The model's ``apply``/``misfit_gradient`` and the penalty's
``penalty_value``/``penalty_subgradient`` are still called on every
evaluation; they keep their own checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Surface, clamp, inner, norm
from .ladder import project
from .penalties import _check_space, penalty_subgradient, penalty_value
from .tikhonov import TikhonovConfig, check_domain

__all__ = [
    "WolfeParams",
    "StopRule",
    "RegularizedSolution",
    "initial_step",
    "wolfe_line_search",
    "minimize_tikhonov",
    "minimize_misfit",
]

STOP_REASONS = ("band-hit", "max-iters", "stalled", "gradient-zero")

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class WolfeParams:
    """Strong-Wolfe constants: 0 < c1 < c2 < 1, plus the bracket budget."""

    c1: float = 1e-8
    c2: float = 0.95
    max_bracket_steps: int = 50

    def __post_init__(self):
        if not (0.0 < self.c1 < self.c2 < 1.0):
            raise ValueError(f"need 0 < c1 < c2 < 1, got c1={self.c1}, c2={self.c2}")
        if self.max_bracket_steps < 1:
            raise ValueError("max_bracket_steps must be positive")


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
    level: "int | None" = None

    def __post_init__(self):
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")
        if self.residual < 0.0:
            raise ValueError("residual must be non-negative")


def initial_step(prev_grad_sqnorm, cur_grad_sqnorm) -> float:
    """First trial step: previous over current squared gradient norm.

    Returns 1.0 on the first iteration (no previous gradient).
    """
    if prev_grad_sqnorm is None:
        return 1.0
    if not cur_grad_sqnorm > 0.0:
        raise ValueError("current gradient vanished; the iteration has converged")
    return float(prev_grad_sqnorm) / float(cur_grad_sqnorm)


def wolfe_line_search(f, g, params: WolfeParams, initial_step: float):
    """Strong-Wolfe step along a descent ray; ``None`` on bracket exhaustion.

    ``f(t)`` and ``g(t)`` evaluate the restricted functional and its
    derivative; ``g(0) < 0`` is required.  The returned step satisfies both
    the sufficient-decrease and the curvature condition.
    """
    if not initial_step > 0.0:
        raise ValueError("initial step must be positive")
    phi0 = f(0.0)
    dphi0 = g(0.0)
    if dphi0 >= 0.0:
        raise ValueError(f"not a descent direction (slope {dphi0})")
    c1, c2 = params.c1, params.c2
    budget = params.max_bracket_steps
    # Value comparisons get a few-ulp slack: near convergence the true
    # per-step decrease drops below the rounding jitter of the functional,
    # and the (cancellation-free) derivative condition must take over.
    slack = 1e-13 * abs(phi0)

    t_prev, phi_prev, dphi_prev = 0.0, phi0, dphi0
    t = float(initial_step)
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


def _project_factory(model, ladder, level):
    if ladder is not None:
        if level is None:
            raise ValueError("a ladder needs a level index")
        return lambda z: project(ladder, level, z)
    bounds = getattr(model, "bounds", None)
    return lambda z: clamp(z, bounds)


def _gradient_restriction(ladder, level):
    """Linear part of the level projection, applied to search directions.

    Coordinate ladders zero the tail of the gradient so iterates stay inside
    the subspace; on grid ladders the models already return gradients on the
    level's own grid, so nothing is needed and ``None`` is returned.
    """
    if ladder is not None and ladder.rule == "coordinate":
        m = ladder.levels[level]

        def restrict(grad):
            arr = np.array(grad, dtype=float, copy=True)
            if m < arr.size:
                arr[m:] = 0.0
            return arr

        return restrict
    return None


def _same_element(a, b) -> bool:
    if isinstance(a, Surface):
        return np.array_equal(a.values, b.values)
    return np.array_equal(a, b)


def _vector_inner(a, b) -> float:
    # grids.inner on float vectors, without its type dispatch
    return float(a @ b)


def _vector_norm(r) -> float:
    # grids.norm on float vectors, without its type dispatch
    return math.sqrt(r @ r)


def _projected_backtrack(x, direction, fval, proj, full_eval, t_init,
                         c1: float = 1e-4, max_halvings: int = 40):
    """Backtracking along the projected path: f(z_t) <= f(x) - (c1/t)||x - z_t||^2."""
    t = float(t_init)
    for _ in range(max_halvings):
        z = proj(x + t * direction)
        step = x - z
        gap = inner(step, step)
        if gap > 0.0:
            val = full_eval(z)
            if np.isfinite(val[0]) and val[0] <= fval - (c1 / t) * gap:
                return t, z, val
        t *= 0.5
    return None


def _band_landing(x, direction, proj, full_eval, band, t_hi, budget: int = 60):
    """Shorten a step that jumps clean across the discrepancy band.

    The residual is continuous along the projected ray and exceeds the upper
    band edge at t = 0, so bisection finds a step whose residual lands inside
    the band; without this, a long step can tunnel through the band and the
    stopping rule never fires.
    """
    lo_t, hi_t = 0.0, float(t_hi)
    for _ in range(budget):
        mid = 0.5 * (lo_t + hi_t)
        z = proj(x + mid * direction)
        val = full_eval(z)
        if band[0] <= val[1] <= band[1]:
            return z, val
        if val[1] > band[1]:
            lo_t = mid
        else:
            hi_t = mid
    return None


def minimize_misfit(model, ydelta, p=2.0, ladder=None, level=None, wolfe=None, stop=None,
                    x_start=None, penalty=None, alpha=0.0) -> RegularizedSolution:
    """Minimize ||F(x) - ydelta||^p (+ alpha * penalty when alpha > 0).

    The alpha = 0 entry point: used to evaluate unregularized residuals with
    the same dynamics, stopping rules, and projections as the Tikhonov runs.
    """
    return _descend(model, ydelta, penalty, float(alpha), float(p),
                    ladder, level, wolfe, stop, x_start)


def minimize_tikhonov(model, ydelta, cfg: TikhonovConfig, ladder=None, level=None,
                      wolfe: "WolfeParams | None" = None, stop: "StopRule | None" = None,
                      x_start=None) -> RegularizedSolution:
    """Projected gradient descent on the Tikhonov functional over one level.

    The start defaults to the penalty prior projected into the feasible set.
    Accepted functional values are non-increasing; every iterate lies in the
    level's subspace and inside the box bounds.  Line-search failure twice in
    a row ends the run with ``stalled`` (never an exception).
    """
    if cfg.p == 1.0:
        raise ValueError("p = 1 misfit is non-smooth; gradient descent needs p > 1")
    return _descend(model, ydelta, cfg.penalty, cfg.alpha, cfg.p,
                    ladder, level, wolfe, stop, x_start)


def _descend(model, ydelta, penalty, alpha, p, ladder, level, wolfe, stop, x_start):
    wolfe = wolfe or WolfeParams()
    stop = stop or StopRule()
    proj = _project_factory(model, ladder, level)
    restrict = _gradient_restriction(ladder, level)
    if x_start is None:
        if penalty is None:
            raise ValueError("need x_start or a penalty whose prior can start the run")
        x_start = penalty.x0
    x = proj(x_start)
    check_domain(model, x)
    if penalty is not None:
        _check_space(penalty, x)
    regularized = penalty is not None and alpha != 0.0
    dot = inner if isinstance(x, Surface) else _vector_inner
    res_norm = norm if isinstance(ydelta, Surface) else _vector_norm

    box = getattr(model, "bounds", None)
    if box is None and ladder is not None:
        box = ladder.bounds

    def full_eval(z):
        # extended-value convention: +inf outside the feasible box, so the
        # line search backtracks into the domain instead of solving there
        if box is not None:
            arr = z.values if isinstance(z, Surface) else z
            if not (arr.min() >= box[0] and arr.max() <= box[1]):
                return np.inf, np.inf, np.inf
        res = res_norm(model.apply(z) - ydelta)
        pen = penalty_value(penalty, z) if regularized else 0.0
        return res ** p + alpha * pen, res, pen

    def gradient(z):
        grad = model.misfit_gradient(z, ydelta, p)
        if regularized:
            grad = grad + alpha * penalty_subgradient(penalty, z)
        return grad if restrict is None else restrict(grad)

    # The restricted functional along the current ray: phi and dphi read the
    # loop's x, direction, fval and gsq, and share one trial cache that is
    # cleared at the start of every iteration.
    cache = {}

    def phi(t):
        if t == 0.0:
            return fval
        z = x + t * direction
        val = full_eval(z)
        cache[t] = (z, val, None)
        return val[0]

    def dphi(t):
        if t == 0.0:
            return -gsq
        z, val, _ = cache.get(t) or (x + t * direction, None, None)
        if val is None:
            val = full_eval(z)
        g_z = gradient(z)
        cache[t] = (z, val, g_z)
        return dot(g_z, direction)

    fval, res, pen = full_eval(x)
    if not math.isfinite(fval):
        raise ValueError(f"non-finite functional value {fval} at the start point")
    grad = gradient(x)
    gsq = dot(grad, grad)
    prev_gsq = None
    iterations = 0
    stalls = 0
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

        direction = -1.0 * grad
        cache.clear()
        t0 = initial_step(prev_gsq, gsq)
        t = wolfe_line_search(phi, dphi, wolfe, t0)
        if t is None:
            retry = 1.0 if t0 != 1.0 else 0.5
            t = wolfe_line_search(phi, dphi, wolfe, retry)
        if t is not None:
            z, val, g_z = cache[t]
            x_new = proj(z)
            if x_new is not z and not _same_element(x_new, z):
                val, g_z = full_eval(x_new), None
        else:
            # Wolfe bracket exhausted twice: clamped iterates can make the
            # feasible ray segment too short for the curvature condition, so
            # fall back to sufficient decrease along the projected path.
            fallback = _projected_backtrack(x, direction, fval, proj, full_eval,
                                            min(1.0, t0))
            if fallback is None:
                reason = "stalled"
                break
            t, x_new, val = fallback
            g_z = None
        if band is not None and res > band[1] and val[1] < band[0]:
            landed = _band_landing(x, direction, proj, full_eval, band, t)
            if landed is not None and landed[1][0] <= fval + 1e-12 * (1.0 + abs(fval)):
                x_new, val, g_z = landed[0], landed[1], None
        fnew, res_new, pen_new = val
        if not math.isfinite(fnew):
            arr = x_new.values if isinstance(x_new, Surface) else np.asarray(x_new)
            raise ValueError(
                f"non-finite functional value {fnew} at iteration {iterations + 1}; "
                f"residual {res_new}, step {t}, iterate range "
                f"[{arr.min()}, {arr.max()}], shape {arr.shape}")
        if fnew > fval + 1e-12 * (1.0 + abs(fval)):
            # projection undid the line-search decrease; count it as a stall
            stalls += 1
            if stalls >= 2:
                reason = "stalled"
                break
            continue

        iterations += 1
        stalls = 0
        rel_change = abs(res_new - res) / max(res, _TINY)
        x, fval, res, pen = x_new, fnew, res_new, pen_new
        if band is not None and band[0] <= res <= band[1]:
            reason = "band-hit"
            break
        if rel_change < rel_residual_tol:
            reason = "stalled"
            break
        prev_gsq = gsq
        grad = g_z if g_z is not None else gradient(x)
        gsq = dot(grad, grad)

    if penalty is not None and alpha == 0.0:
        pen = penalty_value(penalty, x)
    return RegularizedSolution(
        x=x,
        residual=res,
        penalty=pen,
        iterations=iterations,
        stop_reason=reason,
        alpha=alpha,
        level=level,
    )
