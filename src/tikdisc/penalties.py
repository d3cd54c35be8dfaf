"""Convex penalty functionals: value, subgradient, and helper stencils.

Three kinds are provided, all vanishing exactly at the prior x0:

* ``quadratic``          -- ||x - x0||^2 in the discrete L2/l2 sense.
* ``weighted-h1``        -- beta1 ||d||^2 + beta2 ||D_y d||^2 + beta3 ||D_t d||^2
                            with d = x - x0 and forward differences closed
                            one-sided at the last row/column (surfaces only).
* ``kullback-leibler``   -- the generalized Kullback-Leibler divergence
                            integral of x log(x / x0) - x + x0, which needs
                            strictly positive x and x0.  Variants based on a
                            log-only integrand are not provided; they are not
                            convex and cannot serve as a penalty.

Subgradients are returned as elements of the same space as x (for surfaces,
the representative with respect to the trapezoid inner product), so that
value(x + h) - value(x) ~ inner(subgradient, h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Surface, norm

__all__ = ["Penalty", "PENALTY_KINDS", "penalty_value", "penalty_subgradient"]

PENALTY_KINDS = ("quadratic", "weighted-h1", "kullback-leibler")


@dataclass(frozen=True)
class Penalty:
    """Penalty specification: kind, prior x0, and H1 weights.

    beta1/beta2/beta3 are only used by the ``weighted-h1`` kind and must be
    non-negative.
    """

    kind: str
    x0: "Surface | np.ndarray"
    beta1: float = 1.0
    beta2: float = 0.0
    beta3: float = 0.0

    def __post_init__(self):
        if self.kind not in PENALTY_KINDS:
            raise ValueError(f"unknown penalty kind {self.kind!r}, expected one of {PENALTY_KINDS}")
        if min(self.beta1, self.beta2, self.beta3) < 0.0:
            raise ValueError("H1 weights must be non-negative")
        if not isinstance(self.x0, Surface):
            object.__setattr__(self, "x0", np.array(self.x0, dtype=float, copy=True))
        if self.kind == "weighted-h1" and not isinstance(self.x0, Surface):
            raise ValueError("weighted-h1 penalty requires a Surface prior")
        if self.kind == "kullback-leibler":
            _require_positive(self.x0, "x0")


def _require_positive(x, label: str) -> np.ndarray:
    arr = x.values if isinstance(x, Surface) else np.asarray(x, dtype=float)
    if arr.min() <= 0.0:
        loc = tuple(int(i) for i in np.argwhere(arr <= 0.0)[0])
        raise ValueError(f"kullback-leibler penalty needs strictly positive {label}; "
                         f"entry {loc} is {arr[loc]}")
    return arr


def _difference(values: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Forward difference along ``axis`` with a backward stencil at the end."""
    out = np.empty_like(values)
    if axis == 0:
        out[:-1, :] = (values[1:, :] - values[:-1, :]) / h
        out[-1, :] = (values[-1, :] - values[-2, :]) / h
    else:
        out[:, :-1] = (values[:, 1:] - values[:, :-1]) / h
        out[:, -1] = (values[:, -1] - values[:, -2]) / h
    return out


def _difference_adjoint(q: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Euclidean adjoint of :func:`_difference`."""
    out = np.zeros_like(q)
    if axis == 0:
        out[1:, :] += q[:-1, :]
        out[:-1, :] -= q[:-1, :]
        out[-1, :] += q[-1, :]
        out[-2, :] -= q[-1, :]
    else:
        out[:, 1:] += q[:, :-1]
        out[:, :-1] -= q[:, :-1]
        out[:, -1] += q[:, -1]
        out[:, -2] -= q[:, -1]
    return out / h


def penalty_value(penalty: Penalty, x) -> float:
    """f_x0(x); non-negative, zero exactly when x equals the prior."""
    _check_space(penalty, x)
    if penalty.kind == "quadratic":
        d = x - penalty.x0
        if isinstance(d, Surface):
            return norm(d) ** 2
        return math.sqrt(d @ d) ** 2  # grids.norm of the float vector d

    if penalty.kind == "weighted-h1":
        d = x - penalty.x0
        g = x.grid
        w = g.cell_weights()
        total = penalty.beta1 * np.sum(w * d.values * d.values)
        if penalty.beta2 > 0.0:
            dy = _difference(d.values, g.dy, axis=1)
            total += penalty.beta2 * np.sum(w * dy * dy)
        if penalty.beta3 > 0.0:
            dt = _difference(d.values, g.dt, axis=0)
            total += penalty.beta3 * np.sum(w * dt * dt)
        return float(total)

    # kullback-leibler
    xv = _require_positive(x, "x")
    x0 = penalty.x0.values if isinstance(penalty.x0, Surface) else penalty.x0
    integrand = xv * np.log(xv / x0) - xv + x0
    if isinstance(x, Surface):
        return float(np.sum(x.grid.cell_weights() * integrand))
    return float(np.sum(integrand))


def penalty_subgradient(penalty: Penalty, x):
    """Gradient of the penalty at x, in the same space as x."""
    _check_space(penalty, x)
    if penalty.kind == "quadratic":
        return 2.0 * (x - penalty.x0)

    if penalty.kind == "weighted-h1":
        d = x - penalty.x0
        g = x.grid
        w = g.cell_weights()
        grad = penalty.beta1 * w * d.values
        if penalty.beta2 > 0.0:
            grad = grad + penalty.beta2 * _difference_adjoint(w * _difference(d.values, g.dy, 1), g.dy, 1)
        if penalty.beta3 > 0.0:
            grad = grad + penalty.beta3 * _difference_adjoint(w * _difference(d.values, g.dt, 0), g.dt, 0)
        return Surface(g, 2.0 * grad / w)

    # kullback-leibler
    xv = _require_positive(x, "x")
    x0 = penalty.x0.values if isinstance(penalty.x0, Surface) else penalty.x0
    grad = np.log(xv / x0)
    if isinstance(x, Surface):
        return Surface(x.grid, grad)
    return grad


def _check_space(penalty: Penalty, x) -> None:
    x0 = penalty.x0
    if isinstance(x0, Surface):
        if not isinstance(x, Surface):
            raise ValueError("penalty prior is a Surface but x is not")
        if x.grid is not x0.grid and x.grid != x0.grid:
            raise ValueError("x and the penalty prior live on different grids")
    elif isinstance(x, Surface):
        raise ValueError("penalty prior is a vector but x is a Surface")
    else:
        # a vector prior is always a float ndarray (see Penalty.__post_init__)
        shape = x.shape if isinstance(x, np.ndarray) else np.shape(x)
        if shape != x0.shape:
            raise ValueError(f"x shape {shape} does not match prior {x0.shape}")
        if penalty.kind == "weighted-h1":
            raise ValueError("weighted-h1 penalty is defined for surfaces only")
