"""Tikhonov functional: misfit-plus-penalty value and gradient.

A forward model is any object with

* ``apply(x)``                        -- data-space image, deterministic: a
                                         float ndarray, or a ``Surface``;
* ``misfit_gradient(x, ydelta, p)``   -- gradient of ||apply(x) - ydelta||^p
                                         in the space of x;
* ``bounds``                          -- optional (lo, hi) box for x;
* ``name``                            -- short description.

Models are free to accept x on coarser grids than their own working grid;
they then own the prolongation and keep the gradient chain-rule exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Surface, norm
from .penalties import Penalty, penalty_subgradient, penalty_value

__all__ = ["TikhonovConfig", "tikhonov_value", "tikhonov_gradient", "check_domain"]


@dataclass(frozen=True)
class TikhonovConfig:
    """Regularization parameter, misfit exponent, and penalty."""

    alpha: float
    penalty: Penalty
    p: float = 2.0

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not self.p >= 1.0:
            raise ValueError(f"misfit exponent p must be >= 1, got {self.p}")


def check_domain(model, x) -> None:
    """Reject x outside the model's box bounds, reporting the violation."""
    if getattr(model, "bounds", None) is None:
        return
    lo, hi = model.bounds
    arr = x.values if isinstance(x, Surface) else np.asarray(x, dtype=float)
    xmin, xmax = float(arr.min()), float(arr.max())
    if xmin < lo or xmax > hi:
        raise ValueError(
            f"{getattr(model, 'name', 'model')}: argument outside box [{lo}, {hi}] "
            f"(range [{xmin}, {xmax}])")


def misfit_value(model, x, ydelta, p: float = 2.0) -> float:
    """||apply(x) - ydelta||^p with the residual in the data-space norm."""
    return norm(model.apply(x) - ydelta) ** p


def tikhonov_value(x, model, ydelta, cfg: TikhonovConfig) -> float:
    """||F(x) - ydelta||^p + alpha * f_x0(x); finite and non-negative."""
    check_domain(model, x)
    value = misfit_value(model, x, ydelta, cfg.p) + cfg.alpha * penalty_value(cfg.penalty, x)
    if not np.isfinite(value):
        raise ValueError(f"non-finite Tikhonov value {value}")
    return float(value)


def tikhonov_gradient(x, model, ydelta, cfg: TikhonovConfig):
    """Gradient of the Tikhonov functional in the space of x."""
    grad = model.misfit_gradient(x, ydelta, cfg.p)
    pen = penalty_subgradient(cfg.penalty, x)
    return grad + cfg.alpha * pen
