"""Tikhonov problem setup: the functional's parameters and the model's domain.

The functional ||F(x) - ydelta||^2 + alpha * f_x0(x) is evaluated in one
place, the descent loop of :mod:`tikdisc.optimize`.  This module holds what
that loop and the searches around it share: ``TikhonovConfig`` (alpha and
the penalty) and ``check_domain``, the box check on a model's argument.

A forward model is any object with

* ``apply(x)``                        -- data-space image, deterministic: a
                                         float ndarray, or a ``Surface``;
* ``misfit_gradient(x, ydelta)``      -- gradient of ||apply(x) - ydelta||^2
                                         in the space of x;
* ``bounds``                          -- optional (lo, hi) box for x;
* ``name``                            -- short description.

Models are free to accept x on coarser grids than their own working grid;
they then own the prolongation and keep the gradient chain-rule exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Surface
from .penalties import Penalty

__all__ = ["TikhonovConfig", "check_domain"]


@dataclass(frozen=True)
class TikhonovConfig:
    """Regularization parameter and penalty."""

    alpha: float
    penalty: Penalty

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


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
