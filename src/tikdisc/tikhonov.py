"""Tikhonov problem setup: the functional's parameters.

The functional ||F(x) - ydelta||^2 + alpha * f_x0(x) is evaluated in one
place, the descent loop of :mod:`tikdisc.optimize`.  This module holds what
that loop and the searches around it share: ``TikhonovConfig`` (alpha and
the penalty).  The descent clamps its start into the model's box, so no
argument outside the box reaches the model.

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

from .penalties import Penalty

__all__ = ["TikhonovConfig"]


@dataclass(frozen=True)
class TikhonovConfig:
    """Regularization parameter and penalty."""

    alpha: float
    penalty: Penalty

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

