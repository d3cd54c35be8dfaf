"""Synthetic data generation, grid transfer, and noise-level estimation.

Data is manufactured on a fine generation grid, corrupted with i.i.d.
zero-mean Gaussian noise at every fine node, and interpolated bilinearly to
the coarse working grid.  The noise level delta is then estimated on the
coarse grid: the clean fine solution is restricted to the coarse nodes and
the squared difference to the noisy data is integrated with the tensor
2-D Simpson rule,

    delta = ( integral |restrict(u_clean) - u_delta|^2 dy dt )**(1/2).

Measuring delta on the working grid keeps it commensurable with the
residual norms used by the discrepancy principle (prolonging the coarse
noisy data to the fine grid instead would smooth the noise and
systematically underestimate the level the inversion actually faces).

Everything is pure apart from the seeded generator, whose state is owned
per call; concurrent calls with distinct seeds are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, Surface, interpolate
from .pde import PdeParams, solve_forward

__all__ = [
    "NoisyDataset",
    "generate_data",
    "simpson_2d",
    "simpson_axis_weights",
    "estimate_noise_level",
]


@dataclass(frozen=True)
class NoisyDataset:
    """Noisy coarse-grid data and its estimated noise level."""

    u_delta: Surface
    delta: float

    def __post_init__(self):
        if self.delta < 0.0:
            raise ValueError("delta must be non-negative")


def simpson_axis_weights(n: int, h: float) -> tuple[np.ndarray, bool]:
    """Composite Simpson weights for n nodes at spacing h.

    Simpson needs an odd node count; for even n the last panel falls back to
    the trapezoid closure, flagged by the returned boolean.
    """
    if n < 3:
        raise ValueError("Simpson integration needs at least 3 nodes per axis")
    closed = n % 2 == 0
    m = n - 1 if closed else n
    w = np.zeros(n)
    w[0:m] = h / 3.0
    w[1:m - 1:2] = 4.0 * h / 3.0
    w[2:m - 1:2] = 2.0 * h / 3.0
    w[m - 1] = h / 3.0
    if closed:
        w[-2] += 0.5 * h
        w[-1] += 0.5 * h
    return w, closed


def simpson_2d(u: Surface) -> float:
    """Tensor-product composite Simpson integral of u over its domain."""
    g = u.grid
    wt, _ = simpson_axis_weights(g.nt, g.dt)
    wy, _ = simpson_axis_weights(g.ny, g.dy)
    return float(wt @ u.values @ wy)


def estimate_noise_level(u_clean_fine: Surface, u_delta_coarse: Surface) -> float:
    """Noise level of coarse data against the clean fine reference.

    Restricts the clean surface to the coarse grid (exact sub-sampling when
    the grids are nested) and integrates the squared difference with the
    2-D Simpson rule on the coarse grid.
    """
    clean = interpolate(u_clean_fine, u_delta_coarse.grid)
    diff = clean - u_delta_coarse
    return float(np.sqrt(max(0.0, simpson_2d(diff.with_values(diff.values ** 2)))))


def generate_data(a_true: Surface, params: PdeParams, fine: Grid, coarse: Grid,
                  noise_std: float, seed: int) -> NoisyDataset:
    """Solve on the fine grid, add node-wise Gaussian noise, coarsen, estimate delta."""
    if noise_std < 0.0:
        raise ValueError("noise_std must be non-negative")
    u_clean = solve_forward(a_true, params, fine)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, 1.0, fine.shape) * noise_std
    u_noisy = Surface(fine, u_clean.values + noise)
    u_delta = interpolate(u_noisy, coarse)
    delta = estimate_noise_level(u_clean, u_delta)
    return NoisyDataset(u_delta=u_delta, delta=delta)

