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
from pathlib import Path

import numpy as np

from .grids import Grid, Surface, fmt, interpolate, load_surface, save_surface
from .pde import PdeParams, solve_forward

__all__ = [
    "NoisyDataset",
    "generate_data",
    "simpson_2d",
    "simpson_axis_weights",
    "estimate_noise_level",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class NoisyDataset:
    """Noisy coarse-grid data with its clean fine-grid reference."""

    u_delta: Surface
    u_clean_fine: Surface
    delta: float
    seed: int
    noise_std: float
    fine_grid: Grid
    coarse_grid: Grid

    def __post_init__(self):
        if self.delta < 0.0:
            raise ValueError("delta must be non-negative")
        if self.u_delta.grid != self.coarse_grid:
            raise ValueError("u_delta must live on the coarse grid")


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
    return NoisyDataset(u_delta=u_delta, u_clean_fine=u_clean, delta=delta, seed=seed,
                        noise_std=noise_std, fine_grid=fine, coarse_grid=coarse)


def save_dataset(dataset: NoisyDataset, directory) -> None:
    """Persist a dataset as u_delta.txt, u_clean.txt, and meta.txt key=value lines."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_surface(dataset.u_delta, directory / "u_delta.txt")
    save_surface(dataset.u_clean_fine, directory / "u_clean.txt")
    with open(directory / "meta.txt", "w") as fh:
        fh.write(f"seed = {dataset.seed}\n")
        fh.write(f"noise_std = {fmt(dataset.noise_std)}\n")
        fh.write(f"delta = {fmt(dataset.delta)}\n")
        for label, g in ("fine_grid", dataset.fine_grid), ("coarse_grid", dataset.coarse_grid):
            fh.write(f"{label} = {g.nt} {g.ny} {fmt(g.dt)} {fmt(g.dy)} {fmt(g.t_min)} {fmt(g.y_min)}\n")


def load_dataset(directory) -> NoisyDataset:
    directory = Path(directory)
    u_delta = load_surface(directory / "u_delta.txt")
    u_clean = load_surface(directory / "u_clean.txt")
    meta = {}
    with open(directory / "meta.txt") as fh:
        for line in fh:
            if "=" in line:
                key, _, value = line.partition("=")
                meta[key.strip()] = value.strip()

    def grid_of(text: str) -> Grid:
        parts = text.split()
        return Grid(int(parts[0]), int(parts[1]), *(float(v) for v in parts[2:]))

    return NoisyDataset(
        u_delta=u_delta,
        u_clean_fine=u_clean,
        delta=float(meta["delta"]),
        seed=int(meta["seed"]),
        noise_std=float(meta["noise_std"]),
        fine_grid=grid_of(meta["fine_grid"]),
        coarse_grid=grid_of(meta["coarse_grid"]),
    )
