"""Discretization ladders: nested subspace families and their projections.

Two flavours of level descriptors are supported:

* coordinate ladders -- each level is a dimension m, the subspace spanned by
  the first m coordinates of the ambient vector space;
* grid ladders -- each level is a :class:`Grid`, the subspace of bilinear
  interpolants from that grid.  A projected surface is stored on the level's
  grid; its identification with the ambient space is bilinear prolongation.

A ladder carries no box: the box belongs to the forward model's domain, and
the descent clamps projected iterates to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, Surface, interpolate, norm

__all__ = ["Ladder", "project", "gamma_m", "phi_m"]

_NEST_TOL = 1e-9


@dataclass(frozen=True)
class Ladder:
    """Ordered family of finite-dimensional levels, coarsest first.

    ``rule`` is derived from the level type: ``"coordinate"`` for integer
    dimensions, ``"bilinear"`` for grids.
    """

    levels: tuple
    nested: bool = True
    rule: str = field(init=False)

    def __post_init__(self):
        levels = tuple(self.levels)
        if not levels:
            raise ValueError("a ladder needs at least one level")
        if all(isinstance(l, (int, np.integer)) for l in levels):
            rule = "coordinate"
            levels = tuple(int(l) for l in levels)
            if any(l < 1 for l in levels):
                raise ValueError("coordinate level dimensions must be >= 1")
            if self.nested and any(a >= b for a, b in zip(levels, levels[1:])):
                raise ValueError("nested coordinate ladder needs strictly increasing dimensions")
        elif all(isinstance(l, Grid) for l in levels):
            rule = "bilinear"
            if self.nested:
                for coarse, fine in zip(levels, levels[1:]):
                    if not _grid_nested(coarse, fine):
                        raise ValueError(
                            f"grids {coarse} and {fine} are not nested; "
                            "build the ladder with nested=False")
        else:
            raise ValueError("levels must be all ints (dimensions) or all Grids")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "rule", rule)

    def __len__(self) -> int:
        return len(self.levels)

    @classmethod
    def coordinate(cls, dims) -> "Ladder":
        """Nested family of leading-coordinate subspaces of the given dimensions."""
        return cls(tuple(dims))

    @classmethod
    def free_grids(cls, grids) -> "Ladder":
        """Arbitrary (not necessarily nested) grid list, e.g. a mesh sweep."""
        return cls(tuple(grids), nested=False)


def _grid_nested(coarse: Grid, fine: Grid) -> bool:
    """True when every coarse node is also a fine node."""
    for (c0, cstep, cn, f0, fstep, fn) in (
        (coarse.t_min, coarse.dt, coarse.nt, fine.t_min, fine.dt, fine.nt),
        (coarse.y_min, coarse.dy, coarse.ny, fine.y_min, fine.dy, fine.ny),
    ):
        ratio = cstep / fstep
        if abs(ratio - round(ratio)) > _NEST_TOL * max(1.0, ratio):
            return False
        if abs(c0 - f0) > _NEST_TOL * max(1.0, abs(f0)):
            return False
        if (cn - 1) * round(ratio) > fn - 1:
            return False
    return True


def _check_level(ladder: Ladder, level: int) -> None:
    if not 0 <= level < len(ladder.levels):
        raise IndexError(f"level {level} out of range for a {len(ladder.levels)}-level ladder")


def project(ladder: Ladder, level: int, x):
    """Projection of x onto the level's subspace.

    Coordinate ladders zero the tail coordinates; grid ladders restrict by
    bilinear interpolation onto the level's grid (the result is stored on
    that grid).  Idempotent: projecting a projected element returns it
    unchanged.
    """
    _check_level(ladder, level)
    if ladder.rule == "coordinate":
        m = ladder.levels[level]
        arr = np.array(x, dtype=float, copy=True)
        if arr.ndim != 1:
            raise ValueError("coordinate ladders project 1-d vectors")
        if m < arr.size:
            arr[m:] = 0.0
        return arr
    if not isinstance(x, Surface):
        raise ValueError("grid ladders project Surface elements")
    return interpolate(x, ladder.levels[level])


def _prolong_like(px, x):
    """Identify a projected element with the ambient space of ``x``."""
    if isinstance(px, Surface) and px.grid != x.grid:
        return interpolate(px, x.grid)
    return px


def gamma_m(ladder: Ladder, level: int, model, xdagger) -> float:
    """Operator-image projection gap ||F(x') - F(P_m x')|| at the level."""
    px = project(ladder, level, xdagger)
    diff = model.apply(xdagger) - model.apply(px)
    return norm(diff)


def phi_m(ladder: Ladder, level: int, xdagger) -> float:
    """Domain projection gap ||x' - P_m x'|| at the level."""
    px = _prolong_like(project(ladder, level, xdagger), xdagger)
    return norm(xdagger - px)
