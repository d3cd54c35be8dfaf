"""Uniform space-time grids, sampled surfaces, and discrete L2 geometry.

The working domain is a rectangle [t_min, t_max] x [y_min, y_max] carrying a
uniform tensor mesh.  Functions sampled on the mesh are ``Surface`` objects;
generic coordinate vectors are plain float ndarrays.  Discrete L2 norms use
the trapezoidal rule on surfaces and the euclidean norm on vectors.

Bilinear grid transfer is stored as two-tap stencils per axis, memoized per
(source, target) grid pair; prolongation gathers with them and its transpose
scatter-adds with them.  The trapezoid weights are memoized per grid as one
read-only array.

All objects here are immutable after construction, so every operation in this
module is a pure function safe to call from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "Surface",
    "constant_surface",
    "interpolate",
    "interpolate_adjoint",
    "norm",
    "inner",
    "clamp",
    "save_surface",
    "load_surface",
]

# Relative snap tolerance: a target node this close to a source node is
# treated as coincident, which keeps restriction of nested grids exact.
_SNAP = 1e-9


def _trapezoid_axis_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


@lru_cache(maxsize=64)
def _cell_weights(grid: "Grid") -> np.ndarray:
    w = np.outer(_trapezoid_axis_weights(grid.nt, grid.dt),
                 _trapezoid_axis_weights(grid.ny, grid.dy))
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class Grid:
    """Uniform tensor mesh with nodes t_min + i*dt and y_min + j*dy.

    The extents are derived from the node counts and steps, so the relation
    (nt - 1) * dt == t_max - t_min holds by construction.
    """

    nt: int
    ny: int
    dt: float
    dy: float
    t_min: float = 0.0
    y_min: float = -5.0

    def __post_init__(self):
        if self.nt < 2 or self.ny < 2:
            raise ValueError(f"need at least 2 nodes per axis, got {self.nt}x{self.ny}")
        if not (self.dt > 0.0 and self.dy > 0.0):
            raise ValueError(f"steps must be positive, got dt={self.dt}, dy={self.dy}")

    @property
    def t_max(self) -> float:
        return self.t_min + (self.nt - 1) * self.dt

    @property
    def y_max(self) -> float:
        return self.y_min + (self.ny - 1) * self.dy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nt, self.ny)

    @property
    def n_points(self) -> int:
        return self.nt * self.ny

    def t_nodes(self) -> np.ndarray:
        return self.t_min + np.arange(self.nt) * self.dt

    def y_nodes(self) -> np.ndarray:
        return self.y_min + np.arange(self.ny) * self.dy

    def cell_weights(self) -> np.ndarray:
        """Trapezoidal quadrature weights, one per node (read-only, memoized)."""
        return _cell_weights(self)

    @classmethod
    def from_steps(cls, dt, dy, t_span=(0.0, 1.0), y_span=(-5.0, 5.0)) -> "Grid":
        """Closest uniform grid to the requested step sizes.

        Node counts are rounded so the steps divide the extents evenly; the
        effective steps can therefore differ slightly from the nominal ones
        (e.g. 0.08 on [0, 1] becomes 1/12).
        """
        t0, t1 = map(float, t_span)
        y0, y1 = map(float, y_span)
        nt = max(2, round((t1 - t0) / float(dt)) + 1)
        ny = max(2, round((y1 - y0) / float(dy)) + 1)
        return cls(nt, ny, (t1 - t0) / (nt - 1), (y1 - y0) / (ny - 1), t0, y0)

    @classmethod
    def from_counts(cls, nt, ny, t_span=(0.0, 1.0), y_span=(-5.0, 5.0)) -> "Grid":
        t0, t1 = map(float, t_span)
        y0, y1 = map(float, y_span)
        return cls(int(nt), int(ny), (t1 - t0) / (int(nt) - 1), (y1 - y0) / (int(ny) - 1), t0, y0)


@dataclass(frozen=True, eq=False)
class Surface:
    """Real-valued field sampled on a :class:`Grid`.

    ``values`` has shape (nt, ny) and every entry must be finite.  The array
    is copied and frozen at construction; arithmetic returns new surfaces.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.shape != self.grid.shape:
            raise ValueError(f"values shape {arr.shape} does not match grid {self.grid.shape}")
        if not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite surface entry at node {tuple(bad)}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def with_values(self, values: np.ndarray) -> "Surface":
        return Surface(self.grid, values)

    def _binary(self, other, op):
        if isinstance(other, Surface):
            if other.grid != self.grid:
                raise ValueError("surfaces live on different grids")
            return Surface(self.grid, op(self.values, other.values))
        return NotImplemented

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if np.isscalar(scalar):
            return Surface(self.grid, self.values * float(scalar))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return Surface(self.grid, -self.values)


def constant_surface(grid: Grid, value: float) -> Surface:
    return Surface(grid, np.full(grid.shape, float(value)))


def norm(x) -> float:
    """Discrete L2 norm: trapezoid-weighted for surfaces, euclidean for vectors."""
    if isinstance(x, Surface):
        w = x.grid.cell_weights()
        return float(np.sqrt(np.sum(w * x.values * x.values)))
    x = np.asarray(x, dtype=float)
    return math.sqrt(x.dot(x))


def inner(x, y) -> float:
    """Discrete L2 inner product matching :func:`norm`."""
    if isinstance(x, Surface):
        if not isinstance(y, Surface) or y.grid != x.grid:
            raise ValueError("inner product needs surfaces on the same grid")
        return float(np.sum(x.grid.cell_weights() * x.values * y.values))
    return float(np.asarray(x, dtype=float).dot(np.asarray(y, dtype=float)))


def clamp(x, bounds):
    """Metric projection onto the box [bounds[0], bounds[1]] (identity if None)."""
    if bounds is None:
        return x
    lo, hi = bounds
    if isinstance(x, Surface):
        return Surface(x.grid, np.clip(x.values, lo, hi))
    return np.clip(np.asarray(x, dtype=float), lo, hi)


def _axis_taps(n_src: int, h_src: float, x0_src: float, x_dst: np.ndarray) -> tuple:
    """Two-tap linear interpolation from source nodes to target coordinates.

    Returns read-only ``(index, weight)`` arrays of shape (len(x_dst), 2):
    target k is ``weight[k, 0] * src[index[k, 0]] + weight[k, 1] * src[index[k, 1]]``.
    Targets that coincide with a source node (relative tolerance _SNAP) take
    that node with weights (1, 0), so restriction of nested grids is exact.
    """
    pos = (np.asarray(x_dst, dtype=float) - x0_src) / h_src
    span = n_src - 1
    if pos.min() < -_SNAP * span or pos.max() > span * (1.0 + _SNAP):
        raise ValueError("target grid extends outside the source grid")
    pos = np.clip(pos, 0.0, float(span))
    nearest = np.rint(pos)
    snap = np.abs(pos - nearest) <= _SNAP * np.maximum(1.0, np.abs(pos))
    i = np.minimum(np.floor(pos).astype(int), span - 1)
    w = pos - i
    index = np.stack([i, i + 1], axis=1)
    weight = np.stack([1.0 - w, w], axis=1)
    index[snap] = nearest[snap, None].astype(int)
    weight[snap] = (1.0, 0.0)
    index.setflags(write=False)
    weight.setflags(write=False)
    return index, weight


@lru_cache(maxsize=64)
def transfer_matrices(src: Grid, dst: Grid) -> tuple:
    """Bilinear prolongation stencils ``((it, wt), (iy, wy))`` from ``src`` to ``dst``.

    One two-tap ``(index, weight)`` pair per axis (see ``_axis_taps``),
    memoized per grid pair: equal pairs get the identical read-only arrays.
    """
    return (_axis_taps(src.nt, src.dt, src.t_min, dst.t_nodes()),
            _axis_taps(src.ny, src.dy, src.y_min, dst.y_nodes()))


def interpolate(u: Surface, target: Grid) -> Surface:
    """Bilinear interpolation of ``u`` onto ``target``.

    Exact on bilinear functions; the identity (bitwise) when the target
    equals the source grid; rejects targets extending outside the source.
    Applied axis by axis (time, then space) with gathers.
    """
    if target == u.grid:
        return u
    (it, wt), (iy, wy) = transfer_matrices(u.grid, target)
    rows = wt[:, :1] * u.values[it[:, 0]] + wt[:, 1:] * u.values[it[:, 1]]
    return Surface(target, rows[:, iy[:, 0]] * wy[:, 0] + rows[:, iy[:, 1]] * wy[:, 1])


def interpolate_adjoint(values: np.ndarray, src: Grid, dst: Grid) -> np.ndarray:
    """Transpose of ``interpolate(., dst)`` on ``src``: maps nodal values on
    ``dst`` back to ``src``, so that sum(interpolate(u, dst) * g) equals
    sum(u * interpolate_adjoint(g, src, dst)).  Scatter-adds with the same
    stencils, space first, then time.
    """
    (it, wt), (iy, wy) = transfer_matrices(src, dst)
    # np.add.at on flat indices: its 1-d fast path, and repeated taps add up
    cols = np.zeros(dst.nt * src.ny)
    row_start = np.arange(dst.nt)[:, None] * src.ny
    for k in (0, 1):
        np.add.at(cols, (row_start + iy[:, k]).ravel(), (values * wy[:, k]).ravel())
    cols = cols.reshape(dst.nt, src.ny)
    out = np.zeros(src.nt * src.ny)
    col = np.arange(src.ny)
    for k in (0, 1):
        np.add.at(out, (it[:, k, None] * src.ny + col).ravel(), (cols * wt[:, k, None]).ravel())
    return out.reshape(src.shape)


def fmt(value) -> str:
    """Shortest round-trip decimal representation of a float."""
    return repr(float(value))


def save_surface(u: Surface, path) -> None:
    """Plain-text format: header ``nt ny dt dy t_min y_min``, then nt rows."""
    g = u.grid
    with open(path, "w") as fh:
        fh.write(f"{g.nt} {g.ny} {fmt(g.dt)} {fmt(g.dy)} {fmt(g.t_min)} {fmt(g.y_min)}\n")
        for row in u.values:
            fh.write(" ".join(fmt(v) for v in row) + "\n")


def load_surface(path) -> Surface:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 6:
            raise ValueError(f"bad surface header in {path}: expected 6 fields")
        nt, ny = int(header[0]), int(header[1])
        dt, dy, t_min, y_min = map(float, header[2:])
        values = np.loadtxt(fh, ndmin=2)
    if values.shape != (nt, ny):
        raise ValueError(f"surface body {values.shape} does not match header ({nt}, {ny})")
    return Surface(Grid(nt, ny, dt, dy, t_min, y_min), values)
