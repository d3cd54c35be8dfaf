"""Reference computations made apart from ``tikdisc``.

Everything the correctness checks compare against is computed here from
the documented formulas, with numpy and scipy only: the config format, the
paper's coefficient, a Crank-Nicolson solver, bilinear prolongation,
trapezoid and Simpson quadrature, the seeded noise draw, and Tikhonov
minimizers by SVD filter factors.  Nothing in this module imports the
package under test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

T_SPAN = (0.0, 1.0)
Y_SPAN = (-5.0, 5.0)


def read_config(path) -> dict:
    return parse_config(open(path).read())


def parse_config(text: str) -> dict:
    """Sections of a ``key = value`` config as ``{section: {key: text}}``."""
    sections, current = {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1].strip(), {})
        else:
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
    return sections


def floats(text: str) -> list:
    return [float(t) for t in text.split(",") if t.strip()]


def select_meshes(config_text: str, indices) -> str:
    """Config text with the coefficient mesh lists cut down to ``indices``."""
    for key in ("dtau_list", "dy_list"):
        match = re.search(rf"^{key}\s*=\s*(.*)$", config_text, re.M)
        items = [t.strip() for t in match.group(1).split(",")]
        kept = ", ".join(items[i] for i in indices)
        config_text = config_text[:match.start(1)] + kept + config_text[match.end(1):]
    return config_text


@dataclass(frozen=True)
class Mesh:
    """Uniform tensor mesh on [t0, t0 + (nt-1) dt] x [y0, y0 + (ny-1) dy]."""

    nt: int
    ny: int
    dt: float
    dy: float
    t0: float = T_SPAN[0]
    y0: float = Y_SPAN[0]

    @classmethod
    def from_steps(cls, dt: float, dy: float) -> "Mesh":
        """Nearest uniform mesh on the unit-time, [-5, 5] domain to the steps."""
        nt = max(2, round((T_SPAN[1] - T_SPAN[0]) / dt) + 1)
        ny = max(2, round((Y_SPAN[1] - Y_SPAN[0]) / dy) + 1)
        return cls(nt, ny, (T_SPAN[1] - T_SPAN[0]) / (nt - 1),
                   (Y_SPAN[1] - Y_SPAN[0]) / (ny - 1))

    @property
    def t(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.nt)

    @property
    def y(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)


def true_coefficient(mesh: Mesh) -> np.ndarray:
    """a = sigma^2 / 2 with sigma = 0.4 - 0.16 exp(-t/2) cos(4 pi y / 5) on |y| <= 0.4."""
    t = mesh.t[:, None]
    y = mesh.y[None, :]
    sigma = np.where(np.abs(y) <= 0.4,
                     0.4 - 0.16 * np.exp(-0.5 * t) * np.cos(0.8 * np.pi * y), 0.4)
    return 0.5 * sigma * sigma


def payoff_row(mesh: Mesh) -> np.ndarray:
    """First time row: max(0, 1 - e^y) with the Dirichlet corners 1 and 0."""
    row = np.maximum(0.0, 1.0 - np.exp(mesh.y))
    row[0], row[-1] = 1.0, 0.0
    return row


def crank_nicolson(a: np.ndarray, b: float, mesh: Mesh, first_row: np.ndarray,
                   left=1.0, right=0.0) -> np.ndarray:
    """March u_t = a u_yy + (b - a) u_y with Crank-Nicolson and centred differences.

    Each step solves (I - C_n) u_n = (I + C_{n-1}) u_{n-1} on the interior,
    where C_n u |_j = a_nj (dt/2dy^2) (u_{j+1} - 2 u_j + u_{j-1})
    - (a_nj - b) (dt/4dy) (u_{j+1} - u_{j-1}).  ``left`` and ``right`` are
    the Dirichlet values, scalars or one value per time row.
    """
    nt, ny = a.shape
    left = np.broadcast_to(np.asarray(left, dtype=float), (nt,))
    right = np.broadcast_to(np.asarray(right, dtype=float), (nt,))
    half_diff = 0.5 * mesh.dt / mesh.dy ** 2 * a[:, 1:-1]
    half_adv = 0.25 * mesh.dt / mesh.dy * (a[:, 1:-1] - b)
    below = half_diff + half_adv      # weight of u_{j-1}
    centre = -2.0 * half_diff         # weight of u_j
    above = half_diff - half_adv      # weight of u_{j+1}
    u = np.empty((nt, ny))
    u[0] = first_row
    bands = np.zeros((3, ny - 2))
    for n in range(1, nt):
        prev = u[n - 1]
        rhs = (prev[1:-1] + below[n - 1] * prev[:-2] + centre[n - 1] * prev[1:-1]
               + above[n - 1] * prev[2:])
        rhs[0] += below[n, 0] * left[n]
        rhs[-1] += above[n, -1] * right[n]
        bands[0, 1:] = -above[n, :-1]
        bands[1] = 1.0 - centre[n]
        bands[2, :-1] = -below[n, 1:]
        u[n, 1:-1] = solve_banded((1, 1), bands, rhs)
        u[n, 0], u[n, -1] = left[n], right[n]
    return u


def bilinear(values: np.ndarray, src: Mesh, dst: Mesh) -> np.ndarray:
    """Bilinear interpolation of node values on ``src`` at the nodes of ``dst``."""

    def cells(x, x0, h, n):
        pos = np.clip((x - x0) / h, 0.0, n - 1.0)
        i = np.minimum(np.floor(pos).astype(int), n - 2)
        return i, pos - i

    i, wt = cells(dst.t, src.t0, src.dt, src.nt)
    j, wy = cells(dst.y, src.y0, src.dy, src.ny)
    i, wt = i[:, None], wt[:, None]
    j, wy = j[None, :], wy[None, :]
    return ((1.0 - wt) * (1.0 - wy) * values[i, j] + wt * (1.0 - wy) * values[i + 1, j]
            + (1.0 - wt) * wy * values[i, j + 1] + wt * wy * values[i + 1, j + 1])


def trapezoid_weights(mesh: Mesh) -> np.ndarray:
    wt = np.full(mesh.nt, mesh.dt)
    wt[[0, -1]] *= 0.5
    wy = np.full(mesh.ny, mesh.dy)
    wy[[0, -1]] *= 0.5
    return np.outer(wt, wy)


def l2_norm(values: np.ndarray, mesh: Mesh) -> float:
    """Trapezoid-rule L2 norm on the mesh."""
    return float(np.sqrt(np.sum(trapezoid_weights(mesh) * values * values)))


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights; an even node count closes with a trapezoid panel."""
    m = n - 1 if n % 2 == 0 else n
    w = np.zeros(n)
    w[:m] = 2.0 * h / 3.0
    w[1:m:2] = 4.0 * h / 3.0
    w[0] = w[m - 1] = h / 3.0
    if m < n:
        w[-2] += 0.5 * h
        w[-1] += 0.5 * h
    return w


@dataclass(frozen=True)
class SweepData:
    """The sweep's data rebuilt from its seed: noisy solver-grid surface and delta."""

    solver: Mesh
    u_delta: np.ndarray
    delta: float


def sweep_data(cfg: dict, seed: int) -> SweepData:
    """Fine-grid solve, seeded Gaussian noise, coarsening, and the Simpson delta."""
    grids, pde = cfg["grids"], cfg["pde"]
    fine = Mesh.from_steps(float(grids["fine_dtau"]), float(grids["fine_dy"]))
    solver = Mesh.from_steps(float(grids["solver_dtau"]), float(grids["solver_dy"]))
    clean = crank_nicolson(true_coefficient(fine), float(pde["b"]), fine, payoff_row(fine))
    noise = np.random.default_rng(seed).normal(0.0, 1.0, (fine.nt, fine.ny))
    noisy = clean + float(cfg["noise"]["std"]) * noise
    u_delta = bilinear(noisy, fine, solver)
    gap = bilinear(clean, fine, solver) - u_delta
    wt = simpson_weights(solver.nt, solver.dt)
    wy = simpson_weights(solver.ny, solver.dy)
    delta = float(np.sqrt(max(0.0, wt @ (gap * gap) @ wy)))
    return SweepData(solver=solver, u_delta=u_delta, delta=delta)


def load_surface_text(path) -> tuple:
    """(mesh, values) from the documented surface text format."""
    with open(path) as fh:
        nt, ny, dt, dy, t0, y0 = fh.readline().split()
        values = np.loadtxt(fh, ndmin=2)
    mesh = Mesh(int(nt), int(ny), float(dt), float(dy), float(t0), float(y0))
    if values.shape != (mesh.nt, mesh.ny):
        raise ValueError(f"{path}: body {values.shape} does not match its header")
    return mesh, values


def tikhonov_svd(matrix: np.ndarray, y: np.ndarray, alpha: float,
                 x0: "np.ndarray | None" = None, m: "int | None" = None) -> np.ndarray:
    """argmin ||A x - y||^2 + alpha ||x - x0||^2 over the first m coordinates.

    Uses the SVD filter factors s / (s^2 + alpha) of the leading m columns;
    the remaining coordinates stay zero.
    """
    n = matrix.shape[1]
    m = n if m is None else m
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float)
    a = matrix[:, :m]
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    z = x0[:m] + vt.T @ (s / (s * s + alpha) * (u.T @ (y - a @ x0[:m])))
    x = np.zeros(n)
    x[:m] = z
    return x


def relative_gap(x, ref) -> float:
    return float(np.linalg.norm(np.asarray(x) - ref) / max(np.linalg.norm(ref), 1e-300))
