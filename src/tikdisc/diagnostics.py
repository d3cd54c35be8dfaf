"""Bregman distances, L2 errors, and convergence-rate tables.

The rate table collects, for a family of runs at decreasing noise levels,
the selected alpha, the residual, the Bregman distance to the true solution,
the plain L2 error, and the per-level projection gaps; log-log slopes are
fitted per column by least squares.  With the discrepancy band active the
residual column is pinched between tau*delta and lambda*delta, so its slope
sits near 1; under a range-type source condition the Bregman column decays
like delta.  The remaining columns (alpha, delta^2/alpha, eta_m, phi_m) are
reported so the combined error bound driving those rates can be inspected
trend-wise; no attempt is made to estimate its unobservable constants.

Pure computations; safe to run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import Surface, fmt, inner, interpolate, norm
from .ladder import Ladder, _prolong_like, phi_m, project
from .penalties import Penalty, penalty_subgradient, penalty_value

__all__ = [
    "RateRow",
    "RateTable",
    "bregman_distance",
    "l2_error",
    "eta_m",
    "rate_table",
]

RATE_CSV_HEADER = "delta,alpha,level,residual,bregman,l2_error,gamma_m,phi_m,eta_m"


def bregman_distance(penalty: Penalty, u, v, xi=None) -> float:
    """D_xi(u, v) = f(u) - f(v) - <xi, u - v> with xi a subgradient at v."""
    if xi is None:
        xi = penalty_subgradient(penalty, v)
    value = float(penalty_value(penalty, u) - penalty_value(penalty, v) - inner(xi, u - v))
    if value < -1e-12:
        raise ValueError(f"negative Bregman distance {value} for a convex penalty")
    return value


def l2_error(x, x_true) -> float:
    """Discrete L2 distance, interpolating surfaces to the truth's grid."""
    if isinstance(x, Surface) and isinstance(x_true, Surface):
        if x.grid != x_true.grid:
            x = interpolate(x, x_true.grid)
        return norm(x - x_true)
    x = np.asarray(x, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    if x.shape != x_true.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {x_true.shape} and no grids to interpolate")
    return float(np.linalg.norm(x - x_true))


def eta_m(penalty: Penalty, ladder: Ladder, level: int, x_true, xi=None) -> float:
    """Bregman gap of the projected truth: D_xi(P_m x_true, x_true)."""
    px = _prolong_like(project(ladder, level, x_true), x_true)
    return bregman_distance(penalty, px, x_true, xi=xi)


class RateRow(NamedTuple):
    delta: float
    alpha: float
    level: int
    residual: float
    bregman: float
    l2_error: float
    gamma_m: float
    phi_m: float
    eta_m: float


@dataclass(frozen=True)
class RateTable:
    """Per-delta diagnostics (rows sorted by delta descending) and slopes."""

    rows: tuple
    slopes: dict

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(RATE_CSV_HEADER + "\n")
            for row in self.rows:
                fh.write(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _loglog_slope(x, y) -> float:
    x = np.log(np.maximum(np.asarray(x, dtype=float), 1e-300))
    y = np.log(np.maximum(np.asarray(y, dtype=float), 1e-300))
    return float(np.polyfit(x, y, 1)[0])


def rate_table(runs, penalty: Penalty, x_true, ladder: Ladder) -> RateTable:
    """Assemble per-delta diagnostics from (delta, MorozovResult) pairs.

    Needs at least three distinct noise levels for the slope fits.  Fitted
    log-log slopes cover the residual, the Bregman distance, alpha, and
    delta**2 / alpha, each against delta; the last is keyed
    ``delta_p_over_alpha``.
    """
    runs = list(runs)
    deltas = {float(d) for d, _ in runs}
    if len(deltas) < 3:
        raise ValueError(f"need at least 3 distinct noise levels, got {len(deltas)}")
    xi = penalty_subgradient(penalty, x_true)
    rows = []
    for delta, res in sorted(runs, key=lambda item: -item[0]):
        sol = res.solution
        rows.append(RateRow(
            delta=float(delta),
            alpha=float(res.alpha),
            level=int(res.level),
            residual=float(sol.residual),
            bregman=bregman_distance(penalty, sol.x, x_true, xi=xi),
            l2_error=l2_error(sol.x, x_true),
            gamma_m=float(res.gamma_m),
            phi_m=phi_m(ladder, res.level, x_true),
            eta_m=eta_m(penalty, ladder, res.level, x_true, xi=xi),
        ))
    d = [r.delta for r in rows]
    slopes = {
        "residual": _loglog_slope(d, [r.residual for r in rows]),
        "bregman": _loglog_slope(d, [r.bregman for r in rows]),
        "alpha": _loglog_slope(d, [r.alpha for r in rows]),
        "delta_p_over_alpha": _loglog_slope(d, [r.delta ** 2 / r.alpha for r in rows]),
    }
    return RateTable(rows=tuple(rows), slopes=slopes)
