"""Closed-form linear inverse problems used as oracles for selection tests.

Instances are deliberately tiny (n <= 8) so exhaustive grid scans and exact
normal-equation solves stay sub-second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LinearModel", "closed_form_minimizer", "closed_form_solution", "make_ladder_model"]

_FLOAT = np.dtype(float)


def _as_float(x) -> np.ndarray:
    """``np.asarray(x, dtype=float)``, skipped when x already is a float ndarray."""
    if type(x) is np.ndarray and x.dtype is _FLOAT:
        return x
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class LinearModel:
    """y = A x testbed with a known exact solution."""

    matrix: np.ndarray
    x_true: np.ndarray
    y: np.ndarray = None
    name: str = "linear"
    bounds: "tuple | None" = None

    def __post_init__(self):
        a = np.array(self.matrix, dtype=float, copy=True)
        xt = np.array(self.x_true, dtype=float, copy=True)
        if a.ndim != 2 or a.shape[1] != xt.size:
            raise ValueError(f"matrix {a.shape} incompatible with solution of size {xt.size}")
        if not (np.isfinite(a).all() and np.isfinite(xt).all()):
            raise ValueError("matrix and solution must be finite")
        y = a @ xt if self.y is None else np.array(self.y, dtype=float, copy=True)
        gap = np.linalg.norm(y - a @ xt)
        if gap > 1e-14 * max(1.0, np.linalg.norm(y)):
            raise ValueError(f"clean data inconsistent with A x_true (gap {gap})")
        for nm, arr in ("matrix", a), ("x_true", xt), ("y", y):
            arr.setflags(write=False)
            object.__setattr__(self, nm, arr)

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ _as_float(x)

    def misfit_gradient(self, x, ydelta) -> np.ndarray:
        r = self.matrix @ _as_float(x) - _as_float(ydelta)
        return 2.0 * (self.matrix.T @ r)


def closed_form_minimizer(matrix, ydelta, alpha, x0) -> np.ndarray:
    """Solve (A^T A + alpha I) x = A^T ydelta + alpha x0 directly."""
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    a = np.asarray(matrix, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    lhs = a.T @ a + alpha * np.eye(a.shape[1])
    rhs = a.T @ np.asarray(ydelta, dtype=float) + alpha * x0
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:  # cannot happen for alpha > 0, guarded anyway
        raise np.linalg.LinAlgError(f"normal equations singular at alpha={alpha}: {exc}") from exc


def closed_form_solution(model, ydelta, cfg, ladder=None, level=None, x_start=None):
    """Exact Tikhonov minimizer packaged like an iterative solver result.

    Supports quadratic penalties and unbounded models only; restriction to a
    coordinate-ladder level solves the normal equations on the leading block.
    Drop-in ``minimize_fn`` replacement for the discrepancy searches when a
    fast independent reference is needed.
    """
    from .optimize import RegularizedSolution  # local import to avoid a cycle
    from .penalties import penalty_value

    if cfg.penalty.kind != "quadratic":
        raise ValueError("closed form requires the quadratic penalty")
    if model.bounds is not None:
        raise ValueError("closed form requires an unbounded model")
    a = model.matrix
    x0 = cfg.penalty.x0
    if ladder is not None:
        if ladder.rule != "coordinate":
            raise ValueError("closed form supports coordinate ladders only")
        m = ladder.levels[level]
        z = closed_form_minimizer(a[:, :m], ydelta, cfg.alpha, x0[:m])
        x = np.zeros(a.shape[1])
        x[:m] = z
    else:
        x = closed_form_minimizer(a, ydelta, cfg.alpha, x0)
    residual = float(np.linalg.norm(a @ x - ydelta))
    return RegularizedSolution(
        x=x,
        residual=residual,
        penalty=penalty_value(cfg.penalty, x),
        iterations=0,
        stop_reason="gradient-zero",
        alpha=cfg.alpha,
        level=level,
    )


def make_ladder_model(n: int, m_levels: int, seed: int):
    """Random well-conditioned instance plus a nested coordinate ladder.

    The condition number is drawn log-uniformly in [2, 100].  Deterministic
    per seed.
    """
    from .ladder import Ladder

    if n < 1 or m_levels < 1 or m_levels > n:
        raise ValueError("need 1 <= m_levels <= n")
    rng = np.random.default_rng(seed)
    cond = float(np.exp(rng.uniform(np.log(2.0), np.log(100.0))))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    smax = 2.0
    sigma = np.geomspace(smax, smax / cond, n)
    a = u @ np.diag(sigma) @ v.T
    x_true = rng.standard_normal(n)
    dims = sorted({int(np.ceil(n * (i + 1) / m_levels)) for i in range(m_levels)})
    ladder = Ladder.coordinate(tuple(dims))
    return LinearModel(a, x_true), ladder
