"""Bitwise pins of the descent loop's output.

Each run below is pinned by its iteration count, its stop reason, and the
``float.hex`` of every entry of the final iterate and of the residual.  A
change to the descent loop that keeps its floating-point operations and
their order leaves every pin as it is; a change that is meant to alter the
iterates must update the pins and say why.
"""

from typing import NamedTuple

import numpy as np

from tikdisc import optimize
from tikdisc.grids import Grid, Surface, constant_surface
from tikdisc.linear import LinearModel, make_ladder_model
from tikdisc.optimize import StopRule, minimize_misfit, minimize_tikhonov
from tikdisc.pde import ParabolicModel, PdeParams, solve_forward, true_coefficient
from tikdisc.penalties import Penalty
from tikdisc.tikhonov import TikhonovConfig


class Pin(NamedTuple):
    iterations: int
    stop_reason: str
    residual: str
    x: tuple


def assert_pinned(sol, pin):
    x = sol.x.values if isinstance(sol.x, Surface) else sol.x
    assert (sol.iterations, sol.stop_reason) == (pin.iterations, pin.stop_reason)
    assert sol.residual.hex() == pin.residual
    assert tuple(float(v).hex() for v in np.ravel(x)) == pin.x


ORACLE_PIN = Pin(17, "gradient-zero", "0x1.6e6bbf48e7c01p-4", (
    "0x1.d3bec599e9fddp+0", "0x1.e8a5c29ddebd0p-2", "0x1.3a620b47247ebp+0",
    "-0x1.ef8e5fa5198aep-2", "-0x1.2141a66eacc6ap-1",
))


def test_unbounded_oracle_instance_pinned():
    # criterion-1 style: no box, no ladder, quadratic prior, gradient tolerance
    model, _ = make_ladder_model(5, 1, seed=1003)
    ydelta = model.y + 0.05 * np.random.default_rng(4).standard_normal(5)
    cfg = TikhonovConfig(alpha=0.02, penalty=Penalty("quadratic", np.zeros(5)))
    sol = minimize_tikhonov(model, ydelta, cfg,
                            stop=StopRule(rel_residual_tol=1e-300, max_iters=500000,
                                          grad_norm_tol=1e-8))
    assert_pinned(sol, ORACLE_PIN)


LADDER0_PIN = Pin(7, "stalled", "0x1.364d7dfe00ca4p-1", (
    "0x1.6b48999be11d6p+0", "0x1.3b560bd4304a4p-1", "0x1.caa02ea04e179p-1",
    "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
))
LADDER1_PIN = Pin(32, "stalled", "0x1.77be2215af4d3p-5", (
    "0x1.8e6da9773ca0fp-3", "0x1.363023387bac5p-4", "0x1.2827dcb9979ddp-2",
    "0x1.042abeb95d94ap-1", "0x1.253d8278710e0p+0", "-0x1.4191f72394cafp-3",
))


def test_coordinate_ladder_warm_start_pinned():
    # as in the rate study: coordinate ladder, rel_residual_tol=1e-12, and
    # the second run warm-started at the first run's iterate
    model, ladder = make_ladder_model(6, 2, seed=21)
    ydelta = model.y + 0.01 * np.random.default_rng(5).standard_normal(6)
    stop = StopRule(rel_residual_tol=1e-12, max_iters=2000)
    pen = Penalty("quadratic", np.zeros(6))
    first = minimize_tikhonov(model, ydelta, TikhonovConfig(alpha=0.1, penalty=pen),
                              ladder=ladder, level=0, stop=stop)
    assert_pinned(first, LADDER0_PIN)
    second = minimize_tikhonov(model, ydelta, TikhonovConfig(alpha=0.01, penalty=pen),
                               ladder=ladder, level=1, stop=stop, x_start=first.x)
    assert_pinned(second, LADDER1_PIN)


BOX_PIN = Pin(2, "stalled", "0x1.cd82b56a04db5p+0", (
    "0x1.0000000000000p-1", "0x0.0p+0", "0x1.32b16cfd7720cp-2",
))


def _boxed_run():
    # the clamped instance of test_optimize's box-feasibility test
    model = LinearModel(np.eye(3), np.array([0.4, 0.6, 0.2]), bounds=(0.0, 0.5))
    ydelta = np.array([2.0, -1.0, 0.3])
    cfg = TikhonovConfig(alpha=0.01, penalty=Penalty("quadratic", np.full(3, 0.25)))
    return minimize_tikhonov(model, ydelta, cfg,
                             stop=StopRule(rel_residual_tol=1e-10, max_iters=500))


def test_boxed_model_pinned():
    assert_pinned(_boxed_run(), BOX_PIN)


def test_boxed_model_one_wolfe_search_per_pass(monkeypatch):
    # Each pass searches the projected path once, with no retry, and only the
    # last search may fail, which ends the run as stalled.  On this instance,
    # where the box binds from the first step, no search fails.
    wolfe_calls = []
    wolfe = optimize.wolfe_line_search

    def counted_wolfe(*args):
        t = wolfe(*args)
        wolfe_calls.append(t)
        return t

    monkeypatch.setattr(optimize, "wolfe_line_search", counted_wolfe)
    sol = _boxed_run()
    assert_pinned(sol, BOX_PIN)
    assert len(wolfe_calls) == sol.iterations + wolfe_calls[-1:].count(None)
    assert None not in wolfe_calls[:-1]
    assert None not in wolfe_calls


SURFACE_PIN = Pin(20, "max-iters", "0x1.76122524e20ccp-9", (
    "0x1.54876a65684a6p-4", "0x1.102d209e35961p-3", "0x1.6c16f6034cc41p-4",
    "0x1.51ac696675254p-4", "0x1.5a5c6baee9d21p-4", "0x1.4a9498de5f01bp-4",
    "0x1.513f53e4fb6b0p-4", "0x1.dd3d4ef41f96ap-4", "0x1.2d28e45de8dabp-4",
    "0x1.7773d0182a9e4p-4", "0x1.67af0aae6c163p-4", "0x1.4ba6e0b8f3344p-4",
    "0x1.4f3baab2d3821p-4", "0x1.b52a057c9fe2ep-4", "0x1.1634d9ab874d8p-4",
    "0x1.2d08c6a9b86ecp-4", "0x1.646e63a360753p-4", "0x1.4b6e05765b1f0p-4",
    "0x1.4ec2f106200f3p-4", "0x1.b1789689545b6p-4", "0x1.2167318fbd441p-4",
    "0x1.d22e9c4e95f32p-5", "0x1.5d8865c9dbcdfp-4", "0x1.4b2cc7c2b766ap-4",
))
SURFACE_PENALTY = "0x1.6a60f0ace1d7bp-8"


def test_surface_run_pinned():
    # the Surface path: PDE model on a 4x6 mesh, weighted-H1 penalty
    grid = Grid.from_counts(4, 6)
    params = PdeParams()
    model = ParabolicModel(params, grid)
    u = solve_forward(true_coefficient(grid), params, grid)
    noise = 0.001 * np.random.default_rng(6).standard_normal(grid.shape)
    ydelta = model.shift_data(Surface(grid, u.values + noise))
    pen = Penalty("weighted-h1", constant_surface(grid, 0.08), beta1=1.0, beta2=0.5, beta3=0.25)
    sol = minimize_tikhonov(model, ydelta, TikhonovConfig(alpha=1e-4, penalty=pen),
                            stop=StopRule(rel_residual_tol=1e-12, max_iters=20))
    assert_pinned(sol, SURFACE_PIN)
    assert sol.penalty.hex() == SURFACE_PENALTY


MISFIT_PIN = Pin(18, "stalled", "0x1.6a09e667f3bcdp-54", (
    "-0x1.aaabfaf0580e7p+0", "0x1.19c8e46630fd8p+0", "0x1.426b3ae39338fp-1",
    "0x1.4d8f0e8ec1679p-2",
))


def test_unregularized_misfit_pinned():
    # the alpha = 0 entry point, as in the sweep's alpha = 0 cells
    model, _ = make_ladder_model(4, 1, seed=31)
    ydelta = model.y + 0.1 * np.random.default_rng(7).standard_normal(4)
    sol = minimize_misfit(model, ydelta, x_start=np.zeros(4),
                          stop=StopRule(rel_residual_tol=1e-10, max_iters=300))
    assert_pinned(sol, MISFIT_PIN)
