"""Bitwise pins of the descent loop's output.

Each run below is pinned by its iteration count, its stop reason, and the
``float.hex`` of every entry of the final iterate and of the residual.  A
change to the descent loop that keeps its floating-point operations and
their order leaves every pin as it is; a change that is meant to alter the
iterates must update the pins and say why.
"""

from typing import NamedTuple

import numpy as np

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


ORACLE_PIN = Pin(138, "gradient-zero", "0x1.6e6bc167ac178p-4", (
    "0x1.d3bec55f6eb78p+0", "0x1.e8a5c205170cep-2", "0x1.3a620b371e334p+0",
    "-0x1.ef8e5fb4cf07cp-2", "-0x1.2141a64f40da7p-1",
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


LADDER0_PIN = Pin(89, "stalled", "0x1.364d7dfde7097p-1", (
    "0x1.6b48999c2d13dp+0", "0x1.3b560bd487adfp-1", "0x1.caa02e9fcf914p-1", "0x0.0p+0",
    "0x0.0p+0", "0x0.0p+0",
))
LADDER1_PIN = Pin(2000, "max-iters", "0x1.77be3ea101982p-5", (
    "0x1.8e6f93bd40183p-3", "0x1.3631c0955d223p-4", "0x1.28285c615e57dp-2",
    "0x1.042a9f6105f4ap-1", "0x1.253d74a254626p+0", "-0x1.41914a8dfe224p-3",
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


BOX_PIN = Pin(6, "stalled", "0x1.cd82b56a04b94p+0", (
    "0x1.0000000000000p-1", "0x0.0p+0", "0x1.32b16d050b8c9p-2",
))


def test_boxed_model_pinned():
    # the clamped instance of test_optimize's box-feasibility test
    model = LinearModel(np.eye(3), np.array([0.4, 0.6, 0.2]), bounds=(0.0, 0.5))
    ydelta = np.array([2.0, -1.0, 0.3])
    cfg = TikhonovConfig(alpha=0.01, penalty=Penalty("quadratic", np.full(3, 0.25)))
    sol = minimize_tikhonov(model, ydelta, cfg,
                            stop=StopRule(rel_residual_tol=1e-10, max_iters=500))
    assert_pinned(sol, BOX_PIN)


SURFACE_PIN = Pin(20, "max-iters", "0x1.9a4dd35f76377p-9", (
    "0x1.47b29f53e155dp-4", "0x1.579728fe40fe2p-4", "0x1.3f067ea6154ccp-4",
    "0x1.62fe355a24c39p-4", "0x1.47c039c32a896p-4", "0x1.47ae22f8331c7p-4",
    "0x1.47b14d594bc51p-4", "0x1.52f1d224565efp-4", "0x1.36d4a31d1f403p-4",
    "0x1.5cf20d0c45dddp-4", "0x1.48fff53490dcbp-4", "0x1.47af2ee612bc8p-4",
    "0x1.47afb06942939p-4", "0x1.4d43f873ba606p-4", "0x1.3575fd07fcd2cp-4",
    "0x1.3abdce607df4ap-4", "0x1.48dae8a5cb8c0p-4", "0x1.47af138d1f85fp-4",
    "0x1.47af5deb47422p-4", "0x1.4c28812d20583p-4", "0x1.3baab112407cdp-4",
    "0x1.1f9fd2804d572p-4", "0x1.47c95491ad65dp-4", "0x1.47ae333928223p-4",
))
SURFACE_PENALTY = "0x1.79ea3d3fdaf92p-12"


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


P3_PIN = Pin(300, "max-iters", "0x1.3c3286e798b7ap-5", (
    "-0x1.0fe38c0503cdap-1", "0x1.3f170a3c6c9a8p-1", "0x1.e9aca5597492ap-3",
    "0x1.33a9759f3d339p-1",
))


def test_misfit_exponent_three_pinned():
    model, _ = make_ladder_model(4, 1, seed=31)
    ydelta = model.y + 0.1 * np.random.default_rng(7).standard_normal(4)
    sol = minimize_misfit(model, ydelta, p=3.0, x_start=np.zeros(4),
                          stop=StopRule(rel_residual_tol=1e-10, max_iters=300))
    assert_pinned(sol, P3_PIN)
