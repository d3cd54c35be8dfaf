import numpy as np
import pytest

from tikdisc.grids import Grid, constant_surface, norm
from tikdisc.linear import LinearModel, closed_form_minimizer, make_ladder_model
from tikdisc.pde import ParabolicModel, PdeParams, solve_forward
from tikdisc.penalties import Penalty, penalty_value


def test_closed_form_identity_example():
    x = closed_form_minimizer(np.eye(2), np.array([1.0, 0.0]), 1.0, np.zeros(2))
    assert np.allclose(x, [0.5, 0.0])


def test_closed_form_diagonal_example():
    # per-coordinate a_i y_i / (a_i^2 + alpha)
    x = closed_form_minimizer(np.diag([2.0, 1.0]), np.array([2.0, 1.0]), 1.0, np.zeros(2))
    assert np.allclose(x, [0.8, 0.5])


def test_closed_form_large_alpha_returns_prior():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    x0 = rng.standard_normal(4)
    x = closed_form_minimizer(a, rng.standard_normal(4), 1e12, x0)
    assert np.linalg.norm(x - x0) <= 1e-6


def test_make_ladder_model_deterministic():
    m1, l1 = make_ladder_model(6, 3, seed=4)
    m2, l2 = make_ladder_model(6, 3, seed=4)
    assert np.array_equal(m1.matrix, m2.matrix)
    assert np.array_equal(m1.x_true, m2.x_true)
    assert l1.levels == l2.levels


def test_condition_bound_by_svd():
    for seed in range(20):
        model, _ = make_ladder_model(8, 2, seed=seed)
        s = np.linalg.svd(model.matrix, compute_uv=False)
        assert s[0] / s[-1] <= 100.0 + 1e-9


def test_clean_data_consistency_guard():
    with pytest.raises(ValueError, match="inconsistent"):
        LinearModel(np.eye(2), np.array([1.0, 0.0]), y=np.array([0.5, 0.0]))


def test_tikhonov_value_pde_prior_is_pure_misfit():
    grid = Grid.from_counts(5, 9)
    params = PdeParams()
    model = ParabolicModel(params, grid)
    rng = np.random.default_rng(2)
    udelta = model.base_solution().with_values(
        model.base_solution().values + 0.01 * rng.standard_normal(grid.shape))
    ydelta = model.shift_data(udelta)
    a0 = constant_surface(grid, 0.08)
    pen = Penalty("weighted-h1", a0, beta1=0.5, beta2=0.25 * grid.dy, beta3=0.25 * grid.dt)
    value = norm(model.apply(a0) - ydelta) ** 2 + 0.3 * penalty_value(pen, a0)
    misfit = norm(solve_forward(a0, params, grid) - udelta) ** 2
    assert penalty_value(pen, a0) == 0.0
    assert value == pytest.approx(misfit, rel=1e-12)
