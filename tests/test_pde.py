import numpy as np
import pytest

import tikdisc.pde as pde
from tikdisc.grids import (Grid, Surface, constant_surface, inner, interpolate,
                           interpolate_adjoint, norm)
from tikdisc.pde import (CnSystem, ParabolicModel, PdeParams, initial_condition, solve_banded,
                         solve_forward, true_coefficient, true_sigma)
from tikdisc.penalties import Penalty, penalty_subgradient, penalty_value
from tikdisc.synthdata import generate_data

PARAMS = PdeParams()
SOLVER = Grid.from_steps(0.02, 0.1)


def test_true_sigma_values():
    assert true_sigma(0.0, 0.0) == pytest.approx(0.24)
    assert true_sigma(3.7, 1.0) == pytest.approx(0.4)
    assert true_sigma(0.0, 0.25) == pytest.approx(0.4 - 0.16 * np.cos(np.pi / 5))
    assert true_sigma(0.0, 0.25) == pytest.approx(0.270557, abs=5e-7)


def test_true_coefficient_range():
    a = true_coefficient(SOLVER)
    assert a.values.min() == pytest.approx(0.0288, abs=1e-4)
    assert a.values.max() == pytest.approx(0.08, abs=1e-12)


def test_initial_condition_values():
    assert initial_condition(0.0) == 0.0
    assert initial_condition(-5.0) == pytest.approx(1.0 - np.exp(-5.0))
    assert initial_condition(-5.0) == pytest.approx(0.993262, abs=5e-7)
    assert initial_condition(2.0) == 0.0


def test_zero_coefficient_zero_drift_is_identity_march():
    grid = Grid.from_counts(6, 11)
    params = PdeParams(b=0.0, a0=0.08)
    a = constant_surface(grid, 0.0)
    u = solve_forward(a, params, grid)
    for n in range(1, grid.nt):
        assert np.array_equal(u.values[n], u.values[0])


def test_boundary_columns_exact():
    u = solve_forward(true_coefficient(SOLVER), PARAMS, SOLVER)
    assert np.all(u.values[:, 0] == 1.0)
    assert np.all(u.values[:, -1] == 0.0)


@pytest.mark.parametrize("coeff", ["true", 0.0288, 0.08])
def test_maximum_principle_and_monotone_rows(coeff):
    a = true_coefficient(SOLVER) if coeff == "true" else constant_surface(SOLVER, coeff)
    u = solve_forward(a, PARAMS, SOLVER)
    assert u.values.min() >= -1e-10
    assert u.values.max() <= 1.0 + 1e-10
    assert np.all(np.diff(u.values, axis=1) <= 1e-8)


def test_self_convergence_second_order():
    ref_grid = Grid.from_steps(0.0025, 0.01)
    u_ref = solve_forward(constant_surface(ref_grid, 0.08), PARAMS, ref_grid)
    errs = []
    for dt, dy in [(0.02, 0.1), (0.01, 0.05)]:
        g = Grid.from_steps(dt, dy)
        uh = solve_forward(constant_surface(g, 0.08), PARAMS, g)
        errs.append(norm(uh - interpolate(u_ref, g)))
    order = np.log2(errs[0] / errs[1])
    assert 1.7 <= order <= 2.3


def test_dominance_rejection_reports_ratio():
    grid = Grid.from_counts(3, 201)  # dt = 0.5, dy = 0.05
    params = PdeParams(b=30.0, a0=0.08)
    a = constant_surface(grid, 0.005)
    with pytest.raises(ValueError, match="diagonal dominance"):
        solve_forward(a, params, grid)


def test_solver_determinism_bitwise():
    a = true_coefficient(SOLVER)
    u1 = solve_forward(a, PARAMS, SOLVER)
    u2 = solve_forward(a, PARAMS, SOLVER)
    assert np.array_equal(u1.values, u2.values)


def test_forward_operator_zero_at_prior():
    a0 = constant_surface(SOLVER, 0.08)
    f = ParabolicModel(PARAMS, SOLVER).apply(a0)
    assert np.array_equal(f.values, np.zeros(SOLVER.shape))


def test_forward_operator_nonlinear():
    grid = Grid.from_counts(6, 11)
    model = ParabolicModel(PARAMS, grid)
    a = true_coefficient(grid)
    f1 = model.apply(a)
    f2 = model.apply(Surface(grid, 2.0 * a.values))
    assert norm(f2 - 2.0 * f1) > 1e-3 * max(norm(f1), 1e-12)


def test_truth_residual_consistent_with_noise_level():
    fine = Grid.from_steps(0.0025, 0.01)
    ds = generate_data(true_coefficient(fine), PARAMS, fine, SOLVER, noise_std=0.01, seed=3)
    model = ParabolicModel(PARAMS, SOLVER)
    ydelta = model.shift_data(ds.u_delta)
    r = norm(model.apply(true_coefficient(SOLVER)) - ydelta)
    assert r <= ds.delta * 1.05
    assert r >= ds.delta * 0.95


class TestAdjointGradient:
    GRID = Grid.from_counts(6, 11)

    def _setup(self):
        rng = np.random.default_rng(0)
        model = ParabolicModel(PARAMS, self.GRID)
        a_true = true_coefficient(self.GRID)
        u_true = solve_forward(a_true, PARAMS, self.GRID)
        udelta = Surface(self.GRID, u_true.values + 0.01 * rng.standard_normal(self.GRID.shape))
        ydelta = model.shift_data(udelta)
        a = Surface(self.GRID, np.clip(a_true.values * (1 + 0.1 * rng.standard_normal(self.GRID.shape)),
                                       0.01, 0.9))
        return rng, model, ydelta, a, u_true

    def test_zero_residual_zero_gradient(self):
        _, model, _, _, u_true = self._setup()
        g = model.misfit_gradient(true_coefficient(self.GRID), model.shift_data(u_true))
        assert norm(g) <= 1e-10

    def test_central_difference_20_directions(self):
        rng, model, ydelta, a, _ = self._setup()
        g = model.misfit_gradient(a, ydelta)
        misfit = lambda z: norm(model.apply(z) - ydelta) ** 2
        for _ in range(20):
            h = Surface(self.GRID, rng.standard_normal(self.GRID.shape))
            eps = 1e-6
            fd = (misfit(a + eps * h) - misfit(a - eps * h)) / (2 * eps)
            assert abs(fd - inner(g, h)) <= 1e-5 * max(abs(fd), 1e-12)

    def test_directional_derivative_50_directions(self):
        rng, model, ydelta, a, _ = self._setup()
        g = model.misfit_gradient(a, ydelta)
        misfit = lambda z: norm(model.apply(z) - ydelta) ** 2
        for _ in range(50):
            h = Surface(self.GRID, rng.standard_normal(self.GRID.shape))
            eps = 1e-6
            fd = (misfit(a + eps * h) - misfit(a - eps * h)) / (2 * eps)
            assert abs(fd - inner(g, h)) <= 1e-5 * max(abs(fd), 1e-12)

    def test_coarse_coefficient_chain_rule(self):
        rng, model, ydelta, _, _ = self._setup()
        coarse = Grid.from_counts(4, 6)
        ac = constant_surface(coarse, 0.05)
        g = model.misfit_gradient(ac, ydelta)
        assert g.grid == coarse
        misfit = lambda z: norm(model.apply(z) - ydelta) ** 2
        for _ in range(10):
            h = Surface(coarse, rng.standard_normal(coarse.shape))
            eps = 1e-6
            fd = (misfit(ac + eps * h) - misfit(ac - eps * h)) / (2 * eps)
            assert abs(fd - inner(g, h)) <= 1e-5 * max(abs(fd), 1e-12)

    def test_full_tikhonov_gradient(self):
        rng, model, ydelta, a, _ = self._setup()
        pen = Penalty("weighted-h1", constant_surface(self.GRID, 0.08), beta1=0.5,
                      beta2=0.25 * self.GRID.dy, beta3=0.25 * self.GRID.dt)
        alpha = 0.01
        g = model.misfit_gradient(a, ydelta) + alpha * penalty_subgradient(pen, a)
        value = lambda z: norm(model.apply(z) - ydelta) ** 2 + alpha * penalty_value(pen, z)
        for _ in range(10):
            h = Surface(self.GRID, rng.standard_normal(self.GRID.shape))
            eps = 1e-6
            fd = (value(a + eps * h) - value(a - eps * h)) / (2 * eps)
            assert abs(fd - inner(g, h)) <= 1e-5 * max(abs(fd), 1e-12)

    def test_memo_serves_no_stale_state(self):
        _, model, ydelta, a1, _ = self._setup()
        a2 = Surface(self.GRID, a1.values * 1.1)
        model.apply(a1)
        f2 = model.apply(a2)
        g = model.misfit_gradient(a1, ydelta)
        fresh = ParabolicModel(PARAMS, self.GRID)
        assert np.array_equal(f2.values, fresh.apply(a2).values)
        assert np.array_equal(g.values, fresh.misfit_gradient(a1, ydelta).values)

    def test_gradient_after_apply_reuses_state_bitwise(self):
        _, model, ydelta, a, _ = self._setup()
        cold = model.misfit_gradient(a, ydelta)
        other = ParabolicModel(PARAMS, self.GRID)
        other.apply(a)
        warm = other.misfit_gradient(a, ydelta)
        assert np.array_equal(warm.values, cold.values)


def _dense_c(sys, n):
    """Interior block of C(a_n), column by column from ``apply_c``."""
    ni = sys.cd.shape[1]
    dense = np.zeros((ni, ni))
    for j in range(ni):
        e = np.zeros(ni + 2)
        e[j + 1] = 1.0
        dense[:, j] = sys.apply_c(n, e)
    return dense


def test_cn_transpose_matches_dense():
    grid = Grid.from_counts(4, 7)
    rng = np.random.default_rng(1)
    sys = CnSystem(rng.uniform(0.01, 0.9, grid.shape), grid, b=0.03)
    n = 2
    v = rng.standard_normal(grid.ny - 2)
    assert np.allclose(sys.apply_c_transpose(n, v.copy()), _dense_c(sys, n).T @ v, atol=1e-14)


@pytest.mark.parametrize("transpose", [False, True])
def test_step_solve_matches_dense(transpose):
    grid = Grid.from_counts(5, 12)
    rng = np.random.default_rng(4)
    sys = CnSystem(rng.uniform(0.01, 0.9, grid.shape), grid, b=0.03)
    rhs = rng.standard_normal(grid.ny - 2)
    for n in range(grid.nt):
        lhs = np.eye(grid.ny - 2) - _dense_c(sys, n)
        expected = np.linalg.solve(lhs.T if transpose else lhs, rhs)
        x = solve_banded(sys, n, rhs.copy(), transpose=transpose)
        assert np.allclose(x, expected, rtol=1e-12, atol=1e-14)


def test_step_solve_raises_on_singular_row():
    grid = Grid.from_counts(3, 6)
    sys = CnSystem(np.zeros(grid.shape), grid, b=0.0)
    sys.cd[1] = 1.0  # diagonal of I - C(a_1) becomes zero
    with pytest.raises(np.linalg.LinAlgError, match="row 1"):
        solve_banded(sys, 1, np.ones(grid.ny - 2))


# Reference step loops: one time row at a time, with fresh band arrays and a
# sensitivity per row.  The solver must reproduce them bit for bit (the sign
# of zero included).

def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _reference_solve_banded(sys, n, rhs, transpose=False):
    lower, upper = -sys.cl[n, 1:], -sys.cr[n, :-1]
    if transpose:
        lower, upper = upper, lower
    _, _, _, x, info = pde._GTSV(lower, 1.0 - sys.cd[n], upper, rhs, 1, 1, 1, 1)
    assert info == 0
    return x


def _reference_sensitivity(sys, u_row):
    second = u_row[2:] - 2.0 * u_row[1:-1] + u_row[:-2]
    first = u_row[2:] - u_row[:-2]
    return 0.5 * sys.eta * second - 0.25 * sys.am * first


def _reference_forward(a_vals, params, grid):
    sys = CnSystem(a_vals, grid, params.b)
    u = np.empty(grid.shape)
    u[0] = initial_condition(grid.y_nodes())
    u[0, 0], u[0, -1] = pde.U_LEFT, pde.U_RIGHT
    for n in range(1, grid.nt):
        row = u[n - 1]
        rhs = row[1:-1] + (sys.cl[n - 1] * row[:-2] + sys.cd[n - 1] * row[1:-1]
                           + sys.cr[n - 1] * row[2:])
        rhs[0] += sys.cl[n][0] * pde.U_LEFT
        rhs[-1] += sys.cr[n][-1] * pde.U_RIGHT
        u[n, 1:-1] = _reference_solve_banded(sys, n, rhs)
        u[n, 0], u[n, -1] = pde.U_LEFT, pde.U_RIGHT
    return u


def _reference_gradient(a, target, params, grid):
    a_vals = interpolate(a, grid).values
    sys = CnSystem(a_vals, grid, params.b)
    u = _reference_forward(a_vals, params, grid)
    source = 2.0 * grid.cell_weights() * (u - target)
    grad = np.zeros(grid.shape)
    mu_next = np.zeros(grid.ny - 2)
    for n in range(grid.nt - 1, 0, -1):
        c_t = sys.cd[n] * mu_next
        c_t[:-1] += sys.cl[n][1:] * mu_next[1:]
        c_t[1:] += sys.cr[n][:-1] * mu_next[:-1]
        mu = _reference_solve_banded(sys, n, c_t + mu_next - source[n, 1:-1], transpose=True)
        grad[n, 1:-1] = -(mu + mu_next) * _reference_sensitivity(sys, u[n])
        mu_next = mu
    grad[0, 1:-1] = -mu_next * _reference_sensitivity(sys, u[0])
    if a.grid != grid:
        grad = interpolate_adjoint(grad, a.grid, grid)
    return grad / a.grid.cell_weights()


def _perturbed_truth(grid, rng):
    noise = 1.0 + 0.2 * rng.standard_normal(grid.shape)
    return Surface(grid, np.clip(true_coefficient(grid).values * noise, *PARAMS.bounds))


def test_forward_matches_reference_loop_bitwise():
    rng = np.random.default_rng(5)
    for a in (true_coefficient(SOLVER), _perturbed_truth(SOLVER, rng)):
        expected = _reference_forward(a.values, PARAMS, SOLVER)
        assert _same_bits(solve_forward(a, PARAMS, SOLVER).values, expected)


@pytest.mark.parametrize("mesh", [SOLVER, Grid.from_steps(0.1, 0.25)], ids=["solver", "coarse"])
def test_gradient_matches_reference_loop_bitwise(mesh):
    rng = np.random.default_rng(6)
    model = ParabolicModel(PARAMS, SOLVER)
    u_obs = solve_forward(true_coefficient(SOLVER), PARAMS, SOLVER).values
    ydelta = model.shift_data(Surface(SOLVER, u_obs + 0.01 * rng.standard_normal(SOLVER.shape)))
    a = _perturbed_truth(mesh, rng)
    target = (ydelta + model.base_solution()).values
    expected = _reference_gradient(a, target, PARAMS, SOLVER)
    assert _same_bits(model.misfit_gradient(a, ydelta).values, expected)


@pytest.mark.parametrize("transpose", [False, True])
def test_step_solve_matches_reference_bitwise_in_place(transpose):
    rng = np.random.default_rng(8)
    sys = CnSystem(true_coefficient(SOLVER).values, SOLVER, PARAMS.b)
    bands = [band.copy() for band in (sys.cl, sys.cd, sys.cr)]
    for n in range(1, SOLVER.nt):
        rhs = rng.standard_normal(SOLVER.ny - 2)
        expected = _reference_solve_banded(sys, n, rhs.copy(), transpose=transpose)
        x = solve_banded(sys, n, rhs, transpose=transpose)
        assert x is rhs
        assert _same_bits(x, expected)
    # the bands go to LAPACK as views; they must come back unchanged
    assert all(_same_bits(a, b) for a, b in zip((sys.cl, sys.cd, sys.cr), bands))


def test_one_forward_solve_per_memo_miss_and_one_step_solve_per_time_step(monkeypatch):
    """The benchmark's tracer counts these module-global calls: forward solves
    per memo miss, and tridiagonal solves equal to the time steps."""
    model = ParabolicModel(PARAMS, SOLVER)
    ydelta = model.apply(true_coefficient(SOLVER))
    calls = {"forward": 0, "banded": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pde, "solve_forward", counting("forward", pde.solve_forward))
    monkeypatch.setattr(pde, "solve_banded", counting("banded", pde.solve_banded))
    steps = SOLVER.nt - 1
    for a in (constant_surface(SOLVER, 0.05), constant_surface(Grid.from_steps(0.1, 0.25), 0.05)):
        calls.update(forward=0, banded=0)
        model.apply(a)
        assert calls == {"forward": 1, "banded": steps}
        model.misfit_gradient(a, ydelta)
        assert calls == {"forward": 1, "banded": 2 * steps}
    model.misfit_gradient(constant_surface(SOLVER, 0.06), ydelta)
    assert calls == {"forward": 2, "banded": 4 * steps}


def test_pde_params_validation():
    with pytest.raises(ValueError):
        PdeParams(bounds=(0.0, 1.0))
    with pytest.raises(ValueError):
        PdeParams(a0=2.0, bounds=(0.005, 1.0))
