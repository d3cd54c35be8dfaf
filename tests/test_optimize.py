from pathlib import Path

import numpy as np
import pytest

from tikdisc import optimize
from tikdisc.grids import Grid, Surface, constant_surface, inner
from tikdisc.linear import LinearModel, closed_form_minimizer, make_ladder_model
from tikdisc.ladder import Ladder
from tikdisc.expconfig import load_config
from tikdisc.optimize import (LBFGS_MEMORY, WOLFE_BRACKET_STEPS, WOLFE_C1, WOLFE_C2, StopRule,
                              _free, _lbfgs_direction, _vector_inner, minimize_misfit,
                              minimize_tikhonov, wolfe_line_search)
from tikdisc.pde import ParabolicModel, PdeParams, true_coefficient
from tikdisc.penalties import Penalty
from tikdisc.synthdata import generate_data
from tikdisc.tikhonov import TikhonovConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

IDENTITY = LinearModel(np.eye(2), np.array([1.0, 0.0]))
YDELTA = np.array([1.0, 0.0])


def quad_cfg(alpha, x0=None):
    return TikhonovConfig(alpha=alpha, penalty=Penalty("quadratic", np.zeros(2) if x0 is None else x0))


def test_tikhonov_value_identity_example():
    # (0.5, 0) is the minimizer, so the run reports the functional's parts there
    cfg = quad_cfg(1.0)
    sol = minimize_tikhonov(IDENTITY, YDELTA, cfg, x_start=np.array([0.5, 0.0]))
    assert sol.iterations == 0
    assert sol.residual ** 2 + cfg.alpha * sol.penalty == pytest.approx(0.5)


def test_tikhonov_value_zero_at_consistent_prior():
    cfg = quad_cfg(1.0, x0=np.array([1.0, 0.0]))
    sol = minimize_tikhonov(IDENTITY, YDELTA, cfg)
    assert sol.iterations == 0
    assert sol.residual ** 2 + cfg.alpha * sol.penalty == 0.0


class TestWolfeLineSearch:
    def test_quadratic_ray(self):
        # f(t) = (1 - t)^2 walking from x = 1 along -gradient
        f = lambda t: (1.0 - t) ** 2
        g = lambda t: -2.0 * (1.0 - t)
        t = wolfe_line_search(f, g, 0.1)
        assert t is not None and 0.0 < t <= 1.0 + 1e-12
        assert f(t) <= f(0.0) + WOLFE_C1 * t * g(0.0) + 1e-14
        assert abs(g(t)) <= WOLFE_C2 * abs(g(0.0))

    def test_linear_decreasing_exhausts(self):
        f = lambda t: -t
        g = lambda t: -1.0
        assert wolfe_line_search(f, g, 1.0) is None

    def test_admissible_initial_step_returned_unchanged(self):
        f = lambda t: (1.0 - t) ** 2
        g = lambda t: -2.0 * (1.0 - t)
        t = wolfe_line_search(f, g, 1.0)
        assert t == 1.0

    def test_ascent_direction_rejected(self):
        with pytest.raises(ValueError, match="descent"):
            wolfe_line_search(lambda t: t, lambda t: 1.0, 1.0)

    def test_params_validated(self):
        assert 0.0 < WOLFE_C1 < WOLFE_C2 < 1.0
        assert WOLFE_BRACKET_STEPS >= 1


DIRECTION_GRID = Grid.from_counts(3, 4)


def as_surface(arr):
    return Surface(DIRECTION_GRID, arr.reshape(DIRECTION_GRID.shape))


class TestLbfgsDirection:
    def test_no_pairs_is_negative_gradient_bitwise(self):
        g = np.random.default_rng(0).standard_normal(5)
        assert _lbfgs_direction(g, [], 1.0, _vector_inner).tobytes() == (-g).tobytes()
        gs = as_surface(np.random.default_rng(1).standard_normal(12))
        d = _lbfgs_direction(gs, [], 1.0, inner)
        assert d.values.tobytes() == (-gs.values).tobytes()

    @pytest.mark.parametrize("space", ["vector", "surface"])
    def test_one_pair_matches_dense_inverse_update(self, space):
        # H = (I - rho s y*) gamma (I - rho y s*) + rho s s*, where v* is the
        # adjoint in the inner product: v* u = <v, u>, i.e. (W v)^T u
        rng = np.random.default_rng(2)
        n = DIRECTION_GRID.n_points
        w = DIRECTION_GRID.cell_weights().ravel() if space == "surface" else np.ones(n)
        s_arr, g_arr = rng.standard_normal(n), rng.standard_normal(n)
        y_arr = s_arr + 0.3 * rng.standard_normal(n)
        sy, yy = np.sum(w * s_arr * y_arr), np.sum(w * y_arr * y_arr)
        assert sy > 0.0
        rho, gamma = 1.0 / sy, sy / yy
        eye = np.eye(n)
        h = ((eye - rho * np.outer(s_arr, w * y_arr)) @ (gamma * eye)
             @ (eye - rho * np.outer(y_arr, w * s_arr)) + rho * np.outer(s_arr, w * s_arr))
        expected = -h @ g_arr
        if space == "surface":
            pair = (as_surface(s_arr), as_surface(y_arr), rho)
            d = _lbfgs_direction(as_surface(g_arr), [pair], gamma, inner).values.ravel()
        else:
            d = _lbfgs_direction(g_arr, [(s_arr, y_arr, rho)], gamma, _vector_inner)
        assert np.max(np.abs(d - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("seed", range(5))
    def test_positive_curvature_pairs_give_descent(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        pairs = []
        while len(pairs) < LBFGS_MEMORY:
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if s @ y > 0.0:
                pairs.append((s, y, 1.0 / (s @ y)))
        s, y, _ = pairs[-1]
        gamma = (s @ y) / (y @ y)
        for _ in range(20):
            g = rng.standard_normal(n)
            assert g @ _lbfgs_direction(g, pairs, gamma, _vector_inner) < 0.0


def test_non_descent_direction_restarts_memory(monkeypatch):
    # should rounding turn the two-loop direction uphill, the loop drops its
    # pairs and searches the negative gradient instead of failing the search
    real, memory = optimize._lbfgs_direction, []

    def uphill(grad, pairs, gamma, dot):
        memory.append(len(pairs))
        d = real(grad, pairs, gamma, dot)
        return -1.0 * d if pairs else d

    monkeypatch.setattr(optimize, "_lbfgs_direction", uphill)
    model, _ = make_ladder_model(5, 1, seed=1003)
    ydelta = model.y + 0.05 * np.random.default_rng(4).standard_normal(5)
    cfg = TikhonovConfig(alpha=0.02, penalty=Penalty("quadratic", np.zeros(5)))
    sol = minimize_tikhonov(model, ydelta, cfg,
                            stop=StopRule(rel_residual_tol=1e-300, max_iters=5000,
                                          grad_norm_tol=1e-8))
    assert sol.stop_reason == "gradient-zero"
    assert max(memory) == 1 and memory.count(1) > 1
    ref = closed_form_minimizer(model.matrix, ydelta, cfg.alpha, np.zeros(5))
    assert np.allclose(sol.x, ref, atol=1e-6)


class TestMinimize:
    def test_identity_closed_form(self):
        sol = minimize_tikhonov(IDENTITY, YDELTA, quad_cfg(1.0),
                                stop=StopRule(rel_residual_tol=1e-14, max_iters=500))
        assert np.allclose(sol.x, [0.5, 0.0], atol=1e-8)

    def test_large_alpha_returns_prior(self):
        sol = minimize_tikhonov(IDENTITY, YDELTA, quad_cfg(1e8),
                                stop=StopRule(rel_residual_tol=1e-14, max_iters=2000))
        assert np.linalg.norm(sol.x) <= 1e-6

    def test_start_at_minimizer_stops_immediately(self):
        sol = minimize_tikhonov(IDENTITY, YDELTA, quad_cfg(1.0),
                                x_start=np.array([0.5, 0.0]))
        assert sol.iterations <= 1
        assert sol.stop_reason in ("gradient-zero", "stalled")

    def test_band_hit_stops(self):
        band = (0.4, 0.6)
        sol = minimize_tikhonov(IDENTITY, YDELTA, quad_cfg(1.0),
                                stop=StopRule(discrepancy_band=band, max_iters=500,
                                              rel_residual_tol=1e-14))
        assert sol.stop_reason == "band-hit"
        assert band[0] <= sol.residual <= band[1]

    def test_max_iters(self):
        model, _ = make_ladder_model(6, 1, seed=9)
        ydelta = model.y + 0.1 * np.random.default_rng(1).standard_normal(6)
        cfg = TikhonovConfig(alpha=1e-3, penalty=Penalty("quadratic", np.zeros(6)))
        sol = minimize_tikhonov(model, ydelta, cfg,
                                stop=StopRule(max_iters=3, rel_residual_tol=1e-300))
        assert sol.stop_reason == "max-iters"
        assert sol.iterations == 3

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(11)
        for i in range(20):
            n = int(rng.integers(2, 9))
            model, _ = make_ladder_model(n, 1, seed=500 + i)
            alpha = float(np.exp(rng.uniform(np.log(1e-4), np.log(1e2))))
            ydelta = model.y + 0.05 * rng.standard_normal(n)
            x0 = np.zeros(n)
            cfg = TikhonovConfig(alpha=alpha, penalty=Penalty("quadratic", x0))
            ref = closed_form_minimizer(model.matrix, ydelta, alpha, x0)
            gtol = 1e-6 * alpha * np.linalg.norm(ref)
            sol = minimize_tikhonov(model, ydelta, cfg,
                                    stop=StopRule(rel_residual_tol=1e-300, max_iters=500000,
                                                  grad_norm_tol=gtol))
            rel = np.linalg.norm(sol.x - ref) / max(np.linalg.norm(ref), 1e-300)
            assert rel <= 1e-6

    def test_level_restricted_minimizer_matches_block_solve(self):
        rng = np.random.default_rng(3)
        model, ladder = make_ladder_model(6, 3, seed=12)
        ydelta = model.y + 0.1 * rng.standard_normal(6)
        cfg = TikhonovConfig(alpha=0.05, penalty=Penalty("quadratic", np.zeros(6)))
        sol = minimize_tikhonov(model, ydelta, cfg, ladder=ladder, level=0,
                                stop=StopRule(rel_residual_tol=1e-12, max_iters=5000))
        m = ladder.levels[0]
        assert np.allclose(sol.x[m:], 0.0)
        ref = closed_form_minimizer(model.matrix[:, :m], ydelta, cfg.alpha, np.zeros(m))
        assert np.allclose(sol.x[:m], ref, atol=1e-5)
        # the returned functional value does not exceed the start's (the prior)
        start = float(np.linalg.norm(model.apply(np.zeros(6)) - ydelta)) ** 2
        final = sol.residual ** 2 + cfg.alpha * sol.penalty
        assert final <= start + 1e-12 * (1.0 + start)

    def test_box_feasible_iterates(self):
        model = LinearModel(np.eye(3), np.array([0.4, 0.6, 0.2]), bounds=(0.0, 0.5))
        seen = []

        class Tracing:
            name = "traced"
            bounds = model.bounds

            def apply(self, x):
                seen.append(np.array(x))
                return model.apply(x)

            def misfit_gradient(self, x, ydelta):
                return model.misfit_gradient(x, ydelta)

        ydelta = np.array([2.0, -1.0, 0.3])
        cfg = TikhonovConfig(alpha=0.01, penalty=Penalty("quadratic", np.full(3, 0.25)))
        sol = minimize_tikhonov(Tracing(), ydelta, cfg,
                                stop=StopRule(rel_residual_tol=1e-10, max_iters=500))
        # every point the model evaluates lies in the box, trial points included
        assert len(seen) > sol.iterations
        assert all(x.min() >= 0.0 and x.max() <= 0.5 for x in seen)
        assert sol.x.min() >= 0.0 and sol.x.max() <= 0.5
        assert sol.stop_reason in ("stalled", "gradient-zero", "max-iters")

    def test_ladder_start_lands_in_model_box(self):
        # the level's projection and the model's box compose: the start is
        # restricted to the level, then clamped into the box
        model = LinearModel(np.eye(3), np.array([0.4, 0.6, 0.2]), bounds=(0.0, 1.0))
        cfg = TikhonovConfig(alpha=1.0, penalty=Penalty("quadratic", np.full(3, 0.5)))
        sol = minimize_tikhonov(model, model.y, cfg, ladder=Ladder.coordinate((2, 3)), level=0,
                                x_start=np.array([-5.0, 0.5, 9.0]),
                                stop=StopRule(max_iters=1, rel_residual_tol=1e-300))
        assert sol.x.min() >= 0.0 and sol.x.max() <= 1.0
        assert sol.x[2] == 0.0

    def test_determinism_bitwise(self):
        model, _ = make_ladder_model(5, 1, seed=77)
        ydelta = model.y + 0.02 * np.random.default_rng(8).standard_normal(5)
        cfg = TikhonovConfig(alpha=0.3, penalty=Penalty("quadratic", np.zeros(5)))
        a = minimize_tikhonov(model, ydelta, cfg)
        b = minimize_tikhonov(model, ydelta, cfg)
        assert np.array_equal(a.x, b.x)
        assert a.residual == b.residual and a.iterations == b.iterations
        assert a.stop_reason == b.stop_reason


class TestFree:
    BOX = (0.0, 1.0)
    GRID = Grid.from_counts(2, 3)

    def test_returns_its_argument_when_nothing_is_stuck(self):
        x = np.array([0.0, 1.0, 0.5])
        d = np.array([-1.0, 2.0, 0.5])
        assert _free(x, d, None) is d
        # at a bound but pointing inward, or strictly inside
        inward = np.array([1.0, -2.0, -3.0])
        assert _free(x, inward, self.BOX) is inward
        xs = Surface(self.GRID, np.array([[0.0, 1.0, 0.5], [0.2, 0.0, 1.0]]))
        ds = Surface(self.GRID, np.array([[2.0, -1.0, 4.0], [-5.0, 0.0, 0.0]]))
        assert _free(xs, ds, None) is ds
        assert _free(xs, ds, self.BOX) is ds

    def test_zeroes_exactly_the_outward_components_at_a_bound(self):
        x = np.array([0.0, 0.0, 1.0, 1.0, 0.5, 0.5])
        d = np.array([-1.0, 1.0, 1.0, -1.0, -3.0, 3.0])
        out = _free(x, d, self.BOX)
        assert out.tolist() == [0.0, 1.0, 0.0, -1.0, -3.0, 3.0]
        assert d.tolist() == [-1.0, 1.0, 1.0, -1.0, -3.0, 3.0]
        xs = Surface(self.GRID, x.reshape(2, 3))
        ds = Surface(self.GRID, d.reshape(2, 3))
        outs = _free(xs, ds, self.BOX)
        assert isinstance(outs, Surface) and outs.grid == self.GRID
        assert outs.values.ravel().tolist() == out.tolist()


def test_box_active_sweep_cell_converges(monkeypatch):
    # seed-0 paper_sweep data on coefficient mesh 0 at alpha 1e-4, the
    # searches' first minimization: the minimizer touches a_min, and every
    # step still comes from a successful Wolfe search on the projected path
    cfg = load_config(CONFIGS / "paper_sweep.cfg")
    params = PdeParams(b=cfg.get("pde", "b"), a0=cfg.get("pde", "a0"),
                       bounds=(cfg.get("pde", "a_min"), cfg.get("pde", "a_max")))
    fine = Grid.from_steps(cfg.get("grids", "fine_dtau"), cfg.get("grids", "fine_dy"))
    solver = Grid.from_steps(cfg.get("grids", "solver_dtau"), cfg.get("grids", "solver_dy"))
    meshes = cfg.values["coefficient_meshes"]
    mesh = Grid.from_steps(meshes["dtau_list"][0], meshes["dy_list"][0])
    model = ParabolicModel(params, solver)
    ds = generate_data(true_coefficient(fine), params, fine, solver, cfg.get("noise", "std"), 0)
    weights = cfg.values["penalty"]
    pen = Penalty("weighted-h1", constant_surface(mesh, params.a0), beta1=weights["beta1"],
                  beta2=weights["beta2_per_dy"] * mesh.dy,
                  beta3=weights["beta3_per_dtau"] * mesh.dt)
    searches = []
    wolfe = optimize.wolfe_line_search

    def counted_wolfe(*args):
        t = wolfe(*args)
        searches.append(t)
        return t

    monkeypatch.setattr(optimize, "wolfe_line_search", counted_wolfe)
    alpha = 1e-4
    sol = minimize_tikhonov(model, model.shift_data(ds.u_delta),
                            TikhonovConfig(alpha=alpha, penalty=pen),
                            stop=StopRule(rel_residual_tol=1e-12, max_iters=2000))
    assert sol.iterations < 2000 and sol.stop_reason != "max-iters"
    assert len(searches) == sol.iterations and None not in searches
    assert sol.x.values.min() == params.bounds[0]
    assert sol.residual ** 2 + alpha * sol.penalty <= 9.9435e-4


def test_minimize_misfit_alpha_zero():
    sol = minimize_misfit(IDENTITY, YDELTA, x_start=np.array([0.0, 0.4]),
                          stop=StopRule(rel_residual_tol=1e-13, max_iters=200))
    assert sol.alpha == 0.0
    assert np.allclose(sol.x, YDELTA, atol=1e-6)


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule(max_iters=0)
    with pytest.raises(ValueError):
        StopRule(rel_residual_tol=0.0)
    with pytest.raises(ValueError):
        StopRule(discrepancy_band=(2.0, 1.0))


class CountingModel:
    """Identity-like vector model that counts its applies."""

    name = "counting"
    bounds = None

    def __init__(self):
        self.applies = 0

    def apply(self, x):
        self.applies += 1
        return IDENTITY.apply(x)

    def misfit_gradient(self, x, ydelta):
        return IDENTITY.misfit_gradient(x, ydelta)


SURFACE = constant_surface(Grid.from_counts(3, 4), 0.1)


@pytest.mark.parametrize("prior, x_start, message", [
    (np.zeros(3), np.zeros(2), r"^x shape \(2,\) does not match prior \(3,\)$"),
    (SURFACE, np.zeros(2), "^penalty prior is a Surface but x is not$"),
    (np.zeros(2), SURFACE, "^penalty prior is a vector but x is a Surface$"),
])
def test_penalty_space_checked_before_any_apply(prior, x_start, message):
    model = CountingModel()
    cfg = TikhonovConfig(alpha=1.0, penalty=Penalty("quadratic", prior))
    with pytest.raises(ValueError, match=message):
        minimize_tikhonov(model, YDELTA, cfg, x_start=x_start)
    assert model.applies == 0
