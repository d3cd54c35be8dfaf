import numpy as np
import pytest

from tikdisc.grids import Grid, constant_surface
from tikdisc.linear import LinearModel, closed_form_minimizer, make_ladder_model
from tikdisc.optimize import (StopRule, WolfeParams, initial_step, minimize_misfit,
                              minimize_tikhonov, wolfe_line_search)
from tikdisc.penalties import Penalty
from tikdisc.tikhonov import TikhonovConfig, tikhonov_value

IDENTITY = LinearModel(np.eye(2), np.array([1.0, 0.0]))
YDELTA = np.array([1.0, 0.0])


def quad_cfg(alpha, x0=None):
    return TikhonovConfig(alpha=alpha, penalty=Penalty("quadratic", np.zeros(2) if x0 is None else x0))


def test_tikhonov_value_identity_example():
    assert tikhonov_value(np.array([0.5, 0.0]), IDENTITY, YDELTA, quad_cfg(1.0)) == pytest.approx(0.5)


def test_tikhonov_value_zero_at_consistent_prior():
    x0 = np.array([1.0, 0.0])
    cfg = quad_cfg(1.0, x0=x0)
    assert tikhonov_value(x0, IDENTITY, YDELTA, cfg) == 0.0


def test_tikhonov_value_rejects_out_of_box():
    model = LinearModel(np.eye(2), np.array([0.5, 0.5]), bounds=(0.0, 1.0))
    with pytest.raises(ValueError, match=r"box \[0.0, 1.0\]"):
        tikhonov_value(np.array([2.0, 0.5]), model, YDELTA, quad_cfg(1.0))


def test_initial_step_examples():
    assert initial_step(4.0, 2.0) == 2.0
    assert initial_step(3.0, 3.0) == 1.0
    assert initial_step(None, 5.0) == 1.0
    with pytest.raises(ValueError):
        initial_step(1.0, 0.0)


class TestWolfeLineSearch:
    def test_quadratic_ray(self):
        # f(t) = (1 - t)^2 walking from x = 1 along -gradient
        f = lambda t: (1.0 - t) ** 2
        g = lambda t: -2.0 * (1.0 - t)
        params = WolfeParams(c1=1e-4, c2=0.9)
        t = wolfe_line_search(f, g, params, 0.1)
        assert t is not None and 0.0 < t <= 1.0 + 1e-12
        assert f(t) <= f(0.0) + params.c1 * t * g(0.0) + 1e-14
        assert abs(g(t)) <= params.c2 * abs(g(0.0))

    def test_linear_decreasing_exhausts(self):
        f = lambda t: -t
        g = lambda t: -1.0
        assert wolfe_line_search(f, g, WolfeParams(), 1.0) is None

    def test_admissible_initial_step_returned_unchanged(self):
        f = lambda t: (1.0 - t) ** 2
        g = lambda t: -2.0 * (1.0 - t)
        t = wolfe_line_search(f, g, WolfeParams(c1=1e-4, c2=0.9), 1.0)
        assert t == 1.0

    def test_ascent_direction_rejected(self):
        with pytest.raises(ValueError, match="descent"):
            wolfe_line_search(lambda t: t, lambda t: 1.0, WolfeParams(), 1.0)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            WolfeParams(c1=0.5, c2=0.1)


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
        model, _ = make_ladder_model(6, 1, seed=9, condition=50.0)
        ydelta = model.y + 0.1 * np.random.default_rng(1).standard_normal(6)
        cfg = TikhonovConfig(alpha=1e-3, penalty=Penalty("quadratic", np.zeros(6)))
        sol = minimize_tikhonov(model, ydelta, cfg,
                                stop=StopRule(max_iters=3, rel_residual_tol=1e-300))
        assert sol.stop_reason == "max-iters"
        assert sol.iterations == 3

    def test_p_one_rejected(self):
        with pytest.raises(ValueError, match="non-smooth"):
            minimize_tikhonov(IDENTITY, YDELTA,
                              TikhonovConfig(alpha=1.0, penalty=Penalty("quadratic", np.zeros(2)), p=1.0))

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
        # the returned functional value does not exceed the start's
        start = tikhonov_value(np.zeros(6), model, ydelta, cfg)
        final = tikhonov_value(sol.x, model, ydelta, cfg)
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

            def misfit_gradient(self, x, ydelta, p=2.0):
                return model.misfit_gradient(x, ydelta, p)

        ydelta = np.array([2.0, -1.0, 0.3])
        cfg = TikhonovConfig(alpha=0.01, penalty=Penalty("quadratic", np.full(3, 0.25)))
        sol = minimize_tikhonov(Tracing(), ydelta, cfg,
                                stop=StopRule(rel_residual_tol=1e-10, max_iters=500))
        # accepted iterates stay in the box (line-search trials may leave it)
        assert sol.x.min() >= 0.0 and sol.x.max() <= 0.5
        assert sol.stop_reason in ("stalled", "gradient-zero", "max-iters")

    def test_determinism_bitwise(self):
        model, _ = make_ladder_model(5, 1, seed=77)
        ydelta = model.y + 0.02 * np.random.default_rng(8).standard_normal(5)
        cfg = TikhonovConfig(alpha=0.3, penalty=Penalty("quadratic", np.zeros(5)))
        a = minimize_tikhonov(model, ydelta, cfg)
        b = minimize_tikhonov(model, ydelta, cfg)
        assert np.array_equal(a.x, b.x)
        assert a.residual == b.residual and a.iterations == b.iterations
        assert a.stop_reason == b.stop_reason


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

    def misfit_gradient(self, x, ydelta, p=2.0):
        return IDENTITY.misfit_gradient(x, ydelta, p)


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
