import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikdisc.grids import Grid, Surface, constant_surface, interpolate
from tikdisc.pde import PdeParams, true_coefficient
from tikdisc.synthdata import (estimate_noise_level, generate_data, simpson_2d,
                               simpson_axis_weights)

PARAMS = PdeParams()
FINE = Grid.from_steps(0.0025, 0.01)
COARSE = Grid.from_steps(0.02, 0.1)


class TestSimpson:
    def test_constant_area(self):
        g = Grid.from_counts(11, 21)
        assert simpson_2d(constant_surface(g, 1.0)) == pytest.approx(10.0, rel=1e-12)

    def test_odd_function_integrates_to_zero(self):
        g = Grid.from_counts(11, 21)
        u = Surface(g, np.tile(g.y_nodes(), (g.nt, 1)))
        assert simpson_2d(u) == pytest.approx(0.0, abs=1e-12)

    def test_y_squared(self):
        g = Grid.from_counts(101, 101)
        u = Surface(g, np.tile(g.y_nodes() ** 2, (g.nt, 1)))
        assert simpson_2d(u) == pytest.approx(250.0 / 3.0, rel=1e-6)

    def test_exact_on_cubic_tensor_polynomials(self):
        rng = np.random.default_rng(0)
        g = Grid.from_counts(11, 15)
        tt = g.t_nodes()[:, None]
        yy = g.y_nodes()[None, :]
        for _ in range(20):
            ct = rng.standard_normal(4)
            cy = rng.standard_normal(4)
            u = Surface(g, np.polyval(ct, tt) * np.polyval(cy, yy))
            t1, t0_ = g.t_max, g.t_min
            y1, y0_ = g.y_max, g.y_min
            it = np.polyval(np.polyint(ct), t1) - np.polyval(np.polyint(ct), t0_)
            iy = np.polyval(np.polyint(cy), y1) - np.polyval(np.polyint(cy), y0_)
            exact = it * iy
            assert simpson_2d(u) == pytest.approx(exact, rel=1e-10, abs=1e-10)

    def test_even_node_fallback_flagged(self):
        w, closed = simpson_axis_weights(10, 0.1)
        assert closed
        assert w.sum() == pytest.approx(0.9, rel=1e-12)
        w, closed = simpson_axis_weights(11, 0.1)
        assert not closed
        assert w.sum() == pytest.approx(1.0, rel=1e-12)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            simpson_axis_weights(2, 0.1)


class TestNoiseLevel:
    def test_identity_chain_gives_zero(self):
        u = constant_surface(COARSE, 0.3)
        assert estimate_noise_level(u, u) <= 1e-12

    def test_no_noise_vanishing_with_refinement(self):
        u_clean = Surface(FINE, np.random.default_rng(0).standard_normal(FINE.shape).cumsum(axis=0) * 1e-3)
        u_delta = interpolate(u_clean, COARSE)
        assert estimate_noise_level(u_clean, u_delta) <= 1e-12

    def test_constant_offset(self):
        c = 0.37
        u = Surface(COARSE, np.random.default_rng(1).standard_normal(COARSE.shape))
        v = Surface(COARSE, u.values + c)
        assert estimate_noise_level(u, v) == pytest.approx(abs(c) * np.sqrt(10.0), abs=1e-10)

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = Surface(COARSE, rng.standard_normal(COARSE.shape))
            v = Surface(COARSE, rng.standard_normal(COARSE.shape))
            w = Surface(COARSE, rng.standard_normal(COARSE.shape))
            duw = estimate_noise_level(u, w)
            duv = estimate_noise_level(u, v)
            dvw = estimate_noise_level(v, w)
            assert duw <= duv + dvw + 1e-10


class TestGenerateData:
    def test_zero_noise_zero_delta(self):
        ds = generate_data(true_coefficient(FINE), PARAMS, FINE, COARSE, noise_std=0.0, seed=0)
        assert ds.delta <= 1e-12

    def test_seed_reproducibility_bitwise(self):
        a = true_coefficient(FINE)
        d1 = generate_data(a, PARAMS, FINE, COARSE, noise_std=0.01, seed=11)
        d2 = generate_data(a, PARAMS, FINE, COARSE, noise_std=0.01, seed=11)
        assert np.array_equal(d1.u_delta.values, d2.u_delta.values)
        assert d1.delta == d2.delta

    def test_positive_noise_positive_delta(self):
        for seed in range(5):
            ds = generate_data(true_coefficient(FINE), PARAMS, FINE, COARSE,
                               noise_std=0.005, seed=seed)
            assert ds.delta > 0.0

    def test_monte_carlo_noise_level_oracle(self):
        # white noise of std 0.01 over the area-10 domain: delta ~ 0.01*sqrt(10)
        a = true_coefficient(FINE)
        target = 0.01 * np.sqrt(10.0)
        deltas = [generate_data(a, PARAMS, FINE, COARSE, noise_std=0.01, seed=s).delta
                  for s in range(50)]
        assert all(abs(d / target - 1.0) < 0.15 for d in deltas)
        assert abs(np.mean(deltas) / target - 1.0) < 0.05


@settings(max_examples=25, deadline=None)
@given(st.floats(-2.0, 2.0))
def test_interpolate_reexport_constant(c):
    u = constant_surface(FINE, c)
    v = interpolate(u, COARSE)
    assert np.allclose(v.values, c, atol=1e-12)
