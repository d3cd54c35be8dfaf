import numpy as np
import pytest

from tikdisc.grids import Grid, Surface, constant_surface, inner
from tikdisc.penalties import Penalty, penalty_subgradient, penalty_value

GRID = Grid.from_counts(9, 13)


def _sample(rng):
    return Surface(GRID, rng.standard_normal(GRID.shape))


def _penalty(kind):
    if kind == "weighted-h1":
        return Penalty(kind, constant_surface(GRID, 0.0), beta1=0.5,
                       beta2=0.25 * GRID.dy, beta3=0.25 * GRID.dt)
    return Penalty(kind, constant_surface(GRID, 0.0))


def test_quadratic_vector_example():
    pen = Penalty("quadratic", np.zeros(2))
    x = np.array([3.0, 4.0])
    assert penalty_value(pen, x) == pytest.approx(25.0)
    assert np.allclose(penalty_subgradient(pen, x), [6.0, 8.0])


def test_value_zero_at_prior_every_kind():
    for kind in ("quadratic", "weighted-h1"):
        pen = _penalty(kind)
        assert penalty_value(pen, pen.x0) == 0.0


def test_h1_constant_field_quadrature_oracle():
    # constant offset c: derivative terms vanish, value = beta1 * c^2 * |D|
    beta1, c = 0.5, 0.7
    pen = Penalty("weighted-h1", constant_surface(GRID, 0.0), beta1=beta1,
                  beta2=0.25 * GRID.dy, beta3=0.25 * GRID.dt)
    x = constant_surface(GRID, c)
    oracle = beta1 * c * c * float(np.sum(GRID.cell_weights()))
    assert penalty_value(pen, x) == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(beta1 * c * c * 10.0, rel=1e-12)


def test_positivity_and_zero_iff_prior_1000_samples():
    rng = np.random.default_rng(42)
    for kind in ("quadratic", "weighted-h1"):
        pen = _penalty(kind)
        for _ in range(1000):
            x = _sample(rng)
            v = penalty_value(pen, x)
            assert v >= 0.0
            same = np.array_equal(x.values, (pen.x0.values if isinstance(pen.x0, Surface)
                                             else pen.x0))
            if not same:
                assert v > 0.0


def test_convexity_spot_check():
    rng = np.random.default_rng(7)
    for kind in ("quadratic", "weighted-h1"):
        pen = _penalty(kind)
        for _ in range(50):
            u, v = _sample(rng), _sample(rng)
            mid = Surface(GRID, 0.5 * (u.values + v.values))
            lhs = penalty_value(pen, mid)
            rhs = 0.5 * (penalty_value(pen, u) + penalty_value(pen, v))
            assert lhs <= rhs + 1e-10


@pytest.mark.parametrize("kind", ["quadratic", "weighted-h1"])
def test_subgradient_matches_finite_differences(kind):
    rng = np.random.default_rng(3)
    pen = _penalty(kind)
    x = _sample(rng)
    g = penalty_subgradient(pen, x)
    for _ in range(5):
        h = Surface(GRID, rng.standard_normal(GRID.shape))
        eps = 1e-6
        fd = (penalty_value(pen, x + eps * h) - penalty_value(pen, x - eps * h)) / (2 * eps)
        assert fd == pytest.approx(inner(g, h), rel=2e-5, abs=1e-10)


def test_weighted_h1_needs_surfaces():
    pen = Penalty("quadratic", np.zeros(3))
    with pytest.raises(ValueError):
        penalty_value(_penalty("weighted-h1"), np.zeros(3))
    with pytest.raises(ValueError):
        Penalty("weighted-h1", np.zeros(3))
    with pytest.raises(ValueError, match="grids"):
        penalty_value(_penalty("quadratic"), constant_surface(Grid.from_counts(4, 4), 0.0))
    with pytest.raises(ValueError):
        penalty_value(pen, np.zeros(4))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown penalty kind"):
        Penalty("tv", np.zeros(2))
    with pytest.raises(ValueError, match="unknown penalty kind"):
        Penalty("kullback-leibler", np.ones(2))
