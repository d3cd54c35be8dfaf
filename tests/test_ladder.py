import numpy as np
import pytest

from tikdisc.grids import Grid, Surface, constant_surface
from tikdisc.ladder import Ladder, gamma_m, phi_m, project
from tikdisc.linear import LinearModel

# nested factor-2 refinements of the same domain
NESTED_GRIDS = (Grid.from_counts(3, 3), Grid.from_counts(5, 5), Grid.from_counts(9, 9))


def test_coordinate_projection_example():
    lad = Ladder.coordinate((2, 3))
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(project(lad, 0, x), [1.0, 2.0, 0.0])
    assert np.allclose(project(lad, 1, x), x)


def test_projection_idempotent_bitwise():
    lad = Ladder.coordinate((1, 2, 4))
    x = np.array([0.3, -2.0, 5.0, 0.1])
    for level in range(3):
        once = project(lad, level, x)
        assert np.array_equal(project(lad, level, once), once)

    grid_lad = Ladder(NESTED_GRIDS)
    u = Surface(grid_lad.levels[-1], np.random.default_rng(0).uniform(-1, 2, (9, 9)))
    for level in range(3):
        once = project(grid_lad, level, u)
        twice = project(grid_lad, level, once)
        assert np.array_equal(twice.values, once.values)


def test_grid_projection_preserves_constants():
    lad = Ladder(NESTED_GRIDS)
    fine = lad.levels[-1]
    u = constant_surface(fine, 0.08)
    for level in range(3):
        p = project(lad, level, u)
        assert np.allclose(p.values, 0.08, atol=1e-14)


def test_nested_composition():
    lad = Ladder.coordinate((2, 3, 5))
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5)
    for m in range(3):
        for mp in range(m, 3):
            a = project(lad, m, project(lad, mp, x))
            b = project(lad, m, x)
            assert np.allclose(a, b, atol=1e-12)

    glad = Ladder(NESTED_GRIDS)
    u = Surface(glad.levels[-1], rng.standard_normal((9, 9)))
    for m in range(3):
        for mp in range(m, 3):
            a = project(glad, m, project(glad, mp, u))
            b = project(glad, m, u)
            assert np.allclose(a.values, b.values, atol=1e-12)


def test_level_out_of_range():
    lad = Ladder.coordinate((1, 2))
    with pytest.raises(IndexError):
        project(lad, 2, np.zeros(2))


def test_nested_validation():
    with pytest.raises(ValueError):
        Ladder.coordinate((3, 2))
    g1 = Grid.from_counts(3, 3)
    g2 = Grid.from_counts(4, 4)
    with pytest.raises(ValueError, match="not nested"):
        Ladder((g1, g2), nested=True)
    Ladder.free_grids((g1, g2))  # free list accepts anything


def test_gamma_phi_tail_norm_examples():
    model = LinearModel(np.eye(3), np.array([1.0, 2.0, 3.0]))
    lad = Ladder.coordinate((2, 3))
    x = model.x_true
    assert gamma_m(lad, 0, model, x) == pytest.approx(3.0)
    assert phi_m(lad, 0, x) == pytest.approx(3.0)
    assert gamma_m(lad, 1, model, x) == pytest.approx(0.0, abs=1e-15)
    assert phi_m(lad, 1, x) == pytest.approx(0.0, abs=1e-15)


def test_gamma_dense_matrix_oracle():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    xt = rng.standard_normal(4)
    model = LinearModel(a, xt)
    lad = Ladder.coordinate((2, 4))
    px = xt.copy()
    px[2:] = 0.0
    oracle = np.linalg.norm(a @ xt - a @ px)
    assert gamma_m(lad, 0, model, xt) == pytest.approx(oracle, rel=1e-12)


def test_gamma_phi_monotone_on_nested_ladders():
    # diagonal model: image gap is a weighted tail norm, monotone by nesting
    d = np.diag([3.0, 2.0, 1.5, 1.0, 0.5])
    model = LinearModel(d, np.array([1.0, -2.0, 0.5, 1.0, -1.0]))
    lad = Ladder.coordinate((1, 2, 3, 4, 5))
    gams = [gamma_m(lad, i, model, model.x_true) for i in range(5)]
    phis = [phi_m(lad, i, model.x_true) for i in range(5)]
    for a, b in zip(gams, gams[1:]):
        assert b <= a + 1e-12
    for a, b in zip(phis, phis[1:]):
        assert b <= a + 1e-12
    assert gams[-1] == pytest.approx(0.0, abs=1e-14)


def test_phi_monotone_smooth_surface_on_grid_ladder():
    lad = Ladder(NESTED_GRIDS)
    fine = lad.levels[-1]
    tt = fine.t_nodes()[:, None]
    yy = fine.y_nodes()[None, :]
    smooth = Surface(fine, np.sin(tt) * np.exp(-0.1 * yy ** 2))
    phis = [phi_m(lad, i, smooth) for i in range(3)]
    for a, b in zip(phis, phis[1:]):
        assert b <= a + 1e-12
    assert phis[-1] == pytest.approx(0.0, abs=1e-14)
