import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikdisc.grids import (Grid, Surface, clamp, constant_surface, inner, interpolate,
                           interpolate_adjoint, load_surface, norm, save_surface,
                           transfer_matrices)


def test_grid_extent_consistency():
    g = Grid.from_steps(0.1, 0.25)
    assert g.nt == 11 and g.ny == 41
    assert abs((g.nt - 1) * g.dt - (g.t_max - g.t_min)) <= 1e-12 * max(1.0, g.t_max - g.t_min)
    assert abs((g.ny - 1) * g.dy - (g.y_max - g.y_min)) <= 1e-12 * max(1.0, g.y_max - g.y_min)


def test_grid_from_steps_rounds_nondivisible_steps():
    # 0.08 does not divide [0, 1]; the closest uniform grid is used
    g = Grid.from_steps(0.08, 0.22)
    assert g.nt == 13 and abs(g.dt - 1.0 / 12) < 1e-15
    assert g.ny == 46 and abs(g.dy - 10.0 / 45) < 1e-15


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1, 5, 0.1, 0.1)
    with pytest.raises(ValueError):
        Grid(5, 5, -0.1, 0.1)


def test_surface_rejects_nonfinite_and_shape_mismatch():
    g = Grid.from_counts(3, 4)
    with pytest.raises(ValueError, match="non-finite"):
        Surface(g, np.full(g.shape, np.nan))
    with pytest.raises(ValueError, match="shape"):
        Surface(g, np.zeros((4, 3)))


def test_norm_trapezoid_area():
    g = Grid.from_counts(21, 31)
    one = constant_surface(g, 1.0)
    # |D| = 1 * 10 = 10, so ||1||_{L2} = sqrt(10)
    assert norm(one) == pytest.approx(np.sqrt(10.0), rel=1e-12)
    assert inner(one, one) == pytest.approx(10.0, rel=1e-12)


def test_norm_vector_euclidean():
    assert norm(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_surface_arithmetic_and_immutability():
    g = Grid.from_counts(3, 3)
    a = constant_surface(g, 2.0)
    b = constant_surface(g, 0.5)
    assert np.allclose((a - b).values, 1.5)
    assert np.allclose((2.0 * a).values, 4.0)
    with pytest.raises(ValueError):
        a.values[0, 0] = 99.0


def test_clamp_box():
    assert np.allclose(clamp(np.array([-1.0, 0.5, 2.0]), (0.0, 1.0)), [0.0, 0.5, 1.0])
    x = np.array([0.3])
    assert clamp(x, None) is x


def test_interpolate_constant_and_linear_exact():
    src = Grid.from_counts(9, 17)
    dst = Grid.from_steps(0.17, 0.9)
    c = interpolate(constant_surface(src, 0.08), dst)
    assert np.allclose(c.values, 0.08, atol=1e-14)
    yy = Surface(src, np.tile(src.y_nodes(), (src.nt, 1)))
    yi = interpolate(yy, dst)
    assert np.allclose(yi.values, np.tile(dst.y_nodes(), (dst.nt, 1)), atol=1e-12)


def test_interpolate_identity_bitwise():
    g = Grid.from_counts(5, 7)
    u = Surface(g, np.random.default_rng(0).standard_normal(g.shape))
    v = interpolate(u, g)
    assert v is u


def test_interpolate_nested_subsampling_exact():
    fine = Grid.from_counts(9, 9)
    coarse = Grid.from_counts(5, 5)
    u = Surface(fine, np.random.default_rng(1).standard_normal(fine.shape))
    r = interpolate(u, coarse)
    assert np.array_equal(r.values, u.values[::2, ::2])


def test_interpolate_rejects_larger_target():
    src = Grid.from_counts(5, 5, t_span=(0.0, 0.5))
    dst = Grid.from_counts(5, 5, t_span=(0.0, 1.0))
    with pytest.raises(ValueError, match="outside"):
        interpolate(Surface(src, np.zeros(src.shape)), dst)


@pytest.mark.parametrize("src", [Grid.from_counts(11, 41), Grid.from_counts(101, 201)],
                         ids=["coarse-to-solver", "fine-to-solver"])
def test_interpolate_adjoint_is_transpose(src):
    dst = Grid.from_steps(0.02, 0.1)
    assert dst.shape == (51, 101)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(src.shape)
    g = rng.standard_normal(dst.shape)
    lhs = np.sum(interpolate(Surface(src, u), dst).values * g)
    rhs = np.sum(u * interpolate_adjoint(g, src, dst))
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)


def test_transfer_matrices_memoized_per_grid_pair():
    first = transfer_matrices(Grid.from_counts(11, 41), Grid.from_steps(0.02, 0.1))
    again = transfer_matrices(Grid.from_counts(11, 41), Grid.from_steps(0.02, 0.1))
    assert again is first
    for index, weight in first:
        assert not index.flags.writeable and not weight.flags.writeable


def test_cell_weights_memoized_per_grid():
    g = Grid.from_steps(0.1, 0.25)
    first = g.cell_weights()
    assert Grid.from_steps(0.1, 0.25).cell_weights() is first
    assert not first.flags.writeable
    wt = np.full(g.nt, g.dt)
    wt[[0, -1]] = 0.5 * g.dt
    wy = np.full(g.ny, g.dy)
    wy[[0, -1]] = 0.5 * g.dy
    assert np.array_equal(first, np.outer(wt, wy))


def test_surface_io_roundtrip_bitwise(tmp_path):
    g = Grid.from_steps(0.07, 0.13)
    u = Surface(g, np.random.default_rng(2).standard_normal(g.shape))
    path = tmp_path / "u.txt"
    save_surface(u, path)
    v = load_surface(path)
    assert v.grid == u.grid
    assert np.array_equal(v.values, u.values)
    first = path.read_bytes()
    save_surface(v, path)
    assert path.read_bytes() == first


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12))
def test_norm_triangle_inequality_vectors(a, b):
    n = min(len(a), len(b))
    x, y = np.array(a[:n]), np.array(b[:n])
    assert norm(x + y) <= norm(x) + norm(y) + 1e-7 * (1 + norm(x) + norm(y))
