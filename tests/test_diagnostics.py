import numpy as np
import pytest

from tikdisc.diagnostics import RATE_CSV_HEADER, bregman_distance, eta_m, l2_error, rate_table
from tikdisc.discrepancy import DiscrepancyBand, MorozovResult, check_band
from tikdisc.grids import Grid, Surface, constant_surface
from tikdisc.ladder import Ladder
from tikdisc.linear import LinearModel, closed_form_minimizer
from tikdisc.optimize import RegularizedSolution
from tikdisc.penalties import Penalty, penalty_value

GRID = Grid.from_counts(7, 11)


def test_bregman_zero_at_equal_points():
    pen = Penalty("quadratic", np.zeros(3))
    u = np.array([1.0, -2.0, 0.5])
    assert bregman_distance(pen, u, u) == 0.0


def test_bregman_quadratic_example():
    pen = Penalty("quadratic", np.zeros(2))
    d = bregman_distance(pen, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert d == pytest.approx(1.0)


def test_bregman_quadratic_identity_random_pairs():
    rng = np.random.default_rng(0)
    pen = Penalty("quadratic", rng.standard_normal(4))
    for _ in range(100):
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        d = bregman_distance(pen, u, v)
        assert d == pytest.approx(float(np.sum((u - v) ** 2)), abs=1e-12, rel=1e-12)


def test_bregman_h1_constant_shift_quadrature_oracle():
    beta1 = 0.5
    pen = Penalty("weighted-h1", constant_surface(GRID, 0.0), beta1=beta1,
                  beta2=0.25 * GRID.dy, beta3=0.25 * GRID.dt)
    rng = np.random.default_rng(1)
    v = Surface(GRID, rng.standard_normal(GRID.shape))
    c = 0.4
    u = Surface(GRID, v.values + c)
    oracle = beta1 * c * c * float(np.sum(GRID.cell_weights()))
    assert bregman_distance(pen, u, v) == pytest.approx(oracle, rel=1e-10)
    assert oracle == pytest.approx(beta1 * c * c * 10.0, rel=1e-12)


def test_bregman_nonnegative_1000_samples_per_kind():
    rng = np.random.default_rng(3)
    kinds = {
        "quadratic": Penalty("quadratic", constant_surface(GRID, 0.0)),
        "weighted-h1": Penalty("weighted-h1", constant_surface(GRID, 0.0), beta1=0.5,
                               beta2=0.25 * GRID.dy, beta3=0.25 * GRID.dt),
    }
    for kind, pen in kinds.items():
        for _ in range(1000):
            u = Surface(GRID, rng.standard_normal(GRID.shape))
            v = Surface(GRID, rng.standard_normal(GRID.shape))
            assert bregman_distance(pen, u, v) >= -1e-12


def test_bregman_rejects_negative_distance():
    # a subgradient that is not one at v makes the distance negative
    pen = Penalty("quadratic", np.zeros(2))
    with pytest.raises(ValueError, match="negative Bregman distance"):
        bregman_distance(pen, np.array([1.0, 0.0]), np.zeros(2), xi=np.array([4.0, 0.0]))


def test_l2_error_examples():
    x = constant_surface(GRID, 0.5)
    assert l2_error(x, x) == 0.0
    y = constant_surface(GRID, 0.5 + 0.3)
    assert l2_error(x, y) == pytest.approx(0.3 * np.sqrt(10.0), rel=1e-12)
    assert l2_error(x, y) == l2_error(y, x)
    a = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        l2_error(a, np.array([1.0, 2.0, 3.0]))


def test_l2_error_interpolates_surfaces():
    fine = Grid.from_counts(9, 9)
    coarse = Grid.from_counts(5, 5)
    x = constant_surface(coarse, 1.0)
    y = constant_surface(fine, 0.0)
    assert l2_error(x, y) == pytest.approx(np.sqrt(10.0), rel=1e-12)


def _spd_runs(deltas, seed=0):
    """Closed-form discrepancy runs on an SPD instance with a source condition."""
    rng = np.random.default_rng(seed)
    n = 6
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(np.linspace(1.0, 3.0, n)) @ q.T
    x_true = rng.standard_normal(n)
    model = LinearModel(a, x_true)
    ladder = Ladder.coordinate((n,))
    pen = Penalty("quadratic", np.zeros(n))
    band = DiscrepancyBand(tau=1.025, lam=1.125)
    runs = []
    for delta in deltas:
        noise = rng.standard_normal(n)
        ydelta = model.y + delta * noise / np.linalg.norm(noise)
        # bisect on log alpha for residual in [tau*delta, lambda*delta]
        lo, hi = 1e-12, 1e6
        alpha = None
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            r = np.linalg.norm(a @ closed_form_minimizer(a, ydelta, mid, np.zeros(n)) - ydelta)
            if band.tau * delta <= r <= band.lam * delta:
                alpha = mid
                break
            if r < band.tau * delta:
                lo = mid
            else:
                hi = mid
        assert alpha is not None
        x = closed_form_minimizer(a, ydelta, alpha, np.zeros(n))
        sol = RegularizedSolution(x=x, residual=float(np.linalg.norm(a @ x - ydelta)),
                                  penalty=penalty_value(pen, x), iterations=0,
                                  stop_reason="gradient-zero", alpha=alpha, level=0)
        runs.append((delta, MorozovResult(level=0, alpha=alpha, solution=sol, gamma_m=0.0,
                                          band=(band.tau * delta, band.lam * delta),
                                          status="in-band")))
    return runs, pen, x_true, ladder, band


class TestRateTable:
    DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)

    def test_slopes_on_source_condition_instance(self):
        runs, pen, x_true, ladder, band = _spd_runs(self.DELTAS)
        table = rate_table(runs, pen, x_true, ladder)
        assert table.slopes["bregman"] >= 0.9
        assert 0.95 <= table.slopes["residual"] <= 1.05
        alphas = [r.alpha for r in table.rows]
        ratios = [r.delta ** 2 / r.alpha for r in table.rows]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_rows_sorted_and_in_band(self):
        runs, pen, x_true, ladder, band = _spd_runs(self.DELTAS)
        table = rate_table(runs, pen, x_true, ladder)
        ds = [r.delta for r in table.rows]
        assert ds == sorted(ds, reverse=True)
        for row in table.rows:
            assert check_band(row.residual, row.delta, band)

    def test_needs_three_levels(self):
        runs, pen, x_true, ladder, _ = _spd_runs((1e-1, 1e-2))
        with pytest.raises(ValueError, match="3 distinct"):
            rate_table(runs, pen, x_true, ladder)

    def test_reproducible_and_csv(self, tmp_path):
        runs, pen, x_true, ladder, _ = _spd_runs(self.DELTAS)
        t1 = rate_table(runs, pen, x_true, ladder)
        t2 = rate_table(runs, pen, x_true, ladder)
        assert t1.rows == t2.rows and t1.slopes == t2.slopes
        p = tmp_path / "rates.csv"
        t1.to_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == RATE_CSV_HEADER
        assert len(lines) == 1 + len(self.DELTAS)
        t1.to_csv(tmp_path / "rates2.csv")
        assert (tmp_path / "rates2.csv").read_bytes() == p.read_bytes()


def test_eta_m_zero_at_full_level():
    pen = Penalty("quadratic", np.zeros(3))
    ladder = Ladder.coordinate((2, 3))
    x_true = np.array([1.0, 2.0, 3.0])
    assert eta_m(pen, ladder, 1, x_true) == pytest.approx(0.0, abs=1e-14)
    # level 0 drops the third coordinate: D(Px, x) = ||Px - x||^2 = 9
    assert eta_m(pen, ladder, 0, x_true) == pytest.approx(9.0, rel=1e-12)
