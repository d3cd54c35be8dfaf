import numpy as np
import pytest

from tikdisc.discrepancy import (DiscrepancyBand, SearchExhaustedError, check_band,
                                 joint_discrepancy_search, morozov_alpha_search,
                                 sequential_discrepancy)
from tikdisc.ladder import Ladder, gamma_m
from tikdisc.linear import LinearModel, closed_form_minimizer, closed_form_solution
from tikdisc.optimize import RegularizedSolution
from tikdisc.penalties import Penalty
from tikdisc.tikhonov import TikhonovConfig

# identity testbed: x0 = 0, ||ydelta|| = 1, minimizer ydelta/(1+alpha),
# residual alpha/(1+alpha), penalty 1/(1+alpha)^2
IDENTITY = LinearModel(np.eye(2), np.array([1.0, 0.0]))
YD = np.array([1.0, 0.0])
PEN = Penalty("quadratic", np.zeros(2))
LADDER2 = Ladder.coordinate((1, 2))


def test_band_defaults_and_validation():
    band = DiscrepancyBand(tau=1.025, lam=1.125)
    assert band.tau1 == 1.025
    assert band.tau2 == pytest.approx(1.075)
    with pytest.raises(ValueError):
        DiscrepancyBand(tau=1.5, lam=1.2)


def test_check_band_examples():
    band = DiscrepancyBand(tau=1.025, lam=1.125)
    assert check_band(0.11, 0.1, band) is True
    assert check_band(0.10, 0.1, band) is False
    assert check_band(0.1125, 0.1, band) is True  # boundary inclusive
    assert check_band(0.1025, 0.1, band) is True


def test_lhi_closed_forms():
    alpha = 0.5
    x = YD / (1.0 + alpha)
    sol = closed_form_solution(IDENTITY, YD, TikhonovConfig(alpha=alpha, penalty=PEN))
    assert np.allclose(sol.x, x)
    L, H = sol.residual, sol.penalty
    assert L == pytest.approx(alpha / (1 + alpha), rel=1e-12)
    assert H == pytest.approx(1.0 / (1 + alpha) ** 2, rel=1e-12)
    # I = L**2 + alpha * H equals its closed form alpha / (1 + alpha)
    assert L ** 2 + alpha * H == pytest.approx(alpha / (1 + alpha), rel=1e-12)


def test_penalty_H_zero_at_prior():
    sol = closed_form_solution(IDENTITY, YD, TikhonovConfig(alpha=1e9, penalty=PEN))
    assert sol.penalty <= 1e-12


def test_monotone_L_H_I_closed_form_grid():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    model = LinearModel(a, rng.standard_normal(4))
    ydelta = model.y + 0.05 * rng.standard_normal(4)
    x0 = np.zeros(4)
    pen = Penalty("quadratic", x0)
    alphas = np.geomspace(1e-6, 1e4, 100)
    L, H, I = [], [], []
    for alpha in alphas:
        x = closed_form_minimizer(a, ydelta, alpha, x0)
        r = np.linalg.norm(a @ x - ydelta)
        h = np.dot(x, x)
        L.append(r)
        H.append(h)
        I.append(r ** 2 + alpha * h)
    for i in range(99):
        assert L[i] <= L[i + 1] + 1e-10
        assert H[i] >= H[i + 1] - 1e-10
        assert I[i] <= I[i + 1] + 1e-10


def test_lower_bracket_reachable_as_alpha_shrinks():
    # residual(q^k alpha0) drops below tau1*(delta+gamma) in finitely many steps
    band = DiscrepancyBand(tau=1.1, lam=1.5)
    delta = 0.1
    target = band.tau1 * delta
    alpha, hit = 1.0, False
    for _ in range(60):
        r = alpha / (1.0 + alpha)
        if r < target:
            hit = True
            break
        alpha *= 0.5
    assert hit


class TestAlphaSearch:
    def test_identity_band_example(self):
        band = DiscrepancyBand(tau=1.1, lam=1.6, tau1=1.1, tau2=1.5)
        res = morozov_alpha_search(IDENTITY, YD, LADDER2, 1, band, delta=0.1,
                                   penalty=PEN, minimize_fn=closed_form_solution)
        assert res.status == "in-band"
        # residual alpha/(1+alpha) in [0.11, 0.15]  <=>  alpha in [0.1236, 0.1765]
        assert 0.11 / 0.89 - 1e-9 <= res.alpha <= 0.15 / 0.85 + 1e-9
        assert 0.11 <= res.solution.residual <= 0.15
        assert res.band == (pytest.approx(0.11), pytest.approx(0.15))

    def test_no_upper_bracket(self):
        band = DiscrepancyBand(tau=1.1, lam=1.6, tau1=1.1, tau2=1.5)
        ydelta = np.array([0.12, 0.0])  # ||F(P_m x0) - ydelta|| = 0.12 < 0.15
        res = morozov_alpha_search(IDENTITY, ydelta, LADDER2, 1, band, delta=0.1,
                                   penalty=PEN, minimize_fn=closed_form_solution)
        assert res.status == "no-upper-bracket"
        assert res.solution is None

    def test_degenerate_band_converges_to_root(self):
        band = DiscrepancyBand(tau=1.2, lam=1.6, tau1=1.2, tau2=1.2)
        tol = 1e-4
        res = morozov_alpha_search(IDENTITY, YD, LADDER2, 1, band, delta=0.1,
                                   penalty=PEN, tol=tol, minimize_fn=closed_form_solution)
        # residual = tau1*delta = 0.12 at alpha* = 0.12/0.88
        alpha_star = 0.12 / 0.88
        if res.status == "exhausted":
            assert abs(np.log10(res.alpha / alpha_star)) <= 2 * tol
        else:
            assert res.status == "in-band"
            assert abs(res.solution.residual - 0.12) <= 1e-4

    def test_minimization_count_bound(self):
        band = DiscrepancyBand(tau=1.1, lam=1.6, tau1=1.1, tau2=1.5)
        tol = 1e-3
        res = morozov_alpha_search(IDENTITY, YD, LADDER2, 1, band, delta=0.1,
                                   penalty=PEN, tol=tol, minimize_fn=closed_form_solution)
        # expansions + ceil(log2(bracket decades / tol))
        assert res.minimizations <= 60 + int(np.ceil(np.log2(12.0 / tol)))

    @staticmethod
    def _jump_at_one_hundredth(model, ydelta, cfg, ladder, level, x_start=None):
        # residual jumps from 0.05 to 0.5 at alpha = 0.01, clean across the band
        residual = 0.05 if cfg.alpha < 0.01 else 0.5
        return RegularizedSolution(x=np.zeros(2), residual=residual, penalty=0.0,
                                   iterations=0, stop_reason="gradient-zero",
                                   alpha=cfg.alpha, level=level)

    @pytest.mark.parametrize("tol, minimizations", [(1e-3, 14), (0.0, 58), (1e-20, 58)])
    def test_residual_jump_ends_at_float_resolution(self, tol, minimizations):
        band = DiscrepancyBand(tau=1.025, lam=1.125)
        res = morozov_alpha_search(IDENTITY, YD, LADDER2, 1, band, delta=0.1, penalty=PEN,
                                   tol=tol, minimize_fn=self._jump_at_one_hundredth)
        assert res.status == "exhausted"
        assert "residual jump" in res.detail
        assert res.minimizations == minimizations
        # the reported alpha is the collapse point, not the lower bracket end
        assert 0.01 * 10 ** -max(tol, 1e-12) <= res.alpha < 0.01


class TestSelectLevel:
    """Level choice of the joint search: the first level, coarse to fine,
    whose image gap meets the bound (lambda / tau2 - 1) * delta."""

    def test_bound_example(self):
        band = DiscrepancyBand(tau=1.05, lam=1.125, tau2=1.075)
        gammas = [2.0 ** (-m) for m in range(1, 13)]
        ladder = Ladder.coordinate(tuple(range(2, 14)))
        model = LinearModel(np.eye(13), np.eye(13)[0])
        res = joint_discrepancy_search(model, model.y, ladder, band, delta=0.1,
                                       penalty=Penalty("quadratic", np.zeros(13)),
                                       gammas=gammas, minimize_fn=closed_form_solution)
        # bound = (1.125/1.075 - 1)*0.1 = 0.0046512; first 2^-m below it is m = 8
        assert res.status == "in-band"
        assert gammas[res.level] == 2.0 ** (-8)

    def test_zero_gamma_selects_first(self):
        band = DiscrepancyBand(tau=1.05, lam=1.125)
        res = joint_discrepancy_search(IDENTITY, YD, Ladder.coordinate((1, 2)), band,
                                       delta=0.1, penalty=PEN, gammas=[0.0, 0.0],
                                       minimize_fn=closed_form_solution)
        assert res.status == "in-band"
        assert res.level == 0

    def test_not_found_signal(self):
        band = DiscrepancyBand(tau=1.05, lam=1.125, tau2=1.075)
        res = joint_discrepancy_search(IDENTITY, YD, Ladder.coordinate((1, 2)), band,
                                       delta=0.1, penalty=PEN, gammas=[5.0, 4.0],
                                       minimize_fn=closed_form_solution)
        assert res.status == "exhausted"
        assert res.level == -1 and res.solution is None
        assert "level 0: skipped, gamma 5.000e+00" in res.detail
        assert "level 1: skipped, gamma 4.000e+00" in res.detail


class TestJointSearch:
    def test_identity_in_x2(self):
        # truth in X_2 of a 3-level ladder; gamma_0 > 0, gamma_1 = gamma_2 = 0
        model = LinearModel(np.eye(3), np.array([0.8, 0.6, 0.0]))
        ladder = Ladder.coordinate((1, 2, 3))
        delta = 0.1
        rng = np.random.default_rng(4)
        noise = rng.standard_normal(3)
        ydelta = model.y + delta * noise / np.linalg.norm(noise)
        band = DiscrepancyBand(tau=1.025, lam=1.125)
        pen = Penalty("quadratic", np.zeros(3))
        gammas = [gamma_m(ladder, i, model, model.x_true) for i in range(3)]
        res = joint_discrepancy_search(model, ydelta, ladder, band, delta,
                                       penalty=pen, gammas=gammas,
                                       minimize_fn=closed_form_solution)
        assert res.status == "in-band"
        direct = np.linalg.norm(model.apply(res.solution.x) - ydelta)
        assert band.tau * delta <= direct <= band.lam * delta
        assert check_band(res.solution.residual, delta, band)

    def test_large_delta_exhausts(self):
        # residual at the prior already below tau*delta: no level can bracket
        delta = 2.0
        band = DiscrepancyBand(tau=1.025, lam=1.125)
        res = joint_discrepancy_search(IDENTITY, YD, LADDER2, band, delta,
                                       penalty=PEN, minimize_fn=closed_form_solution)
        assert res.status == "exhausted"
        assert "no-upper-bracket" in res.detail

    def test_agreement_with_grid_scan(self):
        band = DiscrepancyBand(tau=1.1, lam=1.5)
        rng = np.random.default_rng(21)
        for trial in range(10):
            a = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
            xt = rng.standard_normal(4)
            model = LinearModel(a, xt)
            ladder = Ladder.coordinate((2, 3, 4))
            delta = float(rng.uniform(0.02, 0.3))
            noise = rng.standard_normal(4)
            ydelta = model.y + delta * noise / np.linalg.norm(noise)
            pen = Penalty("quadratic", np.zeros(4))
            res = joint_discrepancy_search(model, ydelta, ladder, band, delta,
                                           penalty=pen, minimize_fn=closed_form_solution)
            scan_hit = False
            for level in range(3):
                m = ladder.levels[level]
                for alpha in np.geomspace(1e-6, 1e3, 200):
                    x = np.zeros(4)
                    x[:m] = closed_form_minimizer(a[:, :m], ydelta, alpha, np.zeros(m))
                    if check_band(np.linalg.norm(a @ x - ydelta), delta, band):
                        scan_hit = True
                        break
                if scan_hit:
                    break
            assert (res.status == "in-band") == scan_hit


class TestSequential:
    def test_worked_example(self):
        res = sequential_discrepancy(IDENTITY, YD, LADDER2, 1, tau_tilde=1.2,
                                     alpha0=1.0, q=0.5, kmax=30, delta=0.1,
                                     penalty=PEN, minimize_fn=closed_form_solution)
        # residuals 0.5, 1/3, 0.2, 1/9 -> first below 0.12 at k = 3
        assert res.k == 3
        assert res.alpha == pytest.approx(0.125)
        assert res.solution.residual == pytest.approx(1.0 / 9.0, rel=1e-10)
        assert res.bracket_residual_prev == pytest.approx(0.2, rel=1e-10)
        assert res.solution.residual <= 1.2 * 0.1 < res.bracket_residual_prev

    def test_k_zero_no_bracket(self):
        res = sequential_discrepancy(IDENTITY, YD, LADDER2, 1, tau_tilde=1.2,
                                     alpha0=1e-6, q=0.5, kmax=10, delta=0.1,
                                     penalty=PEN, minimize_fn=closed_form_solution)
        assert res.k == 0
        assert res.bracket_residual_prev is None

    def test_exhausted_when_threshold_unreachable(self):
        # level 0 of the ladder cannot represent the second data component
        model = LinearModel(np.eye(2), np.array([0.5, 0.8]))
        ydelta = model.y
        with pytest.raises(SearchExhaustedError) as err:
            sequential_discrepancy(model, ydelta, LADDER2, 0, tau_tilde=1.2,
                                   alpha0=1.0, q=0.5, kmax=8, delta=0.1,
                                   penalty=PEN, minimize_fn=closed_form_solution)
        assert len(err.value.trace) == 9
        assert all(r > 0.12 for _, _, r in err.value.trace)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sequential_discrepancy(IDENTITY, YD, LADDER2, 1, tau_tilde=0.9,
                                   alpha0=1.0, q=0.5, kmax=5, delta=0.1, penalty=PEN)
        with pytest.raises(ValueError):
            sequential_discrepancy(IDENTITY, YD, LADDER2, 1, tau_tilde=1.2,
                                   alpha0=1.0, q=1.5, kmax=5, delta=0.1, penalty=PEN)


def test_joint_search_with_gradient_descent_minimizer():
    # default minimizer (gradient descent) agrees with the closed-form route
    model = LinearModel(np.eye(3), np.array([0.8, 0.6, 0.0]))
    ladder = Ladder.coordinate((1, 2, 3))
    delta = 0.1
    rng = np.random.default_rng(4)
    noise = rng.standard_normal(3)
    ydelta = model.y + delta * noise / np.linalg.norm(noise)
    band = DiscrepancyBand(tau=1.025, lam=1.125)
    pen = Penalty("quadratic", np.zeros(3))
    res = joint_discrepancy_search(model, ydelta, ladder, band, delta, penalty=pen)
    assert res.status == "in-band"
    assert check_band(res.solution.residual, delta, band)
