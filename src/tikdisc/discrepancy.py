"""Discrepancy-based selection of the regularization parameter and level.

Selection targets a two-sided residual band.  Per level, the band is
[tau1 * (delta + gamma), tau2 * (delta + gamma)] with gamma the level's
operator-image projection gap; the joint search over levels accepts a result
whose residual lies in [tau * delta, lambda * delta].  The residual is a
non-decreasing function of alpha over exact minimizers, so the alpha search
is a bisection on log(alpha) with bracket expansion.

A bisection that collapses without entering the band while its bracket
residuals straddle the band indicates a residual jump (multiple minimizers);
the search reports this in the result detail rather than repairing it.  The
sequential principle (geometric alpha sweep stopped at the first residual
under tau_tilde * delta) is the fallback for such operators.

Per-level searches are independent and may run concurrently; each bisection
is sequential and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .grids import norm
from .ladder import Ladder, project
from .optimize import RegularizedSolution, StopRule, minimize_tikhonov
from .penalties import Penalty
from .tikhonov import TikhonovConfig

__all__ = [
    "DiscrepancyBand",
    "MorozovResult",
    "SequentialResult",
    "SearchExhaustedError",
    "check_band",
    "morozov_alpha_search",
    "joint_discrepancy_search",
    "sequential_discrepancy",
]

_MAX_EXPANSIONS = 60  # bracket expansions per side, each by a factor of 10
_STOP = StopRule(rel_residual_tol=1e-12, max_iters=2000)  # the default minimizer's


@dataclass(frozen=True)
class DiscrepancyBand:
    """Residual band multipliers 1 < tau <= tau1 <= tau2 < lam.

    tau1 defaults to tau and tau2 to the midpoint of tau1 and lam.
    """

    tau: float
    lam: float
    tau1: "float | None" = None
    tau2: "float | None" = None

    def __post_init__(self):
        if self.tau1 is None:
            object.__setattr__(self, "tau1", self.tau)
        if self.tau2 is None:
            object.__setattr__(self, "tau2", 0.5 * (self.tau1 + self.lam))
        if not (1.0 < self.tau <= self.tau1 <= self.tau2 < self.lam):
            raise ValueError(
                f"need 1 < tau <= tau1 <= tau2 < lambda, got "
                f"tau={self.tau}, tau1={self.tau1}, tau2={self.tau2}, lambda={self.lam}")


@dataclass(frozen=True)
class MorozovResult:
    """Outcome of a discrepancy search: selected level, alpha, and solution."""

    level: int
    alpha: float
    solution: "RegularizedSolution | None"
    gamma_m: float
    band: tuple
    status: str
    detail: str = ""
    minimizations: int = 0

    def __post_init__(self):
        if self.status not in ("in-band", "no-upper-bracket", "exhausted"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "in-band":
            lo, hi = self.band
            if not lo <= self.solution.residual <= hi:
                raise ValueError(
                    f"in-band result with residual {self.solution.residual} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class SequentialResult:
    """Sequential principle outcome: k, alpha = q**k * alpha0, and solution.

    ``trace`` holds ``(k, alpha_k, residual)`` of every minimization, k = 0 first.
    """

    k: int
    alpha: float
    solution: RegularizedSolution
    trace: tuple

    @property
    def bracket_residual_prev(self) -> "float | None":
        """Residual at k - 1, above the threshold; ``None`` for k = 0."""
        return self.trace[-2][2] if self.k >= 1 else None


class SearchExhaustedError(RuntimeError):
    """A discrepancy search ran out of budget; carries the residual trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = tuple(trace or ())


def check_band(residual: float, delta: float, band: DiscrepancyBand) -> bool:
    """True iff tau * delta <= residual <= lambda * delta (inclusive)."""
    if residual < 0.0 or delta < 0.0:
        raise ValueError("residual and delta must be non-negative")
    return band.tau * delta <= residual <= band.lam * delta


def _minimize(model, ydelta, cfg, ladder, level, x_start=None):
    """The searches' minimizer, unless ``minimize_fn`` replaces it."""
    return minimize_tikhonov(model, ydelta, cfg, ladder=ladder, level=level, stop=_STOP,
                             x_start=x_start)


def morozov_alpha_search(model, ydelta, ladder: Ladder, level: int, band: DiscrepancyBand,
                         delta: float, *, penalty: Penalty, gamma_m: float = 0.0,
                         tol: float = 1e-3, minimize_fn=None) -> MorozovResult:
    """Bisection on log(alpha) targeting the per-level residual band.

    Requires the residual at the projected prior to exceed the upper band
    edge (otherwise ``no-upper-bracket``).  The bracket starts at [1e-4, 1]
    and is expanded by factors of 10, at most 60 times per side, before
    bisecting; ``tol`` bounds the final log10 bracket width.  Budget
    exhaustion without a band hit reports ``exhausted`` with the closest
    achieved residual, taken at the last alpha reaching it; a collapsed
    bracket whose residuals straddle the whole band signals a residual jump,
    and the result then names the collapse point.  Each minimization starts
    from the previous one's result.  The penalty is used as given, so on a
    grid level its prior must live on that level's grid.
    """
    if delta < 0.0 or gamma_m < 0.0:
        raise ValueError("delta and gamma_m must be non-negative")
    lo, hi = 1e-4, 1.0
    target_lo = band.tau1 * (delta + gamma_m)
    target_hi = band.tau2 * (delta + gamma_m)
    run = minimize_fn or _minimize

    prior = project(ladder, level, penalty.x0)
    prior_residual = norm(model.apply(prior) - ydelta)
    if prior_residual <= target_hi:
        return MorozovResult(level=level, alpha=float("nan"), solution=None,
                             gamma_m=gamma_m, band=(target_lo, target_hi),
                             status="no-upper-bracket",
                             detail=f"residual at the projected prior is {prior_residual}, "
                                    f"not above {target_hi}")

    count = 0
    cache = {}
    state = {"x": None}

    def residual_at(alpha):
        nonlocal count
        if alpha in cache:
            return cache[alpha]
        cfg = TikhonovConfig(alpha=alpha, penalty=penalty)
        sol = run(model, ydelta, cfg, ladder, level, x_start=state["x"])
        state["x"] = sol.x
        count += 1
        cache[alpha] = sol
        return sol

    def result(alpha, sol, status, detail=""):
        return MorozovResult(level=level, alpha=alpha, solution=sol, gamma_m=gamma_m,
                             band=(target_lo, target_hi), status=status, detail=detail,
                             minimizations=count)

    sol = residual_at(lo)
    if target_lo <= sol.residual <= target_hi:
        return result(lo, sol, "in-band")
    for _ in range(_MAX_EXPANSIONS):
        if sol.residual < target_lo:
            break
        lo /= 10.0
        sol = residual_at(lo)
        if target_lo <= sol.residual <= target_hi:
            return result(lo, sol, "in-band")
    else:
        return result(lo, sol, "exhausted",
                      detail="lower bracket expansion exhausted without dropping below the band")

    hi = max(hi, lo * 10.0)
    sol_hi = residual_at(hi)
    if target_lo <= sol_hi.residual <= target_hi:
        return result(hi, sol_hi, "in-band")
    for _ in range(_MAX_EXPANSIONS):
        if sol_hi.residual > target_hi:
            break
        hi *= 10.0
        sol_hi = residual_at(hi)
        if target_lo <= sol_hi.residual <= target_hi:
            return result(hi, sol_hi, "in-band")
    else:
        return result(hi, sol_hi, "exhausted",
                      detail="upper bracket expansion exhausted without exceeding the band")

    best_alpha, best_sol = None, None

    def track(alpha, sol):
        nonlocal best_alpha, best_sol
        gap = max(target_lo - sol.residual, sol.residual - target_hi, 0.0)
        # on equal gaps the later alpha wins, being nearer the collapse point
        if best_sol is None or gap <= best_sol[1]:
            best_alpha, best_sol = alpha, (sol, gap)

    track(lo, cache[lo])
    track(hi, cache[hi])
    while math.log10(hi / lo) > tol:
        mid = math.sqrt(lo * hi)
        if mid == lo or mid == hi:  # bracket collapsed to float resolution
            break
        sol = residual_at(mid)
        if target_lo <= sol.residual <= target_hi:
            return result(mid, sol, "in-band")
        track(mid, sol)
        if sol.residual < target_lo:
            lo = mid
        else:
            hi = mid
    jump = (cache[lo].residual < target_lo) and (cache[hi].residual > target_hi)
    detail = ("alpha bracket collapsed with residuals straddling the band; "
              "residual jump across the band (multiple-minimizer violation suspected)"
              if jump else "bisection tolerance reached without entering the band")
    return result(best_alpha, best_sol[0], "exhausted", detail=detail)


def joint_discrepancy_search(model, ydelta, ladder: Ladder, band: DiscrepancyBand,
                             delta: float, tol: float = 1e-3, *, penalty: Penalty,
                             gammas=None, minimize_fn=None) -> MorozovResult:
    """Joint (level, alpha) selection by the relaxed discrepancy principle.

    Levels are scanned coarse to fine; levels whose known image gap
    exceeds (lambda / tau2 - 1) * delta are skipped.  At each candidate level
    the per-level alpha search runs with tau1 = tau; a result is accepted
    when its residual lies in [tau * delta, lambda * delta].  If every level
    fails, the result carries per-level diagnostics.  One penalty serves all
    levels: grid levels on different meshes need one penalty per level, which
    this search does not take, and fail the penalty's space check.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    bound = (band.lam / band.tau2 - 1.0) * delta
    notes = []
    best = None
    for idx in range(len(ladder.levels)):
        gamma = 0.0 if gammas is None else float(gammas[idx])
        if gammas is not None and gamma > bound:
            notes.append(f"level {idx}: skipped, gamma {gamma:.3e} > bound {bound:.3e}")
            continue
        res = morozov_alpha_search(model, ydelta, ladder, idx, band, delta,
                                   penalty=penalty, gamma_m=gamma, tol=tol,
                                   minimize_fn=minimize_fn)
        if res.status == "in-band" and check_band(res.solution.residual, delta, band):
            return res
        notes.append(f"level {idx}: {res.status}"
                     + (f" ({res.detail})" if res.detail else ""))
        if res.solution is not None and (best is None or _band_gap(res, delta, band)
                                         < _band_gap(best, delta, band)):
            best = res
    detail = "; ".join(notes) if notes else "ladder has no candidate levels"
    if best is not None:
        return replace(best, status="exhausted", detail=detail)
    return MorozovResult(level=-1, alpha=float("nan"), solution=None, gamma_m=float("nan"),
                         band=(band.tau * delta, band.lam * delta), status="exhausted",
                         detail=detail)


def _band_gap(res: MorozovResult, delta: float, band: DiscrepancyBand) -> float:
    r = res.solution.residual
    return max(band.tau * delta - r, r - band.lam * delta, 0.0)


def sequential_discrepancy(model, ydelta, ladder: Ladder, level: int, tau_tilde: float,
                           alpha0: float, q: float, kmax: int, delta: float, *,
                           penalty: Penalty, minimize_fn=None) -> SequentialResult:
    """Geometric alpha sweep alpha_k = q**k * alpha0 stopped at the band edge.

    Returns the smallest k with residual(alpha_k) <= tau_tilde * delta; for
    k >= 1 the previous residual exceeds the threshold, which is the
    two-sided bracket of the sequential principle.  Raises
    :class:`SearchExhaustedError` with the residual trace past ``kmax``.
    """
    if not tau_tilde > 1.0:
        raise ValueError("tau_tilde must exceed 1")
    if not alpha0 > 0.0 or not 0.0 < q < 1.0:
        raise ValueError("need alpha0 > 0 and 0 < q < 1")
    run = minimize_fn or _minimize
    threshold = tau_tilde * delta
    trace = []
    x_start = None
    for k in range(kmax + 1):
        alpha = (q ** k) * alpha0
        cfg = TikhonovConfig(alpha=alpha, penalty=penalty)
        sol = run(model, ydelta, cfg, ladder, level, x_start=x_start)
        x_start = sol.x
        trace.append((k, alpha, sol.residual))
        if sol.residual <= threshold:
            return SequentialResult(k=k, alpha=alpha, solution=sol, trace=tuple(trace))
    raise SearchExhaustedError(
        f"no alpha_k reached residual <= {threshold} within k <= {kmax}", trace=trace)
