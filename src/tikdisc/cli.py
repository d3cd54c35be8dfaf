"""Config-driven experiment runner.

Verbs:

* ``run <config>``      -- execute the experiment described by the config
                           (dispatches on its ``kind``);
* ``rates <config>``    -- rate study (kind must be ``rate-study``);
* ``oracle <config>``   -- iterative-vs-closed-form comparison
                           (kind must be ``linear-oracle``);
* ``validate <config>`` -- parse, validate, and echo the effective config.

Flags ``--out DIR``, ``--seed N`` and ``--workers N`` override the
corresponding config entries; tables are written as CSV.  Exit status: 0 on
success, 2 on a configuration error, 3 when a discrepancy search (or the
whole sweep) exhausts without a band hit.

Sweep cells run concurrently up to the worker count; CSV rows are ordered
by mesh and then alpha regardless of completion order, and a fixed seed
gives bitwise-identical CSV output run to run.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .diagnostics import l2_error, rate_table
from .discrepancy import (DiscrepancyBand, SearchExhaustedError, check_band,
                          joint_discrepancy_search, sequential_discrepancy)
from .expconfig import ConfigError, ExperimentConfig, load_config, resolve_alphas
from .grids import Grid, constant_surface, fmt, save_surface
from .ladder import Ladder, gamma_m
from .linear import LinearModel, closed_form_minimizer, make_ladder_model
from .optimize import StopRule, minimize_misfit, minimize_tikhonov
from .pde import ParabolicModel, PdeParams, true_coefficient
from .penalties import Penalty
from .synthdata import generate_data
from .tikhonov import TikhonovConfig

RESIDUAL_HEADER = "dtau,dy,n_points,alpha,residual,in_band"
ERROR_HEADER = "dtau,dy,n_points,alpha,l2_error,in_band"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXHAUSTED = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tikdisc",
                                     description="discrepancy-based Tikhonov experiments")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "rates", "oracle", "validate"):
        p = sub.add_parser(verb)
        p.add_argument("config")
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.verb == "validate":
            sys.stdout.write(cfg.effective_text())
            return EXIT_OK
        if args.verb == "rates" and cfg.kind != "rate-study":
            raise ConfigError(f"'rates' needs kind = rate-study, config says {cfg.kind}")
        if args.verb == "oracle" and cfg.kind != "linear-oracle":
            raise ConfigError(f"'oracle' needs kind = linear-oracle, config says {cfg.kind}")
        runner = {
            "pde-sweep": run_pde_sweep,
            "linear-oracle": run_linear_oracle,
            "rate-study": run_rate_study,
            "sequential-demo": run_sequential_demo,
        }[cfg.kind]
        return runner(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    exp = dict(cfg.values["experiment"])
    if args.out is not None:
        exp["out"] = args.out
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        exp["seed"] = int(args.seed)
    if args.workers is not None:
        if args.workers < 1:
            raise ConfigError("workers must be >= 1")
        exp["workers"] = int(args.workers)
    values = dict(cfg.values)
    values["experiment"] = exp
    return ExperimentConfig(kind=cfg.kind, values=values)


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.get("experiment", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _band_of(cfg: ExperimentConfig) -> DiscrepancyBand:
    b = cfg.values["band"]
    return DiscrepancyBand(tau=b["tau"], lam=b["lambda"], tau1=b["tau1"], tau2=b["tau2"])


def _write_summary(out: Path, cfg: ExperimentConfig, lines) -> None:
    with open(out / "summary.txt", "w") as fh:
        fh.write("# effective configuration\n")
        fh.write(cfg.effective_text())
        fh.write("\n# results\n")
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# pde-sweep


def _sweep_cell(task):
    """One (mesh, alpha) cell; module-level so process pools can pickle it.

    The task carries the mesh, not its prior, so a process pool pickles no
    prior surface per task; the cell builds its own penalty.
    """
    model, ydelta, mesh, alpha, stop, a0, pen_vals = task
    pen = Penalty("weighted-h1", constant_surface(mesh, a0),
                  beta1=pen_vals["beta1"],
                  beta2=pen_vals["beta2_per_dy"] * mesh.dy,
                  beta3=pen_vals["beta3_per_dtau"] * mesh.dt)
    if alpha > 0.0:
        return minimize_tikhonov(model, ydelta, TikhonovConfig(alpha=alpha, penalty=pen),
                                 stop=stop)
    return minimize_misfit(model, ydelta, stop=stop, penalty=pen)


def run_pde_sweep(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    seed = cfg.get("experiment", "seed")
    band = _band_of(cfg)
    params = PdeParams(b=cfg.get("pde", "b"), a0=cfg.get("pde", "a0"),
                       bounds=(cfg.get("pde", "a_min"), cfg.get("pde", "a_max")))
    fine = Grid.from_steps(cfg.get("grids", "fine_dtau"), cfg.get("grids", "fine_dy"))
    solver = Grid.from_steps(cfg.get("grids", "solver_dtau"), cfg.get("grids", "solver_dy"))

    mesh_cfg = cfg.values["coefficient_meshes"]
    meshes = [Grid.from_steps(dt, dy) for dt, dy in zip(mesh_cfg["dtau_list"], mesh_cfg["dy_list"])]

    a_true_solver = true_coefficient(solver)
    model = ParabolicModel(params, solver)
    ds = generate_data(true_coefficient(fine), params, fine, solver, cfg.get("noise", "std"), seed)
    ydelta = model.shift_data(ds.u_delta)
    alphas = resolve_alphas(cfg.get("alphas", "values"), ds.delta)
    lo, hi = band.tau * ds.delta, band.lam * ds.delta
    stop = StopRule(discrepancy_band=(lo, hi), max_iters=cfg.get("optimize", "max_iters"),
                    rel_residual_tol=cfg.get("optimize", "rel_residual_tol"))
    tasks = [(model, ydelta, mesh, alpha, stop, params.a0, cfg.values["penalty"])
             for mesh in meshes for alpha in alphas]

    workers = cfg.get("experiment", "workers")
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, tasks))
    else:
        results = [_sweep_cell(t) for t in tasks]

    def selection_key(cell):
        # in band (gap 0) the smallest residual wins, out of band the
        # smallest gap; min keeps the first of equal keys
        r = cell[1].residual
        gap = max(lo - r, r - hi, 0.0)
        return gap, r if gap == 0.0 else 0.0

    residual_rows, error_rows, summary, in_band = [], [], [], []
    for mesh_idx, mesh in enumerate(meshes):
        cells = list(zip(alphas, results[mesh_idx * len(alphas):(mesh_idx + 1) * len(alphas)]))
        for alpha, sol in cells:
            summary.append(f"cell mesh={mesh_idx} alpha={fmt(alpha)}: residual={fmt(sol.residual)} "
                           f"iterations={sol.iterations} stop={sol.stop_reason}")
        # alpha = 0 cells are evaluated but never selected
        alpha, sol = min((cell for cell in cells if cell[0] > 0.0), key=selection_key)
        flag = int(check_band(sol.residual, ds.delta, band))
        err = l2_error(sol.x, a_true_solver)
        residual_rows.append(f"{fmt(mesh.dt)},{fmt(mesh.dy)},{mesh.n_points},"
                             f"{fmt(alpha)},{fmt(sol.residual)},{flag}")
        error_rows.append(f"{fmt(mesh.dt)},{fmt(mesh.dy)},{mesh.n_points},"
                          f"{fmt(alpha)},{fmt(err)},{flag}")
        if flag:
            in_band.append(sol)
        summary.append(f"mesh {mesh_idx}: dtau={fmt(mesh.dt)} dy={fmt(mesh.dy)} "
                       f"delta={fmt(ds.delta)} alpha={fmt(alpha)} residual={fmt(sol.residual)} "
                       f"l2_error={fmt(err)} in_band={flag} iterations={sol.iterations} "
                       f"stop={sol.stop_reason}")

    with open(out / "residual.csv", "w") as fh:
        fh.write(RESIDUAL_HEADER + "\n")
        fh.write("\n".join(residual_rows) + "\n")
    with open(out / "error.csv", "w") as fh:
        fh.write(ERROR_HEADER + "\n")
        fh.write("\n".join(error_rows) + "\n")

    for rank, sol in enumerate(in_band[:2], start=1):
        save_surface(sol.x, out / f"reconstruction_{rank}.txt")

    summary.append(f"in_band_meshes={len(in_band)}")
    _write_summary(out, cfg, summary)
    return EXIT_OK if in_band else EXIT_EXHAUSTED


# ---------------------------------------------------------------------------
# linear-oracle


def run_linear_oracle(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    seed = cfg.get("experiment", "seed")
    o = cfg.values["oracle"]
    rng = np.random.default_rng(seed)
    rows = ["instance,n,cond,alpha,iterations,rel_error"]
    worst = 0.0
    for i in range(o["instances"]):
        n = int(rng.integers(2, o["n_max"] + 1))
        model, _ = make_ladder_model(n, 1, seed=seed + 1000 + i)
        cond = float(np.linalg.cond(model.matrix))
        if cond > o["cond_max"]:
            raise ConfigError(f"instance {i} has condition number {cond:.6g}, above "
                              f"[oracle] cond_max = {o['cond_max']:g}")
        alpha = float(np.exp(rng.uniform(np.log(o["alpha_min"]), np.log(o["alpha_max"]))))
        ydelta = model.y + o["noise"] * rng.standard_normal(n)
        x0 = np.zeros(n)
        ref = closed_form_minimizer(model.matrix, ydelta, alpha, x0)
        gtol = 0.5 * o["tolerance"] * alpha * float(np.linalg.norm(ref))
        sol = minimize_tikhonov(model, ydelta,
                                TikhonovConfig(alpha=alpha, penalty=Penalty("quadratic", x0)),
                                stop=StopRule(rel_residual_tol=1e-300, max_iters=500000,
                                              grad_norm_tol=gtol))
        rel = float(np.linalg.norm(sol.x - ref) / max(np.linalg.norm(ref), 1e-300))
        worst = max(worst, rel)
        rows.append(f"{i},{n},{fmt(cond)},{fmt(alpha)},{sol.iterations},{fmt(rel)}")
    with open(out / "oracle.csv", "w") as fh:
        fh.write("\n".join(rows) + "\n")
    ok = worst <= o["tolerance"]
    _write_summary(out, cfg, [f"max_rel_error={fmt(worst)}",
                              f"tolerance={fmt(o['tolerance'])}",
                              f"status={'ok' if ok else 'FAILED'}"])
    print(f"max relative error over {o['instances']} instances: {worst:.3e}")
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# rate-study


def run_rate_study(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    seed = cfg.get("experiment", "seed")
    band = _band_of(cfg)
    r = cfg.values["rates"]
    rng = np.random.default_rng(seed)
    n = r["n"]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    matrix = q @ np.diag(np.linspace(r["spectrum_min"], r["spectrum_max"], n)) @ q.T
    x_true = rng.standard_normal(n)
    model = LinearModel(matrix, x_true, name="linear-spd")
    levels = tuple(int(l) for l in r["levels"])
    ladder = Ladder.coordinate(levels)
    pen = Penalty("quadratic", np.zeros(n))
    gammas = [gamma_m(ladder, i, model, x_true) for i in range(len(levels))]

    runs, notes = [], []
    for delta in r["deltas"]:
        noise = rng.standard_normal(n)
        ydelta = model.y + delta * noise / np.linalg.norm(noise)
        res = joint_discrepancy_search(model, ydelta, ladder, band, delta,
                                       tol=r["tol"], penalty=pen, gammas=gammas)
        if res.status != "in-band":
            notes.append(f"delta={fmt(delta)}: search {res.status} ({res.detail}); row skipped")
            continue
        runs.append((delta, res))
        notes.append(f"delta={fmt(delta)}: level={res.level} alpha={fmt(res.alpha)} "
                     f"residual={fmt(res.solution.residual)} "
                     f"minimizations={res.minimizations}")

    if len({d for d, _ in runs}) < 3:
        _write_summary(out, cfg, notes + ["status=exhausted (fewer than 3 usable rows)"])
        print("rate study exhausted: fewer than 3 usable noise levels", file=sys.stderr)
        return EXIT_EXHAUSTED

    table = rate_table(runs, pen, x_true, ladder)
    table.to_csv(out / "rates.csv")
    with open(out / "slopes.csv", "w") as fh:
        fh.write("quantity,slope\n")
        for key in sorted(table.slopes):
            fh.write(f"{key},{fmt(table.slopes[key])}\n")
    notes.extend(f"slope[{k}]={fmt(v)}" for k, v in sorted(table.slopes.items()))
    _write_summary(out, cfg, notes)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sequential-demo


def run_sequential_demo(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    s = cfg.values["sequential"]
    model = LinearModel(np.eye(2), np.array([1.0, 0.0]), name="identity")
    ydelta = np.array([1.0, 0.0])
    pen = Penalty("quadratic", np.zeros(2))
    ladder = Ladder.coordinate((2,))

    def write_trace(trace):
        with open(out / "sequential.csv", "w") as fh:
            fh.write("k,alpha,residual\n")
            for k, alpha, resid in trace:
                fh.write(f"{k},{fmt(alpha)},{fmt(resid)}\n")

    try:
        res = sequential_discrepancy(model, ydelta, ladder, 0, s["tau_tilde"], s["alpha0"],
                                     s["q"], s["kmax"], s["delta"], penalty=pen)
    except SearchExhaustedError as exc:
        write_trace(exc.trace)
        _write_summary(out, cfg, ["status=exhausted"])
        print(f"sequential search exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    write_trace(res.trace)
    lines = [f"k={res.k}", f"alpha={fmt(res.alpha)}",
             f"residual={fmt(res.solution.residual)}",
             f"threshold={fmt(s['tau_tilde'] * s['delta'])}"]
    if res.bracket_residual_prev is not None:
        lines.append(f"bracket_residual_prev={fmt(res.bracket_residual_prev)}")
    _write_summary(out, cfg, lines)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
