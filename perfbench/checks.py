"""Correctness checks of each workload's outputs against reference.py.

Each check returns ``(failed, notes)``: the number of the round's
operations whose output is wrong, and one line per problem found.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

from reference import (bilinear, crank_nicolson, floats, l2_norm, load_surface_text, payoff_row,
                       relative_gap, sweep_data, tikhonov_svd, true_coefficient)

# The program writes shortest round-trip decimals and the reference agrees
# with it to about 1e-14; a residual off by 1e-6 must fail.
SWEEP_RTOL = 1e-10
# The rate-study minimizer stops on a 1e-12 relative residual change and its
# iterates agree with the SVD minimizer to about 5e-11.
RATES_XTOL = 1e-8


def _rows(path) -> list:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def check_sweep(out: Path, cfg: dict, seed: int, n_alphas: int) -> tuple:
    """Sweep outputs against the data rebuilt from ``seed``.

    A wrong delta fails every cell; any other finding fails the selected
    cell of its mesh.
    """
    out = Path(out)
    data = sweep_data(cfg, seed)
    band = cfg["band"]
    tau, lam = float(band["tau"]), float(band["lambda"])
    a_min, a_max = float(cfg["pde"]["a_min"]), float(cfg["pde"]["a_max"])
    n_meshes = len(floats(cfg["coefficient_meshes"]["dtau_list"]))
    total = n_meshes * n_alphas
    try:
        residual = _rows(out / "residual.csv")
        error = _rows(out / "error.csv")
        summary = (out / "summary.txt").read_text()
    except OSError as exc:
        return total, [f"missing output: {exc}"]
    deltas = [float(d) for d in re.findall(r"^mesh \d+: .* delta=(\S+) ", summary, re.M)]
    cells = len(re.findall(r"^cell mesh=", summary, re.M))
    if len(residual) != n_meshes or len(error) != n_meshes or len(deltas) != n_meshes \
            or cells != total:
        return total, [f"expected {n_meshes} meshes and {total} cells, found "
                       f"{len(residual)}/{len(error)}/{len(deltas)} rows and {cells} cells"]
    bad_delta = [d for d in deltas if not _close(d, data.delta, SWEEP_RTOL)]
    if bad_delta:
        return total, [f"delta {bad_delta[0]!r} differs from the rebuilt {data.delta!r}"]

    failed_meshes, notes = set(), []
    for k, (row, err_row) in enumerate(zip(residual, error)):
        if (row["in_band"], row["alpha"]) != (err_row["in_band"], err_row["alpha"]):
            failed_meshes.add(k)
            notes.append(f"mesh {k}: residual.csv and error.csv disagree")
        r = float(row["residual"])
        if row["in_band"] == "1" and not tau * data.delta <= r <= lam * data.delta:
            failed_meshes.add(k)
            notes.append(f"mesh {k}: in-band residual {r!r} outside "
                         f"[{tau * data.delta!r}, {lam * data.delta!r}]")

    in_band = [k for k, row in enumerate(residual) if row["in_band"] == "1"]
    saved = sorted(out.glob("reconstruction_*.txt"))
    if len(saved) != min(2, len(in_band)):
        notes.append(f"{len(saved)} reconstructions for {len(in_band)} in-band meshes")
        failed_meshes.update(in_band[:2])
    truth = true_coefficient(data.solver)
    for rank, k in enumerate(in_band[:2], start=1):
        path = out / f"reconstruction_{rank}.txt"
        if not path.exists():
            continue
        mesh, x = load_surface_text(path)
        if x.min() < a_min or x.max() > a_max:
            failed_meshes.add(k)
            notes.append(f"{path.name}: values [{x.min()!r}, {x.max()!r}] leave the box")
        a = bilinear(x, mesh, data.solver)
        u = crank_nicolson(a, float(cfg["pde"]["b"]), data.solver, payoff_row(data.solver))
        r = l2_norm(u - data.u_delta, data.solver)
        if not _close(float(residual[k]["residual"]), r, SWEEP_RTOL):
            failed_meshes.add(k)
            notes.append(f"{path.name}: residual {residual[k]['residual']} recomputes as {r!r}")
        e = l2_norm(a - truth, data.solver)
        if not _close(float(error[k]["l2_error"]), e, SWEEP_RTOL):
            failed_meshes.add(k)
            notes.append(f"{path.name}: l2_error {error[k]['l2_error']} recomputes as {e!r}")
    return len(failed_meshes), notes


def check_oracle(out: Path, cfg: dict) -> tuple:
    """Every iterate within the config's tolerance of the SVD minimizer."""
    instances = int(cfg["oracle"]["instances"])
    tol = float(cfg["oracle"]["tolerance"])
    try:
        records = json.loads((Path(out) / "oracle.json").read_text())
    except (OSError, ValueError) as exc:
        return instances, [f"no recorded iterates: {exc}"]
    failed, notes = max(0, instances - len(records)), []
    if failed:
        notes.append(f"{len(records)} of {instances} instances recorded")
    for i, rec in enumerate(records[:instances]):
        ref = tikhonov_svd(np.array(rec["matrix"]), np.array(rec["ydelta"]), rec["alpha"],
                           np.array(rec["x0"]))
        gap = relative_gap(rec["x"], ref)
        if not gap <= tol:
            failed += 1
            notes.append(f"instance {i}: iterate off the minimizer by {gap:.3e} > {tol:g}")
    return failed, notes


def check_rates(out: Path, cfg: dict, instances: int) -> tuple:
    """Residual in band, iterate at the SVD minimizer, alpha falling with delta."""
    tau, lam = float(cfg["band"]["tau"]), float(cfg["band"]["lambda"])
    expected = instances * len(floats(cfg["rates"]["deltas"]))
    try:
        searches = json.loads((Path(out) / "rates.json").read_text())["searches"]
    except (OSError, ValueError, KeyError) as exc:
        return expected, [f"no search results: {exc}"]
    failed = set(range(len(searches), expected))
    notes = [f"{len(searches)} of {expected} searches reported"] if failed else []
    last_alpha = {}
    for i, s in enumerate(searches[:expected]):
        if s["status"] != "in-band" or s["x"] is None:
            failed.add(i)
            notes.append(f"search {i}: status {s['status']}")
            continue
        a, y, x = np.array(s["matrix"]), np.array(s["ydelta"]), np.array(s["x"])
        r, delta = float(np.linalg.norm(a @ x - y)), s["delta"]
        if not tau * delta <= r <= lam * delta:
            failed.add(i)
            notes.append(f"search {i}: residual {r!r} outside [{tau * delta!r}, {lam * delta!r}]")
        gap = relative_gap(x, tikhonov_svd(a, y, s["alpha"], m=s["level_dim"]))
        if not gap <= RATES_XTOL:
            failed.add(i)
            notes.append(f"search {i}: iterate off the minimizer by {gap:.3e}")
        prev = last_alpha.get(s["instance"])
        if prev is not None and not (s["alpha"] < prev[1] and delta < prev[0]):
            failed.add(i)
            notes.append(f"search {i}: alpha {s['alpha']!r} at delta {delta!r} does not fall "
                         f"below {prev[1]!r} at delta {prev[0]!r}")
        last_alpha[s["instance"]] = (delta, s["alpha"])
    return len(failed), notes
