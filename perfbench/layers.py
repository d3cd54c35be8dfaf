"""Per-layer metrics from the span files of one traced program run.

A span's self time is its duration minus the durations of its direct
children; spans of one process never overlap except by nesting, so the
children of a span cover disjoint parts of it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# per-layer metric -> unit; every traced run reports all of them (0 where a
# layer is idle on the workload)
UNITS = {
    "pde.forward_solves": "count", "pde.gradient_solves": "count",
    "pde.tridiag_solves": "count", "pde.forward_s": "s", "pde.gradient_s": "s",
    "pde.forward_ms": "ms", "pde.gradient_ms": "ms",
    "grids.transfer_builds": "count", "grids.interpolate_calls": "count",
    "grids.interpolate_s": "s", "grids.surfaces_built": "count",
    "penalties.value_calls": "count", "penalties.value_s": "s",
    "penalties.subgradient_calls": "count", "penalties.subgradient_s": "s",
    "optimize.minimizations": "count", "optimize.iterations": "count",
    "optimize.line_searches": "count", "optimize.evals": "count",
    "optimize.evals_per_iteration": "ratio", "optimize.self_s": "s",
    "linear.apply_calls": "count", "linear.gradient_calls": "count", "linear.s": "s",
    "discrepancy.searches": "count", "discrepancy.minimizations_per_search": "ratio",
    "discrepancy.self_s": "s",
    "synthdata.generate_s": "s",
    "cli.cells": "count", "cli.cell_s_median": "s", "cli.cell_s_max": "s",
    "cli.pool_efficiency": "ratio",
}

MINIMIZE = ("optimize.minimize_tikhonov", "optimize.minimize_misfit")
EVALS = ("pde.apply", "linear.apply")
SEARCHES = ("discrepancy.joint_search", "discrepancy.alpha_search")


class Spans:
    """All spans of one run, concatenated over its processes."""

    def __init__(self, files):
        names, parts, counts = [], [], {}
        for path in sorted(files):
            with np.load(path) as z:
                meta = json.loads(str(z["meta"]))
                ids = np.array([_index(names, n) for n in meta["names"]], dtype=np.int64)
                offset = sum(len(p["name"]) for p in parts)
                parent = z["parent"].astype(np.int64)
                parts.append({
                    "name": ids[z["name"]],
                    "parent": np.where(parent >= 0, parent + offset, -1),
                    "start": z["start"], "end": z["end"], "arg": z["arg"],
                })
                for key, value in meta["counts"].items():
                    counts[key] = counts.get(key, 0) + value
        cat = {k: np.concatenate([p[k] for p in parts]) if parts else np.zeros(0)
               for k in ("name", "parent", "start", "end", "arg")}
        self.names = names
        self.counts = counts
        self.name = cat["name"].astype(np.int64)
        self.parent = cat["parent"].astype(np.int64)
        self.arg = cat["arg"].astype(np.int64)
        self.duration = cat["end"] - cat["start"]
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                              minlength=len(self.duration))
        self.self_time = self.duration - covered

    def mask(self, *names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def count(self, *names) -> int:
        return int(self.mask(*names).sum())

    def within(self, inner, outer) -> np.ndarray:
        """Mask of ``inner`` spans that have an ``outer`` span among their ancestors."""
        found = np.zeros(len(self.name), dtype=bool)
        outer_mask = self.mask(*outer)
        up = self.parent.copy()
        while (up >= 0).any():
            live = up >= 0
            found[live] |= outer_mask[up[live]]
            up[live] = self.parent[up[live]]
        return found & self.mask(*inner)


def _index(names: list, name: str) -> int:
    if name not in names:
        names.append(name)
    return names.index(name)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(run_dir) -> tuple:
    """(metrics, counts) of one traced run; counts must repeat exactly."""
    s = Spans(Path(run_dir).glob("trace-*.npz"))
    fwd, grad = s.mask("pde.solve_forward"), s.mask("pde.misfit_gradient")
    interp = s.mask("grids.interpolate")
    value, sub = s.mask("penalties.value"), s.mask("penalties.subgradient")
    minimize = s.mask(*MINIMIZE)
    lin = s.mask("linear.apply", "linear.misfit_gradient")
    search = s.mask("discrepancy.joint_search")
    cells, pool = s.mask("cli.sweep_cell"), s.mask("cli.pool")
    iterations = int(s.arg[minimize].sum())
    evals = int(s.within(EVALS, MINIMIZE).sum())
    searched = int(s.within(MINIMIZE, ("discrepancy.joint_search",)).sum())
    pool_capacity = float((s.arg[pool] * s.duration[pool]).sum())
    m = {
        "pde.forward_solves": int(fwd.sum()),
        "pde.gradient_solves": int(grad.sum()),
        "pde.tridiag_solves": s.counts.get("pde.tridiag_solves", 0),
        "pde.forward_s": float(s.self_time[fwd].sum()),
        "pde.gradient_s": float(s.self_time[grad].sum()),
        "pde.forward_ms": 1e3 * _median(s.self_time[fwd]),
        "pde.gradient_ms": 1e3 * _median(s.self_time[grad]),
        "grids.transfer_builds": s.count("grids.transfer_matrices"),
        "grids.interpolate_calls": int(interp.sum()),
        "grids.interpolate_s": float(s.duration[interp].sum()),
        "grids.surfaces_built": s.counts.get("grids.surfaces_built", 0),
        "penalties.value_calls": int(value.sum()),
        "penalties.value_s": float(s.self_time[value].sum()),
        "penalties.subgradient_calls": int(sub.sum()),
        "penalties.subgradient_s": float(s.self_time[sub].sum()),
        "optimize.minimizations": int(minimize.sum()),
        "optimize.iterations": iterations,
        "optimize.line_searches": s.count("optimize.wolfe_line_search"),
        "optimize.evals": evals,
        "optimize.evals_per_iteration": evals / iterations if iterations else 0.0,
        "optimize.self_s": float(s.self_time[s.mask(*MINIMIZE, "optimize.wolfe_line_search")].sum()),
        "linear.apply_calls": s.count("linear.apply"),
        "linear.gradient_calls": s.count("linear.misfit_gradient"),
        "linear.s": float(s.self_time[lin].sum()),
        "discrepancy.searches": int(search.sum()),
        "discrepancy.minimizations_per_search": searched / int(search.sum()) if search.any() else 0.0,
        "discrepancy.self_s": float(s.self_time[s.mask(*SEARCHES)].sum()),
        "synthdata.generate_s": float(s.duration[s.mask("synthdata.generate_data")].sum()),
        "cli.cells": int(cells.sum()),
        "cli.cell_s_median": _median(s.duration[cells]),
        "cli.cell_s_max": float(s.duration[cells].max()) if cells.any() else 0.0,
        "cli.pool_efficiency": float(s.duration[cells].sum()) / pool_capacity if pool_capacity else 0.0,
    }
    counts = {k: v for k, v in m.items() if UNITS[k] == "count"}
    counts.update({f"spans.{n}": s.count(n) for n in s.names})
    # the same total reached by another path: one tridiagonal solve per time
    # step of every forward solve and of every adjoint sweep
    counts["pde.steps_solved"] = int(s.arg[fwd | grad].sum())
    return m, counts
