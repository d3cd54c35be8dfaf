"""Spans and counts at the public boundaries of each ``tikdisc`` module.

``install`` replaces the module-level functions and model methods listed in
``SPANS`` with wrappers that record one span each: name, start, end, the
innermost enclosing span, and one integer argument (the time steps of a PDE
solve, or the iterations of a minimization).  ``COUNTS`` are hot leaf calls
that only get a counter.  Every name a function was imported under inside
the package is replaced, so callers in other modules see the wrapper too.

Spans live in typed arrays in memory.  Each process writes its own file
``trace-<pid>.npz`` when it ends; process-pool workers forked from a traced
process start with empty buffers and write theirs at worker exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from multiprocessing import util as mp_util

MODULES = ("grids", "ladder", "penalties", "tikhonov", "optimize", "linear", "pde",
           "synthdata", "discrepancy", "diagnostics", "expconfig", "cli")


def _nt_steps_of_grid_arg(args):
    return args[2].nt - 1            # solve_forward(a, params, grid)


def _nt_steps_of_model(args):
    return args[0].grid.nt - 1       # ParabolicModel.misfit_gradient(self, a, ...)


def _iterations(result):
    return result.iterations


# (span name, module, attribute path, argument-before-call, argument-after-call)
SPANS = (
    ("pde.solve_forward", "pde", "solve_forward", _nt_steps_of_grid_arg, None),
    ("pde.apply", "pde", "ParabolicModel.apply", None, None),
    ("pde.misfit_gradient", "pde", "ParabolicModel.misfit_gradient", _nt_steps_of_model, None),
    ("grids.transfer_matrices", "grids", "transfer_matrices", None, None),
    ("grids.interpolate", "grids", "interpolate", None, None),
    ("penalties.value", "penalties", "penalty_value", None, None),
    ("penalties.subgradient", "penalties", "penalty_subgradient", None, None),
    ("optimize.minimize_tikhonov", "optimize", "minimize_tikhonov", None, _iterations),
    ("optimize.minimize_misfit", "optimize", "minimize_misfit", None, _iterations),
    ("optimize.wolfe_line_search", "optimize", "wolfe_line_search", None, None),
    ("linear.apply", "linear", "LinearModel.apply", None, None),
    ("linear.misfit_gradient", "linear", "LinearModel.misfit_gradient", None, None),
    ("discrepancy.joint_search", "discrepancy", "joint_discrepancy_search", None, None),
    ("discrepancy.alpha_search", "discrepancy", "morozov_alpha_search", None, None),
    ("synthdata.generate_data", "synthdata", "generate_data", None, None),
    ("cli.sweep_cell", "cli", "_sweep_cell", None, None),
)

COUNTS = (
    ("pde.tridiag_solves", "pde", "solve_banded"),
    ("grids.surfaces_built", "grids", "Surface.__post_init__"),
)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, out_dir):
        self.out_dir = str(out_dir)
        self.names = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.arg = array("q")
        self.stack = []
        self.counts = {}

    def _clear(self):
        # in place: the wrappers hold references to these containers
        for buf in (self.name_of, self.parent, self.start, self.end, self.arg):
            del buf[:]
        self.stack.clear()
        for key in self.counts:
            self.counts[key] = 0

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name: str, arg: int = 0) -> int:
        i = len(self.start)
        self.name_of.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.arg.append(arg)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def span(self, name, fn, before=None, after=None):
        nid = self._id(name)
        name_of, parent, start, end, argv, stack = (
            self.name_of, self.parent, self.start, self.end, self.arg, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            argv.append(before(args) if before else 0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after:
                argv[i] = after(result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def flush(self) -> None:
        import numpy as np

        np.savez(os.path.join(self.out_dir, f"trace-{os.getpid()}.npz"),
                 name=np.frombuffer(self.name_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 arg=np.frombuffer(self.arg, dtype=np.int64),
                 meta=np.array(json.dumps({"names": self.names, "counts": self.counts})))

    def _in_forked_worker(self) -> None:
        self._clear()
        mp_util.Finalize(None, self.flush, exitpriority=100)


def _resolve(module, path: str):
    owner = module
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


def _replace_everywhere(modules, original, wrapper) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def install(out_dir) -> Tracer:
    """Wrap the package's boundaries and return the process's tracer."""
    import tikdisc  # noqa: F401  (loads every submodule)

    modules = [importlib.import_module(f"tikdisc.{m}") for m in MODULES]
    modules.append(sys.modules["tikdisc"])
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    tracer = Tracer(out_dir)
    for name, mod, path, before, after in SPANS:
        owner, attr = _resolve(by_name[mod], path)
        original = getattr(owner, attr)
        wrapper = tracer.span(name, original, before, after)
        if owner is by_name[mod]:
            _replace_everywhere(modules, original, wrapper)
        else:
            setattr(owner, attr, wrapper)
    for name, mod, path in COUNTS:
        owner, attr = _resolve(by_name[mod], path)
        setattr(owner, attr, tracer.counter(name, getattr(owner, attr)))
    _trace_pool(tracer, by_name["cli"])
    mp_util.register_after_fork(tracer, Tracer._in_forked_worker)
    return tracer


def _trace_pool(tracer: Tracer, cli) -> None:
    """One ``cli.pool`` span from pool construction to the end of its shutdown."""
    base = cli.ProcessPoolExecutor

    class TracedPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            self._bench_span = tracer.open("cli.pool", int(max_workers or os.cpu_count()))
            super().__init__(max_workers, *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._bench_span is not None:
                    tracer.close(self._bench_span)
                    self._bench_span = None

    cli.ProcessPoolExecutor = TracedPool
