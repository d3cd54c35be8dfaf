"""One program run, in its own process, as the benchmark starts it.

    python3 perfbench/launch.py ROUND_DIR MODE cli ARGS...
    python3 perfbench/launch.py ROUND_DIR MODE rates CONFIG INSTANCES

``cli`` runs ``tikdisc.cli.main(ARGS)``, exactly what the ``tikdisc``
command runs.  ``rates`` generates INSTANCES rate-study problems from the
config, instance seeds counting up from the config's seed, and passes each
noise level of each to ``joint_discrepancy_search``; instance seed s is the
problem ``tikdisc rates`` builds with seed s.

Whatever the mode, the first minimization to start in any process of the
run writes the wall-clock time to ROUND_DIR/setup_done, which ends the
run's set-up.  At exit the process writes its peak resident set (VmHWM)
to ROUND_DIR/peak_rss_kb.  MODE is one of

- ``ops``: the speed probe (probe.py) runs in the main process before each
  operation (each minimization the ``cli`` runs, each search of ``rates``);
- ``traced``: the boundaries of every module are traced (see tracer.py),
  and the probe runs only before and after the program, since inside it
  the probe would land in the spans;
- ``ends``: no tracing, the probe as in ``traced``: the untraced round that
  a traced round is compared with.

The probe's totals go to ROUND_DIR/probe.json.  For the ``oracle`` verb,
each call to ``minimize_tikhonov`` is recorded with its inputs and its
iterate in ROUND_DIR/oracle.json, so the iterates can be checked.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


class SetupMark:
    """Writes the wall-clock time to ROUND_DIR/setup_done once per run.

    Pool workers forked after the mark inherit ``done``; those forked before
    race for the file, and the first one to create it wins.
    """

    def __init__(self, round_dir: Path):
        self.path = round_dir / "setup_done"
        self.done = False

    def __call__(self) -> None:
        if self.done:
            return
        self.done = True
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.write(fd, repr(time.time()).encode())
        os.close(fd)


def _on_minimize(mark: SetupMark, probe, record=None) -> None:
    """Hook the minimization entry points that the runners call."""
    import tikdisc.cli
    import tikdisc.discrepancy

    for mod in (tikdisc.cli, tikdisc.discrepancy):
        for name in ("minimize_tikhonov", "minimize_misfit"):
            if not hasattr(mod, name):
                continue
            inner = getattr(mod, name)

            def hooked(*args, _inner=inner, **kwargs):
                mark()
                if probe is not None:
                    probe()
                sol = _inner(*args, **kwargs)
                if record is not None:
                    record(args, sol)
                return sol

            setattr(mod, name, functools.wraps(inner)(hooked))


def run_cli(round_dir: Path, argv, probe) -> int:
    import tikdisc.cli

    records = None
    if argv[0] == "oracle":
        records = []

        def record(args, sol):
            model, ydelta, cfg = args[:3]
            records.append({"matrix": model.matrix.tolist(), "ydelta": list(map(float, ydelta)),
                            "alpha": cfg.alpha, "x0": cfg.penalty.x0.tolist(),
                            "x": list(map(float, sol.x))})

    _on_minimize(SetupMark(round_dir), probe, record if records is not None else None)
    code = tikdisc.cli.main(argv)
    if records is not None:
        (round_dir / "oracle.json").write_text(json.dumps(records))
    return code


def run_rates(round_dir: Path, config: str, instances: int, probe) -> int:
    import numpy as np

    from tikdisc.discrepancy import DiscrepancyBand, joint_discrepancy_search
    from tikdisc.expconfig import load_config
    from tikdisc.ladder import Ladder, gamma_m
    from tikdisc.linear import LinearModel
    from tikdisc.penalties import Penalty

    cfg = load_config(config)
    r, b = cfg.values["rates"], cfg.values["band"]
    band = DiscrepancyBand(tau=b["tau"], lam=b["lambda"], tau1=b["tau1"], tau2=b["tau2"])
    n = r["n"]
    levels = tuple(int(level) for level in r["levels"])
    ladder = Ladder.coordinate(levels)
    penalty = Penalty("quadratic", np.zeros(n))
    problems = []
    for k in range(instances):
        seed = cfg.get("experiment", "seed") + k
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        matrix = q @ np.diag(np.linspace(r["spectrum_min"], r["spectrum_max"], n)) @ q.T
        model = LinearModel(matrix, rng.standard_normal(n), name="linear-spd")
        gammas = [gamma_m(ladder, i, model, model.x_true) for i in range(len(levels))]
        for delta in r["deltas"]:
            noise = rng.standard_normal(n)
            problems.append((seed, model, gammas, delta,
                             model.y + delta * noise / np.linalg.norm(noise)))

    SetupMark(round_dir)()
    results = []
    for seed, model, gammas, delta, ydelta in problems:
        if probe is not None:
            probe()
        res = joint_discrepancy_search(model, ydelta, ladder, band, delta, tol=r["tol"],
                                       penalty=penalty, gammas=gammas)
        ok = res.solution is not None
        results.append({
            "instance": seed, "delta": delta, "status": res.status,
            "matrix": model.matrix.tolist(), "ydelta": ydelta.tolist(),
            "level_dim": levels[res.level] if ok else None,
            "alpha": res.alpha if ok else None,
            "x": res.solution.x.tolist() if ok else None,
            "minimizations": res.minimizations,
        })
    (round_dir / "rates.json").write_text(json.dumps(
        {"tau": band.tau, "lambda": band.lam, "searches": results}))
    return 0


def main(argv) -> int:
    round_dir, probing, mode, rest = Path(argv[0]), argv[1], argv[2], argv[3:]
    if probing not in ("ops", "traced", "ends"):
        raise SystemExit(f"unknown MODE {probing!r}")
    # the script's own directory is on sys.path
    from probe import END_REPS, Probe

    probe, tracer = Probe(round_dir), None
    if probing == "traced":
        import tracer as tracing

        tracer = tracing.install(round_dir)
    if probing != "ops":
        probe(END_REPS)
    try:
        per_op = probe if probing == "ops" else None
        if mode == "cli":
            return run_cli(round_dir, rest, per_op)
        return run_rates(round_dir, rest[0], int(rest[1]), per_op)
    finally:
        if probing != "ops":
            probe(END_REPS)
        if tracer is not None:
            tracer.flush()
        probe.write()
        _write_peak_rss(round_dir)


def _write_peak_rss(round_dir: Path) -> None:
    # VmHWM belongs to this process's own address space; the rusage that
    # wait4 returns also counts the spawning process's pages from before exec
    with open("/proc/self/status") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    (round_dir / "peak_rss_kb").write_text(peak)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
