"""Benchmark of tikdisc: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload sweep|oracle|rates|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every program run ("round") is a fresh
process with the machine's default BLAS threading.  A benchmark run repeats
whole rounds of its workload, at least MIN_ROUNDS and then as many more as
bring its length nearest to ``--seconds``, checks each round's outputs
against reference.py, and prints one JSON object as its last line:
``correct``, ``attempted`` and ``failed`` operations, and the metrics.

``--trace 0`` reports the end-to-end metrics: the median over rounds of
``wall_s`` and ``cpu_s``, ``setup_s`` of the first round, all three scaled
to the reference speed of the machine by the probe that each round times
(probe.py), and ``peak_rss_mb`` over all rounds.  ``--trace 1`` runs
one untraced round and two traced ones (the second sweep round with the
process pool), checks that the two traced rounds give identical counts and
that ``pde.tridiag_solves`` equals the time steps of all solves, and
reports the per-layer metrics of the first traced round, the pool's
efficiency from the second, and the tracing overhead: the first traced
round's scaled wall time minus the untraced round's.

The workloads' inputs are fixed (see README.md); ``--seed`` is recorded and
selects nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import probe  # noqa: E402  (perfbench's own module)

# Meshes of configs/paper_sweep.cfg that a sweep round runs: the seven
# coarse ones and the first mesh finer than the solver grid.
SWEEP_MESHES = (0, 1, 2, 3, 4, 5, 6, 8)
# worker count of the traced pool round (scripts/paper_sweep.py's default)
POOL_WORKERS = 2
RATES_INSTANCES = 10
# rounds per run at least, so that the run's median is a middle round
MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s


@dataclass
class Round:
    """One round's times as measured (``*_raw``) and scaled by ``speed``."""

    wall_raw: float
    cpu_raw: float
    setup_raw: float
    probe_s: float  # time the round spent in its probes, in wall and CPU
    speed: float  # REFERENCE_S / mean probe time; 1 without probes
    peak_rss_mb: float
    failed: int
    notes: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return (self.wall_raw - self.probe_s) * self.speed

    @property
    def cpu_s(self) -> float:
        return (self.cpu_raw - self.probe_s) * self.speed

    @property
    def setup_s(self) -> float:
        return self.setup_raw * self.speed


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, root: Path):
        self.root = root

    def command(self, round_dir: Path, pool: bool = False) -> list:
        raise NotImplementedError

    def check(self, round_dir: Path, code: int) -> tuple:
        raise NotImplementedError


class Sweep(Workload):
    """configs/paper_sweep.cfg on SWEEP_MESHES and all alphas.

    Rounds run with the config's own worker count (1); the traced pool round
    adds ``--workers POOL_WORKERS``.
    """

    name = "sweep"

    def __init__(self, root):
        super().__init__(root)
        from reference import parse_config, select_meshes

        self.text = select_meshes((root / "configs" / "paper_sweep.cfg").read_text(),
                                  SWEEP_MESHES)
        self.cfg = parse_config(self.text)
        self.n_alphas = len(self.cfg["alphas"]["values"].split(","))
        self.ops_per_round = len(SWEEP_MESHES) * self.n_alphas

    def command(self, round_dir, pool=False):
        path = round_dir / "sweep.cfg"
        path.write_text(self.text)
        argv = ["cli", "run", str(path), "--out", str(round_dir / "out")]
        return argv + (["--workers", str(POOL_WORKERS)] if pool else [])

    def check(self, round_dir, code):
        from checks import check_sweep

        if code != 0:
            return self.ops_per_round, [f"exit code {code}"]
        seed = int(self.cfg["experiment"]["seed"])
        return check_sweep(round_dir / "out", self.cfg, seed, self.n_alphas)


class Oracle(Workload):
    """configs/linear_oracle.cfg as shipped."""

    name = "oracle"

    def __init__(self, root):
        super().__init__(root)
        from reference import read_config

        self.config = root / "configs" / "linear_oracle.cfg"
        self.cfg = read_config(self.config)
        self.ops_per_round = int(self.cfg["oracle"]["instances"])

    def command(self, round_dir, pool=False):
        return ["cli", "oracle", str(self.config), "--out", str(round_dir / "out")]

    def check(self, round_dir, code):
        from checks import check_oracle

        if code != 0:
            return self.ops_per_round, [f"exit code {code}"]
        return check_oracle(round_dir, self.cfg)


class Rates(Workload):
    """The rate-study problem of configs/rate_study.cfg on RATES_INSTANCES seeds."""

    name = "rates"

    def __init__(self, root):
        super().__init__(root)
        from reference import floats, read_config

        self.config = root / "configs" / "rate_study.cfg"
        self.cfg = read_config(self.config)
        self.ops_per_round = RATES_INSTANCES * len(floats(self.cfg["rates"]["deltas"]))

    def command(self, round_dir, pool=False):
        return ["rates", str(self.config), str(RATES_INSTANCES)]

    def check(self, round_dir, code):
        from checks import check_rates

        if code != 0:
            return self.ops_per_round, [f"exit code {code}"]
        return check_rates(round_dir, self.cfg, RATES_INSTANCES)


WORKLOADS = {w.name: w for w in (Sweep, Oracle, Rates)}


class Runner:
    def __init__(self, root: Path, run_dir: Path, deadline: float):
        self.root = root
        self.run_dir = run_dir
        self.deadline = deadline
        self.count = 0

    def round(self, wl: Workload, mode: str, pool: bool = False) -> Round:
        """One program run; ``mode`` is launch.py's MODE."""
        self.count += 1
        round_dir = self.run_dir / f"round-{self.count}"
        round_dir.mkdir(parents=True)
        argv = [sys.executable, str(HERE / "launch.py"), str(round_dir), mode]
        argv += wl.command(round_dir, pool)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        with open(round_dir / "program.log", "w") as log:
            spawned = time.time()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env,
                                    cwd=self.root, start_new_session=True)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()),
                                     os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: stop the round's processes, then re-raise
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code < 0:
            raise RuntimeError(f"{wl.name} round {self.count} killed by signal {-code}; "
                               f"see {round_dir / 'program.log'}")
        failed, notes = wl.check(round_dir, code)
        peak = round_dir / "peak_rss_kb"
        peak_kb = float(peak.read_text()) if peak.exists() else usage.ru_maxrss
        mark = round_dir / "setup_done"
        if mark.exists():
            setup = float(mark.read_text()) - spawned
        else:
            setup = wall
            notes.append("no minimization started")
        probes, probe_s = probe.read(round_dir)
        if probes == 0:
            notes.append("no speed probe ran")
        return Round(wall_raw=wall, cpu_raw=usage.ru_utime + usage.ru_stime, setup_raw=setup,
                     probe_s=probe_s,
                     speed=probe.REFERENCE_S * probes / probe_s if probes else 1.0,
                     peak_rss_mb=peak_kb / 1024.0, failed=failed, notes=notes)


def end_to_end(rounds) -> dict:
    return {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
        "setup_s": (rounds[0].setup_s, "s"),
        "peak_rss_mb": (max(r.peak_rss_mb for r in rounds), "MB"),
    }


def run_untraced(runner: Runner, wl: Workload, seconds: float) -> tuple:
    """MIN_ROUNDS rounds, then more while one more, as long as the last,
    would end the run nearer to ``seconds`` than stopping now."""
    rounds, start = [], time.monotonic()
    while (len(rounds) < MIN_ROUNDS
           or time.monotonic() - start + rounds[-1].wall_raw / 2 <= seconds):
        rounds.append(runner.round(wl, "ops"))
        r = rounds[-1]
        print(f"{wl.name} round {len(rounds)}: wall {r.wall_raw:.3f} s, cpu {r.cpu_raw:.3f} s, "
              f"setup {r.setup_raw:.3f} s, probes {r.probe_s:.3f} s, speed {r.speed:.3f}; "
              f"scaled wall {r.wall_s:.3f} s, cpu {r.cpu_s:.3f} s, setup {r.setup_s:.3f} s; "
              f"rss {r.peak_rss_mb:.1f} MB, {r.failed}/{wl.ops_per_round} failed", flush=True)
    return rounds, end_to_end(rounds), []


def run_traced(runner: Runner, wl: Workload) -> tuple:
    from layers import UNITS, layer_metrics

    # all three rounds time the probe only before and after the program, so
    # the overhead compares rounds scaled alike
    base = runner.round(wl, "ends")
    traced, results = [], []
    # the second traced round of the sweep runs the process pool; its counts
    # must match the serial round's, which also proves the pool workers traced
    for pool in (False, isinstance(wl, Sweep)):
        traced.append(runner.round(wl, "traced", pool=pool))
        results.append(layer_metrics(runner.run_dir / f"round-{runner.count}"))
    (metrics, counts), (pool_metrics, counts_again) = results
    problems = [f"count {k} differs between traced runs: {counts[k]} vs {counts_again.get(k)}"
                for k in sorted(counts) if counts[k] != counts_again.get(k)]
    if counts["pde.tridiag_solves"] != counts["pde.steps_solved"]:
        problems.append(f"pde.tridiag_solves {counts['pde.tridiag_solves']} != time steps of "
                        f"all solves {counts['pde.steps_solved']}")
    metrics["cli.pool_efficiency"] = pool_metrics["cli.pool_efficiency"]
    out = {k: (v, UNITS[k]) for k, v in metrics.items()}
    out["trace.overhead_s"] = (traced[0].wall_s - base.wall_s, "s")
    print(f"{wl.name} scaled wall: untraced {base.wall_s:.3f} s, traced {traced[0].wall_s:.3f} s, "
          f"second traced {traced[1].wall_s:.3f} s; as measured, probes included: "
          f"{base.wall_raw:.3f}, {traced[0].wall_raw:.3f}, {traced[1].wall_raw:.3f} s", flush=True)
    return [base] + traced, out, problems


def run_workload(root: Path, name: str, seconds: float, trace: bool) -> dict:
    run_dir = root / "perfbench" / "out" / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        wl = WORKLOADS[name](root)
        runner = Runner(root, run_dir, time.monotonic() + RUN_LIMIT_S)
        rounds, metrics, problems = (run_traced(runner, wl) if trace
                                     else run_untraced(runner, wl, seconds))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    attempted = wl.ops_per_round * len(rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        problems.extend(r.notes)
    for line in problems[:20]:
        print(f"{name}: {line}", flush=True)
    correct = failed == 0 and not problems
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    print(f"{name}: {attempted} operations attempted, {failed} failed, "
          f"check {'passed' if correct else 'FAILED'}", flush=True)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    needed = [root / "src" / "tikdisc" / "cli.py"] + [
        root / "configs" / f"{c}.cfg" for c in ("paper_sweep", "linear_oracle", "rate_study")]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(root, n, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
