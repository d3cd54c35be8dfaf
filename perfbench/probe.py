"""A fixed piece of reference work that measures how fast the machine runs now.

The VM the benchmark was built on runs the same process up to 1.5x slower
for seconds to minutes at a time, in its CPU time as well as its wall time
(a share of a host core, not steal the kernel accounts for).  No statistic
of a few rounds removes that: a 30-second run can be slow from start to
end.  So each untraced round also times this probe, in its own main thread,
just before each operation, and run.py scales the round's times by
``REFERENCE_S / (mean probe time)``: seconds at the speed at which the
probe takes ``REFERENCE_S``.  The probe is the kind of work the program
does: a pure-Python loop, numpy calls on 8-vectors (the oracle's and rate
study's descent) and 49-unknown tridiagonal solves (the sweep's
Crank-Nicolson steps).  Over rounds of the same program input, the spread
of scaled round times was a third to a sixth of the raw spread; a probe that
adds a 200x200 matrix product (multithreaded BLAS) tracked worse.

The probe never touches ``tikdisc``, so a change to the program moves the
scaled times by exactly as much as the raw ones.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

# mean probe time on the reference machine (see README.md)
REFERENCE_S = 0.0025
# one more probe for every INTERVAL_S of program time since the last one
INTERVAL_S = 0.05
# probes before and after a round of a traced run, which runs none in between
END_REPS = 100

_MATRIX = np.random.default_rng(0).standard_normal((8, 8))
_VECTOR = np.ones(8)
_BANDS = np.vstack([np.full(49, -1.0), np.full(49, 4.0), np.full(49, -1.0)])
_RHS = np.ones(49)


def _work() -> float:
    s = 0
    for i in range(10_000):
        s += i * i % 7
    x = _VECTOR
    for _ in range(150):
        x = _MATRIX @ x
        x = x / np.linalg.norm(x)
    for _ in range(40):
        u = solve_banded((1, 1), _BANDS, _RHS, check_finite=False)
    return s + float(x[0]) + float(u[0])


class Probe:
    """Times ``_work`` before each operation and writes the totals to ROUND_DIR/probe.json.

    A call runs ``_work`` once for every INTERVAL_S that passed since the
    previous call ended, and at least once, so the probes sample the round's time
    evenly: a long operation (a 101x201 sweep cell, a slow oracle instance)
    is stood for by as many probes as the many short ones that fill the same
    time.
    """

    def __init__(self, round_dir: Path):
        self.path = round_dir / "probe.json"
        self.count = 0
        self.seconds = 0.0
        self.last = None

    def __call__(self, reps: int = 0) -> None:
        """Run the probe ``reps`` times, or as the interval since the last call asks."""
        t0 = time.perf_counter()
        if not reps:
            reps = 1 if self.last is None else max(1, int((t0 - self.last) / INTERVAL_S))
        for _ in range(reps):
            _work()
        self.last = time.perf_counter()
        self.seconds += self.last - t0
        self.count += reps

    def write(self) -> None:
        self.path.write_text(json.dumps({"count": self.count, "seconds": self.seconds}))


def read(round_dir: Path) -> tuple:
    """(count, seconds) of a round's probes; (0, 0.0) if it ran none."""
    path = round_dir / "probe.json"
    if not path.exists():
        return 0, 0.0
    data = json.loads(path.read_text())
    return int(data["count"]), float(data["seconds"])
