"""Tests of the benchmark's own reference solver and correctness checks.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Each check is fed real program output, which must pass, and then a
deliberately wrong copy of it, which must fail.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy.special import ndtr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_oracle, check_rates, check_sweep  # noqa: E402
from reference import (Mesh, crank_nicolson, read_config, select_meshes,  # noqa: E402
                       sweep_data, tikhonov_svd)


def _program(args, cwd) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, *args], cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL)


def _exact_call(t, y, a, b):
    """u_t = a u_yy + (b - a) u_y from max(0, 1 - e^y): a call in log-strike, rate -b."""
    s = np.sqrt(2.0 * a * t)
    d1 = (-y + (a - b) * t) / s
    return ndtr(d1) - np.exp(y + b * t) * ndtr(d1 - s)


def test_crank_nicolson_second_order():
    a, b, t0 = 0.08, 0.03, 0.25
    errors = []
    for k in (1, 2, 4):
        mesh = Mesh(15 * k + 1, 50 * k + 1, 0.75 / (15 * k), 10.0 / (50 * k), t0, -5.0)
        exact = _exact_call(mesh.t[:, None], mesh.y[None, :], a, b)
        u = crank_nicolson(np.full((mesh.nt, mesh.ny), a), b, mesh, exact[0],
                           exact[:, 0], exact[:, -1])
        errors.append(np.abs(u[-1] - exact[-1]).max())
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    print(f"max errors {errors}, observed orders {orders}")
    assert (orders > 1.9).all(), (errors, orders)


class _SweepOutput:
    """A real three-mesh sweep run once, copied for each corruption."""

    cfg_path = None

    @classmethod
    def make(cls, tmp: Path) -> tuple:
        if cls.cfg_path is None:
            cls.base = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
            atexit.register(shutil.rmtree, cls.base, True)
            text = select_meshes((ROOT / "configs" / "paper_sweep.cfg").read_text(), (0, 1, 2))
            cls.cfg_path = cls.base / "sweep.cfg"
            cls.cfg_path.write_text(text)
            _program(["-m", "tikdisc.cli", "run", str(cls.cfg_path), "--out",
                      str(cls.base / "out"), "--workers", "1"], ROOT)
        out = tmp / "out"
        shutil.copytree(cls.base / "out", out)
        cfg = read_config(cls.cfg_path)
        return out, cfg, len(cfg["alphas"]["values"].split(","))


def _edit_csv(path: Path, row: int, column: str, change) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = change(cells[i])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_sweep_check(tmp_path):
    tmp = Path(tmp_path)

    def run(name, corrupt=None):
        case = tmp / name
        case.mkdir()
        out, cfg, n_alphas = _SweepOutput.make(case)
        if corrupt:
            corrupt(out, sweep_data(cfg, 0).delta)
        return check_sweep(out, cfg, 0, n_alphas)

    failed, notes = run("clean")
    assert failed == 0, notes

    off = lambda v: repr(float(v) * (1.0 + 1e-6))  # noqa: E731
    failed, notes = run("residual", lambda out, d: _edit_csv(out / "residual.csv", 0,
                                                              "residual", off))
    assert failed == 1 and "recomputes" in notes[0], notes
    failed, notes = run("l2", lambda out, d: _edit_csv(out / "error.csv", 1, "l2_error", off))
    assert failed == 1 and "l2_error" in notes[0], notes

    # mesh 2 has no saved reconstruction, so only the band check can see this
    failed, notes = run("band", lambda out, d: _edit_csv(
        out / "residual.csv", 2, "residual", lambda v: repr(1.2 * d)))
    assert failed == 1 and "outside" in notes[0], notes

    def leave_box(out, d):
        path = out / "reconstruction_1.txt"
        lines = path.read_text().splitlines()
        lines[1] = "2.0 " + lines[1].split(" ", 1)[1]
        path.write_text("\n".join(lines) + "\n")

    failed, notes = run("box", leave_box)
    assert failed == 1 and any("box" in n for n in notes), notes

    def shift_delta(out, d):
        path = out / "summary.txt"
        path.write_text(re.sub(r" delta=\S+ ", f" delta={d * (1 + 1e-6)!r} ", path.read_text()))

    failed, notes = run("delta", shift_delta)
    assert failed == 3 * 12 and "delta" in notes[0], notes


def test_oracle_check(tmp_path):
    tmp = Path(tmp_path)
    rng = np.random.default_rng(5)
    records = []
    for alpha in (1e-3, 0.1, 10.0):
        a, y = rng.standard_normal((5, 5)), rng.standard_normal(5)
        x = tikhonov_svd(a, y, alpha)
        # the filter-factor minimizer solves the normal equations
        assert np.allclose((a.T @ a + alpha * np.eye(5)) @ x, a.T @ y, rtol=1e-12, atol=1e-12)
        records.append({"matrix": a.tolist(), "ydelta": y.tolist(), "alpha": alpha,
                        "x0": [0.0] * 5, "x": x.tolist()})
    cfg = {"oracle": {"instances": "3", "tolerance": "1e-6"}}
    (tmp / "oracle.json").write_text(json.dumps(records))
    assert check_oracle(tmp, cfg) == (0, [])

    records[1]["x"] = (np.array(records[1]["x"]) * (1.0 + 1e-4)).tolist()
    (tmp / "oracle.json").write_text(json.dumps(records))
    failed, notes = check_oracle(tmp, cfg)
    assert failed == 1 and "instance 1" in notes[0], notes


def test_rates_check(tmp_path):
    tmp = Path(tmp_path)
    config = ROOT / "configs" / "rate_study.cfg"
    cfg = read_config(config)
    _program([str(HERE / "launch.py"), str(tmp), "ops", "rates", str(config), "1"], ROOT)
    assert check_rates(tmp, cfg, 1) == (0, [])
    clean = json.loads((tmp / "rates.json").read_text())

    def corrupted(change) -> tuple:
        doc = json.loads(json.dumps(clean))
        change(doc["searches"])
        (tmp / "rates.json").write_text(json.dumps(doc))
        return check_rates(tmp, cfg, 1)

    def nudge(s):
        s[2]["x"] = (np.array(s[2]["x"]) * (1.0 + 1e-4)).tolist()

    failed, notes = corrupted(nudge)
    assert failed == 1 and "off the minimizer" in notes[-1], notes

    def raise_alpha(s):
        s[3]["alpha"] = s[2]["alpha"]

    failed, notes = corrupted(raise_alpha)
    assert failed == 1 and any("does not fall" in n for n in notes), notes

    def out_of_band(s):
        s[0]["ydelta"] = (np.array(s[0]["ydelta"]) * 1.5).tolist()

    failed, notes = corrupted(out_of_band)
    assert failed == 1 and "outside" in notes[0], notes


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            with tempfile.TemporaryDirectory() as tmp:
                test(*[Path(tmp)][:test.__code__.co_argcount])
            print(f"{name}: ok")
