"""Bitwise pins of a small pde sweep run through the command line.

``configs/paper_sweep.cfg`` cut to its coefficient meshes 0, 1, 7 and 8,
all 12 alphas, seed 0.  Meshes 0 and 1 are coarser than the solver grid and
mesh 7 is the solver grid: on each of them all cells stop after one
iteration with one residual.  Mesh 8 is finer than the solver grid, and
there the cells depend on alpha.  Every cell is pinned by the ``float.hex``
of its residual, its iteration count and its stop reason, read back from
``summary.txt`` (which prints each residual as its shortest round-trip
decimal).  Each mesh's selected ``(alpha, in_band)`` is pinned from
``residual.csv``: on meshes 0, 1 and 7 all 12 residuals tie, so the first
alpha (0.25) must win.  A change
that keeps the sweep's floating-point operations and their order leaves
every pin as it is; a change that is meant to alter the sweep must update
the pins and say why.
"""

import re
from pathlib import Path

from tikdisc.cli import main

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "paper_sweep.cfg"
MESHES = (0, 1, 7, 8)
CELL = re.compile(r"^cell mesh=(\d+) alpha=\S+: residual=(\S+) iterations=(\d+) stop=(\S+)$")


def _select_meshes(line: str) -> str:
    key, values = line.split("=", 1)
    values = [v.strip() for v in values.split(",")]
    return f"{key}= {', '.join(values[i] for i in MESHES)}"


def run_pinned_sweep(tmp_path):
    lines = []
    for line in CONFIG.read_text().splitlines():
        if line.startswith(("dtau_list", "dy_list")):
            line = _select_meshes(line)
        lines.append(line)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    code = main(["run", str(cfg), "--out", str(tmp_path / "out"), "--seed", "0"])
    selected = [tuple(row.split(",")[3::2])
                for row in (tmp_path / "out" / "residual.csv").read_text().splitlines()[1:]]
    cells = []
    for line in (tmp_path / "out" / "summary.txt").read_text().splitlines():
        m = CELL.match(line)
        if m:
            cells.append((int(m[1]), float(m[2]).hex(), int(m[3]), m[4]))
    return code, cells, selected


SWEEP_PINS = (  # (mesh position in the cut config, residual, iterations, stop)
    (0, '0x1.12e4b44b6fb27p-5', 1, 'band-hit'),
    (0, '0x1.12e4b44b6fb27p-5', 1, 'band-hit'),
    (0, '0x1.12e4b44b6fb27p-5', 1, 'band-hit'),
    (0, '0x1.12e4b44b6fb27p-5', 1, 'band-hit'),
    (0, '0x1.12e4b44b6fb27p-5', 1, 'band-hit'),
    (0, '0x1.12e4b44b6fb27p-5', 1, 'band-hit'),
    (0, '0x1.12e4b44b6fb27p-5', 1, 'band-hit'),
    (0, '0x1.12e4b44b6fb27p-5', 1, 'band-hit'),
    (0, '0x1.12e4b44b6fb27p-5', 1, 'band-hit'),
    (0, '0x1.12e4b44b6fb27p-5', 1, 'band-hit'),
    (0, '0x1.12e4b44b6fb27p-5', 1, 'band-hit'),
    (0, '0x1.12e4b44b6fb27p-5', 1, 'band-hit'),
    (1, '0x1.101f36dad0404p-5', 1, 'band-hit'),
    (1, '0x1.101f36dad0404p-5', 1, 'band-hit'),
    (1, '0x1.101f36dad0404p-5', 1, 'band-hit'),
    (1, '0x1.101f36dad0404p-5', 1, 'band-hit'),
    (1, '0x1.101f36dad0404p-5', 1, 'band-hit'),
    (1, '0x1.101f36dad0404p-5', 1, 'band-hit'),
    (1, '0x1.101f36dad0404p-5', 1, 'band-hit'),
    (1, '0x1.101f36dad0404p-5', 1, 'band-hit'),
    (1, '0x1.101f36dad0404p-5', 1, 'band-hit'),
    (1, '0x1.101f36dad0404p-5', 1, 'band-hit'),
    (1, '0x1.101f36dad0404p-5', 1, 'band-hit'),
    (1, '0x1.101f36dad0404p-5', 1, 'band-hit'),
    (2, '0x1.19b2b650602dfp-5', 1, 'band-hit'),
    (2, '0x1.19b2b650602dfp-5', 1, 'band-hit'),
    (2, '0x1.19b2b650602dfp-5', 1, 'band-hit'),
    (2, '0x1.19b2b650602dfp-5', 1, 'band-hit'),
    (2, '0x1.19b2b650602dfp-5', 1, 'band-hit'),
    (2, '0x1.19b2b650602dfp-5', 1, 'band-hit'),
    (2, '0x1.19b2b650602dfp-5', 1, 'band-hit'),
    (2, '0x1.19b2b650602dfp-5', 1, 'band-hit'),
    (2, '0x1.19b2b650602dfp-5', 1, 'band-hit'),
    (2, '0x1.19b2b650602dfp-5', 1, 'band-hit'),
    (2, '0x1.19b2b650602dfp-5', 1, 'band-hit'),
    (2, '0x1.19b2b650602dfp-5', 1, 'band-hit'),
    (3, '0x1.21ea1cab43efap-5', 2, 'band-hit'),
    (3, '0x1.0c4419fc1aa28p-5', 1, 'band-hit'),
    (3, '0x1.1b83c27782d57p-5', 1, 'band-hit'),
    (3, '0x1.14c2c316fff5fp-5', 1, 'band-hit'),
    (3, '0x1.17355e54d6134p-5', 1, 'band-hit'),
    (3, '0x1.0b07b6367f07dp-5', 1, 'band-hit'),
    (3, '0x1.0b0bd678e21b5p-5', 2, 'band-hit'),
    (3, '0x1.0abcb751ddd7ep-5', 2, 'band-hit'),
    (3, '0x1.0a7d62a939ac8p-5', 2, 'band-hit'),
    (3, '0x1.0a7577936ce6fp-5', 2, 'band-hit'),
    (3, '0x1.0b0af33066279p-5', 2, 'band-hit'),
    (3, '0x1.0a6d8c3f323f7p-5', 2, 'band-hit'),
)


SELECTED_PINS = (  # (alpha, in_band) per mesh, as residual.csv prints them
    ("0.25", "1"),
    ("0.25", "1"),
    ("0.25", "1"),
    ("5e-05", "1"),
)


def test_three_mesh_sweep_pinned(tmp_path):
    code, cells, selected = run_pinned_sweep(tmp_path)
    assert code == 0
    assert len(cells) == 48
    assert tuple(cells) == SWEEP_PINS
    assert tuple(selected) == SELECTED_PINS
