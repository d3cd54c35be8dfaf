import re
from pathlib import Path

import pytest

from tikdisc.cli import ERROR_HEADER, RESIDUAL_HEADER, main
from tikdisc.expconfig import ConfigError, parse_config_text, resolve_alphas
from tikdisc.grids import load_surface

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINI_SWEEP = """
[experiment]
kind = pde-sweep
seed = 3
out = {out}

[coefficient_meshes]
dtau_list = 0.1, 0.02
dy_list = 0.25, 0.1

[alphas]
values = 0.01, delta, 0
"""

SEQUENTIAL = """
[experiment]
kind = sequential-demo
seed = 0
out = {out}
"""

RATES = """
[experiment]
kind = rate-study
seed = 1
out = {out}

[rates]
deltas = 1e-1, 1e-2, 1e-3
"""

ORACLE = """
[experiment]
kind = linear-oracle
seed = 2
out = {out}

[oracle]
instances = 8
"""


def _write(tmp_path, text, name="exp.cfg", out="run"):
    cfg_path = tmp_path / name
    cfg_path.write_text(text.format(out=tmp_path / out))
    return cfg_path


class TestConfigParsing:
    def test_defaults_resolved(self):
        cfg = parse_config_text("[experiment]\nkind = pde-sweep\n")
        assert cfg.get("band", "tau") == 1.025
        assert cfg.get("band", "tau2") == pytest.approx(1.075)
        assert len(cfg.get("coefficient_meshes", "dtau_list")) == 12
        assert cfg.get("alphas", "values")[2] == "sqrt_delta"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="'typo_key'"):
            parse_config_text("[experiment]\nkind = pde-sweep\ntypo_key = 1\n")

    def test_unknown_section_named(self):
        with pytest.raises(ConfigError, match=r"\[mystery\]"):
            parse_config_text("[experiment]\nkind = pde-sweep\n[mystery]\nx = 1\n")

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config_text("[experiment]\nseed = 1\n")

    def test_bad_band(self):
        with pytest.raises(ConfigError, match="tau"):
            parse_config_text("[experiment]\nkind = pde-sweep\n[band]\ntau = 1.5\nlambda = 1.2\n")

    def test_zipped_length_mismatch(self):
        text = ("[experiment]\nkind = pde-sweep\n"
                "[coefficient_meshes]\ndtau_list = 0.1\ndy_list = 0.25, 0.1\n")
        with pytest.raises(ConfigError, match="zipped"):
            parse_config_text(text)

    def test_effective_text_roundtrip(self):
        cfg = parse_config_text("[experiment]\nkind = rate-study\nseed = 9\n")
        again = parse_config_text(cfg.effective_text())
        assert again.values == cfg.values

    def test_resolve_alphas(self):
        vals = resolve_alphas(("sqrt_delta", "delta", "delta_sq", 0.25, 0.0), 0.04)
        assert vals == (0.2, 0.04, 0.0016, 0.25, 0.0)


class TestCliVerbs:
    def test_validate_ok(self, tmp_path, capsys):
        cfg = _write(tmp_path, SEQUENTIAL)
        assert main(["validate", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "kind = sequential-demo" in out

    def test_validate_bad_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nkind = pde-sweep\nbogus = 1\n")
        assert main(["validate", str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["validate", "/nonexistent/nope.cfg"]) == 2

    @pytest.mark.parametrize("kind, section, lines, key", [
        ("pde-sweep", "noise", "std = -0.01", "std"),
        ("pde-sweep", "pde", "a0 = 2.0\na_max = 1.0", "a0"),
        ("linear-oracle", "oracle", "n_max = 1", "n_max"),
        ("linear-oracle", "oracle", "alpha_min = 0", "alpha_min"),
        ("linear-oracle", "oracle", "alpha_min = 10\nalpha_max = 1", "alpha_min"),
        ("pde-sweep", "optimize", "c1 = 1e-8", "c1"),
        ("pde-sweep", "optimize", "max_iters = 0", "max_iters"),
        ("pde-sweep", "optimize", "rel_residual_tol = 0", "rel_residual_tol"),
        ("pde-sweep", "noise", "redraw_per_mesh = false", "redraw_per_mesh"),
        ("sequential-demo", "sequential", "q = 1.5", "q"),
        ("sequential-demo", "sequential", "tau_tilde = 1.0", "tau_tilde"),
        ("sequential-demo", "sequential", "alpha0 = 0", "alpha0"),
        ("rate-study", "rates", "levels = 2, 2, 6", "levels"),
        ("rate-study", "rates", "levels = 0, 6", "levels"),
        ("rate-study", "rates", "levels = 3, 5", "levels"),
        ("rate-study", "rates", "deltas = 0.1, 0.01, 0", "deltas"),
    ])
    def test_rejected_value_exit_2_names_key(self, tmp_path, capsys, kind, section, lines, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[experiment]\nkind = {kind}\n[{section}]\n{lines}\n")
        assert main(["validate", str(path)]) == 2
        assert re.search(rf"\b{key}\b", capsys.readouterr().err)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_config_validates(self, path):
        assert main(["validate", str(path)]) == 0

    def test_removed_key_in_shipped_config_exit_2(self, tmp_path, capsys):
        text = (CONFIGS / "paper_sweep.cfg").read_text()
        path = tmp_path / "paper_sweep.cfg"
        path.write_text(text.replace("[coefficient_meshes]\n",
                                     "[coefficient_meshes]\npairing = zipped\n"))
        assert main(["validate", str(path)]) == 2
        assert "'pairing'" in capsys.readouterr().err

    def test_sequential_demo_outputs(self, tmp_path):
        cfg = _write(tmp_path, SEQUENTIAL)
        assert main(["run", str(cfg)]) == 0
        rows = (tmp_path / "run" / "sequential.csv").read_text().splitlines()
        assert rows[0] == "k,alpha,residual"
        assert rows[1].startswith("0,1.0,0.5")
        assert rows[-1].split(",")[0] == "3"

    def test_rates_outputs_and_verb_guard(self, tmp_path):
        cfg = _write(tmp_path, RATES)
        assert main(["rates", str(cfg)]) == 0
        rates = (tmp_path / "run" / "rates.csv").read_text().splitlines()
        assert rates[0] == "delta,alpha,level,residual,bregman,l2_error,gamma_m,phi_m,eta_m"
        assert len(rates) == 4
        slopes = dict(line.split(",") for line in
                      (tmp_path / "run" / "slopes.csv").read_text().splitlines()[1:])
        assert float(slopes["bregman"]) >= 0.9
        seq = _write(tmp_path, SEQUENTIAL, name="seq.cfg", out="other")
        assert main(["rates", str(seq)]) == 2

    def test_oracle_small(self, tmp_path, capsys):
        cfg = _write(tmp_path, ORACLE)
        assert main(["oracle", str(cfg)]) == 0
        lines = (tmp_path / "run" / "oracle.csv").read_text().splitlines()
        assert lines[0] == "instance,n,cond,alpha,iterations,rel_error"
        assert len(lines) == 9
        assert all(float(line.split(",")[-1]) <= 1e-6 for line in lines[1:])

    def test_shipped_oracle_iteration_count(self, tmp_path):
        # a deterministic guard on the descent's cost: the shipped oracle's
        # 100 instances take 1,363 iterations in total with the L-BFGS
        # direction (206,223 with steepest descent)
        out = tmp_path / "oracle"
        assert main(["oracle", str(CONFIGS / "linear_oracle.cfg"), "--out", str(out)]) == 0
        rows = (out / "oracle.csv").read_text().splitlines()[1:]
        assert len(rows) == 100
        assert sum(int(row.split(",")[4]) for row in rows) <= 2000
        summary = (out / "summary.txt").read_text()
        assert float(re.search(r"^max_rel_error=(\S+)$", summary, re.M)[1]) <= 1e-6

    def test_negative_seed_in_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[experiment]\nkind = linear-oracle\nseed = -2\n")
        assert main(["oracle", str(path)]) == 2
        assert "[experiment] seed" in capsys.readouterr().err

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[experiment]\nkind = linear-oracle\nout = {out}\n")
        assert main(["oracle", str(cfg), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_condition_bound_exit_2_names_key_and_values(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[experiment]\nkind = linear-oracle\nout = {out}\n"
                               "[oracle]\ncond_max = 5\n")
        assert main(["oracle", str(cfg)]) == 2
        err = capsys.readouterr().err
        m = re.search(r"instance (\d+) has condition number (\S+), above "
                      r"\[oracle\] cond_max = 5$", err.strip())
        assert m and float(m[2]) > 5.0

    def test_out_and_seed_overrides(self, tmp_path):
        cfg = _write(tmp_path, SEQUENTIAL)
        target = tmp_path / "elsewhere"
        assert main(["run", str(cfg), "--out", str(target), "--seed", "5"]) == 0
        assert (target / "sequential.csv").exists()
        assert "seed = 5" in (target / "summary.txt").read_text()


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cfg = _write(tmp, MINI_SWEEP)
    code = main(["run", str(cfg)])
    return code, tmp / "run"


class TestPdeSweepCli:

    def test_exit_zero_and_headers(self, sweep):
        code, out = sweep
        assert code == 0
        res = (out / "residual.csv").read_text().splitlines()
        err = (out / "error.csv").read_text().splitlines()
        assert res[0] == RESIDUAL_HEADER
        assert err[0] == ERROR_HEADER
        assert len(res) == len(err) == 3  # one row per mesh

    def test_in_band_rows_revalidate(self, sweep):
        _, out = sweep
        summary = (out / "summary.txt").read_text()
        # delta appears in the per-mesh summary lines
        deltas = [float(part.split("=")[1]) for line in summary.splitlines()
                  for part in line.split() if part.startswith("delta=")]
        rows = (out / "residual.csv").read_text().splitlines()[1:]
        for row, delta in zip(rows, deltas):
            fields = row.split(",")
            residual, flag = float(fields[4]), int(fields[5])
            if flag == 1:
                assert 1.025 * delta <= residual <= 1.125 * delta

    def test_reconstruction_surfaces_written(self, sweep):
        _, out = sweep
        rec = load_surface(out / "reconstruction_1.txt")
        assert rec.values.min() >= 0.005 - 1e-12
        assert rec.values.max() <= 1.0 + 1e-12

    def test_summary_config_roundtrip(self, sweep):
        _, out = sweep
        text = (out / "summary.txt").read_text()
        effective = text.split("# effective configuration\n")[1].split("# results")[0]
        cfg = parse_config_text(effective)
        assert cfg.kind == "pde-sweep"
        assert cfg.get("experiment", "seed") == 3


SWEEP_CELL = re.compile(r"^cell mesh=(\d+) alpha=(\S+): residual=(\S+) ")


def test_sweep_exhaustion_exit_3(tmp_path):
    # a band far above any attainable residual: no mesh can satisfy it
    text = """
[experiment]
kind = pde-sweep
seed = 0
out = {out}

[band]
tau = 50
lambda = 60

[coefficient_meshes]
dtau_list = 0.1, 0.02
dy_list = 0.25, 0.1

[alphas]
values = 0, 1e-4, 0.25, 0.01, delta
"""
    for max_iters, selected in (
        # one step from the prior, where the penalty's gradient is zero: all
        # cells of a mesh tie, and the first alpha > 0 wins
        (1, ("0.0001", "0.0001")),
        # every residual lies below the band, so the largest has the closest gap
        (3, ("0.25", "0.25")),
    ):
        out = tmp_path / f"run{max_iters}"
        cfg = _write(tmp_path, text + f"\n[optimize]\nmax_iters = {max_iters}\n",
                     name=f"exp{max_iters}.cfg", out=out.name)
        assert main(["run", str(cfg)]) == 3
        rows = [row.split(",") for row in (out / "residual.csv").read_text().splitlines()[1:]]
        assert [(row[3], row[5]) for row in rows] == [(alpha, "0") for alpha in selected]
        # the same rule from the cells: smallest gap below the band, first on ties
        cells = {}
        for line in (out / "summary.txt").read_text().splitlines():
            m = SWEEP_CELL.match(line)
            if m and float(m[2]) > 0.0:
                cells.setdefault(int(m[1]), []).append((m[2], m[3]))
        for mesh, row in enumerate(rows):
            top = max(float(r) for _, r in cells[mesh])
            assert (row[3], row[4]) == next(c for c in cells[mesh] if float(c[1]) == top)


def test_rate_study_exhaustion_exit_3(tmp_path):
    # deltas larger than the data scale: the upper bracket never exists
    text = """
[experiment]
kind = rate-study
seed = 0
out = {out}

[rates]
deltas = 1e3, 1e2, 1e1
"""
    cfg = _write(tmp_path, text)
    assert main(["rates", str(cfg)]) == 3
    assert not (tmp_path / "run" / "rates.csv").exists()
    assert "exhausted" in (tmp_path / "run" / "summary.txt").read_text()


def test_cli_determinism_bitwise(tmp_path):
    cfg = _write(tmp_path, SEQUENTIAL)
    main(["run", str(cfg), "--out", str(tmp_path / "a")])
    main(["run", str(cfg), "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "sequential.csv").read_bytes() \
        == (tmp_path / "b" / "sequential.csv").read_bytes()
    # summaries differ only in the echoed output directory
    strip = lambda p: [l for l in (p / "summary.txt").read_text().splitlines()
                       if not l.startswith("out = ")]
    assert strip(tmp_path / "a") == strip(tmp_path / "b")
