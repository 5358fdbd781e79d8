"""Configuration parsing, run/fit/study/mesh-dump commands, artifacts."""

import os

import numpy as np
import pytest

from axiblow import cli, runio
from axiblow.errors import ConfigError


def write_config(path, text):
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_minimal_config(self, tmp_path):
        p = write_config(tmp_path / "run.cfg", """
            # desk-scale smoke case
            case = 1
            n = 256
            m = 128
            t_end = 1e-5
        """)
        cfg = cli.build_run_config(cli.parse_config(p))
        assert (cfg.case, cfg.n, cfg.m) == (1, 256, 128)
        assert cfg.t_end == 1e-5
        assert cfg.cfl == 0.1

    def test_init_overrides(self, tmp_path):
        p = write_config(tmp_path / "run.cfg", "init.m_u1 = 5e3\ncase = 3\n")
        cfg = cli.build_run_config(cli.parse_config(p))
        assert cfg.init.m_u1 == 5e3
        assert cfg.init.m_w1 == 8.6e7  # untouched default

    def test_parse_error_reports_line(self, tmp_path):
        p = write_config(tmp_path / "bad.cfg", "case = 1\nnot a pair\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            cli.parse_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        for key, val in (("tend", "1e-5"), ("rlpf_nm", "64 64"), ("n_min_r", "16")):
            p = write_config(tmp_path / "bad.cfg", f"{key} = {val}\n")
            with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
                cli.build_run_config(cli.parse_config(p))

    def test_bad_count_is_config_error(self, tmp_path):
        # The error names the rejected key and where it was set: its line
        # in the file, or the command line for an override.
        p = write_config(tmp_path / "bad.cfg", "case = 1\n# counts\ndiag_every = 0\n")
        with pytest.raises(ConfigError, match=r"'diag_every' \(line 3\): diag_every must be >= 1"):
            cli.build_run_config(cli.parse_config(p))
        p = write_config(tmp_path / "ok.cfg", "case = 4\ncfl = 0.2\n")
        with pytest.raises(ConfigError, match=r"'rlpf_k' \(command line\): rlpf_k must be >= 0"):
            cli.build_run_config(cli.parse_config(p), {"rlpf_k": -1})
        p = write_config(tmp_path / "cfl.cfg", "cfl = 2\n")
        with pytest.raises(ConfigError, match=r"'cfl' \(line 1\): cfl must lie in"):
            cli.build_run_config(cli.parse_config(p))

    def test_cli_overrides_beat_file(self, tmp_path):
        p = write_config(tmp_path / "run.cfg", "case = 1\nn = 256\nm = 128\n")
        cfg = cli.build_run_config(cli.parse_config(p), {"case": 3, "n": None})
        assert cfg.case == 3
        assert cfg.n == 256


class TestCmdRun:
    def test_minimal_run_emits_artifacts(self, tmp_path):
        p = write_config(tmp_path / "run.cfg",
                         "case = 1\nn = 128\nm = 64\nt_end = 4e-7\ndiag_every = 2\n")
        out = tmp_path / "artifacts"
        rc = cli.main(["run", "--config", p, "--out", str(out)])
        assert rc == 0
        assert (out / "manifest.txt").exists()
        csv = runio.read_diagnostics(out / "diagnostics.csv")
        assert len(csv["t"]) >= 2
        manifest = (out / "manifest.txt").read_text()
        assert "diagnostics.csv" in manifest
        for line in manifest.splitlines():
            if line.strip().startswith(("checkpoints/", "meshes/", "diagnostics")):
                assert (out / line.strip()).exists()

    def test_case3_manifest_echoes_zero_nu(self, tmp_path):
        out = tmp_path / "case3"
        rc = cli.main(["run", "--case", "3", "--n", "128", "--m", "64",
                       "--t-end", "2e-7", "--out", str(out)])
        assert rc == 0
        manifest = (out / "manifest.txt").read_text()
        assert "nu_variant: inviscid" in manifest
        assert "nu_r_max: 0" in manifest

    def test_case4_manifest_counts_rlpf(self, tmp_path):
        out = tmp_path / "case4"
        rc = cli.main(["run", "--case", "4", "--rlpf-k", "5", "--n", "128",
                       "--m", "64", "--t-end", "2e-7", "--out", str(out)])
        assert rc == 0
        manifest = (out / "manifest.txt").read_text()
        line = next(l for l in manifest.splitlines() if l.startswith("rlpf_applications"))
        assert int(line.split(":")[1]) > 0


class TestCmdFit:
    def _write_csv(self, path, c=1.5, column="u1_max"):
        t = np.linspace(1.58e-4, 1.755e-4, 120)
        v = (1.791e-4 - t) ** (-c)
        with open(path, "w") as fh:
            fh.write(f"t,{column}\n")
            for ti, vi in zip(t, v):
                fh.write(f"{ti:.17g},{vi:.17g}\n")
        return str(path)

    def test_recovers_planted_exponent(self, tmp_path, capsys):
        csv = self._write_csv(tmp_path / "diag.csv")
        rc = cli.main(["fit", csv, "u1_max", "--out", str(tmp_path / "fit.csv")])
        assert rc == 0
        text = (tmp_path / "fit.csv").read_text()
        model2 = [l for l in text.splitlines() if l.startswith("2,")][0]
        c = float(model2.split(",")[1])
        assert abs(c - 1.5) < 2e-3

    def test_empty_window_errors(self, tmp_path):
        csv = self._write_csv(tmp_path / "diag.csv")
        with pytest.raises(SystemExit):
            cli.main(["fit", csv, "u1_max", "--window", "1e-3", "2e-3"])

    def test_missing_column_errors(self, tmp_path):
        csv = self._write_csv(tmp_path / "diag.csv")
        with pytest.raises(SystemExit):
            cli.main(["fit", csv, "nope"])


class TestCmdStudy:
    def test_planted_second_order_errors(self, tmp_path):
        # Synthetic artifact tree: checkpoints whose fields carry a planted
        # O(h^2) error against a smooth reference; the study machinery must
        # report beta ~ 2 without running the solver.
        from axiblow import meshmap as mm
        from axiblow.fields import FieldGrid

        instant = 1e-5
        coeff_r = mm.DensityCoeffs(0.0, 1.0, 0.0, 0.0)
        coeff_z = mm.DensityCoeffs(0.0, 0.5, 0.0, 0.0)
        for p in (2, 3, 4):
            n, m = 256 * p, 128 * p
            mesh_r = mm.build_map(mm.R_KNOTS, coeff_r, 1.0, n)
            mesh_z = mm.build_map(mm.Z_KNOTS, coeff_z, 0.5, m)
            r = mesh_r.nodes_y[:, None]
            z = mesh_z.nodes_y[None, :]
            h2 = (1.0 / n) ** 2
            base = (1 - r**2) * np.sin(2 * np.pi * z)
            bump = h2 * np.sin(3 * np.pi * r) * np.sin(4 * np.pi * z)
            u1 = FieldGrid(base + bump, "even", "odd")
            w1 = FieldGrid(2 * base + 3 * bump, "even", "odd")
            d = tmp_path / f"p{p}" / "checkpoints"
            os.makedirs(d)
            runio.write_checkpoint(d / f"ckpt_{runio.fmt(instant)}.bin", instant, 1,
                                   u1, w1, mesh_r, mesh_z)
        errors, orders = cli.study_errors(str(tmp_path), [2, 3, 4], instant)
        assert errors["u1"][2] > errors["u1"][3] > 0
        # Against a next-finer reference a clean h^2 error gives
        # e_p ~ h_p^2 - h_{p+1}^2, so the reported order is
        # log_{3/2}((1/4 - 1/9)/(1/9 - 1/16)) ~ 2.59, not 2.0 -- the same
        # inflation visible in production resolution tables.
        beta_exact = np.log((1 / 4 - 1 / 9) / (1 / 9 - 1 / 16)) / np.log(1.5)
        assert orders["u1"][3] == pytest.approx(beta_exact, abs=0.1)
        assert orders["w1"][3] == pytest.approx(beta_exact, abs=0.1)
        assert orders["u1"][3] >= 2.0
        table = cli.format_study_table([2, 3, 4], instant, errors, orders)
        assert "512x256" in table and "768x384" in table

    def test_identical_runs_zero_errors(self, tmp_path):
        # identical fields at matching times: errors vanish
        from axiblow import meshmap as mm
        from axiblow.fields import FieldGrid

        instant = 2e-6
        for p in (2, 3):
            n, m = 256 * p, 128 * p
            mesh_r = mm.build_map(mm.R_KNOTS, mm.DensityCoeffs(0.0, 1.0, 0.0, 0.0), 1.0, n)
            mesh_z = mm.build_map(mm.Z_KNOTS, mm.DensityCoeffs(0.0, 0.5, 0.0, 0.0), 0.5, m)
            r = mesh_r.nodes_y[:, None]
            z = mesh_z.nodes_y[None, :]
            f = FieldGrid((1 - r**2) ** 3 * np.sin(2 * np.pi * z) ** 3, "even", "odd")
            d = tmp_path / f"p{p}" / "checkpoints"
            os.makedirs(d)
            runio.write_checkpoint(d / f"ckpt_{runio.fmt(instant)}.bin", instant, 1,
                                   f, f, mesh_r, mesh_z)
        errors, _ = cli.study_errors(str(tmp_path), [2, 3], instant)
        assert errors["u1"][2] < 5e-8  # pure interpolation residue
        assert errors["w1"][2] < 5e-8

    def test_table_deterministic(self, tmp_path):
        self.test_planted_second_order_errors(tmp_path)
        errors, orders = cli.study_errors(str(tmp_path), [2, 3, 4], 1e-5)
        t1 = cli.format_study_table([2, 3, 4], 1e-5, errors, orders)
        errors2, orders2 = cli.study_errors(str(tmp_path), [2, 3, 4], 1e-5)
        t2 = cli.format_study_table([2, 3, 4], 1e-5, errors2, orders2)
        assert t1 == t2


class TestMeshDump:
    def test_dump_from_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "r"
        rc = cli.main(["run", "--case", "3", "--n", "128", "--m", "64",
                       "--t-end", "1e-7", "--out", str(out)])
        assert rc == 0
        ckpts = sorted((out / "checkpoints").iterdir())
        rc = cli.main(["mesh-dump", str(ckpts[0]), "--axis", "z",
                       "--out", str(tmp_path / "mesh.txt")])
        assert rc == 0
        text = (tmp_path / "mesh.txt").read_text()
        assert text.startswith("# axiblow mesh map")
        from axiblow import meshmap as mm
        mesh = mm.parse_mesh(text)
        assert mesh.L == 0.5
