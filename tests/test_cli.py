import json
import math
import os

import numpy as np
import pytest

from qtflow.cli import dispatch, main, parse_config
from qtflow.experiments import ConfigError, ExperimentConfig


def write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_defaults_from_empty_file(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""))
        assert cfg.params.L1 == 0.001
        assert cfg.params.L2 == 0.0 and cfg.params.L3 == 0.0
        assert cfg.params.a == -0.2 and cfg.params.b == 1.0 and cfg.params.c == 1.0
        assert cfg.params.A0 == 500.0
        assert cfg.params.sigma == 0.025
        assert (cfg.x0, cfg.x1, cfg.y0, cfg.y1) == (0.0, 2.0, 0.0, 2.0)

    def test_no_path_gives_defaults(self):
        assert parse_config(None) == ExperimentConfig()

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/config.ini")

    def test_overrides(self, tmp_path):
        cfg = parse_config(write(tmp_path, """
[mesh]
nx = 8
ny = 8
[params]
sigma = 0.1
[experiment]
T = 0.05
dt = 1e-3
initial = zero
"""))
        assert cfg.nx == 8 and cfg.ny == 8
        assert cfg.params.sigma == 0.1
        assert cfg.T == 0.05 and cfg.dt == 1e-3
        assert cfg.initial == "zero"

    def test_unknown_key_named_in_error(self, tmp_path):
        with pytest.raises(ConfigError, match="banana"):
            parse_config(write(tmp_path, "[mesh]\nbanana = 1\n"))
        with pytest.raises(ConfigError, match="weird"):
            parse_config(write(tmp_path, "[weird]\nx = 1\n"))

    def test_non_integral_dt_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path, "[experiment]\nT = 0.1\ndt = 3e-4\n"))

    def test_sigma_list_with_zero_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(write(tmp_path,
                               "[experiment]\nsigma_list = 0.0, 1e-2, 1e-1\n"))

    def test_inf_exponents_parse(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[experiment]\np1_list = 1, inf\n"))
        assert cfg.p1_list == (1.0, math.inf)

    @pytest.mark.parametrize("text,key", [
        ("[experiment]\np2_list = 1, nan\n", "experiment.p2_list"),
        ("[experiment]\nh_list = 0.5, inf\n", "experiment.h_list"),
        ("[mesh]\nx1 = -inf\n", "mesh.x1"),
    ])
    def test_non_finite_entries_rejected(self, tmp_path, text, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(write(tmp_path, text))


class TestDispatchRun:
    def cfg_zero(self):
        return ExperimentConfig(nx=8, ny=8, T=0.01, dt=1e-3, initial="zero")

    def test_run_writes_trace_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert dispatch("run", self.cfg_zero(), out) == 0
        trace = open(os.path.join(out, "energy_trace.csv")).read()
        lines = trace.strip().split("\n")
        assert lines[0] == "step,time,E_total,E_kinetic,E_elastic,E_div,E_r,dissipation_residual"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 10
        for row in rows:
            assert float(row[2]) == pytest.approx(2000.0, rel=1e-12)
            assert abs(float(row[7])) <= 1e-12

        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["version"]
        assert "energy_trace.csv" in manifest["files"]
        assert manifest["config"]["initial"] == "zero"

    def test_byte_identical_reruns(self, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        dispatch("run", self.cfg_zero(), out1)
        dispatch("run", self.cfg_zero(), out2)
        b1 = open(os.path.join(out1, "energy_trace.csv"), "rb").read()
        b2 = open(os.path.join(out2, "energy_trace.csv"), "rb").read()
        assert b1 == b2

    def test_unknown_subcommand(self, tmp_path):
        with pytest.raises(ConfigError):
            dispatch("explode", self.cfg_zero(), str(tmp_path / "x"))


class TestDispatchStudies:
    def test_time_refine_csv(self, tmp_path):
        cfg = ExperimentConfig(nx=8, ny=8, T=0.02, dt_list=(4e-3, 2e-3),
                               reference_dt=5e-4)
        out = str(tmp_path / "t")
        assert dispatch("time-refine", cfg, out) == 0
        lines = open(os.path.join(out, "time_refinement.csv")).read().strip().split("\n")
        assert lines[0] == "level,error_Q11,order_Q11,error_Q12,order_Q12,error_r,order_r"
        first = lines[1].split(",")
        assert first[2] == ""  # no order on the coarsest level
        second = lines[2].split(",")
        assert float(second[2]) > 0.5

    def test_sigma_study_outputs(self, tmp_path):
        cfg = ExperimentConfig(nx=6, ny=6, T=0.02, dt=1e-3,
                               sigma_list=(1e-3, 1e-1),
                               p1_list=(math.inf,), p2_list=(math.inf,))
        out = str(tmp_path / "s")
        assert dispatch("sigma-study", cfg, out) == 0
        csv = open(os.path.join(out, "sigma_study.csv")).read().strip().split("\n")
        assert csv[0] == "sigma,p1,p2,h1_error"
        assert csv[-1].startswith("slope,")
        dat = os.path.join(out, "sigma_case_p1_inf_p2_inf.dat")
        cols = np.loadtxt(dat)
        assert cols.shape == (2, 2)
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert "sigma_case_p1_inf_p2_inf.dat" in manifest["files"]

    def test_partial_outputs_removed_on_failure(self, tmp_path, monkeypatch):
        out = str(tmp_path / "fail")
        cfg = ExperimentConfig(nx=8, ny=8, T=0.01, dt=1e-3, initial="zero")

        import qtflow.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "_manifest", boom)
        with pytest.raises(RuntimeError):
            dispatch("run", cfg, out)
        assert not os.path.exists(os.path.join(out, "energy_trace.csv"))


class TestMain:
    def test_run_exit_zero(self, tmp_path):
        cfgpath = write(tmp_path, """
[mesh]
nx = 8
ny = 8
[experiment]
T = 0.01
dt = 1e-3
initial = zero
""")
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfgpath, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "energy_trace.csv"))

    def test_validation_error_exit_one(self, tmp_path):
        cfgpath = write(tmp_path, "[experiment]\nT = 0.1\ndt = 3e-4\n")
        assert main(["run", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("section,key,value", [
        ("params", "A0", "nan"),
        ("experiment", "cg_tol", "nan"),
        ("experiment", "T", "inf"),
    ])
    def test_non_finite_value_exit_one(self, tmp_path, capsys, section, key, value):
        cfgpath = write(tmp_path, "[%s]\n%s = %s\n" % (section, key, value))
        assert main(["run", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1
        assert "%s.%s" % (section, key) in capsys.readouterr().err

    def test_invalid_param_exit_one(self, tmp_path, capsys):
        cfgpath = write(tmp_path, "[params]\nc = -1\n")
        assert main(["run", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1
        assert "coefficient c" in capsys.readouterr().err

    def test_unknown_subcommand_usage(self, capsys):
        code = main(["frobnicate"])
        assert code != 0
        assert "usage" in capsys.readouterr().err.lower()

    def test_reference_level_flag_override(self, tmp_path):
        cfgpath = write(tmp_path, """
[experiment]
T = 0.01
dt = 1e-3
h_list = 1.0, 0.5
""")
        out = str(tmp_path / "ref")
        assert main(["space-refine", "--config", cfgpath, "--out", out,
                     "--reference-level", "3"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["reference_level"] == 3

    def test_threads_flag_override(self, tmp_path):
        cfgpath = write(tmp_path, """
[mesh]
nx = 6
ny = 6
[experiment]
T = 0.01
dt = 1e-3
initial = zero
""")
        out = str(tmp_path / "thr")
        assert main(["run", "--config", cfgpath, "--out", out, "--threads", "2"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["threads"] == 2
