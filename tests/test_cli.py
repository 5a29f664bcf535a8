import configparser
import json
import math
import os
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qtflow import cli
from qtflow.cli import dispatch, main, parse_config
from qtflow.experiments import INT_MINIMA, ConfigError, ExperimentConfig, config_keys
from qtflow.model import Params


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
        with pytest.raises(ConfigError, match="DEFAULT"):
            parse_config(write(tmp_path, "[DEFAULT]\nT = 0.5\n"))

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


def test_readme_config_example_parses_and_names_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    command_line = readme.split("## Command line", 1)[1]
    example = command_line.split("```ini\n", 1)[1].split("```", 1)[0]
    parse_config(write(tmp_path, example))

    cp = configparser.ConfigParser()
    cp.optionxform = str
    cp.read_string(example)
    mesh = {"x0", "x1", "y0", "y1", "nx", "ny"}
    expected = {
        "mesh": mesh,
        "params": {f.name for f in fields(Params)},
        "experiment": {f.name for f in fields(ExperimentConfig)} - mesh - {"params"},
    }
    assert {section: set(cp.options(section)) for section in cp.sections()} == expected


def test_every_config_key_converts_and_every_int_key_has_a_minimum():
    """The parser's keys are the ones config_keys() walks, each with a
    converter for its type name, and every int key has an INT_MINIMA entry:
    without one, validate_config() would raise a KeyError, which main()
    reports as an exit-2 error instead of an exit-1 config error."""
    keys = list(config_keys(ExperimentConfig()))
    assert ({(section, name) for section, name, _, _ in keys}
            == {(section, name) for section, names in cli._SECTIONS.items()
                for name in names})
    for section, name, type_name, _ in keys:
        assert type_name in cli._CONVERTERS, "%s.%s" % (section, name)
        assert type_name != "int" or name in INT_MINIMA, "%s.%s" % (section, name)


class TestDispatchRun:
    def cfg_zero(self):
        return ExperimentConfig(nx=8, ny=8, T=0.01, dt=1e-3, initial="zero")

    def test_run_writes_trace_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert dispatch("run", self.cfg_zero(), out) == 0
        lines = Path(out, "energy_trace.csv").read_text().strip().split("\n")
        assert lines[0] == "step,time,E_total,E_kinetic,E_elastic,E_div,E_r,dissipation_residual"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 10
        for row in rows:
            assert float(row[2]) == pytest.approx(2000.0, rel=1e-12)
            assert abs(float(row[7])) <= 1e-12

        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["subcommand"] == "run"
        assert "kind" not in manifest["config"]
        assert "energy_trace.csv" in manifest["files"]
        assert manifest["config"]["initial"] == "zero"

    def test_byte_identical_reruns(self, tmp_path):
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        dispatch("run", self.cfg_zero(), out1)
        dispatch("run", self.cfg_zero(), out2)
        assert (Path(out1, "energy_trace.csv").read_bytes()
                == Path(out2, "energy_trace.csv").read_bytes())

    def test_unknown_subcommand(self, tmp_path):
        with pytest.raises(ConfigError):
            dispatch("explode", self.cfg_zero(), str(tmp_path / "x"))


class TestDispatchStudies:
    def test_time_refine_csv(self, tmp_path):
        cfg = ExperimentConfig(nx=8, ny=8, T=0.02, dt_list=(4e-3, 2e-3),
                               reference_dt=5e-4)
        out = str(tmp_path / "t")
        assert dispatch("time-refine", cfg, out) == 0
        lines = Path(out, "time_refinement.csv").read_text().strip().split("\n")
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
        csv = Path(out, "sigma_study.csv").read_text().strip().split("\n")
        assert csv[0] == "sigma,p1,p2,h1_error"
        assert csv[-1].startswith("slope,")
        dat = os.path.join(out, "sigma_case_p1_inf_p2_inf.dat")
        cols = np.loadtxt(dat)
        assert cols.shape == (2, 2)
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert "sigma_case_p1_inf_p2_inf.dat" in manifest["files"]

    def test_summary_shows_a_nan_defect(self, tmp_path, capsys, monkeypatch):
        """A NaN defect in a later record is the summary's maximum, not
        skipped by the comparisons."""
        import qtflow.cli as cli_mod

        run_single = cli_mod.run_single

        def nan_defect(config):
            result = run_single(config)
            result.trace[3].dissipation_residual = math.nan
            return result

        monkeypatch.setattr(cli_mod, "run_single", nan_defect)
        cfg = ExperimentConfig(nx=8, ny=8, T=0.01, dt=1e-3, initial="zero")
        assert dispatch("run", cfg, str(tmp_path / "out")) == 0
        assert "max residual nan" in capsys.readouterr().out

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

    def test_outputs_removed_when_a_file_cannot_be_written(self, tmp_path):
        """manifest.json, written last, is a directory here: the trace
        written before it is removed, and the directory is left alone."""
        out = tmp_path / "fail"
        (out / "manifest.json").mkdir(parents=True)
        cfg = ExperimentConfig(nx=8, ny=8, T=0.01, dt=1e-3, initial="zero")
        with pytest.raises(IsADirectoryError):
            dispatch("run", cfg, str(out))
        assert [path.name for path in out.iterdir()] == ["manifest.json"]

    def test_failed_study_creates_no_directory(self, tmp_path, monkeypatch):
        out = str(tmp_path / "fail")
        cfg = ExperimentConfig(nx=8, ny=8, T=0.01, dt=1e-3, initial="zero")

        import qtflow.cli as cli_mod

        def boom(config):
            raise RuntimeError("synthetic solver failure")

        monkeypatch.setattr(cli_mod, "run_single", boom)
        with pytest.raises(RuntimeError):
            dispatch("run", cfg, out)
        assert not os.path.exists(out)


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

    #: Malformed configs that once ended in exit 2, in exit 0 with an empty
    #: CSV or with one file overwriting another, in a misleading message or
    #: in a message without its key, and the key (or the message naming it)
    #: each must print.  Ids are keys, or key=value where a key repeats.
    SHORT_SWEEP = "[mesh]\nnx = 4\n[experiment]\nT = 1e-4\ndt = 1e-5\n"
    MALFORMED = [pytest.param(*case, id=case[2]) for case in [
        ("time-refine", "[experiment]\ndt_list = 0.0\n", "experiment.dt_list"),
        ("space-refine", "[experiment]\nh_list = 0.5, 0.0\n", "experiment.h_list"),
        ("sigma-study", "[experiment]\nsigma_list =\n", "experiment.sigma_list"),
        ("run", "[mesh]\nnx = 3\nny = 4\n", "mesh.ny"),
        ("run", "[mesh]\nx1 = 0.0\n", "mesh.x1"),
        ("sigma-study", "[experiment]\np1_list =\n", "experiment.p1_list"),
        ("time-refine", "[experiment]\nreference_dt = -1e-3\n",
         "experiment.reference_dt"),
        ("run", "[experiment]\nkind = time\nT = 3e-4\ndt = 1e-4\n", "experiment.kind"),
        # a nonpositive radicand at the initial state
        ("run", "[params]\nA0 = 0.001\n", "params.A0"),
    ]] + [
        # a radicand 2 (F + A0) that overflows at the initial state, and the
        # boundary's 2 A0 with it: once a step 1 or 2 solver error (exit 2)
        pytest.param("run", "[params]\nA0 = 1e308\n" + extra, "params.A0",
                     id="params.A0=1e308" + suffix)
        for extra, suffix in (("", ""), ("sigma = 0.0\n", ",sigma=0"))
    ] + [
        # a radicand that fits but an energy r . r that overflows: once exit
        # 0 with E = inf at every step
        pytest.param("run", "[params]\nA0 = 8e307\n" + extra, "params.A0",
                     id="params.A0=8e307" + suffix)
        for extra, suffix in (("", ""), ("sigma = 0.0\n", ",sigma=0"))
    ] + [
        # meshes whose stiffness would outgrow int32 indices: the reference
        # size 2^-level underflows to 0 at 1075 and makes the refinement
        # ratio inf at 1074
        pytest.param("space-refine", "[experiment]\nh_list = 0.5, 0.25\n"
                     "reference_level = %d\n" % level, "experiment.reference_level",
                     id="reference_level=%d" % level) for level in (1075, 1074, 40)
    ] + [
        pytest.param("run", "[mesh]\nnx = %d\nny = %d\n" % (2 ** 40, 2 ** 40),
                     "mesh.nx", id="mesh.nx=2**40"),
    ] + [
        # extents whose cell area h h overflows or underflows to 0 (once
        # exit 1 blaming params.A0), and one whose default profile
        # overflows on a finite cell
        pytest.param("run", "[mesh]\nnx = 4\nny = 4\nx1 = %s\ny1 = %s\n"
                     "[experiment]\nT = 1e-3\ndt = 1e-3\n%s" % (x1, x1, extra), key,
                     id="x1=y1=%s%s" % (x1, suffix))
        for x1, extra, suffix, key in (
            ("1e160", "", "", "mesh.x1"),
            ("1e160", "initial = zero\n", ",zero", "mesh.x1"),
            ("1e-170", "", "", "mesh.x1"),
            ("1e100", "", "", "experiment.initial"))
    ] + [
        # exponents that %g prints alike share a .dat file name
        pytest.param("sigma-study", SHORT_SWEEP + "p1_list = 0.5, 0.5000001\n"
                     "p2_list = inf\n", "experiment.p1_list", id="p1_list=0.5,0.5000001"),
        pytest.param("sigma-study", SHORT_SWEEP + "p1_list = 0.5, 0.5\n",
                     "experiment.p1_list", id="p1_list=0.5,0.5"),
        pytest.param("sigma-study", SHORT_SWEEP + "p2_list = inf, inf\n",
                     "experiment.p2_list", id="p2_list=inf,inf"),
    ] + [
        # a perturbation sigma^p / 2 that overflows a float (once exit 2 with
        # an OverflowError), and one that fits but overflows the radicand,
        # whose message still names params.A0 (once with numpy's "invalid
        # value" warning first)
        pytest.param("sigma-study", SHORT_SWEEP + "sigma_list = 1e-3, 1e-1\n"
                     "p1_list = -200\n", "experiment.p1_list", id="p1_list=-200"),
        pytest.param("sigma-study", SHORT_SWEEP + "sigma_list = 1e-3, 1e-1\n"
                     "p2_list = -300\n", "experiment.p2_list", id="p2_list=-300"),
        pytest.param("sigma-study", SHORT_SWEEP + "sigma_list = 1e-3, 1e-1\n"
                     "p1_list = -100\n", "params.A0", id="p1_list=-100"),
    ] + [
        # every rule of Params names its key, as every other value check does
        pytest.param("run", "[params]\n%s\n" % text, message, id=key)
        for key, text, message in (
            ("params.c=0", "c = 0", "params.c must be positive, got 0.0"),
            ("params.L1=-1e-3", "L1 = -1e-3", "params.L1 must be positive, got -0.001"),
            ("params.L2+L3=-1e-3", "L2 = -2e-3\nL3 = 1e-3",
             "params.L2 + params.L3 must be nonnegative, got -0.001"),
            ("params.A0=0", "A0 = 0", "params.A0 must be positive, got 0.0"),
            ("params.sigma=-0.5", "sigma = -0.5", "params.sigma must be nonnegative, got -0.5"))
    ] + [
        # a value that does not parse as its type, a refinement chain of one
        # mesh, and mesh sizes that cut the extent into fractional cells
        pytest.param("space-refine", "[experiment]\nT = abc\n",
                     "bad value for experiment.T", id="experiment.T=abc"),
        # values are literal: a '%' is no interpolation (once exit 2)
        pytest.param("run", "[experiment]\ninitial = %(x)s\n",
                     "experiment.initial: unknown profile '%(x)s'",
                     id="initial=%(x)s"),
        pytest.param("space-refine", "[experiment]\nh_list = 0.5\n",
                     "experiment.h_list needs at least two entries", id="h_list=0.5"),
        pytest.param("space-refine", "[experiment]\nh_list = 0.6, 0.3\nreference_level = 4\n",
                     "experiment.h_list: 3.3333333333333335 x 3.3333333333333335 cells "
                     "are not at least 2 whole cells per axis", id="h_list=0.6,0.3"),
        # 6.0000000002 cells pass as whole, but not as square: once exit 2
        # from build_mesh, whose message printed hx and hy alike
        pytest.param("space-refine", "[mesh]\nx1 = 1.0\ny1 = 3.0000000001\n"
                     "[experiment]\nT = 2.5e-4\nh_list = 0.5, 0.25\nreference_level = 3\n",
                     "experiment.h_list: cells must be square, got 0.5 x 0.5000000000166667",
                     id="y1=3.0000000001"),
    ]

    @pytest.mark.parametrize("subcommand,text,key", MALFORMED)
    def test_malformed_config_exit_one_before_any_output(self, tmp_path, capsys,
                                                         subcommand, text, key):
        cfgpath = write(tmp_path, text)
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfgpath, "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand, study, below, from_config", [
        ("run", "run_single", False, False),                # --out names a file
        ("time-refine", "time_refinement_study", True, False),   # --out file/sub
        ("space-refine", "space_refinement_study", True, True),  # out_dir file/sub
    ])
    def test_output_path_at_a_file_exit_one_before_the_study(
            self, tmp_path, capsys, monkeypatch, subcommand, study, below,
            from_config):
        """An output directory that cannot be made at or below an existing
        file is a configuration error found before the study runs, not a
        failure to write its results afterwards."""
        import qtflow.cli as cli_mod

        def never(config):
            raise AssertionError("the study ran")

        monkeypatch.setattr(cli_mod, study, never)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "sub") if below else str(blocker)
        if from_config:
            argv = ["--config", write(tmp_path, "[experiment]\nout_dir = %s\n" % out)]
        else:
            argv = ["--out", out]
        key = "experiment.out_dir" if from_config else "--out"
        assert main([subcommand] + argv) == 1
        err = capsys.readouterr().err
        assert "configuration error: %s: " % key in err
        assert str(blocker) in err and "not a directory" in err
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("content", [
        None,                                     # a directory
        b"T = 1e-3\n",                            # no section header
        b"[experiment]\nT = 1e-3\nT = 2e-3\n",   # a key given twice
        b"[experiment]\nT = 1e-3 \xff\n",         # not UTF-8
    ], ids=["directory", "no_section", "duplicate_key", "not_utf8"])
    def test_unreadable_config_exit_one_naming_the_path(self, tmp_path, capsys,
                                                        content):
        path = tmp_path / "config.ini"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert "config file %s" % path in capsys.readouterr().err
        assert not out.exists()

    def test_percent_in_a_value_is_literal(self, tmp_path):
        """A '%' in a config value is kept as written (once exit 2 from
        configparser's interpolation)."""
        out = tmp_path / "out%dir"
        cfgpath = write(tmp_path, "[mesh]\nnx = 4\n[experiment]\nT = 1e-3\n"
                        "dt = 1e-3\nout_dir = %s\n" % out)
        assert parse_config(cfgpath).out_dir == str(out)
        assert main(["run", "--config", cfgpath]) == 0
        assert (out / "energy_trace.csv").exists()

    def test_run_ignores_the_time_study_default_step(self, tmp_path):
        """The default reference_dt, 6.25e-5, does not divide T = 3e-4; a run
        never reads it."""
        cfgpath = write(tmp_path, "[mesh]\nnx = 4\n[experiment]\nT = 3e-4\ndt = 1e-4\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfgpath, "--out", str(out)]) == 0
        assert len((out / "energy_trace.csv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("subcommand,text,csv", [
        ("space-refine", "h_list = 0.5, 0.25\nreference_level = 3\n",
         "space_refinement.csv"),
        ("time-refine", "dt_list = 2e-4, 1e-4\nreference_dt = 5e-5\n",
         "time_refinement.csv"),
    ])
    def test_zero_errors_leave_orders_empty(self, tmp_path, capsys, subcommand,
                                            text, csv):
        cfgpath = write(tmp_path, "[mesh]\nnx = 4\n[experiment]\ninitial = zero\n"
                        "T = 1e-3\ndt = 1e-4\n" + text)
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfgpath, "--out", str(out)]) == 0
        # zero data stay zero, so the Q errors vanish (error_r of the space
        # study measures the coarse boundary ramp of r, which does not)
        rows = (out / csv).read_text().splitlines()[1:]
        assert [row.split(",")[1:5] for row in rows] == [["0", "", "0", ""]] * 2
        console = capsys.readouterr().out.splitlines()[1:]
        assert [line.split()[1:5] for line in console] == [["0", "-", "0", "-"]] * 2

    def test_zero_errors_leave_the_slope_empty(self, tmp_path, capsys):
        cfgpath = write(tmp_path, "[mesh]\nnx = 4\n[experiment]\ninitial = zero\n"
                        "T = 1e-3\ndt = 1e-4\nsigma_list = 1e-3, 1e-1\n"
                        "p1_list = 1, inf\np2_list = inf\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sigma-study", "--config", cfgpath, "--out", str(out)]) == 0
        slopes = [row for row in (out / "sigma_study.csv").read_text().splitlines()
                  if row.startswith("slope,")]
        assert slopes[0].split(",")[3] != "" and slopes[1] == "slope,inf,inf,"
        assert "case p1=inf p2=inf: fitted slope -" in capsys.readouterr().out

    def test_radicand_failure_in_a_later_step_exit_two(self, tmp_path, capsys):
        """A0 suits the initial state, but the state reaches the bulk
        minimum within 100 steps (at step 93)."""
        cfgpath = write(tmp_path, "[mesh]\nnx = 2\nny = 2\n[params]\nA0 = 0.005\n"
                        "sigma = 0.0\n[experiment]\nT = 1.0\ndt = 1e-2\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfgpath, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "nonpositive radicand" in err
        assert "step 93" in err and "case nx=2" in err
        assert not out.exists()

    def test_validation_error_exit_one(self, tmp_path):
        cfgpath = write(tmp_path, "[experiment]\nT = 0.1\ndt = 3e-4\n")
        assert main(["run", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("section,key,value", [
        ("params", "A0", "nan"),
        ("params", "L1", "nan"),
        ("mesh", "x0", "inf"),
        ("experiment", "cg_tol", "nan"),
        ("experiment", "T", "inf"),
        ("experiment", "sigma_list", "1e-2, nan"),
    ])
    def test_non_finite_value_exit_one(self, tmp_path, capsys, section, key, value):
        cfgpath = write(tmp_path, "[%s]\n%s = %s\n" % (section, key, value))
        assert main(["run", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1
        assert "%s.%s" % (section, key) in capsys.readouterr().err

    def test_invalid_param_exit_one(self, tmp_path, capsys):
        cfgpath = write(tmp_path, "[params]\nc = -1\n")
        assert main(["run", "--config", cfgpath, "--out", str(tmp_path / "o")]) == 1
        assert "params.c must be positive, got -1.0" in capsys.readouterr().err

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
        manifest = json.loads(Path(out, "manifest.json").read_text())
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
        manifest = json.loads(Path(out, "manifest.json").read_text())
        assert manifest["config"]["threads"] == 2
