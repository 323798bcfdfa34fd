"""End-to-end command behavior and exit codes."""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import surrokit
from surrokit.cli import _SECTIONS, main
from surrokit.design_space import DesignSpace, DesignVariable, lhs_disjoint, lhs_sample
from surrokit.oracles import load_csv, save_csv
from surrokit.training import SampleSet


@pytest.fixture
def sin_project(tmp_path):
    """Config + train/verify CSVs for a 1-D sine response."""
    config = {
        "space": [{"name": "x", "lower": 0.0, "upper": 1.0}],
        "training": {
            "responses": ["y"],
            "kinds": ["ann", "poly"],
            "ann": {"hidden_sizes": [4], "max_epochs": 1500,
                    "learning_rate": 0.05, "l2_penalty": 1e-5,
                    "early_stop_patience": 150, "seed": 3},
            "poly": {"degree": 3, "stepwise": False},
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    space = DesignSpace((DesignVariable("x", 0.0, 1.0),))
    xt = lhs_sample(space, 200, seed=1)
    xv = lhs_disjoint(space, 60, xt, seed=2)
    train_csv = tmp_path / "train.csv"
    verify_csv = tmp_path / "verify.csv"
    save_csv(SampleSet(xt, {"y": np.sin(np.pi * xt[:, 0])}, ["x"]), train_csv)
    save_csv(SampleSet(xv, {"y": np.sin(np.pi * xv[:, 0])}, ["x"]), verify_csv)
    return cfg_path, train_csv, verify_csv


def fit_run(run: str, cfg: Path, train_csv: Path, verify_csv: Path,
            out: Path) -> int:
    """`train` on the config file `cfg` with its models to `out / "m"`. The
    run "compare" is the ANN-versus-polynomial comparison on the same data
    as the README walkthrough makes it: it also writes each model's fit
    report to `out / "reports.json"`."""
    argv = ["train", "--config", str(cfg), "--train", str(train_csv),
            "--verify", str(verify_csv), "--out-dir", str(out / "m")]
    if run == "compare":
        argv += ["--report-json", str(out / "reports.json")]
    return main(argv)


@pytest.fixture
def opamp_config(tmp_path):
    from surrokit.oracles import opamp_space
    config = {
        "space": opamp_space().to_dicts(),
        "oracle": {"name": "opamp"},
        "sampling": {"n": 40, "seed": 5},
    }
    path = tmp_path / "opamp.json"
    path.write_text(json.dumps(config))
    return path


class TestSample:
    def test_writes_csv(self, opamp_config, tmp_path):
        out = tmp_path / "samples.csv"
        code = main(["sample", "--config", str(opamp_config),
                     "--out", str(out), "--evaluate"])
        assert code == 0
        loaded = load_csv(out, [v["name"] for v in
                                json.loads(opamp_config.read_text())["space"]])
        assert loaded.n_rows == 40
        assert "a0" in loaded.response_names

    def test_zero_count_is_usage_error(self, opamp_config, tmp_path):
        code = main(["sample", "--config", str(opamp_config),
                     "--out", str(tmp_path / "s.csv"), "--n", "0"])
        assert code == 1

    def test_same_seed_identical_files(self, opamp_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sample", "--config", str(opamp_config), "--out", str(a),
                     "--seed", "9"]) == 0
        assert main(["sample", "--config", str(opamp_config), "--out", str(b),
                     "--seed", "9"]) == 0
        assert a.read_text() == b.read_text()

    def test_disjoint_from(self, opamp_config, tmp_path):
        base = tmp_path / "base.csv"
        extra = tmp_path / "extra.csv"
        assert main(["sample", "--config", str(opamp_config),
                     "--out", str(base)]) == 0
        assert main(["sample", "--config", str(opamp_config),
                     "--out", str(extra), "--n", "10",
                     "--disjoint-from", str(base)]) == 0
        names = [v["name"] for v in
                 json.loads(opamp_config.read_text())["space"]]
        a = load_csv(base, names).inputs
        b = load_csv(extra, names).inputs
        assert not (b[:, None, :] == a[None, :, :]).all(axis=2).any()

    def test_missing_config(self, tmp_path):
        code = main(["sample", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1

    def test_non_finite_oracle_is_one_stderr_line(self, opamp_config,
                                                  tmp_path):
        """An oracle returning non-finite values on the space (a negative
        bias current) exits 1 with the one diagnostic line on stderr and no
        numpy warning before it."""
        config = json.loads(opamp_config.read_text())
        for entry in config["space"]:
            if entry["name"] == "ib":
                entry["lower"] = -50.0
        opamp_config.write_text(json.dumps(config))
        src = os.path.dirname(os.path.dirname(surrokit.__file__))
        run = subprocess.run(
            [sys.executable, "-m", "surrokit", "sample", "--config",
             str(opamp_config), "--out", str(tmp_path / "s.csv"),
             "--evaluate"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 1
        lines = run.stderr.splitlines()
        assert len(lines) == 1, run.stderr
        assert lines[0].startswith("usage error: bad 'oracle' section")
        assert not (tmp_path / "s.csv").exists()


class TestTrain:
    def test_prints_table_and_saves_model(self, sin_project, tmp_path, capsys):
        cfg, train_csv, verify_csv = sin_project
        out_dir = tmp_path / "models"
        code = main(["train", "--config", str(cfg), "--train", str(train_csv),
                     "--verify", str(verify_csv), "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "rmse" in captured.out
        assert "ann-4" in captured.out
        assert (out_dir / "y.json").exists()

    def test_missing_response_is_data_error(self, sin_project, tmp_path):
        cfg, train_csv, verify_csv = sin_project
        config = json.loads(cfg.read_text())
        config["training"]["responses"] = ["nope"]
        cfg.write_text(json.dumps(config))
        code = main(["train", "--config", str(cfg), "--train", str(train_csv),
                     "--verify", str(verify_csv),
                     "--out-dir", str(tmp_path / "m")])
        assert code == 2

    def test_seed_flag_and_report_json(self, sin_project, tmp_path, capsys):
        cfg, train_csv, verify_csv = sin_project
        report_path = tmp_path / "reports.json"
        code = main(["train", "--config", str(cfg), "--train", str(train_csv),
                     "--verify", str(verify_csv),
                     "--out-dir", str(tmp_path / "m"), "--seed", "77",
                     "--report-json", str(report_path)])
        capsys.readouterr()
        assert code == 0
        reports = json.loads(report_path.read_text())
        assert "y" in reports
        assert {"model", "rmse", "r2_train", "r2_verify"} <= \
            set(reports["y"][0].keys())

    def test_neuron_sweep_rows(self, sin_project, tmp_path, capsys):
        cfg, train_csv, verify_csv = sin_project
        config = json.loads(cfg.read_text())
        config["training"]["kinds"] = ["ann"]
        config["training"]["ann"]["hidden_sizes"] = list(range(1, 11))
        config["training"]["ann"]["max_epochs"] = 60
        cfg.write_text(json.dumps(config))
        code = main(["train", "--config", str(cfg), "--train", str(train_csv),
                     "--verify", str(verify_csv),
                     "--out-dir", str(tmp_path / "m")])
        out = capsys.readouterr().out
        assert code == 0
        for m in range(1, 11):
            assert f"ann-{m}" in out


class TestReport:
    def test_report_table(self, sin_project, tmp_path, capsys):
        cfg, train_csv, verify_csv = sin_project
        out_dir = tmp_path / "models"
        main(["train", "--config", str(cfg), "--train", str(train_csv),
              "--verify", str(verify_csv), "--out-dir", str(out_dir)])
        capsys.readouterr()
        code = main(["report", "--config", str(cfg),
                     "--data", str(verify_csv),
                     "--model", str(out_dir / "y.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "rmse" in out and "y" in out


class TestUsage:
    def test_unknown_command(self):
        assert main(["optimize-genetic"]) == 1

    def test_no_command(self):
        assert main([]) == 1

    def test_missing_required_flag(self):
        assert main(["sample", "--out", "x.csv"]) == 1


def write_toy_models(tmp_path, cfg_path):
    """Train tiny models for two oracle responses used by the optimizers."""
    code = main(["sample", "--config", str(cfg_path),
                 "--out", str(tmp_path / "train.csv"), "--n", "60",
                 "--seed", "11", "--evaluate"])
    assert code == 0
    code = main(["sample", "--config", str(cfg_path),
                 "--out", str(tmp_path / "verify.csv"), "--n", "20",
                 "--seed", "12", "--evaluate",
                 "--disjoint-from", str(tmp_path / "train.csv")])
    assert code == 0
    code = main(["train", "--config", str(cfg_path),
                 "--train", str(tmp_path / "train.csv"),
                 "--verify", str(tmp_path / "verify.csv"),
                 "--out-dir", str(tmp_path / "models")])
    assert code == 0


def pipeline_config() -> dict:
    """The op-amp pipeline config: five responses, both optimizers."""
    from surrokit.oracles import opamp_space
    return {
        "space": opamp_space().to_dicts(),
        "oracle": {"name": "opamp"},
        "training": {
            "responses": ["sr", "pd", "a0", "bw", "pm"],
            "kinds": ["ann"],
            "ann": {"hidden_sizes": [3], "max_epochs": 300,
                    "learning_rate": 0.05, "seed": 2},
        },
        "mofa": {
            "objectives": [{"response": "sr", "direction": "maximize"},
                           {"response": "pd", "direction": "minimize"}],
            "constraints": [{"response": "a0", "bound": 43.0,
                             "sense": "greater"},
                            {"response": "bw", "bound": 50.0,
                             "sense": "greater"},
                            {"response": "pm", "bound": 70.0,
                             "sense": "greater"}],
            "K": 10, "t_max": 40, "seed": 4,
        },
        "abc": {
            "objective": [{"response": "pd", "weight": 1.0}],
            "window": [{"response": "a0", "center": 50.0,
                        "relative_tolerance": 0.05}],
            "colony_size": 8, "limit": 20, "max_cycles": 60, "seed": 5,
        },
    }


@pytest.fixture
def opamp_pipeline_config(tmp_path):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(pipeline_config()))
    return path


class TestOptimize:
    def test_mofa_writes_archive(self, opamp_pipeline_config, tmp_path,
                                 capsys):
        write_toy_models(tmp_path, opamp_pipeline_config)
        capsys.readouterr()
        out = tmp_path / "front.csv"
        code = main(["optimize-mofa", "--config", str(opamp_pipeline_config),
                     "--models", str(tmp_path / "models"),
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) >= 2
        assert lines[0].endswith("sr,pd,a0,bw,pm")

    def test_abc_writes_monotone_trace(self, opamp_pipeline_config, tmp_path,
                                       capsys):
        write_toy_models(tmp_path, opamp_pipeline_config)
        capsys.readouterr()
        out = tmp_path / "trace.csv"
        code = main(["optimize-abc", "--config", str(opamp_pipeline_config),
                     "--models", str(tmp_path / "models"),
                     "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "fom," in stdout
        values = [float(line.split(",")[1])
                  for line in out.read_text().splitlines()[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_missing_model_is_data_error(self, opamp_pipeline_config,
                                         tmp_path):
        code = main(["optimize-mofa", "--config", str(opamp_pipeline_config),
                     "--models", str(tmp_path / "nomodels"),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 2


@pytest.fixture
def cpm_models(tmp_path):
    """Train the three circuit-parameter models from the op-amp oracle."""
    from surrokit.oracles import opamp_space
    config = {
        "space": opamp_space().to_dicts(),
        "oracle": {"name": "opamp"},
        "training": {
            "responses": ["gm", "ip", "in"],
            "kinds": ["ann"],
            "ann": {"hidden_sizes": [2], "max_epochs": 150, "seed": 1},
        },
        "vams": {"module_name": "opamp_block"},
    }
    path = tmp_path / "cpm.json"
    path.write_text(json.dumps(config))
    write_toy_models(tmp_path, path)
    return path


class TestEmitVams:
    def test_emits_module_and_weight_files(self, cpm_models, tmp_path,
                                           capsys):
        capsys.readouterr()
        out_dir = tmp_path / "vams"
        code = main(["emit-vams", "--config", str(cpm_models),
                     "--models", str(tmp_path / "models"),
                     "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "opamp_block.vams").exists()
        for prefix in ("gm_", "ip_", "in_"):
            for name in ("w1", "w2", "b1", "b2"):
                assert (out_dir / f"{prefix}{name}.txt").exists()

    def test_regeneration_byte_identical(self, cpm_models, tmp_path, capsys):
        capsys.readouterr()
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        for out in (out1, out2):
            assert main(["emit-vams", "--config", str(cpm_models),
                         "--models", str(tmp_path / "models"),
                         "--out-dir", str(out)]) == 0
        assert (out1 / "opamp_block.vams").read_bytes() == \
            (out2 / "opamp_block.vams").read_bytes()

    def test_missing_model_is_data_error(self, cpm_models, tmp_path):
        code = main(["emit-vams", "--config", str(cpm_models),
                     "--models", str(tmp_path / "empty"),
                     "--out-dir", str(tmp_path / "v")])
        assert code == 2

    def test_model_space_mismatch_is_data_error(self, cpm_models, tmp_path,
                                                capsys):
        from surrokit.oracles import pll_space
        config = json.loads(cpm_models.read_text())
        config["space"] = pll_space().to_dicts()
        cpm_models.write_text(json.dumps(config))
        capsys.readouterr()
        code = main(["emit-vams", "--config", str(cpm_models),
                     "--models", str(tmp_path / "models"),
                     "--out-dir", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert code == 2
        assert "takes 16 inputs, space has 21" in err

    @pytest.mark.parametrize("vams", [{"module_name": "my block"},
                                      {"ports": ["a", "a", "b"]},
                                      {"module_name": "../escaped"}])
    def test_invalid_name_exits_1_writing_nothing(self, cpm_models, tmp_path,
                                                  capsys, vams):
        """A module, port or variable name the emitted Verilog-AMS could
        not declare is a usage error naming 'vams', before any file is
        written."""
        config = json.loads(cpm_models.read_text())
        config["vams"].update(vams)
        cpm_models.write_text(json.dumps(config))
        capsys.readouterr()
        out_dir = tmp_path / "v"
        code = main(["emit-vams", "--config", str(cpm_models),
                     "--models", str(tmp_path / "models"),
                     "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert "'vams'" in err and "Traceback" not in err
        assert not out_dir.exists()
        assert not list(tmp_path.glob("*.vams"))

    @pytest.mark.parametrize("word", ["module", "real", "begin"])
    def test_reserved_word_exits_1_naming_it(self, cpm_models, tmp_path,
                                             capsys, word):
        """A Verilog-AMS reserved word as the module name or a design
        variable's name is a usage error naming the word."""
        config = json.loads(cpm_models.read_text())
        if word == "module":
            config["vams"]["module_name"] = word
        else:
            config["space"][3]["name"] = word
        cpm_models.write_text(json.dumps(config))
        capsys.readouterr()
        out_dir = tmp_path / "v"
        code = main(["emit-vams", "--config", str(cpm_models),
                     "--models", str(tmp_path / "models"),
                     "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 1
        assert f"'{word}' is a Verilog-AMS reserved word" in err
        assert "Traceback" not in err
        assert not out_dir.exists()


class TestCompare:
    """With `kinds: ["ann", "poly"]` (the `sin_project` config) `train` shows
    both families fitted to the same data."""

    def test_nonlinear_oracle_ann_beats_poly(self, sin_project, tmp_path,
                                             capsys):
        code = fit_run("compare", *sin_project, tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "ann-4" in out and "poly-3" in out
        # parse rmse column: ann row then poly row
        rows = [line.split() for line in out.splitlines()
                if line.startswith(("ann-", "poly-"))]
        rmse_by_model = {row[0]: float(row[3]) for row in rows}
        assert rmse_by_model["ann-4"] < rmse_by_model["poly-3"]
        reports = json.loads((tmp_path / "reports.json").read_text())["y"]
        assert {r["model"]: r["rmse"] for r in reports} == \
            pytest.approx(rmse_by_model, rel=1e-3)

    def test_reports_parameter_counts(self, sin_project, tmp_path, capsys):
        fit_run("compare", *sin_project, tmp_path)
        out = capsys.readouterr().out
        assert "params" in out
        # 1 input: 4 hidden weights and biases, 4 output weights and a bias;
        # a cubic in one variable has 4 terms
        reports = json.loads((tmp_path / "reports.json").read_text())["y"]
        assert {r["model"]: r["n_parameters"] for r in reports} == \
            {"ann-4": 13, "poly-3": 4}


class TestInvalidModelFile:
    """A truncated model file is a data error: exit 2 with a stderr line
    naming the file, never a traceback."""

    @pytest.fixture
    def truncated_models(self, opamp_pipeline_config, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        for name in ("sr", "pd", "a0", "bw", "pm", "gm", "ip", "in"):
            (models / f"{name}.json").write_text('{"kind": "ann", "W1": [[')
        return opamp_pipeline_config, models

    @pytest.mark.parametrize("command", ["optimize-mofa", "optimize-abc",
                                         "emit-vams", "report"])
    def test_exit_2_naming_file(self, truncated_models, tmp_path, capsys,
                                command):
        cfg, models = truncated_models
        argv = {
            "optimize-mofa": ["--models", str(models),
                              "--out", str(tmp_path / "o.csv")],
            "optimize-abc": ["--models", str(models),
                             "--out", str(tmp_path / "o.csv")],
            "emit-vams": ["--models", str(models),
                          "--out-dir", str(tmp_path / "v")],
            "report": ["--data", str(tmp_path / "data.csv"),
                       "--model", str(models / "sr.json")],
        }[command]
        if command == "report":
            assert main(["sample", "--config", str(cfg), "--out",
                         str(tmp_path / "data.csv"), "--n", "5",
                         "--evaluate"]) == 0
        capsys.readouterr()
        code = main([command, "--config", str(cfg)] + argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error:") and ".json" in err
        assert "Traceback" not in err


class TestBadSectionValues:
    """Values the spec constructors reject are usage errors naming the
    config section."""

    def run_with(self, cfg_path, tmp_path, capsys, edit, argv):
        config = json.loads(cfg_path.read_text())
        edit(config)
        cfg_path.write_text(json.dumps(config))
        capsys.readouterr()
        code = main(argv)
        return code, capsys.readouterr().err

    def test_mofa_direction(self, opamp_pipeline_config, tmp_path, capsys):
        write_toy_models(tmp_path, opamp_pipeline_config)

        def edit(config):
            config["mofa"]["objectives"][0]["direction"] = "up"
        code, err = self.run_with(
            opamp_pipeline_config, tmp_path, capsys, edit,
            ["optimize-mofa", "--config", str(opamp_pipeline_config),
             "--models", str(tmp_path / "models"),
             "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "'mofa'" in err and "direction" in err

    def test_mofa_population(self, opamp_pipeline_config, tmp_path, capsys):
        write_toy_models(tmp_path, opamp_pipeline_config)

        def edit(config):
            config["mofa"]["K"] = 1
        code, err = self.run_with(
            opamp_pipeline_config, tmp_path, capsys, edit,
            ["optimize-mofa", "--config", str(opamp_pipeline_config),
             "--models", str(tmp_path / "models"),
             "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "'mofa'" in err and "K" in err

    def test_abc_colony_size(self, opamp_pipeline_config, tmp_path, capsys):
        write_toy_models(tmp_path, opamp_pipeline_config)

        def edit(config):
            config["abc"]["colony_size"] = 3
        code, err = self.run_with(
            opamp_pipeline_config, tmp_path, capsys, edit,
            ["optimize-abc", "--config", str(opamp_pipeline_config),
             "--models", str(tmp_path / "models"),
             "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert "'abc'" in err and "colony_size" in err

    @pytest.mark.parametrize("ann", [{"hidden_sizes": [0]},
                                     {"activation": "relu"}])
    def test_train_ann_settings(self, sin_project, tmp_path, capsys, ann):
        cfg, train_csv, verify_csv = sin_project

        def edit(config):
            config["training"]["ann"].update(ann)
        code, err = self.run_with(
            cfg, tmp_path, capsys, edit,
            ["train", "--config", str(cfg), "--train", str(train_csv),
             "--verify", str(verify_csv), "--out-dir", str(tmp_path / "m")])
        assert code == 1
        assert "'training.ann'" in err and next(iter(ann)) in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("key,value", [("lower", True), ("name", 5),
                                           ("lower", "2")])
    def test_space_entry(self, opamp_pipeline_config, tmp_path, capsys, key,
                         value):
        """A `space` value of the wrong type is a usage error naming the
        entry and the key, as in any other config list."""
        code, err = self.run_with(
            opamp_pipeline_config, tmp_path, capsys,
            lambda config: config["space"][2].update({key: value}),
            ["sample", "--config", str(opamp_pipeline_config),
             "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert err.startswith(f"usage error: bad 'space' section: "
                              f"space[2]: {key}: expected")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("key", ["n", "seed"])
    def test_numeric_string_setting(self, opamp_pipeline_config, tmp_path,
                                    capsys, key):
        """A number written as a JSON string is a usage error naming the
        section and the key, though `float()` would read it."""
        code, err = self.run_with(
            opamp_pipeline_config, tmp_path, capsys,
            lambda config: config.update(sampling={key: "7"}),
            ["sample", "--config", str(opamp_pipeline_config),
             "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert err == (f"usage error: bad 'sampling' section: {key}: "
                       f"expected a number, got '7'\n")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("edit", [
        lambda abc: abc["objective"][0].update(weight=True),
        lambda abc: abc["window"][0].update(center=10 ** 400),
        lambda abc: abc["window"][0].update(response=5),
    ], ids=["weight-true", "center-huge", "response-number"])
    def test_abc_entry_numbers(self, opamp_pipeline_config, tmp_path, capsys,
                               edit):
        """A boolean, an integer beyond float range or a number where a
        string belongs in an entry is a usage error, not a traceback."""
        write_toy_models(tmp_path, opamp_pipeline_config)
        code, err = self.run_with(
            opamp_pipeline_config, tmp_path, capsys,
            lambda config: edit(config["abc"]),
            ["optimize-abc", "--config", str(opamp_pipeline_config),
             "--models", str(tmp_path / "models"),
             "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert err.startswith("usage error: bad 'abc' section")


@pytest.fixture(scope="module")
def pipeline_models(tmp_path_factory):
    """The toy models of the pipeline config, trained once for the module."""
    d = tmp_path_factory.mktemp("pipeline")
    (d / "pipeline.json").write_text(json.dumps(pipeline_config()))
    write_toy_models(d, d / "pipeline.json")
    return d / "models"


class TestNonFiniteSettings:
    """json reads NaN, Infinity and -Infinity. In any float setting of the
    optimizers they are usage errors naming the section and the key, not a
    traceback from the models nor a run that prints `fom,inf`."""

    def run_with(self, pipeline_models, tmp_path, capsys, section, path,
                 value):
        config = pipeline_config()
        holder = config[section]
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        cfg = tmp_path / "pipeline.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        capsys.readouterr()
        code = main([{"mofa": "optimize-mofa", "abc": "optimize-abc"}[section],
                     "--config", str(cfg), "--models", str(pipeline_models),
                     "--out", str(out)])
        return code, capsys.readouterr().err, out

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")],
                             ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("section,path", [
        ("mofa", ("beta0",)), ("mofa", ("gamma",)), ("mofa", ("alpha",)),
        ("mofa", ("alpha_decay",)), ("mofa", ("constraints", 0, "bound")),
        ("abc", ("penalty_weight",)), ("abc", ("objective", 0, "weight")),
        ("abc", ("window", 0, "center")),
        ("abc", ("window", 0, "relative_tolerance")),
    ], ids=lambda p: ".".join(map(str, p)) if isinstance(p, tuple) else p)
    def test_exit_1_naming_section_and_key(self, pipeline_models, tmp_path,
                                           capsys, section, path, value):
        code, err, out = self.run_with(pipeline_models, tmp_path, capsys,
                                       section, path, value)
        assert code == 1
        assert err.startswith(f"usage error: bad '{section}' section")
        assert f"{path[-1]}: expected a finite number" in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("key", ["beta0", "gamma", "alpha",
                                     "alpha_decay"])
    def test_negative_mofa_setting(self, pipeline_models, tmp_path, capsys,
                                   key):
        """A negative -1e308 gamma would overflow exp to inf * 0."""
        code, err, out = self.run_with(pipeline_models, tmp_path, capsys,
                                       "mofa", (key,), -1e308)
        assert code == 1
        assert err == (f"usage error: bad 'mofa' section: {key} must be "
                       f"non-negative and finite\n")
        assert not out.exists()


class TestRulesCheckedUpFront:
    """A value a library constructor or `check_*` function rejects fails
    every command before it runs, `sample` among them, naming its section."""

    @pytest.mark.parametrize("section,edit", [
        ("mofa", lambda config: config["mofa"].update(K=1)),
        ("training.poly", lambda config: config["training"].update(
            poly={"degree": 9})),
        ("training.ann", lambda config: config["training"]["ann"].update(
            activation="relu")),
        ("abc", lambda config: config["abc"].update(colony_size=3)),
        ("mofa", lambda config: config["mofa"].update(objectives=[
            {"response": "a0", "direction": "up"}])),
        ("training", lambda config: config["training"].update(
            selection="best")),
        ("training.ann", lambda config: config["training"]["ann"].update(
            hidden_sizes=[0])),
    ], ids=["mofa-K", "poly-degree", "ann-activation", "abc-colony",
            "mofa-direction", "selection", "hidden-size"])
    def test_sample_exits_1(self, opamp_pipeline_config, tmp_path, capsys,
                            section, edit):
        config = json.loads(opamp_pipeline_config.read_text())
        edit(config)
        opamp_pipeline_config.write_text(json.dumps(config))
        code = main(["sample", "--config", str(opamp_pipeline_config),
                     "--out", str(tmp_path / "s.csv"), "--evaluate"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"'{section}'" in err and "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_entry_rejected_before_models_load(self, opamp_pipeline_config,
                                               tmp_path, capsys):
        """A bad entry value is a usage error naming the entry, even with
        no model file present."""
        config = json.loads(opamp_pipeline_config.read_text())
        config["mofa"]["objectives"][0]["direction"] = "up"
        opamp_pipeline_config.write_text(json.dumps(config))
        code = main(["optimize-mofa", "--config", str(opamp_pipeline_config),
                     "--models", str(tmp_path / "no-models"),
                     "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "bad 'mofa' section: objectives[0]: direction" in err
        assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("text", ["3", "[1]", "null"])
def test_config_not_an_object(tmp_path, capsys, text):
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    code = main(["sample", "--config", str(cfg),
                 "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert "JSON object with a 'space' section" in capsys.readouterr().err


class TestTrainAllResponses:
    def test_sweep_matches_per_response_runs(self, opamp_pipeline_config,
                                             tmp_path, capsys):
        """One `train` over several responses saves the same models as one
        `train` per response."""
        write_toy_models(tmp_path, opamp_pipeline_config)
        together = {p.name: json.loads(p.read_text())
                    for p in (tmp_path / "models").iterdir()}
        config = json.loads(opamp_pipeline_config.read_text())
        for response in config["training"]["responses"]:
            config["training"]["responses"] = [response]
            opamp_pipeline_config.write_text(json.dumps(config))
            assert main(["train", "--config", str(opamp_pipeline_config),
                         "--train", str(tmp_path / "train.csv"),
                         "--verify", str(tmp_path / "verify.csv"),
                         "--out-dir", str(tmp_path / "alone")]) == 0
            alone = json.loads((tmp_path / "alone" / f"{response}.json")
                               .read_text())
            for key in ("W1", "b1", "W2", "b2"):
                assert np.allclose(alone[key], together[f"{response}.json"][key],
                                   rtol=0, atol=1e-9)
        capsys.readouterr()


class TestFitSectionsCheckedFirst:
    """Values the RBF and polynomial fitters reject are usage errors naming
    the section, raised before any ANN trains."""

    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an ANN trained before the check")
        monkeypatch.setattr("surrokit.cli.train_anns", fail)

    @pytest.mark.parametrize("section,values", [
        ("poly", {"p_enter": "x"}), ("poly", {"degree": 9}),
        ("poly", {"p_enter": 0.0}), ("poly", {"stepwise": "no"}),
        ("rbf", {"spread": 0.0}), ("rbf", {"max_neurons": "many"}),
        ("rbf", {"error_goal": -1.0}), ("rbf", {"input_scaling": "log"}),
        ("rbf", {"max_neurons": 2.5}), ("poly", {"degree": True}),
        ("rbf", {"spread": 1e300}), ("rbf", {"spread": 1e-160}),
    ])
    @pytest.mark.parametrize("run", ["train", "compare"])
    def test_rejected_value(self, sin_project, tmp_path, capsys, section,
                            values, run):
        """The comparison fits no RBF, and still rejects an RBF value."""
        cfg, train_csv, verify_csv = sin_project
        config = json.loads(cfg.read_text())
        config["training"]["kinds"] = (["ann", "rbf", "poly"] if run == "train"
                                       else ["ann", "poly"])
        config["training"].setdefault(section, {}).update(values)
        cfg.write_text(json.dumps(config))
        code = fit_run(run, cfg, train_csv, verify_csv, tmp_path)
        err = capsys.readouterr().err
        assert code == 1
        assert f"'training.{section}'" in err
        assert next(iter(values)) in err
        assert not (tmp_path / "m").exists()
        assert not (tmp_path / "reports.json").exists()

    @pytest.mark.parametrize("run,section,key,value", [
        ("train", "training", "kinds", ["foo"]),
        ("train", "training", "kinds", []),
        ("train", "training", "kinds", "ann"),
        ("train", "training", "responses", "y"),
        ("train", "training", "responses", [1]),
        ("train", "training.ann", "hidden_sizes", []),
        ("train", "training.ann", "hidden_sizes", "4"),
        ("compare", "training", "responses", "y"),
        ("compare", "training.ann", "hidden_sizes", []),
        ("train", "training.ann", "hidden_sizes", [2.5]),
        ("train", "training.ann", "hidden_sizes", [True]),
        ("compare", "training", "kinds", ["foo"]),
        ("compare", "training", "kinds", "ann"),
        ("train", "training", "responses", ["y", "y"]),
    ])
    def test_rejected_list(self, sin_project, tmp_path, capsys, run,
                           section, key, value):
        """`responses` must be a list of strings, `kinds` a non-empty list
        of model kinds and `hidden_sizes` a non-empty list of integers."""
        cfg, train_csv, verify_csv = sin_project
        config = json.loads(cfg.read_text())
        holder = config["training"]
        if section == "training.ann":
            holder = holder["ann"]
        holder[key] = value
        cfg.write_text(json.dumps(config))
        code = fit_run(run, cfg, train_csv, verify_csv, tmp_path)
        err = capsys.readouterr().err
        assert code == 1
        assert f"'{section}'" in err and key in err
        assert not (tmp_path / "m").exists()
        assert not (tmp_path / "reports.json").exists()


class TestTrainInputFaults:
    def test_bad_max_epochs_is_usage_error(self, sin_project, tmp_path,
                                           capsys):
        cfg, train_csv, verify_csv = sin_project
        config = json.loads(cfg.read_text())
        config["training"]["ann"]["max_epochs"] = "x"
        cfg.write_text(json.dumps(config))
        code = main(["train", "--config", str(cfg), "--train", str(train_csv),
                     "--verify", str(verify_csv),
                     "--out-dir", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 1
        assert "'training.ann'" in err and "max_epochs" in err

    @pytest.mark.parametrize("run", ["train", "compare"])
    def test_too_few_rows_is_data_error(self, sin_project, tmp_path, capsys,
                                        run):
        cfg, train_csv, verify_csv = sin_project
        short = tmp_path / "short.csv"
        data = load_csv(train_csv, ["x"])
        save_csv(SampleSet(data.inputs[:9], {"y": data.response("y")[:9]},
                           ["x"]), short)
        code = fit_run(run, cfg, short, verify_csv, tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert str(short) in err and "10" in err
        assert not (tmp_path / "reports.json").exists()

    def test_repeated_response_column_is_data_error(self, sin_project,
                                                    tmp_path, capsys):
        cfg, train_csv, verify_csv = sin_project
        twice = tmp_path / "twice.csv"
        lines = train_csv.read_text().splitlines()
        twice.write_text("\n".join(f"{line},{line.split(',')[-1]}"
                                   for line in lines) + "\n")
        code = fit_run("train", cfg, twice, verify_csv, tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert str(twice) in err and "'y'" in err
        assert not (tmp_path / "m").exists()

    def test_poly_rank_deficiency_writes_no_model(self, sin_project,
                                                  tmp_path, capsys):
        """A polynomial design of lower rank than its terms exits 3, and
        no model file is written: every response's polynomial is fit
        before the first model is saved."""
        cfg, _, _ = sin_project
        config = json.loads(cfg.read_text())
        config["training"].update(responses=["y", "z"], kinds=["poly"])
        cfg.write_text(json.dumps(config))
        two_points = tmp_path / "two_points.csv"
        x = np.repeat([[0.2], [0.7]], 10, axis=0)
        save_csv(SampleSet(x, {"y": x[:, 0], "z": x[:, 0] ** 2}, ["x"]),
                 two_points)
        code = fit_run("compare", cfg, two_points, two_points, tmp_path)
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: design matrix rank 2 < 4 retained terms\n")
        assert not (tmp_path / "m").exists()
        assert not (tmp_path / "reports.json").exists()

    def test_rbf_exponent_overflow_is_numerical_failure(self, sin_project,
                                                        tmp_path, capfd):
        """A spread whose Gaussian exponent overflows for the training rows
        exits 3 with one stderr line: no numpy warning, no LAPACK text."""
        cfg, train_csv, verify_csv = sin_project
        config = json.loads(cfg.read_text())
        config["training"].update(kinds=["rbf"], rbf={"spread": 1e-154})
        cfg.write_text(json.dumps(config))
        code = fit_run("train", cfg, train_csv, verify_csv, tmp_path)
        err = capfd.readouterr().err
        assert code == 3
        assert err == ("numerical failure: spread 1e-154 overflows the "
                       "Gaussian exponent of these centers\n")
        assert not (tmp_path / "m").exists()

    def test_holdout_takes_every_row_is_data_error(self, sin_project,
                                                   tmp_path, capsys):
        """A holdout fraction that leaves no row to fit exits 2 naming the
        file, its row count and the fraction."""
        cfg, train_csv, verify_csv = sin_project
        config = json.loads(cfg.read_text())
        config["training"]["ann"]["holdout_fraction"] = 0.999
        cfg.write_text(json.dumps(config))
        code = fit_run("train", cfg, train_csv, verify_csv, tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"data error: {train_csv} has 200 rows; "
                       f"holdout_fraction 0.999 leaves none to train on\n")
        assert not (tmp_path / "m").exists()

    def test_constant_verify_response_under_verify_r2(self, sin_project,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        """`verify_r2` cannot rank models of a response that is constant in
        the verification set: exit 2 naming both, before any ANN trains."""
        def fail(*args, **kwargs):
            raise AssertionError("an ANN trained before the check")
        monkeypatch.setattr("surrokit.cli.train_anns", fail)
        cfg, train_csv, verify_csv = sin_project
        config = json.loads(cfg.read_text())
        config["training"]["selection"] = "verify_r2"
        cfg.write_text(json.dumps(config))
        flat = tmp_path / "flat.csv"
        data = load_csv(verify_csv, ["x"])
        save_csv(SampleSet(data.inputs, {"y": np.full(data.n_rows, 1.5)},
                           ["x"]), flat)
        code = fit_run("train", cfg, train_csv, flat, tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: response 'y' is constant in "
                              f"{flat};")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "m").exists()


    def test_response_missing_from_verify_set(self, sin_project, tmp_path,
                                             capsys, monkeypatch):
        """A trained response the verification set lacks exits 2 naming
        the response and the file, before any ANN trains."""
        def fail(*args, **kwargs):
            raise AssertionError("an ANN trained before the check")
        monkeypatch.setattr("surrokit.cli.train_anns", fail)
        cfg, train_csv, verify_csv = sin_project
        other = tmp_path / "other.csv"
        data = load_csv(verify_csv, ["x"])
        save_csv(SampleSet(data.inputs, {"z": data.response("y")}, ["x"]),
                 other)
        code = fit_run("train", cfg, train_csv, other, tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            f"data error: response 'y' not present in {other}\n")
        assert not (tmp_path / "m").exists()


class TestSwappedModelFile:
    """A model file holding the model of another response is a data error
    naming the file, whichever config entry loads it."""

    @pytest.mark.parametrize("command,response,holder", [
        ("optimize-mofa", "sr", "pd"), ("optimize-mofa", "a0", "bw"),
        ("optimize-abc", "pd", "sr"), ("optimize-abc", "a0", "bw"),
    ], ids=["mofa-objective", "mofa-constraint", "abc-objective",
            "abc-window"])
    def test_exit_2(self, opamp_pipeline_config, tmp_path, capsys, command,
                    response, holder):
        write_toy_models(tmp_path, opamp_pipeline_config)
        models = tmp_path / "models"
        (models / f"{response}.json").write_bytes(
            (models / f"{holder}.json").read_bytes())
        capsys.readouterr()
        code = main([command, "--config", str(opamp_pipeline_config),
                     "--models", str(models),
                     "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"data error: {models / response}.json holds a model "
                       f"of {holder!r}, not {response!r}\n")
        assert not (tmp_path / "o.csv").exists()


class TestModelSpaceMismatch:
    """Models trained on a space of another dimension are a data error."""

    @pytest.mark.parametrize("command", ["optimize-mofa", "optimize-abc"])
    def test_exit_2(self, opamp_pipeline_config, tmp_path, capsys, command):
        from surrokit.oracles import pll_space
        write_toy_models(tmp_path, opamp_pipeline_config)
        config = json.loads(opamp_pipeline_config.read_text())
        config["space"] = pll_space().to_dicts()
        opamp_pipeline_config.write_text(json.dumps(config))
        capsys.readouterr()
        code = main([command, "--config", str(opamp_pipeline_config),
                     "--models", str(tmp_path / "models"),
                     "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "takes 16 inputs, space has 21" in err
        assert "Traceback" not in err


class TestMalformedSections:
    """A section or section value of the wrong JSON type is a usage error
    naming the section, never a traceback."""

    @pytest.mark.parametrize("command,section,edit", [
        ("sample", "sampling", {"sampling": {"n": "x"}}),
        ("sample", "sampling", {"sampling": [1]}),
        ("sample", "oracle", {"oracle": {"name": "opamp",
                                         "artificial_delay": "x"}}),
        ("sample", "oracle", {"oracle": ["opamp"]}),
        ("train", "training.ann", {"training": {"ann": [3]}}),
        ("train", "training", {"training": [1]}),
        ("optimize-mofa", "mofa", {"mofa": [1]}),
        ("optimize-mofa", "mofa", {"mofa": {"objectives": ["sr", "pd"]}}),
        ("optimize-abc", "abc", {"abc": [1]}),
        ("optimize-abc", "abc", {"abc": {"objective": [{"response": "pd"}],
                                         "window": ["a0"]}}),
        ("emit-vams", "vams", {"vams": [1]}),
        ("emit-vams", "vams.cpms", {"vams": {"cpms": ["gm"]}}),
        ("sample", "sampling", {"sampling": {"n": float("inf")}}),
        ("sample", "sampling", {"sampling": {"seed": 10 ** 400}}),
        ("optimize-abc", "abc", {"abc": {"objective": [{"response": "pd"}],
                                         "max_cycles": 10 ** 400}}),
        ("sample", "sampling", {"sampling": {"seed": -1}}),
        ("train", "training.ann", {"training": {"ann": {"seed": -1}}}),
        ("optimize-mofa", "mofa", {"mofa": {"seed": -1}}),
        ("optimize-abc", "abc", {"abc": {"seed": -1}}),
        ("sample", "oracle", {"oracle": {"name": "opamp",
                                         "artificial_delay": -1}}),
        ("sample", "oracle", {"oracle": {"name": "opamp",
                                         "artificial_delay": float("nan")}}),
        ("sample", "oracle", {"oracle": {"name": "opamp",
                                         "artificial_delay": float("inf")}}),
        ("emit-vams", "vams.cpms", {"vams": {"cpms": {"gm": 3}}}),
        ("emit-vams", "vams", {"vams": {"hs_numerator": "12"}}),
        ("emit-vams", "vams", {"vams": {"ports": "abcd"}}),
        ("train", "training.ann", {"training": {"ann": {
            "hidden_sizes": [3, 3]}}}),
    ])
    def test_exit_1_naming_section(self, opamp_pipeline_config, tmp_path,
                                   capsys, command, section, edit):
        config = json.loads(opamp_pipeline_config.read_text())
        config.update(edit)
        opamp_pipeline_config.write_text(json.dumps(config))
        d = str(tmp_path)
        argv = {
            "sample": ["--out", f"{d}/s.csv", "--evaluate"],
            "train": ["--train", f"{d}/t.csv", "--verify", f"{d}/v.csv",
                      "--out-dir", f"{d}/m"],
            "optimize-mofa": ["--models", f"{d}/m", "--out", f"{d}/o.csv"],
            "optimize-abc": ["--models", f"{d}/m", "--out", f"{d}/o.csv"],
            "emit-vams": ["--models", f"{d}/m", "--out-dir", f"{d}/v"],
        }[command]
        code = main([command, "--config", str(opamp_pipeline_config)] + argv)
        err = capsys.readouterr().err
        assert code == 1
        assert f"'{section}'" in err and "Traceback" not in err

    def test_negative_seed_flag(self, opamp_pipeline_config, tmp_path,
                                capsys):
        """A flag goes through the cast of the setting it overrides."""
        code = main(["sample", "--config", str(opamp_pipeline_config),
                     "--out", str(tmp_path / "s.csv"), "--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "'sampling'" in err and "non-negative" in err
        assert not (tmp_path / "s.csv").exists()


class TestSeedFlag:
    @pytest.mark.parametrize("command,section", [("optimize-mofa", "mofa"),
                                                 ("optimize-abc", "abc")])
    def test_flag_overrides_config_seed(self, opamp_pipeline_config, tmp_path,
                                        capsys, command, section):
        """`--seed 7` over a configured seed of 3 writes what a configured
        seed of 7 writes."""
        write_toy_models(tmp_path, opamp_pipeline_config)
        config = json.loads(opamp_pipeline_config.read_text())
        outputs = []
        for seed, flag in ((3, ["--seed", "7"]), (7, [])):
            config[section]["seed"] = seed
            opamp_pipeline_config.write_text(json.dumps(config))
            out = tmp_path / f"out-{seed}.csv"
            capsys.readouterr()
            assert main([command, "--config", str(opamp_pipeline_config),
                         "--models", str(tmp_path / "models"),
                         "--out", str(out)] + flag) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]


class TestUnknownSelection:
    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an ANN trained before the check")
        monkeypatch.setattr("surrokit.cli.train_anns", fail)

    @pytest.mark.parametrize("run", ["train", "compare"])
    def test_exit_1_before_any_work(self, sin_project, tmp_path, capsys,
                                    run):
        cfg, train_csv, verify_csv = sin_project
        config = json.loads(cfg.read_text())
        config["training"]["selection"] = "best"
        cfg.write_text(json.dumps(config))
        code = fit_run(run, cfg, train_csv, verify_csv, tmp_path)
        err = capsys.readouterr().err
        assert code == 1
        assert "training.selection" in err
        assert "verify_rmse" in err and "verify_r2" in err
        assert not (tmp_path / "m").exists()
        assert not (tmp_path / "reports.json").exists()


class TestOutputPathsCheckedFirst:
    """An output path that cannot be written is a data error (exit 2)
    naming the path as given, raised before the command reads any input,
    so the run costs nothing and writes nothing."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the command started work before the check")
        for name in ("lhs_sample", "oracles.load_csv", "_load_models"):
            monkeypatch.setattr(f"surrokit.cli.{name}", fail)

    @pytest.mark.parametrize("command,flag,bad", [
        ("sample", "--out", "a directory"),
        ("sample", "--out", "in a missing directory"),
        ("train", "--out-dir", "a file"),
        ("train", "--report-json", "a directory"),
        ("optimize-mofa", "--out", "a directory"),
        ("optimize-abc", "--out", "a directory"),
        ("emit-vams", "--out-dir", "a file"),
    ])
    def test_exit_2_naming_path(self, opamp_pipeline_config, tmp_path,
                                capsys, command, flag, bad):
        (tmp_path / "taken").mkdir()
        (tmp_path / "taken.csv").write_text("x\n")
        path = str(tmp_path / {"a directory": "taken",
                               "in a missing directory": "nodir/out.csv",
                               "a file": "taken.csv"}[bad])
        before = sorted(tmp_path.rglob("*"))
        flags = {"sample": ["--out"],
                 "train": ["--train", "--verify", "--out-dir",
                           "--report-json"],
                 "optimize-mofa": ["--models", "--out"],
                 "optimize-abc": ["--models", "--out"],
                 "emit-vams": ["--models", "--out-dir"]}[command]
        argv = [command, "--config", str(opamp_pipeline_config)]
        for name in flags:
            argv += [name, path if name == flag
                     else str(tmp_path / name.strip("-"))]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("data error:") and repr(path) in err
        assert ".tmp" not in err
        assert sorted(tmp_path.rglob("*")) == before


class TestListEntryMissingKey:
    """A list entry without a key the command reads is a usage error naming
    the entry and the key, raised before any model file is read."""

    @pytest.mark.parametrize("command,section,entries,index,key", [
        ("optimize-mofa", "mofa", "objectives", 0, "response"),
        ("optimize-mofa", "mofa", "constraints", 1, "bound"),
        ("optimize-abc", "abc", "objective", 0, "response"),
        ("optimize-abc", "abc", "window", 0, "center"),
    ])
    def test_exit_1_naming_entry_and_key(self, opamp_pipeline_config,
                                         tmp_path, capsys, command, section,
                                         entries, index, key):
        config = json.loads(opamp_pipeline_config.read_text())
        del config[section][entries][index][key]
        opamp_pipeline_config.write_text(json.dumps(config))
        code = main([command, "--config", str(opamp_pipeline_config),
                     "--models", str(tmp_path / "models"),
                     "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{section}.{entries}[{index}]: missing '{key}'" in err


class TestUnknownKeys:
    """A config key the CLI does not know is a usage error naming where it
    is, whatever the command: every section is read before any runs."""

    @pytest.mark.parametrize("edit,message", [
        (lambda config: config["training"]["ann"].update(max_epoch=10),
         "bad 'training.ann' section: unknown key 'max_epoch'"),
        (lambda config: config["training"].update(rfb={}),
         "bad 'training' section: unknown key 'rfb'"),
        (lambda config: config.update(trainng={}),
         "config: unknown key 'trainng'"),
        (lambda config: config.update({"training.ann": {}}),
         "config: unknown key 'training.ann'"),
        (lambda config: config["mofa"]["objectives"][0].update(wieght=1.0),
         "mofa.objectives[0]: unknown key 'wieght'"),
        (lambda config: config["abc"]["window"][0].update(tolerance=0.1),
         "abc.window[0]: unknown key 'tolerance'"),
        (lambda config: config["space"][2].update(lowr=5.0),
         "space[2]: unknown key 'lowr'"),
        (lambda config: config.update(vams={"cpms": {"gn": "gm"}}),
         "bad 'vams.cpms' section: unknown key 'gn'"),
    ], ids=["section", "subsection", "top-level", "dotted-top-level",
            "mofa-entry", "abc-entry", "space-entry", "vams-cpms"])
    def test_exit_1(self, opamp_pipeline_config, tmp_path, capsys, edit,
                    message):
        config = json.loads(opamp_pipeline_config.read_text())
        edit(config)
        opamp_pipeline_config.write_text(json.dumps(config))
        code = main(["train", "--config", str(opamp_pipeline_config),
                     "--train", str(tmp_path / "t.csv"),
                     "--verify", str(tmp_path / "v.csv"),
                     "--out-dir", str(tmp_path / "m")])
        err = capsys.readouterr().err
        assert code == 1
        assert message in err

    def test_entry_defaults(self, opamp_pipeline_config, tmp_path, capsys):
        """An `abc` entry without `weight` or `relative_tolerance` runs as
        one that sets the defaults, 1 and 0.005."""
        write_toy_models(tmp_path, opamp_pipeline_config)
        config = json.loads(opamp_pipeline_config.read_text())
        outputs = []
        for term, window in (({"weight": 1.0}, {"relative_tolerance": 0.005}),
                             ({}, {})):
            config["abc"]["objective"] = [{"response": "pd", **term}]
            config["abc"]["window"] = [{"response": "a0", "center": 50.0,
                                        **window}]
            opamp_pipeline_config.write_text(json.dumps(config))
            out = tmp_path / f"trace-{len(term)}.csv"
            capsys.readouterr()
            assert main(["optimize-abc", "--config",
                         str(opamp_pipeline_config), "--models",
                         str(tmp_path / "models"), "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["sample", "train", "report"])
def test_header_only_csv_is_data_error(model_project, tmp_path, capsys,
                                       command):
    """A CSV with a header but no rows exits 2 naming the file, whether it
    is a set to stay disjoint from, a verification set or report data."""
    cfg, data, _ = model_project
    empty = tmp_path / "empty.csv"
    empty.write_text("x1,x2,y\n")
    argv = {
        "sample": ["--out", str(tmp_path / "s.csv"), "--n", "5",
                   "--disjoint-from", str(empty)],
        "train": ["--train", str(data), "--verify", str(empty),
                  "--out-dir", str(tmp_path / "m")],
        "report": ["--data", str(empty),
                   "--model", str(data.parent / "poly.json")],
    }[command]
    code = main([command, "--config", str(cfg)] + argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("data error:") and str(empty) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,command,code,kind", [
    (flag, command, code, kind)
    for flag, command, code in [
        ("--config", "sample", 1), ("--train", "train", 2),
        ("--verify", "train", 2), ("--data", "report", 2),
        ("--disjoint-from", "sample", 2)]
    for kind in ("directory", "not UTF-8")
] + [("--out", "sample", 2, "directory")])
def test_unreadable_file_exits_naming_it(model_project, tmp_path, capsys,
                                         flag, command, code, kind):
    """A directory or a file that is not UTF-8 text, given as the config or
    as an input CSV, is a usage error (exit 1) or a data error (exit 2)
    naming the file, and so is an `--out` that names a directory."""
    cfg, data, _ = model_project
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"x1,x2,y\n0.5,\xff1.0,2.0\n")
    argv = {
        "sample": ["--config", str(cfg), "--out", str(tmp_path / "s.csv"),
                   "--n", "5", "--disjoint-from", str(data)],
        "train": ["--config", str(cfg), "--train", str(data),
                  "--verify", str(data), "--out-dir", str(tmp_path / "m")],
        "report": ["--config", str(cfg), "--data", str(data),
                   "--model", str(data.parent / "poly.json")],
    }[command]
    argv[argv.index(flag) + 1] = str(bad)
    assert main([command] + argv) == code
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err


@pytest.fixture(scope="module")
def model_project(tmp_path_factory):
    """A 2-variable config, a data CSV of response "y", and one valid saved
    model dict per family, all predicting "y"."""
    from surrokit.metamodel import AnnModel, PolyModel, RbfModel, save_model
    from surrokit.scaling import Scaler
    d = tmp_path_factory.mktemp("model_project")
    space = DesignSpace((DesignVariable("x1", 0.0, 1.0),
                         DesignVariable("x2", 0.0, 2.0)))
    cfg = d / "config.json"
    cfg.write_text(json.dumps({"space": space.to_dicts()}))
    x = lhs_sample(space, 20, seed=0)
    save_csv(SampleSet(x, {"y": x[:, 0] + x[:, 1] ** 2}, space.names),
             d / "data.csv")
    rng = np.random.default_rng(0)
    scaled = {"input_scaler": Scaler("meanstd", [0.5, 1.0], [0.3, 0.6]),
              "output_scaler": Scaler("minmax", [1.0], [2.0])}
    models = {
        "ann": AnnModel(input_dim=2, hidden_size=3, activation="tanh",
                        W1=rng.normal(size=(3, 2)), b1=rng.normal(size=3),
                        W2=rng.normal(size=3), b2=0.1, response_name="y",
                        **scaled),
        "rbf": RbfModel(input_dim=2, centers=rng.normal(size=(4, 2)),
                        spread=1.5, weights=rng.normal(size=4), bias=0.2,
                        response_name="y", **scaled),
        "poly": PolyModel(input_dim=2, degree=2,
                          terms=[[0, 0], [1, 0], [0, 1], [0, 2], [1, 1]],
                          coefficients=rng.normal(size=5),
                          response_name="y"),
    }
    saved = {}
    for kind, model in models.items():
        save_model(model, d / f"{kind}.json")
        saved[kind] = json.loads((d / f"{kind}.json").read_text())
    return cfg, d / "data.csv", saved


def run_report(model_project, model: dict):
    """`surrokit report` on the model dict `model`: (exit code, stderr)."""
    cfg, data, _ = model_project
    path = data.parent / "mutated.json"
    path.write_text(json.dumps(model))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["report", "--config", str(cfg), "--data", str(data),
                     "--model", str(path)])
    return code, err.getvalue()


class TestModelFileContract:
    """A model file that breaks the model-file contract is a data error:
    exit 2 with one stderr line naming the file, never a traceback."""

    def assert_rejected(self, model_project, model):
        code, err = run_report(model_project, model)
        assert code == 2
        assert err.startswith("data error:") and "mutated.json" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["ann", "rbf", "poly"])
    def test_valid_files_report(self, model_project, kind):
        code, err = run_report(model_project, model_project[2][kind])
        assert code == 0 and err == ""

    @pytest.mark.parametrize("scaler,width", [("input_scaler", 3),
                                              ("output_scaler", 2)])
    def test_rbf_scaler_width(self, model_project, scaler, width):
        model = json.loads(json.dumps(model_project[2]["rbf"]))
        model[scaler] = {"kind": "none", "shift": [0.0] * width,
                         "scale": [1.0] * width}
        self.assert_rejected(model_project, model)

    def test_none_scaler_holding_statistics(self, model_project):
        model = {**model_project[2]["ann"], "input_scaler":
                 {"kind": "none", "shift": [1.0, 2.0], "scale": [3.0, 4.0]}}
        self.assert_rejected(model_project, model)

    @pytest.mark.parametrize("kind", ["rbf", "poly"])
    def test_unknown_role(self, model_project, kind):
        self.assert_rejected(model_project,
                             {**model_project[2][kind], "role": "XYZ"})

    @pytest.mark.parametrize("exponent", [1.5, -1])
    def test_exponent_not_a_non_negative_integer(self, model_project,
                                                 exponent):
        model = {**model_project[2]["poly"], "terms":
                 [[0, 0], [exponent, 0], [0, 1], [0, 2], [1, 1]]}
        self.assert_rejected(model_project, model)

    @pytest.mark.parametrize("shift,scale", [
        ([float("nan"), 1.0], [0.3, 0.6]), ([0.5, 1.0], [float("inf"), 0.6]),
        ([[0.5, 1.0]], [[0.3, 0.6]]),
    ])
    def test_scaler_statistics(self, model_project, shift, scale):
        # json writes and reads NaN and Infinity
        model = {**model_project[2]["ann"], "input_scaler":
                 {"kind": "meanstd", "shift": shift, "scale": scale}}
        self.assert_rejected(model_project, model)

    @pytest.mark.parametrize("kind,field", [
        ("ann", "steepness"), ("ann", "b2"), ("rbf", "spread"),
        ("rbf", "bias"), ("poly", "coefficients")])
    def test_integer_beyond_float_range(self, model_project, kind, field):
        # json reads a 401-digit literal as a Python int
        model = json.loads(json.dumps(model_project[2][kind]))
        model[field] = ([10 ** 400] * len(model[field])
                        if isinstance(model[field], list) else 10 ** 400)
        self.assert_rejected(model_project, model)

    def test_rbf_center_block_beyond_float_range(self, model_project):
        """A spread whose Gaussian exponent overflows for the centers, so
        that every prediction would be NaN."""
        self.assert_rejected(model_project,
                             {**model_project[2]["rbf"], "spread": 1e-160})

    def test_input_count_differs_from_space(self, model_project):
        model = json.loads(json.dumps(model_project[2]["poly"]))
        model["input_dim"] = 3
        model["terms"] = [t + [0] for t in model["terms"]]
        code, err = run_report(model_project, model)
        assert code == 2
        assert "mutated.json takes 3 inputs, space has 2" in err

    def test_emit_vams_rejects_logsig_network(self, cpm_models, tmp_path,
                                              capsys):
        path = tmp_path / "models" / "ip.json"
        model = json.loads(path.read_text())
        model["activation"] = "logsig"
        path.write_text(json.dumps(model))
        capsys.readouterr()
        code = main(["emit-vams", "--config", str(cpm_models),
                     "--models", str(tmp_path / "models"),
                     "--out-dir", str(tmp_path / "v")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(path) in err and "tanh" in err
        assert "Traceback" not in err
        assert not (tmp_path / "v").exists()



def _field_paths(model: dict) -> list[tuple[str, ...]]:
    """Every key of a saved model dict, and every key of its scalers."""
    return [(key,) for key in model] + [
        (key, sub) for key, value in model.items() if isinstance(value, dict)
        for sub in value]


def _mutations(value) -> list[str]:
    out = ["drop", "string", "none", "nan", "list", "huge"]
    if isinstance(value, list) and value:
        out += ["shorter", "longer"]
        if isinstance(value[0], list):
            out.append("transpose")
    if np.size(value) and np.asarray(value).dtype.kind in "if":
        out += ["negative", "fraction"]
    return out


def _mutate(value, how: str, entry: int):
    """`value` changed by the mutation `how`, at flat index `entry` for the
    numeric ones; DROP means the key is removed."""
    if how == "shorter":
        return value[:-1]
    if how == "longer":
        return value + value[-1:]
    if how == "transpose":
        return np.array(value).T.tolist()
    if how in ("negative", "fraction"):
        arr = np.array(value, dtype=float)
        flat = arr.reshape(-1)
        i = entry % flat.size
        flat[i] = -1.0 if how == "negative" else flat[i] + 0.5
        return arr.tolist()
    return {"drop": DROP, "string": "x", "none": None, "nan": float("nan"),
            "list": [1.0, 2.0], "huge": 10 ** 400}[how]


DROP = object()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_model_file_exits_0_or_2(model_project, data):
    """`surrokit report` on a saved ANN, RBF or poly file with one key
    dropped or one value replaced by a string, null, NaN, an integer beyond
    float range, a wrong-length list, its transpose, or a negative or
    fractional number (among them the polynomial exponents) exits 0 or 2,
    never with a traceback."""
    kind = data.draw(st.sampled_from(["ann", "rbf", "poly"]))
    model = json.loads(json.dumps(model_project[2][kind]))
    path = data.draw(st.sampled_from(_field_paths(model)))
    holder = model if len(path) == 1 else model[path[0]]
    how = data.draw(st.sampled_from(_mutations(holder[path[-1]])))
    value = _mutate(holder[path[-1]], how, data.draw(st.integers(0, 50)))
    if value is DROP:
        del holder[path[-1]]
    else:
        holder[path[-1]] = value
    code, err = run_report(model_project, model)
    assert code in (0, 2), err
    assert "Traceback" not in err


def _config_paths(value, path=()) -> list[tuple]:
    """The path (dict keys and list indices) of every value inside
    `value`, whose own path is `path`."""
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    return [path] + [p for key, sub in items
                     for p in _config_paths(sub, path + (key,))]


def _config_values(key):
    """The values a config value at `key` may be set to, among them what the
    section checks reject: the integers 0 and 1 (below a count's minimum),
    and "x" (an unknown choice, or a string where a list is expected).
    Numbers stay in ranges that keep a valid `sample` run short: n <= 64
    rows and at most 1 ms of oracle delay a row."""
    numbers = (st.floats(-1e-3, 1e-3) if key == "artificial_delay"
               else st.sampled_from([0, 1]) | st.integers(-64, 64)
               | st.floats(-64.0, 64.0))
    return numbers | st.sampled_from([
        True, "x", None, [], float("nan"), float("inf"), -float("inf"),
        10 ** 400])


# each example only reads the fixture's file and writes its own files
@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_config_exits_0_to_3(opamp_pipeline_config, tmp_path, data):
    """`surrokit sample --evaluate` on the pipeline config, with every
    section present, after one change exits 0, 1, 2 or 3, never with a
    traceback. The change drops a key or list entry, adds an unknown key to
    an object, or sets a value (a section among them, or any setting of a
    section, configured or not) to a bounded number, `true`, a string,
    `null`, `[]`, NaN, an infinity or an integer beyond float range. Every
    section is read and checked before any command runs, so this one
    command exercises the whole config reader."""
    config = json.loads(opamp_pipeline_config.read_text())
    config["oracle"]["artificial_delay"] = 0.0
    config["sampling"] = {"n": 16, "seed": 1}
    config["training"].update(rbf={}, poly={})
    config["vams"] = {"module_name": "opamp_block", "cpms": {"gm": "gm"}}
    section = data.draw(st.sampled_from(sorted(config)))
    path = data.draw(st.sampled_from(
        [()] + _config_paths(config[section], (section,))))
    holder, value = None, config
    for key in path:
        holder, value = value, value[key]
    dotted = ".".join(map(str, path))
    how = data.draw(st.sampled_from(
        (["add"] if isinstance(value, dict) else [])
        + (["drop", "set"] if path else [])
        + (["setting"] if dotted in _SECTIONS else [])))
    if how == "add":
        value["unknown_key"] = 1
    elif how == "setting":
        key = data.draw(st.sampled_from(sorted(_SECTIONS[dotted])))
        value[key] = data.draw(_config_values(key))
    elif how == "drop":
        del holder[path[-1]]
    else:
        holder[path[-1]] = data.draw(_config_values(path[-1]))
    cfg = tmp_path / "mutated.json"
    cfg.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["sample", "--config", str(cfg),
                     "--out", str(tmp_path / "s.csv"), "--evaluate"])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _mutate_csv(lines: list[str], how: str, row: int, col: int) -> bytes:
    """The CSV of `lines` (header first) changed by the mutation `how` at
    data row `row` and column `col`, both taken modulo the sizes; a byte
    that is not UTF-8 goes `row` percent of the way into the file."""
    cells = [line.split(",") for line in lines]
    r, c = 1 + row % (len(cells) - 1), col % len(cells[0])
    if how == "drop column":
        cells = [line[:c] + line[c + 1:] for line in cells]
    elif how == "extra column":
        cells = [line + (["z"] if i == 0 else ["1"])
                 for i, line in enumerate(cells)]
    elif how == "short row":
        cells[r] = cells[r][:-1]
    elif how in ("text cell", "nan cell"):
        cells[r][c] = "abc" if how == "text cell" else "nan"
    elif how == "header only":
        cells = cells[:1]
    text = "".join(",".join(line) + "\n" for line in cells)
    if how == "blank lines":
        text = text.replace("\n", "\n\n")
    data = text.encode()
    if how == "non-UTF-8 byte":
        at = row * len(data) // 100
        data = data[:at] + b"\xff" + data[at:]
    return data


# each example writes its own files
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_mutated_csv_exits_0_to_3(model_project, tmp_path, data):
    """`train` (the CSV as its training or verification set), `report` and
    `sample --disjoint-from` on a data CSV with a column dropped or added,
    a short row, a non-numeric or NaN cell, blank lines, no data rows or a
    byte that is not UTF-8 exit 0, 1, 2 or 3, never with a traceback."""
    cfg, csv_path, _ = model_project
    config = json.loads(cfg.read_text())
    config["training"] = {"kinds": ["ann", "poly"], "ann": {"max_epochs": 20}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    how = data.draw(st.sampled_from([
        "drop column", "extra column", "short row", "text cell", "nan cell",
        "blank lines", "header only", "non-UTF-8 byte"]))
    mutated = tmp_path / "mutated.csv"
    mutated.write_bytes(_mutate_csv(
        csv_path.read_text().splitlines(), how,
        data.draw(st.integers(0, 100)), data.draw(st.integers(0, 100))))
    good, bad = str(csv_path), str(mutated)
    argv = data.draw(st.sampled_from([
        ["train", "--train", bad, "--verify", good],
        ["train", "--train", good, "--verify", bad],
        ["report", "--data", bad, "--model", str(csv_path.parent / "poly.json")],
        ["sample", "--n", "5", "--disjoint-from", bad],
    ]))
    argv += {"train": ["--out-dir", str(tmp_path / "m")], "report": [],
             "sample": ["--out", str(tmp_path / "s.csv")]}[argv[0]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv[:1] + ["--config", str(tmp_path / "config.json")]
                    + argv[1:])
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_readme_config_runs(tmp_path, monkeypatch, capsys):
    """The README walkthrough runs as written: each `surrokit` line of its
    `sh` block, in order, on its example config, exits 0."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    walkthrough = readme.split("## CLI walkthrough\n", 1)[1]
    config = walkthrough.split("```json\n", 1)[1].split("```", 1)[0]
    script = walkthrough.split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    Path("project.json").write_text(config)
    lines = script.replace("\\\n", " ").splitlines()
    assert len(lines) >= 7
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "surrokit", line
        assert main(argv[1:]) == 0, (line, capsys.readouterr().err)


@pytest.mark.parametrize("module", ["surrokit", "surrokit.cli"])
def test_python_m_runs_the_cli(module):
    """Both `python -m` forms run the CLI: no command is a usage error
    (exit 1) and `--help` exits 0."""
    src = os.path.dirname(os.path.dirname(surrokit.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=env)
    bare = run()
    assert bare.returncode == 1 and "usage error" in bare.stderr
    helped = run("--help")
    assert helped.returncode == 0 and "optimize-mofa" in helped.stdout
