"""End-to-end command behavior and exit codes."""

import json

import numpy as np
import pytest

from surrokit.cli import main
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


@pytest.fixture
def opamp_pipeline_config(tmp_path):
    from surrokit.oracles import opamp_space
    config = {
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
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(config))
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


class TestCompare:
    def test_nonlinear_oracle_ann_beats_poly(self, sin_project, capsys):
        cfg, train_csv, verify_csv = sin_project
        code = main(["compare", "--config", str(cfg),
                     "--train", str(train_csv), "--verify", str(verify_csv),
                     "--response", "y"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ann-4" in out and "poly-3" in out
        # parse rmse column: ann row then poly row
        rows = [line.split() for line in out.splitlines()
                if line.startswith(("ann-", "poly-"))]
        rmse_by_model = {row[0]: float(row[3]) for row in rows}
        assert rmse_by_model["ann-4"] < rmse_by_model["poly-3"]

    def test_reports_parameter_counts(self, sin_project, capsys):
        cfg, train_csv, verify_csv = sin_project
        main(["compare", "--config", str(cfg), "--train", str(train_csv),
              "--verify", str(verify_csv)])
        out = capsys.readouterr().out
        assert "params" in out


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
        assert "'training.ann'" in err
        assert not (tmp_path / "m").exists()


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
    ])
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_rejected_value(self, sin_project, tmp_path, capsys, section,
                            values, command):
        cfg, train_csv, verify_csv = sin_project
        config = json.loads(cfg.read_text())
        config["training"]["kinds"] = ["ann", "rbf", "poly"]
        config["training"].setdefault(section, {}).update(values)
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg), "--train", str(train_csv),
                "--verify", str(verify_csv)]
        if command == "train":
            argv += ["--out-dir", str(tmp_path / "m")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert f"'training.{section}'" in err
        assert next(iter(values)) in err
        assert not (tmp_path / "m").exists()


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

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_too_few_rows_is_data_error(self, sin_project, tmp_path, capsys,
                                        command):
        cfg, train_csv, verify_csv = sin_project
        short = tmp_path / "short.csv"
        data = load_csv(train_csv, ["x"])
        save_csv(SampleSet(data.inputs[:9], {"y": data.response("y")[:9]},
                           ["x"]), short)
        argv = [command, "--config", str(cfg), "--train", str(short),
                "--verify", str(verify_csv)]
        if command == "train":
            argv += ["--out-dir", str(tmp_path / "m")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert str(short) in err and "10" in err


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
        ("emit-vams", "vams", {"vams": {"cpms": ["gm"]}}),
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

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_exit_1_before_any_work(self, sin_project, tmp_path, capsys,
                                    command):
        cfg, train_csv, verify_csv = sin_project
        config = json.loads(cfg.read_text())
        config["training"]["selection"] = "best"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg), "--train", str(train_csv),
                "--verify", str(verify_csv)]
        if command == "train":
            argv += ["--out-dir", str(tmp_path / "m")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert "training.selection" in err
        assert "verify_rmse" in err and "verify_r2" in err
        assert not (tmp_path / "m").exists()


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
