"""Weight-file export/import fidelity and module emission structure."""

import re
from pathlib import Path

import numpy as np
import pytest

from surrokit.errors import DataFormatError
from surrokit.metamodel import AnnModel
from surrokit.scaling import Scaler
from surrokit.vams_codegen import (CPM_KEYS, MacromodelSpec,
                                   emit_vams_module, export_weights,
                                   fold_scalers, import_weights,
                                   write_macromodel)

GOLDEN = Path(__file__).parent / "data" / "golden_macromodel.vams"


def make_model(rng, n, m, scaled=True, activation="tanh"):
    if scaled:
        in_sc = Scaler("meanstd", rng.normal(size=n), rng.uniform(0.5, 2, n))
        out_sc = Scaler("minmax", rng.normal(size=1), rng.uniform(0.5, 2, 1))
    else:
        in_sc, out_sc = Scaler.identity(n), Scaler.identity(1)
    return AnnModel(
        input_dim=n, hidden_size=m, activation=activation,
        W1=rng.normal(size=(m, n)), b1=rng.normal(size=m),
        W2=rng.normal(size=m), b2=float(rng.normal()),
        input_scaler=in_sc, output_scaler=out_sc,
        steepness=float(rng.uniform(0.5, 2.0)), role="CPM",
        response_name="gm",
    )


def fixed_model(n, m):
    """Deterministic model for the golden file: no RNG involved."""
    idx = np.arange(m * n, dtype=float).reshape(m, n)
    return AnnModel(
        input_dim=n, hidden_size=m, activation="tanh",
        W1=0.01 * idx - 0.3, b1=np.linspace(-0.4, 0.4, m),
        W2=np.linspace(0.5, -0.5, m), b2=0.125,
        input_scaler=Scaler.identity(n), output_scaler=Scaler.identity(1),
        role="CPM",
    )


class TestExport:
    def test_minimal_model_one_value_per_file(self, tmp_path):
        rng = np.random.default_rng(0)
        model = make_model(rng, 1, 1, scaled=False)
        bundle = export_weights(model, tmp_path)
        assert len(bundle.w1.split()) == 1
        assert len(bundle.w2.split()) == 1
        assert len(bundle.b1.split()) == 1
        assert len(bundle.b2.split()) == 1
        for name in ("w1", "w2", "b1", "b2"):
            assert (tmp_path / f"{name}.txt").exists()

    def test_reference_shape_order(self, tmp_path):
        # 16 inputs, 4 hidden neurons: w1 carries 64 values, streamed
        # neuron-major so the reader's inner loop walks the inputs
        rng = np.random.default_rng(1)
        model = make_model(rng, 16, 4, scaled=False)
        bundle = export_weights(model, tmp_path)
        values = [float(t) for t in bundle.w1.split()]
        assert len(values) == 64
        assert np.allclose(values[:16], model.W1[0] * model.steepness)
        assert np.allclose(values[16:32], model.W1[1] * model.steepness)

    def test_logsig_rejected(self, tmp_path):
        model = make_model(np.random.default_rng(2), 2, 2,
                           activation="logsig")
        with pytest.raises(ValueError, match="tanh"):
            export_weights(model, tmp_path)

    def test_prefix_applied(self, tmp_path):
        model = make_model(np.random.default_rng(3), 2, 3)
        export_weights(model, tmp_path, prefix="gm_")
        assert (tmp_path / "gm_w1.txt").exists()
        assert not (tmp_path / "w1.txt").exists()


class TestImport:
    def test_round_trip_prediction(self, tmp_path):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            model = make_model(rng, n, m)
            export_weights(model, tmp_path, prefix=f"t{trial}_")
            clone = import_weights(tmp_path, m, n, prefix=f"t{trial}_")
            pts = rng.normal(size=(200, n))
            assert np.max(np.abs(model.predict(pts) - clone.predict(pts))) < 1e-9

    def test_round_trip_through_files(self, tmp_path):
        rng = np.random.default_rng(5)
        model = make_model(rng, 3, 4)
        bundle = export_weights(model, tmp_path)
        for name in ("w1", "w2", "b1", "b2"):
            assert (tmp_path / f"{name}.txt").read_text() == \
                getattr(bundle, name)
        clone = import_weights(tmp_path, 4, 3)
        pts = rng.normal(size=(50, 3))
        assert np.max(np.abs(model.predict(pts) - clone.predict(pts))) < 1e-9

    def test_truncated_file_names_the_file(self, tmp_path):
        model = make_model(np.random.default_rng(6), 3, 2)
        export_weights(model, tmp_path)
        w1 = tmp_path / "w1.txt"
        w1.write_text("\n".join(w1.read_text().split()[:-1]))
        with pytest.raises(DataFormatError, match="w1.txt"):
            import_weights(tmp_path, 2, 3)

    def test_trailing_whitespace_tolerated(self, tmp_path):
        model = make_model(np.random.default_rng(7), 2, 2)
        bundle = export_weights(model, tmp_path)
        (tmp_path / "w1.txt").write_text(bundle.w1 + "  \n\n")
        (tmp_path / "b2.txt").write_text(bundle.b2 + "\t\n")
        clone = import_weights(tmp_path, 2, 2)
        pts = np.random.default_rng(8).normal(size=(10, 2))
        assert np.max(np.abs(model.predict(pts) - clone.predict(pts))) < 1e-9

    def test_non_numeric_token(self, tmp_path):
        for name, text in (("w1", "abc"), ("w2", "1"), ("b1", "1"),
                           ("b2", "1")):
            (tmp_path / f"{name}.txt").write_text(text)
        with pytest.raises(DataFormatError, match="non-numeric"):
            import_weights(tmp_path, 1, 1)


class TestFoldScalers:
    def test_folded_model_has_identity_scalers(self):
        model = make_model(np.random.default_rng(9), 4, 3)
        folded = fold_scalers(model)
        assert folded.input_scaler.kind == "none"
        assert folded.output_scaler.kind == "none"
        assert folded.steepness == 1.0

    def test_predictions_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            model = make_model(rng, int(rng.integers(1, 6)),
                               int(rng.integers(1, 6)))
            folded = fold_scalers(model)
            pts = rng.normal(size=(100, model.input_dim))
            assert np.max(np.abs(model.predict(pts) - folded.predict(pts))) < 1e-9


def macromodel_fixture():
    n, m = 4, 2
    cpms = {key: fixed_model(n, m) for key in ("gm", "ip", "in")}
    return MacromodelSpec(
        module_name="opamp_block",
        variable_names=("wd", "wm", "ib", "cc"),
        parameter_defaults=(5.5, 5.5, 55.0, 2.75),
        cpms=cpms,
    )


class TestEmit:
    def test_structural_tokens_in_order(self):
        text = emit_vams_module(macromodel_fixture())
        tokens = ["function real nn_metamodel", "$fopen", "initial",
                  "analog", "endmodule"]
        pos = -1
        for token in tokens:
            new = text.find(token)
            assert new > pos, f"token {token!r} out of order"
            pos = new

    def test_three_distinct_prefixes(self):
        text = emit_vams_module(macromodel_fixture())
        for prefix in ("gm_", "ip_", "in_"):
            for name in ("w1", "w2", "b1", "b2"):
                assert f'$fopen("{prefix}{name}.txt", "r")' in text

    def test_design_variables_are_parameters(self):
        text = emit_vams_module(macromodel_fixture())
        assert "parameter real wd = 5.5;" in text
        assert "parameter real cc = 2.75;" in text
        assert "x[3] = cc;" in text

    def test_laplace_placeholder_present(self):
        assert "laplace_nd" in emit_vams_module(macromodel_fixture())

    def test_missing_cpm_rejected(self):
        with pytest.raises(ValueError, match="missing circuit-parameter"):
            MacromodelSpec(module_name="m", variable_names=("a",),
                           parameter_defaults=(1.0,),
                           cpms={"gm": fixed_model(1, 1)})

    def test_regeneration_byte_identical(self):
        spec = macromodel_fixture()
        assert emit_vams_module(spec) == emit_vams_module(spec)

    def test_matches_golden_file(self):
        text = emit_vams_module(macromodel_fixture())
        assert text == GOLDEN.read_text()


class TestSpecNames:
    """Module, port and design-variable names must be Verilog-AMS
    identifiers, and ports and variables need names of their own."""

    @pytest.mark.parametrize("names", [
        {"module_name": "my block"},
        {"module_name": "../escaped"},
        {"module_name": "2stage"},
        {"ports": ("a", "a", "b")},
        {"ports": ("inp", "inn", "out\n")},
        {"variable_names": ("wd", "wm", "ib", "inp")},
        {"variable_names": ("wd", "wm", "ib", "x")},
        {"variable_names": ("wd", "wm", "gm_val", "cc")},
        {"ports": ("inp", "inn", "i_stage1")},
        {"variable_names": ("wd", "wd", "ib", "cc")},
    ])
    def test_rejected(self, names):
        spec = macromodel_fixture()
        fields = {"module_name": spec.module_name,
                  "variable_names": spec.variable_names,
                  "parameter_defaults": spec.parameter_defaults,
                  "cpms": spec.cpms, **names}
        with pytest.raises(ValueError):
            MacromodelSpec(**fields)

    @pytest.mark.parametrize("names, word", [
        ({"module_name": "module"}, "module"),
        ({"variable_names": ("wd", "real", "ib", "cc")}, "real"),
        ({"variable_names": ("wd", "wm", "begin", "cc")}, "begin"),
    ])
    def test_reserved_word_rejected(self, names, word):
        """A reserved word matches the identifier pattern but cannot name
        anything in the emitted text."""
        spec = macromodel_fixture()
        fields = {"module_name": spec.module_name,
                  "variable_names": spec.variable_names,
                  "parameter_defaults": spec.parameter_defaults,
                  "cpms": spec.cpms, **names}
        with pytest.raises(ValueError, match=f"'{word}' is a Verilog-AMS "
                                             f"reserved word"):
            MacromodelSpec(**fields)

    def test_near_reserved_words_accepted(self):
        spec = macromodel_fixture()
        MacromodelSpec(module_name="module_1", ports=("inp", "inn", "Out"),
                       variable_names=("real_1", "begin2", "Real", "cc"),
                       parameter_defaults=spec.parameter_defaults,
                       cpms=spec.cpms)

    def test_underscores_and_digits_accepted(self):
        spec = macromodel_fixture()
        MacromodelSpec(module_name="_block_2", ports=("in_p", "in_n", "o1"),
                       variable_names=("w_d", "wm2", "ib", "cc"),
                       parameter_defaults=spec.parameter_defaults,
                       cpms=spec.cpms)


class TestWriteMacromodel:
    """`write_macromodel` writes the weight files the module reads and the
    module itself, nothing else."""

    @pytest.fixture
    def written(self, tmp_path):
        rng = np.random.default_rng(11)
        spec = macromodel_fixture()
        cpms = {key: make_model(rng, 4, 3) for key in CPM_KEYS}
        spec = MacromodelSpec(
            module_name=spec.module_name,
            variable_names=spec.variable_names,
            parameter_defaults=spec.parameter_defaults, cpms=cpms)
        out = tmp_path / "out"
        return spec, out, write_macromodel(spec, out)

    def test_module_opens_exactly_the_files_written(self, written):
        spec, out, path = written
        assert path == out / "opamp_block.vams"
        text = path.read_text()
        assert text == emit_vams_module(spec)
        opened = set(re.findall(r'\$fopen\("([^"]*)"', text))
        assert len(opened) == 12
        assert {p.name for p in out.iterdir()} == opened | {path.name}

    def test_weight_files_round_trip_each_cpm(self, written):
        spec, out, _ = written
        pts = np.random.default_rng(12).normal(size=(100, 4))
        for key, model in spec.cpms.items():
            clone = import_weights(out, model.hidden_size, model.input_dim,
                                   prefix=f"{key}_")
            assert np.max(np.abs(model.predict(pts)
                                 - clone.predict(pts))) < 1e-9
