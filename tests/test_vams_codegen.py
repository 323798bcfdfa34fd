"""Weight-file export/import fidelity and module emission structure."""

from pathlib import Path

import numpy as np
import pytest

from surrokit.errors import DataFormatError
from surrokit.metamodel import AnnModel
from surrokit.scaling import Scaler
from surrokit.vams_codegen import (MacromodelSpec, WeightBundle,
                                   emit_vams_module, export_weights,
                                   fold_scalers, import_weights)

GOLDEN = Path(__file__).parent / "data" / "golden_macromodel.vams"


def read_bundle(directory, nl, size_x):
    """The WeightBundle of the four weight files in `directory`."""
    return WeightBundle(nl=nl, size_x=size_x,
                        **{name: (directory / f"{name}.txt").read_text()
                           for name in ("w1", "w2", "b1", "b2")})


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
            bundle = export_weights(model, tmp_path, prefix=f"t{trial}_")
            clone = import_weights(bundle)
            pts = rng.normal(size=(200, n))
            assert np.max(np.abs(model.predict(pts) - clone.predict(pts))) < 1e-9

    def test_round_trip_through_files(self, tmp_path):
        rng = np.random.default_rng(5)
        model = make_model(rng, 3, 4)
        export_weights(model, tmp_path)
        bundle = read_bundle(tmp_path, nl=4, size_x=3)
        clone = import_weights(bundle)
        pts = rng.normal(size=(50, 3))
        assert np.max(np.abs(model.predict(pts) - clone.predict(pts))) < 1e-9

    def test_truncated_file_names_the_file(self, tmp_path):
        model = make_model(np.random.default_rng(6), 3, 2)
        export_weights(model, tmp_path)
        w1 = tmp_path / "w1.txt"
        w1.write_text("\n".join(w1.read_text().split()[:-1]))
        with pytest.raises(DataFormatError, match="w1.txt"):
            read_bundle(tmp_path, nl=2, size_x=3)

    def test_trailing_whitespace_tolerated(self, tmp_path):
        model = make_model(np.random.default_rng(7), 2, 2)
        bundle = export_weights(model, tmp_path)
        padded = WeightBundle(w1=bundle.w1 + "  \n\n", w2=bundle.w2,
                              b1=bundle.b1, b2=bundle.b2 + "\t\n",
                              nl=2, size_x=2)
        clone = import_weights(padded)
        pts = np.random.default_rng(8).normal(size=(10, 2))
        assert np.max(np.abs(model.predict(pts) - clone.predict(pts))) < 1e-9

    def test_non_numeric_token(self):
        with pytest.raises(DataFormatError, match="non-numeric"):
            WeightBundle(w1="abc", w2="1", b1="1", b2="1", nl=1, size_x=1)


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


def macromodel_fixture(tmp_path):
    n, m = 4, 2
    cpms = {key: fixed_model(n, m) for key in ("gm", "ip", "in")}
    spec = MacromodelSpec(
        module_name="opamp_block",
        variable_names=("wd", "wm", "ib", "cc"),
        parameter_defaults=(5.5, 5.5, 55.0, 2.75),
        cpms=cpms,
    )
    bundles = {key: export_weights(model, tmp_path, prefix=f"{key}_")
               for key, model in cpms.items()}
    return spec, bundles


class TestEmit:
    def test_structural_tokens_in_order(self, tmp_path):
        spec, bundles = macromodel_fixture(tmp_path)
        text = emit_vams_module(spec, bundles)
        tokens = ["function real nn_metamodel", "$fopen", "initial",
                  "analog", "endmodule"]
        pos = -1
        for token in tokens:
            new = text.find(token)
            assert new > pos, f"token {token!r} out of order"
            pos = new

    def test_three_distinct_prefixes(self, tmp_path):
        spec, bundles = macromodel_fixture(tmp_path)
        text = emit_vams_module(spec, bundles)
        for prefix in ("gm_", "ip_", "in_"):
            for name in ("w1", "w2", "b1", "b2"):
                assert f'$fopen("{prefix}{name}.txt", "r")' in text

    def test_design_variables_are_parameters(self, tmp_path):
        spec, bundles = macromodel_fixture(tmp_path)
        text = emit_vams_module(spec, bundles)
        assert "parameter real wd = 5.5;" in text
        assert "parameter real cc = 2.75;" in text
        assert "x[3] = cc;" in text

    def test_laplace_placeholder_present(self, tmp_path):
        spec, bundles = macromodel_fixture(tmp_path)
        text = emit_vams_module(spec, bundles)
        assert "laplace_nd" in text

    def test_missing_bundle_rejected(self, tmp_path):
        spec, bundles = macromodel_fixture(tmp_path)
        del bundles["ip"]
        with pytest.raises(ValueError, match="ip"):
            emit_vams_module(spec, bundles)

    def test_missing_cpm_rejected(self):
        with pytest.raises(ValueError, match="missing circuit-parameter"):
            MacromodelSpec(module_name="m", variable_names=("a",),
                           parameter_defaults=(1.0,),
                           cpms={"gm": fixed_model(1, 1)})

    def test_regeneration_byte_identical(self, tmp_path):
        spec, bundles = macromodel_fixture(tmp_path)
        assert emit_vams_module(spec, bundles) == emit_vams_module(spec, bundles)

    def test_matches_golden_file(self, tmp_path):
        spec, bundles = macromodel_fixture(tmp_path)
        text = emit_vams_module(spec, bundles)
        assert text == GOLDEN.read_text()
