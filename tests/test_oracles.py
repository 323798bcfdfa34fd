"""Built-in oracle surfaces and SampleSet CSV persistence."""

import dataclasses
import time

import numpy as np
import pytest

from surrokit.design_space import lhs_sample
from surrokit.errors import DataFormatError
from surrokit.oracles import (builtin_opamp_oracle, builtin_pll_oracle,
                              evaluate, load_csv, opamp_space, pll_space,
                              response_model, save_csv)
from surrokit.training import SampleSet


class TestOpampOracle:
    def setup_method(self):
        self.oracle = builtin_opamp_oracle()
        self.space = opamp_space()

    def test_dimensions(self):
        assert self.oracle.input_dim == 16
        assert len(self.oracle.response_names) == 8
        assert set(self.oracle.response_names) == {
            "a0", "bw", "pm", "sr", "pd", "gm", "ip", "in"}
        assert self.space.dim == 16

    def test_midpoint_finite(self):
        mid = (self.space.lower + self.space.upper) / 2.0
        out = evaluate(self.oracle, mid[None, :], self.space.names)
        for name in self.oracle.response_names:
            assert np.isfinite(out.response(name)[0])

    def test_deterministic(self):
        pts = lhs_sample(self.space, 10, seed=1)
        a = evaluate(self.oracle, pts, self.space.names)
        b = evaluate(self.oracle, pts, self.space.names)
        for name in self.oracle.response_names:
            assert np.array_equal(a.response(name), b.response(name))

    def test_constraint_region_nonempty(self):
        # the reference constraint set must be satisfiable but not trivial
        pts = lhs_sample(self.space, 2000, seed=2)
        out = evaluate(self.oracle, pts, self.space.names)
        feasible = ((out.response("a0") > 43.0)
                    & (out.response("bw") > 50.0)
                    & (out.response("pm") > 70.0))
        assert 0.01 < feasible.mean() < 0.9


class TestPllOracle:
    def setup_method(self):
        self.oracle = builtin_pll_oracle()
        self.space = pll_space()

    def test_dimensions(self):
        assert self.oracle.input_dim == 21
        assert self.oracle.response_names == ("freq", "power", "lock_time")
        assert self.space.dim == 21

    def test_smooth_over_dense_sampling(self):
        pts = lhs_sample(self.space, 10_000, seed=3)
        out = evaluate(self.oracle, pts, self.space.names)
        for name in self.oracle.response_names:
            assert np.all(np.isfinite(out.response(name)))

    def test_frequency_centered_near_target(self):
        pts = lhs_sample(self.space, 5000, seed=4)
        freq = evaluate(self.oracle, pts, self.space.names).response("freq")
        assert freq.min() < 2.7 < freq.max()
        assert abs(np.median(freq) - 2.7) < 0.3
        # the 0.5% window is reachable
        assert np.any(np.abs(freq - 2.7) <= 0.005 * 2.7)

    def test_deterministic(self):
        pts = lhs_sample(self.space, 5, seed=5)
        a = evaluate(self.oracle, pts, self.space.names)
        b = evaluate(self.oracle, pts, self.space.names)
        assert np.array_equal(a.response("freq"), b.response("freq"))


class TestEvaluate:
    def test_row_counts(self):
        space = opamp_space()
        pts = lhs_sample(space, 100, seed=6)
        out = evaluate(builtin_opamp_oracle(), pts, space.names)
        assert out.n_rows == 100
        for name in out.response_names:
            assert out.response(name).shape == (100,)

    def test_empty_input(self):
        out = evaluate(builtin_opamp_oracle(), np.zeros((0, 16)))
        assert out.n_rows == 0
        assert out.response("a0").shape == (0,)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            evaluate(builtin_opamp_oracle(), np.zeros((3, 5)))

    def test_artificial_delay_scales_with_rows(self):
        oracle = dataclasses.replace(builtin_opamp_oracle(),
                                     artificial_delay=0.01)
        pts = lhs_sample(opamp_space(), 100, seed=7)
        start = time.perf_counter()
        evaluate(oracle, pts)
        assert time.perf_counter() - start >= 1.0

    @pytest.mark.parametrize("delay", [-1.0, float("nan"), float("inf")])
    def test_delay_must_be_finite_and_non_negative(self, delay):
        with pytest.raises(ValueError, match="artificial_delay"):
            dataclasses.replace(builtin_opamp_oracle(),
                                artificial_delay=delay)

    def test_response_model_wraps_single_response(self):
        oracle = builtin_opamp_oracle()
        model = response_model(oracle, "gm")
        pts = lhs_sample(opamp_space(), 8, seed=8)
        direct = evaluate(oracle, pts).response("gm")
        assert np.array_equal(model.predict(pts), direct)

    def test_response_model_unknown_response(self):
        with pytest.raises(KeyError):
            response_model(builtin_opamp_oracle(), "nope")


class TestCsv:
    def make_set(self, seed=9, rows=20):
        rng = np.random.default_rng(seed)
        return SampleSet(
            inputs=rng.normal(size=(rows, 3)) * rng.uniform(0.1, 100),
            responses={"y1": rng.normal(size=rows) * 1e-7,
                       "y2": rng.normal(size=rows) * 1e6},
            variable_names=["a", "b", "c"],
        )

    def test_round_trip_bit_exact(self, tmp_path):
        original = self.make_set()
        path = tmp_path / "set.csv"
        save_csv(original, path)
        loaded = load_csv(path, ["a", "b", "c"])
        assert np.array_equal(loaded.inputs, original.inputs)
        for name in ("y1", "y2"):
            assert np.array_equal(loaded.response(name),
                                  original.response(name))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "set.csv"
        save_csv(self.make_set(), path)
        assert path.read_text().splitlines()[0] == "a,b,c,y1,y2"

    def test_nan_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,nan\n")
        with pytest.raises(DataFormatError, match="row 2, column 2"):
            load_csv(path, ["a"])

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1.0,fast\n")
        with pytest.raises(DataFormatError, match="row 1, column 2"):
            load_csv(path, ["a"])

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n")
        with pytest.raises(DataFormatError, match="no data rows"):
            load_csv(path, ["a"])

    def test_wrong_variables_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("z,y\n1.0,2.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_csv(path, ["a"])

    def test_repeated_response_rejected(self, tmp_path):
        """A response named twice is a data error naming the file and the
        name, not a set holding the last of the two columns."""
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y,y\n1.0,2.0,3.0,4.0\n")
        with pytest.raises(DataFormatError,
                           match=r"bad\.csv: response column 'y' appears"):
            load_csv(path, ["a", "b"])

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n1.0,2.0\n1.0\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_csv(path, ["a"])

    def test_inputs_only_round_trip(self, tmp_path):
        ss = SampleSet(np.arange(6.0).reshape(3, 2), {}, ["a", "b"])
        path = tmp_path / "inputs.csv"
        save_csv(ss, path)
        loaded = load_csv(path, ["a", "b"])
        assert loaded.response_names == []
        assert np.array_equal(loaded.inputs, ss.inputs)
