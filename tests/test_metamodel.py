"""Prediction math and persistence for the three model families."""

import math
import warnings

import numpy as np
import pytest

from surrokit.metamodel import (PREDICT_BLOCK, AnnModel, AnnStack,
                                CallableModel, ModelBank, PolyModel, RbfModel,
                                load_model, poly_basis, save_model)
from surrokit.scaling import Scaler, apply as scale_apply, fit_scaler
from surrokit.scaling import invert as scale_invert


def make_ann(W1, b1, W2, b2, activation="tanh", steepness=1.0,
             input_scaler=None, output_scaler=None):
    W1 = np.atleast_2d(np.asarray(W1, dtype=float))
    m, n = W1.shape
    return AnnModel(
        input_dim=n, hidden_size=m, activation=activation,
        W1=W1, b1=np.asarray(b1, dtype=float), W2=np.asarray(W2, dtype=float),
        b2=float(b2), steepness=steepness,
        input_scaler=input_scaler or Scaler.identity(n),
        output_scaler=output_scaler or Scaler.identity(1),
    )


def random_ann(rng, n=None, m=None, scaled=False, activation="tanh"):
    n = n or int(rng.integers(1, 7))
    m = m or int(rng.integers(1, 7))
    if scaled:
        in_sc = Scaler("meanstd", rng.normal(size=n), rng.uniform(0.5, 2, n))
        out_sc = Scaler("meanstd", rng.normal(size=1), rng.uniform(0.5, 2, 1))
    else:
        in_sc, out_sc = Scaler.identity(n), Scaler.identity(1)
    return make_ann(rng.normal(size=(m, n)), rng.normal(size=m),
                    rng.normal(size=m), rng.normal(), activation=activation,
                    steepness=float(rng.uniform(0.5, 2.0)),
                    input_scaler=in_sc, output_scaler=out_sc)


def folded_views(model):
    """(W1, b1, W2, b2) of `model.folded`, the weights predict runs."""
    return AnnStack([model.hidden_size], model.input_dim).views(model.folded)


class TestAnnPredict:
    def test_zero_weights_collapse_to_bias(self):
        model = make_ann(np.zeros((3, 2)), np.zeros(3), np.zeros(3), 4.5)
        for x in ([0.0, 0.0], [1.0, -2.0], [100.0, 3.0]):
            assert model.predict(x) == 4.5

    def test_tanh_at_zero(self):
        model = make_ann([[1.0]], [0.0], [1.0], 0.0)
        assert model.predict([0.0]) == 0.0

    def test_tanh_at_one(self):
        model = make_ann([[1.0]], [0.0], [1.0], 0.0)
        assert model.predict([1.0]) == pytest.approx(math.tanh(1.0),
                                                     abs=1e-15)
        assert model.predict([1.0]) == pytest.approx(0.7615941559557649)

    def test_logsig_formula(self):
        model = make_ann([[2.0]], [0.5], [1.0], 0.0, activation="logsig",
                         steepness=1.5)
        x = 0.7
        expected = 1.0 / (1.0 + math.exp(-1.5 * (0.5 + 2.0 * x)))
        assert model.predict([x]) == pytest.approx(expected, rel=1e-14)

    def test_steepness_scales_net_input(self):
        lam = 2.5
        model = make_ann([[1.0]], [0.3], [1.0], 0.0, steepness=lam)
        assert model.predict([0.4]) == pytest.approx(
            math.tanh(lam * (0.3 + 0.4)), rel=1e-14)

    def test_dimension_mismatch(self):
        model = make_ann(np.ones((2, 3)), np.zeros(2), np.ones(2), 0.0)
        with pytest.raises(ValueError, match="columns"):
            model.predict([1.0, 2.0])

    def test_non_finite_input_rejected(self):
        model = make_ann([[1.0]], [0.0], [1.0], 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            model.predict([float("nan")])

    @pytest.mark.parametrize("activation", ["tanh", "logsig"])
    @pytest.mark.parametrize("rows", [1, PREDICT_BLOCK + 5])
    def test_closed_form(self, activation, rows):
        """predict is exactly f(pts W1^T + b1) @ W2 + b2 on the raw rows,
        with the `AnnStack` views of the model's `folded` weights, for one
        row and for a batch that spans two blocks."""
        rng = np.random.default_rng(rows)
        model = random_ann(rng, scaled=True, activation=activation)
        w1, b1, w2, b2 = folded_views(model)
        pts = rng.normal(size=(rows, model.input_dim))
        z = pts @ w1.T + b1
        h = np.tanh(z) if activation == "tanh" else 1.0 / (1.0 + np.exp(-z))
        expected = h @ w2 + b2[0]
        if rows == 1:
            assert model.predict(pts[0]) == expected[0]
        else:
            assert np.array_equal(model.predict(pts), expected)

    def test_batch_matches_single(self):
        # BLAS may pick different kernels per shape: allow last-bit noise
        rng = np.random.default_rng(0)
        model = random_ann(rng, scaled=True)
        pts = rng.normal(size=(20, model.input_dim))
        batch = model.predict(pts)
        singles = [model.predict(p) for p in pts]
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-12)

    def test_prediction_pure(self):
        rng = np.random.default_rng(1)
        model = random_ann(rng, scaled=True)
        x = rng.normal(size=model.input_dim)
        assert model.predict(x) == model.predict(x)

    @pytest.mark.parametrize("case", range(40))
    def test_folded_form_bound(self, case):
        """predict, which runs the folded weights, stays within
        (n + m + 4) * eps * M of the unfolded formula of the AnnModel
        docstring evaluated in float64, for n inputs and m hidden units,
        where M = |c| + a (|b2| + sum_j |W2[j]| (1 + steepness (|b1[j]| +
        sum_i |W1[j, i]| (|x_i| + |shift_i|) / scale_i))) bounds every term
        either form adds (a and c the output scale and shift; tanh and the
        logistic are 1-Lipschitz and at most 1 in size). Input scalers have
        |shift| / scale from 1e-3 to 1e3, so folding the shift into b1
        cancels up to three digits."""
        rng = np.random.default_rng(300 + case)
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 9))
        activation = ("tanh", "logsig")[case % 2]
        scale = 10.0 ** rng.uniform(-3, 3, n)
        ratio = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)
        shift = ratio * scale
        in_sc = Scaler(("meanstd", "minmax")[case // 2 % 2], shift, scale)
        out_sc = Scaler("meanstd", rng.normal(size=1) * 100.0,
                        10.0 ** rng.uniform(-3, 3, 1))
        model = make_ann(rng.normal(size=(m, n)), rng.normal(size=m),
                         rng.normal(size=m), rng.normal(),
                         activation=activation,
                         steepness=float(rng.uniform(0.25, 4.0)),
                         input_scaler=in_sc, output_scaler=out_sc)
        pts = shift + scale * rng.normal(size=(64, n))
        z = model.steepness * (scale_apply(in_sc, pts) @ model.W1.T + model.b1)
        h = np.tanh(z) if activation == "tanh" else 1.0 / (1.0 + np.exp(-z))
        want = scale_invert(out_sc, (h @ model.W2 + model.b2)[:, None])[:, 0]
        a, c = out_sc.scale[0], abs(out_sc.shift[0])
        inner = model.steepness * (
            np.abs(model.b1)
            + (np.abs(pts) + np.abs(shift)) / scale @ np.abs(model.W1).T)
        size = c + a * (abs(model.b2) + (1.0 + inner) @ np.abs(model.W2))
        bound = (n + m + 4) * np.finfo(float).eps * size
        assert np.all(np.abs(model.predict(pts) - want) <= bound)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            make_ann([[1.0]], [0.0], [1.0], 0.0, steepness=0.0)
        with pytest.raises(ValueError):
            make_ann([[np.inf]], [0.0], [1.0], 0.0)
        with pytest.raises(ValueError):
            make_ann([[1.0, 2.0]], [0.0, 0.0], [1.0], 0.0)

    def test_overflowing_folded_weights_rejected(self):
        """A network whose weights overflow once its input scale is folded
        in has no prediction form, so it cannot be built."""
        with pytest.raises(ValueError, match="overflows"):
            make_ann([[1e300]], [0.0], [1.0], 0.0, input_scaler=Scaler(
                "meanstd", np.zeros(1), np.full(1, 1e-10)))


class TestRbfPredict:
    def make(self, centers, weights, bias, spread=1.0):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        return RbfModel(
            input_dim=centers.shape[1], centers=centers, spread=spread,
            weights=np.asarray(weights, dtype=float), bias=bias,
            input_scaler=Scaler.identity(centers.shape[1]),
            output_scaler=Scaler.identity(1),
        )

    def test_at_center(self):
        model = self.make([[1.0, 2.0]], [3.5], bias=0.0)
        assert model.predict([1.0, 2.0]) == 3.5  # rho(0) = 1

    def test_far_from_centers_approaches_bias(self):
        model = self.make([[0.0, 0.0]], [5.0], bias=2.0, spread=0.1)
        assert model.predict([50.0, 50.0]) == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_centers(self):
        # x equidistant from both centers: contributions are equal
        a = 1.7
        model = self.make([[-1.0], [1.0]], [a, a], bias=0.0, spread=0.9)
        expected = 2 * a * math.exp(-((1.0 / 0.9) ** 2))
        assert model.predict([0.0]) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_form(self):
        spread = 0.6
        model = self.make([[0.0]], [1.0], bias=0.0, spread=spread)
        r = 0.45
        assert model.predict([r]) == pytest.approx(
            math.exp(-((r / spread) ** 2)), rel=1e-13)

    def test_zero_neurons_is_bias(self):
        model = RbfModel(input_dim=2, centers=np.zeros((0, 2)), spread=1.0,
                         weights=np.zeros(0), bias=1.5,
                         input_scaler=Scaler.identity(2),
                         output_scaler=Scaler.identity(1))
        assert model.predict([3.0, 4.0]) == 1.5

    def test_dimension_mismatch(self):
        model = self.make([[0.0, 0.0]], [1.0], bias=0.0)
        with pytest.raises(ValueError):
            model.predict([1.0])


class TestPolyPredict:
    def test_constant_model(self):
        model = PolyModel(input_dim=2, degree=1,
                          terms=np.zeros((1, 2), dtype=int),
                          coefficients=np.array([4.25]))
        assert model.predict([9.0, -3.0]) == 4.25

    def test_univariate_quadratic(self):
        # 1 + 2x + 3x^2 at x = 2 -> 17
        model = PolyModel(input_dim=1, degree=2,
                          terms=np.array([[0], [1], [2]]),
                          coefficients=np.array([1.0, 2.0, 3.0]))
        assert model.predict([2.0]) == 17.0

    def test_zero_coefficients(self):
        model = PolyModel(input_dim=3, degree=2,
                          terms=np.array([[0, 0, 0], [1, 1, 0]]),
                          coefficients=np.zeros(2))
        assert model.predict([1.0, 2.0, 3.0]) == 0.0

    def test_cross_term(self):
        model = PolyModel(input_dim=2, degree=3,
                          terms=np.array([[1, 2]]),
                          coefficients=np.array([2.0]))
        assert model.predict([3.0, 2.0]) == pytest.approx(2 * 3 * 4)

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PolyModel(input_dim=1, degree=2, terms=np.array([[1], [1]]),
                      coefficients=np.array([1.0, 2.0]))

    def test_degree_overflow_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            PolyModel(input_dim=2, degree=1, terms=np.array([[1, 1]]),
                      coefficients=np.array([1.0]))


def power_prod_basis(x, terms):
    """Reference monomial basis: the rows x terms x vars power tensor."""
    return np.prod(x[:, None, :] ** terms[None, :, :], axis=2)


class TestPolyBasis:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
    def test_matches_power_prod(self, degree):
        from surrokit.training import monomial_exponents
        rng = np.random.default_rng(degree)
        x = rng.uniform(-3, 3, (40, 4))
        terms = monomial_exponents(4, degree)
        got = poly_basis(x, terms)
        want = power_prod_basis(x, terms)
        assert got.shape == (40, len(terms))
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def test_zero_terms(self):
        x = np.ones((5, 3))
        assert poly_basis(x, np.zeros((0, 3), dtype=int)).shape == (5, 0)
        model = PolyModel(input_dim=3, degree=1,
                          terms=np.zeros((0, 3), dtype=int),
                          coefficients=np.zeros(0))
        assert np.array_equal(model.predict(x), np.zeros(5))

    def test_intercept_only(self):
        x = np.random.default_rng(1).random((6, 2))
        assert np.array_equal(poly_basis(x, np.zeros((1, 2), dtype=int)),
                              np.ones((6, 1)))

    def test_predict_memory_is_rows_times_terms(self):
        """A 1e4-row predict of the 253-term PLL degree-2 model stays far
        below the 425 MB of the power tensor."""
        import tracemalloc
        from surrokit.training import monomial_exponents
        terms = monomial_exponents(21, 2)
        assert len(terms) == 253
        rng = np.random.default_rng(2)
        model = PolyModel(input_dim=21, degree=2, terms=terms,
                          coefficients=rng.standard_normal(253))
        x = rng.random((10_000, 21))
        tracemalloc.start()
        try:
            y = model.predict(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20
        ref = power_prod_basis(x[:100], terms) @ model.coefficients
        assert np.allclose(y[:100], ref, rtol=1e-12, atol=1e-12)


def broadcast_rbf_design(xs, centers, spread):
    """Reference Gaussian design: the rows x centers x vars difference
    tensor."""
    d2 = ((xs[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / spread ** 2)


def rbf_columns(xs, centers, spread):
    """The Gaussian columns `RbfModel.predict` computes on the rows `xs`,
    one per center: a predict with identity scalers, one-hot weights and no
    bias gives each column exactly."""
    n = centers.shape[1]
    return np.column_stack([
        RbfModel(input_dim=n, centers=centers, spread=spread, weights=w,
                 bias=0.0, input_scaler=Scaler.identity(n),
                 output_scaler=Scaler.identity(1)).predict(xs)
        for w in np.eye(len(centers))])


class TestRbfDesign:
    def test_matches_broadcast(self):
        rng = np.random.default_rng(3)
        centers = rng.normal(size=(7, 5))
        xs = np.vstack([rng.normal(size=(50, 5)), centers])
        got = rbf_columns(xs, centers, 1.3)
        want = broadcast_rbf_design(xs, centers, 1.3)
        assert got.shape == (57, 7)
        assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_at_centers_at_most_one(self):
        rng = np.random.default_rng(4)
        centers = rng.uniform(-3, 3, (40, 16))
        phi = np.diagonal(rbf_columns(centers, centers, 0.7))
        assert np.all(phi > 1 - 1e-12) and np.all(phi <= 1.0)

    @pytest.mark.parametrize("spread", [2.0, 1.3])
    @pytest.mark.parametrize("point", ["1-row", "1-D"])
    def test_single_point_predict(self, spread, point):
        """A one-row and a 1-D-point predict, at a power-of-two spread and
        at another, equal the broadcast reference."""
        rng = np.random.default_rng(8)
        model = RbfModel(input_dim=16, centers=rng.normal(size=(60, 16)),
                         spread=spread, weights=rng.normal(size=60), bias=0.3,
                         input_scaler=Scaler("meanstd", rng.normal(size=16),
                                             rng.uniform(0.5, 2, 16)),
                         output_scaler=Scaler("meanstd", [1.0], [2.0]))
        for x in rng.normal(size=(20, 16)):
            phi = broadcast_rbf_design(
                scale_apply(model.input_scaler, x[None, :]), model.centers,
                spread)
            want = (phi @ model.weights + 0.3) * 2.0 + 1.0
            got = model.predict(x if point == "1-D" else x[None, :])
            assert np.ndim(got) == (0 if point == "1-D" else 1)
            assert abs(np.squeeze(got) - want[0]) <= 1e-12 * abs(want[0])

    def test_center_block_is_read_only(self):
        model = screening_models(np.random.default_rng(9))["rbf"]
        block = model._kernel[0]
        assert block.flags.writeable is False
        with pytest.raises(ValueError):
            block[0, 0] = 1.0

    def test_far_rows_are_zero_without_warning(self):
        centers = np.random.default_rng(5).normal(size=(3, 4))
        xs = np.full((2, 4), 1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = rbf_columns(xs, centers, 0.1)
        assert np.array_equal(phi, np.zeros((2, 3)))


class TestRbfFarRows:
    """Rows far from every center: their Gaussians are 0, so the model
    predicts its bias, alone or in a batch, with no numpy warning."""

    @staticmethod
    def model(spread):
        return RbfModel(input_dim=2, centers=[[0.0, 0.0], [1.0, 1.0]],
                        spread=spread, weights=[1.0, 2.0], bias=0.5,
                        input_scaler=Scaler.identity(2),
                        output_scaler=Scaler.identity(1))

    @pytest.mark.parametrize("spread,row", [(1.0, (1e308, 0.0)),
                                            (1e-150, (1e10, 0.0))])
    def test_single_row_and_batch(self, spread, row):
        model = self.model(spread)
        near = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.25]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alone = model.predict(row)
            batch = model.predict(np.vstack([row, near[0]]))
            mixed = model.predict(np.vstack([near, row, near]))
            want = model.predict(near)
        assert alone == 0.5 and batch[0] == 0.5
        assert batch[1] == model.predict(near[0])
        assert mixed[3] == 0.5
        np.testing.assert_array_equal(mixed[[0, 1, 2]], want)
        np.testing.assert_array_equal(mixed[[4, 5, 6]], want)

    def test_overflowing_scaled_row(self):
        """A row whose scaled values overflow is far too."""
        model = RbfModel(input_dim=1, centers=[[0.0]], spread=1.0,
                         weights=[1.0], bias=0.5,
                         input_scaler=Scaler("meanstd", [0.0], [1e-10]),
                         output_scaler=Scaler.identity(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert model.predict([1e305]) == 0.5
            assert model.predict([0.0]) == 1.5


def screening_models(rng, n=16):
    """An ANN (12 hidden), a degree-2 polynomial (153 terms) and an RBF (80
    neurons) of `n` inputs, with scaled inputs and outputs."""
    from surrokit.training import monomial_exponents
    in_sc = Scaler("meanstd", rng.normal(size=n), rng.uniform(0.5, 2, n))
    out_sc = Scaler("meanstd", [1.0], [2.0])
    terms = monomial_exponents(n, 2)
    return {
        "ann": make_ann(rng.normal(size=(12, n)), rng.normal(size=12),
                        rng.normal(size=12), 0.1, input_scaler=in_sc,
                        output_scaler=out_sc),
        "poly": PolyModel(input_dim=n, degree=2, terms=terms,
                          coefficients=rng.normal(size=len(terms))),
        "rbf": RbfModel(input_dim=n, centers=rng.normal(size=(80, n)),
                        spread=2.0, weights=rng.normal(size=80), bias=0.3,
                        input_scaler=in_sc, output_scaler=out_sc),
    }


class TestBlockwisePredict:
    @pytest.mark.parametrize("family", ["ann", "poly", "rbf"])
    def test_matches_row_blocks(self, family):
        rng = np.random.default_rng(6)
        model = screening_models(rng)[family]
        x = rng.random((2 * PREDICT_BLOCK + 3, 16))
        got = model.predict(x)
        want = np.concatenate([model.predict(x[i:i + 1000])
                               for i in range(0, len(x), 1000)])
        assert got.shape == (len(x),)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13

    def test_rbf_predicts_repeat_and_leave_model_unchanged(self):
        """Every work array is per call: two predicts on one model return
        equal arrays, and neither changes the model's arrays."""
        rng = np.random.default_rng(13)
        model = screening_models(rng)["rbf"]
        def arrays():  # the kernel is the center block and its bound
            return model.centers, model.weights, *model._kernel
        before = [np.copy(a) for a in arrays()]
        x = rng.random((100, 16))
        first = model.predict(x)
        second = model.predict(x)
        assert first is not second and np.array_equal(first, second)
        for old, new in zip(before, arrays()):
            assert np.array_equal(old, new)

    def test_zero_neuron_rbf_is_bias(self):
        model = RbfModel(input_dim=2, centers=np.zeros((0, 2)), spread=1.0,
                         weights=np.zeros(0), bias=1.5,
                         input_scaler=Scaler.identity(2),
                         output_scaler=Scaler.identity(1))
        x = np.ones((2 * PREDICT_BLOCK + 3, 2))
        assert np.array_equal(model.predict(x), np.full(len(x), 1.5))

    @pytest.mark.parametrize("family", ["ann", "poly", "rbf"])
    def test_memory_does_not_grow_with_rows(self, family):
        """A 2e5-row predict peaks far below its rows x (terms or neurons)
        temporaries (490 MB for the polynomial)."""
        import tracemalloc
        rng = np.random.default_rng(7)
        model = screening_models(rng)[family]
        x = rng.random((200_000, 16))
        tracemalloc.start()
        try:
            model.predict(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


class TestCallableModel:
    def test_wraps_function(self):
        model = CallableModel(input_dim=2, fn=lambda X: X[:, 0] + X[:, 1])
        assert model.predict([2.0, 3.0]) == 5.0
        out = model.predict(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert np.allclose(out, [2.0, 4.0])


class TestPersistence:
    def test_ann_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        model = random_ann(rng, scaled=True)
        path = tmp_path / "m.json"
        save_model(model, path)
        clone = load_model(path)
        pts = rng.normal(size=(30, model.input_dim))
        assert np.array_equal(model.predict(pts), clone.predict(pts))

    def test_rbf_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(8, 3))
        model = RbfModel(
            input_dim=3, centers=data, spread=0.7,
            weights=rng.normal(size=8), bias=0.4,
            input_scaler=fit_scaler(data, "meanstd"),
            output_scaler=Scaler.identity(1), response_name="bw",
        )
        save_model(model, tmp_path / "m.json")
        clone = load_model(tmp_path / "m.json")
        pts = rng.normal(size=(20, 3))
        assert np.array_equal(model.predict(pts), clone.predict(pts))
        assert clone.response_name == "bw"

    def test_poly_round_trip(self, tmp_path):
        model = PolyModel(input_dim=2, degree=2,
                          terms=np.array([[0, 0], [1, 0], [0, 2]]),
                          coefficients=np.array([1.0, -2.0, 0.5]),
                          response_name="pd")
        save_model(model, tmp_path / "m.json")
        clone = load_model(tmp_path / "m.json")
        pts = np.random.default_rng(12).normal(size=(10, 2))
        assert np.array_equal(model.predict(pts), clone.predict(pts))

    def test_saved_key_order(self, tmp_path):
        """Each kind's file keeps its keys in this order, so files written
        before and after a change to the persistence code stay identical."""
        import json
        rng = np.random.default_rng(15)
        rbf = RbfModel(input_dim=2, centers=np.ones((1, 2)), spread=1.0,
                       weights=np.ones(1), bias=0.0,
                       input_scaler=Scaler.identity(2),
                       output_scaler=Scaler.identity(1))
        poly = PolyModel(input_dim=1, degree=1, terms=np.array([[1]]),
                         coefficients=np.array([2.0]))
        golden = {
            "ann": (random_ann(rng, scaled=True),
                    ["kind", "input_dim", "hidden_size", "activation",
                     "steepness", "W1", "b1", "W2", "b2", "input_scaler",
                     "output_scaler", "role", "response_name"]),
            "rbf": (rbf, ["kind", "input_dim", "centers", "spread", "weights",
                          "bias", "radial_kind", "input_scaler",
                          "output_scaler", "role", "response_name"]),
            "poly": (poly, ["kind", "input_dim", "degree", "terms",
                            "coefficients", "role", "response_name"]),
        }
        for kind, (model, keys) in golden.items():
            save_model(model, tmp_path / "m.json")
            saved = json.loads((tmp_path / "m.json").read_text())
            assert list(saved) == keys
            assert saved["kind"] == kind

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "kriging"}')
        with pytest.raises(ValueError, match="kind"):
            load_model(path)

    def test_invalid_file_is_data_format_error(self, tmp_path):
        from surrokit.errors import DataFormatError
        rng = np.random.default_rng(13)
        path = tmp_path / "m.json"
        save_model(random_ann(rng), path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(DataFormatError, match="m.json"):
            load_model(path)
        path.write_text("[]")
        with pytest.raises(DataFormatError, match="m.json"):
            load_model(path)

    def test_failed_save_keeps_existing_file(self, tmp_path, monkeypatch):
        import surrokit.metamodel as metamodel_module
        rng = np.random.default_rng(14)
        path = tmp_path / "m.json"
        save_model(random_ann(rng), path)
        before = path.read_bytes()

        def broken_dump(obj, fh, **kwargs):
            fh.write('{"kind": "ann", "W1": [')
            raise OSError("disk full")

        monkeypatch.setattr(metamodel_module.json, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            save_model(random_ann(rng), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


class TestFieldContract:
    """Every family checks each array field for its exact shape and finite
    values, and its role and scaler widths, the same way."""

    def rbf(self, **fields):
        return RbfModel(**{"input_dim": 2, "centers": np.zeros((1, 2)),
                           "spread": 1.0, "weights": np.ones(1), "bias": 0.0,
                           "input_scaler": Scaler.identity(2),
                           "output_scaler": Scaler.identity(1), **fields})

    def poly(self, **fields):
        return PolyModel(**{"input_dim": 2, "degree": 3,
                            "terms": np.array([[0, 0], [1, 2]]),
                            "coefficients": np.ones(2), **fields})

    @pytest.mark.parametrize("scaler,width", [("input_scaler", 3),
                                              ("output_scaler", 2)])
    def test_rbf_scaler_width(self, scaler, width):
        with pytest.raises(ValueError, match=scaler):
            self.rbf(**{scaler: Scaler.identity(width)})

    def test_role(self):
        for build in (self.rbf, self.poly):
            with pytest.raises(ValueError, match="role"):
                build(role="XYZ")

    def test_centers_exact_shape(self):
        # a 2x2 matrix of centers with one weight is not one 4-D center
        with pytest.raises(ValueError, match="centers"):
            self.rbf(input_dim=4, centers=np.arange(4.0).reshape(2, 2),
                     input_scaler=Scaler.identity(4))

    def test_terms_exact_shape(self):
        with pytest.raises(ValueError, match="terms"):
            self.poly(terms=np.array([[0, 0, 1, 2]]))

    @pytest.mark.parametrize("exponent", [1.5, -1, 1e20])
    def test_exponents_non_negative_integers(self, exponent):
        # [[-1, 2]] used to predict 3.0 at (2, 3), where x^-1 y^2 is 4.5
        with pytest.raises(ValueError, match="terms"):
            self.poly(terms=np.array([[0, 0], [exponent, 2]]))

    def test_integer_fields(self):
        with pytest.raises(ValueError, match="input_dim"):
            self.poly(input_dim=2.0)
        with pytest.raises(ValueError, match="degree"):
            self.poly(degree=0)

    def test_loaded_fields_read_only_and_exact(self, tmp_path):
        for model in (self.rbf(), self.poly(), self.rbf(
                centers=np.zeros((0, 2)), weights=np.zeros(0))):
            save_model(model, tmp_path / "m.json")
            clone = load_model(tmp_path / "m.json")
            for name in ("centers", "weights", "terms", "coefficients"):
                if hasattr(model, name):
                    arr = getattr(clone, name)
                    assert arr.shape == getattr(model, name).shape
                    assert arr.dtype == getattr(model, name).dtype
                    assert not arr.flags.writeable

    def test_non_finite_scaler_in_file_is_rejected(self, tmp_path):
        import json
        from surrokit.errors import DataFormatError
        save_model(self.rbf(), tmp_path / "m.json")
        saved = json.loads((tmp_path / "m.json").read_text())
        saved["input_scaler"]["shift"] = [float("nan"), 0.0]
        (tmp_path / "m.json").write_text(json.dumps(saved))
        with pytest.raises(DataFormatError, match="shift"):
            load_model(tmp_path / "m.json")


def assert_columns_match(bank_out, models, x):
    """Each bank column equals its model's `predict` to 1e-12 relative to
    the column's largest magnitude."""
    assert bank_out.shape == (len(x), len(models))
    for col, model in zip(bank_out.T, models):
        want = model.predict(x)
        assert np.max(np.abs(col - want)) <= 1e-12 * np.max(np.abs(want))


def stacked_closed_form(models, pts):
    """The predictions of ANNs of one activation, written out as one
    network over all their hidden units with their folded weights (the
    `AnnStack` views of each `folded`), in which network k's output weights
    are its W2 on its own units and 0 on the others: the arithmetic of one
    `ModelBank` stack, step for step."""
    w1, b1, w2, b2 = zip(*(folded_views(m) for m in models))
    owner = np.repeat(np.arange(len(models)), [m.hidden_size for m in models])
    w_out = ((owner[:, None] == np.arange(len(models)))
             * np.concatenate(w2)[:, None])
    z = pts @ np.vstack(w1).T + np.concatenate(b1)
    tanh = models[0].activation == "tanh"
    h = np.tanh(z) if tanh else 1.0 / (1.0 + np.exp(-z))
    return h @ w_out + np.concatenate(b2)


class TestModelBank:
    def single_stack(self, rng, n=3):
        """Three tanh ANNs on one input scaler, which form one stack holding
        every column, as in each bank of the op-amp flow."""
        scaler = Scaler("meanstd", rng.normal(size=n), rng.uniform(0.5, 2, n))
        models = []
        for _ in range(3):
            m = int(rng.integers(1, 6))
            out = Scaler("meanstd", rng.normal(size=1) + 5.0,
                         rng.uniform(0.5, 2, 1))
            models.append(make_ann(rng.normal(size=(m, n)), rng.normal(size=m),
                                   rng.normal(size=m), rng.normal(),
                                   input_scaler=scaler, output_scaler=out))
        return models

    def mixed_models(self, rng, n=3):
        """Stacked tanh and logsig ANNs in two input-scaler groups, with an
        RBF, a polynomial and a callable between them."""
        in_a = Scaler("meanstd", rng.normal(size=n), rng.uniform(0.5, 2, n))
        in_b = Scaler("minmax", rng.normal(size=n), rng.uniform(0.5, 2, n))

        def ann(scaler, activation, steepness=1.0):
            m = int(rng.integers(1, 6))
            out = Scaler("meanstd", rng.normal(size=1) + 5.0,
                         rng.uniform(0.5, 2, 1))
            return make_ann(rng.normal(size=(m, n)), rng.normal(size=m),
                            rng.normal(size=m), rng.normal(),
                            activation=activation, steepness=steepness,
                            input_scaler=scaler, output_scaler=out)

        rbf = RbfModel(input_dim=n, centers=rng.normal(size=(4, n)),
                       spread=1.5, weights=rng.normal(size=4), bias=2.0,
                       input_scaler=in_a, output_scaler=Scaler.identity(1))
        poly = PolyModel(input_dim=n, degree=2,
                         terms=np.array([[0] * n, [1] + [0] * (n - 1),
                                         [1, 1] + [0] * (n - 2)]),
                         coefficients=np.array([3.0, -1.0, 0.5]))
        func = CallableModel(input_dim=n, fn=lambda x: 1.0 + x[:, 0] * x[:, 1])
        return [ann(in_a, "tanh"), rbf, ann(in_b, "tanh"),
                ann(in_a, "tanh"), poly, ann(in_a, "logsig", 1.5),
                func, ann(in_b, "tanh"), ann(in_a, "logsig", 1.5)]

    def test_is_each_models_predict(self):
        rng = np.random.default_rng(41)
        models = self.mixed_models(rng)
        x = rng.normal(size=(17, 3))
        assert_columns_match(ModelBank(models).predict(x), models, x)

    def test_equal_scalers_stack_by_value(self, tmp_path):
        """ANNs loaded from separate files hold separate, equal scalers and
        still run as one stack."""
        rng = np.random.default_rng(7)
        scaler = Scaler("meanstd", rng.normal(size=2), rng.uniform(0.5, 2, 2))
        for i in range(3):
            model = make_ann(rng.normal(size=(3, 2)), rng.normal(size=3),
                             rng.normal(size=3), rng.normal() + 4.0,
                             input_scaler=scaler)
            save_model(model, tmp_path / f"m{i}.json")
        models = [load_model(tmp_path / f"m{i}.json") for i in range(3)]
        assert models[0].input_scaler is not models[1].input_scaler
        bank = ModelBank(models)
        assert len(bank._stacks) == 1
        x = rng.normal(size=(9, 2))
        assert_columns_match(bank.predict(x), models, x)

    @pytest.mark.parametrize("shift,scale", [([1.0, 2.0], [3.0, 4.0]),
                                             ([0.0, 0.0], [1.0, 2.0]),
                                             ([0.0, -1.0], [1.0, 1.0])],
                             ids=["shift-and-scale", "scale", "shift"])
    def test_none_scaler_holding_statistics_is_rejected(self, shift, scale):
        """A "none" scaler is the identity, so it holds shift 0 and scale 1:
        otherwise a model would predict one thing and its folded Verilog-A
        copy (which folds shift and scale whatever the kind) another."""
        with pytest.raises(ValueError, match="'none' scaler"):
            Scaler("none", np.array(shift), np.array(scale))

    def test_single_row(self):
        rng = np.random.default_rng(3)
        models = self.mixed_models(rng)
        bank = ModelBank(models)
        x = rng.normal(size=3)
        out = bank.predict(x)
        assert out.shape == (1, len(models))
        np.testing.assert_array_equal(out, bank.predict(x[None, :]))
        assert_columns_match(out, models, x[None, :])

    def test_more_rows_than_a_block(self):
        rng = np.random.default_rng(5)
        models = self.mixed_models(rng)
        x = rng.normal(size=(PREDICT_BLOCK + 37, 3))
        out = ModelBank(models).predict(x)
        assert_columns_match(out, models, x)
        # a row's prediction does not depend on the block it falls in
        np.testing.assert_array_equal(out[-5:],
                                      ModelBank(models).predict(x[-5:]))

    # the columns of each stack of the two banks, one per activation
    # whatever the scalers and steepness; the rest are not ANNs
    STACKS = {"single-stack": [[0, 1, 2]],
              "mixed": [[0, 2, 3, 7], [5, 8]]}

    @pytest.mark.parametrize("rows", [1, 2, 20, PREDICT_BLOCK + 1, "1-D"])
    @pytest.mark.parametrize("kind", ["single-stack", "mixed"])
    def test_bit_identical_to_closed_form(self, kind, rows):
        """Each stack's columns are its closed form bit for bit, block by
        block, and every other column is its model's own predict, whether
        the one stack's output is returned as it is, scattered into the
        bank's matrix or computed in blocks."""
        rng = np.random.default_rng(7)
        models = (self.single_stack(rng) if kind == "single-stack"
                  else self.mixed_models(rng))
        x = rng.normal(size=3 if rows == "1-D" else (rows, 3))
        pts = np.atleast_2d(x)
        want = np.column_stack([m.predict(pts) for m in models])
        for cols in self.STACKS[kind]:
            for start in range(0, len(pts), PREDICT_BLOCK):
                block = slice(start, start + PREDICT_BLOCK)
                want[block, cols] = stacked_closed_form(
                    [models[c] for c in cols], pts[block])
        bank = ModelBank(models)
        assert len(bank._stacks) == len(self.STACKS[kind])
        np.testing.assert_array_equal(bank.predict(x), want)

    def test_ann_input_counts_must_agree(self):
        rng = np.random.default_rng(2)
        models = [random_ann(rng, n=2), random_ann(rng, n=3)]
        with pytest.raises(ValueError, match=r"input counts \[2, 3\]"):
            ModelBank(models)

    def test_every_models_input_count_must_agree(self):
        """Any two models of different input counts fail when the bank is
        made, not at its first predict: a 3-input polynomial beside a
        16-input ANN, or beside a 2-input callable with no ANN at all."""
        rng = np.random.default_rng(2)
        poly = PolyModel(input_dim=3, degree=1, terms=np.eye(3, dtype=int),
                         coefficients=np.ones(3))
        func = CallableModel(input_dim=2, fn=lambda x: x[:, 0])
        for models, dims in (([random_ann(rng, n=16), poly], r"\[3, 16\]"),
                             ([poly, func], r"\[2, 3\]")):
            with pytest.raises(ValueError, match="input counts " + dims):
                ModelBank(models)

    def test_empty_bank(self):
        x = np.zeros((17, 3))
        assert ModelBank([]).predict(x).shape == (17, 0)

    def test_column_count_error(self):
        rng = np.random.default_rng(41)
        bank = ModelBank(self.mixed_models(rng))
        with pytest.raises(ValueError, match="4 columns, model takes 3 inputs"):
            bank.predict(np.zeros((2, 4)))

    def test_non_finite_input_error(self):
        rng = np.random.default_rng(41)
        bank = ModelBank(self.mixed_models(rng))
        x = np.zeros((2, 3))
        x[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            bank.predict(x)

    def test_single_stack_input_errors(self):
        """A bank that returns its one stack's output as it is still gives
        the models' messages: a wrong width, also of a single point, and a
        non-finite entry."""
        bank = ModelBank(self.single_stack(np.random.default_rng(41)))
        for x in (np.zeros((2, 4)), np.zeros(4)):
            with pytest.raises(ValueError,
                               match="4 columns, model takes 3 inputs"):
                bank.predict(x)
        for bad in (np.nan, np.inf, -np.inf):
            x = np.zeros((2, 3))
            x[1, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                bank.predict(x)
