"""Trainer behavior: gradient correctness, convergence, early stopping,
greedy RBF growth, stepwise selection."""

import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from surrokit.design_space import DesignSpace, DesignVariable, lhs_disjoint, lhs_sample
from surrokit.errors import TrainingDivergedError
from surrokit.metamodel import poly_basis
from surrokit.metrics import rmse
from surrokit.oracles import BUILTIN_ORACLES, BUILTIN_SPACES, evaluate
from surrokit.scaling import apply as scale_apply
from surrokit.training import (SampleSet, TrainOptions, ann_loss_and_gradient,
                               fit_polynomial, monomial_exponents, train_ann,
                               train_anns, train_rbf, _f_sf, _forward_select,
                               _Stack, _stacked_pass, _train_anns_full)


def sin_space():
    return DesignSpace((DesignVariable("x", 0.0, 1.0),))


def sin_sets(n_train=500, n_verify=150, noise=0.0, seed=11):
    space = sin_space()
    xt = lhs_sample(space, n_train, seed=seed)
    xv = lhs_disjoint(space, n_verify, xt, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    yt = np.sin(np.pi * xt[:, 0]) + noise * rng.standard_normal(n_train)
    yv = np.sin(np.pi * xv[:, 0])
    return SampleSet(xt, {"y": yt}, ["x"]), xv, yv


class TestSampleSet:
    def test_response_length_checked(self):
        with pytest.raises(ValueError, match="rows"):
            SampleSet(np.zeros((3, 2)), {"y": np.zeros(4)})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            SampleSet(np.zeros((2, 1)), {"y": np.array([1.0, np.nan])})

    def test_missing_response_keyerror(self):
        ss = SampleSet(np.zeros((2, 1)), {"y": np.zeros(2)})
        with pytest.raises(KeyError, match="z"):
            ss.response("z")

    def test_default_variable_names(self):
        ss = SampleSet(np.zeros((2, 3)), {})
        assert ss.variable_names == ["x1", "x2", "x3"]


class TestTrainOptions:
    def test_holdout_fraction_bounds(self):
        with pytest.raises(ValueError):
            TrainOptions(holdout_fraction=0.0)
        with pytest.raises(ValueError):
            TrainOptions(holdout_fraction=1.0)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            TrainOptions(l2_penalty=-1.0)


class TestGradient:
    def relative_error(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        x = rng.standard_normal((20, n))
        y = rng.standard_normal(20)
        theta = rng.uniform(-0.5, 0.5, m * (n + 2) + 1)
        activation = "tanh" if seed % 2 else "logsig"
        lam = float(rng.uniform(0.5, 2.0))
        _, grad = ann_loss_and_gradient(theta, x, y, 1e-3, activation, lam)
        h = 1e-6
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            lu, _ = ann_loss_and_gradient(up, x, y, 1e-3, activation, lam)
            ld, _ = ann_loss_and_gradient(down, x, y, 1e-3, activation, lam)
            fd[i] = (lu - ld) / (2 * h)
        return np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-300)

    @pytest.mark.parametrize("seed", range(10))
    def test_analytic_matches_central_differences(self, seed):
        assert self.relative_error(seed) < 1e-6


class TestTrainAnn:
    def test_constant_response_reproduced(self):
        rng = np.random.default_rng(0)
        x = rng.random((40, 3))
        y = np.full(40, 7.25)
        data = SampleSet(x, {"y": y}, ["a", "b", "c"])
        model, report = train_ann(data, "y",
                                  TrainOptions(hidden_size=3, max_epochs=500,
                                               seed=1))
        assert rmse(y, model.predict(x)) < 1e-6
        assert report.rmse < 1e-6

    def test_sin_benchmark(self):
        train, xv, yv = sin_sets()
        opts = TrainOptions(hidden_size=4, max_epochs=3000, learning_rate=0.05,
                            l2_penalty=1e-5, early_stop_patience=200, seed=3)
        model, report = train_ann(train, "y", opts)
        assert rmse(yv, model.predict(xv)) < 0.05
        assert report.n_train + report.n_verify == 500

    def test_too_few_rows_rejected(self):
        data = SampleSet(np.random.default_rng(1).random((9, 1)),
                         {"y": np.zeros(9)})
        with pytest.raises(ValueError, match="10"):
            train_ann(data, "y", TrainOptions())

    def test_missing_response(self):
        data = SampleSet(np.random.default_rng(2).random((20, 1)),
                         {"y": np.zeros(20)})
        with pytest.raises(KeyError):
            train_ann(data, "z", TrainOptions())

    def test_deterministic_bit_exact(self):
        train, _, _ = sin_sets(n_train=60, n_verify=10)
        opts = TrainOptions(hidden_size=3, max_epochs=200, seed=5)
        m1, _ = train_ann(train, "y", opts)
        m2, _ = train_ann(train, "y", opts)
        assert np.array_equal(m1.W1, m2.W1)
        assert np.array_equal(m1.b1, m2.b1)
        assert np.array_equal(m1.W2, m2.W2)
        assert m1.b2 == m2.b2

    def test_divergence_detected(self):
        train, _, _ = sin_sets(n_train=60, n_verify=10)
        opts = TrainOptions(hidden_size=4, max_epochs=500, learning_rate=1e9,
                            seed=1)
        with pytest.raises(TrainingDivergedError):
            train_ann(train, "y", opts)

    def test_returned_model_no_worse_than_initial_on_holdout(self):
        train, _, _ = sin_sets(n_train=80, n_verify=10, noise=0.1)
        for seed in range(5):
            opts = TrainOptions(hidden_size=4, max_epochs=300, seed=seed)
            zero_opts = TrainOptions(hidden_size=4, max_epochs=1,
                                     learning_rate=0.0, seed=seed)
            model, report = train_ann(train, "y", opts)
            _, epoch0_report = train_ann(train, "y", zero_opts)
            assert report.rmse <= epoch0_report.rmse + 1e-12

    def test_early_stopping_beats_final_epoch(self):
        # majority vote over 20 seeds on a noisy benchmark
        train, xv, yv = sin_sets(n_train=60, n_verify=40, noise=0.25)
        wins = 0
        for seed in range(20):
            opts = TrainOptions(hidden_size=8, max_epochs=2000,
                                learning_rate=0.05, l2_penalty=0.0,
                                early_stop_patience=2000, seed=seed)
            best_model, _, final_model = _train_anns_full(
                train, ["y"], [8], opts)["y", 8]
            best_err = rmse(yv, best_model.predict(xv))
            final_err = rmse(yv, final_model.predict(xv))
            wins += best_err <= final_err
        assert wins >= 11

    def test_holdout_distinct_from_training_rows(self):
        train, _, _ = sin_sets(n_train=50, n_verify=10)
        _, report = train_ann(train, "y",
                              TrainOptions(hidden_size=2, max_epochs=50,
                                           holdout_fraction=0.2, seed=0))
        assert report.n_verify == 10
        assert report.n_train == 40


def mixed_set(n=60, seed=0):
    """A smooth response, a constant one and pure noise over two inputs."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 2))
    return SampleSet(x, {"smooth": np.sin(3 * x[:, 0]) + x[:, 1],
                         "flat": np.full(n, 2.5),
                         "noise": rng.normal(size=n)}, ["a", "b"])


def weights(model):
    return np.concatenate([model.W1.ravel(), model.b1, model.W2, [model.b2]])


def final_weights(data, response, opts):
    """The weights of the final-epoch network of `train_ann`'s fit."""
    m = opts.hidden_size
    return weights(_train_anns_full(data, [response], [m], opts)[response, m][2])


class TestTrainAnns:
    RESPONSES = ["smooth", "flat", "noise"]

    def opts(self, activation, max_epochs=600):
        return TrainOptions(max_epochs=max_epochs, learning_rate=0.05,
                            early_stop_patience=200, activation=activation,
                            seed=4)

    @pytest.mark.parametrize("activation", ["tanh", "logsig"])
    def test_matches_one_network_at_a_time(self, activation):
        data = mixed_set()
        opts = self.opts(activation)
        # the noise networks stop before epoch 250; the smooth ones run on
        for m in (2, 5):
            one = replace(opts, hidden_size=m)
            short = replace(one, max_epochs=250)
            almost = replace(one, max_epochs=599)
            assert np.array_equal(final_weights(data, "noise", one),
                                  final_weights(data, "noise", short))
            assert not np.array_equal(final_weights(data, "smooth", one),
                                      final_weights(data, "smooth", almost))

        stacked = train_anns(data, self.RESPONSES, [2, 5], opts)
        assert list(stacked) == [(r, m) for r in self.RESPONSES
                                 for m in (2, 5)]
        for (response, m), (model, report) in stacked.items():
            alone, alone_report = train_ann(data, response,
                                            replace(opts, hidden_size=m))
            assert model.hidden_size == m and model.response_name == response
            assert np.max(np.abs(weights(model) - weights(alone))) <= 1e-9
            assert report.rmse == pytest.approx(alone_report.rmse, abs=1e-9)
        flat = stacked["flat", 5][0]
        assert np.all(flat.W2 == 0.0) and flat.b2 == 0.0

    @pytest.mark.parametrize("activation", ["tanh", "logsig"])
    def test_stacked_gradient_matches_central_differences(self, activation):
        rng = np.random.default_rng(21)
        sizes, n, rows, n_fit = [2, 5, 1, 3], 3, 25, 18
        stack = _Stack(sizes, n)
        x = rng.standard_normal((rows, n))
        y = rng.standard_normal((rows, len(sizes)))
        theta = rng.uniform(-0.5, 0.5, stack.owner.size)
        means = np.zeros((2, rows))
        means[0, :n_fit], means[1, n_fit:] = 1 / n_fit, 1 / (rows - n_fit)

        def total_loss(vec):
            return _stacked_pass(stack, vec, x, y, n_fit, means, 1e-3,
                                 activation, 1.3)[0][0].sum()

        errors, grad = _stacked_pass(stack, theta, x, y, n_fit, means, 1e-3,
                                     activation, 1.3)
        assert errors.shape == (2, len(sizes))
        h = 1e-6
        fd = np.zeros(stack.owner.size)
        for i in range(stack.owner.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (total_loss(up) - total_loss(down)) / (2 * h)
        rel = np.linalg.norm(grad - fd) / np.linalg.norm(grad)
        assert rel < 1e-6

    def test_diverging_network_named(self):
        data = mixed_set()
        opts = TrainOptions(max_epochs=300, learning_rate=0.5,
                            early_stop_patience=300, seed=1)
        # alone, the small networks train and the wide smooth one diverges
        train_anns(data, ["flat", "smooth"], [2], opts)
        with pytest.raises(TrainingDivergedError):
            train_ann(data, "smooth", replace(opts, hidden_size=20))
        with pytest.raises(TrainingDivergedError,
                           match="response 'smooth', hidden size 20"):
            train_anns(data, ["flat", "smooth"], [2, 20], opts)

    def test_deterministic_bit_exact(self):
        data = mixed_set()
        opts = self.opts("tanh", max_epochs=200)
        first = train_anns(data, self.RESPONSES, [2, 5], opts)
        second = train_anns(data, self.RESPONSES, [2, 5], opts)
        for key, (model, _) in first.items():
            assert np.array_equal(weights(model), weights(second[key][0]))


class TestTrainRbf:
    def test_interpolation_matches_direct_solve(self):
        rng = np.random.default_rng(7)
        x = rng.random((25, 3))
        y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 - 0.5 * x[:, 2]
        data = SampleSet(x, {"y": y}, ["a", "b", "c"])
        model, report = train_rbf(data, "y", error_goal=0.0, spread=0.7,
                                  max_neurons=25)
        assert rmse(y, model.predict(x)) < 1e-6
        assert report.rmse < 1e-6
        # independent oracle: direct solve with every point as a center
        from surrokit.scaling import apply as scale_apply
        xs = scale_apply(model.input_scaler, x)
        d2 = ((xs[:, None, :] - xs[None, :, :]) ** 2).sum(axis=2)
        phi = np.hstack([np.exp(-d2 / 0.7 ** 2), np.ones((25, 1))])
        ys = scale_apply(model.output_scaler, y[:, None])[:, 0]
        coef, *_ = np.linalg.lstsq(phi, ys, rcond=None)
        direct = phi @ coef
        assert np.max(np.abs(direct - ys)) < 1e-8

    def test_single_point(self):
        data = SampleSet(np.array([[0.3, 0.4]]), {"y": np.array([2.0])})
        model, _ = train_rbf(data, "y", error_goal=0.0, spread=1.0,
                             max_neurons=5, input_scaling="none")
        assert model.n_neurons == 1
        assert model.predict([0.3, 0.4]) == pytest.approx(2.0, abs=1e-12)

    def test_huge_error_goal_keeps_zero_neurons(self):
        rng = np.random.default_rng(8)
        x = rng.random((15, 2))
        y = rng.normal(size=15)
        data = SampleSet(x, {"y": y})
        model, _ = train_rbf(data, "y", error_goal=1e12, spread=1.0,
                             max_neurons=10)
        assert model.n_neurons == 0
        assert model.predict(x[0]) == pytest.approx(y.mean())

    def test_greedy_growth_strictly_reduces_sse(self):
        rng = np.random.default_rng(9)
        x = rng.random((30, 2))
        y = np.cos(4 * x[:, 0]) * x[:, 1]
        data = SampleSet(x, {"y": y})
        errors = []
        for k in range(0, 13):
            model, _ = train_rbf(data, "y", error_goal=0.0, spread=0.5,
                                 max_neurons=k)
            assert model.n_neurons == k
            errors.append(rmse(y, model.predict(x)) ** 2 * len(y))
        for prev, cur in zip(errors, errors[1:]):
            if prev > 1e-20:  # strict decrease until numerically exact
                assert cur < prev

    def test_bad_spread_rejected(self):
        data = SampleSet(np.zeros((2, 1)), {"y": np.zeros(2)})
        with pytest.raises(ValueError, match="spread"):
            train_rbf(data, "y", error_goal=0.0, spread=0.0, max_neurons=1)


class TestFitPolynomial:
    def test_exact_quadratic_recovery(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (60, 3))
        y = 2 + x[:, 0] - 3 * x[:, 2] + 0.5 * x[:, 0] ** 2 \
            + 1.5 * x[:, 0] * x[:, 1]
        data = SampleSet(x, {"y": y})
        model, report = fit_polynomial(data, "y", degree=2)
        assert rmse(y, model.predict(x)) < 1e-8
        assert report.r2_train == pytest.approx(1.0, abs=1e-12)
        # recover the planted coefficients
        planted = {(0, 0, 0): 2.0, (1, 0, 0): 1.0, (0, 0, 1): -3.0,
                   (2, 0, 0): 0.5, (1, 1, 0): 1.5}
        for term, coef in zip(model.terms, model.coefficients):
            expected = planted.get(tuple(term), 0.0)
            assert coef == pytest.approx(expected, abs=1e-8)

    def test_degree_one_linear_recovery(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, (30, 1))
        y = 4.0 - 2.5 * x[:, 0]
        model, _ = fit_polynomial(SampleSet(x, {"y": y}), "y", degree=1)
        by_term = {tuple(t): c for t, c in zip(model.terms, model.coefficients)}
        assert by_term[(0,)] == pytest.approx(4.0)
        assert by_term[(1,)] == pytest.approx(-2.5)

    def test_stepwise_noise_rarely_keeps_terms(self):
        # frozen Monte Carlo: 100 seeded trials, >= 90 keep at most one
        # term beyond the intercept at p_enter 0.05
        kept = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.random((50, 2))
            y = rng.standard_normal(50)
            model, _ = fit_polynomial(SampleSet(x, {"y": y}), "y", degree=2,
                                      stepwise=True, p_enter=0.05)
            kept += (model.n_parameters - 1) <= 1
        assert kept >= 90

    def test_stepwise_finds_planted_terms(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1, 1, (80, 4))
        y = 3.0 * x[:, 1] ** 2 - 2.0 * x[:, 3] + 0.01 * rng.standard_normal(80)
        model, _ = fit_polynomial(SampleSet(x, {"y": y}), "y", degree=2,
                                  stepwise=True)
        terms = {tuple(t) for t in model.terms}
        assert (0, 2, 0, 0) in terms
        assert (0, 0, 0, 1) in terms

    def test_degree_out_of_range(self):
        data = SampleSet(np.zeros((5, 1)), {"y": np.zeros(5)})
        for degree in (0, 7):
            with pytest.raises(ValueError, match="degree"):
                fit_polynomial(data, "y", degree=degree)

    def test_basis_capped_by_rows(self):
        rng = np.random.default_rng(14)
        x = rng.random((12, 3))
        y = rng.normal(size=12)
        model, _ = fit_polynomial(SampleSet(x, {"y": y}), "y", degree=4)
        assert model.n_parameters <= 12


def oracle_set(name, seed, n=120):
    space = BUILTIN_SPACES[name]()
    return evaluate(BUILTIN_ORACLES[name](), lhs_sample(space, n, seed),
                    space.names)


def reference_growth(x, y, spread, max_neurons):
    """Greedy RBF growth that rebuilds and re-solves the whole design after
    every neuron; returns (center rows, weights, bias)."""
    n = len(y)
    rows, used, pred = [], np.zeros(n, dtype=bool), np.full(n, np.mean(y))
    while len(rows) < max_neurons:  # an error goal of 0 is never met
        err = np.abs(pred - y)
        err[used] = -np.inf
        worst = int(np.argmax(err))
        if not np.isfinite(err[worst]):
            break
        used |= np.all(x == x[worst], axis=1)
        rows.append(worst)
        centers = x[rows]
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        design = np.hstack([np.exp(-d2 / spread ** 2), np.ones((n, 1))])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        pred = design @ coef
    return rows, coef[:-1], float(coef[-1])


class TestRbfGrowth:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weights_bit_identical_to_full_resolve(self, seed):
        data = oracle_set("pll", seed)
        for response in data.response_names:
            model, _ = train_rbf(data, response, error_goal=0.0, spread=4.0,
                                 max_neurons=30)
            x = scale_apply(model.input_scaler, data.inputs)
            y = scale_apply(model.output_scaler,
                            data.response(response)[:, None])[:, 0]
            rows, weights, bias = reference_growth(x, y, 4.0, 30)
            assert np.array_equal(model.centers, x[rows])
            assert np.array_equal(model.weights, weights)
            assert model.bias == bias


def reference_residual(x, y, spread, rows):
    """Residual of the full re-solve on the neurons centered at `rows`."""
    d2 = ((x[:, None, :] - x[rows][None, :, :]) ** 2).sum(axis=2)
    design = np.hstack([np.exp(-d2 / spread ** 2), np.ones((len(y), 1))])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return y - design @ coef


class TestRbfProjectionGrowth:
    """Growth on the kept orthonormal basis against the full re-solve of
    `reference_growth`, at a narrow and a wide spread."""

    @staticmethod
    def grow(data, response, spread, max_neurons):
        model, _ = train_rbf(data, response, error_goal=0.0, spread=spread,
                             max_neurons=max_neurons)
        x = scale_apply(model.input_scaler, data.inputs)
        y = scale_apply(model.output_scaler,
                        data.response(response)[:, None])[:, 0]
        return model, x, y, reference_growth(x, y, spread, max_neurons)

    @pytest.mark.parametrize("spread", [0.5, 50.0])
    @pytest.mark.parametrize("name", ["pll", "opamp"])
    def test_bit_identical_to_full_resolve(self, name, spread):
        data = oracle_set(name, 0)
        for response in data.response_names:
            model, x, _, (rows, weights, bias) = self.grow(
                data, response, spread, 30)
            assert np.array_equal(model.centers, x[rows])
            assert np.array_equal(model.weights, weights)
            assert model.bias == bias

    @pytest.mark.parametrize("spread", [0.5, 50.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_growth_to_every_row(self, seed, spread):
        """Every row becomes a center, so the final design has one column
        more than rows. The picks match until the reference's worst errors
        tie, which rounding breaks either way, and both networks
        interpolate."""
        data = oracle_set("pll", seed, n=40)
        for response in data.response_names:
            model, x, y, (rows, weights, bias) = self.grow(
                data, response, spread, 60)
            got = [int(np.flatnonzero((x == c).all(axis=1))[0])
                   for c in model.centers]
            assert model.n_neurons == 40 and sorted(got) == list(range(40))
            same = next((k for k, (a, b) in enumerate(zip(got, rows))
                         if a != b), len(rows))
            if same < len(rows):
                err = np.abs(reference_residual(x, y, spread, rows[:same]))
                assert err[got[same]] == pytest.approx(err[rows[same]],
                                                       rel=1e-9, abs=1e-12)
            d2 = ((x[:, None, :] - x[rows][None, :, :]) ** 2).sum(axis=2)
            reference = np.exp(-d2 / spread ** 2) @ weights + bias
            pred = scale_apply(model.output_scaler,
                               model.predict(data.inputs)[:, None])[:, 0]
            assert np.max(np.abs(pred - reference)) < 1e-8
            assert np.max(np.abs(pred - y)) < 1e-8


def reference_forward_select(x, y, exponents, p_enter):
    """Stepwise selection that re-projects every remaining candidate on the
    whole orthonormal basis Q at each step."""
    n = x.shape[0]
    candidates = np.prod(x[:, None, :] ** exponents[None, :, :], axis=2)
    chosen = [0]
    q = candidates[:, [0]] / np.linalg.norm(candidates[:, 0])
    resid = y - q @ (q.T @ y)
    available = np.ones(candidates.shape[1], dtype=bool)
    available[0] = False
    while True:
        df_resid = n - len(chosen) - 1
        if df_resid < 1 or not available.any():
            break
        sse = float(resid @ resid)
        if sse <= 0:
            break
        cand = candidates[:, available]
        perp = cand - q @ (q.T @ cand)
        norms2 = np.einsum("ij,ij->j", perp, perp)
        ok = norms2 > 1e-12 * np.einsum("ij,ij->j", cand, cand).clip(min=1e-300)
        gain = np.zeros(cand.shape[1])
        gain[ok] = (perp.T @ resid)[ok] ** 2 / norms2[ok]
        best = int(np.argmax(gain))
        sse_new = max(sse - float(gain[best]), 0.0)
        if sse_new <= 0:
            p_value = 0.0
        else:
            p_value = stats.f.sf(gain[best] / (sse_new / df_resid), 1,
                                 df_resid)
        if p_value >= p_enter:
            break
        k = int(np.flatnonzero(available)[best])
        chosen.append(k)
        available[k] = False
        new_q = perp[:, best] / np.sqrt(norms2[best])
        q = np.hstack([q, new_q[:, None]])
        resid = resid - new_q * (new_q @ resid)
    return chosen


class TestStepwiseSelection:
    @pytest.mark.parametrize("name", ["opamp", "pll"])
    @pytest.mark.parametrize("seed", range(5))
    def test_degree_two_matches_reprojection(self, name, seed):
        data = oracle_set(name, seed)
        exponents = monomial_exponents(data.n_inputs, 2)
        for response in data.response_names:
            y = data.response(response)
            assert (_forward_select(data.inputs, y, exponents, 0.05)
                    == reference_forward_select(data.inputs, y, exponents,
                                                0.05))

    def test_p_value_is_f_survival(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            df = int(rng.integers(1, 500))
            f_stat = float(rng.exponential(5.0)) * rng.choice([1e-3, 1, 1e2])
            assert _f_sf(f_stat, df) == stats.f.sf(f_stat, 1, df)

    @pytest.mark.parametrize("seed", range(20))
    def test_exact_polynomial_stops_at_true_terms(self, seed):
        """Once the true terms are in, the residual is rounding noise and
        no further term enters on it."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, (60, 4))
        y = 2 + 3 * x[:, 0] - 1.5 * x[:, 1] * x[:, 2] + 0.5 * x[:, 2] ** 3
        model, _ = fit_polynomial(SampleSet(x, {"y": y}), "y", degree=3,
                                  stepwise=True)
        assert {tuple(t) for t in model.terms} == {
            (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 3, 0)}

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_cubic_response_stops_when_complete(self, seed):
        """The op-amp `pd` response is an exact cubic in ib, ws, wo, vb and
        cc: selection stops with the term that completes it."""
        data = oracle_set("opamp", seed)
        index = {name: i for i, name in enumerate(data.variable_names)}

        def term(*names):
            e = [0] * data.n_inputs
            for name in names:
                e[index[name]] += 1
            return tuple(e)
        true = {term(), term("ib"), term("ib", "ws"), term("ib", "wo"),
                term("ib", "vb"), term("ib", "ws", "vb"),
                term("ib", "wo", "vb"), term("cc")}
        model, _ = fit_polynomial(data, "pd", degree=3, stepwise=True)
        terms = [tuple(t) for t in model.terms]
        assert true <= set(terms)
        assert not true <= set(terms[:-1])


class TestStepwiseOnePass:
    """Selection from one product over the unwritten candidate matrix per
    step, against `reference_forward_select`."""

    @pytest.mark.parametrize("name", ["opamp", "pll"])
    @pytest.mark.parametrize("seed", range(5))
    def test_degree_three_matches_reprojection(self, name, seed):
        """Degree 3 over 120 rows fits up to 119 terms; the picks made with
        one or two residual degrees of freedom test the F statistic on
        noise, so only those may differ."""
        data = oracle_set(name, seed)
        exponents = monomial_exponents(data.n_inputs, 3)
        # pick k (0 is the intercept) is made with n - k - 1 residual df
        last = data.n_rows - 4
        for response in data.response_names:
            y = data.response(response)
            got = _forward_select(data.inputs, y, exponents, 0.05)
            want = reference_forward_select(data.inputs, y, exponents, 0.05)
            assert got[:last + 1] == want[:last + 1]

    def test_candidate_matrix_unwritten(self, monkeypatch):
        """The candidates are built once and only read: a read-only matrix
        is accepted, and selection allocates no second rows x candidates
        buffer."""
        data = oracle_set("pll", 0)
        exponents = monomial_exponents(data.n_inputs, 3)
        cand = poly_basis(data.inputs, exponents)
        cand.flags.writeable = False
        monkeypatch.setattr("surrokit.training.poly_basis",
                            lambda x, terms: cand)
        y = data.response("power")
        tracemalloc.start()
        try:
            chosen = _forward_select(data.inputs, y, exponents, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(chosen) > 100
        assert peak < cand.nbytes / 2


def test_import_leaves_scipy_stats_unloaded():
    import os
    import surrokit
    code = ("import sys, surrokit, surrokit.cli; "
            "print('scipy.stats' in sys.modules)")
    src = os.path.dirname(os.path.dirname(surrokit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_unloaded():
    """scipy loads only when a stepwise polynomial fit needs the F tail, so
    every other command starts without its import cost."""
    import os
    import surrokit
    code = ("import sys, surrokit, surrokit.cli; "
            "print(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    src = os.path.dirname(os.path.dirname(surrokit.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
