"""Metamodel trainers.

Three fitting routes share the SampleSet container: gradient-based ANN
training with L2 regularization and early stopping, greedy incremental
construction of Gaussian radial networks, and (stepwise) least-squares
polynomial regression.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DataFormatError, RankDeficiencyError,
                     TrainingDivergedError)
from .metamodel import (ACTIVATIONS, POLY_MAX_DEGREE, AnnModel, AnnStack,
                        PolyModel, RbfModel, _rbf_centers, _rbf_columns,
                        _rbf_rows, poly_basis)
from .metrics import FitReport, fit_report
from .scaling import KINDS as SCALER_KINDS, Scaler, fit_scaler
from .scaling import apply as scale_apply

__all__ = [
    "SampleSet", "TrainOptions", "MIN_ANN_ROWS", "check_ann_rows",
    "train_ann", "train_anns", "train_rbf", "fit_polynomial",
    "fit_polynomials", "check_rbf_settings", "check_poly_settings",
    "ann_loss_and_gradient", "monomial_exponents",
]

MIN_ANN_ROWS = 10  # the ANN trainers need this many training rows


@dataclass
class SampleSet:
    """Paired input matrix and named response vectors.

    Column order of `inputs` matches `variable_names`; every response vector
    has one entry per input row.
    """

    inputs: np.ndarray
    responses: dict[str, np.ndarray]
    variable_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        if not self.variable_names:
            self.variable_names = [f"x{i + 1}" for i in range(self.inputs.shape[1])]
        if len(self.variable_names) != self.inputs.shape[1]:
            raise ValueError("one variable name per input column required")
        self.responses = {k: np.asarray(v, dtype=float).reshape(-1)
                          for k, v in self.responses.items()}
        n = self.inputs.shape[0]
        for name, vec in self.responses.items():
            if vec.shape[0] != n:
                raise ValueError(
                    f"response {name!r} has {vec.shape[0]} rows, inputs have {n}"
                )
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"response {name!r} contains non-finite values")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs contain non-finite values")

    @property
    def n_rows(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[1]

    @property
    def response_names(self) -> list[str]:
        return list(self.responses.keys())

    def response(self, name: str) -> np.ndarray:
        if name not in self.responses:
            raise KeyError(
                f"unknown response {name!r}; have {sorted(self.responses)}"
            )
        return self.responses[name]


@dataclass
class TrainOptions:
    """Knobs for the ANN trainer.

    The optimizer is full-batch gradient descent with momentum on the
    mean-squared data term plus l2_penalty * (|W1|^2 + |W2|^2); biases are
    not penalized. The early-stopping holdout is carved from the training
    rows and is distinct from any verification set.
    """

    hidden_size: int = 4
    activation: str = "tanh"
    max_epochs: int = 3000
    learning_rate: float = 0.01
    l2_penalty: float = 1e-4
    early_stop_patience: int = 100
    holdout_fraction: float = 0.2
    seed: int = 0
    momentum: float = 0.9
    input_scaling: str = "meanstd"
    steepness: float = 1.0

    def __post_init__(self):
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be >= 0")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (self.steepness > 0 and np.isfinite(self.steepness)):
            raise ValueError("steepness must be positive and finite")
        if self.input_scaling not in SCALER_KINDS:
            raise ValueError(f"unknown input_scaling {self.input_scaling!r}")


def _stacked_pass(stack: AnnStack, theta: np.ndarray, x: np.ndarray,
                  y: np.ndarray, n_fit: int, row_means: np.ndarray,
                  l2: float, activation: str, steepness: float):
    """The working arrays of a training run of the networks of `stack`, and
    `run()`, which writes them: `AnnStack.forward` over the rows of `x` at
    the current values of `theta`, with one target column per network in
    `y`, then the loss gradient. Row 0 of `row_means` averages the first
    `n_fit` rows; an optional row 1 averages the others. `run` returns the
    same (errors, grad) every call: per network, errors[0] is the loss
    (that mean squared error plus the L2 weight penalty) and errors[1] the
    mean squared error under row 1; `grad` is the loss gradient, packed
    like `theta`. Each product keeps its association, so the values are
    those of the formulas written out with fresh arrays."""
    rows, nets = y.shape
    w1, b1, w2, b2 = stack.views(theta)
    grad = np.empty_like(theta)
    g_w1, g_b1, g_w2, g_b2 = stack.views(grad)
    decay = 2.0 * l2 * stack.penalty.sum(axis=0)  # 0 on the biases
    h, r_units, dh, du = np.empty((4, rows, stack.hidden))
    h_fit, r_units, dh, du = h[:n_fit], r_units[:n_fit], dh[:n_fit], du[:n_fit]
    resid, square = np.empty((2, rows, nets))
    r, resid_fit, x_fit = np.empty((n_fit, nets)), resid[:n_fit], x[:n_fit]
    errors, penalty = np.empty((len(row_means), nets)), np.empty(nets)
    w_out, theta_term = np.empty((stack.hidden, nets)), np.empty_like(theta)

    def run():
        stack.forward((w1.T, b1, stack.output_matrix(w2, w_out), b2), x,
                      activation, steepness, h, resid)
        np.subtract(resid, y, out=resid)
        np.matmul(row_means, np.multiply(resid, resid, out=square), out=errors)
        np.matmul(stack.penalty, np.multiply(theta, theta, out=theta_term),
                  out=penalty)
        errors[0] += np.multiply(penalty, l2, out=penalty)

        np.multiply(resid_fit, 2.0 / n_fit, out=r)
        np.matmul(r, stack.block.T, out=r_units)  # each unit's network's r
        if activation == "tanh":  # steepness * (1 - h * h)
            np.subtract(1.0, np.multiply(h_fit, h_fit, out=dh), out=dh)
            if steepness != 1.0:
                np.multiply(dh, steepness, out=dh)
        else:  # (steepness * h) * (1 - h)
            np.subtract(1.0, h_fit, out=dh)
            np.multiply(dh, h_fit if steepness == 1.0 else np.multiply(
                h_fit, steepness, out=du), out=dh)
        np.multiply(np.multiply(r_units, w2, out=du), dh, out=du)
        np.matmul(du.T, x_fit, out=g_w1)
        np.add.reduce(du, axis=0, out=g_b1)
        np.add.reduce(np.multiply(h_fit, r_units, out=du), axis=0, out=g_w2)
        np.add.reduce(r, axis=0, out=g_b2)
        np.add(grad, np.multiply(decay, theta, out=theta_term), out=grad)
        return errors, grad
    return run


def ann_loss_and_gradient(theta: np.ndarray, x: np.ndarray, y: np.ndarray,
                          l2: float, activation: str = "tanh",
                          steepness: float = 1.0):
    """Mean-squared loss plus L2 weight penalty, with its analytic gradient.

    `theta` packs (W1 row-major, b1, W2, b2) for a hidden layer of size m
    over n inputs; `x` is (rows, n), `y` is (rows,). Returns (loss, grad).
    This is the one-network view of the stacked kernel `train_anns` runs.
    """
    rows, n = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        errors, grad = _stacked_pass(
            AnnStack([(theta.size - 1) // (n + 2)], n),
            np.asarray(theta, dtype=float), x, np.reshape(y, (rows, 1)),
            rows, np.full((1, rows), 1.0 / rows), l2, activation, steepness)()
    return float(errors[0, 0]), grad


def _fit_response_scaler(y: np.ndarray) -> Scaler:
    # meanstd on the response; a constant response degrades to a pure shift
    std = float(np.std(y, ddof=1)) if y.size > 1 else 0.0
    if std <= 0:
        return Scaler("meanstd", np.array([float(y[0])]), np.array([1.0]))
    return Scaler("meanstd", np.array([float(np.mean(y))]), np.array([std]))


def _descend(stack: AnnStack, theta: np.ndarray, x: np.ndarray, y: np.ndarray,
             n_fit: int, keys: list, opts: TrainOptions):
    """Momentum descent of all stacked networks from `theta`, in place, so
    `theta` ends at the final parameters; returns those of least holdout
    error. Epoch t's pass gives the holdout error of theta_t and the
    gradient there. A network is frozen early_stop_patience epochs after
    its best holdout epoch: its parameters stop moving and its errors are
    not checked."""
    best, best_err = theta.copy(), np.full(len(keys), np.inf)
    best_epoch = np.zeros(len(keys), dtype=int)
    active = np.ones(len(keys), dtype=bool)
    patience = due = opts.early_stop_patience  # none is done before `due`
    frozen = None  # parameter mask of the frozen networks, once any are
    velocity, step = np.zeros((2, theta.size))
    row_means = np.zeros((2, len(x)))
    row_means[0, :n_fit], row_means[1, n_fit:] = 1 / n_fit, 1 / (len(x) - n_fit)

    def kernel(stack, theta, y):
        return _stacked_pass(stack, theta, x, y, n_fit, row_means,
                             opts.l2_penalty, opts.activation, opts.steepness)

    def check(values, row: int, message: str) -> None:
        bad = list(np.flatnonzero(active & ~np.isfinite(values)))
        if bad:
            # one network's inf or nan reaches the others' sums through
            # zero weights, so name the first that is non-finite on its own
            alone = [k for k in bad if not np.all(np.isfinite(kernel(
                AnnStack([keys[k][1]], stack.n), theta[stack.owner == k],
                y[:, k:k + 1])()[0][row]))]
            response, m = keys[(alone or bad)[0]]
            raise TrainingDivergedError(
                f"{message}; response {response!r}, hidden size {m}")

    run = kernel(stack, theta, y)
    # overflow here just means a diverged run; check() reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in itertools.count():
            errors, grad = run()
            finite = math.isfinite(errors.sum())
            if not finite:
                check(errors[1], 1, "holdout error became non-finite" if epoch
                      else "non-finite holdout error at initialization")
            improved = active & (errors[1] < best_err)
            if improved.any():
                np.copyto(best_err, errors[1], where=improved)
                np.copyto(best, theta, where=improved[stack.owner])
                best_epoch[improved] = epoch
            if epoch >= due:
                done = active & (epoch - best_epoch >= patience)
                if done.any():
                    active &= ~done
                    if not active.any():
                        return best
                    frozen = ~active[stack.owner]
                    velocity[frozen] = 0.0
                due = patience + best_epoch.min(where=active, initial=epoch)
            if epoch >= opts.max_epochs:
                return best
            if not finite:
                check(errors[0], 0, f"training loss became non-finite "
                                    f"(learning_rate={opts.learning_rate})")
            if frozen is not None:
                grad[frozen] = 0.0
            velocity *= opts.momentum
            velocity -= np.multiply(grad, opts.learning_rate, out=step)
            theta += velocity


def check_ann_rows(n_rows: int, holdout_fraction: float,
                   source="the training set") -> int:
    """The early-stopping holdout's row count out of the `n_rows` rows of
    `source`; a DataFormatError naming it if the ANN trainers cannot split
    them."""
    if n_rows < MIN_ANN_ROWS:
        raise DataFormatError(f"{source} has {n_rows} rows; ANN training "
                              f"needs at least {MIN_ANN_ROWS}")
    n_hold = max(1, round(n_rows * holdout_fraction))
    if n_hold >= n_rows:
        raise DataFormatError(f"{source} has {n_rows} rows; holdout_fraction "
                              f"{holdout_fraction} leaves none to train on")
    return n_hold


def train_anns(data: SampleSet, responses, hidden_sizes,
               opts: TrainOptions) -> dict[tuple[str, int],
                                           tuple[AnnModel, FitReport]]:
    """Fit one ANN per (response, hidden size) pair in one stacked epoch
    loop; return {(response, hidden_size): (model, report)}. Each network
    matches `train_ann` on its own with that hidden size to rounding
    (`opts.hidden_size` is ignored)."""
    n_hold = check_ann_rows(data.n_rows, opts.holdout_fraction)
    if any(m < 1 for m in hidden_sizes):
        raise ValueError(f"hidden sizes must be >= 1, got {hidden_sizes}")
    y_raw = {r: data.response(r) for r in responses}
    keys = [(r, m) for r in responses for m in hidden_sizes]
    if not keys:
        return {}

    # each network re-seeds: all share one holdout split, and all of one
    # hidden size share one initial draw
    n, starts = data.n_inputs, []
    for _, m in keys:
        rng = np.random.default_rng(opts.seed)
        order = rng.permutation(data.n_rows)
        starts.append(rng.uniform(-0.5, 0.5, size=m * (n + 2) + 1))
    hold_idx, fit_idx = order[:n_hold], order[n_hold:]
    n_fit, rows = fit_idx.size, np.concatenate([fit_idx, hold_idx])
    x_raw = data.inputs[rows]  # fit rows first
    in_scaler = fit_scaler(x_raw[:n_fit], opts.input_scaling,
                           names=data.variable_names)
    out_scalers = {r: _fit_response_scaler(y_raw[r][fit_idx])
                   for r in responses}
    y = np.column_stack([scale_apply(out_scalers[r], y_raw[r][rows, None])
                         for r, _ in keys])
    for k, (_, m) in enumerate(keys):
        if np.all(y[:n_fit, k] == 0.0):
            # constant response: the shift-only output scaler already
            # carries it, so start the linear layer at the exact solution
            starts[k][m * n + m:] = 0.0
    stack = AnnStack([m for _, m in keys], n)
    best = _descend(stack, stack.pack(starts), scale_apply(in_scaler, x_raw),
                    y, n_fit, keys, opts)

    out = {}
    for k, (response, m) in enumerate(keys):
        w1, b1, w2, b2 = AnnStack([m], n).views(best[stack.owner == k])
        model = AnnModel(
            input_dim=n, hidden_size=m, activation=opts.activation,
            W1=w1, b1=b1, W2=w2, b2=float(b2[0]), input_scaler=in_scaler,
            output_scaler=out_scalers[response], steepness=opts.steepness,
            response_name=response,
        )
        out[response, m] = model, fit_report(
            model, x_raw[:n_fit], y_raw[response][fit_idx], x_raw[n_fit:],
            y_raw[response][hold_idx],
            descriptor=f"ann(M={m}, {opts.activation}, holdout)",
        )
    return out


def train_ann(data: SampleSet, response: str,
              opts: TrainOptions) -> tuple[AnnModel, FitReport]:
    """Fit a single-hidden-layer ANN to one response of `data`.

    Weights start uniform in [-0.5, 0.5] from the seed; training runs
    full-batch gradient descent with momentum and stops at max_epochs or
    once the holdout error has not improved for early_stop_patience epochs.
    The returned model carries the weights of the best holdout epoch, and
    the report's verify side is that holdout split.
    """
    return train_anns(data, [response], [opts.hidden_size],
                      opts)[response, opts.hidden_size]


def check_rbf_settings(error_goal: float, spread: float, max_neurons: int,
                       input_scaling: str) -> None:
    """Raise ValueError for `train_rbf` settings it cannot grow from."""
    if not error_goal >= 0:
        raise ValueError(f"error_goal must be >= 0, got {error_goal!r}")
    # the Gaussian kernel divides by spread^2 and holds -1 / spread^2
    if not (0 < spread < math.inf and 0 < spread * spread < math.inf
            and 1 / (spread * spread) < math.inf):
        raise ValueError(f"spread must be positive with a finite, nonzero "
                         f"square and reciprocal square, got {spread!r}")
    if max_neurons < 0:
        raise ValueError(f"max_neurons must be >= 0, got {max_neurons!r}")
    if input_scaling not in SCALER_KINDS:
        raise ValueError(f"unknown input_scaling {input_scaling!r}")


def train_rbf(data: SampleSet, response: str, error_goal: float,
              spread: float, max_neurons: int,
              input_scaling: str = "meanstd") -> tuple[RbfModel, FitReport]:
    """Grow a Gaussian radial network one neuron at a time.

    Starts from a bias-only model (the response mean) and repeatedly adds a
    neuron centered at the worst-error training input, until the training
    MSE drops below `error_goal` or `max_neurons` is reached. During growth
    the prediction is the projection of the response onto an orthonormal
    basis of the design's columns, which each new column extends by
    Gram-Schmidt (orthogonal least squares, Chen, Cowan & Grant 1991); a
    column that adds nothing numerically leaves the projection unchanged
    but keeps its neuron. Every column comes from `RbfModel`'s Gaussian
    kernel, and one least-squares solve on the columns the model's predict
    computes on the training rows gives the output weights and bias.
    """
    if data.n_rows < 1:
        raise ValueError("need at least one training row")
    check_rbf_settings(error_goal, spread, max_neurons, input_scaling)
    y_raw = data.response(response)

    in_scaler = fit_scaler(data.inputs, input_scaling, names=data.variable_names)
    out_scaler = _fit_response_scaler(y_raw)
    # the row side of every Gaussian column below, x its scaled inputs
    rows = _rbf_rows(data.inputs, in_scaler)
    x = rows[:, :-2]
    y = scale_apply(out_scaler, y_raw[:, None])[:, 0]
    n = data.n_rows
    try:  # every training row is a candidate center
        candidates, limit = _rbf_centers(x, spread)
    except ValueError as exc:
        raise TrainingDivergedError(str(exc)) from None
    # error_goal is expressed in response units
    mse_scale = float(out_scaler.scale[0]) ** 2

    center_rows: list[int] = []
    used = np.zeros(n, dtype=bool)  # rows already claimed as (or equal to) a center
    # an orthonormal basis of the span of the bias and Gaussian columns
    basis = np.empty((n, min(max_neurons + 1, n)), order="F")
    basis[:, 0] = 1.0 / math.sqrt(n)
    rank = 1
    resid = y - np.mean(y)

    while (float(np.mean(resid ** 2)) * mse_scale >= error_goal
           and len(center_rows) < max_neurons):
        err = np.abs(resid)
        err[used] = -np.inf
        worst = int(np.argmax(err))
        if not np.isfinite(err[worst]):
            break  # every distinct point is already a center
        # mark every row identical to the chosen one
        dup = np.all(x == x[worst], axis=1)
        used |= dup
        phi = _rbf_columns(rows, candidates[:, worst:worst + 1], limit)[:, 0]
        center_rows.append(worst)
        q = _orthogonalize(phi, basis[:, :rank])
        norm = math.sqrt(float(q @ q))
        if rank < basis.shape[1] and norm > 1e-10 * math.sqrt(float(phi @ phi)):
            q /= norm
            basis[:, rank] = q
            rank += 1
            resid -= q * (q @ resid)

    weights, bias = np.zeros(0), float(np.mean(y))
    if center_rows:
        # the model's own predict columns on the training rows, and the bias
        phis = _rbf_columns(rows, *_rbf_centers(x[center_rows], spread))
        design = np.hstack([phis, np.ones((n, 1))])
        try:
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(f"linear solve failed: {exc}") from exc
        if not np.all(np.isfinite(coef)):
            raise RankDeficiencyError("linear solve returned non-finite weights")
        weights, bias = coef[:-1], float(coef[-1])

    model = RbfModel(
        input_dim=data.n_inputs, centers=x[center_rows], spread=spread,
        weights=weights, bias=bias, input_scaler=in_scaler,
        output_scaler=out_scaler, response_name=response,
    )
    report = fit_report(
        model, data.inputs, y_raw,
        descriptor=f"rbf(neurons={len(center_rows)}, spread={spread:g})",
    )
    return model, report


def _orthogonalize(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """`v` less its projection on the orthonormal columns of `basis`:
    classical Gram-Schmidt, applied twice so that the result is orthogonal
    to working precision."""
    for _ in range(2):
        v = v - basis @ (basis.T @ v)
    return v


def monomial_exponents(n_vars: int, degree: int) -> np.ndarray:
    """All exponent vectors with total degree <= degree, in deterministic
    order: by total degree, then lexicographically, the order in which
    `combinations_with_replacement` yields the variables of each term.
    Row 0 is the intercept.
    """
    combos = [combo for total in range(degree + 1) for combo in
              itertools.combinations_with_replacement(range(n_vars), total)]
    # term k's count of variable i lands at the flat index k * n_vars + i
    owner = np.repeat(np.arange(len(combos)), [len(c) for c in combos])
    flat = owner * n_vars + np.fromiter(
        itertools.chain.from_iterable(combos), dtype=int, count=owner.size)
    return np.bincount(flat, minlength=len(combos) * n_vars).reshape(
        len(combos), n_vars)


def check_poly_settings(degree: int, p_enter: float) -> None:
    """Raise ValueError for `fit_polynomials` settings it cannot fit with."""
    if not 1 <= degree <= POLY_MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{POLY_MAX_DEGREE}, "
                         f"got {degree}")
    if not 0 < p_enter <= 1:
        raise ValueError(f"p_enter must be in (0, 1], got {p_enter!r}")


def fit_polynomials(data: SampleSet, responses, degree: int,
                    stepwise: bool = False, p_enter: float = 0.05
                    ) -> dict[str, tuple[PolyModel, FitReport]]:
    """Least-squares polynomial fits of each of `responses` over the
    monomial basis; return {response: (model, report)}.

    With `stepwise`, forward selection starts from the intercept and adds
    the candidate term with the greatest F statistic while its p-value is
    below `p_enter`; the paths of all responses run in lockstep over one
    candidate matrix (`_forward_paths`). Without it, the basis is truncated
    to at most the number of rows and fit in one shot. Each response's fit
    equals `fit_polynomial` on its own bit for bit.
    """
    check_poly_settings(degree, p_enter)
    ys = [data.response(r) for r in responses]
    if not ys:
        return {}
    x = data.inputs
    exponents = monomial_exponents(data.n_inputs, degree)
    if not stepwise:
        exponents = exponents[:data.n_rows]
    # poly_basis computes each column on its own, so cand[:, chosen] equals
    # poly_basis(x, exponents[chosen]) bit for bit
    cand = poly_basis(x, exponents)
    paths = (_forward_paths(cand, ys, p_enter) if stepwise
             else [list(range(len(exponents)))] * len(ys))
    # the solves and reports need only the selected columns, a full fit
    # all of them
    designs = ([cand[:, chosen] for chosen in paths] if stepwise
               else [cand] * len(ys))
    del cand

    out = {}
    for response, y, chosen, design in zip(responses, ys, paths, designs):
        coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        if rank < design.shape[1]:
            raise RankDeficiencyError(
                f"design matrix rank {rank} < {design.shape[1]} retained terms"
            )
        if not np.all(np.isfinite(coef)):
            raise RankDeficiencyError(
                "least squares returned non-finite coefficients")
        model = PolyModel(
            input_dim=data.n_inputs, degree=degree,
            terms=exponents[chosen], coefficients=coef,
            response_name=response,
        )
        out[response] = model, fit_report(
            model, x, y,
            descriptor=(f"poly(degree={degree}, "
                        f"{'stepwise, ' if stepwise else ''}"
                        f"terms={len(chosen)})"),
        )
    return out


def fit_polynomial(data: SampleSet, response: str, degree: int,
                   stepwise: bool = False,
                   p_enter: float = 0.05) -> tuple[PolyModel, FitReport]:
    """Least-squares polynomial fit of one response over the monomial
    basis: `fit_polynomials` for `response` alone."""
    return fit_polynomials(data, [response], degree, stepwise,
                           p_enter)[response]


_LN_SQRT_PI = 0.5 * math.log(math.pi)


def _f_sf(f_stat: float, df: int) -> float:
    """Upper tail P(F(1, df) > f_stat) of the partial-F test.

    That is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + f_stat) (Abramowitz & Stegun 26.6.2). Past the
    continued fraction's fast range it uses I_x(a, b) = 1 - I_{1-x}(b, a).
    The tests hold it to a relative error of 1e-9 for df up to 1e5.
    """
    f_stat, a = float(f_stat), 0.5 * df  # Python floats: numpy scalars are slow
    if not f_stat > 0:
        return 1.0
    if f_stat == math.inf:
        return 0.0
    x, y = df / (df + f_stat), f_stat / (df + f_stat)  # y = 1 - x unrounded
    if a < 100:
        log_ratio = math.lgamma(a + 0.5) - math.lgamma(a)
    else:  # ln(Gamma(a + 1/2) / Gamma(a)) free of lgamma's rounding (A&S 6.1.47)
        log_ratio = (0.5 * math.log(a) - 1 / (8 * a) + 1 / (192 * a ** 3)
                     - 1 / (640 * a ** 5))
    # x^a (1 - x)^(1/2) / B(a, 1/2)
    front = math.exp(log_ratio - _LN_SQRT_PI
                     + a * math.log(x) + 0.5 * math.log(y))
    if x < (a + 1) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, y)


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction 1 / (1 + d1 / (1 + d2 / (1 + ...))) of
    I_x(a, b) a B(a, b) / (x^a (1 - x)^b) (A&S 26.5.8), through its even
    part by the modified Lentz method (Numerical Recipes §5.2, §6.4). It
    converges in about sqrt(max(a, b)) steps for x < (a + 1) / (a + b + 2).
    """
    # even part: h = (1 + d2) - d2 d3 / ((1 + d3 + d4) - d4 d5 / (...)),
    # step m has alpha = -d_2m d_2m+1 and beta = 1 + d_2m+1 + d_2m+2
    ab = a + b
    even = (b - 1) * x / ((a + 1) * (a + 2))  # d_2
    h = c = 1.0 + even
    d = 0.0
    m, am = 1.0, a + 2
    for _ in range(10_000):
        am1 = am + 1.0
        odd = -(a + m) * (ab + m) * x / (am * am1)  # d_{2m+1}
        m += 1.0
        am += 2.0
        alpha = -even * odd
        even = m * (b - m) * x / (am1 * am)  # d_{2m+2}
        beta = 1.0 + odd + even
        d = 1.0 / (beta + alpha * d or 1e-300)
        c = beta + alpha / c or 1e-300
        step = c * d
        h *= step
        if -1e-15 < step - 1.0 < 1e-15:
            break
    return h / (h - ab * x / (a + 1))


def _forward_paths(cand: np.ndarray, ys, p_enter: float) -> list[list[int]]:
    """Forward stepwise selection by the partial-F test over the candidate
    columns `cand`, one path per response vector in `ys`, all in lockstep.

    The candidate columns are never written. The unit directions of a
    path's entered terms form an orthonormal basis; each entered column is
    orthogonalized against it. A product of [q; residual] with the
    candidate matrix per step gives every candidate's projection on the
    new direction q, which downdates its squared norm orthogonal to the
    design, and its dot product with the residual, which equals that with
    its orthogonalized column since the residual is orthogonal to the
    design. A candidate's extra sum of squares is that dot product squared
    over that squared norm. A path stops once the residual is rounding
    noise, because a partial-F test on that noise is a coin flip: after
    the intercept when sse <= (n * eps)^2 * y @ y (a constant response),
    after a later term when sse <= (n * eps)^2 * sst, with sst the sum of
    squares about the mean.

    The running paths stack their [q; residual] rows, so one product
    serves them all, and the norm downdates, gains and argmax run on
    (paths, candidates) arrays; orthogonalization, the F test and the stop
    rules are per path, and a path that stops leaves the stack. Each row of
    a product is that of the row alone, so every path picks the terms it
    picks on its own.
    """
    n, m = cand.shape
    norms2 = np.einsum("ij,ij->j", cand, cand)
    # the collinearity test compares against the original column norms
    floor = 1e-12 * norms2.clip(min=1e-300)
    noise = (n * np.finfo(float).eps) ** 2
    chosen: list[list[int]] = [[] for _ in ys]
    bases = [np.empty((n, min(n, m)), order="F") for _ in ys]
    sse, sst = [0.0] * len(ys), [0.0] * len(ys)
    best: list = [0] * len(ys)  # the intercept enters first; None: stopped
    # per running path, in stack order: its id, [q; residual], the squared
    # norms of the candidates orthogonal to its design, and which are left
    live = list(range(len(ys)))
    rows = np.empty((len(ys), 2, n))
    rows[:, 1] = ys
    norms2 = np.tile(norms2, (len(ys), 1))
    available = np.ones((len(ys), m), dtype=bool)

    while True:
        keep = []
        for i, p in enumerate(live):
            if best[p] is None:
                continue
            path, basis = chosen[p], bases[p]
            v = _orthogonalize(cand[:, best[p]], basis[:, :len(path)])
            path.append(best[p])
            available[i, best[p]] = False
            q, resid = rows[i]
            # the rounding floor's reference: y @ y at the intercept, then sst
            ref = float(resid @ resid) if len(path) == 1 else sst[p]
            q[:] = v / math.sqrt(float(v @ v))
            basis[:, len(path) - 1] = q
            resid -= q * (q @ resid)
            sse[p] = float(resid @ resid)
            if len(path) == 1:
                sst[p] = sse[p]
            # residual df after one more term; every pick is a new candidate
            if not (n - len(path) - 1 < 1 or len(path) == m
                    or sse[p] <= noise * ref):
                keep.append(i)
        if len(keep) < len(live):
            live, rows = [live[i] for i in keep], rows[keep]
            norms2, available = norms2[keep], available[keep]
            if not live:
                return chosen

        k = len(live)
        prod = (rows.reshape(2 * k, n) @ cand).reshape(k, 2, m)
        proj, dots = prod[:, 0], prod[:, 1]
        norms2 -= proj * proj
        ok = available & (norms2 > floor)
        gain = np.where(available, 0.0, -1.0)
        np.divide(np.square(dots), norms2, out=gain, where=ok)
        for i, (p, pick) in enumerate(zip(live, gain.argmax(axis=1).tolist())):
            df_resid = n - len(chosen[p]) - 1
            extra = float(gain[i, pick])
            sse_new = max(sse[p] - extra, 0.0)
            if sse_new <= 0:
                p_value = 0.0
            else:
                p_value = _f_sf(extra / (sse_new / df_resid), df_resid)
            best[p] = pick if p_value < p_enter else None
