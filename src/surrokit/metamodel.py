"""Metamodel families: single-hidden-layer ANN, Gaussian radial network,
and multivariate polynomial.

Performance-metric models (role "PMM") and circuit-parameter models (role
"CPM") share the same math; the role tag only records what the response
feeds. All models are single-output, immutable after construction, and safe
to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .files import atomic_write
from .scaling import Scaler, apply as scale_apply, invert as scale_invert

__all__ = [
    "AnnModel", "RbfModel", "PolyModel", "CallableModel",
    "ModelBank", "ann_hidden", "stack_block", "rbf_design", "poly_basis",
    "save_model", "load_model",
]

ACTIVATIONS = ("tanh", "logsig")
ROLES = ("PMM", "CPM")
# rows per block of a batch predict: a forward pass's temporaries scale with
# this, so predict memory does not grow with the row count
PREDICT_BLOCK = 8192


def _as_matrix(x, dim: int) -> tuple[np.ndarray, bool]:
    """Coerce a single point or a matrix of points to (n, dim)."""
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != dim:
        raise ValueError(f"input has {arr.shape[1]} columns, model takes "
                         f"{dim} inputs")
    if not np.isfinite(arr).all():
        raise ValueError("input contains non-finite values")
    return arr, single


def ann_hidden(xs: np.ndarray, W1: np.ndarray, b1: np.ndarray,
               steepness: float, activation: str) -> np.ndarray:
    """Hidden-layer outputs f(steepness * (xs @ W1.T + b1)) for the scaled
    inputs `xs`, one row per point: the one ANN forward pass, shared by
    `AnnModel.predict` and the trainer.
    """
    z = steepness * (xs @ W1.T + b1)
    if activation == "tanh":
        return np.tanh(z)
    return 1.0 / (1.0 + np.exp(-z))  # logsig


def stack_block(sizes) -> np.ndarray:
    """The (sum(sizes), len(sizes)) 0/1 matrix of networks stacked on one
    hidden layer, network k owning the k-th run of `sizes[k]` hidden units:
    entry [i, k] is 1 when hidden unit i feeds output k. Shared by the
    stacked trainer and `ModelBank`."""
    unit_net = np.repeat(np.arange(len(sizes)), sizes)
    return (unit_net[:, None] == np.arange(len(sizes))).astype(float)


def rbf_design(xs: np.ndarray, centers: np.ndarray,
               spread: float) -> np.ndarray:
    """Gaussian columns exp(-||x - c||^2 / spread^2) of the scaled inputs
    `xs`, one row per point and one column per center: the RBF forward pass
    of `RbfModel.predict`. The squared distance is ||x||^2 - 2 x.c + ||c||^2
    with one matrix product for the cross term, clamped at 0 because the
    cancellation can leave it a rounding error below 0 near a center.
    """
    d2 = xs @ (-2.0 * centers).T  # -2 is exact, so this is -2 (xs @ c.T)
    d2 += np.einsum("ij,ij->i", xs, xs)[:, None]
    d2 += np.einsum("ij,ij->i", centers, centers)
    np.maximum(d2, 0.0, out=d2)
    np.divide(d2, -spread ** 2, out=d2)
    return np.exp(d2, out=d2)


def poly_basis(x: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Monomial columns prod_i x[:, i] ** terms[k, i], one per row of the
    exponent matrix `terms`: the one polynomial basis, shared by
    `PolyModel.predict` and the trainer. Factor j of a monomial is the
    variable whose cumulative exponent first exceeds j (a ones column once
    its total degree is spent), so the basis is the product of degree-many
    gathered (rows, terms) matrices.
    """
    x = np.asarray(x, dtype=float)
    terms = np.asarray(terms, dtype=int).reshape(-1, x.shape[1])
    rows, n = x.shape
    cum = np.cumsum(terms, axis=1)
    degree = int(cum[:, -1].max()) if terms.size else 0
    ext = np.hstack([x, np.ones((rows, 1))])
    out = ext[:, (cum <= 0).sum(axis=1)]
    for j in range(1, degree):
        out *= ext[:, (cum <= j).sum(axis=1)]
    return out


class _Fitted:
    """The model-file field checks and the predict of the fitted families."""

    def _check(self, *counts: str) -> None:
        """Check `input_dim` and `counts`, role, response name, scalers."""
        for name in ("input_dim", *counts):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer: {value!r}")
        if self.role not in ROLES or not isinstance(self.response_name, str):
            raise ValueError(f"role must be PMM or CPM and response_name a "
                             f"string: {self.role!r}, {self.response_name!r}")
        for name, width in (("input_scaler", self.input_dim),
                            ("output_scaler", 1)):
            if hasattr(self, name) and getattr(self, name).n_columns != width:
                raise ValueError(f"{name} must have {width} column(s)")

    def _array(self, name: str, *shape: int, exponents: bool = False) -> None:
        """Store the field `name` read-only as an array of exactly `shape`
        (an empty list fits every empty shape) holding finite values, for
        `exponents` non-negative integers."""
        arr = np.asarray(getattr(self, name), dtype=float)
        if arr.size == 0 and 0 in shape:
            arr = arr.reshape(shape)
        if arr.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
        if exponents:  # integers in [0, 2^63), so the int64 cast is exact
            if np.any((arr < 0) | (arr % 1 != 0) | (arr >= 2.0 ** 63)):
                raise ValueError(f"{name} must be non-negative integers")
            arr = arr.astype(int)
        arr.setflags(write=False)
        object.__setattr__(self, name, arr)

    def predict(self, x) -> float | np.ndarray:
        """Predict for one point (returns float) or a matrix of points, the
        forward pass running over blocks of at most PREDICT_BLOCK rows."""
        pts, single = _as_matrix(x, self.input_dim)
        if pts.shape[0] <= PREDICT_BLOCK:
            y = self._forward(pts)
        else:
            y = np.empty(pts.shape[0])
            for start in range(0, pts.shape[0], PREDICT_BLOCK):
                block = slice(start, start + PREDICT_BLOCK)
                y[block] = self._forward(pts[block])
        return float(y[0]) if single else y


@dataclass(frozen=True, eq=False)
class AnnModel(_Fitted):
    """Feed-forward network with one nonlinear hidden layer and a linear
    output neuron.

    Prediction on a raw point x:

        y = out_inv( b2 + sum_j W2[j] * f(steepness * (b1[j] + W1[j] @ x')) )

    where x' is the input-scaled point, f is tanh or the logistic sigmoid,
    and out_inv undoes the output scaling.
    """

    input_dim: int
    hidden_size: int
    activation: str
    W1: np.ndarray                 # hidden x input
    b1: np.ndarray                 # hidden
    W2: np.ndarray                 # hidden
    b2: float
    input_scaler: Scaler
    output_scaler: Scaler
    steepness: float = 1.0
    role: str = "PMM"
    response_name: str = ""

    def __post_init__(self):
        self._check("hidden_size")
        self._array("W1", self.hidden_size, self.input_dim)
        self._array("b1", self.hidden_size)
        self._array("W2", self.hidden_size)
        object.__setattr__(self, "b2", float(self.b2))
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (self.steepness > 0  # isfinite also rejects ints beyond float
                and np.all(np.isfinite([self.steepness, self.b2]))):
            raise ValueError("steepness must be positive and finite, b2 finite")

    @property
    def n_parameters(self) -> int:
        return self.hidden_size * (self.input_dim + 2) + 1

    # bound in each family's own body, where the benchmark's tracer wraps it
    predict = _Fitted.predict

    def _forward(self, pts: np.ndarray) -> np.ndarray:
        xs = scale_apply(self.input_scaler, pts)
        h = ann_hidden(xs, self.W1, self.b1, self.steepness, self.activation)
        y = h @ self.W2 + self.b2
        return scale_invert(self.output_scaler, y[:, None])[:, 0]


@dataclass(frozen=True, eq=False)
class RbfModel(_Fitted):
    """Radial network: weighted sum of Gaussian bumps plus a bias.

    rho(r) = exp(-(r / spread)^2); prediction on a raw point x is
    out_inv(bias + sum_i weights[i] * rho(||x' - centers[i]||)) with x'
    input-scaled and centers stored in the scaled coordinates.
    """

    input_dim: int
    centers: np.ndarray            # neurons x input
    spread: float
    weights: np.ndarray            # neurons
    bias: float
    input_scaler: Scaler
    output_scaler: Scaler
    radial_kind: str = "gaussian"
    role: str = "PMM"
    response_name: str = ""

    def __post_init__(self):
        self._check()
        self._array("weights", np.size(self.weights))  # any 1-D length
        self._array("centers", self.weights.shape[0], self.input_dim)
        object.__setattr__(self, "bias", float(self.bias))
        if self.radial_kind != "gaussian":
            raise ValueError("only the gaussian radial kind is supported")
        if not (self.spread > 0
                and np.all(np.isfinite([self.spread, self.bias]))):
            raise ValueError("spread must be positive and finite, bias finite")

    @property
    def n_neurons(self) -> int:
        return self.centers.shape[0]

    @property
    def n_parameters(self) -> int:
        return self.n_neurons * (self.input_dim + 1) + 1

    predict = _Fitted.predict

    def _forward(self, pts: np.ndarray) -> np.ndarray:
        xs = scale_apply(self.input_scaler, pts)
        if self.n_neurons:
            phi = rbf_design(xs, self.centers, self.spread)
            y = phi @ self.weights + self.bias
        else:
            y = np.full(pts.shape[0], self.bias)
        return scale_invert(self.output_scaler, y[:, None])[:, 0]


@dataclass(frozen=True, eq=False)
class PolyModel(_Fitted):
    """Multivariate polynomial: sum_k coeff[k] * prod_i x_i^terms[k, i].

    Operates on raw inputs (no scalers); `terms` is the exponent matrix,
    one row per retained monomial.
    """

    input_dim: int
    degree: int
    terms: np.ndarray              # monomials x input, integer exponents
    coefficients: np.ndarray
    role: str = "PMM"
    response_name: str = ""

    def __post_init__(self):
        self._check("degree")
        self._array("coefficients", np.size(self.coefficients))
        self._array("terms", self.coefficients.shape[0], self.input_dim,
                    exponents=True)
        if self.terms.size and self.terms.sum(axis=1).max() > self.degree:
            raise ValueError("term total degree exceeds model degree")
        if self.terms.shape[0] != len({tuple(t) for t in self.terms}):
            raise ValueError("duplicate exponent vectors")

    @property
    def n_parameters(self) -> int:
        return self.coefficients.shape[0]

    predict = _Fitted.predict

    def _forward(self, pts: np.ndarray) -> np.ndarray:
        return poly_basis(pts, self.terms) @ self.coefficients


@dataclass(frozen=True, eq=False)
class CallableModel:
    """Adapter giving a plain vectorized function the model predict API.

    Useful for direct-oracle optimization runs and synthetic benchmarks.
    `fn` receives an (n, input_dim) matrix and returns n values.
    """

    input_dim: int
    fn: object
    response_name: str = ""
    role: str = "PMM"

    def predict(self, x) -> float | np.ndarray:
        pts, single = _as_matrix(x, self.input_dim)
        y = np.asarray(self.fn(pts), dtype=float).reshape(-1)
        return float(y[0]) if single else y


class _AnnStack:
    """ANNs sharing input scaling, activation and steepness, stacked on one
    hidden layer with a block output matrix (`stack_block`), so one forward
    pass gives every network's prediction."""

    def __init__(self, models: list[AnnModel]):
        first = models[0]
        self.input_dim, self.input_scaler = first.input_dim, first.input_scaler
        self.activation, self.steepness = first.activation, first.steepness
        self.W1 = np.vstack([m.W1 for m in models])
        self.b1 = np.concatenate([m.b1 for m in models])
        self.W2 = (stack_block([m.hidden_size for m in models])
                   * np.concatenate([m.W2 for m in models])[:, None])
        self.b2 = np.array([m.b2 for m in models])
        # each column's output step, y * scale + shift as in `scale_invert`
        self.out_scale = np.array([m.output_scaler.scale[0] for m in models])
        self.out_shift = np.array([m.output_scaler.shift[0] for m in models])

    def forward(self, pts: np.ndarray) -> np.ndarray:
        xs = scale_apply(self.input_scaler, pts)
        h = ann_hidden(xs, self.W1, self.b1, self.steepness, self.activation)
        return (h @ self.W2 + self.b2) * self.out_scale + self.out_shift


class ModelBank:
    """Models that see the same rows, evaluated together: `predict(x)` is the
    (n, len(models)) matrix of each model's predictions for the n rows of
    `x`, one column per model in the given order. The one model evaluator
    of the optimizers.

    ANNs whose input scalers are equal by value and which share input count,
    activation and steepness run as one stack: one input check, one input
    scaling and one hidden layer for the whole group, in blocks of at most
    PREDICT_BLOCK rows. Any other model runs its own `predict` on the rows.
    A stack's predictions equal each network's `predict` up to rounding.
    """

    def __init__(self, models):
        models = list(models)
        self.width = len(models)
        groups: dict[tuple, list[int]] = {}
        self._others = []
        for col, model in enumerate(models):
            if isinstance(model, AnnModel):
                sc = model.input_scaler
                key = (model.input_dim, model.activation, model.steepness,
                       sc.kind, tuple(sc.shift.tolist()),
                       tuple(sc.scale.tolist()))
                groups.setdefault(key, []).append(col)
            else:
                self._others.append((col, model))
        self._stacks = [(np.array(cols), _AnnStack([models[c] for c in cols]))
                        for cols in groups.values()]

    def predict(self, x) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty((rows.shape[0], self.width))
        for cols, stack in self._stacks:
            pts, _ = _as_matrix(rows, stack.input_dim)
            for start in range(0, pts.shape[0], PREDICT_BLOCK):
                block = slice(start, start + PREDICT_BLOCK)
                out[block, cols] = stack.forward(pts[block])
        for col, model in self._others:
            out[:, col] = np.asarray(model.predict(rows)).reshape(-1)
        return out


# --- persistence ----------------------------------------------------------

# kind -> (class, the fields a model file holds after "kind", in file order);
# arrays are saved as lists and scalers as their dicts
_KINDS = {
    "ann": (AnnModel, ("input_dim", "hidden_size", "activation", "steepness",
                       "W1", "b1", "W2", "b2", "input_scaler",
                       "output_scaler", "role", "response_name")),
    "rbf": (RbfModel, ("input_dim", "centers", "spread", "weights", "bias",
                       "radial_kind", "input_scaler", "output_scaler", "role",
                       "response_name")),
    "poly": (PolyModel, ("input_dim", "degree", "terms", "coefficients",
                         "role", "response_name")),
}


def _model_to_dict(model) -> dict:
    for kind, (cls, names) in _KINDS.items():
        if isinstance(model, cls):
            out = {"kind": kind}
            for name in names:
                value = getattr(model, name)
                out[name] = (value.tolist() if isinstance(value, np.ndarray)
                             else value.to_dict() if isinstance(value, Scaler)
                             else value)
            return out
    raise TypeError(f"cannot serialize {type(model).__name__}")


def _model_from_dict(d: dict):
    kind = d.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    cls, names = _KINDS[kind]
    # the constructors turn the saved lists back into arrays
    return cls(**{name: Scaler.from_dict(d[name]) if name.endswith("_scaler")
                  else d[name] for name in names})


def save_model(model, path) -> None:
    """Write a model (any of the three families) to a JSON file; a failed
    write leaves any existing file intact."""
    with atomic_write(path) as fh:
        json.dump(_model_to_dict(model), fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Load a model saved by :func:`save_model`.

    Raises DataFormatError, naming the file, when it is not valid JSON or
    does not describe a valid model.
    """
    with open(path) as fh:
        try:
            return _model_from_dict(json.load(fh))
        except (ValueError, KeyError, TypeError, AttributeError,
                OverflowError) as exc:  # OverflowError: an integer beyond float
            raise DataFormatError(f"{path} is not a valid model file: "
                                  f"{type(exc).__name__}: {exc}") from None
