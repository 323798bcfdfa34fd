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
from .scaling import Scaler, invert as scale_invert

__all__ = [
    "AnnModel", "RbfModel", "PolyModel", "CallableModel",
    "ModelBank", "AnnStack", "poly_basis",
    "save_model", "load_model",
]

ACTIVATIONS = ("tanh", "logsig")
ROLES = ("PMM", "CPM")
# rows per block of a batch predict: a forward pass's temporaries scale with
# this, so predict memory does not grow with the row count
PREDICT_BLOCK = 8192
# entries per block of terms in `_basis`: the one buffer of gathered
# factors, the build's only temporary beside the basis itself
BASIS_BLOCK = 2 ** 15
# the highest polynomial degree that training fits and a model file holds:
# `_basis` does one gather and multiply per unit of degree
POLY_MAX_DEGREE = 6


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


class AnnStack:
    """N single-hidden-layer networks over n inputs on one hidden layer of H
    units, network k owning the k-th run of `sizes[k]` units, which feed
    only its output. Their weights are one flat vector [W1 (H, n), b1 (H),
    W2 (H), b2 (N)], whose entries owned by network k (owner == k) are, in
    order, its own packing (W1 row-major, b1, W2, b2)."""

    def __init__(self, sizes, n: int):
        self.n, self.hidden, nets = n, sum(sizes), len(sizes)
        unit_net = np.repeat(np.arange(nets), sizes)
        # entry [i, k] is 1 when hidden unit i feeds output k
        self.block = (unit_net[:, None] == np.arange(nets)).astype(float)
        self.owner = np.concatenate([np.repeat(unit_net, n), unit_net,
                                     unit_net, np.arange(nets)])
        # penalty @ theta**2 sums each network's squared W1 and W2 weights
        weight = np.repeat([1.0, 0.0, 1.0, 0.0],
                           [self.hidden * n, self.hidden, self.hidden, nets])
        self.penalty = (self.owner == np.arange(nets)[:, None]) * weight

    @classmethod
    def of(cls, models) -> AnnStack:
        """The stack of AnnModels of one input count and activation,
        holding their `folded` weights, as `forward` takes them, to
        `predict`; a stack of one `views` one model's `folded`."""
        stack = cls([m.hidden_size for m in models], models[0].input_dim)
        stack.activation = models[0].activation
        w1, b1, w2, b2 = stack.views(stack.pack([m.folded for m in models]))
        stack.weights = (w1.T, b1, stack.output_matrix(w2), b2)
        return stack

    def views(self, theta: np.ndarray):
        """(W1, b1, W2, b2) of the flat vector `theta`, as views."""
        h, n = self.hidden, self.n
        return (theta[:h * n].reshape(h, n), theta[h * n: h * n + h],
                theta[h * n + h: h * n + 2 * h], theta[h * n + 2 * h:])

    def pack(self, vectors) -> np.ndarray:
        """The flat vector of the networks' own packings `vectors`."""
        theta = np.empty(self.owner.size)
        for k, vec in enumerate(vectors):
            theta[self.owner == k] = vec
        return theta

    def output_matrix(self, w2: np.ndarray, out=None) -> np.ndarray:
        """The (H, N) output weights block * w2[:, None], written to `out`
        if given."""
        return np.multiply(self.block, w2[:, None], out=out)

    def forward(self, weights, xs: np.ndarray, activation: str,
                steepness: float, h=None, out=None):
        """The one ANN forward pass over the rows `xs` (scaled in training,
        raw in `predict`, whose weights are `folded`): (h, out), the
        hidden outputs h = f(steepness * (xs @ W1.T + b1)) and the outputs
        h @ w_out + b2, one column per network, where `weights` is (W1.T,
        b1, w_out, b2): views of a flat vector's W1, b1 and b2, and the
        `output_matrix` of its W2. A caller that runs many passes may give
        the (rows, H) and (rows, N) arrays to write h and out to."""
        w1t, b1, w_out, b2 = weights
        h = np.add(np.matmul(xs, w1t, out=h), b1, out=h)
        if steepness != 1.0:  # 1.0 * z is z
            h *= steepness
        if activation == "tanh":
            np.tanh(h, out=h)
        else:  # 1 / (1 + exp(-z))
            np.exp(np.negative(h, out=h), out=h)
            np.divide(1.0, np.add(h, 1.0, out=h), out=h)
        out = np.matmul(h, w_out, out=out)
        return h, np.add(out, b2, out=out)

    def predict(self, pts: np.ndarray) -> np.ndarray:
        """A stack made by `of`: its networks' predictions for the raw rows
        `pts`, one column each."""
        return self.forward(self.weights, pts, self.activation, 1.0)[1]


def fold(model: AnnModel) -> np.ndarray:
    """The packing (W1 row-major, b1, W2, b2) of the network `model` with
    its input scaler, steepness and output scaler folded into the weights:
    the tanh or logistic network on raw inputs, steepness 1 and no output
    scaling, that `model` is. Its one prediction form, and the weights the
    emitted Verilog-AMS module reads."""
    s_in, s_out, lam = model.input_scaler, model.output_scaler, model.steepness
    gain = 1.0 / s_in.scale            # x' = gain * x + offset
    offset = -s_in.shift / s_in.scale
    w1 = lam * model.W1 * gain[None, :]
    b1 = lam * (model.b1 + model.W1 @ offset)
    a, c = float(s_out.scale[0]), float(s_out.shift[0])  # y = a * z + c
    return np.concatenate([w1.ravel(), b1, a * model.W2, [a * model.b2 + c]])


def _rbf_rows(pts: np.ndarray, scaler: Scaler) -> np.ndarray:
    """The (rows, n + 2) row side [x, ||x||^2, 1] of `_rbf_columns`, x the
    raw rows `pts` scaled by `scaler` as `scaling.apply` scales them."""
    aug = np.empty((pts.shape[0], pts.shape[1] + 2))
    with np.errstate(over="ignore"):  # an inf row is far from every center
        xs = np.subtract(pts, scaler.shift, out=aug[:, :-2])
        np.divide(xs, scaler.scale, out=xs)
    np.einsum("ij,ij->i", xs, xs, out=aug[:, -2])
    aug[:, -1] = 1.0
    return aug


def _rbf_centers(centers: np.ndarray, spread: float) -> tuple:
    """The (n + 2, neurons) center side [2c / s^2; -1 / s^2; -||c||^2 / s^2]
    of `_rbf_columns`, s the spread, one column per center, read-only, and
    its bound (R + 28 s)^2 on a row's ||x||^2, R the largest center norm.
    Raises ValueError unless 8 times the block is finite, which keeps its
    product with a row within the bound finite: the terms of a column's
    product add up to at most (||x|| + ||c||)^2 / s^2 <= (2R / s + 28)^2."""
    with np.errstate(all="ignore"):  # reported by the check below
        s2 = np.float64(spread) ** 2
        norms = np.einsum("ij,ij->i", centers, centers)
        block = np.vstack([(2.0 * centers.T) / s2,
                           np.full(len(centers), -1 / s2), norms / -s2])
        if not np.isfinite(8.0 * block).all():
            raise ValueError(f"spread {spread:g} overflows the Gaussian "
                             f"exponent of these centers")
        # inf if it overflows: then only an inf ||x||^2 reaches it
        limit = float((np.sqrt(norms.max(initial=0.0)) + 28 * spread) ** 2)
    block.setflags(write=False)
    return block, limit


def _rbf_columns(rows: np.ndarray, block: np.ndarray,
                 limit: float) -> np.ndarray:
    """The one RBF kernel: the Gaussian columns exp(-||x - c||^2 / s^2) of
    the `_rbf_rows` side `rows` for the `_rbf_centers` side `block` and
    its bound `limit`. Their product is the exponent, clamped at 0 because
    the cancellation can leave it a rounding error above 0 near a center;
    the clamp and the exp run in place. A row whose ||x||^2 reaches
    `limit` is 28 spreads or more from every center, where exp(-28^2) is
    0: it enters the product as zeros, and its exponents are set to -inf."""
    if rows[:, -2].max(initial=-np.inf) < limit:
        z = np.matmul(rows, block)
    else:
        far = rows[:, -2] >= limit
        z = np.matmul(np.where(far[:, None], 0.0, rows), block)
        z[far] = -np.inf
    np.minimum(z, 0.0, out=z)
    return np.exp(z, out=z)


def _exponents(values, name: str) -> np.ndarray:
    """`values` as an int array; ValueError unless each is a non-negative
    integer below 2^63, so that the int64 cast is exact (NaN and inf are
    not)."""
    arr = np.asarray(values)
    if arr.dtype.kind == "i":  # the float test costs more than a 1-row basis
        bad = arr < 0
    else:
        arr = np.asarray(arr, dtype=float)
        with np.errstate(invalid="ignore"):  # inf % 1 is NaN: rejected
            bad = ~((arr >= 0) & (arr % 1 == 0) & (arr < 2.0 ** 63))
    if bad.any():
        raise ValueError(f"{name} must be non-negative integers")
    return arr.astype(int, copy=False)


def _factors(terms: np.ndarray, limit: float = np.inf) -> np.ndarray:
    """The factor table of `terms`: [j, k] is the variable (n: a ones row) of
    term k's j-th factor, whose cumulative exponent first exceeds j; a row
    per unit of the top degree, at least one, which may not exceed `limit`."""
    cum = np.cumsum(terms, axis=1)
    degree = int(cum[:, -1].max()) if terms.size else 0
    if degree > limit:
        raise ValueError("term total degree exceeds model degree")
    return np.array([(cum <= j).sum(axis=1) for j in range(max(degree, 1))])


def _basis(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The one polynomial basis kernel: the monomials of the rows `x` for
    the factor table `table` of `_factors`, built feature-major: each
    term's first factor is gathered from ext = [x.T; ones], the others
    multiplied into it in place through one buffer of at most BASIS_BLOCK
    entries. Its (rows, terms) F-ordered transpose computes each column on
    its own, so some terms' columns equal their own basis bit for bit."""
    rows, n = x.shape
    ext = np.empty((n + 1, rows))
    ext[:n] = x.T
    ext[n] = 1.0
    out = ext[table[0]]
    if len(table) > 1:
        step = max(1, BASIS_BLOCK // max(rows, 1))
        buf = np.empty((min(step, len(out)), rows))
        for start in range(0, len(out), step):
            block = out[start:start + step]
            for idx in table[1:]:
                # "clip" writes straight to `buf`; every index is in range
                block *= np.take(ext, idx[start:start + step], axis=0,
                                 out=buf[:len(block)], mode="clip")
    return out.T


def poly_basis(x: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Monomial columns prod_i x[:, i] ** terms[k, i], one per row of the
    exponent matrix `terms` (non-negative integers, else ValueError): the
    `_basis` of their `_factors`, for the trainer's candidates."""
    x = np.asarray(x, dtype=float)
    terms = _exponents(terms, "terms").reshape(-1, x.shape[1])
    return _basis(x, _factors(terms))


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
        if exponents:
            arr = _exponents(arr, name)
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

    The network on a raw point x is

        y = out_inv( b2 + sum_j W2[j] * f(steepness * (b1[j] + W1[j] @ x')) )

    where x' is the input-scaled point, f is tanh or the logistic sigmoid,
    and out_inv undoes the output scaling. `folded`, made once by `fold`,
    holds it with scalers and steepness folded into the weights, and
    `predict` runs that form alone: b2' + sum_j W2'[j] * f(b1'[j] + W1'[j]
    @ x), the sum the emitted Verilog-AMS module computes from the same
    weights. It equals the formula above to rounding.
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
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            object.__setattr__(self, "folded", fold(self))
        if not np.isfinite(self.folded).all():
            raise ValueError("folding the scalers in overflows the weights")
        self.folded.setflags(write=False)
        # the network as a stack of one, made once for every predict
        object.__setattr__(self, "_stack", AnnStack.of([self]))

    @property
    def n_parameters(self) -> int:
        return self.hidden_size * (self.input_dim + 2) + 1

    # bound in each family's own body, where the benchmark's tracer wraps it
    predict = _Fitted.predict

    def _forward(self, pts: np.ndarray) -> np.ndarray:
        return self._stack.predict(pts)[:, 0]


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
        # the center side of every predict's product and its bound, made once
        object.__setattr__(self, "_kernel",
                           _rbf_centers(self.centers, self.spread))

    @property
    def n_neurons(self) -> int:
        return self.centers.shape[0]

    @property
    def n_parameters(self) -> int:
        return self.n_neurons * (self.input_dim + 1) + 1

    predict = _Fitted.predict

    def _forward(self, pts: np.ndarray) -> np.ndarray:
        # with no neurons, the kernel's (rows, 0) columns leave the bias
        y = (_rbf_columns(_rbf_rows(pts, self.input_scaler), *self._kernel)
             @ self.weights + self.bias)
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
        if self.degree > POLY_MAX_DEGREE:
            raise ValueError(f"degree must be at most {POLY_MAX_DEGREE}, "
                             f"got {self.degree}")
        self._array("coefficients", np.size(self.coefficients))
        self._array("terms", self.coefficients.shape[0], self.input_dim,
                    exponents=True)
        # the factor table of every predict's basis, made once
        object.__setattr__(self, "_table", _factors(self.terms, self.degree))
        self._table.setflags(write=False)
        if self.terms.shape[0] != len({tuple(t) for t in self.terms}):
            raise ValueError("duplicate exponent vectors")

    @property
    def n_parameters(self) -> int:
        return self.coefficients.shape[0]

    predict = _Fitted.predict

    def _forward(self, pts: np.ndarray) -> np.ndarray:
        return _basis(pts, self._table) @ self.coefficients


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


class ModelBank:
    """Models that see the same rows, evaluated together: `predict(x)` is the
    (n, len(models)) matrix of each model's predictions for the n rows of
    `x`, one column per model in the given order. The one model evaluator
    of the optimizers.

    The models must take one input count, checked when the bank is made.
    ANNs of one activation run as one `AnnStack` of their `folded`
    weights, built once: one forward pass for the whole group, in blocks
    of at most PREDICT_BLOCK rows. A bank holding ANNs checks its input
    once per call for all of them. When one stack holds every column, a
    call of at most PREDICT_BLOCK rows returns its output as it is. Any
    other model runs its own `predict` on the rows. A stack's columns
    equal each network's `predict` up to the summation order of their
    products.
    """

    def __init__(self, models):
        models = list(models)
        self.width = len(models)
        dims = {m.input_dim for m in models if hasattr(m, "input_dim")}
        if len(dims) > 1:
            raise ValueError(f"the models of one bank take different input "
                             f"counts {sorted(dims)}")
        groups: dict[str, list[int]] = {}
        self._others = []
        for col, model in enumerate(models):
            if isinstance(model, AnnModel):
                groups.setdefault(model.activation, []).append(col)
            else:
                self._others.append((col, model))
        self._stacks = [(np.array(cols), AnnStack.of([models[c] for c in cols]))
                        for cols in groups.values()]
        self._dim = dims.pop() if self._stacks else None
        # columns are grouped in order, so a lone stack holds them in order
        self._whole = (self._stacks[0][1] if len(self._stacks) == 1
                       and not self._others else None)

    def predict(self, x) -> np.ndarray:
        if self._dim is None:  # no ANN: each model checks its own input
            rows = np.atleast_2d(np.asarray(x, dtype=float))
        else:
            rows, _ = _as_matrix(x, self._dim)
        if self._whole is not None and rows.shape[0] <= PREDICT_BLOCK:
            return self._whole.predict(rows)
        out = np.empty((rows.shape[0], self.width))
        for cols, stack in self._stacks:
            for start in range(0, rows.shape[0], PREDICT_BLOCK):
                block = slice(start, start + PREDICT_BLOCK)
                out[block, cols] = stack.predict(rows[block])
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
