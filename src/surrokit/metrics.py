"""Goodness-of-fit statistics and model selection.

The error measures follow the usual conventions: RMSE in response units,
RRSE relative to the centered sum of squares of the true response, RMAE as
the worst absolute error relative to the sample standard deviation of the
true response. The identity rrse^2 = 1 - r^2 holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import UndefinedVarianceError

__all__ = [
    "FitReport", "rmse", "r_squared", "rmae", "rrse",
    "CRITERIA", "select_best", "fit_report", "render_report_table",
]

# the model selection criteria of `select_best`
CRITERIA = ("verify_rmse", "verify_r2")


def _pair(y, yhat) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=float).reshape(-1)
    yhat = np.asarray(yhat, dtype=float).reshape(-1)
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape[0]} vs {yhat.shape[0]}")
    if y.size == 0:
        raise ValueError("empty vectors")
    return y, yhat


def _check_spread(y: np.ndarray) -> None:
    if np.all(y == y[0]):
        raise UndefinedVarianceError("response is constant; statistic undefined")


def rmse(y, yhat) -> float:
    """Root mean square error, sqrt(mean((y - yhat)^2))."""
    y, yhat = _pair(y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def r_squared(y, yhat) -> float:
    """Coefficient of determination, 1 - SSE/SStot. May be negative."""
    y, yhat = _pair(y, yhat)
    _check_spread(y)
    sse = float(np.sum((y - yhat) ** 2))
    sstot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - sse / sstot


def rmae(y, yhat) -> float:
    """Relative maximum absolute error: max|y - yhat| / sample stddev(y)."""
    y, yhat = _pair(y, yhat)
    _check_spread(y)
    return float(np.max(np.abs(y - yhat)) / np.std(y, ddof=1))


def rrse(y, yhat) -> float:
    """Root relative square error: sqrt(SSE / centered SS of y)."""
    y, yhat = _pair(y, yhat)
    _check_spread(y)
    sse = float(np.sum((y - yhat) ** 2))
    sstot = float(np.sum((y - y.mean()) ** 2))
    return math.sqrt(sse / sstot)


@dataclass
class FitReport:
    """Accuracy summary for one trained model.

    rmse/rmae/rrse refer to the verification set when n_verify > 0,
    otherwise to the data the trainer evaluated internally (training rows,
    or the early-stopping holdout for the ANN trainer). r2 fields are NaN
    when the corresponding split had a constant response.
    """

    r2_train: float
    r2_verify: float
    rmse: float
    rmae: float
    rrse: float
    n_train: int
    n_verify: int
    model_descriptor: str = ""
    n_parameters: int = 0

    def overfit(self, threshold: float = 0.2) -> bool:
        """Flag a large train/verify R^2 gap (model not trained correctly)."""
        if math.isnan(self.r2_train) or math.isnan(self.r2_verify):
            return False
        return abs(self.r2_train - self.r2_verify) > threshold

    def to_dict(self) -> dict:
        return asdict(self)


def _safe_r2(y, yhat) -> float:
    try:
        return r_squared(y, yhat)
    except UndefinedVarianceError:
        return float("nan")


def fit_report(model, train_inputs, train_y, verify_inputs=None,
               verify_y=None, descriptor: str = "") -> FitReport:
    """Evaluate `model` on training and (optionally) verification data.

    The verification split drives the rmse/rmae/rrse fields when present.
    """
    train_y = np.asarray(train_y, dtype=float).reshape(-1)
    pred_train = np.asarray(model.predict(np.atleast_2d(train_inputs)))
    r2_t = _safe_r2(train_y, pred_train)

    if verify_inputs is not None and verify_y is not None:
        verify_y = np.asarray(verify_y, dtype=float).reshape(-1)
        pred_v = np.asarray(model.predict(np.atleast_2d(verify_inputs)))
        r2_v = _safe_r2(verify_y, pred_v)
        err_y, err_pred, n_v = verify_y, pred_v, verify_y.size
    else:
        r2_v = float("nan")
        err_y, err_pred, n_v = train_y, pred_train, 0

    try:
        rmae_val = rmae(err_y, err_pred)
        rrse_val = rrse(err_y, err_pred)
    except UndefinedVarianceError:
        rmae_val = rrse_val = float("nan")

    return FitReport(
        r2_train=r2_t, r2_verify=r2_v,
        rmse=rmse(err_y, err_pred), rmae=rmae_val, rrse=rrse_val,
        n_train=train_y.size, n_verify=n_v,
        model_descriptor=descriptor or type(model).__name__,
        n_parameters=getattr(model, "n_parameters", 0),
    )


def select_best(reports: list[FitReport],
                criterion: str = "verify_rmse") -> int:
    """Index of the best report under the criterion.

    verify_rmse minimizes the rmse field; verify_r2 maximizes r2_verify.
    Ties break toward fewer parameters, then earlier list position.
    """
    if not reports:
        raise ValueError("no reports to select from")
    if criterion == "verify_rmse":
        keys = [(r.rmse, r.n_parameters, i) for i, r in enumerate(reports)]
    elif criterion == "verify_r2":
        keys = [(-r.r2_verify, r.n_parameters, i) for i, r in enumerate(reports)]
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    for k in keys:
        if math.isnan(k[0]):
            raise ValueError("criterion value is NaN for at least one report")
    return min(keys)[2]


def render_report_table(rows: list[tuple[str, FitReport]]) -> str:
    """Plain-text table of fit reports, one row per (label, report)."""
    header = ("model", "r2_train", "r2_verify", "rmse", "rmae", "rrse",
              "params", "overfit")

    def fmt(value, spec):
        return "-" if math.isnan(value) else format(value, spec)

    lines = []
    body = []
    for label, r in rows:
        body.append((
            label,
            fmt(r.r2_train, ".4f"), fmt(r.r2_verify, ".4f"),
            fmt(r.rmse, ".6g"), fmt(r.rmae, ".4g"), fmt(r.rrse, ".4g"),
            str(r.n_parameters),
            "yes" if r.overfit() else "no",
        ))
    widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
              for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines.append(fmt.format(*header))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append(fmt.format(*row))
    return "\n".join(lines)
