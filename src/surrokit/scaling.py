"""Column-wise standardization and normalization.

Scalers are fit on training data only and then reused verbatim on
verification or prediction inputs; values scaled with training statistics
may legitimately fall outside [-1, 1] for the minmax kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateColumnError

__all__ = ["Scaler", "fit_scaler", "apply", "invert"]

KINDS = ("none", "meanstd", "minmax")


@dataclass(frozen=True, eq=False)
class Scaler:
    """Immutable per-column affine transform.

    kind "none" is the identity; "meanstd" maps to mean 0, sample stddev 1;
    "minmax" maps the training range onto [-1, 1] (midrange 0, range 2).
    `shift` and `scale` hold the per-column statistics: the forward
    transform is (x - shift) / scale.
    """

    kind: str
    shift: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scaler kind {self.kind!r}")
        object.__setattr__(self, "shift", np.asarray(self.shift, dtype=float))
        object.__setattr__(self, "scale", np.asarray(self.scale, dtype=float))
        self.shift.setflags(write=False)
        self.scale.setflags(write=False)
        if self.shift.ndim != 1 or self.shift.shape != self.scale.shape:
            raise ValueError("shift and scale must be 1-D of the same shape")
        ok = np.isfinite(self.shift) & (self.scale > 0) & (self.scale < np.inf)
        if not np.all(ok):
            raise ValueError("shift must be finite, scale positive and finite")

    @property
    def n_columns(self) -> int:
        return self.shift.shape[0]

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "shift": self.shift.tolist(),
                "scale": self.scale.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        return cls(d["kind"], np.asarray(d["shift"]), np.asarray(d["scale"]))

    @classmethod
    def identity(cls, n_columns: int) -> "Scaler":
        return cls("none", np.zeros(n_columns), np.ones(n_columns))


def fit_scaler(data: np.ndarray, kind: str, names=None) -> Scaler:
    """Fit a scaler of the given kind to the columns of `data`.

    meanstd uses the sample standard deviation (ddof=1). Raises
    DegenerateColumnError naming the offending column when a column has no
    spread under the requested kind.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown scaler kind {kind!r}")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.size == 0:
        raise ValueError("cannot fit a scaler to empty data")
    n_cols = data.shape[1]

    if kind == "none":
        return Scaler.identity(n_cols)

    if kind == "meanstd":
        shift = data.mean(axis=0)
        scale = data.std(axis=0, ddof=1) if data.shape[0] > 1 else np.zeros(n_cols)
    else:  # minmax: (x - mid) / halfrange maps [min, max] -> [-1, 1]
        lo, hi = data.min(axis=0), data.max(axis=0)
        shift = (hi + lo) / 2.0
        scale = (hi - lo) / 2.0

    bad = np.flatnonzero(scale <= 0)
    if bad.size:
        col = int(bad[0])
        label = names[col] if names is not None else f"column {col}"
        raise DegenerateColumnError(
            f"{label} is constant; cannot fit {kind} scaler"
        )
    return Scaler(kind, shift, scale)


def apply(scaler: Scaler, data: np.ndarray) -> np.ndarray:
    """Forward-transform `data` (matrix or single row) with `scaler`."""
    arr = np.asarray(data, dtype=float)
    _check_columns(scaler, arr)
    if scaler.kind == "none":
        return arr.copy()
    return (arr - scaler.shift) / scaler.scale


def invert(scaler: Scaler, data: np.ndarray) -> np.ndarray:
    """Undo :func:`apply`."""
    arr = np.asarray(data, dtype=float)
    _check_columns(scaler, arr)
    if scaler.kind == "none":
        return arr.copy()
    return arr * scaler.scale + scaler.shift


def _check_columns(scaler: Scaler, arr: np.ndarray) -> None:
    width = arr.shape[-1] if arr.ndim else 1
    if width != scaler.n_columns:
        raise ValueError(
            f"data has {width} columns but scaler was fit on {scaler.n_columns}"
        )
