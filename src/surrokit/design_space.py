"""Bounded design spaces and Latin hypercube sampling.

A design space is an ordered list of named, bounded real variables. The
declaration order is fixed and defines the column order of every sample
matrix, CSV file, and model input downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["DesignVariable", "DesignSpace", "lhs_sample", "lhs_disjoint",
           "check_sample_count"]


@dataclass(frozen=True)
class DesignVariable:
    """One real design variable with inclusive bounds."""

    name: str
    lower: float
    upper: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("design variable needs a non-empty name")
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError(f"{self.name}: bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError(
                f"{self.name}: lower bound {self.lower} must be < upper {self.upper}"
            )


@dataclass(frozen=True)
class DesignSpace:
    """Ordered collection of design variables (dimension = len(variables))."""

    variables: tuple[DesignVariable, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) < 1:
            raise ValueError("design space needs at least one variable")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate variable names: {', '.join(dup)}")

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> list[str]:
        return [v.name for v in self.variables]

    # computed once per space; read-only so no caller can move the bounds
    @cached_property
    def lower(self) -> np.ndarray:
        return _read_only([v.lower for v in self.variables])

    @cached_property
    def upper(self) -> np.ndarray:
        return _read_only([v.upper for v in self.variables])

    def contains(self, points: np.ndarray) -> bool:
        """True if every row of `points` lies inside the bounds."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return bool(np.all(pts >= self.lower) and np.all(pts <= self.upper))

    def from_unit(self, points: np.ndarray) -> np.ndarray:
        """Map unit-hypercube coordinates onto the raw bounds."""
        return self.lower + np.asarray(points, dtype=float) * (self.upper - self.lower)

    @classmethod
    def from_dicts(cls, entries) -> "DesignSpace":
        """Build from an iterable of {"name", "lower", "upper"} mappings."""
        return cls(tuple(
            DesignVariable(e["name"], float(e["lower"]), float(e["upper"]))
            for e in entries
        ))

    def to_dicts(self) -> list[dict]:
        return [{"name": v.name, "lower": v.lower, "upper": v.upper}
                for v in self.variables]


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def lhs_sample(space: DesignSpace, n: int, seed: int) -> np.ndarray:
    """Draw `n` Latin hypercube samples from `space`.

    Each variable's range is split into `n` equal-width strata and exactly
    one sample lands in each stratum, at a uniform random position within
    it. Stratum permutations are independent per column. Deterministic for
    a given seed.
    """
    check_sample_count(n)
    rng = np.random.default_rng(seed)
    return _lhs_draw(space, n, rng)


def check_sample_count(n: int) -> None:
    """Raise ValueError for a sample count the LHS draws cannot take."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")


def _lhs_draw(space: DesignSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty((n, space.dim))
    lower, upper = space.lower, space.upper
    for j in range(space.dim):
        perm = rng.permutation(n)
        u = rng.random(n)
        # (perm + u)/n lands point i in stratum perm[i] of [0, 1)
        out[:, j] = lower[j] + (perm + u) / n * (upper[j] - lower[j])
    return out


_DISJOINT_ATTEMPTS = 100  # LHS draws `lhs_disjoint` tries before it gives up


def lhs_disjoint(space: DesignSpace, n: int, training: np.ndarray,
                 seed: int) -> np.ndarray:
    """Draw an LHS matrix sharing no row (exact float equality) with `training`.

    Under continuous sampling a collision has probability zero; if one does
    occur the whole matrix is redrawn from the same generator, keeping the
    result deterministic for a given seed.
    """
    training = np.atleast_2d(np.asarray(training, dtype=float))
    if training.size == 0:
        raise ValueError("training matrix must be nonempty")
    if training.shape[1] != space.dim:
        raise ValueError(
            f"training has {training.shape[1]} columns, space has {space.dim}"
        )
    check_sample_count(n)

    rng = np.random.default_rng(seed)
    for _ in range(_DISJOINT_ATTEMPTS):
        candidate = _lhs_draw(space, n, rng)
        if not _has_row_collision(candidate, training):
            return candidate
    raise RuntimeError(
        f"could not draw a disjoint sample in {_DISJOINT_ATTEMPTS} attempts"
    )


def _has_row_collision(candidate: np.ndarray, training: np.ndarray) -> bool:
    # exact float equality: adding 0.0 turns -0.0 into 0.0, so rows of
    # equal values have equal bytes
    taken = {row.tobytes() for row in training + 0.0}
    return any(row.tobytes() in taken for row in candidate + 0.0)
