"""Artificial bee colony optimization of a constrained scalar figure of
merit over metamodels.

Food sources are candidate designs; employed bees perturb their own source
in one coordinate, onlookers re-sample good sources chosen by roulette, and
scouts replace sources that have gone too long without improvement.
Window-style constraints (prediction within a relative tolerance of a
target) are handled with a penalty added to the figure of merit.

Each phase runs as one batch: the problem's `ModelBank` sees one call for
all employed bees, one for all onlookers and one for the scouts of a cycle.
The employed and onlooker phases perturb against a snapshot of the sources
taken when the phase starts (a Jacobi-style update), unlike the sequential
cycle of Karaboga & Basturk (2007), where each bee already sees the
replacements made by the bees before it. The greedy replacements are then
applied in pick order, so an onlooker source picked twice compares its
second candidate against the value its first candidate left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design_space import DesignSpace
from .files import write_csv
from .metamodel import ModelBank

__all__ = [
    "AbcParams", "WindowConstraint", "FomTerm", "FomProblem",
    "abc_optimize", "write_trace_csv",
]


@dataclass(frozen=True)
class AbcParams:
    """Colony configuration: employed and onlooker counts are each half the
    colony."""

    colony_size: int = 20
    limit: int = 50
    max_cycles: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.colony_size < 4 or self.colony_size % 2:
            raise ValueError("colony_size must be even and >= 4")
        if self.limit < 1:
            raise ValueError("limit must be >= 1")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")

    @property
    def n_sources(self) -> int:
        return self.colony_size // 2


@dataclass(frozen=True)
class FomTerm:
    """One weighted component of the figure of merit (minimized)."""

    model: object
    weight: float = 1.0


@dataclass(frozen=True)
class WindowConstraint:
    """Keep a model's prediction within relative_tolerance of center."""

    model: object
    center: float
    relative_tolerance: float

    def __post_init__(self):
        if not self.relative_tolerance > 0:
            raise ValueError("relative_tolerance must be positive")
        if self.center == 0:
            raise ValueError("window center must be nonzero")

    def violation(self, value) -> np.ndarray:
        """Relative distance outside the window, 0 when inside."""
        rel = np.abs(np.asarray(value, dtype=float) - self.center) / abs(self.center)
        return np.maximum(0.0, rel - self.relative_tolerance)


@dataclass(frozen=True)
class FomProblem:
    """Composite minimization objective plus window constraints.

    The figure of merit is sum(weight_i * model_i(x)); infeasible points
    are penalized by penalty_weight times the summed relative window
    violation. The term models, then the window models, are evaluated
    through one `ModelBank`, built with the problem.
    """

    terms: tuple[FomTerm, ...]
    windows: tuple[WindowConstraint, ...] = ()
    penalty_weight: float = 1e3

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "windows", tuple(self.windows))
        if not self.terms:
            raise ValueError("need at least one objective term")
        object.__setattr__(self, "_bank", ModelBank(
            [t.model for t in self.terms] + [w.model for w in self.windows]))
        object.__setattr__(self, "_weights",
                           [float(t.weight) for t in self.terms])
        object.__setattr__(self, "_windows", [
            (float(w.center), abs(float(w.center)),
             float(w.relative_tolerance)) for w in self.windows])

    def evaluate(self, points: np.ndarray):
        """Penalized FoM and total window violation for each row."""
        cols = self._bank.predict(points)
        # each row adds its terms, then its violations, in order from +0.0
        weights, windows = self._weights, self._windows
        fom = weights[0] * cols[:, 0]
        fom += 0.0
        for j in range(1, len(weights)):
            fom += weights[j] * cols[:, j]
        if not windows:
            viol = np.zeros(len(cols))
        for j, (center, scale, tolerance) in enumerate(windows):
            # `WindowConstraint.violation`, in place: +0.0 or more, or NaN,
            # so the first one needs no +0.0 added
            v = np.subtract(cols[:, len(weights) + j], center)
            np.abs(v, out=v)
            v /= scale
            v -= tolerance
            np.maximum(0.0, v, out=v)
            if j:
                viol += v
            else:
                viol = v
        return fom + self.penalty_weight * viol, viol


def write_trace_csv(trace, path) -> None:
    """Persist a per-cycle best-FoM trace as (cycle, best_fom) rows."""
    write_csv(path, ["cycle", "best_fom"], enumerate(trace))


def abc_optimize(space: DesignSpace, problem: FomProblem,
                 params: AbcParams) -> tuple[np.ndarray, float, list[float]]:
    """Minimize the penalized figure of merit with a batched ABC cycle.

    Returns (best design, its FoM, best-so-far trace per cycle). The best
    design is the best feasible point ever seen if any exists, otherwise
    the best penalized point; the trace follows the penalized best and is
    non-increasing. A non-finite penalized FoM counts as +inf: it never
    wins a greedy comparison, gets no roulette weight and is never the
    best so far. Each phase evaluates its candidates in one batch, so
    every model sees at most 1 + 3 * max_cycles predict calls.
    Deterministic for a given seed.
    """
    rng = np.random.default_rng(params.seed)
    n_src = params.n_sources
    dim = space.dim
    lower, upper = space.lower, space.upper

    def evaluate(points):
        fom, viol = problem.evaluate(points)
        return np.where(np.isfinite(fom), fom, np.inf), viol

    sources = space.from_unit(rng.random((n_src, dim)))
    fom, viol = evaluate(sources)
    trials = [0] * n_src

    best_x = sources[int(np.argmin(fom))].copy()
    best_f = float(fom.min())
    best_feasible_x = None
    best_feasible_f = np.inf

    def note(points, values: list, violations: list) -> None:
        """Fold the rows into the best so far, in order; a strict < keeps
        the first of equal values."""
        nonlocal best_x, best_f, best_feasible_x, best_feasible_f
        best = best_feasible = None
        for r, (f, g) in enumerate(zip(values, violations)):
            if f < best_f:
                best_f, best = f, r
            if g == 0.0 and f < best_feasible_f:
                best_feasible_f, best_feasible = f, r
        if best is not None:
            best_x = points[best].copy()
        if best_feasible is not None:
            best_feasible_x = points[best_feasible].copy()

    note(sources, fom.tolist(), viol.tolist())
    all_sources = np.arange(n_src)

    def greedy(picks: np.ndarray):
        """Perturb each picked source against the colony as it stands now,
        evaluate all candidates in one batch, then apply the greedy
        replacements in pick order."""
        j = rng.integers(dim, size=n_src)
        k = rng.integers(n_src - 1, size=n_src)
        k += k >= picks
        phi = rng.uniform(-1.0, 1.0, size=n_src)
        cand = sources[picks]
        x = cand[all_sources, j]
        # maximum then minimum: np.clip's values in fewer calls
        cand[all_sources, j] = np.minimum(
            np.maximum(x + phi * (x - sources[k, j]), lower[j]), upper[j])
        f_new, g_new = evaluate(cand)
        values = f_new.tolist()
        note(cand, values, g_new.tolist())
        # in pick order, in Python floats: a source picked twice compares
        # its second candidate with the value its first left
        current, won = fom.tolist(), {}
        for r, (i, f) in enumerate(zip(picks.tolist(), values)):
            if f < np.inf and f <= current[i]:
                current[i], won[i] = f, r
                trials[i] = 0
            else:
                trials[i] += 1
        if won:  # each source takes its last winning candidate
            src, rows = list(won), list(won.values())
            sources[src], fom[src], viol[src] = (cand[rows], f_new[rows],
                                                 g_new[rows])

    trace: list[float] = []
    for _ in range(params.max_cycles):
        greedy(all_sources)

        fitness = np.where(fom >= 0, 1.0 / (1.0 + fom), 1.0 + np.abs(fom))
        total = fitness.sum()
        if not total > 0:  # every source is infinite: pick uniformly
            fitness = np.ones(n_src)
            total = fitness.sum()
        cdf = np.cumsum(fitness / total)
        picks = np.searchsorted(cdf, rng.random(n_src), side="right")
        greedy(np.minimum(picks, n_src - 1))

        scouts = [i for i, t in enumerate(trials) if t > params.limit]
        if scouts:
            new = space.from_unit(rng.random((len(scouts), dim)))
            f_new, g_new = evaluate(new)
            sources[scouts], fom[scouts], viol[scouts] = new, f_new, g_new
            for i in scouts:
                trials[i] = 0
            note(new, f_new.tolist(), g_new.tolist())

        trace.append(best_f)

    if best_feasible_x is not None:
        return best_feasible_x, best_feasible_f, trace
    return best_x, best_f, trace
