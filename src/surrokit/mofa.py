"""Multi-objective firefly optimization over metamodels.

Keeps a population of K designs; each iteration every design moves toward a
randomly chosen non-dominated feasible peer (or, when no feasible design
exists yet, toward the best design under a randomly weighted scalarization
of the objectives). The population moves in unit-cube coordinates, in
batched regeneration rounds: all pending fireflies draw their targets and
steps at once, every destination is vetted in one batch through the
constraint models' `ModelBank`, and the moves that violate a constraint
stay pending for the next round. While no firefly is feasible, a move that
lowers the mover's total constraint violation is accepted as well, so an
infeasible population descends toward the feasible region instead of
waiting for a random step to land in it. After
1 + max_regen rounds the fireflies still pending stay put for the
iteration. New positions are built from the old population only (a
Jacobi-style update), so the order in which fireflies move does not
matter. Once a firefly satisfies the constraints it never leaves them
again, so the population accumulates feasibility; the returned archive is
the feasible, mutually non-dominated subset of the final population (the
run's K Pareto candidates), without exact duplicate objective rows. A row
with any non-finite prediction counts as infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design_space import DesignSpace
from .errors import InfeasibleRunError
from .files import write_csv
from .metamodel import ModelBank

__all__ = [
    "ObjectiveSpec", "ConstraintSpec", "MofaParams", "ParetoArchive",
    "non_dominated", "scalarize", "move_vector", "mofa_optimize",
]

DIRECTIONS = ("maximize", "minimize")
ND_BLOCK = 1 << 20  # elementwise comparisons per block of non_dominated
# at most this many rows, two objectives sweep in Python, where the numpy
# sweep's fixed cost of about 15 us is more than the loop it replaces (the
# two break even near 56 rows on one 2-vCPU Xeon)
ND_SMALL = 48
SENSES = ("greater", "less")


@dataclass(frozen=True)
class ObjectiveSpec:
    """One optimization objective backed by a predictive model."""

    name: str
    direction: str
    model: object

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")


@dataclass(frozen=True)
class ConstraintSpec:
    """Requirement that a model's prediction stays above ("greater") or below
    ("less") a bound; a prediction past the bound violates it by its
    distance to the bound."""

    name: str
    model: object
    bound: float
    sense: str

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"sense must be one of {SENSES}")
        if not np.isfinite(self.bound):
            raise ValueError("bound must be finite")


@dataclass(frozen=True)
class MofaParams:
    """Firefly run configuration."""

    K: int = 20
    t_max: int = 500
    beta0: float = 1.0
    gamma: float = 1.0
    alpha: float = 0.25
    alpha_decay: float = 0.97
    max_regen: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("population K must be >= 2")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.max_regen < 1:
            raise ValueError("max_regen must be >= 1")
        for name in ("beta0", "gamma", "alpha", "alpha_decay"):
            if not 0 <= getattr(self, name) < np.inf:  # False for NaN
                raise ValueError(f"{name} must be non-negative and finite")


@dataclass
class ParetoArchive:
    """Feasible, mutually non-dominated designs with their evaluations."""

    designs: np.ndarray
    objectives: np.ndarray
    constraints: np.ndarray
    objective_names: list[str] = field(default_factory=list)
    constraint_names: list[str] = field(default_factory=list)
    variable_names: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return self.designs.shape[0]

    def write_csv(self, path) -> None:
        header = (list(self.variable_names) + list(self.objective_names)
                  + list(self.constraint_names))
        write_csv(path, header, np.hstack([self.designs, self.objectives,
                                           self.constraints]))


def non_dominated(points, directions) -> list[int]:
    """Indices of the points dominated by no other point, in input order.

    A point dominates another when it is no worse in every objective and
    strictly better in at least one, respecting each objective's direction.
    Exact duplicates do not dominate each other, and a row holding a NaN
    neither dominates nor is dominated. Two objectives take an O(n log n)
    sort-and-sweep (Kung, Luccio & Preparata 1975), in Python over the rows
    of at most ND_SMALL points and in numpy over more; more objectives
    compare every row with all rows in one broadcast per block of rows, at
    most ND_BLOCK comparisons at a time.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return []
    pts = np.atleast_2d(pts)
    if len(directions) != pts.shape[1]:
        raise ValueError("one direction per objective required")
    f = pts * np.array([1.0 if d == "minimize" else -1.0 for d in directions])
    if f.shape[1] == 2:
        return (_non_dominated_2d_small(f.tolist())
                if f.shape[0] <= ND_SMALL else _non_dominated_2d(f))
    n, k = f.shape
    keep = np.empty(n, dtype=bool)
    step = max(1, ND_BLOCK // max(1, n * k))
    for start in range(0, n, step):
        block = f[start:start + step, None, :]
        # [i, j]: row j dominates row i of the block
        beaten = (f <= block).all(axis=2) & (f < block).any(axis=2)
        keep[start:start + step] = ~beaten.any(axis=1)
    return np.flatnonzero(keep).tolist()


def _non_dominated_2d(f: np.ndarray) -> list[int]:
    """Sort-and-sweep non-domination filter for a 2-column minimization matrix.

    After sorting by (f1, f2), a row is dominated exactly when an earlier
    group of equal f1 reached an f2 no larger than its own, or when the
    first row of its own group has a strictly smaller f2.
    """
    nan = np.isnan(f).any(axis=1)
    rows = (~nan).nonzero()[0]
    order = rows[np.lexsort((f[rows, 1], f[rows, 0]))]
    f1, f2 = f[order, 0], f[order, 1]
    new_group = np.ones(f1.size, dtype=bool)
    new_group[1:] = f1[1:] != f1[:-1]
    group = np.cumsum(new_group) - 1
    group_first = f2[new_group]
    # NaN compares false: the first group has no earlier rows
    earlier_min = np.concatenate(
        ([np.nan], np.minimum.accumulate(group_first)[:-1]))
    dominated = (earlier_min[group] <= f2) | (group_first[group] < f2)
    keep = np.zeros(f.shape[0], dtype=bool)
    keep[order[~dominated]] = True
    keep[nan] = True
    return keep.nonzero()[0].tolist()


def _non_dominated_2d_small(f: list) -> list[int]:
    """`_non_dominated_2d` over the rows `f` as lists, one sweep in Python.
    `earlier` is None, not +inf, before the first group ends, so a +inf f2
    in the first group is not dominated."""
    keep = [True] * len(f)
    earlier = first = f1 = None
    # NaN != NaN: a row holding a NaN stays out of the sweep and is kept
    for i in sorted((i for i, (a, b) in enumerate(f) if a == a and b == b),
                    key=f.__getitem__):
        a, b = f[i]
        if first is None or a != f1:  # a new group of equal f1
            if first is not None and (earlier is None or first < earlier):
                earlier = first
            f1, first = a, b
        if (earlier is not None and earlier <= b) or first < b:
            keep[i] = False
    return [i for i, kept in enumerate(keep) if kept]


def scalarize(objective_values, w, directions) -> np.ndarray:
    """Weighted sum of population-normalized objectives, larger is better.

    Each objective column is normalized by its own population mean and
    sample standard deviation (columns with zero spread are centered only).
    `w` is a weight vector summing to 1, or an (m, k) matrix of m such
    vectors, which gives one column of scores per weight row. Maximized
    objectives enter with +, minimized with -.
    """
    vals = np.atleast_2d(np.asarray(objective_values, dtype=float))
    k = vals.shape[1]
    weights = np.asarray(w, dtype=float)
    if weights.ndim not in (1, 2) or weights.shape[-1] != k:
        raise ValueError("need one weight per objective")
    sign = np.array([1.0 if d == "maximize" else -1.0 for d in directions])

    centered = vals - vals.mean(axis=0)
    std = vals.std(axis=0, ddof=1) if vals.shape[0] > 1 else np.zeros(k)
    norm = np.where(std > 0, std, 1.0)
    return (centered / norm) @ (weights * sign).T


def move_vector(current, target, params: MofaParams,
                rng: np.random.Generator, alpha: float | None = None) -> np.ndarray:
    """Destination of an attraction step toward `target` plus a random walk
    term, all in unit-cube coordinates.

    The step is beta0 * exp(-gamma * r^2) * (target - current) + alpha *
    (u - 0.5) per coordinate, where r is the distance between the two
    positions; the destination current + step is clamped to [0, 1].
    `current` and `target` are either single positions or (n, dim) arrays
    giving one move per row; the rows draw their random terms in order, so
    a batch equals n single-position calls on the same generator.
    """
    cur = np.asarray(current, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if cur.shape != tgt.shape:
        raise ValueError("current and target dimensions differ")
    if alpha is None:
        alpha = params.alpha
    diff = tgt - cur
    r2 = np.add.reduce(diff * diff, axis=-1, keepdims=True)
    step = params.beta0 * np.exp(-params.gamma * r2) * diff
    step = step + alpha * (rng.random(cur.shape) - 0.5)
    # maximum then minimum: np.clip's values, NaN included, in fewer calls
    return np.minimum(np.maximum(cur + step, 0.0), 1.0)


def mofa_optimize(space: DesignSpace, objectives: list[ObjectiveSpec],
                  constraints: list[ConstraintSpec],
                  params: MofaParams) -> ParetoArchive:
    """Run the firefly loop and return the feasible Pareto archive.

    Deterministic for a given seed. Each iteration moves the whole
    population in regeneration rounds: every pending firefly draws a target
    and a step, all destinations go to the constraint models as one batch
    (one `ModelBank` call), and only the rejected fireflies stay pending
    for the next round, so a constraint model sees at most 1 + max_regen
    batches per iteration. A move is accepted when its destination is
    feasible or, while no firefly is feasible, when it lowers the mover's
    total violation.
    Constraint values computed while vetting a move, and their total
    violation, are reused as the mover's values next iteration. A move with a non-finite constraint
    prediction is rejected, and a row with any non-finite prediction is
    infeasible, so it is never a target and never enters the archive.
    Raises InfeasibleRunError (carrying the smallest total violation seen)
    when no design ever satisfied all constraints.
    """
    if len(objectives) < 2:
        raise ValueError("need at least two objectives for Pareto optimization")
    directions = [o.direction for o in objectives]
    n_obj = len(objectives)
    obj_bank = ModelBank(o.model for o in objectives)
    con_bank = ModelBank(c.model for c in constraints)
    # constraint j is violated by max(0, sense_j * (bound_j - g_j)), sense
    # +1 for "greater" and -1 for "less"
    bounds = np.array([c.bound for c in constraints])
    senses = np.array([1.0 if c.sense == "greater" else -1.0
                       for c in constraints])

    # the population moves in unit-cube coordinates; `pop` is its raw image
    rng = np.random.default_rng(params.seed)
    lower, upper = space.lower, space.upper
    span = upper - lower  # as in `space.from_unit`
    unit = rng.random((params.K, space.dim))
    pop = space.from_unit(unit)
    g_pop = con_bank.predict(pop)

    best_violation = np.inf
    alpha = params.alpha

    def total_violation(g_rows: np.ndarray) -> np.ndarray:
        """Summed violation per row, +inf where a prediction is non-finite;
        also folds the smallest value into best_violation."""
        nonlocal best_violation
        viol = np.where(np.isfinite(g_rows).all(axis=1),
                        np.maximum(0.0, senses * (bounds - g_rows)).sum(axis=1),
                        np.inf)
        best_violation = min(best_violation, float(viol.min()))
        return viol

    def feasible_rows(finite: np.ndarray, viol: np.ndarray) -> np.ndarray:
        return ((viol == 0.0) & finite).nonzero()[0]

    # each firefly's total violation travels with its constraint values, so
    # only new rows are summed (and folded into best_violation)
    viol_pop = total_violation(g_pop)
    for _ in range(params.t_max):
        f_pop = obj_bank.predict(pop)
        finite = np.isfinite(f_pop).all(axis=1)
        feasible = feasible_rows(finite, viol_pop)
        nd_idx = feasible[non_dominated(f_pop[feasible], directions)]
        if not nd_idx.size:
            scored = finite.nonzero()[0]

        new_unit, new_pop = unit.copy(), pop.copy()
        new_g, new_viol = g_pop.copy(), viol_pop.copy()
        pending = np.arange(params.K)
        for _ in range(1 + params.max_regen):
            n = pending.size
            current = unit[pending]
            if nd_idx.size:
                target = unit[nd_idx[rng.integers(nd_idx.size, size=n)]]
            elif scored.size:
                if n_obj == 2:
                    w = rng.random(n)
                    weights = np.column_stack([1.0 - w, w])
                else:
                    weights = rng.dirichlet(np.ones(n_obj), size=n)
                psi = scalarize(f_pop[scored], weights, directions)
                target = unit[scored[np.argmax(psi, axis=0)]]
            else:  # no finite objective row to aim at: random walk only
                target = current
            dest_unit = move_vector(current, target, params, rng, alpha)
            # re-clamp: mapping to raw units can overshoot a bound by an ulp
            dest = np.minimum(np.maximum(lower + dest_unit * span, lower), upper)
            g_dest = con_bank.predict(dest)
            viol_dest = total_violation(g_dest)
            ok = viol_dest == 0.0
            if not nd_idx.size:  # no feasible firefly yet: descend
                ok |= viol_dest < viol_pop[pending]
            moved = pending[ok]
            new_unit[moved], new_pop[moved] = dest_unit[ok], dest[ok]
            new_g[moved], new_viol[moved] = g_dest[ok], viol_dest[ok]
            pending = pending[~ok]
            if not pending.size:
                break
        # fireflies still pending found no acceptable move on any attempt:
        # they stay put

        unit, pop, g_pop, viol_pop = new_unit, new_pop, new_g, new_viol
        alpha *= params.alpha_decay

    # archive = feasible non-dominated subset of the final population
    f_pop = obj_bank.predict(pop)
    feasible = feasible_rows(np.isfinite(f_pop).all(axis=1), viol_pop)
    if not feasible.size:
        raise InfeasibleRunError(
            "no feasible design found; smallest total constraint violation "
            f"was {best_violation:.6g}", best_violation,
        )
    front = feasible[non_dominated(f_pop[feasible], directions)]
    # exact duplicate objective rows: keep the first occurrence, in order
    _, first = np.unique(f_pop[front], axis=0, return_index=True)
    front = front[np.sort(first)]
    return ParetoArchive(
        designs=pop[front], objectives=f_pop[front], constraints=g_pop[front],
        objective_names=[o.name for o in objectives],
        constraint_names=[c.name for c in constraints],
        variable_names=space.names,
    )
