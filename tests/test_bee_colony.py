"""Bee-colony optimizer: convergence, monotone trace, constraint window."""

import numpy as np
import pytest

from surrokit.bee_colony import (AbcParams, FomProblem, FomTerm,
                                 WindowConstraint, abc_optimize,
                                 write_trace_csv)
from surrokit.design_space import DesignSpace, DesignVariable
from surrokit.metamodel import CallableModel


def box_space(dim, lo=-10.0, hi=10.0):
    return DesignSpace(tuple(
        DesignVariable(f"x{i + 1}", lo, hi) for i in range(dim)
    ))


def sphere_problem(dim):
    model = CallableModel(input_dim=dim, fn=lambda X: np.sum(X ** 2, axis=1))
    return FomProblem(terms=(FomTerm(model),))


class CountingModel:
    def __init__(self, fn, dim):
        self.fn = fn
        self.input_dim = dim
        self.rows = 0
        self.calls = 0
        self.response_name = ""

    def predict(self, x):
        arr = np.atleast_2d(np.asarray(x, dtype=float))
        self.rows += arr.shape[0]
        self.calls += 1
        return self.fn(arr)


class TestParams:
    def test_colony_must_be_even(self):
        with pytest.raises(ValueError):
            AbcParams(colony_size=7)

    def test_colony_minimum(self):
        with pytest.raises(ValueError):
            AbcParams(colony_size=2)

    def test_sources_are_half_colony(self):
        assert AbcParams(colony_size=20).n_sources == 10


class TestAbcOptimize:
    def test_sphere_convergence(self):
        space = box_space(5)
        params = AbcParams(colony_size=20, limit=50, max_cycles=500, seed=3)
        best_x, best_f, trace = abc_optimize(space, sphere_problem(5), params)
        assert best_f < 1e-3
        assert np.all(np.abs(best_x) < 0.1)
        assert np.all(np.diff(trace) <= 0)
        assert len(trace) == 500

    def test_constant_objective(self):
        space = box_space(3, 0.0, 1.0)
        model = CallableModel(input_dim=3, fn=lambda X: np.full(X.shape[0], 2.5))
        problem = FomProblem(terms=(FomTerm(model),))
        best_x, best_f, trace = abc_optimize(
            space, problem, AbcParams(colony_size=8, max_cycles=40, seed=1))
        assert best_f == 2.5
        assert space.contains(best_x)
        assert all(v == 2.5 for v in trace)

    def test_seed_determinism(self):
        space = box_space(4)
        params = AbcParams(colony_size=12, max_cycles=80, seed=9)
        r1 = abc_optimize(space, sphere_problem(4), params)
        r2 = abc_optimize(space, sphere_problem(4), params)
        assert np.array_equal(r1[0], r2[0])
        assert r1[1] == r2[1]
        assert r1[2] == r2[2]

    def test_different_seeds_explore_differently(self):
        space = box_space(4)
        p1 = AbcParams(colony_size=12, max_cycles=30, seed=1)
        p2 = AbcParams(colony_size=12, max_cycles=30, seed=2)
        r1 = abc_optimize(space, sphere_problem(4), p1)
        r2 = abc_optimize(space, sphere_problem(4), p2)
        assert not np.array_equal(r1[0], r2[0])

    def test_window_constraint_satisfied(self):
        # minimize x2 subject to x1 staying within 0.5% of 3.0
        space = DesignSpace((DesignVariable("a", 0.0, 6.0),
                             DesignVariable("b", 0.0, 6.0)))
        target = CallableModel(input_dim=2, fn=lambda X: X[:, 0])
        cost = CallableModel(input_dim=2, fn=lambda X: X[:, 1])
        problem = FomProblem(
            terms=(FomTerm(cost),),
            windows=(WindowConstraint(target, center=3.0,
                                      relative_tolerance=0.005),),
        )
        params = AbcParams(colony_size=20, limit=30, max_cycles=300, seed=5)
        best_x, best_f, trace = abc_optimize(space, problem, params)
        assert abs(best_x[0] - 3.0) <= 0.005 * 3.0
        assert best_x[1] < 0.1
        assert np.all(np.diff(trace) <= 0)

    def test_all_evaluations_in_bounds(self):
        space = box_space(3, -2.0, 2.0)
        seen = []

        def fn(X):
            seen.append(X.copy())
            return np.sum(X ** 2, axis=1)

        model = CallableModel(input_dim=3, fn=fn)
        problem = FomProblem(terms=(FomTerm(model),))
        abc_optimize(space, problem,
                     AbcParams(colony_size=8, max_cycles=50, seed=2))
        pts = np.vstack(seen)
        assert space.contains(pts)

    def test_evaluation_budget(self):
        space = box_space(3)
        counter = CountingModel(lambda X: np.sum(X ** 2, axis=1), 3)
        problem = FomProblem(terms=(FomTerm(counter),))
        params = AbcParams(colony_size=10, limit=5, max_cycles=60, seed=4)
        abc_optimize(space, problem, params)
        n_src = params.n_sources
        # init + employed/onlooker cycles + at most all sources scouting
        bound = n_src + params.colony_size * params.max_cycles \
            + n_src * params.max_cycles
        assert counter.rows <= bound

    def test_batch_count(self):
        # one batch per phase: employed, onlooker, scouts
        space = box_space(3)
        counter = CountingModel(lambda X: np.sum(X ** 2, axis=1), 3)
        window = CountingModel(lambda X: X[:, 0], 3)
        problem = FomProblem(
            terms=(FomTerm(counter),),
            windows=(WindowConstraint(window, center=1.0,
                                      relative_tolerance=0.1),))
        params = AbcParams(colony_size=10, limit=5, max_cycles=60, seed=4)
        abc_optimize(space, problem, params)
        for model in (counter, window):
            assert model.calls <= 1 + 3 * params.max_cycles

    def test_non_finite_fom_is_worst(self):
        # the model fails (NaN) on the half of the box where x1 > 0
        model = CallableModel(
            input_dim=3,
            fn=lambda X: np.where(X[:, 0] > 0, np.nan, np.sum(X ** 2, axis=1)))
        problem = FomProblem(terms=(FomTerm(model),))
        space = box_space(3)
        params = AbcParams(colony_size=20, limit=30, max_cycles=200, seed=7)
        best_x, best_f, trace = abc_optimize(space, problem, params)
        assert np.isfinite(best_f) and best_f < 1e-2
        assert best_x[0] <= 0 and space.contains(best_x)
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) <= 0)

    def test_weighted_composite_objective(self):
        space = box_space(2, 0.0, 1.0)
        m1 = CallableModel(input_dim=2, fn=lambda X: X[:, 0])
        m2 = CallableModel(input_dim=2, fn=lambda X: 1.0 - X[:, 1])
        problem = FomProblem(terms=(FomTerm(m1, 1.0), FomTerm(m2, 2.0)))
        best_x, best_f, _ = abc_optimize(
            space, problem, AbcParams(colony_size=12, max_cycles=200, seed=6))
        assert best_x[0] < 0.05 and best_x[1] > 0.95
        assert best_f == pytest.approx(best_x[0] + 2.0 * (1.0 - best_x[1]))


def per_pick_abc(space, problem, params):
    """abc_optimize written one pick at a time: the greedy replacement and
    the best-so-far bookkeeping compare each candidate in pick order, with
    numpy scalars. Returns (best, FoM, trace, ties, repeats): how many
    candidates equalled the value they were compared with, and how many
    onlooker phases picked a source twice."""
    rng = np.random.default_rng(params.seed)
    n, dim, lower, upper = params.n_sources, space.dim, space.lower, space.upper

    def evaluate(points):
        fom, viol = problem.evaluate(points)
        return np.where(np.isfinite(fom), fom, np.inf), viol

    sources = space.from_unit(rng.random((n, dim)))
    fom, viol = evaluate(sources)
    trials, counts = np.zeros(n, dtype=int), {"ties": 0, "repeats": 0}
    best = [fom.min(), sources[np.argmin(fom)].copy(), np.inf, None]

    def note(points, values, violations):
        for x, f, g in zip(points, values, violations):
            counts["ties"] += f == best[0]
            if f < best[0]:
                best[:2] = f, x.copy()
            if g == 0.0 and f < best[2]:
                best[2:] = f, x.copy()

    def greedy(picks):
        j, k = rng.integers(dim, size=n), rng.integers(n - 1, size=n)
        k += k >= picks
        phi = rng.uniform(-1.0, 1.0, size=n)
        cand, rows = sources[picks], np.arange(n)
        moved = cand[rows, j] + phi * (cand[rows, j] - sources[k, j])
        cand[rows, j] = np.clip(moved, lower[j], upper[j])
        f_new, g_new = evaluate(cand)
        note(cand, f_new, g_new)
        for r, i in enumerate(picks):
            counts["ties"] += f_new[r] == fom[i]
            if f_new[r] < np.inf and f_new[r] <= fom[i]:
                sources[i], fom[i], viol[i], trials[i] = cand[r], f_new[r], \
                    g_new[r], 0
            else:
                trials[i] += 1

    note(sources, fom, viol)
    trace = []
    for _ in range(params.max_cycles):
        greedy(np.arange(n))
        fitness = np.where(fom >= 0, 1.0 / (1.0 + fom), 1.0 + np.abs(fom))
        if not fitness.sum() > 0:
            fitness = np.ones(n)
        cdf = np.cumsum(fitness / fitness.sum())
        picks = np.searchsorted(cdf, rng.random(n), side="right")
        counts["repeats"] += len(set(picks.tolist())) < n
        greedy(np.minimum(picks, n - 1))
        scouts = np.flatnonzero(trials > params.limit)
        if scouts.size:
            sources[scouts] = space.from_unit(rng.random((scouts.size, dim)))
            fom[scouts], viol[scouts] = evaluate(sources[scouts])
            trials[scouts] = 0
            note(sources[scouts], fom[scouts], viol[scouts])
        trace.append(float(best[0]))
    x, f = (best[3], best[2]) if best[3] is not None else (best[1], best[0])
    return x, float(f), trace, counts["ties"], counts["repeats"]


@pytest.mark.parametrize("center", [2.0, 10.0], ids=["window", "never-feasible"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pick_order_matches_per_pick_reference(seed, center):
    """A staircase FoM (so candidates tie on its steps), a window (met, or
    never met, so that the penalized best is returned) and a roulette that
    picks sources twice: abc_optimize's best, FoM and trace equal the
    per-pick reference's bit for bit."""
    space = box_space(3, -2.0, 2.0)
    cost = CallableModel(input_dim=3, fn=lambda X: np.floor(
        4.0 * np.sum((X - 0.5) ** 2, axis=1)))
    target = CallableModel(input_dim=3, fn=lambda X: X[:, 0] + 2.0)
    problem = FomProblem(terms=(FomTerm(cost),), windows=(
        WindowConstraint(target, center=center, relative_tolerance=0.3),))
    params = AbcParams(colony_size=10, limit=8, max_cycles=60, seed=seed)
    want_x, want_f, want_trace, ties, repeats = per_pick_abc(
        space, problem, params)
    assert ties > 0 and repeats > 0  # the cases this test is about occur
    best_x, best_f, trace = abc_optimize(space, problem, params)
    np.testing.assert_array_equal(best_x, want_x)
    assert best_f == want_f
    assert trace == want_trace


def test_model_space_mismatch_rejected():
    space = box_space(4)
    with pytest.raises(ValueError, match="inputs"):
        abc_optimize(space, sphere_problem(3), AbcParams())


def test_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv([3.0, 2.0, 2.0], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "cycle,best_fom"
    assert lines[1].startswith("0,3")
    assert len(lines) == 4
