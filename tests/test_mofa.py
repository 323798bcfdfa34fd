"""Firefly optimizer: domination filter, scalarization, moves, full runs."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surrokit.design_space import DesignSpace, DesignVariable
from surrokit.errors import InfeasibleRunError
from surrokit.metamodel import CallableModel
from surrokit.mofa import (ND_SMALL, ConstraintSpec, MofaParams,
                           ObjectiveSpec, mofa_optimize, move_vector,
                           non_dominated, scalarize)


def brute_force_non_dominated(points, directions):
    """O(n^2) oracle: direction-aware pairwise domination."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    sign = np.array([1.0 if d == "minimize" else -1.0 for d in directions])
    f = pts * sign
    out = []
    for i in range(len(f)):
        dominated = False
        for j in range(len(f)):
            if j == i:
                continue
            if np.all(f[j] <= f[i]) and np.any(f[j] < f[i]):
                dominated = True
                break
        if not dominated:
            out.append(i)
    return out


def unit_space(dim):
    return DesignSpace(tuple(
        DesignVariable(f"x{i + 1}", 0.0, 1.0) for i in range(dim)
    ))


class CountingModel:
    """Wraps a model and counts predict calls and rows (for budget checks)."""

    def __init__(self, model):
        self.model = model
        self.rows = 0
        self.calls = 0
        self.response_name = getattr(model, "response_name", "")

    def predict(self, x):
        arr = np.atleast_2d(np.asarray(x, dtype=float))
        self.rows += arr.shape[0]
        self.calls += 1
        return self.model.predict(x)


class TestNonDominated:
    def test_single_point(self):
        assert non_dominated([[1.0, 2.0]], ["minimize", "minimize"]) == [0]

    def test_max_min_pair(self):
        # (max, min): (5, 80) dominates (4, 90)
        idx = non_dominated([[5.0, 80.0], [4.0, 90.0]],
                            ["maximize", "minimize"])
        assert idx == [0]

    def test_empty(self):
        assert non_dominated([], ["minimize"]) == []

    def test_trade_off_keeps_both(self):
        idx = non_dominated([[1.0, 2.0], [2.0, 1.0]],
                            ["minimize", "minimize"])
        assert idx == [0, 1]

    @pytest.mark.parametrize("trial", range(20))
    def test_matches_brute_force(self, trial):
        rng = np.random.default_rng(300 + trial)
        n = int(rng.integers(1, 201))
        k = int(rng.integers(2, 5))
        pts = rng.normal(size=(n, k))
        directions = [("minimize", "maximize")[int(b)]
                      for b in rng.integers(0, 2, k)]
        assert non_dominated(pts, directions) == \
            brute_force_non_dominated(pts, directions)

    def test_duplicates_all_kept(self):
        pts = [[1.0, 1.0], [1.0, 1.0]]
        assert non_dominated(pts, ["minimize", "minimize"]) == [0, 1]

    @pytest.mark.parametrize("trial", range(20))
    def test_two_objective_sweep_with_ties_and_nan(self, trial):
        # coarse rounding forces ties in f1, f2 and whole rows
        rng = np.random.default_rng(900 + trial)
        n = int(rng.integers(1, 120))
        pts = np.round(rng.normal(size=(n, 2)), int(rng.integers(0, 2)))
        special = rng.random((n, 2))
        pts[special < 0.05] = np.nan
        pts[special > 0.97] = np.inf
        pts[(special > 0.94) & (special <= 0.97)] = -np.inf
        directions = [("minimize", "maximize")[int(b)]
                      for b in rng.integers(0, 2, 2)]
        assert non_dominated(pts, directions) == \
            brute_force_non_dominated(pts, directions)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("trial", range(10))
    def test_many_objectives_with_ties_and_nan(self, k, trial):
        # coarse rounding forces ties and duplicate rows; some rows hold
        # NaN or infinities
        rng = np.random.default_rng(1300 + 10 * k + trial)
        n = int(rng.integers(1, 150))
        pts = np.round(rng.normal(size=(n, k)), int(rng.integers(0, 2)))
        pts[rng.random(n) < 0.2] = pts[0]
        special = rng.random((n, k))
        pts[special < 0.03] = np.nan
        pts[special > 0.98] = np.inf
        pts[(special > 0.96) & (special <= 0.98)] = -np.inf
        directions = [("minimize", "maximize")[int(b)]
                      for b in rng.integers(0, 2, k)]
        assert non_dominated(pts, directions) == \
            brute_force_non_dominated(pts, directions)

    def test_many_objectives_in_several_blocks(self, monkeypatch):
        # blocks of 7 rows: the block edges fall inside runs of duplicates
        monkeypatch.setattr("surrokit.mofa.ND_BLOCK", 7 * 60 * 3)
        rng = np.random.default_rng(17)
        pts = np.repeat(np.round(rng.normal(size=(20, 3))), 3, axis=0)
        pts[5] = np.nan
        directions = ["minimize", "maximize", "minimize"]
        assert non_dominated(pts, directions) == \
            brute_force_non_dominated(pts, directions)


SPECIAL = st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0,
                           -0.0, 1.0, -1.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(SPECIAL, SPECIAL), min_size=1,
                max_size=ND_SMALL + 8),
       st.lists(st.sampled_from(["minimize", "maximize"]), min_size=2,
                max_size=2))
def test_both_two_objective_sweeps_match_brute_force(rows, directions):
    """The Python sweep (at most ND_SMALL rows) and the numpy sweep (more)
    return the brute-force indices on rows of NaN, infinities, signed zeros
    and ties, whichever size picks the path."""
    want = brute_force_non_dominated(rows, directions)
    for small in (0, len(rows)):  # numpy sweep, then Python sweep
        with mock.patch("surrokit.mofa.ND_SMALL", small):
            assert non_dominated(rows, directions) == want


class TestMofaParams:
    @pytest.mark.parametrize("value", [-1.0, -1e308, float("nan"),
                                       float("inf")])
    @pytest.mark.parametrize("key", ["beta0", "gamma", "alpha",
                                     "alpha_decay"])
    def test_rejects_negative_or_non_finite(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be non-negative"):
            MofaParams(**{key: value})

    @pytest.mark.parametrize("key", ["beta0", "gamma", "alpha",
                                     "alpha_decay"])
    def test_zero_is_valid(self, key):
        assert getattr(MofaParams(**{key: 0.0}), key) == 0.0


class TestScalarize:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.vals = rng.normal(size=(30, 2))
        self.directions = ["maximize", "minimize"]

    def normalized(self, col):
        c = self.vals[:, col]
        return (c - c.mean()) / c.std(ddof=1)

    def test_w_zero_is_first_objective(self):
        psi = scalarize(self.vals, [1.0, 0.0], self.directions)
        assert np.allclose(psi, self.normalized(0))

    def test_w_one_is_negated_second(self):
        psi = scalarize(self.vals, [0.0, 1.0], self.directions)
        assert np.allclose(psi, -self.normalized(1))

    def test_symmetric_values_cancel_at_half(self):
        vals = np.column_stack([self.vals[:, 0], self.vals[:, 0]])
        psi = scalarize(vals, [0.5, 0.5], ["maximize", "minimize"])
        assert np.allclose(psi, 0.0, atol=1e-12)

    def test_constant_objective_contributes_nothing(self):
        vals = np.column_stack([self.vals[:, 0], np.full(30, 3.0)])
        psi = scalarize(vals, [0.5, 0.5], self.directions)
        assert np.allclose(psi, 0.5 * self.normalized(0))

    def test_weight_vector_for_three_objectives(self):
        vals = np.random.default_rng(6).normal(size=(10, 3))
        psi = scalarize(vals, [0.2, 0.3, 0.5],
                        ["maximize", "maximize", "minimize"])
        assert psi.shape == (10,)
        with pytest.raises(ValueError):
            scalarize(vals, [0.5, 0.5],
                      ["maximize", "maximize", "minimize"])


class TestMoveVector:
    """`move_vector` takes and returns unit-cube positions."""

    def setup_method(self):
        self.params = MofaParams(alpha=0.0)

    def test_target_equals_current_no_alpha(self):
        rng = np.random.default_rng(0)
        x = np.array([0.3, 0.6])
        step = move_vector(x, x, self.params, rng) - x
        assert np.allclose(step, 0.0)

    def test_gamma_zero_is_full_attraction(self):
        params = MofaParams(beta0=1.0, gamma=0.0, alpha=0.0)
        rng = np.random.default_rng(1)
        cur = np.array([0.2, 0.4])
        tgt = np.array([0.8, 0.8])
        step = move_vector(cur, tgt, params, rng) - cur
        assert np.allclose(step, tgt - cur)

    def test_partial_attraction_scales_with_beta(self):
        params = MofaParams(beta0=0.5, gamma=0.0, alpha=0.0)
        rng = np.random.default_rng(2)
        cur = np.array([0.2, 0.4])
        tgt = np.array([0.8, 0.8])
        step = move_vector(cur, tgt, params, rng) - cur
        assert np.allclose(step, 0.5 * (tgt - cur))

    def test_clamped_to_bounds(self):
        params = MofaParams(beta0=5.0, gamma=0.0, alpha=0.0)
        rng = np.random.default_rng(3)
        cur = np.array([0.9, 0.9])
        tgt = np.array([1.0, 1.0])
        dest = move_vector(cur, tgt, params, rng)
        assert dest[0] == 1.0 and dest[1] == 1.0

    def test_batch_equals_single_calls(self):
        params = MofaParams(beta0=0.8, gamma=2.0, alpha=0.3)
        rng = np.random.default_rng(5)
        cur = rng.random((6, 2))
        tgt = rng.random((6, 2))
        batch = move_vector(cur, tgt, params, np.random.default_rng(8))
        single_rng = np.random.default_rng(8)
        single = np.array([move_vector(c, t, params, single_rng)
                           for c, t in zip(cur, tgt)])
        assert batch.shape == (6, 2)
        assert np.allclose(batch, single, rtol=0.0, atol=1e-12)

    def test_random_walk_within_bounds(self):
        params = MofaParams(beta0=0.0, gamma=1.0, alpha=2.0)
        rng = np.random.default_rng(4)
        cur = np.array([0.01, 0.01])
        for _ in range(50):
            dest = move_vector(cur, cur, params, rng)
            assert unit_space(2).contains(dest)

    def test_unit_batch_equals_single_calls_in_unit_cube(self):
        """Steps large enough to leave the cube: a batch still equals the
        single calls, and every destination lies in [0, 1]."""
        params = MofaParams(beta0=3.0, gamma=0.5, alpha=1.5)
        rng = np.random.default_rng(11)
        cur = rng.random((40, 3))
        tgt = rng.random((40, 3))
        batch = move_vector(cur, tgt, params, np.random.default_rng(12))
        single_rng = np.random.default_rng(12)
        single = np.array([move_vector(c, t, params, single_rng)
                           for c, t in zip(cur, tgt)])
        np.testing.assert_array_equal(batch, single)
        assert np.all((batch >= 0.0) & (batch <= 1.0))
        assert np.any(batch == 0.0) and np.any(batch == 1.0)


def convex_problem(dim=2):
    """f1 = x1, f2 = (1 - x1)^2 + sum of squares of the rest, both minimized.

    The analytic front is {(t, (1 - t)^2) : t in [0, 1]} at x_i = 0, i > 1.
    """
    space = unit_space(dim)
    f1 = CallableModel(input_dim=dim, fn=lambda X: X[:, 0], response_name="f1")
    f2 = CallableModel(
        input_dim=dim,
        fn=lambda X: (1.0 - X[:, 0]) ** 2 + np.sum(X[:, 1:] ** 2, axis=1),
        response_name="f2",
    )
    objectives = [ObjectiveSpec("f1", "minimize", f1),
                  ObjectiveSpec("f2", "minimize", f2)]
    return space, objectives


def front_distance(f1, f2):
    """Distance of each (f1, f2) pair to a dense sampling of the true front."""
    t = np.linspace(0.0, 1.0, 2001)
    curve = np.column_stack([t, (1.0 - t) ** 2])
    d = np.sqrt((f1[:, None] - curve[None, :, 0]) ** 2
                + (f2[:, None] - curve[None, :, 1]) ** 2)
    return d.min(axis=1)


def assert_non_dominated(archive):
    """The archive (all objectives minimized) matches the brute-force
    filter: no design in it dominates another."""
    keep = brute_force_non_dominated(archive.objectives,
                                     ["minimize", "minimize"])
    assert keep == list(range(len(archive)))


class TestMofaOptimize:
    def test_convex_front(self):
        space, objectives = convex_problem()
        params = MofaParams(K=20, t_max=500, seed=42)
        archive = mofa_optimize(space, objectives, [], params)
        assert len(archive) >= 5
        dist = front_distance(archive.objectives[:, 0],
                              archive.objectives[:, 1])
        assert dist.max() < 0.05

    def test_archive_validated_every_iteration(self):
        space, objectives = convex_problem()
        params = MofaParams(K=12, t_max=80, seed=21)
        archive = mofa_optimize(space, objectives, [], params)
        assert len(archive) > 0
        assert_non_dominated(archive)

    def test_archive_mutually_non_dominated(self):
        space, objectives = convex_problem(dim=3)
        params = MofaParams(K=12, t_max=100, seed=7)
        archive = mofa_optimize(space, objectives, [], params)
        keep = brute_force_non_dominated(archive.objectives,
                                         ["minimize", "minimize"])
        assert keep == list(range(len(archive)))

    def test_seed_determinism(self):
        space, objectives = convex_problem()
        params = MofaParams(K=8, t_max=50, seed=3)
        a = mofa_optimize(space, objectives, [], params)
        b = mofa_optimize(space, objectives, [], params)
        assert np.array_equal(a.designs, b.designs)
        assert np.array_equal(a.objectives, b.objectives)

    def test_reference_scale_configuration_accepted(self):
        # the large "true front" run shape: K=50, t_max=5000
        params = MofaParams(K=50, t_max=5000)
        assert params.K == 50 and params.t_max == 5000

    def test_constrained_run_all_feasible(self):
        space, objectives = convex_problem()
        g = CallableModel(input_dim=2, fn=lambda X: X[:, 0] + X[:, 1],
                          response_name="g")
        constraints = [ConstraintSpec("g", g, 0.4, "greater")]
        params = MofaParams(K=15, t_max=120, seed=9)
        archive = mofa_optimize(space, objectives, constraints, params)
        assert len(archive) > 0
        assert_non_dominated(archive)
        sums = archive.designs.sum(axis=1)
        assert np.all(sums > 0.4)
        assert np.allclose(archive.constraints[:, 0], sums)

    def test_infeasible_run_raises_with_best_violation(self):
        space, objectives = convex_problem()
        g = CallableModel(input_dim=2, fn=lambda X: X[:, 0],
                          response_name="g")
        constraints = [ConstraintSpec("g", g, 5.0, "greater")]  # impossible
        params = MofaParams(K=6, t_max=10, seed=1)
        with pytest.raises(InfeasibleRunError) as err:
            mofa_optimize(space, objectives, constraints, params)
        assert 4.0 <= err.value.best_violation <= 5.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_best_violation_is_least_over_every_vetted_row(self, seed):
        """Each firefly's violation is summed once, when its row is vetted,
        and carried after: the reported best is still the least total
        violation over every row the constraint models saw."""
        space, objectives = convex_problem()
        seen = []

        def g(X):
            seen.append(X.copy())
            return X[:, 0] + X[:, 1]

        constraints = [  # together violated everywhere in the unit square
            ConstraintSpec("g", CallableModel(input_dim=2, fn=g), 2.5,
                           "greater"),
            ConstraintSpec("h", CallableModel(input_dim=2,
                                              fn=lambda X: X[:, 0] ** 2),
                           -0.5, "less")]
        params = MofaParams(K=6, t_max=15, max_regen=2, seed=seed)
        with pytest.raises(InfeasibleRunError) as err:
            mofa_optimize(space, objectives, constraints, params)
        rows = np.vstack(seen)
        values = np.column_stack([rows[:, 0] + rows[:, 1], rows[:, 0] ** 2])
        # the violation of "greater" 2.5 and "less" -0.5, as the run sums it
        total = np.maximum(0.0, np.array([1.0, -1.0])
                           * (np.array([2.5, -0.5]) - values)).sum(axis=1)
        assert len(seen) > params.t_max  # the initial rows and every move
        assert err.value.best_violation == total.min()

    @pytest.mark.parametrize("seed", range(20))
    def test_infeasible_start_descends_to_feasibility(self, seed):
        # x1 + x2 >= 1.8 holds on 2 % of the square, so a population of 6
        # almost never starts with a feasible firefly
        space = unit_space(2)
        objectives = [ObjectiveSpec(name, "minimize", CallableModel(
            input_dim=2, fn=lambda X, j=j: X[:, j], response_name=name))
            for j, name in enumerate(("x1", "x2"))]
        g = CallableModel(input_dim=2, fn=lambda X: X[:, 0] + X[:, 1],
                          response_name="g")
        constraints = [ConstraintSpec("g", g, 1.8, "greater")]
        params = MofaParams(K=6, t_max=60, max_regen=1, seed=seed)
        archive = mofa_optimize(space, objectives, constraints, params)
        assert len(archive) > 0
        assert_non_dominated(archive)
        assert np.all(archive.designs.sum(axis=1) >= 1.8)

    def test_evaluation_budget(self):
        space, objectives = convex_problem()
        counted_obj = [ObjectiveSpec(o.name, o.direction,
                                     CountingModel(o.model))
                       for o in objectives]
        g = CountingModel(CallableModel(input_dim=2,
                                        fn=lambda X: X[:, 0] + X[:, 1],
                                        response_name="g"))
        constraints = [ConstraintSpec("g", g, 0.2, "greater")]
        params = MofaParams(K=10, t_max=40, max_regen=4, seed=2)
        mofa_optimize(space, objectives=counted_obj, constraints=constraints,
                      params=params)
        budget = params.K * params.t_max * (1 + params.max_regen)
        for spec in counted_obj:
            assert spec.model.rows <= budget
        assert g.rows <= budget

    def test_batch_count(self):
        # one batch per regeneration round, not one call per firefly
        space, objectives = convex_problem()
        counted_obj = [ObjectiveSpec(o.name, o.direction,
                                     CountingModel(o.model))
                       for o in objectives]
        g = CountingModel(CallableModel(input_dim=2,
                                        fn=lambda X: X[:, 0] + X[:, 1],
                                        response_name="g"))
        constraints = [ConstraintSpec("g", g, 0.6, "greater")]
        params = MofaParams(K=10, t_max=40, max_regen=4, seed=2)
        mofa_optimize(space, objectives=counted_obj, constraints=constraints,
                      params=params)
        assert g.calls <= 1 + params.t_max * (1 + params.max_regen)
        for spec in counted_obj:
            assert spec.model.calls == params.t_max + 1

    def test_non_finite_predictions_are_infeasible(self):
        # f2 fails (NaN) for x1 > 0.7 and the constraint fails for x2 > 0.5
        space = unit_space(2)
        populations = []

        def f1(X):
            populations.append(X.copy())
            return X[:, 0]

        objectives = [
            ObjectiveSpec("f1", "minimize", CallableModel(
                input_dim=2, fn=f1, response_name="f1")),
            ObjectiveSpec("f2", "minimize", CallableModel(
                input_dim=2, response_name="f2",
                fn=lambda X: np.where(X[:, 0] > 0.7, np.nan,
                                      (1.0 - X[:, 0]) ** 2 + X[:, 1] ** 2))),
        ]
        g = CallableModel(
            input_dim=2, response_name="g",
            fn=lambda X: np.where(X[:, 1] > 0.5, np.nan, X[:, 0] + X[:, 1]))
        constraints = [ConstraintSpec("g", g, 0.2, "greater")]
        params = MofaParams(K=16, t_max=60, seed=4)
        archive = mofa_optimize(space, objectives, constraints, params)
        assert len(archive) > 0
        assert np.all(np.isfinite(archive.objectives))
        assert np.all(np.isfinite(archive.constraints))
        assert np.all(archive.designs[:, 0] <= 0.7)
        assert np.all(archive.designs[:, 1] <= 0.5)
        # a move onto a failed constraint prediction is always rejected,
        # so the population never gains a firefly in that region
        in_failed = [int((p[:, 1] > 0.5).sum()) for p in populations]
        assert all(b <= a for a, b in zip(in_failed, in_failed[1:]))

    def test_no_finite_objective_row_raises(self):
        space, objectives = convex_problem()
        broken = CallableModel(input_dim=2, response_name="f2",
                               fn=lambda X: np.full(X.shape[0], np.nan))
        objectives = [objectives[0], ObjectiveSpec("f2", "minimize", broken)]
        with pytest.raises(InfeasibleRunError):
            mofa_optimize(space, objectives, [],
                          MofaParams(K=6, t_max=5, seed=1))

    def test_duplicate_objective_rows_kept_once(self):
        space = unit_space(2)
        flat = [ObjectiveSpec(name, "minimize",
                              CallableModel(input_dim=2, response_name=name,
                                            fn=lambda X: np.ones(X.shape[0])))
                for name in ("f1", "f2")]
        archive = mofa_optimize(space, flat, [],
                                MofaParams(K=6, t_max=3, seed=1))
        assert len(archive) == 1

    def test_bounds_respected(self):
        space, objectives = convex_problem(dim=4)
        params = MofaParams(K=10, t_max=60, seed=11)
        archive = mofa_optimize(space, objectives, [], params)
        assert space.contains(archive.designs)

    def test_needs_two_objectives(self):
        space, objectives = convex_problem()
        with pytest.raises(ValueError, match="two objectives"):
            mofa_optimize(space, objectives[:1], [], MofaParams())

    def test_model_space_mismatch_rejected(self):
        space, _ = convex_problem(dim=3)
        _, objectives = convex_problem(dim=2)
        with pytest.raises(ValueError, match="inputs"):
            mofa_optimize(space, objectives, [], MofaParams())

    def test_archive_csv(self, tmp_path):
        space, objectives = convex_problem()
        params = MofaParams(K=8, t_max=30, seed=5)
        archive = mofa_optimize(space, objectives, [], params)
        path = tmp_path / "front.csv"
        archive.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,f1,f2"
        assert len(path.read_text().splitlines()) == len(archive) + 1
