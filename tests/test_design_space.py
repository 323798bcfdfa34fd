"""Latin hypercube sampling: stratification, determinism, disjointness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surrokit.design_space import (DesignSpace, DesignVariable, lhs_disjoint,
                                   lhs_sample)


def unit_space(dim=1):
    return DesignSpace(tuple(
        DesignVariable(f"x{i}", 0.0, 1.0) for i in range(dim)
    ))


def random_space(rng, dim):
    lowers = rng.uniform(-10, 10, dim)
    widths = rng.uniform(0.1, 20, dim)
    return DesignSpace(tuple(
        DesignVariable(f"v{i}", lowers[i], lowers[i] + widths[i])
        for i in range(dim)
    ))


def stratification_holds(space, samples):
    """Each column must place exactly one point per equal-width stratum."""
    n = samples.shape[0]
    for j, var in enumerate(space.variables):
        strata = np.floor(
            (samples[:, j] - var.lower) / (var.upper - var.lower) * n
        ).astype(int)
        strata = np.clip(strata, 0, n - 1)  # upper endpoint belongs to last bin
        if not np.array_equal(np.sort(strata), np.arange(n)):
            return False
    return True


class TestDesignSpace:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            DesignVariable("w", 2.0, 1.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DesignSpace((DesignVariable("w", 0, 1), DesignVariable("w", 0, 2)))

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            DesignSpace(())

    def test_json_round_trip(self, tmp_path):
        space = random_space(np.random.default_rng(0), 4)
        path = tmp_path / "space.json"
        import json
        path.write_text(json.dumps(space.to_dicts()))
        loaded = DesignSpace.from_json_file(path)
        assert loaded.names == space.names
        assert np.allclose(loaded.lower, space.lower)
        assert np.allclose(loaded.upper, space.upper)

    def test_bounds_cached_read_only(self):
        space = random_space(np.random.default_rng(1), 3)
        assert space.lower is space.lower and space.upper is space.upper
        assert not space.lower.flags.writeable
        assert not space.upper.flags.writeable
        with pytest.raises(ValueError):
            space.lower[0] = 0.0
        # the cache is not a field: equality and hashing see only variables
        twin = DesignSpace(space.variables)
        assert twin == space and hash(twin) == hash(space)


class TestLhsSample:
    def test_1d_four_strata(self):
        # stratification forces one point in each quarter of [0, 1]
        pts = lhs_sample(unit_space(), 4, seed=123)[:, 0]
        assert sorted(np.floor(pts * 4).astype(int).tolist()) == [0, 1, 2, 3]

    def test_single_sample_inside_bounds(self):
        space = random_space(np.random.default_rng(1), 5)
        pts = lhs_sample(space, 1, seed=9)
        assert pts.shape == (1, 5)
        assert space.contains(pts)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            lhs_sample(unit_space(), 0, seed=0)

    def test_21d_100_samples_stratified(self):
        space = random_space(np.random.default_rng(2), 21)
        pts = lhs_sample(space, 100, seed=42)
        assert pts.shape == (100, 21)
        assert stratification_holds(space, pts)

    def test_deterministic_bit_exact(self):
        space = random_space(np.random.default_rng(3), 6)
        a = lhs_sample(space, 37, seed=77)
        b = lhs_sample(space, 37, seed=77)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        space = unit_space(3)
        assert not np.array_equal(lhs_sample(space, 10, 1),
                                  lhs_sample(space, 10, 2))

    @pytest.mark.parametrize("case", range(25))
    def test_stratification_random_cases(self, case):
        rng = np.random.default_rng(9000 + case)
        dim = int(rng.integers(1, 26))
        n = int(rng.integers(1, 501))
        space = random_space(rng, dim)
        pts = lhs_sample(space, n, seed=int(rng.integers(1 << 31)))
        assert stratification_holds(space, pts)

    @given(dim=st.integers(1, 8), n=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_samples_within_bounds(self, dim, n, seed):
        space = random_space(np.random.default_rng(seed % 1000), dim)
        assert space.contains(lhs_sample(space, n, seed))


class TestLhsDisjoint:
    def test_30_against_100_no_collisions(self):
        space = random_space(np.random.default_rng(4), 21)
        training = lhs_sample(space, 100, seed=5)
        verify = lhs_disjoint(space, 30, training, seed=6)
        assert verify.shape == (30, 21)
        assert stratification_holds(space, verify)
        collisions = (verify[:, None, :] == training[None, :, :]).all(axis=2)
        assert not collisions.any()

    def test_degenerate_1d_still_disjoint(self):
        space = unit_space()
        training = lhs_sample(space, 2, seed=10)
        extra = lhs_disjoint(space, 2, training, seed=11)
        for row in extra:
            assert not any(np.array_equal(row, t) for t in training)

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            lhs_disjoint(unit_space(), 3, np.zeros((0, 1)), seed=0)

    def test_deterministic(self):
        space = unit_space(2)
        training = lhs_sample(space, 10, seed=1)
        a = lhs_disjoint(space, 5, training, seed=2)
        b = lhs_disjoint(space, 5, training, seed=2)
        assert np.array_equal(a, b)

    def test_colliding_draw_is_redrawn(self):
        space = unit_space(2)
        # the first draw of seed 2 is lhs_sample's: it collides with itself
        training = lhs_sample(space, 5, seed=2)
        extra = lhs_disjoint(space, 5, training, seed=2)
        assert not (extra[:, None, :] == training[None, :, :]).all(axis=2).any()


class TestRowCollision:
    def test_signed_zeros_collide(self):
        from surrokit.design_space import _has_row_collision
        training = np.array([[-0.0, 1.0], [2.0, 3.0]])
        assert _has_row_collision(np.array([[5.0, 5.0], [0.0, 1.0]]), training)
        assert not _has_row_collision(np.array([[1.0, 0.0]]), training)

    def test_memory_is_not_rows_times_rows(self):
        import tracemalloc
        from surrokit.design_space import _has_row_collision
        rng = np.random.default_rng(7)
        candidate, training = rng.random((2, 2000, 16))
        tracemalloc.start()
        try:
            assert not _has_row_collision(candidate, training)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 2000 x 2000 x 16 comparison broadcast alone is 64 MB
        assert peak < 8e6
