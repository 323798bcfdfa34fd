"""Scaler fitting, application, inversion, and immutability."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from surrokit.errors import DegenerateColumnError
from surrokit.scaling import Scaler, apply, fit_scaler, invert


def test_meanstd_column():
    # sample stddev convention: [1, 2, 3] has mean 2, std 1 -> [-1, 0, 1]
    scaler = fit_scaler(np.array([[1.0], [2.0], [3.0]]), "meanstd")
    out = apply(scaler, np.array([[1.0], [2.0], [3.0]]))
    assert np.allclose(out[:, 0], [-1.0, 0.0, 1.0])


def test_meanstd_statistics_of_transform():
    rng = np.random.default_rng(3)
    data = rng.normal(5.0, 3.0, size=(40, 4))
    out = apply(fit_scaler(data, "meanstd"), data)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_minmax_endpoints():
    scaler = fit_scaler(np.array([[0.0], [10.0]]), "minmax")
    out = apply(scaler, np.array([[0.0], [10.0], [5.0]]))
    assert np.allclose(out[:, 0], [-1.0, 1.0, 0.0])


def test_minmax_full_range():
    rng = np.random.default_rng(4)
    data = rng.uniform(-7, 13, size=(25, 3))
    out = apply(fit_scaler(data, "minmax"), data)
    assert np.allclose(out.min(axis=0), -1.0)
    assert np.allclose(out.max(axis=0), 1.0)


def test_none_kind_is_identity():
    data = np.random.default_rng(5).normal(size=(10, 2))
    scaler = fit_scaler(data, "none")
    assert np.array_equal(apply(scaler, data), data)
    assert np.array_equal(invert(scaler, data), data)


def test_constant_column_error_names_column():
    data = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
    with pytest.raises(DegenerateColumnError, match="column 1"):
        fit_scaler(data, "meanstd")
    with pytest.raises(DegenerateColumnError, match="bias"):
        fit_scaler(data, "minmax", names=["w", "bias"])


def test_dimension_mismatch():
    scaler = fit_scaler(np.random.default_rng(0).normal(size=(5, 3)), "meanstd")
    with pytest.raises(ValueError, match="columns"):
        apply(scaler, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="columns"):
        invert(scaler, np.zeros((4, 5)))


def test_verification_data_may_leave_unit_range():
    train = np.array([[0.0], [1.0]])
    scaler = fit_scaler(train, "minmax")
    out = apply(scaler, np.array([[2.0]]))
    assert out[0, 0] > 1.0  # permitted: stats come from training only


def test_stats_are_immutable():
    scaler = fit_scaler(np.random.default_rng(1).normal(size=(6, 2)), "meanstd")
    with pytest.raises(ValueError):
        scaler.shift[0] = 99.0
    with pytest.raises(ValueError):
        scaler.scale[0] = 99.0


def test_apply_never_recomputes_stats():
    rng = np.random.default_rng(2)
    scaler = fit_scaler(rng.normal(size=(8, 2)), "meanstd")
    before = (scaler.shift.copy(), scaler.scale.copy())
    apply(scaler, rng.normal(size=(100, 2)) * 50 + 7)
    assert np.array_equal(scaler.shift, before[0])
    assert np.array_equal(scaler.scale, before[1])


def test_serialization_round_trip():
    scaler = fit_scaler(np.random.default_rng(6).normal(size=(9, 3)), "minmax")
    clone = Scaler.from_dict(scaler.to_dict())
    data = np.random.default_rng(7).normal(size=(4, 3))
    assert np.array_equal(apply(scaler, data), apply(clone, data))


@pytest.mark.parametrize("kind", ["none", "meanstd", "minmax"])
@pytest.mark.parametrize("trial", range(34))
def test_round_trip_identity(kind, trial):
    # 102 random matrices across the three kinds
    rng = np.random.default_rng(100 + trial)
    rows = int(rng.integers(2, 40))
    cols = int(rng.integers(1, 8))
    data = rng.normal(0, 10, size=(rows, cols)) + rng.normal(0, 50, cols)
    scaler = fit_scaler(data, kind)
    other = rng.normal(0, 20, size=(rows, cols))
    assert np.max(np.abs(invert(scaler, apply(scaler, other)) - other)) < 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    data = rng.uniform(-100, 100, size=(int(rng.integers(2, 20)),
                                        int(rng.integers(1, 6))))
    for kind in ("meanstd", "minmax"):
        try:
            scaler = fit_scaler(data, kind)
        except DegenerateColumnError:
            continue
        assert np.max(np.abs(invert(scaler, apply(scaler, data)) - data)) < 1e-12


@pytest.mark.parametrize("shift,scale", [
    ([np.nan, 0.0], [1.0, 1.0]), ([np.inf, 0.0], [1.0, 1.0]),
    ([0.0, 0.0], [np.nan, 1.0]), ([0.0, 0.0], [np.inf, 1.0]),
    ([[0.0, 0.0]], [[1.0, 1.0]]), (0.0, 1.0),
])
def test_statistics_must_be_finite_1d(shift, scale):
    with pytest.raises(ValueError):
        Scaler("meanstd", np.array(shift), np.array(scale))
