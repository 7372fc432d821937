"""Accumulated local effects: slope recovery, an independent loop oracle,
centering, and the binary/constant special cases."""

import numpy as np
import pytest

from icurisk.errors import ConfigError, DataError
from icurisk.explain.ale import ale

from conftest import make_table


def _loop_ale_effects(f, X, j, edges):
    """Plain-python re-accumulation of the estimator over given edges."""
    col = X[:, j]
    idx = np.clip(np.searchsorted(edges, col, side="left") - 1,
                  0, edges.size - 2)
    effects = [0.0]
    for k in range(edges.size - 1):
        rows = X[idx == k]
        lo = rows.copy(); lo[:, j] = edges[k]
        hi = rows.copy(); hi[:, j] = edges[k + 1]
        effects.append(effects[-1] + float(np.mean(f(hi) - f(lo))))
    return np.array(effects)


def test_linear_model_recovers_slope():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(300, 3))
    f = lambda A: 2.0 * A[:, 0] - 0.5 * A[:, 1]
    curve = ale(f, X, 0, n_bins=12)
    assert curve.effects[0] == 0.0
    expected = 2.0 * (curve.edges - curve.edges[0])
    assert curve.effects == pytest.approx(expected, abs=1e-9)


def test_matches_independent_accumulation():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(250, 4))
    f = lambda A: np.sin(A[:, 2]) + A[:, 2] ** 2 * 0.3 + A[:, 0]
    curve = ale(f, X, 2, n_bins=10)
    oracle = _loop_ale_effects(f, X, 2, curve.edges)
    assert curve.effects == pytest.approx(oracle, abs=1e-12)
    assert curve.counts.sum() == 250
    assert np.all(np.diff(curve.edges) > 0)


def test_an_empty_bin_is_merged_into_its_left_neighbour():
    # the interpolated quantiles of this column at 20 bins are 0, 4, 10,
    # 10.4 and 11; no row falls in (10, 10.4], so its left edge goes
    col = np.array([0.0] * 6 + [10.0] * 6 + [11.0])
    X = np.c_[col, np.arange(13.0)]
    f = lambda A: 2.0 * A[:, 0] + A[:, 1]
    curve = ale(f, X, 0, n_bins=20)
    assert curve.edges == pytest.approx([0.0, 4.0, 10.4, 11.0])
    assert np.array_equal(curve.counts, [6.0, 6.0, 1.0])
    assert curve.effects == pytest.approx(2.0 * curve.edges, abs=1e-12)
    assert curve.effects == pytest.approx(_loop_ale_effects(f, X, 0, curve.edges),
                                          abs=1e-12)


def test_centering_zeroes_the_weighted_mean():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(200, 2))
    f = lambda A: np.cos(A[:, 1]) * A[:, 1]
    curve = ale(f, X, 1, n_bins=8)
    assert float(curve.edge_counts @ curve.centered) == pytest.approx(0.0, abs=1e-9)
    assert curve.edge_counts.sum() == 200


def test_unused_feature_is_flat():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(150, 3))
    f = lambda A: A[:, 0] * 3.0
    curve = ale(f, X, 1, n_bins=6)
    assert np.all(curve.effects == 0.0)


def test_binary_feature_effect_equals_coefficient():
    rng = np.random.default_rng(4)
    table = make_table(120, seed=6)
    j = table.index_of("vent")
    f = lambda A: 3.0 * A[:, j] + 0.25 * A[:, 0]
    curve = ale(f, table, "vent")
    assert curve.edges == pytest.approx([0.0, 1.0])
    assert curve.effects == pytest.approx([0.0, 3.0])
    assert curve.edge_counts.sum() == 120


def test_constant_feature_is_flat():
    X = np.c_[np.full(50, 7.0), np.arange(50.0)]
    f = lambda A: A[:, 1]
    curve = ale(f, X, 0, n_bins=5)
    assert np.all(curve.effects == 0.0)
    assert np.all(curve.centered == 0.0)


def test_binary_feature_seen_at_one_level_is_flat():
    # a schema-binary flag that is 0 in every row has no second level to
    # difference against; it gets the constant-column curve
    table = make_table(60, seed=6)
    j = table.index_of("vent")
    X = table.X.copy()
    X[:, j] = 0.0
    table = table.with_matrix(X)
    curve = ale(lambda A: 3.0 * A[:, j], table, "vent")
    assert np.all(curve.effects == 0.0)
    assert curve.edge_counts.sum() == 60


def test_input_validation():
    X = np.random.default_rng(5).normal(size=(40, 2))
    f = lambda A: A[:, 0]
    with pytest.raises(ConfigError):
        ale(f, X, 0, n_bins=0)
    Xn = X.copy()
    Xn[3, 0] = np.nan
    with pytest.raises(DataError):
        ale(f, Xn, 0)


def test_feature_by_name_matches_index():
    table = make_table(100, seed=9, informative=True)
    f = lambda A: A[:, 0] ** 2
    by_name = ale(f, table, "age", n_bins=7)
    by_index = ale(f, table, 0, n_bins=7)
    assert by_name.feature == "age"
    assert np.array_equal(by_name.effects, by_index.effects)
    assert np.array_equal(by_name.edges, by_index.edges)
