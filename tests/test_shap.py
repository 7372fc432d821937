"""Shapley attribution: exact axioms on the exhaustive game, agreement of
the leaf-table Tree SHAP with brute-force enumeration."""

import numpy as np
import pytest

from icurisk.cohort import CohortTable
from icurisk.errors import ConfigError, DataError, SchemaError
from icurisk.explain import shapley
from icurisk.explain.shapley import ShapMatrix, shap_exhaustive, shap_tree
from icurisk.models.gbdt import GbdtParams, gbdt_margin, train_gbdt
from icurisk.schema import FeatureSpec

from conftest import make_table


def test_linear_game_has_closed_form():
    rng = np.random.default_rng(0)
    beta = np.array([2.0, -1.0, 0.5, 3.0])
    f = lambda X: X @ beta + 7.0
    Z = rng.normal(size=(20, 4))
    x = rng.normal(size=4)
    phi = shap_exhaustive(f, x, Z)
    assert phi == pytest.approx(beta * (x - Z.mean(axis=0)), abs=1e-12)


def test_dummy_feature_gets_exactly_zero():
    f = lambda X: np.sin(X[:, 0]) + X[:, 2] ** 2
    rng = np.random.default_rng(1)
    phi = shap_exhaustive(f, rng.normal(size=4), rng.normal(size=(10, 4)))
    assert phi[1] == 0.0 and phi[3] == 0.0


def test_symmetric_players_get_equal_credit():
    # x0 and x1 enter the model identically; with equal background means
    # and x0 == x1 the symmetry axiom forces equal attributions
    f = lambda X: np.exp(X[:, 0] + X[:, 1]) + X[:, 2]
    rng = np.random.default_rng(2)
    Z = rng.normal(size=(12, 3))
    Z[:, 1] = Z[:, 0]
    x = np.array([0.4, 0.4, -1.0])
    phi = shap_exhaustive(f, x, Z)
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)


def test_exhaustive_efficiency():
    rng = np.random.default_rng(3)
    beta = rng.normal(size=5)
    f = lambda X: np.tanh(X @ beta) * 3.0
    Z = rng.normal(size=(15, 5))
    x = rng.normal(size=5)
    phi = shap_exhaustive(f, x, Z)
    assert phi.sum() == pytest.approx(float(f(x[None, :])[0]) - f(Z).mean(),
                                      abs=1e-10)


def test_exhaustive_refuses_wide_inputs():
    f = lambda X: X.sum(axis=1)
    with pytest.raises(ConfigError):
        shap_exhaustive(f, np.zeros(16), np.zeros((3, 16)))
    with pytest.raises(DataError):
        shap_exhaustive(f, np.zeros(3), np.zeros((0, 3)))
    for row, background in ((np.zeros(3), np.zeros((5, 4))),
                            (np.zeros(4), np.zeros((5, 3))),
                            (np.zeros(4), np.zeros(3)),
                            (np.zeros(2), np.zeros((2, 3, 2)))):
        with pytest.raises(SchemaError, match=r"row has \d features"):
            shap_exhaustive(f, row, background)


def test_tree_walk_matches_enumeration():
    table = make_table(120, seed=17, informative=True)
    model = train_gbdt(table, GbdtParams(depth=3, n_trees=12), seed=1)
    Z = table.X[:25]
    rows = table.X[40:46]
    result = shap_tree(model, rows, Z)
    assert isinstance(result, ShapMatrix)
    assert result.values.shape == (6, 4)
    assert result.feature_names == tuple(table.feature_names)
    margin_fn = lambda X: gbdt_margin(model, X)
    for i in range(rows.shape[0]):
        brute = shap_exhaustive(margin_fn, rows[i], Z)
        assert np.max(np.abs(result.values[i] - brute)) < 1e-10


def test_tree_efficiency_per_row():
    table = make_table(200, seed=23, informative=True)
    model = train_gbdt(table, GbdtParams(depth=4, n_trees=30), seed=2)
    Z = table.X[:60]
    rows = table.X[60:90]
    result = shap_tree(model, rows, Z)
    assert result.base_value == pytest.approx(gbdt_margin(model, Z).mean())
    total = result.base_value + result.values.sum(axis=1)
    assert total == pytest.approx(gbdt_margin(model, rows), abs=1e-9)


def test_tree_accepts_tables():
    table = make_table(80, seed=29, informative=True)
    model = train_gbdt(table, GbdtParams(depth=2, n_trees=8), seed=0)
    via_table = shap_tree(model, table.subset(np.arange(5)),
                          table.subset(np.arange(20, 50)))
    via_array = shap_tree(model, table.X[:5], table.X[20:50])
    assert np.array_equal(via_table.values, via_array.values)


def test_tree_checks_input_width_and_values():
    table = make_table(80, seed=31, informative=True)
    model = train_gbdt(table, GbdtParams(depth=2, n_trees=5), seed=0)
    Z = table.X[:20]
    for narrow, wide in ((table.X[:3, :3], Z), (table.X[:3], Z[:, :3]),
                         (np.c_[table.X[:3], table.X[:3, :1]], Z),
                         (table.X[:3], np.c_[Z, Z[:, :1]])):
        with pytest.raises(SchemaError):
            shap_tree(model, narrow, wide)
    rows = table.X[:3].copy()
    rows[1, 0] = np.nan
    with pytest.raises(DataError):
        shap_tree(model, rows, Z)


def _check_against_enumeration(model, rows, Z, tol=1e-10):
    result = shap_tree(model, rows, Z)
    margin_fn = lambda X: gbdt_margin(model, X)
    for i in range(rows.shape[0]):
        brute = shap_exhaustive(margin_fn, rows[i], Z)
        assert np.max(np.abs(result.values[i] - brute)) < tol
    return result


def test_tree_matches_enumeration_at_depth_one():
    table = make_table(100, seed=37, informative=True)
    model = train_gbdt(table, GbdtParams(depth=1, n_trees=15), seed=0)
    _check_against_enumeration(model, table.X[50:56], table.X[:30])


def test_tree_matches_enumeration_with_repeated_features_and_ties():
    """Depth-4 trees on a banded target split one feature more than once on
    a path; background and explained rows sitting exactly on thresholds
    must follow the strict x < t rule."""
    rng = np.random.default_rng(41)
    n = 300
    X = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 1, n),
                         rng.integers(0, 3, n).astype(float)])
    y = ((X[:, 0] > 3) & (X[:, 0] < 7)).astype(int) ^ (rng.random(n) < 0.1)
    schema = tuple(FeatureSpec(name=f"x{j}", kind="continuous") for j in range(3))
    model = train_gbdt(CohortTable(schema, X, y),
                       GbdtParams(depth=4, n_trees=8), seed=0)
    forest = model.forest
    bounded = np.isfinite(forest.slot_lo) & np.isfinite(forest.slot_hi)
    assert bounded.any()                    # a feature tested twice on a path
    Z = X[:24].copy()
    rows = X[100:104].copy()
    for i, root in enumerate(forest.roots[:4]):
        f, t = forest.feat[root], forest.thr[root]
        Z[i, f] = t
        rows[i, f] = t
    before = _check_against_enumeration(model, rows, Z)
    with pytest.MonkeyPatch.context() as mp:    # many small blocks
        mp.setattr(shapley, "_CHUNK", 64)
        assert np.array_equal(shap_tree(model, rows, Z).values, before.values)
