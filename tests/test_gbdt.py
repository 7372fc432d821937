"""Boosted-tree trainer: hand-computed split oracle, invariances, ordered
target statistics."""

import numpy as np
import pytest

from icurisk.cohort import CohortTable
from icurisk.errors import ConfigError
from icurisk.models.gbdt import (GbdtParams, gbdt_margin, gbdt_predict_proba,
                                 train_gbdt)
from icurisk.schema import FeatureSpec

from conftest import make_table


def _table_1d():
    schema = (FeatureSpec(name="x", kind="continuous"),)
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    return CohortTable(schema, X, [0, 0, 1, 1])


def test_single_stump_hand_oracle():
    """depth 1, one tree, lr 1, no regularization: every number is known.

    At the 0.5 base rate, g = +-1/2 and h = 1/4 per row. The best split is
    x < 1.5 (gain 2.0 beats 2/3 at the outer cuts) and the Newton leaf
    values are -G/H = -+2.
    """
    model = train_gbdt(_table_1d(), GbdtParams(
        depth=1, n_trees=1, learning_rate=1.0, l2_leaf=0.0,
        min_child_weight=0.0))
    assert model.base_score == 0.0
    tree = model.trees[0]
    assert tree.feat[0] == 0
    assert tree.thr[0] == pytest.approx(1.5)
    margins = gbdt_margin(model, np.array([[0.0], [3.0]]))
    assert margins == pytest.approx([-2.0, 2.0])
    p = gbdt_predict_proba(model, np.array([[0.0], [3.0]]))
    assert p[0] == pytest.approx(1 / (1 + np.e ** 2))
    assert p[1] == pytest.approx(1 / (1 + np.e ** -2))


def test_min_child_weight_blocks_thin_splits():
    model = train_gbdt(_table_1d(), GbdtParams(
        depth=1, n_trees=1, learning_rate=1.0, l2_leaf=0.0,
        min_child_weight=1.0))
    # each side only has h = 0.5 < 1.0, so the tree stays a single leaf
    assert model.trees[0].feat[0] == -1


def test_row_duplication_leaves_model_unchanged():
    # only true without absolute-scale regularizers: l2_leaf and
    # min_child_weight act on raw gradient sums, which duplication doubles
    table = make_table(60, seed=4, informative=True)
    params = GbdtParams(depth=3, n_trees=20, learning_rate=0.1,
                        l2_leaf=0.0, min_child_weight=0.0)
    base = train_gbdt(table, params, seed=1)
    doubled = table.subset(np.r_[np.arange(60), np.arange(60)])
    dup = train_gbdt(doubled, params, seed=1)
    assert gbdt_margin(base, table.X) == pytest.approx(
        gbdt_margin(dup, table.X), abs=1e-9)


def test_loss_curve_decreases():
    table = make_table(120, seed=7, informative=True)
    model = train_gbdt(table, GbdtParams(depth=2, n_trees=50), seed=0)
    lc = model.loss_curve
    assert lc.size == 51
    assert lc[-1] < lc[0]
    assert np.all(np.diff(lc) <= 1e-9)


def test_determinism_and_subsample_seed():
    table = make_table(100, seed=9, informative=True)
    p = GbdtParams(depth=2, n_trees=15, subsample=0.7)
    a = train_gbdt(table, p, seed=5)
    b = train_gbdt(table, p, seed=5)
    assert np.array_equal(gbdt_margin(a, table.X), gbdt_margin(b, table.X))
    c = train_gbdt(table, p, seed=6)
    assert not np.array_equal(gbdt_margin(a, table.X), gbdt_margin(c, table.X))


def test_ordered_mode_encodes_categories():
    table = make_table(120, seed=11, informative=True)
    gcs_idx = table.index_of("gcs")
    params = GbdtParams(depth=2, n_trees=10, ordered_mode=True,
                        categorical_idx=(gcs_idx,))
    model = train_gbdt(table, params, seed=2)
    assert gcs_idx in model.cat_stats
    cats, enc, prior = model.cat_stats[gcs_idx]
    assert prior == pytest.approx(table.y.mean())
    assert np.all(np.diff(cats) > 0)
    # unseen category values score with the prior, so any two of them agree
    row = table.X[:1].copy()
    row[0, gcs_idx] = 999.0
    m1 = gbdt_margin(model, row)
    row[0, gcs_idx] = -999.0
    m2 = gbdt_margin(model, row)
    assert m1 == pytest.approx(m2)


def test_plain_mode_has_no_cat_stats():
    table = make_table(50, seed=3)
    model = train_gbdt(table, GbdtParams(depth=2, n_trees=5), seed=0)
    assert model.cat_stats == {}


def test_param_validation():
    with pytest.raises(ConfigError):
        GbdtParams(depth=0)
    with pytest.raises(ConfigError):
        GbdtParams(subsample=0.0)
    with pytest.raises(ConfigError):
        GbdtParams(learning_rate=-0.1)
