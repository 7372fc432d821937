"""Stratified k-fold plans and the grid search over model specs."""

import numpy as np
import pytest

from icurisk import preprocess
from icurisk.errors import ConfigError, DataError
from icurisk.metrics import auroc
from icurisk.models.cv import (ModelSpec, cross_validate, fit_and_score,
                               fit_preprocessing, model_margin, predict_proba,
                               stratified_kfold, train_model)
from icurisk.models.gbdt import gbdt_margin
from icurisk.models.linear import linear_margin
from icurisk.models.mlp import mlp_margin
from icurisk.models.naive_bayes import gnb_posterior
from icurisk.preprocess import class_weights
from icurisk.schema import multi_level_indices
from icurisk.special import sigmoid

from conftest import make_table, small_schema, wrap_everywhere


def test_kfold_is_a_partition():
    y = np.r_[np.zeros(23, int), np.ones(12, int)]
    plan = stratified_kfold(y, k=5, seed=0)
    assert plan.k == 5 and len(plan.folds) == 5
    combined = np.concatenate(plan.folds)
    assert np.array_equal(np.sort(combined), np.arange(35))


def test_kfold_balances_classes_within_one():
    rng = np.random.default_rng(7)
    y = (rng.random(83) < 0.3).astype(int)
    plan = stratified_kfold(y, k=5, seed=1)
    for c in (0, 1):
        counts = [int((y[f] == c).sum()) for f in plan.folds]
        assert max(counts) - min(counts) <= 1


def test_kfold_validation_and_determinism():
    y = np.r_[np.zeros(20, int), np.ones(3, int)]
    with pytest.raises(DataError):
        stratified_kfold(y, k=4, seed=0)
    with pytest.raises(ConfigError):
        stratified_kfold(y, k=1, seed=0)
    ok = np.r_[np.zeros(20, int), np.ones(8, int)]
    a = stratified_kfold(ok, k=4, seed=9)
    b = stratified_kfold(ok, k=4, seed=9)
    assert all(np.array_equal(x, z) for x, z in zip(a.folds, b.folds))
    c = stratified_kfold(ok, k=4, seed=10)
    assert any(not np.array_equal(x, z) for x, z in zip(a.folds, c.folds))


def test_model_spec_contract():
    with pytest.raises(ConfigError):
        ModelSpec(family="svm")
    spec = ModelSpec(family="gnb")
    assert spec.label == "gnb"
    assert not spec.needs_raw_categories
    assert not ModelSpec(family="gbdt").needs_raw_categories
    assert ModelSpec(family="gbdt",
                     params={"ordered_mode": True}).needs_raw_categories


def test_multi_level_indices():
    assert multi_level_indices(small_schema()) == (3,)  # gcs only


def test_train_model_dispatch_fills_categorical_idx():
    table = make_table(80, seed=4, informative=True)
    spec = ModelSpec(family="gbdt",
                     params={"ordered_mode": True, "n_trees": 5, "depth": 2})
    model = train_model(spec, table, class_weights(table.y), seed=0)
    assert [e.column for e in model.encoders] == [table.index_of("gcs")]


def test_cross_validate_shapes_and_winner():
    table = make_table(150, seed=12, missing=0.05, informative=True)
    grid = (
        ModelSpec(family="gnb"),
        ModelSpec(family="logreg", params={"C": 1.0}),
        ModelSpec(family="gbdt", params={"n_trees": 10, "depth": 2}),
    )
    result = cross_validate(table, grid, k=3, seed=2)
    assert result.fold_aurocs.shape == (3, 3)
    assert result.mean_auroc == pytest.approx(result.fold_aurocs.mean(axis=1))
    best = int(np.argmax(result.mean_auroc))
    assert result.configs[best] is grid[best]
    assert result.oof.shape == (3, 150)
    # the winner beats chance out of fold on this informative fixture
    assert auroc(result.oof[best], table.y) > 0.7


def test_cross_validate_ties_pick_first_config():
    table = make_table(60, seed=3, informative=True)
    spec = ModelSpec(family="gnb")
    result = cross_validate(table, (spec, ModelSpec(family="gnb")), k=2, seed=0)
    # equal scores; the benchmark rows keep the first of tied specs
    # (test_pipeline::test_a_row_tie_goes_to_its_first_spec)
    assert result.mean_auroc[0] == result.mean_auroc[1]


def test_cross_validate_empty_grid():
    table = make_table(40, seed=1)
    with pytest.raises(ConfigError):
        cross_validate(table, (), k=2)


def test_ordered_spec_uses_raw_category_codes():
    """An ordered-mode entry must see unencoded grids even when the grid
    also holds standard entries; success shows up as fitted cat stats in a
    refit on the full table and finite fold scores in the search."""
    table = make_table(120, seed=8, missing=0.05, informative=True)
    grid = (
        ModelSpec(family="gbdt", params={"n_trees": 5, "depth": 2}),
        ModelSpec(family="gbdt",
                  params={"ordered_mode": True, "n_trees": 5, "depth": 2}),
    )
    result = cross_validate(table, grid, k=3, seed=4)
    assert np.isfinite(result.fold_aurocs).all()


def test_predict_proba_matches_family_output():
    # the clipped sigmoid of the family margin, or the clipped GNB class-1
    # posterior, bit for bit; a model without a family is refused by type
    table = make_table(90, seed=5, informative=True)
    weights = class_weights(table.y)
    for spec, margin in (
            (ModelSpec(family="gbdt", params={"n_trees": 5, "depth": 2}), gbdt_margin),
            (ModelSpec(family="logreg", params={"C": 2.0}), linear_margin),
            (ModelSpec(family="mlp", params={"hidden": 4, "epochs": 5}), mlp_margin)):
        model = train_model(spec, table, weights, seed=0)
        expect = np.clip(sigmoid(margin(model, table.X)), 1e-7, 1 - 1e-7)
        assert np.array_equal(predict_proba(model, table), expect)
        assert np.array_equal(predict_proba(model, table.X), expect)
        assert np.array_equal(model_margin(model, table), margin(model, table.X))
    gnb = train_model(ModelSpec(family="gnb"), table, weights)
    expect = np.clip(gnb_posterior(gnb, table.X)[:, 1], 1e-7, 1 - 1e-7)
    assert np.array_equal(predict_proba(gnb, table), expect)
    with pytest.raises(TypeError, match="unknown model type object"):
        predict_proba(object(), table.X)
    with pytest.raises(TypeError, match="GaussianNbModel has no margin"):
        model_margin(gnb, table.X)


_ORDERED = ModelSpec(family="gbdt",
                     params={"ordered_mode": True, "n_trees": 5, "depth": 2})
_PLAIN = ModelSpec(family="gbdt", params={"n_trees": 5, "depth": 2})


def test_cross_validate_imputes_each_fold_table_once(monkeypatch, tmp_path):
    # one imputation of each fold's training and validation rows serves
    # both the encoded and the raw-category variant of every spec; calls are
    # logged to a file, so that folds run in worker processes count too
    log = tmp_path / "calls"
    original = preprocess.impute

    def counted(imputer, table):
        with open(log, "a") as f:
            f.write(f"{table.n}\n")
        return original(imputer, table)

    wrap_everywhere(monkeypatch, original, counted)
    table = make_table(90, seed=6, missing=0.1, informative=True)
    grid = (_PLAIN, _ORDERED, ModelSpec(family="gnb"),
            ModelSpec(family="logreg", params={"C": 1.0}))
    result = cross_validate(table, grid, k=3, seed=1)
    calls = [int(n) for n in log.read_text().split()]
    assert len(calls) == 2 * 3
    # each row is imputed once as a validation row and k - 1 times as a
    # training row
    assert sum(calls) == 3 * table.n
    assert np.isfinite(result.fold_aurocs).all()


def test_fit_preprocessing_encodes_all_but_ordered_boosting():
    train = make_table(80, seed=2, missing=0.1, informative=True)
    test = make_table(30, seed=3, missing=0.1)
    prepared = fit_preprocessing((_PLAIN, _ORDERED, ModelSpec(family="gnb")),
                                 train, test)
    (plain, plain_test), (ordered, ordered_test), gnb = prepared
    assert gnb[0] is plain and gnb[1] is plain_test
    assert [e.feature for e in plain.encoders] == ["gcs"]
    assert ordered.encoders == ()
    assert ordered.imputer is plain.imputer
    assert plain_test.equals(preprocess.apply(plain, test))
    assert ordered_test.equals(preprocess.apply(ordered, test))


def test_fit_and_score_trains_each_spec_with_its_seed():
    train = make_table(80, seed=2, missing=0.1, informative=True)
    test = make_table(30, seed=3, missing=0.1)
    mlp = ModelSpec(family="mlp", params={"hidden": 4, "epochs": 5})
    a, b, ordered = fit_and_score((mlp, mlp, _ORDERED), train, test,
                                  (1, 2, 1))
    assert a[0] is b[0] and a[1] is b[1]          # one shared pipeline
    assert ordered[0].encoders == ()              # raw category codes
    for pipe, test_t, model, scores in (a, b, ordered):
        assert np.array_equal(scores, predict_proba(model, test_t))
    assert not np.array_equal(a[3], b[3])
    [again] = fit_and_score((mlp,), train, test, (1,))
    assert np.array_equal(again[3], a[3])
