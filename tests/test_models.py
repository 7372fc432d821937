"""Logistic regression, Gaussian naive Bayes, and the small neural net."""

from unittest import mock

import numpy as np
import pytest

from icurisk.cohort import CohortTable
from icurisk.errors import ConfigError, DataError
from icurisk.models import linear, mlp, predict_proba
from icurisk.models.linear import (LinearModel, linear_margin,
                                   logreg_objective, train_logreg)
from icurisk.models.mlp import mlp_margin, train_mlp
from icurisk.models.naive_bayes import gnb_posterior, train_gnb
from icurisk.preprocess import class_weights
from icurisk.schema import FeatureSpec

from conftest import make_table


def _logistic_table(n=4000, seed=0, beta=(1.5, -2.0), bias=0.25):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, len(beta)))
    logits = X @ np.array(beta) + bias
    y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(int)
    schema = tuple(FeatureSpec(name=f"x{j}", kind="continuous")
                   for j in range(len(beta)))
    return CohortTable(schema, X, y)


# ---------------------------------------------------------------- logreg

def test_logreg_recovers_generating_coefficients():
    table = _logistic_table()
    model = train_logreg(table, penalty="l2", C=1e6)
    assert model.converged
    assert model.weights == pytest.approx([1.5, -2.0], abs=0.15)
    assert model.bias == pytest.approx(0.25, abs=0.15)


def test_logreg_margin_is_affine():
    table = _logistic_table(n=200, seed=3)
    model = train_logreg(table, C=2.0)
    expect = table.X @ model.weights + model.bias
    assert linear_margin(model, table.X) == pytest.approx(expect)
    p = predict_proba(model, table.X)
    assert np.all((p > 0) & (p < 1))


def test_l1_strong_penalty_zeroes_weights():
    table = _logistic_table(n=500, seed=5)
    strong = train_logreg(table, penalty="l1", C=1e-4)
    assert np.count_nonzero(strong.weights) == 0
    weak = train_logreg(table, penalty="l1", C=10.0)
    assert np.count_nonzero(weak.weights) == 2


def test_trained_objective_is_a_local_minimum():
    table = _logistic_table(n=300, seed=7)
    rng = np.random.default_rng(0)
    for penalty, C in (("l2", 1.0), ("l1", 1.0)):
        model = train_logreg(table, penalty=penalty, C=C)
        base = logreg_objective(model, table)
        for _ in range(10):
            bumped = LinearModel(
                weights=model.weights + rng.normal(scale=1e-3, size=2),
                bias=model.bias + rng.normal(scale=1e-3),
                penalty=penalty, C=C, converged=True, n_iter=0,
                feature_names_=model.feature_names_)
            assert logreg_objective(bumped, table) >= base - 1e-9


def test_logreg_class_weights_shift_the_boundary():
    table = _logistic_table(n=800, seed=13, beta=(1.0, -1.0), bias=-1.8)
    assert table.y.mean() < 0.3
    plain = train_logreg(table, C=1.0)
    weighted = train_logreg(table, C=1.0, weights=class_weights(table.y))
    # the weighted score equation pins the weighted mean of p at 1/2, so
    # upweighting the rare positive class raises predicted probabilities
    assert (predict_proba(weighted, table.X).mean()
            > predict_proba(plain, table.X).mean() + 0.1)


def test_logreg_warns_when_iteration_budget_too_small():
    table = _logistic_table(n=300, seed=11)
    with pytest.warns(UserWarning, match="converge"), \
            mock.patch.object(linear, "_NEWTON_ITERS", 1):
        model = train_logreg(table, penalty="l2", C=1.0)
    assert not model.converged


def test_logreg_validation():
    table = _logistic_table(n=100, seed=2)
    with pytest.raises(ConfigError):
        train_logreg(table, penalty="elastic")
    with pytest.raises(ConfigError):
        train_logreg(table, C=0.0)


# ------------------------------------------------------------------- gnb

def test_gnb_identical_class_moments_give_half():
    schema = (FeatureSpec(name="x", kind="continuous"),)
    X = np.array([[0.0], [1.0], [0.0], [1.0]])
    table = CohortTable(schema, X, [0, 0, 1, 1])
    model = train_gnb(table)
    post = gnb_posterior(model, X)
    assert post[:, 1] == pytest.approx(0.5)


def test_gnb_two_feature_hand_computation():
    schema = (FeatureSpec(name="a", kind="continuous"),
              FeatureSpec(name="b", kind="continuous"))
    X = np.array([[0.0, 1.0], [1.0, 3.0], [4.0, 0.0],
                  [5.0, 2.0], [6.0, 1.0]])
    y = np.array([0, 0, 1, 1, 1])
    model = train_gnb(CohortTable(schema, X, y))

    # independent recomputation with population variances
    def class_density(x, rows):
        mu = rows.mean(axis=0)
        var = rows.var(axis=0)
        return np.exp(-0.5 * ((x - mu) ** 2 / var).sum()) / np.sqrt(
            (2 * np.pi * var).prod())

    x = np.array([3.0, 1.5])
    j0 = (2 / 5) * class_density(x, X[y == 0])
    j1 = (3 / 5) * class_density(x, X[y == 1])
    assert gnb_posterior(model, x[None, :])[0, 1] == pytest.approx(
        j1 / (j0 + j1), abs=1e-12)


def test_gnb_inverse_frequency_weights_balance_priors():
    table = make_table(200, seed=5, informative=True)
    model = train_gnb(table, weights=class_weights(table.y))
    assert model.priors == pytest.approx([0.5, 0.5], abs=1e-12)


def test_gnb_variance_floor_on_constant_feature():
    schema = (FeatureSpec(name="c", kind="continuous"),
              FeatureSpec(name="x", kind="continuous"))
    X = np.array([[2.0, 0.0], [2.0, 1.0], [2.0, 5.0], [2.0, 6.0]])
    table = CohortTable(schema, X, [0, 0, 1, 1])
    model = train_gnb(table)
    assert model.variances[0, 0] == model.var_floor
    assert np.isfinite(gnb_posterior(model, X)).all()


def test_gnb_rejects_bad_input():
    schema = (FeatureSpec(name="x", kind="continuous"),)
    with pytest.raises(DataError):
        train_gnb(CohortTable(schema, np.array([[1.0], [np.nan]]), [0, 1]))
    with pytest.raises(DataError):
        train_gnb(CohortTable(schema, np.array([[1.0], [2.0]]), [1, 1]))


def test_gnb_proba_clipped():
    table = make_table(100, seed=8, informative=True)
    model = train_gnb(table)
    p = predict_proba(model, table.X)
    assert np.all(p >= 1e-7) and np.all(p <= 1 - 1e-7)


# ------------------------------------------------------------------- mlp

def test_mlp_learns_an_informative_signal():
    table = make_table(300, seed=21, informative=True)
    with mock.patch.object(mlp, "_PATIENCE", 30), \
            mock.patch.object(mlp, "_LEARNING_RATE", 0.01):
        model = train_mlp(table, hidden=8, epochs=120, seed=0)
    p = predict_proba(model, table.X)
    pos, neg = p[table.y == 1], p[table.y == 0]
    better = (pos[:, None] > neg[None, :]).mean()
    assert better > 0.7
    assert np.all((p > 0) & (p < 1))


def test_mlp_determinism_and_seed_sensitivity():
    table = make_table(80, seed=2, informative=True)
    with mock.patch.object(mlp, "_VAL_FRACTION", 0.2):
        a = train_mlp(table, hidden=4, epochs=15, seed=3)
        b = train_mlp(table, hidden=4, epochs=15, seed=3)
        c = train_mlp(table, hidden=4, epochs=15, seed=4)
    assert np.array_equal(mlp_margin(a, table.X), mlp_margin(b, table.X))
    assert not np.array_equal(mlp_margin(a, table.X), mlp_margin(c, table.X))


def test_mlp_early_stopping_bookkeeping():
    table = make_table(120, seed=6, informative=True)
    with mock.patch.object(mlp, "_PATIENCE", 5), \
            mock.patch.object(mlp, "_VAL_FRACTION", 0.25):
        model = train_mlp(table, hidden=4, epochs=60, seed=1)
    # stopped_epoch is the epoch whose weights were kept; the histories
    # cover every epoch run, which exceeds it by at most the patience
    ran = len(model.train_loss)
    assert 1 <= model.stopped_epoch <= ran <= 60
    assert ran - model.stopped_epoch <= 5
    assert len(model.val_loss) == ran
    assert all(np.isfinite(v) for v in model.train_loss)


def test_mlp_config_validation():
    table = make_table(40, seed=1, informative=True)
    with pytest.raises(ConfigError, match="hidden=0"):
        train_mlp(table, hidden=0)
    with pytest.raises(ConfigError, match="epochs=0"):
        train_mlp(table, epochs=0)
