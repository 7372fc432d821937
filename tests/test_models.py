"""Logistic regression, Gaussian naive Bayes, and the small neural net."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

from icurisk._rng import derive_rng
from icurisk.cohort import CohortTable
from icurisk.errors import ConfigError, DataError
from icurisk.models import (GbdtParams, linear, mlp, model_margin, predict_proba,
                            train_gbdt)
from icurisk.models.linear import (LinearModel, linear_margin,
                                   logreg_objective, train_logreg)
from icurisk.models.mlp import mlp_margin, train_mlp
from icurisk.models.naive_bayes import (GaussianNbModel, gnb_log_joint,
                                        gnb_margin, train_gnb)
from icurisk.preprocess import class_weights, fit_inputs
from icurisk.schema import FeatureSpec
from icurisk.special import PROB_CLIP, log1pexp, sigmoid

from conftest import make_table


def _logistic_table(n=4000, seed=0, beta=(1.5, -2.0), bias=0.25):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, len(beta)))
    logits = X @ np.array(beta) + bias
    y = (rng.random(n) < 1 / (1 + np.exp(-logits))).astype(int)
    schema = tuple(FeatureSpec(name=f"x{j}", kind="continuous")
                   for j in range(len(beta)))
    return CohortTable(schema, X, y)


# ------------------------------------------------------ shared fit inputs

@pytest.mark.parametrize("who, fit", [
    ("train_gbdt", lambda t: train_gbdt(t, GbdtParams(n_trees=2))),
    ("train_logreg", train_logreg),
    ("train_mlp", lambda t: train_mlp(t, epochs=1)),
    ("train_gnb", train_gnb),
    ("logreg_objective",
     lambda t: logreg_objective(train_logreg(make_table(30, seed=5)), t)),
])
def test_a_fit_refuses_a_missing_cell_and_names_itself(who, fit):
    table = make_table(30, seed=5)
    X = table.X.copy()
    X[7, 1] = np.nan
    with pytest.raises(DataError, match=f"^{who} requires imputed"):
        fit(table.with_matrix(X))
    fit(table)


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
    for penalty, budget in (("l2", "_NEWTON_ITERS"), ("l1", "_FISTA_ITERS")):
        with pytest.warns(UserWarning, match=rf"logreg \({penalty}, C=1.0\) "
                                             "did not converge in 3 iterations"), \
                mock.patch.object(linear, budget, 3):
            model = train_logreg(table, penalty=penalty, C=1.0)
        assert not model.converged and model.n_iter == 3


def test_logreg_backtracks_a_newton_step_that_overshoots():
    # on these six rows a full Newton step raises the objective, so the line
    # search halves it; the fit still ends at a stationary point
    X = np.array([[130.0], [53.0], [-1.0], [-152.0], [224.0], [71.0]])
    y = np.array([0, 1, 0, 1, 1, 1])
    table = CohortTable((FeatureSpec(name="x", kind="continuous"),), X, y)
    with mock.patch.object(linear, "_nll", wraps=linear._nll) as nll:
        model = train_logreg(table, C=1.0)
    assert model.converged
    # two objective values per full step; more means a step was halved
    assert nll.call_count > 2 * (model.n_iter - 1)
    beta = np.r_[model.weights, model.bias]
    grad = (linear._nll_grad(beta, linear._design(X), y, np.ones(6))
            + np.r_[model.weights, 0.0])
    assert np.abs(grad).max() < 1e-6


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
    post = softmax(gnb_log_joint(model, X), axis=1)
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
    assert softmax(gnb_log_joint(model, x[None, :]), axis=1)[0, 1] == pytest.approx(
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
    assert np.isfinite(softmax(gnb_log_joint(model, X), axis=1)).all()


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


_MARGIN_TARGETS = (-1e4, -800.0, -746.0, -740.0, -725.0, -710.0, -40.0,
                   -1.0, 0.5, 37.0, 710.0, 746.0, 800.0, 1e4)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), mirror=st.booleans(), data=st.data())
def test_gnb_proba_is_the_clipped_softmax_of_the_log_joints(d, mirror, data):
    # predict_proba, the clipped sigmoid of gnb_margin, equals the clipped
    # class-1 softmax of the log joints bit for bit, and so does the sigmoid
    # before the clip. The rows include exact ties (a mirrored model at the
    # origin), margins beyond +-745, where exp(-|m|) is 0, and margins whose
    # exp is subnormal.
    def vector(lo, hi):
        return np.array(data.draw(st.lists(
            st.floats(lo, hi, allow_nan=False), min_size=d, max_size=d)))

    gap = data.draw(st.floats(0.1, 5.0))
    mean0, var0 = vector(-5.0, 5.0), vector(0.01, 10.0)
    if mirror:
        # the origin is an exact tie: equal priors, variances and distances
        mean0[0] = -gap / 2
        means, variances = np.array([mean0, -mean0]), np.array([var0, var0])
        prior1 = 0.5
    else:
        mean1, var1 = vector(-5.0, 5.0), vector(0.01, 10.0)
        mean1[0], var1[0] = mean0[0] + gap, var0[0]
        means, variances = np.array([mean0, mean1]), np.array([var0, var1])
        prior1 = data.draw(st.floats(0.01, 0.99))
    model = GaussianNbModel(priors=np.array([1 - prior1, prior1]), means=means,
                            variances=variances, var_floor=0.0,
                            feature_names_=tuple(f"x{j}" for j in range(d)))
    # feature 0 has one variance in both classes, so the margin is affine in
    # it: move a random row along it to each target margin
    base = vector(-20.0, 20.0)
    base[0] = means[:, 0].mean()
    lj = gnb_log_joint(model, base[None, :])[0]
    targeted = np.repeat(base[None, :], len(_MARGIN_TARGETS), axis=0)
    targeted[:, 0] += ((np.array(_MARGIN_TARGETS) - (lj[1] - lj[0]))
                       * variances[0, 0] / (means[1, 0] - means[0, 0]))
    random_rows = np.array(data.draw(st.lists(
        st.lists(st.floats(-30.0, 30.0, allow_nan=False), min_size=d, max_size=d),
        min_size=1, max_size=20)))
    X = np.vstack([random_rows, targeted, np.zeros((1, d))])

    softmax1 = softmax(gnb_log_joint(model, X), axis=1)[:, 1]
    margin = model_margin(model, X)
    assert np.array_equal(margin, gnb_margin(model, X))
    assert np.array_equal(sigmoid(margin), softmax1)
    assert np.array_equal(predict_proba(model, X),
                          np.clip(softmax1, PROB_CLIP, 1 - PROB_CLIP))
    # the inputs reach the cases named above
    assert (np.abs(margin) > 745).any()
    low = np.exp(margin[margin < 0])
    assert ((low > 0) & (low < np.finfo(float).tiny)).any()
    assert not mirror or margin[-1] == 0.0


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


def _ref_loss_and_grad(params, X, y, w):
    """Loss and one fresh gradient array per tensor, (W1, b1, W2, b2)."""
    W1, b1, W2, b2 = params
    w_sum = w.sum()
    Z1 = X @ W1 + b1
    A1 = np.maximum(Z1, 0.0)
    z2 = A1 @ W2 + b2
    loss = float(np.sum(w * (log1pexp(z2) - y * z2)) / w_sum)
    dz2 = w * (sigmoid(z2) - y) / w_sum
    dZ1 = np.outer(dz2, W2) * (Z1 > 0)
    return loss, (X.T @ dZ1, dZ1.sum(axis=0), A1.T @ dz2, dz2.sum())


def _ref_train_mlp(train, hidden, epochs, weights, seed):
    """The per-tensor trainer: gathered batches, four Adam updates per step
    (one per tensor), epoch losses from a forward and backward pass.
    Returns the kept (W1, b1, W2, b2), both loss histories and the epoch."""
    X, y, w = fit_inputs(train, weights, "reference")
    rng = derive_rng(seed, "mlp")
    fit_idx, val_idx = mlp._stratified_val_split(train.y, rng)
    Xf, yf, wf = X[fit_idx], y[fit_idx], w[fit_idx]
    d = X.shape[1]
    W1 = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, hidden))
    W2 = rng.normal(0.0, np.sqrt(1.0 / hidden), size=hidden)
    params = [W1, np.zeros(hidden), W2, 0.0]
    m = [np.zeros_like(W1), np.zeros(hidden), np.zeros_like(W2), 0.0]
    v = [np.zeros_like(W1), np.zeros(hidden), np.zeros_like(W2), 0.0]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step, since_best, best_epoch, best_val = 0, 0, 0, np.inf
    best = list(params)
    train_hist, val_hist = [], []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(Xf.shape[0])
        for start in range(0, Xf.shape[0], mlp._BATCH_SIZE):
            batch = order[start:start + mlp._BATCH_SIZE]
            loss, grads = _ref_loss_and_grad(tuple(params), Xf[batch],
                                             yf[batch], wf[batch])
            if np.isnan(loss):
                raise ConfigError("diverged")
            step += 1
            for i in range(4):
                m[i] = beta1 * m[i] + (1 - beta1) * grads[i]
                v[i] = beta2 * v[i] + (1 - beta2) * np.square(grads[i])
                m_hat = m[i] / (1 - beta1 ** step)
                v_hat = v[i] / (1 - beta2 ** step)
                params[i] = params[i] - mlp._LEARNING_RATE * m_hat / (np.sqrt(v_hat) + eps)
        train_hist.append(_ref_loss_and_grad(tuple(params), Xf, yf, wf)[0])
        if val_idx is None:
            best, best_epoch = list(params), epoch
            continue
        vl = _ref_loss_and_grad(tuple(params), X[val_idx], y[val_idx], w[val_idx])[0]
        val_hist.append(vl)
        if vl < best_val - 1e-12:
            best, best_epoch, best_val, since_best = list(params), epoch, vl, 0
        else:
            since_best += 1
            if since_best >= mlp._PATIENCE:
                break
    return best, train_hist, val_hist, best_epoch


def _three_per_class():
    table = make_table(6, seed=4, informative=True)
    return CohortTable(table.schema, table.X, [0, 1, 0, 1, 1, 0])


@pytest.mark.parametrize("table, epochs, validated, rate", [
    (make_table(120, seed=6, informative=True), 60, True, 1e-3),
    (make_table(120, seed=6, informative=True), 60, True, 0.05),
    (_three_per_class(), 25, False, 1e-3),
], ids=["validation_split", "validation_split_large_steps", "no_validation_set"])
def test_mlp_fit_equals_the_per_tensor_reference(table, epochs, validated, rate):
    # the flat parameter vector and its whole-vector Adam step do each
    # element's float operations in the per-tensor order, so every weight
    # and loss is bit-equal; with a validation set the fit stops early.
    # Steps near the weights' own size keep the last bits of each step in
    # the weights, where a reordered step would show.
    weights = class_weights(table.y)
    with mock.patch.object(mlp, "_PATIENCE", 5), \
            mock.patch.object(mlp, "_LEARNING_RATE", rate):
        model = train_mlp(table, hidden=6, epochs=epochs, weights=weights, seed=2)
        (W1, b1, W2, b2), train_hist, val_hist, epoch = _ref_train_mlp(
            table, 6, epochs, weights, 2)
    assert model.W1.tobytes() == W1.tobytes()
    assert model.b1.tobytes() == b1.tobytes()
    assert model.W2.tobytes() == W2.tobytes()
    assert np.float64(model.b2).tobytes() == np.float64(b2).tobytes()
    assert np.array(model.train_loss).tobytes() == np.array(train_hist).tobytes()
    assert np.array(model.val_loss).tobytes() == np.array(val_hist).tobytes()
    assert model.stopped_epoch == epoch
    assert bool(val_hist) == validated
    assert (len(train_hist) < epochs) == validated
    # the public gradient, at the kept weights
    X, y, w = fit_inputs(table, weights, "reference")
    loss, grads = mlp.loss_and_grad((W1, b1, W2, b2), X, y, w)
    want_loss, want = _ref_loss_and_grad((W1, b1, W2, b2), X, y, w)
    assert loss == want_loss and type(loss) is float
    for got, ref in zip(grads, want):
        assert np.shape(got) == np.shape(ref)
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()


def test_a_diverging_mlp_fit_still_raises():
    table = make_table(60, seed=3, informative=True)
    with mock.patch.object(mlp, "_LEARNING_RATE", 1e300), \
            np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConfigError):
            _ref_train_mlp(table, 4, 20, None, 0)
        with pytest.raises(ConfigError, match="diverged"):
            train_mlp(table, hidden=4, epochs=20, seed=0)


_MARGIN_CELL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -3.0, 40.0, 1e308])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_MARGIN_CELL, st.integers(0, 1),
                          st.sampled_from([0.5, 1.0, 4.0])), min_size=1, max_size=6))
def test_a_batch_diverges_exactly_when_its_full_loss_is_nan(cells):
    # the loss is computed only for a batch with a non-finite margin
    z2, y, w = (np.array(c, dtype=float) for c in zip(*cells))
    with np.errstate(over="ignore", invalid="ignore"):
        nan_loss = np.isnan(mlp._bce(z2, y, w, w.sum()))
        assert mlp._diverged(z2, y, w) == nan_loss
    if np.isfinite(z2).all():
        assert not nan_loss


def test_mlp_config_validation():
    table = make_table(40, seed=1, informative=True)
    with pytest.raises(ConfigError, match="hidden=0"):
        train_mlp(table, hidden=0)
    with pytest.raises(ConfigError, match="epochs=0"):
        train_mlp(table, epochs=0)
