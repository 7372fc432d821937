"""Single-hidden-layer perceptron: ReLU hidden layer, sigmoid output,
weighted binary cross-entropy, Adam updates, and early stopping on a
stratified validation split of the training fold.

The batch loss is sum(w * bce) / sum(w), so class weights rescale per-sample
influence without changing the step-size scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import derive_rng
from ..errors import ConfigError, DataError
from ..special import log1pexp, sigmoid

_BATCH_SIZE = 32
_LEARNING_RATE = 1e-3
_PATIENCE = 20            # epochs without a better validation loss
_VAL_FRACTION = 0.15      # per-class share of the fold held out for stopping


@dataclass(frozen=True)
class MlpModel:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: float
    feature_names_: tuple
    train_loss: tuple
    val_loss: tuple
    stopped_epoch: int


def _forward(params, X):
    W1, b1, W2, b2 = params
    Z1 = X @ W1 + b1
    A1 = np.maximum(Z1, 0.0)
    z2 = A1 @ W2 + b2
    return Z1, A1, z2


def loss_and_grad(params, X, y, w):
    """Weighted BCE loss and analytic gradients (W1, b1, W2, b2 order)."""
    W1, b1, W2, b2 = params
    y = np.asarray(y, dtype=float)
    w_sum = w.sum()
    Z1, A1, z2 = _forward(params, X)
    loss = float(np.sum(w * (log1pexp(z2) - y * z2)) / w_sum)
    dz2 = w * (sigmoid(z2) - y) / w_sum
    dW2 = A1.T @ dz2
    db2 = dz2.sum()
    dA1 = np.outer(dz2, W2)
    dZ1 = dA1 * (Z1 > 0)
    dW1 = X.T @ dZ1
    db1 = dZ1.sum(axis=0)
    return loss, (dW1, db1, dW2, db2)


def _stratified_val_split(y, rng):
    val = []
    for c in (0, 1):
        idx = np.flatnonzero(y == c)
        n_val = int(np.floor(idx.size * _VAL_FRACTION + 0.5))
        if n_val == 0 or n_val == idx.size:
            continue
        perm = rng.permutation(idx.size)
        val.append(idx[perm[:n_val]])
    if not val:
        return np.arange(y.size), None
    val = np.sort(np.concatenate(val))
    fit = np.setdiff1d(np.arange(y.size), val)
    return fit, val


def train_mlp(train, hidden: int = 16, epochs: int = 200, weights=None,
              seed: int = 0) -> MlpModel:
    """Adam on the weighted BCE. Early stopping restores the parameters of
    the best validation epoch; when neither class has rows to hold out (at
    most 3 each), there is no validation set and all epochs run."""
    if hidden < 1 or epochs < 1:
        raise ConfigError(f"hidden and epochs must be >= 1, got "
                          f"hidden={hidden}, epochs={epochs}")
    X = np.asarray(train.X, dtype=float)
    y = np.asarray(train.y, dtype=float)
    if np.isnan(X).any():
        raise DataError("train_mlp requires imputed (non-missing) inputs")
    w = weights.per_row(train.y) if weights is not None else np.ones(y.shape[0])
    rng = derive_rng(seed, "mlp")

    fit_idx, val_idx = _stratified_val_split(train.y, rng)
    Xf, yf, wf = X[fit_idx], y[fit_idx], w[fit_idx]

    d = X.shape[1]
    W1 = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, hidden))
    b1 = np.zeros(hidden)
    W2 = rng.normal(0.0, np.sqrt(1.0 / hidden), size=hidden)
    b2 = 0.0
    params = [W1, b1, W2, b2]
    m = [np.zeros_like(W1), np.zeros_like(b1), np.zeros_like(W2), 0.0]
    v = [np.zeros_like(W1), np.zeros_like(b1), np.zeros_like(W2), 0.0]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    train_hist, val_hist = [], []
    best_val = np.inf
    best_params = [W1.copy(), b1.copy(), W2.copy(), b2]
    best_epoch = 0
    since_best = 0
    n_fit = Xf.shape[0]

    for epoch in range(1, epochs + 1):
        order = rng.permutation(n_fit)
        for start in range(0, n_fit, _BATCH_SIZE):
            batch = order[start : start + _BATCH_SIZE]
            loss, grads = loss_and_grad(tuple(params), Xf[batch], yf[batch], wf[batch])
            if np.isnan(loss):
                raise ConfigError("MLP training diverged (NaN loss)")
            step += 1
            for i in range(4):
                m[i] = beta1 * m[i] + (1 - beta1) * grads[i]
                v[i] = beta2 * v[i] + (1 - beta2) * np.square(grads[i])
                m_hat = m[i] / (1 - beta1 ** step)
                v_hat = v[i] / (1 - beta2 ** step)
                params[i] = params[i] - _LEARNING_RATE * m_hat / (np.sqrt(v_hat) + eps)
        ep_loss, _ = loss_and_grad(tuple(params), Xf, yf, wf)
        train_hist.append(ep_loss)
        if val_idx is not None:
            vl, _ = loss_and_grad(tuple(params), X[val_idx], y[val_idx], w[val_idx])
            val_hist.append(vl)
            if vl < best_val - 1e-12:
                best_val = vl
                best_params = [params[0].copy(), params[1].copy(), params[2].copy(), params[3]]
                best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                if since_best >= _PATIENCE:
                    break
        else:
            best_params = [params[0].copy(), params[1].copy(), params[2].copy(), params[3]]
            best_epoch = epoch

    W1, b1, W2, b2 = best_params
    return MlpModel(
        W1=W1, b1=b1, W2=W2, b2=float(b2),
        feature_names_=tuple(train.feature_names),
        train_loss=tuple(train_hist),
        val_loss=tuple(val_hist),
        stopped_epoch=best_epoch,
    )


def mlp_margin(model: MlpModel, X: np.ndarray) -> np.ndarray:
    _, _, z2 = _forward((model.W1, model.b1, model.W2, model.b2), np.asarray(X, dtype=float))
    return z2
