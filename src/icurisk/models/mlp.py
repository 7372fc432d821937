"""Single-hidden-layer perceptron: ReLU hidden layer, sigmoid output,
weighted binary cross-entropy, Adam updates, and early stopping on a
stratified validation split of the training fold.

The batch loss is sum(w * bce) / sum(w), so class weights rescale per-sample
influence without changing the step-size scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isnan

import numpy as np

from .._rng import derive_rng
from ..errors import ConfigError
from ..preprocess import fit_inputs
from ..special import sigmoid, weighted_logloss

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


def _views(flat, d, hidden):
    """(W1, b1, W2, b2) as views into one flat vector, in that order; b2 is
    a length-1 view of its last element."""
    k = d * hidden
    return (flat[:k].reshape(d, hidden), flat[k:k + hidden],
            flat[k + hidden:k + 2 * hidden], flat[k + 2 * hidden:])


def _loss(params, X, y, w):
    """The weighted BCE of loss_and_grad, without the gradients."""
    return _bce(_forward(params, X)[2], y, w, w.sum())


def _bce(z2, y, w, w_sum):
    return float(weighted_logloss(z2, y, w) / w_sum)


def _loss_and_grad_into(params, X, y, w, grads):
    """Weighted BCE loss; writes the analytic gradients into the arrays
    grads = (dW1, db1, dW2, db2), db2 of length 1."""
    dW1, db1, dW2, db2 = grads
    w_sum = w.sum()
    Z1, A1, z2 = _forward(params, X)
    dz2 = w * (sigmoid(z2) - y) / w_sum
    np.matmul(A1.T, dz2, out=dW2)
    db2[0] = dz2.sum()
    dZ1 = dz2[:, None] * params[2]
    dZ1 *= Z1 > 0
    np.matmul(X.T, dZ1, out=dW1)
    dZ1.sum(axis=0, out=db1)
    return _bce(z2, y, w, w_sum)


def loss_and_grad(params, X, y, w):
    """Weighted BCE loss and analytic gradients (W1, b1, W2, b2 order)."""
    d, hidden = np.shape(params[0])
    dW1, db1, dW2, db2 = _views(np.empty(d * hidden + 2 * hidden + 1), d, hidden)
    loss = _loss_and_grad_into(params, X, np.asarray(y, dtype=float), w,
                               (dW1, db1, dW2, db2))
    return loss, (dW1, db1, dW2, db2[0])


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
    X, y, w = fit_inputs(train, weights, "train_mlp")
    rng = derive_rng(seed, "mlp")

    fit_idx, val_idx = _stratified_val_split(train.y, rng)
    Xf, yf, wf = X[fit_idx], y[fit_idx], w[fit_idx]
    if val_idx is not None:
        Xv, yv, wv = X[val_idx], y[val_idx], w[val_idx]

    # W1, b1, W2, b2 are views into one parameter vector, and the gradient
    # has the same layout, so Adam updates every parameter with one pass of
    # each operation: element by element, the float operations of one
    # update per tensor
    d = X.shape[1]
    size = d * hidden + 2 * hidden + 1
    theta = np.zeros(size)
    params = _views(theta, d, hidden)
    params[0][...] = rng.normal(0.0, np.sqrt(2.0 / d), size=(d, hidden))
    params[2][...] = rng.normal(0.0, np.sqrt(1.0 / hidden), size=hidden)
    grad = np.empty(size)
    grads = _views(grad, d, hidden)
    m = np.zeros(size)
    v = np.zeros(size)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    train_hist, val_hist = [], []
    best_val = np.inf
    best = theta.copy()
    best_epoch = 0
    since_best = 0
    n_fit = Xf.shape[0]

    for epoch in range(1, epochs + 1):
        order = rng.permutation(n_fit)
        Xe, ye, we = Xf[order], yf[order], wf[order]
        for start in range(0, n_fit, _BATCH_SIZE):
            batch = slice(start, start + _BATCH_SIZE)
            loss = _loss_and_grad_into(params, Xe[batch], ye[batch], we[batch], grads)
            if isnan(loss):
                raise ConfigError("MLP training diverged (NaN loss)")
            step += 1
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * np.square(grad)
            theta -= (_LEARNING_RATE * (m / (1 - beta1 ** step))
                      / (np.sqrt(v / (1 - beta2 ** step)) + eps))
        train_hist.append(_loss(params, Xf, yf, wf))
        if val_idx is not None:
            vl = _loss(params, Xv, yv, wv)
            val_hist.append(vl)
            if vl < best_val - 1e-12:
                best_val = vl
                best = theta.copy()
                best_epoch = epoch
                since_best = 0
            else:
                since_best += 1
                if since_best >= _PATIENCE:
                    break
        else:
            best = theta.copy()
            best_epoch = epoch

    W1, b1, W2, b2 = _views(best, d, hidden)
    return MlpModel(
        W1=W1, b1=b1, W2=W2, b2=float(b2[0]),
        feature_names_=tuple(train.feature_names),
        train_loss=tuple(train_hist),
        val_loss=tuple(val_hist),
        stopped_epoch=best_epoch,
    )


def mlp_margin(model: MlpModel, X: np.ndarray) -> np.ndarray:
    _, _, z2 = _forward((model.W1, model.b1, model.W2, model.b2), np.asarray(X, dtype=float))
    return z2
