"""Gaussian naive Bayes with per-sample weights.

Class priors and per-class feature moments are weighted; variances use the
weighted population convention and are floored to keep log-likelihoods
finite on degenerate (constant) features. Note that inverse-frequency class
weights make the weighted priors exactly 0.5/0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import softmax

from ..errors import DataError

_VAR_FLOOR = 1e-9         # times max(largest feature variance, 1)


@dataclass(frozen=True)
class GaussianNbModel:
    priors: np.ndarray        # (2,), sums to 1
    means: np.ndarray         # (2, d)
    variances: np.ndarray     # (2, d), >= var_floor
    var_floor: float
    feature_names_: tuple


def train_gnb(train, weights=None) -> GaussianNbModel:
    X = np.asarray(train.X, dtype=float)
    y = np.asarray(train.y)
    if np.isnan(X).any():
        raise DataError("train_gnb requires imputed (non-missing) inputs")
    if np.unique(y).size < 2:
        raise DataError("train_gnb needs both classes present")
    w = weights.per_row(y) if weights is not None else np.ones(y.shape[0])
    var_floor = _VAR_FLOOR * max(float(X.var(axis=0).max()), 1.0)
    priors = np.empty(2)
    means = np.empty((2, X.shape[1]))
    variances = np.empty((2, X.shape[1]))
    total_w = w.sum()
    for c in (0, 1):
        wc = w[y == c]
        Xc = X[y == c]
        priors[c] = wc.sum() / total_w
        means[c] = (wc[:, None] * Xc).sum(axis=0) / wc.sum()
        variances[c] = (wc[:, None] * (Xc - means[c]) ** 2).sum(axis=0) / wc.sum()
    variances = np.maximum(variances, var_floor)
    return GaussianNbModel(
        priors=priors,
        means=means,
        variances=variances,
        var_floor=float(var_floor),
        feature_names_=tuple(train.feature_names),
    )


def gnb_log_joint(model: GaussianNbModel, X: np.ndarray) -> np.ndarray:
    """(n, 2) log prior + log likelihood per class."""
    X = np.asarray(X, dtype=float)
    out = np.empty((X.shape[0], 2))
    for c in (0, 1):
        var = model.variances[c]
        ll = -0.5 * (np.log(2.0 * np.pi * var) + (X - model.means[c]) ** 2 / var)
        out[:, c] = np.log(model.priors[c]) + ll.sum(axis=1)
    return out


def gnb_posterior(model: GaussianNbModel, X: np.ndarray) -> np.ndarray:
    """(n, 2) class posteriors, the softmax of the log joints; rows sum to 1."""
    return softmax(gnb_log_joint(model, X), axis=1)
