"""Penalized logistic regression.

Objective: sum_i w_i [log(1 + exp(z_i)) - y_i z_i] + penalty, with
z = X beta + b and the bias b unpenalized. L2 penalty = ||beta||^2 / (2C),
solved by damped Newton; L1 penalty = ||beta||_1 / C, solved by FISTA with
soft-thresholding and function-value restarts. Convergence is declared when
the (composite) gradient max-norm drops below 1e-6; for L1 this is the
gradient-mapping norm, which coincides with the plain gradient in the
smooth case.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..preprocess import fit_inputs
from ..special import sigmoid, weighted_logloss

_TOL = 1e-6
_NEWTON_ITERS = 100       # L2 iteration budget
_FISTA_ITERS = 20000      # L1 iteration budget


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    penalty: str          # "l1" or "l2"
    C: float
    converged: bool
    n_iter: int
    feature_names_: tuple


def _design(X):
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _nll(beta, Xd, y, w):
    return weighted_logloss(Xd @ beta, y, w)


def _nll_grad(beta, Xd, y, w):
    p = sigmoid(Xd @ beta)
    return Xd.T @ (w * (p - y))


def _objective(beta, Xd, y, w, penalty, C):
    pen = np.abs(beta[:-1]).sum() / C if penalty == "l1" else beta[:-1] @ beta[:-1] / (2 * C)
    return _nll(beta, Xd, y, w) + pen


def _newton_l2(Xd, y, w, C):
    d1 = Xd.shape[1]
    reg = np.ones(d1) / C
    reg[-1] = 0.0  # bias unpenalized
    beta = np.zeros(d1)
    for it in range(1, _NEWTON_ITERS + 1):
        z = Xd @ beta
        p = sigmoid(z)
        grad = Xd.T @ (w * (p - y)) + reg * beta
        if np.abs(grad).max() < _TOL:
            return beta, True, it
        hw = w * p * (1.0 - p)
        H = Xd.T @ (Xd * hw[:, None]) + np.diag(reg) + 1e-10 * np.eye(d1)
        step = np.linalg.solve(H, grad)
        f0 = _nll(beta, Xd, y, w) + 0.5 * (reg * beta) @ beta
        t = 1.0
        slope = grad @ step
        for _ in range(60):
            cand = beta - t * step
            f1 = _nll(cand, Xd, y, w) + 0.5 * (reg * cand) @ cand
            if f1 <= f0 - 1e-4 * t * slope:
                break
            t *= 0.5
        beta = beta - t * step
    return beta, False, _NEWTON_ITERS


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _prox(v, step, C):
    out = v.copy()
    out[:-1] = _soft_threshold(v[:-1], step / C)
    return out


def _fista_l1(Xd, y, w, C):
    # Lipschitz constant of the smooth part: lambda_max(X^T diag(w/4) X)
    M = Xd.T @ (Xd * (w / 4.0)[:, None])
    L = float(np.linalg.eigvalsh(M).max()) + 1e-12
    d1 = Xd.shape[1]
    beta = np.zeros(d1)
    v = beta.copy()
    t_k = 1.0
    best = beta.copy()
    best_obj = _objective(beta, Xd, y, w, "l1", C)
    prev_obj = best_obj
    for it in range(1, _FISTA_ITERS + 1):
        grad_v = _nll_grad(v, Xd, y, w)
        beta_next = _prox(v - grad_v / L, 1.0 / L, C)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        v = beta_next + ((t_k - 1.0) / t_next) * (beta_next - beta)
        beta, t_k = beta_next, t_next
        obj = _objective(beta, Xd, y, w, "l1", C)
        if obj < best_obj:
            best_obj = obj
            best = beta.copy()
        if obj > prev_obj:  # function-value restart
            v = beta.copy()
            t_k = 1.0
        prev_obj = obj
        if it % 10 == 0 or it == _FISTA_ITERS:
            grad_b = _nll_grad(best, Xd, y, w)
            mapped = _prox(best - grad_b / L, 1.0 / L, C)
            crit = L * np.abs(best - mapped).max()
            if crit < _TOL:
                return best, True, it
    return best, False, _FISTA_ITERS


def train_logreg(train, penalty: str = "l2", C: float = 1.0,
                 weights=None) -> LinearModel:
    """Fit the weighted penalized logistic model. weights is a ClassWeights
    (None = unit weights). Non-convergence returns the best iterate with a
    warning and converged=False."""
    penalty = penalty.lower()
    if penalty not in ("l1", "l2"):
        raise ConfigError(f"penalty must be 'l1' or 'l2', got {penalty!r}")
    if C <= 0:
        raise ConfigError(f"C must be positive, got {C}")
    X, y, w = fit_inputs(train, weights, "train_logreg")
    Xd = _design(X)
    if penalty == "l2":
        beta, ok, it = _newton_l2(Xd, y, w, C)
    else:
        beta, ok, it = _fista_l1(Xd, y, w, C)
    if not ok:
        warnings.warn(f"logreg ({penalty}, C={C}) did not converge in {it} iterations")
    return LinearModel(
        weights=beta[:-1].copy(),
        bias=float(beta[-1]),
        penalty=penalty,
        C=float(C),
        converged=bool(ok),
        n_iter=int(it),
        feature_names_=tuple(train.feature_names),
    )


def logreg_objective(model: LinearModel, train, weights=None) -> float:
    """The trained objective evaluated at the model's coefficients."""
    X, y, w = fit_inputs(train, weights, "logreg_objective")
    beta = np.r_[model.weights, model.bias]
    return _objective(beta, _design(X), y, w, model.penalty, model.C)


def linear_margin(model: LinearModel, X: np.ndarray) -> np.ndarray:
    return np.asarray(X, dtype=float) @ model.weights + model.bias
