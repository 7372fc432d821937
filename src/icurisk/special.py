"""Numerically stable scalar and elementwise helpers for the models layer."""

from __future__ import annotations

from math import log

import numpy as np

PROB_CLIP = 1e-7    # probabilities are clipped to [PROB_CLIP, 1 - PROB_CLIP]


def sigmoid(z):
    """Numerically stable logistic function, elementwise."""
    z = np.asarray(z, dtype=float)
    # exp(-|z|): exp(-z) where z >= 0, exp(z) elsewhere, and a NaN of z
    # passed on as it came
    e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return out if out.ndim else float(out)


def logit(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError("logit needs p in (0, 1)")
    return log(p / (1.0 - p))


def log1pexp(z):
    """log(1 + exp(z)) without overflow, elementwise."""
    z = np.asarray(z, dtype=float)
    out = np.where(z > 30, z, np.log1p(np.exp(np.minimum(z, 30))))
    return out if out.ndim else float(out)


def weighted_logloss(z, y, w) -> float:
    """The weighted logistic loss sum_i w_i [log(1 + exp(z_i)) - y_i z_i]."""
    return float(np.sum(w * (log1pexp(z) - y * z)))
