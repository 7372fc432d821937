"""Native model families (boosted trees, logistic regression, Gaussian NB,
MLP) plus cross-validation and grid search.

predict_proba / model margins dispatch on the model type and accept either a
CohortTable (feature names are checked against the training schema) or a
bare matrix (only the width is checked).
"""

from __future__ import annotations

import numpy as np

from ..errors import SchemaError
from .cv import (CvPlan, GridSearchResult, ModelSpec, cross_validate,
                 multi_level_indices, stratified_kfold, train_model)
from .gbdt import (GbdtModel, GbdtParams, gbdt_margin, gbdt_predict_proba,
                   train_gbdt)
from .linear import (LinearModel, linear_margin, linear_predict_proba,
                     logreg_objective, train_logreg)
from .mlp import (MlpConfig, MlpModel, loss_and_grad, mlp_margin,
                  mlp_predict_proba, train_mlp)
from .naive_bayes import (GaussianNbModel, gnb_posterior, gnb_predict_proba,
                          train_gnb)

__all__ = [
    "GbdtModel", "GbdtParams", "train_gbdt", "gbdt_margin",
    "LinearModel", "train_logreg", "logreg_objective",
    "GaussianNbModel", "train_gnb", "gnb_posterior",
    "MlpModel", "MlpConfig", "train_mlp", "loss_and_grad",
    "ModelSpec", "CvPlan", "GridSearchResult", "stratified_kfold",
    "cross_validate", "train_model", "multi_level_indices",
    "predict_proba", "model_margin",
]

_PREDICT = {
    GbdtModel: gbdt_predict_proba,
    LinearModel: linear_predict_proba,
    GaussianNbModel: gnb_predict_proba,
    MlpModel: mlp_predict_proba,
}

_MARGIN = {
    GbdtModel: gbdt_margin,
    LinearModel: linear_margin,
    MlpModel: mlp_margin,
}


def _as_matrix(model, rows) -> np.ndarray:
    if hasattr(rows, "feature_names"):
        if tuple(rows.feature_names) != tuple(model.feature_names_):
            raise SchemaError("prediction schema does not match training schema")
        return rows.X
    X = np.atleast_2d(np.asarray(rows, dtype=float))
    if X.shape[1] != len(model.feature_names_):
        raise SchemaError(
            f"expected {len(model.feature_names_)} features, got {X.shape[1]}"
        )
    return X


def predict_proba(model, rows) -> np.ndarray:
    """Mortality probability per row, clipped to [1e-7, 1 - 1e-7]."""
    fn = _PREDICT.get(type(model))
    if fn is None:
        raise TypeError(f"unknown model type {type(model).__name__}")
    return fn(model, _as_matrix(model, rows))


def model_margin(model, rows) -> np.ndarray:
    """Raw decision value (log-odds scale where the family defines one)."""
    fn = _MARGIN.get(type(model))
    if fn is None:
        raise TypeError(f"{type(model).__name__} has no margin; use predict_proba")
    return fn(model, _as_matrix(model, rows))
