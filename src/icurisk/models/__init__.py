"""Native model families (boosted trees, logistic regression, Gaussian NB,
MLP) plus cross-validation and grid search.

Dispatch over the families lives in models.cv: train_model for training,
predict_proba and model_margin for fitted models. They are re-exported here.
"""

from __future__ import annotations

from .cv import (CvPlan, GridSearchResult, ModelSpec, cross_validate,
                 model_margin, predict_proba, stratified_kfold, train_model)
from .gbdt import GbdtModel, GbdtParams, gbdt_margin, train_gbdt
from .linear import LinearModel, logreg_objective, train_logreg
from .mlp import MlpModel, loss_and_grad, train_mlp
from .naive_bayes import GaussianNbModel, gnb_posterior, train_gnb

__all__ = [
    "GbdtModel", "GbdtParams", "train_gbdt", "gbdt_margin",
    "LinearModel", "train_logreg", "logreg_objective",
    "GaussianNbModel", "train_gnb", "gnb_posterior",
    "MlpModel", "train_mlp", "loss_and_grad",
    "ModelSpec", "CvPlan", "GridSearchResult", "stratified_kfold",
    "cross_validate", "train_model", "predict_proba", "model_margin",
]
