"""The model-family seam: training, prediction, and cross-validated search.

train_model dispatches a ModelSpec to its family's trainer. predict_proba
and model_margin dispatch on the fitted model's type and accept either a
CohortTable (feature names are checked against the training schema) or a
bare matrix (only the width is checked). fit_preprocessing is the one path
from raw tables to the pipelines the specs train on: cross-validation folds,
the final refits and the ablation refits all run through it, and
fit_and_score adds one spec's fit and held-out scores. The schema says
which columns are multi-level: ordered boosting orders their raw codes,
other specs get them target-encoded.

Cross-validation is stratified k-fold with grid search. Preprocessing is
refit inside every fold; a model config never sees statistics computed from
its validation rows. Every config is scored on the same fold plan, and every
config's out-of-fold score vector is retained for threshold tuning. Each
fold is preprocessed once, then its (fold, config) fits run side by side on
the available CPUs (see icurisk._fanout).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._fanout import fan_out
from .._rng import derive_int, derive_rng
from ..errors import ConfigError, DataError, SchemaError
from ..metrics import auroc
from ..preprocess import (fit_pipeline, impute, transform_imputed,
                          without_encoding)
from ..schema import multi_level_indices
from ..special import PROB_CLIP, sigmoid
from .gbdt import GbdtModel, GbdtParams, gbdt_margin, train_gbdt
from .linear import LinearModel, linear_margin, train_logreg
from .mlp import MlpModel, mlp_margin, train_mlp
from .naive_bayes import GaussianNbModel, gnb_margin, train_gnb

FAMILIES = ("gbdt", "logreg", "gnb", "mlp")

_MARGIN = {
    GbdtModel: gbdt_margin,
    LinearModel: linear_margin,
    GaussianNbModel: gnb_margin,
    MlpModel: mlp_margin,
}


@dataclass(frozen=True)
class ModelSpec:
    """A point in the model grid: family name plus keyword params for that
    family's trainer. label is a display name for report rows."""

    family: str
    params: dict = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}")
        object.__setattr__(self, "params", dict(self.params))
        if not self.label:
            object.__setattr__(self, "label", self.family)

    @property
    def needs_raw_categories(self) -> bool:
        """Ordered-statistics boosting consumes raw category codes, so the
        pipeline's global target encoding must be disabled for it."""
        return self.family == "gbdt" and bool(self.params.get("ordered_mode"))


def downgrade_ordered(spec: ModelSpec, schema) -> ModelSpec:
    """Ordered boosting needs a multi-level discrete column to order; on a
    schema without one the spec is downgraded to plain boosting."""
    if spec.needs_raw_categories and not multi_level_indices(schema):
        return ModelSpec(spec.family, {**spec.params, "ordered_mode": False},
                         label=spec.label)
    return spec


def train_model(spec: ModelSpec, table, weights, seed: int = 0):
    """Dispatch to the family trainer (ModelSpec refuses unknown families)."""
    if spec.family == "gbdt":
        return train_gbdt(table, GbdtParams(**spec.params), weights, seed=seed)
    if spec.family == "logreg":
        return train_logreg(table, weights=weights, **spec.params)
    if spec.family == "gnb":
        return train_gnb(table, weights=weights, **spec.params)
    return train_mlp(table, weights=weights, seed=seed, **spec.params)


def model_matrix(model, rows) -> np.ndarray:
    """The matrix of rows the model reads, its feature names or width checked."""
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


def model_margin(model, rows) -> np.ndarray:
    """Raw decision value: the log-odds whose sigmoid predict_proba clips."""
    fn = _MARGIN.get(type(model))
    if fn is None:
        raise TypeError(f"unknown model type {type(model).__name__}")
    return fn(model, model_matrix(model, rows))


def predict_proba(model, rows) -> np.ndarray:
    """Mortality probability per row: the sigmoid of the margin, clipped to
    [PROB_CLIP, 1 - PROB_CLIP]."""
    return np.clip(sigmoid(model_margin(model, rows)), PROB_CLIP, 1 - PROB_CLIP)


@dataclass(frozen=True)
class CvPlan:
    folds: tuple  # k arrays of validation row indices; a partition
    k: int


def stratified_kfold(labels, k: int, seed: int) -> CvPlan:
    """Partition rows into k folds, per-class round-robin after a seeded
    shuffle, so each fold's class counts differ by at most one."""
    labels = np.asarray(labels)
    if k < 2:
        raise ConfigError("k must be >= 2")
    rng = derive_rng(seed, "cv")
    folds = [[] for _ in range(k)]
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if idx.size < k:
            raise DataError(f"class {c} has {idx.size} members, fewer than "
                            f"cv_folds={k}; cannot make stratified folds")
        idx = idx[rng.permutation(idx.size)]
        for pos, row in enumerate(idx):
            folds[pos % k].append(row)
    return CvPlan(folds=tuple(np.sort(np.array(f)) for f in folds), k=k)


def fit_preprocessing(grid, train, held_out) -> list:
    """One (fitted pipeline, transformed held_out) pair per spec in grid.

    train and held_out are imputed once each. Every spec gets the
    target-encoded pipeline, except ordered boosting, which orders raw
    category codes itself and gets its unencoded variant. Specs that need
    the same variant share one pair.
    """
    base = fit_pipeline(train)
    held_imputed = impute(base.imputer, held_out)
    variants = {}
    for raw in dict.fromkeys(s.needs_raw_categories for s in grid):
        pipe = without_encoding(base) if raw else base
        variants[raw] = (pipe, transform_imputed(pipe, held_imputed))
    return [variants[s.needs_raw_categories] for s in grid]


def fit_and_score(spec, train, held_out, seed: int) -> tuple:
    """(fitted pipeline, transformed held_out, model, held_out scores) of
    spec trained with seed on the pipeline fit_preprocessing gives it."""
    [(pipe, held_t)] = fit_preprocessing((spec,), train, held_out)
    model = train_model(spec, pipe.fitted_table, pipe.weights, seed=seed)
    return pipe, held_t, model, predict_proba(model, held_t)


@dataclass(frozen=True)
class GridSearchResult:
    configs: tuple
    mean_auroc: np.ndarray
    sd_auroc: np.ndarray
    fold_aurocs: np.ndarray      # (n_configs, k)
    oof: np.ndarray              # (n_configs, n) out-of-fold scores, aligned to train rows
    plan: CvPlan


def cross_validate(train, grid, k: int = 5, seed: int = 0) -> GridSearchResult:
    """Score every spec in grid on one fold plan. Each fold's training and
    validation rows are imputed once for the whole grid, the folds side by
    side; then the (spec, fold) fits run side by side in grid order, each
    seeded from its own indices (see icurisk._fanout)."""
    grid = tuple(grid)
    if not grid:
        raise ConfigError("model grid is empty")
    plan = stratified_kfold(train.y, k, seed)

    def prepare(val_rows):
        """Per spec, what its fit and scoring read: the pipelines
        themselves, with the imputer's reference rows, are dropped."""
        fit_rows = np.setdiff1d(np.arange(train.n), val_rows)
        return [(pipe.fitted_table, pipe.weights, val_t)
                for pipe, val_t in fit_preprocessing(
                    grid, train.subset(fit_rows), train.subset(val_rows))]

    prepared = fan_out(prepare, plan.folds)

    def score(fit):
        cfg_i, fold_i = fit
        fit_t, weights, val_t = prepared[fold_i][cfg_i]
        model = train_model(grid[cfg_i], fit_t, weights,
                            seed=derive_int(seed, "cv", cfg_i, fold_i))
        scores = predict_proba(model, val_t)
        return auroc(scores, val_t.y), scores

    fits = [(cfg_i, fold_i) for cfg_i in range(len(grid)) for fold_i in range(k)]
    fold_aurocs = np.zeros((len(grid), k))
    oof = np.zeros((len(grid), train.n))
    for (cfg_i, fold_i), (fold_auroc, scores) in zip(fits, fan_out(score, fits)):
        fold_aurocs[cfg_i, fold_i] = fold_auroc
        oof[cfg_i, plan.folds[fold_i]] = scores

    return GridSearchResult(configs=grid, mean_auroc=fold_aurocs.mean(axis=1),
                            sd_auroc=fold_aurocs.std(axis=1, ddof=1),
                            fold_aurocs=fold_aurocs, oof=oof, plan=plan)
