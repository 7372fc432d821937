"""Stratified k-fold cross-validation with grid search.

Preprocessing is refit inside every fold; a model config never sees
statistics computed from its validation rows. Every config is scored on the
same fold plan, and every config's out-of-fold score vector is retained for
threshold tuning. The best config of a slice of the grid is the one with the
highest mean out-of-fold AUROC (ties to the smaller config index).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .._fanout import fan_out
from .._rng import derive_int, derive_rng
from ..errors import ConfigError, DataError
from ..metrics import auroc
from ..preprocess import (PipelineConfig, fit_pipeline, impute,
                          transform_imputed, with_encoding)
from .gbdt import GbdtParams, train_gbdt
from .linear import train_logreg
from .mlp import MlpConfig, train_mlp
from .naive_bayes import train_gnb

FAMILIES = ("gbdt", "logreg", "gnb", "mlp")


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


def multi_level_indices(schema) -> tuple:
    return tuple(i for i, s in enumerate(schema)
                 if s.kind in ("ordinal_score", "categorical"))


def downgrade_ordered(spec: ModelSpec, schema) -> ModelSpec:
    """Ordered boosting needs a multi-level discrete column to order; on a
    schema without one the spec is downgraded to plain boosting."""
    if spec.needs_raw_categories and not multi_level_indices(schema):
        return ModelSpec(spec.family, {**spec.params, "ordered_mode": False},
                         label=spec.label)
    return spec


def train_model(spec: ModelSpec, table, weights, seed: int = 0):
    """Dispatch to the family trainer. For ordered-mode boosting without an
    explicit categorical_idx, the multi-level discrete columns are used."""
    if spec.family == "gbdt":
        params = dict(spec.params)
        if params.get("ordered_mode") and not params.get("categorical_idx"):
            params["categorical_idx"] = multi_level_indices(table.schema)
        return train_gbdt(table, GbdtParams(**params), weights, seed=seed)
    if spec.family == "logreg":
        return train_logreg(table, weights=weights, **spec.params)
    if spec.family == "gnb":
        return train_gnb(table, weights=weights, **spec.params)
    if spec.family == "mlp":
        return train_mlp(table, MlpConfig(**spec.params), weights, seed=seed)
    raise ConfigError(f"unknown model family {spec.family!r}")


@dataclass(frozen=True)
class CvPlan:
    folds: tuple  # k arrays of validation row indices; a partition
    seed: int
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
            raise DataError(f"class {c} has {idx.size} members; cannot make {k} stratified folds")
        idx = idx[rng.permutation(idx.size)]
        for pos, row in enumerate(idx):
            folds[pos % k].append(row)
    return CvPlan(folds=tuple(np.sort(np.array(f)) for f in folds), seed=int(seed), k=k)


def fit_preprocessing(grid, train, held_out, config: PipelineConfig = None) -> list:
    """One (fitted pipeline, transformed held_out) pair per spec in grid.

    train and held_out are imputed once each; the imputed tables then branch
    into the target-encoded variant, and, for ordered boosting, which orders
    raw category codes itself, the unencoded one. Specs that need the same
    variant share one pair.
    """
    config = config or PipelineConfig()
    encodes = [config.encode and not s.needs_raw_categories for s in grid]
    base = fit_pipeline(train, replace(config, encode=encodes[0]))
    held_imputed = impute(base.imputer, held_out)
    variants = {}
    for enc in dict.fromkeys(encodes):
        pipe = with_encoding(base, enc)
        variants[enc] = (pipe, transform_imputed(pipe, held_imputed))
    return [variants[enc] for enc in encodes]


@dataclass(frozen=True)
class GridSearchResult:
    configs: tuple
    mean_auroc: np.ndarray
    sd_auroc: np.ndarray
    fold_aurocs: np.ndarray      # (n_configs, k)
    oof: np.ndarray              # (n_configs, n) out-of-fold scores, aligned to train rows
    plan: CvPlan

    def best_in(self, start: int = 0, stop: int = None) -> int:
        """Index of the best config among configs[start:stop] by mean AUROC;
        ties go to the smaller index."""
        return start + int(np.argmax(self.mean_auroc[start:stop]))


def cross_validate(train, grid, k: int = 5, seed: int = 0,
                   pipeline_config: PipelineConfig = None) -> GridSearchResult:
    """Score every spec in grid on one fold plan; each fold's training and
    validation rows are imputed once for the whole grid. The folds run side
    by side on the available CPUs (see icurisk._fanout)."""
    grid = tuple(grid)
    if not grid:
        raise ConfigError("model grid is empty")
    plan = stratified_kfold(train.y, k, seed)

    def score_fold(fold):
        fold_i, val_rows = fold
        fit_rows = np.setdiff1d(np.arange(train.n), val_rows)
        fold_val = train.subset(val_rows)
        prepared = fit_preprocessing(grid, train.subset(fit_rows), fold_val,
                                     pipeline_config)
        out = []
        for cfg_i, (spec, (pipe, va)) in enumerate(zip(grid, prepared)):
            model = train_model(spec, pipe.fitted_table, pipe.weights,
                                seed=derive_int(seed, "cv", cfg_i, fold_i))
            scores = predict_scores(model, va)
            out.append((auroc(scores, fold_val.y), scores))
        return out

    fold_aurocs = np.zeros((len(grid), k))
    oof = np.zeros((len(grid), train.n))
    for fold_i, (val_rows, scored) in enumerate(
            zip(plan.folds, fan_out(score_fold, enumerate(plan.folds)))):
        for cfg_i, (fold_auroc, scores) in enumerate(scored):
            fold_aurocs[cfg_i, fold_i] = fold_auroc
            oof[cfg_i, val_rows] = scores

    return GridSearchResult(configs=grid, mean_auroc=fold_aurocs.mean(axis=1),
                            sd_auroc=fold_aurocs.std(axis=1, ddof=1),
                            fold_aurocs=fold_aurocs, oof=oof, plan=plan)


def predict_scores(model, table) -> np.ndarray:
    # local import; models/__init__ imports this module
    from . import predict_proba

    return predict_proba(model, table)
