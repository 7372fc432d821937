"""Stratified k-fold cross-validation with grid search.

Preprocessing is refit inside every fold; a model config never sees
statistics computed from its validation rows. The winner is the config with
the highest mean out-of-fold AUROC (ties to the smaller config index), and
its out-of-fold score vector is retained for threshold tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._rng import derive_int, derive_rng
from ..errors import ConfigError, DataError
from ..metrics import auroc
from ..preprocess import PipelineConfig, apply, fit_pipeline
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


@dataclass(frozen=True)
class GridSearchResult:
    configs: tuple
    mean_auroc: np.ndarray
    sd_auroc: np.ndarray
    fold_aurocs: np.ndarray      # (n_configs, k)
    best_index: int
    best_spec: ModelSpec
    oof_scores: np.ndarray       # winner's out-of-fold scores, aligned to train rows
    plan: CvPlan


def cross_validate(train, grid, k: int = 5, seed: int = 0,
                   pipeline_config: PipelineConfig = None) -> GridSearchResult:
    grid = tuple(grid)
    if not grid:
        raise ConfigError("model grid is empty")
    base_cfg = pipeline_config or PipelineConfig()
    raw_cfg = PipelineConfig(k_neighbors=base_cfg.k_neighbors, alpha=base_cfg.alpha,
                             encode=(), scale=base_cfg.scale)
    variants = {s.needs_raw_categories for s in grid}
    plan = stratified_kfold(train.y, k, seed)
    n = train.n
    all_rows = np.arange(n)
    fold_aurocs = np.zeros((len(grid), k))
    oof = np.zeros((len(grid), n))

    for fold_i, val_rows in enumerate(plan.folds):
        fit_rows = np.setdiff1d(all_rows, val_rows)
        fold_train = train.subset(fit_rows)
        fold_val = train.subset(val_rows)
        transformed = {}
        for raw in variants:
            pipe = fit_pipeline(fold_train, raw_cfg if raw else base_cfg,
                                train_rows=fit_rows)
            transformed[raw] = (pipe.fitted_table, apply(pipe, fold_val), pipe.weights)
        for cfg_i, spec in enumerate(grid):
            tr, va, wts = transformed[spec.needs_raw_categories]
            model = train_model(spec, tr, wts, seed=derive_int(seed, "cv", cfg_i, fold_i))
            scores = predict_scores(model, va)
            fold_aurocs[cfg_i, fold_i] = auroc(scores, fold_val.y)
            oof[cfg_i, val_rows] = scores

    mean = fold_aurocs.mean(axis=1)
    sd = fold_aurocs.std(axis=1, ddof=1)
    best = int(np.argmax(mean))  # first maximizer = smallest config index
    return GridSearchResult(
        configs=grid,
        mean_auroc=mean,
        sd_auroc=sd,
        fold_aurocs=fold_aurocs,
        best_index=best,
        best_spec=grid[best],
        oof_scores=oof[best].copy(),
        plan=plan,
    )


def predict_scores(model, table) -> np.ndarray:
    # local import; models/__init__ imports this module
    from . import predict_proba

    return predict_proba(model, table)
