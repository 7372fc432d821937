"""Leave-one-feature-out ablation of test discrimination.

For a fixed model family and hyperparameters, the pipeline and model are
refit once on the full training table and once per dropped feature; each
fitted predictor scores the test table once, and uncertainty comes from
re-evaluating AUROC on stratified bootstrap resamples of the test rows. All
variants share one resample index set so the per-feature distributions are
paired with the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import derive_int, derive_rng
from ..cohort import CohortTable
from ..errors import ConfigError, DataError
from ..metrics import auroc
from ..models.cv import (ModelSpec, downgrade_ordered, fit_preprocessing,
                         predict_scores, train_model)
from ..preprocess import PipelineConfig


@dataclass(frozen=True)
class AblationReport:
    features: tuple                 # ablated feature names, baseline excluded
    baseline_auroc: float           # point estimate on the full test set
    baseline_dist: np.ndarray       # (B,) bootstrap AUROCs, all features
    dropped_dist: dict              # name -> (B,) bootstrap AUROCs without it
    dropped_auroc: dict             # name -> point estimate without it
    spec: ModelSpec
    n_resamples: int
    seed: int

    def mean_drop(self, name: str) -> float:
        """Mean paired AUROC loss from removing one feature."""
        return float(np.mean(self.baseline_dist - self.dropped_dist[name]))


def _bootstrap_indices(labels: np.ndarray, B: int, seed: int):
    rng = derive_rng(seed, "ablation")
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    take_pos = pos[rng.integers(0, pos.size, size=(B, pos.size))]
    take_neg = neg[rng.integers(0, neg.size, size=(B, neg.size))]
    return np.concatenate([take_pos, take_neg], axis=1)


def _fit_and_score(spec, train, test, pipeline_config, seed):
    spec = downgrade_ordered(spec, train.schema)
    [(pipe, test_t)] = fit_preprocessing((spec,), train, test, pipeline_config)
    model = train_model(spec, pipe.fitted_table, pipe.weights, seed=seed)
    return predict_scores(model, test_t)


def ablation(spec: ModelSpec, train: CohortTable, test: CohortTable,
             features=None, n_resamples: int = 100, seed: int = 0,
             pipeline_config: PipelineConfig = None) -> AblationReport:
    """Paired bootstrap comparison of test AUROC with and without each feature."""
    if n_resamples < 1:
        raise ConfigError("n_resamples must be >= 1")
    if list(train.feature_names) != list(test.feature_names):
        raise DataError("train and test tables have different features")
    names = list(features) if features is not None else list(train.feature_names)
    unknown = [n for n in names if n not in train.feature_names]
    if unknown:
        raise ConfigError(f"unknown features: {unknown}")

    labels = test.y
    idx = _bootstrap_indices(labels, n_resamples, seed)

    base_scores = _fit_and_score(spec, train, test, pipeline_config,
                                 derive_int(seed, "ablation", 0))
    baseline = auroc(base_scores, labels)
    base_dist = np.array([auroc(base_scores[r], labels[r]) for r in idx])

    dropped_dist = {}
    dropped_point = {}
    ablated = []
    for k, name in enumerate(names):
        if train.d <= 1:
            break  # dropping the sole feature leaves nothing to fit
        tr = train.drop_features([name])
        te = test.drop_features([name])
        scores = _fit_and_score(spec, tr, te, pipeline_config,
                                derive_int(seed, "ablation", k + 1))
        dropped_point[name] = auroc(scores, labels)
        dropped_dist[name] = np.array([auroc(scores[r], labels[r]) for r in idx])
        ablated.append(name)

    return AblationReport(features=tuple(ablated), baseline_auroc=baseline,
                          baseline_dist=base_dist, dropped_dist=dropped_dist,
                          dropped_auroc=dropped_point, spec=spec,
                          n_resamples=n_resamples, seed=seed)
