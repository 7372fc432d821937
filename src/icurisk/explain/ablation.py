"""Leave-one-feature-out ablation of test discrimination.

The baseline is the model already fitted on the full training table: the
caller passes its test scores. For a fixed model family and hyperparameters
the pipeline and model are refit once per dropped feature; each fitted
predictor scores the test table once, and uncertainty comes from
re-evaluating AUROC on stratified bootstrap resamples of the test rows. All
variants share one resample index set so the per-feature distributions are
paired with the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import derive_int, derive_rng
from ..cohort import CohortTable
from ..errors import DataError
from ..metrics import auroc, resampled_aurocs, stratified_bootstrap
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


def _fit_and_score(spec, train, test, pipeline_config, seed):
    spec = downgrade_ordered(spec, train.schema)
    [(pipe, test_t)] = fit_preprocessing((spec,), train, test, pipeline_config)
    model = train_model(spec, pipe.fitted_table, pipe.weights, seed=seed)
    return predict_scores(model, test_t)


def ablation(spec: ModelSpec, train: CohortTable, test: CohortTable,
             base_scores, n_resamples: int = 100, seed: int = 0,
             pipeline_config: PipelineConfig = None) -> AblationReport:
    """Paired bootstrap comparison of test AUROC with and without each feature.

    base_scores are the test scores of spec fitted on the full training
    table; only the dropped-feature variants are refit here."""
    if list(train.feature_names) != list(test.feature_names):
        raise DataError("train and test tables have different features")
    base_scores = np.asarray(base_scores, dtype=float)
    if base_scores.shape != (test.n,):
        raise DataError(f"base_scores has shape {base_scores.shape}, "
                        f"expected one score per test row ({test.n})")
    labels = test.y
    idx = stratified_bootstrap(labels, n_resamples, derive_rng(seed, "ablation"))
    baseline = auroc(base_scores, labels)
    base_dist = resampled_aurocs(base_scores, labels, idx)

    dropped_dist = {}
    dropped_point = {}
    ablated = []
    for k, name in enumerate(train.feature_names):
        if train.d <= 1:
            break  # dropping the sole feature leaves nothing to fit
        tr = train.drop_features([name])
        te = test.drop_features([name])
        scores = _fit_and_score(spec, tr, te, pipeline_config,
                                derive_int(seed, "ablation", k + 1))
        dropped_point[name] = auroc(scores, labels)
        dropped_dist[name] = resampled_aurocs(scores, labels, idx)
        ablated.append(name)

    return AblationReport(features=tuple(ablated), baseline_auroc=baseline,
                          baseline_dist=base_dist, dropped_dist=dropped_dist,
                          dropped_auroc=dropped_point, spec=spec,
                          n_resamples=n_resamples, seed=seed)
