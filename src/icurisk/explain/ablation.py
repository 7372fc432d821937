"""Leave-one-feature-out ablation of test discrimination.

The baseline is the model already fitted on the full training table: the
caller passes its test scores. For a fixed model family and hyperparameters
the pipeline and model are refit once per dropped feature, the refits side
by side on the available CPUs (see icurisk._fanout); each fitted
predictor scores the test table once, and uncertainty comes from
re-evaluating AUROC on stratified bootstrap resamples of the test rows. All
variants are scored on each block of resamples as it is drawn, so the
per-feature distributions are paired with the baseline and the full
resample index set is never held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._fanout import fan_out
from .._rng import derive_int, derive_rng
from ..cohort import CohortTable
from ..errors import DataError
from ..metrics import auroc, paired_aurocs, stratified_bootstrap
from ..models.cv import ModelSpec, downgrade_ordered, fit_and_score


@dataclass(frozen=True)
class AblationReport:
    features: tuple                 # ablated feature names, baseline excluded
    baseline_auroc: float           # point estimate on the full test set
    baseline_dist: np.ndarray       # (B,) bootstrap AUROCs, all features
    dropped_dist: dict              # name -> (B,) bootstrap AUROCs without it
    dropped_auroc: dict             # name -> point estimate without it
    n_resamples: int

    def mean_drop(self, name: str) -> float:
        """Mean paired AUROC loss from removing one feature."""
        return float(np.mean(self.baseline_dist - self.dropped_dist[name]))


def ablation(spec: ModelSpec, train: CohortTable, test: CohortTable,
             base_scores, n_resamples: int = 100,
             seed: int = 0) -> AblationReport:
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
    blocks = stratified_bootstrap(labels, n_resamples, derive_rng(seed, "ablation"))

    # dropping the sole feature leaves nothing to fit
    ablated = train.feature_names if train.d > 1 else ()

    def refit_without(k):
        kept = train.drop_features([ablated[k]])
        *_, scores = fit_and_score(downgrade_ordered(spec, kept.schema), kept,
                                   test.drop_features([ablated[k]]),
                                   derive_int(seed, "ablation", k + 1))
        return scores

    dropped = fan_out(refit_without, range(len(ablated)))
    base_dist, *dropped_dists = paired_aurocs([base_scores, *dropped], labels,
                                              blocks, n_resamples)
    return AblationReport(features=tuple(ablated),
                          baseline_auroc=auroc(base_scores, labels),
                          baseline_dist=base_dist,
                          dropped_dist=dict(zip(ablated, dropped_dists)),
                          dropped_auroc={name: auroc(scores, labels)
                                         for name, scores in zip(ablated, dropped)},
                          n_resamples=n_resamples)
