"""Interpretable 30-day ICU mortality risk pipeline.

The package covers the full workflow on tabular cohorts: schema-aware data
handling with a synthetic cohort generator, preprocessing (k-NN imputation,
smoothed target encoding, standardization, inverse-frequency class weights),
mutual-information feature selection, four natively implemented model
families benchmarked under stratified cross-validation, rank-based
evaluation with bootstrap intervals, and an explanation stack (ablation,
Shapley attributions, accumulated local effects, MCMC posterior risk).

`run()` executes the whole pipeline from a `RunConfig`; `write_artifacts()`
serializes the result to a report plus tabular and SVG projections. The
same entry points back the `icurisk` command line tool.
"""

__version__ = "0.1.0"

from .cohort import (CohortTable, SplitIndex, load_cohort, save_cohort,
                     stratified_split, summarize)
from .errors import (ConfigError, ConvergenceError, DataError, IcuRiskError,
                     OrderingError, SchemaError)
from .explain import (AblationReport, AleCurve, DreamConfig, DreamResult,
                      PosteriorRisk, ShapMatrix, ablation, ale, dream_sample,
                      posterior_risk_inputs, shap_exhaustive, shap_tree)
from .metrics import (MetricReport, auroc, bootstrap_auroc_ci, compare_cohorts,
                      confusion_metrics, roc_curve, tune_threshold, welch_t)
from .models import (GaussianNbModel, GbdtModel, GbdtParams, LinearModel,
                     MlpModel, cross_validate, model_margin, predict_proba,
                     train_gbdt, train_gnb, train_logreg, train_mlp,
                     train_model)
from .pipeline import (BenchmarkRow, RunConfig, RunResult, load_run_config,
                       run)
from .preprocess import (ClassWeights, FittedPipeline, PipelineConfig, apply,
                         class_weights, fit_pipeline)
from .report import (RunManifest, build_report, emit_projections, emit_report,
                     load_manifest, validate_report, write_artifacts)
from .schema import FeatureSpec, default_schema, load_schema, save_schema
from .select import coverage_filter, mutual_information, rank_features
from .synth import synth_cohort, synth_default_cohort

__all__ = [
    "__version__",
    # errors
    "IcuRiskError", "ConfigError", "SchemaError", "DataError",
    "OrderingError", "ConvergenceError",
    # data
    "FeatureSpec", "default_schema", "load_schema", "save_schema",
    "CohortTable", "SplitIndex", "stratified_split", "summarize",
    "save_cohort", "load_cohort", "synth_cohort", "synth_default_cohort",
    # preprocessing and selection
    "PipelineConfig", "FittedPipeline", "fit_pipeline", "apply",
    "ClassWeights", "class_weights", "coverage_filter",
    "mutual_information", "rank_features",
    # models
    "GbdtModel", "GbdtParams", "train_gbdt", "LinearModel", "train_logreg",
    "GaussianNbModel", "train_gnb", "MlpModel", "train_mlp",
    "train_model", "cross_validate", "predict_proba", "model_margin",
    # evaluation
    "auroc", "roc_curve", "bootstrap_auroc_ci", "tune_threshold",
    "confusion_metrics", "MetricReport", "welch_t", "compare_cohorts",
    # explanation
    "ablation", "AblationReport", "shap_tree", "shap_exhaustive",
    "ShapMatrix", "ale", "AleCurve", "dream_sample", "DreamConfig",
    "DreamResult", "posterior_risk_inputs", "PosteriorRisk",
    # orchestration
    "RunConfig", "RunResult", "BenchmarkRow", "run", "load_run_config",
    "build_report", "validate_report", "write_artifacts", "emit_projections",
    "emit_report", "RunManifest", "load_manifest",
]
