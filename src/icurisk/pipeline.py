"""End-to-end orchestration: data, preprocessing, selection, model
benchmark, evaluation, and the explanation stack, driven by one RunConfig.

All randomness descends from the single master seed through tagged
substreams, so identical configs give byte-identical artifacts. Stages run
in a fixed order and any failure is re-raised with a stage tag, both in
its message and as its stage attribute.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._fanout import fan_out
from ._json import check_fields, from_mapping, read_json
from ._rng import derive_int, derive_rng
from .cohort import (CohortTable, float_cells, load_cohort, stratified_split,
                     summarize)
from .errors import ConfigError, DataError, IcuRiskError, NumericError
from .explain import (AblationReport, PosteriorRisk, ShapMatrix, ablation, ale,
                      posterior_draws, posterior_risk_inputs, shap_tree)
from .explain.dream import MIN_CHAINS, MIN_GENERATIONS, DreamConfig
from .metrics import (MetricReport, bootstrap_auroc_ci, compare_cohorts,
                      confusion_metrics, roc_curve, tune_threshold)
from .models import predict_proba
from .models.cv import (ModelSpec, cross_validate, downgrade_ordered,
                        fit_preprocessing, train_model)
from .preprocess import FittedPipeline, apply
from .schema import default_schema, load_schema
from .select import coverage_filter, rank_features
from .synth import synth_default_cohort


@dataclass(frozen=True)
class Predictor:
    """Raw feature rows in, event probabilities out.

    Bundles the fitted preprocessing with a trained model so downstream
    consumers (ALE, posterior sampling) can work in raw measurement space.
    """

    schema: tuple
    pipeline: FittedPipeline
    model: object

    def __call__(self, X) -> np.ndarray:
        """Probabilities of the rows of X; NaN marks a missing cell, and a
        cell that is no number or is infinite is a DataError naming its
        feature (see CohortTable)."""
        X = np.atleast_2d(float_cells(X, self.schema))
        table = CohortTable(self.schema, X, np.zeros(X.shape[0], dtype=int))
        return predict_proba(self.model, apply(self.pipeline, table))

    def transform(self, table: CohortTable) -> CohortTable:
        return apply(self.pipeline, table)


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run depends on. seed is mandatory."""

    seed: int
    out_dir: str = "run_artifacts"
    input_path: str | None = None      # None: generate a synthetic cohort
    schema_path: str | None = None     # None: bundled default schema
    synth_n: int = 1301
    synth_event_rate: float = 0.196
    train_fraction: float = 0.7
    max_missing_fraction: float = 0.20
    min_documented_patients: int = 100
    top_k: int = 17
    cv_folds: int = 5
    n_bootstrap: int = 2000
    ale_top: int = 3
    shap_background: int = 256
    shap_rows: int = 64
    ablation_resamples: int = 100
    posterior_chains: int = 30
    posterior_generations: int = 3000

    def __post_init__(self):
        # a JSON config can hold any type; reject the wrong one before any
        # comparison below or any model fit can trip over it
        check_fields(self, ConfigError)
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")
        minimum = dict.fromkeys(
            ("top_k", "n_bootstrap", "ale_top", "shap_background",
             "shap_rows", "ablation_resamples"), 1)
        # the limits of the layers beneath, checked before any model is fit:
        # k-fold CV, the coverage filter, the cohort generator and the
        # posterior sampler
        minimum.update(cv_folds=2, synth_n=10, posterior_chains=MIN_CHAINS,
                       posterior_generations=MIN_GENERATIONS,
                       min_documented_patients=0)
        for name, low in minimum.items():
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if not 0.0 <= self.max_missing_fraction <= 1.0:
            raise ConfigError("max_missing_fraction must be in [0, 1]")
        # a stratified split keeps at most n * train_fraction + 1 training
        # rows, so the coverage filter would drop every feature
        most = self.synth_n * self.train_fraction + 1
        if self.input_path is None and most < self.min_documented_patients:
            raise ConfigError(
                f"min_documented_patients={self.min_documented_patients} exceeds "
                f"the at most {int(most)} training rows of synth_n={self.synth_n} "
                f"at train_fraction={self.train_fraction}")
        # the synthetic cohort always has the bundled schema's features
        if self.schema_path is not None and self.input_path is None:
            raise ConfigError("schema_path needs an input_path: the synthetic "
                              "cohort has the bundled schema's features")


def run_config_from_jsonable(payload: dict) -> RunConfig:
    return from_mapping(RunConfig, payload, "config", ConfigError)


def load_run_config(path) -> RunConfig:
    config = run_config_from_jsonable(read_json(path, "config", ConfigError))
    for attr in ("input_path", "schema_path"):
        p = getattr(config, attr)
        if p is not None and not os.path.exists(p):
            raise ConfigError(f"{attr} does not exist: {p}")
    return config


def benchmark_grid() -> tuple:
    """Every spec of the benchmark's cross-validated search. Specs sharing a
    label form one of the six rows: three boosted-tree variants, each at
    depth 2 and 3, then logistic regression with three penalties, Gaussian
    naive Bayes and the MLP. Kept small enough that the full battery runs
    at desk scale.
    """
    gbdt = [ModelSpec("gbdt", {
        "depth": depth, "n_trees": 100, "learning_rate": 0.1, "l2_leaf": 1.0,
        "subsample": subsample, "ordered_mode": ordered,
    }, label=label)
        for label, ordered, subsample in (
            ("boosted_trees_ordered", True, 1.0),
            ("boosted_trees", False, 1.0),
            ("boosted_trees_subsampled", False, 0.8))
        for depth in (2, 3)]
    logreg = [ModelSpec("logreg", {"penalty": penalty, "C": C},
                        label="logistic_regression")
              for penalty, C in (("l2", 1.0), ("l2", 0.1), ("l1", 1.0))]
    return (*gbdt, *logreg,
            ModelSpec("gnb", {}, label="gaussian_nb"),
            ModelSpec("mlp", {"hidden": 16, "epochs": 120}, label="mlp"))


@dataclass(frozen=True)
class BenchmarkRow:
    """One benchmark row and its refit; the refit stays out of repr and ==."""

    label: str
    spec: ModelSpec
    grid_size: int
    cv_mean_auroc: float
    cv_sd_auroc: float
    threshold: float
    metrics_train: MetricReport
    metrics_test: MetricReport
    notes: tuple
    pipeline: FittedPipeline = field(repr=False, compare=False)
    test_table: CohortTable = field(repr=False, compare=False)  # transformed
    model: object = field(repr=False, compare=False)
    test_scores: np.ndarray = field(repr=False, compare=False)


@dataclass
class RunResult:
    """In-memory bundle of everything the report stage serializes."""

    config: RunConfig
    cohort: CohortTable             # full raw cohort
    train: CohortTable              # raw, selected features
    test: CohortTable
    filter_report: list
    ranking: object
    benchmark: list                 # BenchmarkRow with its refit, Table-5 order
    winner: str                     # label of the best row by CV AUROC
    shap_model_label: str
    roc: tuple                      # (fpr, tpr, thresholds) on test, winner
    ttest_split: list               # train vs test rows
    ttest_outcome: list             # survivor vs non-survivor rows
    ablation_report: AblationReport
    shap: ShapMatrix
    shap_row_ids: np.ndarray        # test row positions explained
    ale_curves: list                # AleCurve
    posterior: PosteriorRisk
    predictor: Predictor
    stage_seconds: dict


def _load_stage(config: RunConfig):
    if config.input_path is not None:
        schema = (default_schema() if config.schema_path is None
                  else load_schema(config.schema_path))
        cohort = load_cohort(config.input_path, schema)
        source = f"input_path {config.input_path}"
    else:
        cohort = synth_default_cohort(n=config.synth_n,
                                      event_rate=config.synth_event_rate,
                                      seed=derive_int(config.seed, "synth"))
        source = (f"synthetic cohort, synth_n={config.synth_n}, "
                  f"synth_event_rate={config.synth_event_rate}")
    try:
        split = stratified_split(cohort, config.train_fraction,
                                 derive_int(config.seed, "split"))
    except DataError as exc:
        raise DataError(f"{exc} ({source})") from exc
    return cohort, cohort.subset(split.train_rows), cohort.subset(split.test_rows)


def _select_stage(config: RunConfig, train: CohortTable, test: CohortTable):
    kept, filter_report = coverage_filter(
        train, config.max_missing_fraction, config.min_documented_patients)
    dropped = [s.name for s in train.schema if s.name not in kept]
    train = train.drop_features(dropped)
    test = test.drop_features(dropped)
    ranking = rank_features(train, top_k=config.top_k)
    excluded = [n for n in train.feature_names if n not in ranking.selected]
    train = train.drop_features(excluded)
    test = test.drop_features(excluded)
    return train, test, filter_report, ranking


def _model_stage(config: RunConfig, train: CohortTable, test: CohortTable):
    """Cross-validate all six rows on one fold plan, then refit each row's
    best spec on the full training table. One fan-out (see icurisk._fanout)
    runs the posterior's DREAM sampling, which needs only the training
    table's class moments, as item 0, so in the calling process, and then
    the refits in row order. Train and test are imputed once. The posterior
    draws come last in the result, or in their place the IcuRiskError that
    sampling raised, for the explain stage to raise where it uses them: a
    failed refit is still raised first.
    """
    declared = benchmark_grid()
    grid = tuple(downgrade_ordered(s, train.schema) for s in declared)
    search = cross_validate(train, grid, k=config.cv_folds,
                            seed=derive_int(config.seed, "cv"))
    members = {}
    for i, spec in enumerate(grid):
        members.setdefault(spec.label, []).append(i)
    # per row, its best spec by mean CV AUROC; ties go to the first
    best = [m[int(np.argmax(search.mean_auroc[m]))] for m in members.values()]
    specs = [grid[i] for i in best]
    # the caller keeps the pipelines: sent back from a worker, the two
    # variants would no longer share their imputed table
    prepared = fit_preprocessing(specs, train, test)

    def refit(row_i):
        pipe, test_t = prepared[row_i]
        model = train_model(specs[row_i], pipe.fitted_table, pipe.weights,
                            seed=derive_int(config.seed, "cv", row_i, 9999))
        test_scores = predict_proba(model, test_t)
        ci = bootstrap_auroc_ci(test_scores, test.y, B=config.n_bootstrap,
                                seed=derive_int(config.seed, "bootstrap", row_i))
        return model, test_scores, predict_proba(model, pipe.fitted_table), ci

    dream = DreamConfig(n_chains=config.posterior_chains,
                        n_generations=config.posterior_generations,
                        seed=derive_int(config.seed, "posterior"))

    def sample_posterior():
        try:
            return posterior_draws(summarize(train), dream)
        except IcuRiskError as exc:
            return exc

    draws, *refits = fan_out(lambda job: job(), [sample_posterior] + [
        partial(refit, row_i) for row_i in range(len(specs))])
    rows = []
    for row_i, ((label, m), i) in enumerate(zip(members.items(), best)):
        notes = () if grid[i] == declared[i] else (
            "ordered encoding disabled: no multi-level discrete features",)
        threshold = tune_threshold(search.oof[i], train.y)
        pipe, test_t = prepared[row_i]
        model, test_scores, train_scores, ci = refits[row_i]
        m_train = confusion_metrics(train_scores, train.y, threshold)
        m_test = confusion_metrics(test_scores, test.y, threshold).with_ci(*ci)
        rows.append(BenchmarkRow(
            label=label, spec=specs[row_i], grid_size=len(m),
            cv_mean_auroc=float(search.mean_auroc[i]),
            cv_sd_auroc=float(search.sd_auroc[i]),
            threshold=threshold, metrics_train=m_train, metrics_test=m_test,
            notes=notes, pipeline=pipe, test_table=test_t, model=model,
            test_scores=test_scores))
    return rows, draws


def _explain_stage(config: RunConfig, win: BenchmarkRow,
                   explained: BenchmarkRow, train, test, ranking, draws):
    predictor = Predictor(train.schema, win.pipeline, win.model)

    abl = ablation(win.spec, train, test, win.test_scores,
                   n_resamples=config.ablation_resamples,
                   seed=derive_int(config.seed, "ablation"))

    rng = derive_rng(config.seed, "shap")
    bg_rows = rng.permutation(train.n)[: config.shap_background]
    fg_rows = np.sort(rng.permutation(test.n)[: config.shap_rows])
    shap = shap_tree(explained.model, explained.test_table.subset(fg_rows),
                     explained.pipeline.fitted_table.subset(bg_rows))

    # ALE on raw measurement scale through the full predictor; the winner's
    # imputer fills other columns, the curve feature itself must be observed
    ranked = [n for n in ranking.selected if n in train.feature_names]
    curves = [ale(predictor, win.pipeline.imputed_table, name)
              for name in ranked[: config.ale_top]]

    if isinstance(draws, IcuRiskError):
        raise draws
    posterior = posterior_risk_inputs(predictor, draws)
    return abl, shap, fg_rows, curves, posterior, predictor


def run(config: RunConfig) -> RunResult:
    """Execute all stages and return the in-memory result bundle.

    File emission lives in report.write_artifacts; the CLI composes the two.
    """
    timings = {}

    def staged(name, fn, *args):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except IcuRiskError as exc:
            tagged = type(exc)(f"[stage:{name}] {exc}")
            tagged.stage = name
            raise tagged from exc
        except (Warning, FloatingPointError, np.linalg.LinAlgError) as exc:
            # a warning escapes only where a filter made it an error
            tagged = NumericError(f"[stage:{name}] {type(exc).__name__}: {exc}")
            tagged.stage = name
            raise tagged from exc
        timings[name] = time.perf_counter() - t0
        return out

    cohort, train_raw, test_raw = staged("dataset", _load_stage, config)
    train, test, filter_report, ranking = staged(
        "select", _select_stage, config, train_raw, test_raw)
    rows, draws = staged("models", _model_stage, config, train, test)
    win = max(rows, key=lambda r: r.cv_mean_auroc)
    # Shapley values need a tree row: the winner, else the first tree row
    explained = next(r for r in (win, *rows) if r.spec.family == "gbdt")

    def _eval():
        roc = roc_curve(win.test_scores, test.y)
        return roc, compare_cohorts(train, test), _outcome_ttest(cohort)

    roc, ttest_split, ttest_outcome = staged("eval", _eval)
    abl, shap, fg_rows, curves, posterior, predictor = staged(
        "explain", _explain_stage, config, win, explained, train, test,
        ranking, draws)

    return RunResult(
        config=config, cohort=cohort, train=train, test=test,
        filter_report=filter_report, ranking=ranking, benchmark=rows,
        winner=win.label, shap_model_label=explained.label, roc=roc,
        ttest_split=ttest_split, ttest_outcome=ttest_outcome,
        ablation_report=abl, shap=shap, shap_row_ids=fg_rows,
        ale_curves=curves, posterior=posterior, predictor=predictor,
        stage_seconds=timings)


def _outcome_ttest(cohort: CohortTable) -> list:
    survivors = cohort.subset(np.flatnonzero(cohort.y == 0))
    nonsurvivors = cohort.subset(np.flatnonzero(cohort.y == 1))
    return compare_cohorts(survivors, nonsurvivors)
