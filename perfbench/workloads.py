"""The benchmark workloads and their operations.

Every workload has the same shape: set-up (fit a serving pipeline and
boosted-tree model), a report phase (``run`` + ``write_artifacts``) and a
serving phase (one closed-loop client sending one patient per request). What
differs is which phase carries the run:

- default_run: the quick-start report; the models stage dominates. Its
  requests only score the patient.
- score_patients: a long serving session where each request scores and
  explains one patient; its report is a small fixed-size run read from CSV.

The primary phase repeats until ``--seconds`` have passed (at least once);
the other phase is a fixed amount of work. Functions of the package are
looked up on the ``icurisk`` modules at call time, so a traced run sees its
wrappers. The correctness checks use the functions bound below, at import,
so they never count as traced work.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import icurisk
import icurisk.report
import refclock

_validate = icurisk.report.validate_report
_load_schema = icurisk.report.load_report_schema
_margin = icurisk.model_margin
_predict = icurisk.predict_proba

SERVE_N = 1301            # synthetic cohort the serving model is fit on
SERVE_BACKGROUND = 128    # Shapley background rows, as in the demo
MIN_REQUESTS = 1100       # p99 then has at least 10 samples beyond it
SIDE_COHORTS = 2          # CSV cohorts a side report phase runs once each
EFFICIENCY_TOL = 1e-9
PROB_TOL = 1e-9

# The acceptance floors of selftest criterion C10.
FLOOR_TREE_AUROC = 0.85
FLOOR_TREE_SENSITIVITY = 0.75
FLOOR_POSTERIOR_MEAN = 0.196


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str          # "report" or "serve": the phase --seconds applies to
    explain: bool         # requests also explain the patient with shap_tree
    floors: bool          # reports must meet the C10 acceptance floors
    csv_patients: int     # >0: the reports read CSV cohorts of this size

    def report_config(self, seed: int, csv_path):
        if self.csv_patients:
            # the small config of the selftest determinism probe
            return icurisk.RunConfig(
                seed=seed, input_path=csv_path, top_k=8, cv_folds=3,
                n_bootstrap=150, ablation_resamples=20, shap_background=32,
                shap_rows=8, ale_top=2, posterior_chains=16,
                posterior_generations=400)
        return icurisk.RunConfig(seed=seed)


WORKLOADS = {w.name: w for w in (
    Workload("default_run", primary="report", explain=False, floors=True,
             csv_patients=0),
    Workload("score_patients", primary="serve", explain=True, floors=False,
             csv_patients=400),
)}

# Per-layer metrics that must read non-zero in a traced run of a workload.
_REPORT_LAYERS = (
    "select.coverage_filter", "select.rank_features", "preprocess.impute",
    "preprocess.fit_pipeline", "preprocess.apply", "models.cross_validate",
    "models.train_gbdt", "models.train_logreg", "models.train_gnb",
    "models.train_mlp", "models.predict_proba", "metrics.auroc",
    "metrics.bootstrap_auroc_ci", "explain.ablation", "explain.shap_tree",
    "explain.ale", "explain.dream_sample", "explain.posterior_risk_inputs",
    "report.write_artifacts", "report.validate_report",
    "pipeline.stage.dataset", "pipeline.stage.select", "pipeline.stage.models",
    "pipeline.stage.eval", "pipeline.stage.explain",
)
_REPORT_COUNTERS = ("preprocess.impute_rows", "preprocess.impute_repeat_ratio",
                    "explain.shap_tree_rows", "explain.dream_generations",
                    "explain.dream_accept_ratio")


def exercised(workload: Workload) -> list:
    """Names of the per-layer metrics a traced run of the workload must move."""
    source = "cohort.load_cohort" if workload.csv_patients else "synth.synth_default_cohort"
    names = [f"{s}{suffix}" for s in _REPORT_LAYERS + (source,)
             for suffix in ("_s", "_self_s", "_calls")]
    return names + list(_REPORT_COUNTERS)


# ---------------------------------------------------------------------------
# inputs and set-up

@dataclass
class Inputs:
    train: object         # CohortTable, raw
    test: object
    csv_paths: list       # the report's CSV cohorts; [None]: synthesize in run()


def make_inputs(workload: Workload, seed: int, scratch: str) -> Inputs:
    """Everything the program receives, generated from the workload seed.
    A CSV workload gets ``SIDE_COHORTS`` cohorts, so that one run's reports
    average over several inputs rather than repeat one."""
    cohort = icurisk.synth_default_cohort(n=SERVE_N, seed=seed)
    split = icurisk.stratified_split(cohort, 0.7, seed)
    csv_paths = [None]
    if workload.csv_patients:
        csv_paths = []
        for j in range(SIDE_COHORTS):
            path = os.path.join(scratch, f"cohort{j}.csv")
            icurisk.save_cohort(icurisk.synth_default_cohort(
                n=workload.csv_patients, seed=seed + 100_000 * j), path)
            csv_paths.append(path)
    return Inputs(cohort.subset(split.train_rows), cohort.subset(split.test_rows),
                  csv_paths)


@dataclass
class Server:
    predictor: object
    model: object
    background: object    # transformed background rows


def fit_server(train, seed: int) -> Server:
    """The program-side preparation of the serving path: pipeline plus a
    boosted-tree model with the compact grid's depth-3, 100-tree setting."""
    pipe = icurisk.fit_pipeline(train, icurisk.PipelineConfig())
    model = icurisk.train_gbdt(icurisk.apply(pipe, train),
                               icurisk.GbdtParams(depth=3, n_trees=100),
                               icurisk.class_weights(train.y), seed=seed)
    rows = np.random.default_rng(seed).permutation(train.n)[:SERVE_BACKGROUND]
    background = icurisk.apply(pipe, train.subset(np.sort(rows)))
    predictor = icurisk.pipeline.Predictor(schema=train.schema, pipeline=pipe,
                                           model=model)
    return Server(predictor, model, background)


# ---------------------------------------------------------------------------
# operations

@dataclass
class Outcome:
    seconds: list
    failures: list        # one message per failed operation
    attempted: int
    extra: dict


def report_phase(workload, seed, inputs, scratch, seconds, op=None,
                 clock=None, min_reports=1) -> Outcome:
    """Run the report on each input in turn until `seconds` have passed and
    `min_reports` were made. With a reference clock, `seconds` of the
    outcome are at reference speed and `extra["wall_s"]` holds the wall
    times; `extra["inputs"]` gives each report's input index and
    `extra["digests"]` each input's ``report.json`` sha256."""
    times, walls, failures, used, aurocs = [], [], [], [], []
    digests = {}
    start = time.perf_counter()
    while len(times) < min_reports or time.perf_counter() - start < seconds:
        j = len(times) % len(inputs.csv_paths)
        config = workload.report_config(seed, inputs.csv_paths[j])
        used.append(j)
        out_dir = os.path.join(scratch, f"report{len(times)}")
        with op("report") if op else nullcontext():
            with clock.measure() if clock else _Wall() as iv:
                try:
                    result = icurisk.run(config)
                    manifest = icurisk.report.write_artifacts(result, out_dir)
                except Exception as exc:  # a raising run is a failed operation
                    result = None
                    failures.append(f"report raised {type(exc).__name__}: {exc}")
        times.append(iv.seconds)
        walls.append(iv.wall_s)
        if result is None:
            continue
        problems, digest = _check_report(workload, result, manifest, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        aurocs.append(next(r for r in result.benchmark
                           if r.label == result.winner).metrics_test.auroc)
        if digests.setdefault(j, digest) != digest:
            problems.append("report.json digest differs between repetitions")
        if problems:
            failures.append("; ".join(problems))
    return Outcome(times, failures, len(times),
                   {"digests": digests, "inputs": used,
                    "winner_test_auroc": aurocs, "wall_s": walls})


class _Wall:
    """Wall time of the body, for runs without a reference clock."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = self.seconds = time.perf_counter() - self.t0
        return False


def _check_report(workload, result, manifest, out_dir):
    problems = []
    with open(os.path.join(out_dir, "report.json"), "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    if digest != manifest.checksum_of("report.json"):
        problems.append("report.json does not match its manifest checksum")
    try:
        _validate(json.loads(data), _load_schema())
    except (icurisk.DataError, ValueError) as exc:
        problems.append(f"report fails schema validation: {exc}")
    if workload.floors:
        tree = max((r for r in result.benchmark if r.spec.family == "gbdt"),
                   key=lambda r: r.cv_mean_auroc)
        if tree.metrics_test.auroc < FLOOR_TREE_AUROC:
            problems.append(f"boosted-tree test AUROC {tree.metrics_test.auroc:.4f} "
                            f"< {FLOOR_TREE_AUROC}")
        if tree.metrics_test.sensitivity < FLOOR_TREE_SENSITIVITY:
            problems.append(f"sensitivity {tree.metrics_test.sensitivity:.4f} "
                            f"< {FLOOR_TREE_SENSITIVITY}")
        if not result.posterior.mean > FLOOR_POSTERIOR_MEAN:
            problems.append(f"posterior mean {result.posterior.mean:.4f} "
                            f"<= {FLOOR_POSTERIOR_MEAN}")
    return problems, digest


def expected_replies(server, test):
    """Batch probabilities and margins of the held-out patients, which
    every single-patient reply must reproduce."""
    test_t = server.predictor.transform(test)
    return _predict(server.model, test_t), _margin(server.model, test_t)


def serve_phase(workload, server, inputs, expected, seconds, min_requests,
                op=None, clock=None) -> Outcome:
    """One closed-loop client: send held-out patients one at a time, in
    passes, until `seconds` have passed and `min_requests` were answered.
    With a reference clock the request kernel is timed before each request
    and after the last, outside their timing, and `seconds` of the outcome
    are latencies at reference speed. Replies are checked after the loop, against `expected_replies`."""
    test = inputs.test
    rows = [test.subset([i]) for i in range(test.n)]
    latencies, sent, replies = [], [], []
    ref_s = 0.0
    start = time.perf_counter()
    while len(latencies) < min_requests or time.perf_counter() - start < seconds:
        if clock:
            ref_s += clock.sample(refclock.REQUEST_KERNELS)
        i = len(latencies) % test.n
        row = rows[i]
        with op("request") if op else nullcontext():
            t0 = time.perf_counter()
            prob = server.predictor(row.X)
            shap = None
            if workload.explain:
                shap = icurisk.shap_tree(server.model, server.predictor.transform(row),
                                         server.background)
            latencies.append(time.perf_counter() - t0)
        sent.append(t0)
        replies.append((i, prob, shap))
    if clock:
        ref_s += clock.sample(refclock.REQUEST_KERNELS)
    wall = time.perf_counter() - start - ref_s
    speed = clock.speeds_at(sent) if clock else np.ones(len(sent))

    batch_prob, margins = expected
    failures = []
    for i, prob, shap in replies:
        p = float(np.asarray(prob).ravel()[0])
        if not 0.0 < p < 1.0:
            failures.append(f"patient {i}: probability {p} outside (0, 1)")
        elif abs(p - batch_prob[i]) > PROB_TOL:
            failures.append(f"patient {i}: probability {p} != batch {batch_prob[i]}")
        elif shap is not None:
            gap = abs(shap.base_value + shap.values[0].sum() - margins[i])
            if gap > EFFICIENCY_TOL:
                failures.append(f"patient {i}: efficiency gap {gap:.3e}")
    missing = float(np.isnan(test.X).any(axis=1).mean())
    return Outcome(list(np.asarray(latencies) * speed), failures, len(latencies),
                   {"wall_s": wall, "serve_s": wall * float(speed.mean()),
                    "latency_wall_s": latencies,
                    "patients": test.n, "missing_share": missing})
