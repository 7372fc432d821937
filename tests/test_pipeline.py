"""End-to-end orchestration on a scaled-down configuration."""

import hashlib
import json
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from icurisk import pipeline, preprocess
from icurisk.cohort import save_cohort
from icurisk.errors import ConfigError, DataError
from icurisk.metrics import auroc, roc_curve
from icurisk.models import cv, predict_proba
from icurisk.models.cv import ModelSpec
from icurisk.pipeline import (RunConfig, load_run_config, run,
                              run_config_from_jsonable)
from icurisk.report import (load_report_schema, validate_report,
                            write_artifacts)
from icurisk.schema import FeatureSpec, save_schema
from icurisk.selftest import PROBE_CONFIG, full_run
from icurisk.synth import synth_default_cohort

from conftest import make_table, small_schema, wrap_everywhere

_ROWS = ("boosted_trees_ordered", "boosted_trees", "boosted_trees_subsampled",
         "logistic_regression", "gaussian_nb", "mlp")

# sha256 of report.json for PROBE_CONFIG. A change that moves a reported
# number on purpose updates this and says why in CHANGES.md.
_PROBE_REPORT_SHA256 = (
    "443c0495dd3f6d9eb2d88e7df8f37472b84dbed468b98bf16064997094af637b")
# sha256 of report.json for RunConfig(seed=7), the default quick-start run.
_SEED7_REPORT_SHA256 = (
    "4166ff3b0ab172fc6a656836e5c3a5ffee71193abb6415955582f73f44b3ed82")

# sha256 of every other artifact PROBE_CONFIG writes. The projection
# writers must reproduce these bytes from the report alone.
_PROBE_ARTIFACT_SHA256 = {
    "ablation.csv":
        "73ae98d19cb606578fc6c2c32ff920e9339ba445214066a228506b06ae12f804",
    "ablation.svg":
        "7946bbd88dedbd98b59fb4dcc9eefb7a5183ac0620c600f3cc26e9931620187f",
    "ale_bun.csv":
        "e7d460ed3475ece1496b5488ef885cb2f09468da9b49dfcf18f5a659be0aa585",
    "ale_bun.svg":
        "01a9e23236ca788b94d02f1bd20c2e94e34df8326bde3d29d634571ef3fe49fa",
    "ale_total_bilirubin.csv":
        "3625c44710fab4cf342f19448fe2d313e31d17b7442eabc77fa80a0e74becafb",
    "ale_total_bilirubin.svg":
        "e7f8c509ce8ae7355f1b16bf8f6d48cca0076539db99759ffaf47582c866eacf",
    "cohort_ttest.csv":
        "b86dc6b03d4e645ad7cebeacf122b760f5a34e19f6a3339e8dd6bbe53fc0fa63",
    "metrics_test.csv":
        "1c7867b72c70dde4c1f3149cc7f4608106d9670285483c87afed550269b206a2",
    "metrics_train.csv":
        "ac78eb12f875c2b648dd3d4e6f20e473430418dd720df76794abbc3804ae1132",
    "posterior.csv":
        "70729f78ae66bec603e7d98ab7ab0bbf5dbec5eb34136d98c767ccab3254b585",
    "posterior.svg":
        "c01cc522ab3fdd53ded3ce678d7552feabc7173a6a108677a159901798af794f",
    "roc_test.csv":
        "86d91f6fee2d302f56a1724648d990d83e39b262c9395ffeb4177fbceefb8d61",
    "roc_test.svg":
        "22296f15938069a613fa047c7f793f070e3e605328928671d8f399f0e78f29ca",
    "selection.csv":
        "03927ccd9eb459839f3b75770ab991bd54ddea59dff52e472ecd95817d54f40e",
    "shap_summary.csv":
        "a07c593f1e48ba303ca6a96e7e85a75b88e1b11d77a411574cc761a33ff2c671",
    "shap_summary.svg":
        "6511e6f86a98780758950311aa1b92f68e1cefb025ca43799595d4a111d26c68",
}


def _small_config(**over):
    return replace(PROBE_CONFIG, **over)


def _impute_key(imputer, table) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in (imputer.reference, imputer.loc, imputer.scale, table.X):
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


@pytest.fixture(scope="module")
def probe_run():
    """PROBE_CONFIG run with impute and cross_validate wrapped at every
    import site; returns the result, a content key per impute call (fitted
    imputer, table) and the result of every cross_validate call. Any
    RuntimeWarning (a NaN or overflow on the way) fails the run."""
    impute, cross_validate = preprocess.impute, cv.cross_validate
    keys, searches = [], []

    def counted(imputer, table):
        keys.append(_impute_key(imputer, table))
        return impute(imputer, table)

    def recorded(*args, **kwargs):
        searches.append(cross_validate(*args, **kwargs))
        return searches[-1]

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        wrap_everywhere(mp, impute, counted)
        wrap_everywhere(mp, cross_validate, recorded)
        result = run(PROBE_CONFIG)
    return result, keys, searches


@pytest.fixture(scope="module")
def small_run(probe_run):
    return probe_run[0]


def test_probe_report_digest(small_run, tmp_path):
    write_artifacts(small_run, out_dir=str(tmp_path))
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == _PROBE_REPORT_SHA256


def test_probe_artifact_digests(small_run, tmp_path):
    manifest = write_artifacts(small_run, out_dir=str(tmp_path))
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir() if p.name != "manifest.json"}
    assert written == {**_PROBE_ARTIFACT_SHA256,
                       "report.json": _PROBE_REPORT_SHA256}
    assert {name: digest for name, digest, _ in manifest.artifacts} == written


def test_seed7_report_digest():
    # the selftest's cached full-size run (criterion C10), so no extra fit
    _, manifest, _ = full_run()
    assert manifest.checksum_of("report.json") == _SEED7_REPORT_SHA256


def test_fitted_tables_are_not_reimputed(probe_run):
    # each table is imputed once and shared by the encoded and the raw
    # variant, and the ablation scores the winner the models stage already
    # fitted instead of refitting it on the full training table
    _, keys, _ = probe_run
    assert len(keys) - len(set(keys)) == 0


def test_all_rows_are_scored_on_one_fold_plan(probe_run):
    result, _, searches = probe_run
    [search] = searches
    assert search.plan.k == PROBE_CONFIG.cv_folds
    assert len(search.configs) == sum(r.grid_size for r in result.benchmark)
    stop = 0
    for row in result.benchmark:
        start, stop = stop, stop + row.grid_size
        best = start + int(np.argmax(search.mean_auroc[start:stop]))
        assert {s.label for s in search.configs[start:stop]} == {row.label}
        assert search.configs[best] == row.spec
        assert row.cv_mean_auroc == search.mean_auroc[best]
        assert row.cv_sd_auroc == search.sd_auroc[best]


def test_a_row_tie_goes_to_its_first_spec(monkeypatch):
    # two equal Gaussian NB specs under one label score the same on every
    # fold; the row must keep the first of them
    first, second = (ModelSpec("gnb", label="nb"), ModelSpec("gnb", label="nb"))
    grid = (first, second, ModelSpec("logreg", {"C": 1.0}, label="lr"))
    monkeypatch.setattr(pipeline, "benchmark_grid", lambda: grid)
    table = make_table(120, seed=7, informative=True)
    train, test = table.subset(np.arange(80)), table.subset(np.arange(80, 120))
    config = _small_config(cv_folds=3, n_bootstrap=20)
    rows, _ = pipeline._model_stage(config, train, test)
    assert [(r.label, r.grid_size) for r in rows] == [("nb", 2), ("lr", 1)]
    assert rows[0].spec is first


def test_benchmark_has_six_labeled_rows(small_run):
    labels = tuple(r.label for r in small_run.benchmark)
    assert labels == _ROWS
    for row in small_run.benchmark:
        assert row.grid_size >= 1
        assert 0.0 <= row.cv_mean_auroc <= 1.0
        assert np.isfinite(row.threshold)
        assert np.isfinite(row.metrics_test.auroc)


def test_winner_is_the_cv_argmax(small_run):
    best = max(small_run.benchmark, key=lambda r: r.cv_mean_auroc)
    assert small_run.winner == best.label
    tree_labels = {r.label for r in small_run.benchmark
                   if r.spec.family == "gbdt"}
    if small_run.winner in tree_labels:
        assert small_run.shap_model_label == small_run.winner
    else:
        assert small_run.shap_model_label in tree_labels


def test_every_row_keeps_its_refit(small_run):
    # each row's model scores its own transformed test table, and the run's
    # ROC and predictor are the winner row's
    for row in small_run.benchmark:
        assert np.array_equal(predict_proba(row.model, row.test_table),
                              row.test_scores)
        assert auroc(row.test_scores, small_run.test.y) == row.metrics_test.auroc
        assert "array" not in repr(row)
    [win] = [r for r in small_run.benchmark if r.label == small_run.winner]
    for got, expected in zip(small_run.roc,
                             roc_curve(win.test_scores, small_run.test.y)):
        assert np.array_equal(got, expected)
    assert small_run.predictor.model is win.model


def test_stage_timings_cover_the_run(small_run):
    assert set(small_run.stage_seconds) == {
        "dataset", "select", "models", "eval", "explain"}
    assert all(v >= 0 for v in small_run.stage_seconds.values())


def test_selection_respects_top_k(small_run):
    assert small_run.train.d == 8
    # columns keep schema order but the selected set is the MI top slice
    assert set(small_run.train.feature_names) == set(small_run.ranking.selected)
    schema_order = list(small_run.cohort.feature_names)
    positions = [schema_order.index(n) for n in small_run.train.feature_names]
    assert positions == sorted(positions)
    assert small_run.test.feature_names == small_run.train.feature_names


def test_predictor_round_trip(small_run):
    p = small_run.predictor
    probs = p(small_run.test.X[:5])
    assert probs.shape == (5,)
    assert np.all((probs >= 0) & (probs <= 1))
    one = p(small_run.test.X[0])
    assert one.shape == (1,)
    assert one[0] == probs[0]


def test_explanations_are_present(small_run):
    assert small_run.shap.values.shape == (8, 8)
    assert len(small_run.ale_curves) == 2
    assert small_run.ablation_report.n_resamples == 20
    assert small_run.posterior.samples.size > 0
    assert 0.0 <= small_run.posterior.mean <= 1.0
    fpr, tpr, _ = small_run.roc
    assert fpr[0] == 0.0 and fpr[-1] == 1.0
    assert tpr[0] == 0.0 and tpr[-1] == 1.0


def test_ttest_tables_cover_features(small_run):
    split_feats = [r["feature"] for r in small_run.ttest_split]
    assert split_feats == list(small_run.train.feature_names)
    outcome_feats = [r["feature"] for r in small_run.ttest_outcome]
    assert outcome_feats == list(small_run.cohort.feature_names)


def test_run_config_round_trip_and_validation():
    cfg = _small_config()
    payload = asdict(cfg)
    assert run_config_from_jsonable(payload) == cfg
    with pytest.raises(ConfigError, match="unknown config keys"):
        run_config_from_jsonable({**payload, "bogus": 1})
    with pytest.raises(ConfigError, match="seed"):
        run_config_from_jsonable({"synth_n": 100})
    with pytest.raises(ConfigError):
        RunConfig(seed=0, train_fraction=1.5)
    with pytest.raises(ConfigError):
        RunConfig(seed=0, synth_n=0)
    with pytest.raises(ConfigError):
        RunConfig(seed=0, cv_folds=0)
    with pytest.raises(ConfigError):
        RunConfig(seed=-1)
    for key, value in (("posterior_chains", 2), ("posterior_generations", 1),
                       ("cv_folds", 1), ("synth_n", 5),
                       ("max_missing_fraction", -0.1),
                       ("max_missing_fraction", 1.5),
                       ("min_documented_patients", -1)):
        with pytest.raises(ConfigError, match=key):
            RunConfig(seed=0, **{key: value})
    # mistyped values, as a JSON config can carry them
    for key, value in (("top_k", "5"), ("cv_folds", 2.5),
                       ("n_bootstrap", 20.0), ("seed", True),
                       ("train_fraction", False),
                       ("train_fraction", float("nan")), ("input_path", 3)):
        with pytest.raises(ConfigError, match=key):
            run_config_from_jsonable({**payload, key: value})
    assert RunConfig(seed=0, max_missing_fraction=1,
                     schema_path=None).max_missing_fraction == 1


def test_load_run_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read config"):
        load_run_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_run_config(bad)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1, "input_path": "/no/such.csv"}))
    with pytest.raises(ConfigError, match="input_path"):
        load_run_config(cfg)


def test_dataset_stage_tags_errors(tmp_path):
    csv = tmp_path / "cohort.csv"
    csv.write_text("age,label\nnot_a_number,0\n")
    schema_path = tmp_path / "schema.json"
    save_schema((FeatureSpec(name="age", kind="continuous"),), schema_path)
    cfg = _small_config(input_path=str(csv), schema_path=str(schema_path))
    with pytest.raises(DataError, match=r"\[stage:dataset\]"):
        run(cfg)


def test_train_fraction_that_empties_a_class_fails_at_the_split():
    # 0.97 of the ~12 positives rounds to all of them, leaving the test set
    # without a positive; this must stop before any model is fit
    cfg = _small_config(synth_n=60, top_k=4, min_documented_patients=10,
                        train_fraction=0.97)
    with pytest.raises(DataError, match=r"\[stage:dataset\] train_fraction"):
        run(cfg)


def test_coverage_filter_that_drops_everything_names_its_keys(tmp_path):
    # the 42 training rows of a 60-row CSV never reach 100 documented patients
    csv = tmp_path / "cohort.csv"
    save_cohort(synth_default_cohort(n=60, seed=1), csv)
    with pytest.raises(DataError, match=r"\[stage:select\] coverage") as info:
        run(RunConfig(seed=1, input_path=str(csv)))
    assert info.value.stage == "select"
    msg = str(info.value)
    assert "max_missing_fraction=0.2" in msg
    assert "min_documented_patients=100" in msg and "42 rows" in msg


def test_synthetic_cohort_too_small_to_document_a_feature_is_a_config_error():
    # 60 x 0.7 + 1 = 43 training rows at most, short of 100 documented
    # patients; the config is refused before the cohort is generated
    with pytest.raises(ConfigError) as info:
        run(RunConfig(seed=1, synth_n=60))
    msg = str(info.value)
    assert "[stage:" not in msg
    assert all(key in msg for key in ("min_documented_patients=100",
                                      "synth_n=60", "train_fraction=0.7"))
    # the same bound is fine once the cohort can reach it, or with a CSV
    RunConfig(seed=1, synth_n=60, min_documented_patients=43)
    RunConfig(seed=1, synth_n=60, input_path="cohort.csv")
    with pytest.raises(ConfigError, match="min_documented_patients=44"):
        RunConfig(seed=1, synth_n=60, min_documented_patients=44)


def test_ordered_row_downgrades_without_discrete_features(tmp_path):
    # a cohort of purely continuous and binary features leaves the ordered
    # encoder nothing to target-encode; the row must say so and still run
    schema = tuple(s for s in small_schema() if s.kind != "ordinal_score")
    table = make_table(260, seed=2, missing=0.0, schema=schema,
                       informative=True)
    csv, sp = tmp_path / "c.csv", tmp_path / "s.json"
    save_cohort(table, csv)
    save_schema(schema, sp)
    cfg = _small_config(input_path=str(csv), schema_path=str(sp), top_k=3,
                        shap_background=16, shap_rows=4, ale_top=1)
    result = run(cfg)
    ordered = next(r for r in result.benchmark
                   if r.label == "boosted_trees_ordered")
    assert any("ordered encoding disabled" in n for n in ordered.notes)
    assert not ordered.spec.params.get("ordered_mode", False)


def test_ablation_of_an_ordered_winner_writes_a_valid_report(tmp_path):
    # the ordered-boosting row wins here, and ablating its last multi-level
    # discrete feature must downgrade the refit rather than stop the run
    cfg = RunConfig(seed=10, synth_n=300, top_k=6, cv_folds=3, n_bootstrap=100,
                    ablation_resamples=10, shap_background=16, shap_rows=4,
                    ale_top=1, posterior_chains=8, posterior_generations=200,
                    out_dir=str(tmp_path))
    with pytest.warns(UserWarning, match="8 chains for 6 dimensions"):
        result = run(cfg)
    write_artifacts(result)
    report = json.loads((tmp_path / "report.json").read_text())
    validate_report(report, load_report_schema())
    assert result.winner == "boosted_trees_ordered"
    assert report["ablation"]
    # the ablation baseline is the benchmark's fitted winner, not a refit
    # that draws another model seed
    [win] = [r for r in report["benchmark"] if r["label"] == result.winner]
    assert report["ablation"]["baseline_auroc"] == win["test"]["auroc"]

