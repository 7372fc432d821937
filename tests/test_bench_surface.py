"""The package surface the benchmark (perfbench/) binds to.

The tracer wraps icurisk functions by module and attribute name and hashes
fields of the fitted imputer, so renaming either here breaks only the
benchmark's traced run unless these tests catch it first. It counts only
the calling process, so a layer that runs only in forked workers reads
zero there too. The serving workload calls the fitted Predictor and
shap_tree once per request; a short serving session checks that path, and
one request that it still goes through the traced apply and predict_proba.
The report phase reads the winner's row off each RunResult; one report
checks that a correct run is not counted as a failed operation.
"""

import collections
import importlib
import pathlib

import pytest

from icurisk import _fanout, report
from icurisk.cohort import save_cohort
from icurisk.models import predict_proba
from icurisk.pipeline import run
from icurisk.preprocess import apply, fit_imputer
from icurisk.synth import synth_default_cohort

from conftest import make_table, wrap_everywhere

_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    return importlib.import_module("tracer")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    return importlib.import_module("workloads")


def test_every_traced_layer_resolves_and_has_an_import_site(tracer):
    for name, module, attr in tracer.LAYERS:
        original = getattr(importlib.import_module(module), attr)
        assert callable(original), name
        assert list(tracer._sites(original)), f"{name}: no icurisk import site"


def test_tracer_hashes_a_fitted_imputer(tracer):
    imputer = fit_imputer(make_table(40, seed=3, missing=0.1))
    key = tracer.Tracer()._imputer_key(imputer)
    assert isinstance(key, bytes) and len(key) == 16


def test_the_caller_runs_every_traced_report_layer(tracer, monkeypatch, tmp_path):
    workloads = importlib.import_module("workloads")
    calls = collections.Counter()  # calls made in this process only
    for name, module, attr in tracer.LAYERS:
        original = getattr(importlib.import_module(module), attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        wrap_everywhere(monkeypatch, original, counted)
    monkeypatch.setattr(_fanout, "_cpu_count", lambda: 2)
    csv_path = tmp_path / "cohort.csv"
    save_cohort(synth_default_cohort(n=400, seed=3), csv_path)
    config = workloads.WORKLOADS["score_patients"].report_config(3, str(csv_path))
    # looked up at call time, as the benchmark does, so the wrapper counts it
    report.write_artifacts(run(config), str(tmp_path / "report"))
    # the eval stage's span is derived from the stages around it
    layers = set(workloads._REPORT_LAYERS) - {tracer.EVAL_STAGE}
    assert sorted(n for n in layers | {"cohort.load_cohort"} if not calls[n]) == []


def test_a_short_serving_session_answers_every_request(workloads, tmp_path):
    workload = workloads.WORKLOADS["score_patients"]
    inputs = workloads.make_inputs(workload, 3, str(tmp_path))
    server = workloads.fit_server(inputs.train, 3)
    expected = workloads.expected_replies(server, inputs.test)
    outcome = workloads.serve_phase(workload, server, inputs, expected,
                                    seconds=0, min_requests=20)
    assert outcome.attempted == 20
    assert outcome.failures == []


def test_a_served_request_is_traced_through_apply_and_predict_proba(
        workloads, monkeypatch, tmp_path):
    # the tracer counts these two layers at their import sites; a request
    # that reached its rows another way would read zero calls there, and
    # its traced counts would not compare with an earlier run's
    workload = workloads.WORKLOADS["score_patients"]
    inputs = workloads.make_inputs(workload, 3, str(tmp_path))
    server = workloads.fit_server(inputs.train, 3)
    expected = workloads.expected_replies(server, inputs.test)
    calls = collections.Counter()
    for name, original in (("apply", apply), ("predict_proba", predict_proba)):
        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        wrap_everywhere(monkeypatch, original, counted)
    outcome = workloads.serve_phase(workload, server, inputs, expected,
                                    seconds=0, min_requests=1)
    assert outcome.attempted == 1 and outcome.failures == []
    # the Predictor's call and its transform apply; the call scores
    assert calls == {"apply": 2, "predict_proba": 1}


def test_one_report_phase_is_correct(workloads, tmp_path):
    workload = workloads.WORKLOADS["score_patients"]
    inputs = workloads.make_inputs(workload, 3, str(tmp_path))
    outcome = workloads.report_phase(workload, 3, inputs, str(tmp_path), seconds=0)
    assert outcome.failures == []
    assert len(outcome.extra["winner_test_auroc"]) == 1
