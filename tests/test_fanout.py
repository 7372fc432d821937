"""fan_out: the items of a loop spread over forked processes, with the serial
loop's results, first error and warnings."""

import os
import signal
import warnings
from dataclasses import replace

import numpy as np
import pytest

from icurisk import _fanout
from icurisk._fanout import fan_out
from icurisk.errors import DataError, WorkerError
from icurisk.explain.ablation import ablation
from icurisk.models import predict_proba
from icurisk.models.cv import (ModelSpec, costliest_first, cross_validate,
                               fit_and_score)
from icurisk.pipeline import _model_stage, run
from icurisk.report import write_artifacts
from icurisk.selftest import PROBE_CONFIG
from icurisk.synth import synth_default_cohort

from conftest import make_table


@pytest.fixture(autouse=True)
def _time_limit():
    """A test that waits on its workers for over a minute fails instead of
    hanging; the timer is not inherited by forked children."""
    def expire(*_):
        raise TimeoutError("fan_out test ran over 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(_fanout, "_cpu_count", lambda: n)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forked_and_serial(monkeypatch, compute, cpus=3):
    _cpus(monkeypatch, cpus)
    forked = compute()
    _cpus(monkeypatch, 1)
    return forked, compute()


# every model family, in no particular cost order
_GRID = (ModelSpec(family="gbdt", params={"n_trees": 5, "depth": 2}),
         ModelSpec(family="gnb"),
         ModelSpec(family="gbdt", params={"ordered_mode": True, "n_trees": 5,
                                          "depth": 3}),
         ModelSpec(family="logreg", params={"C": 1.0}),
         ModelSpec(family="mlp", params={"hidden": 4, "epochs": 5}))


def test_costliest_first_is_a_fixed_family_and_depth_order():
    assert costliest_first(_GRID) == [4, 2, 0, 3, 1]
    assert costliest_first(()) == []


@pytest.mark.parametrize("n", range(8))
def test_items_are_dealt_in_snake_order(n):
    assert _fanout._deal(n, 1) == [list(range(n))]
    two = [[0, 3, 4, 7], [1, 2, 5, 6]]
    assert _fanout._deal(n, 2) == [[i for i in s if i < n] for s in two]
    three = [[0, 5, 6], [1, 4, 7], [2, 3]]
    assert _fanout._deal(n, 3) == [[i for i in s if i < n] for s in three]


def test_cross_validate_forked_equals_serial(monkeypatch):
    table = make_table(90, seed=6, missing=0.1, informative=True)
    for cpus in (2, 3):
        forked, serial = _forked_and_serial(
            monkeypatch, lambda: cross_validate(table, _GRID, k=4, seed=2), cpus)
        assert np.array_equal(forked.fold_aurocs, serial.fold_aurocs)
        assert np.array_equal(forked.oof, serial.oof)
        _no_child_left()


_SMALL = replace(PROBE_CONFIG, synth_n=200, cv_folds=2, n_bootstrap=50,
                 posterior_generations=200)


def _model_stage_outputs(train, test):
    """Rows bit for bit (repr round-trips every float), winner labels, and
    each refit's test and training scores."""
    rows, fitted, winner, shap_label = _model_stage(_SMALL, train, test)
    return (repr(rows), winner, shap_label,
            [(label, scores, predict_proba(model, pipe.fitted_table))
             for label, (pipe, _, model, scores) in fitted.items()])


def test_model_stage_rows_and_refits_forked_equal_serial(monkeypatch):
    cohort = synth_default_cohort(n=200, seed=11)
    cohort = cohort.drop_features(cohort.feature_names[_SMALL.top_k:])
    train, test = cohort.subset(np.arange(140)), cohort.subset(np.arange(140, 200))
    _cpus(monkeypatch, 1)
    serial = _model_stage_outputs(train, test)
    for cpus in (2, 3):
        _cpus(monkeypatch, cpus)
        forked = _model_stage_outputs(train, test)
        assert forked[:3] == serial[:3]
        assert len(forked[3]) == len(serial[3]) == 6
        for (label, scores, train_scores), (label_1, scores_1, train_scores_1) in zip(
                forked[3], serial[3]):
            assert label == label_1
            assert np.array_equal(scores, scores_1)
            assert np.array_equal(train_scores, train_scores_1)
        _no_child_left()


def test_report_bytes_equal_at_one_two_and_three_cpus(monkeypatch, tmp_path):
    reports = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        write_artifacts(run(_SMALL), str(out))
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    _no_child_left()


def test_ablation_forked_equals_serial(monkeypatch):
    table = make_table(160, seed=55, missing=0.1, informative=True)
    train, test = table.subset(np.arange(110)), table.subset(np.arange(110, 160))
    spec = _GRID[0]
    [(*_, base)] = fit_and_score((spec,), train, test, (0,))
    forked, serial = _forked_and_serial(
        monkeypatch, lambda: ablation(spec, train, test, base, n_resamples=20, seed=4))
    assert forked.features == serial.features == train.feature_names
    for name in train.feature_names:
        assert forked.dropped_auroc[name] == serial.dropped_auroc[name]
        assert np.array_equal(forked.dropped_dist[name], serial.dropped_dist[name])


def test_results_come_back_in_item_order_from_every_process(monkeypatch):
    _cpus(monkeypatch, 3)
    out = fan_out(lambda i: (i * i, os.getpid()), range(7))
    assert [v for v, _ in out] == [i * i for i in range(7)]
    pids = [pid for _, pid in out]
    assert pids[0] == os.getpid()  # the caller runs its own share
    assert len(set(pids)) == 3 and pids[:3] == pids[5:2:-1]  # snake order
    assert fan_out(lambda i: i, []) == []
    _no_child_left()


def _fail_at(bad):
    def fn(i):
        if i in bad:
            raise DataError(f"item {i} failed")
        return i
    return fn


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_the_lowest_failing_item_is_raised(monkeypatch, cpus):
    # item 1 fails in the first child, item 3 in the caller (with 2 CPUs)
    _cpus(monkeypatch, cpus)
    with pytest.raises(DataError, match=r"^item 1 failed$"):
        fan_out(_fail_at({1, 3, 5}), range(6))
    _no_child_left()


def test_warnings_are_reissued_in_item_order(monkeypatch):
    _cpus(monkeypatch, 2)

    def fn(i):
        warnings.warn(f"item {i}", UserWarning)
        return i

    with pytest.warns(UserWarning) as caught:
        assert fan_out(fn, range(5)) == list(range(5))
    assert [str(w.message) for w in caught] == [f"item {i}" for i in range(5)]
    assert {w.filename for w in caught} == {__file__}


def test_warnings_before_a_failure_are_reissued_and_none_after(monkeypatch):
    _cpus(monkeypatch, 2)

    def fn(i):
        warnings.warn(f"item {i}", UserWarning)
        if i == 2:
            raise DataError("item 2 failed")
        return i

    with pytest.warns(UserWarning) as caught, pytest.raises(DataError):
        fan_out(fn, range(5))
    assert [str(w.message) for w in caught] == ["item 0", "item 1", "item 2"]


def test_a_nested_call_in_a_child_runs_serially(monkeypatch):
    _cpus(monkeypatch, 2)

    def outer(i):
        return os.getpid(), fan_out(lambda _: os.getpid(), range(4))

    out = fan_out(outer, range(2))
    assert out[0][0] == os.getpid() and out[1][0] != os.getpid()
    _, (child, nested) = out
    assert nested == [child] * 4
    _no_child_left()


def test_a_child_that_dies_is_reported_and_the_others_reaped(monkeypatch):
    _cpus(monkeypatch, 3)

    def fn(i):
        if i == 1:
            os._exit(7)
        return i

    with pytest.raises(ChildProcessError, match="code 7"):
        fan_out(fn, range(6))
    _no_child_left()


def test_a_killed_child_is_a_typed_error_naming_the_signal(monkeypatch):
    _cpus(monkeypatch, 2)

    def fn(i):
        if i == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    with pytest.raises(WorkerError, match=r"signal SIGKILL .*items: \[1, 2\]"):
        fan_out(fn, range(3))
    _no_child_left()
