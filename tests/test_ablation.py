"""Leave-one-feature-out refits scored by paired bootstrap AUROC against
the baseline model's own test scores."""

import numpy as np
import pytest

from icurisk import preprocess
from icurisk.errors import ConfigError, DataError
from icurisk.explain.ablation import ablation
from icurisk.metrics import auroc
from icurisk.models.cv import ModelSpec, fit_and_score

from conftest import make_table, wrap_everywhere


def _split(table, n_train):
    idx = np.arange(table.n)
    return table.subset(idx[:n_train]), table.subset(idx[n_train:])


def _base_scores(spec, train, test):
    """Test scores of spec fitted on the full training table."""
    [(*_, scores)] = fit_and_score((spec,), train, test, (0,))
    return scores


def test_report_structure_and_determinism():
    train, test = _split(make_table(220, seed=51, informative=True), 150)
    spec = ModelSpec(family="logreg", params={"C": 1.0})
    base = _base_scores(spec, train, test)
    rep = ablation(spec, train, test, base, n_resamples=25, seed=3)
    assert rep.baseline_auroc == auroc(base, test.y)
    assert rep.features == tuple(train.feature_names)
    assert rep.baseline_dist.shape == (25,)
    assert set(rep.dropped_dist) == set(rep.features)
    for name in rep.features:
        assert rep.dropped_dist[name].shape == (25,)
        assert 0.0 <= rep.dropped_auroc[name] <= 1.0
    assert 0.0 <= rep.baseline_auroc <= 1.0
    again = ablation(spec, train, test, base, n_resamples=25, seed=3)
    assert np.array_equal(rep.baseline_dist, again.baseline_dist)
    for name in rep.features:
        assert np.array_equal(rep.dropped_dist[name], again.dropped_dist[name])


def test_informative_feature_costs_auroc():
    # conftest couples the label to age only, so removing age must hurt
    train, test = _split(make_table(400, seed=53, informative=True), 280)
    spec = ModelSpec(family="gnb")
    rep = ablation(spec, train, test, _base_scores(spec, train, test),
                   n_resamples=40, seed=1)
    assert rep.mean_drop("age") > 0.05
    others = [rep.mean_drop(n) for n in rep.features if n != "age"]
    assert rep.mean_drop("age") > max(others)


def test_ablation_input_validation():
    train, test = _split(make_table(120, seed=55, informative=True), 80)
    spec = ModelSpec(family="gnb")
    base = _base_scores(spec, train, test)
    with pytest.raises(ConfigError):
        ablation(spec, train, test, base, n_resamples=0)
    with pytest.raises(DataError):
        ablation(spec, train, test.drop_features(["vent"]), base, n_resamples=5)


def test_base_scores_must_cover_every_test_row():
    train, test = _split(make_table(120, seed=55, informative=True), 80)
    spec = ModelSpec(family="gnb")
    base = _base_scores(spec, train, test)
    for bad in (base[:-1], np.r_[base, 0.5], base[None, :]):
        with pytest.raises(DataError, match="base_scores"):
            ablation(spec, train, test, bad, n_resamples=5)


def test_ordered_boosting_survives_dropping_its_last_discrete_feature():
    # gcs is the only multi-level discrete feature; without it ordered
    # boosting has nothing to order and must refit as plain boosting
    train, test = _split(make_table(160, seed=57, informative=True), 110)
    spec = ModelSpec("gbdt", {"depth": 2, "n_trees": 10, "ordered_mode": True})
    rep = ablation(spec, train, test, _base_scores(spec, train, test),
                   n_resamples=5, seed=0)
    assert rep.features == train.feature_names
    assert 0.0 <= rep.dropped_auroc["gcs"] <= 1.0


def test_only_the_dropped_feature_variants_are_refit(monkeypatch, tmp_path):
    train, test = _split(make_table(120, seed=55, informative=True), 80)
    spec = ModelSpec(family="gnb")
    base = _base_scores(spec, train, test)
    # logged to a file, so that refits in worker processes count too
    fit_pipeline, log = preprocess.fit_pipeline, tmp_path / "fits"

    def counted(table, *args, **kwargs):
        with open(log, "a") as f:
            f.write("\t".join(table.feature_names) + "\n")
        return fit_pipeline(table, *args, **kwargs)

    wrap_everywhere(monkeypatch, fit_pipeline, counted)
    rep = ablation(spec, train, test, base, n_resamples=5)
    fits = [line.split("\t") for line in log.read_text().splitlines()]
    assert len(fits) == len(rep.features) == train.d
    assert all(len(names) == train.d - 1 for names in fits)
