import warnings
from math import log

import numpy as np
import pytest

from icurisk.cohort import CohortTable
from icurisk.errors import ConfigError, DataError
from icurisk.select import (coverage_filter, decile_bin, mutual_information,
                            rank_features)
from icurisk.schema import FeatureSpec

from conftest import make_table


def test_mi_zero_under_exact_independence():
    x = np.array([0, 0, 1, 1])
    y = np.array([0, 1, 0, 1])
    assert mutual_information(x, y) == pytest.approx(0.0, abs=1e-15)


def test_mi_perfect_dependence():
    x = np.tile([0, 1, 2], 30)
    assert mutual_information(x, x) == pytest.approx(log(3), abs=1e-12)


def test_mi_symmetry_and_oracle():
    rng = np.random.default_rng(4)
    x = rng.integers(0, 3, 200)
    y = rng.integers(0, 2, 200)
    assert mutual_information(x, y) == pytest.approx(mutual_information(y, x), abs=1e-15)
    # direct joint-histogram evaluation
    direct = 0.0
    n = x.size
    for a in np.unique(x):
        for b in np.unique(y):
            pij = np.sum((x == a) & (y == b)) / n
            if pij == 0:
                continue
            direct += pij * log(pij / ((np.sum(x == a) / n) * (np.sum(y == b) / n)))
    assert mutual_information(x, y) == pytest.approx(direct, abs=1e-13)


def test_mi_label_values_irrelevant():
    x = np.array([5, 5, 9, 9, 9, 5])
    y = np.array([0, 0, 1, 1, 0, 1])
    relabeled = np.where(x == 5, 100, -3)
    assert mutual_information(x, y) == mutual_information(relabeled, y)


def test_mi_input_validation():
    with pytest.raises(DataError):
        mutual_information([1, 2], [1])
    with pytest.raises(DataError):
        mutual_information([], [])


def test_decile_bin():
    rng = np.random.default_rng(9)
    v = rng.normal(size=500)
    v[::50] = np.nan
    codes = decile_bin(v, 10)
    assert codes[np.isnan(v)].max() == -1
    obs = codes[~np.isnan(v)]
    assert obs.min() >= 0 and obs.max() <= 9
    # order preserved: larger values never land in smaller bins
    o = np.argsort(v[~np.isnan(v)])
    assert (np.diff(obs[o]) >= 0).all()
    # heavy ties merge duplicate edges: two value groups, two codes, and
    # equal values always share a code (the integer labels need not be 0/1)
    tied = decile_bin(np.array([1.0] * 50 + [2.0] * 50), 10)
    assert len(set(tied)) == 2
    assert len(set(tied[:50])) == 1 and len(set(tied[50:])) == 1
    assert tied[0] < tied[-1]


def test_coverage_filter_reasons():
    schema = (FeatureSpec(name="good", kind="continuous"),
              FeatureSpec(name="holey", kind="continuous"),
              FeatureSpec(name="flat", kind="continuous"))
    rng = np.random.default_rng(2)
    n = 200
    # the flat column must be a representable float so its variance is an
    # exact zero; 3.3 would leave ~1e-31 of rounding noise and pass the
    # constants-only variance rule
    X = np.column_stack([rng.normal(size=n), rng.normal(size=n), np.full(n, 3.5)])
    X[: int(0.3 * n), 1] = np.nan
    table = CohortTable(schema, X, rng.integers(0, 2, n))
    kept, report = coverage_filter(table)
    assert kept == ["good"]
    by_name = {r["feature"]: r for r in report}
    assert "missingness" in by_name["holey"]["reason"]
    assert "variance" in by_name["flat"]["reason"]
    assert by_name["good"]["kept"] and by_name["good"]["reason"] == ""


def test_coverage_filter_documentation_threshold():
    table = make_table(50, seed=5)
    with pytest.raises(DataError):
        # every feature fails the count rule
        coverage_filter(table, min_documented_patients=51)


def test_coverage_filter_config_validation():
    table = make_table(50, seed=5)
    with pytest.raises(ConfigError, match="max_missing_fraction"):
        coverage_filter(table, max_missing_fraction=1.5)
    with pytest.raises(ConfigError, match="min_documented_patients"):
        coverage_filter(table, min_documented_patients=-1)


def test_rank_features_orders_by_information(table200):
    ranking = rank_features(table200, top_k=4)
    # the label was generated from feature 0 ("age"); it must rank first
    assert ranking.features[0] == "age"
    assert ranking.selected[0] == "age"
    scores = [ranking.scores[f] for f in ranking.features]
    assert scores == sorted(scores, reverse=True)


def test_rank_features_near_zero_exclusion(table200):
    # a constant column carries exactly zero MI, below the 1e-3 nat bar
    X = table200.X.copy()
    X[:, table200.index_of("lactate")] = 1.0
    ranking = rank_features(table200.with_matrix(X), top_k=4)
    assert ranking.epsilon == 1e-3
    assert ranking.scores["lactate"] == 0.0
    assert "lactate" in ranking.excluded_near_zero
    head = ranking.features[:4]
    assert ranking.excluded_near_zero == tuple(
        f for f in head if ranking.scores[f] < 1e-3)
    assert ranking.selected == tuple(
        f for f in head if ranking.scores[f] >= 1e-3)


def test_rank_features_top_k_clamps_with_warning(table200):
    with pytest.warns(UserWarning, match="clamped"):
        ranking = rank_features(table200, top_k=99)
    assert len(ranking.features) == table200.d
    with pytest.raises(ConfigError):
        rank_features(table200, top_k=0)
