"""Rank metrics, thresholding, confusion rates, and the summary-stat Welch
test, cross-checked against closed forms and scipy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from icurisk.cohort import CohortTable
from icurisk._rng import derive_rng
from icurisk.errors import ConfigError, DataError
from icurisk.metrics import (auroc, bootstrap_auroc_ci, compare_cohorts,
                             confusion_metrics, paired_aurocs, roc_curve,
                             stratified_bootstrap, tune_threshold, welch_t)
from icurisk.schema import FeatureSpec


def test_auroc_reference_fixture():
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75


def test_auroc_extremes_and_ties():
    assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert auroc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auroc_monotone_invariance():
    rng = np.random.default_rng(3)
    scores = rng.random(80)
    labels = rng.integers(0, 2, 80)
    labels[:2] = [0, 1]
    a = auroc(scores, labels)
    assert auroc(np.exp(3 * scores), labels) == a
    assert auroc(1 - scores, 1 - labels) == pytest.approx(a)


def test_auroc_requires_both_classes():
    with pytest.raises(DataError):
        auroc([0.1, 0.2], [1, 1])


def test_roc_curve_shape():
    rng = np.random.default_rng(5)
    scores = rng.random(60)
    labels = rng.integers(0, 2, 60)
    labels[:2] = [0, 1]
    fpr, tpr, thr = roc_curve(scores, labels)
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    assert (np.diff(fpr) >= 0).all() and (np.diff(tpr) >= 0).all()
    assert len(fpr) == len(tpr) == len(thr)


def test_tune_threshold_matches_enumeration():
    rng = np.random.default_rng(8)
    scores = np.round(rng.random(50), 2)
    labels = rng.integers(0, 2, 50)
    labels[:2] = [0, 1]
    thr = tune_threshold(scores, labels)
    # brute force over every threshold between -inf and +inf
    best_j, best_t = -np.inf, None
    for t in np.unique(np.r_[scores - 1e-9, scores + 1e-9, 0.0, 1.0]):
        pred = scores >= t
        tp = np.sum(pred & (labels == 1))
        fn = np.sum(~pred & (labels == 1))
        tn = np.sum(~pred & (labels == 0))
        fp = np.sum(pred & (labels == 0))
        j = tp / (tp + fn) + tn / (tn + fp) - 1
        if j > best_j + 1e-12:
            best_j, best_t = j, t
    pred = scores >= thr
    tp = np.sum(pred & (labels == 1)); fn = np.sum(~pred & (labels == 1))
    tn = np.sum(~pred & (labels == 0)); fp = np.sum(pred & (labels == 0))
    got_j = tp / (tp + fn) + tn / (tn + fp) - 1
    assert got_j == pytest.approx(best_j, abs=1e-12)


def test_bootstrap_ci_deterministic_and_ordered():
    rng = np.random.default_rng(2)
    scores = rng.random(120)
    labels = (scores + rng.normal(0, 0.3, 120) > 0.5).astype(int)
    labels[:2] = [0, 1]
    lo1, hi1 = bootstrap_auroc_ci(scores, labels, B=300, seed=4)
    lo2, hi2 = bootstrap_auroc_ci(scores, labels, B=300, seed=4)
    assert (lo1, hi1) == (lo2, hi2)
    assert 0.0 <= lo1 <= hi1 <= 1.0
    point = auroc(scores, labels)
    assert lo1 <= point <= hi1


def _drawn(labels, B, rng):
    """The (B, n) indices of stratified_bootstrap's blocks end to end."""
    return np.concatenate(list(stratified_bootstrap(labels, B, rng)))


def _resampled(scores, labels, idx):
    """paired_aurocs of one score set on the resamples idx, one block."""
    return paired_aurocs([scores], labels, [np.asarray(idx)], len(idx))[0]


def test_stratified_bootstrap_draws_positives_then_negatives():
    labels = np.array([0, 1, 1, 0, 0, 1, 0])
    idx = _drawn(labels, 4, np.random.default_rng(3))
    assert idx.shape == (4, 7)
    # one draw matrix for the positive rows, then one for the negative rows
    rng = np.random.default_rng(3)
    pos, neg = np.array([1, 2, 5]), np.array([0, 3, 4, 6])
    assert np.array_equal(idx[:, :3], pos[rng.integers(0, 3, size=(4, 3))])
    assert np.array_equal(idx[:, 3:], neg[rng.integers(0, 4, size=(4, 4))])
    with pytest.raises(DataError, match="both classes"):
        stratified_bootstrap(np.zeros(5, dtype=int), 4, np.random.default_rng(3))
    with pytest.raises(ConfigError):
        stratified_bootstrap(labels, 0, np.random.default_rng(3))


@pytest.mark.parametrize("labels, B, error", [
    (np.zeros(7, dtype=int), 4, DataError),
    (np.ones(7, dtype=int), 4, DataError),
    (np.array([0, 1, 1, 0, 0, 1, 0]), 0, ConfigError),
    (np.array([0, 1, 2, 0]), 4, DataError),
])
def test_stratified_bootstrap_checks_before_it_draws(labels, B, error):
    # the call raises, not the first block, and no draw has moved rng
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(error):
        stratified_bootstrap(labels, B, rng)
    assert rng.bit_generator.state == state


def test_bootstrap_ci_is_the_percentile_of_the_resampled_aurocs():
    rng = np.random.default_rng(5)
    scores = np.round(rng.random(80), 1)  # coarse grid forces ties
    labels = (rng.random(80) < 0.3).astype(int)
    labels[:2] = [0, 1]
    idx = _drawn(labels, 200, derive_rng(4, "bootstrap"))
    reps = _resampled(scores, labels, idx)
    assert reps[0] == auroc(scores[idx[0]], labels[idx[0]])
    low, high = np.percentile(reps, (2.5, 97.5))
    assert bootstrap_auroc_ci(scores, labels, B=200, seed=4) == (low, high)


def _one_draw_bootstrap(labels, B, rng):
    """Reference resamples: one (B, n1) draw for the positives, then one
    (B, n0) draw for the negatives."""
    pos, neg = np.flatnonzero(labels == 1), np.flatnonzero(labels == 0)
    take_pos = pos[rng.integers(0, pos.size, size=(B, pos.size))]
    return np.concatenate([take_pos, neg[rng.integers(0, neg.size, size=(B, neg.size))]],
                          axis=1)


# 30 replicates per block at 390 and 400 rows: 2000 ends on a 20-row block,
# 61 on a 1-row block
@pytest.mark.parametrize("B, n", [(2000, 390), (61, 400)])
def test_streamed_bootstrap_matches_one_draw(B, n):
    rng = np.random.default_rng(n)
    scores = np.round(rng.random(n), 2)
    labels = (rng.random(n) < 0.2).astype(int)
    labels[:2] = [0, 1]
    idx = _one_draw_bootstrap(labels, B, derive_rng(6, "bootstrap"))
    assert np.array_equal(_drawn(labels, B, derive_rng(6, "bootstrap")), idx)
    low, high = np.percentile(_resampled(scores, labels, idx), (2.5, 97.5))
    assert bootstrap_auroc_ci(scores, labels, B=B, seed=6) == (low, high)


def _rankdata_auroc(scores, labels):
    """Reference AUROC: average ranks, as auroc computed them before the
    counting kernel."""
    n1 = int((labels == 1).sum())
    n0 = labels.size - n1
    if n1 == 0 or n0 == 0:
        raise DataError("AUROC undefined: both classes must be present")
    r1 = stats.rankdata(scores, method="average")[labels == 1].sum()
    return float((r1 - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def _rankdata_resampled(scores, labels, idx):
    return np.array([_rankdata_auroc(scores[r], labels[r]) for r in idx])


_SCORE_POOLS = {
    "ties": np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
    "tied": np.array([0.3]),
    "inf": np.array([-np.inf, -1.0, 0.0, 2.5, np.inf]),
}


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 400), data=st.data(), B=st.integers(1, 150),
       pool=st.sampled_from(["ties", "tied", "inf", "continuous"]),
       with_nan=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_resampled_aurocs_match_rankdata_loop(n, data, B, pool, with_nan, seed):
    n1 = data.draw(st.sampled_from([1, n - 1, max(1, n // 5)]))  # n1 = 1 included
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.r_[np.ones(n1, dtype=int), np.zeros(n - n1, dtype=int)])
    if pool == "continuous":
        scores = rng.standard_normal(n)
    else:
        scores = rng.choice(_SCORE_POOLS[pool], size=n)
    nan_at = int(rng.integers(n))
    if with_nan:
        scores[nan_at] = np.nan
    # up to 400 distinct scores: 30 replicates per block, so B crosses blocks
    blocks = list(stratified_bootstrap(labels, B, rng))
    idx = np.concatenate(blocks)
    got = paired_aurocs([scores], labels, blocks, B)[0]
    assert np.array_equal(got, _rankdata_resampled(scores, labels, idx), equal_nan=True)
    drew_nan = (idx == nan_at).any(axis=1) if with_nan else np.zeros(B, dtype=bool)
    assert np.array_equal(np.isnan(got), drew_nan)
    assert np.array_equal(auroc(scores, labels), _rankdata_auroc(scores, labels),
                          equal_nan=True)
    one_class = idx.copy()
    one_class[B // 2] = np.flatnonzero(labels == int(rng.integers(2)))[0]
    with pytest.raises(DataError, match="both classes"):
        _resampled(scores, labels, one_class)


def test_resampled_aurocs_at_the_default_bootstrap_size():
    rng = np.random.default_rng(11)
    scores = np.round(rng.random(390), 2)
    labels = (rng.random(390) < 0.2).astype(int)
    blocks = list(stratified_bootstrap(labels, 2000, rng))
    idx = np.concatenate(blocks)
    assert np.array_equal(paired_aurocs([scores], labels, blocks, 2000)[0],
                          _rankdata_resampled(scores, labels, idx))


def test_paired_aurocs_score_every_set_on_the_same_resamples():
    rng = np.random.default_rng(13)
    labels = (rng.random(300) < 0.25).astype(int)
    sets = [np.round(rng.random(300), 2), rng.random(300), np.zeros(300)]
    blocks = list(stratified_bootstrap(labels, 95, rng))  # 40 rows per block
    assert len(blocks) == 3
    paired = paired_aurocs(sets, labels, blocks, 95)
    assert paired.shape == (3, 95)
    idx = np.concatenate(blocks)
    for row, scores in zip(paired, sets):
        assert np.array_equal(row, _resampled(scores, labels, idx))
    assert (paired[2] == 0.5).all()
    for B in (94, 96):  # the blocks hold 95 resamples, not B
        with pytest.raises(ConfigError, match="resamples"):
            paired_aurocs(sets, labels, blocks, B)


def test_auroc_rejects_bad_labels_and_lengths():
    with pytest.raises(DataError, match="0/1"):
        _resampled([0.1, 0.2], [0, 2], [[0, 1]])
    with pytest.raises(DataError, match="one score per label"):
        auroc([0.1, 0.2, 0.3], [0, 1])


def test_confusion_metrics_fixture():
    scores = np.array([0.9, 0.8, 0.3, 0.2, 0.6, 0.1])
    labels = np.array([1, 1, 1, 0, 0, 0])
    m = confusion_metrics(scores, labels, threshold=0.5)
    assert (m.tp, m.fn, m.fp, m.tn) == (2, 1, 1, 2)
    assert m.sensitivity == pytest.approx(2 / 3)
    assert m.specificity == pytest.approx(2 / 3)
    assert m.ppv == pytest.approx(2 / 3)
    assert m.npv == pytest.approx(2 / 3)
    assert m.accuracy == pytest.approx(4 / 6)
    assert m.f1 == pytest.approx(2 / 3)
    assert m.threshold == 0.5


def test_confusion_metrics_threshold_is_inclusive():
    m = confusion_metrics([0.5, 0.4], [1, 0], threshold=0.5)
    assert m.tp == 1 and m.tn == 1


def test_confusion_metrics_nan_for_empty_denominators():
    m = confusion_metrics([0.9, 0.8], [1, 1], threshold=0.5)
    assert np.isnan(m.specificity) and np.isnan(m.npv)


def test_welch_t_against_scipy():
    cases = [(69.74, 9.31, 911, 69.52, 8.88, 390),
             (22.90, 17.85, 911, 20.03, 11.82, 390),
             (12.97, 3.35, 911, 12.52, 3.21, 390),
             (5.0, 2.0, 30, 4.0, 3.0, 25)]
    for m1, s1, n1, m2, s2, n2 in cases:
        res = welch_t(m1, s1, n1, m2, s2, n2)
        ref_t, ref_p = stats.ttest_ind_from_stats(m1, s1, n1, m2, s2, n2,
                                                  equal_var=False)
        assert res.t == pytest.approx(ref_t, abs=1e-12)
        assert res.p == pytest.approx(ref_p, abs=1e-10)


def test_welch_t_antisymmetry():
    a = welch_t(5.0, 2.0, 40, 3.0, 1.5, 35)
    b = welch_t(3.0, 1.5, 35, 5.0, 2.0, 40)
    assert a.t == pytest.approx(-b.t)
    assert a.p == pytest.approx(b.p)
    assert a.df == pytest.approx(b.df)


def test_welch_t_degenerate_inputs():
    same = welch_t(3.0, 0.0, 10, 3.0, 0.0, 10)
    assert same.p == 1.0 and same.t == 0.0
    apart = welch_t(4.0, 0.0, 10, 3.0, 0.0, 10)
    assert apart.p == 0.0
    with pytest.raises(DataError):
        welch_t(1.0, 1.0, 1, 2.0, 1.0, 10)
    with pytest.raises(DataError):
        welch_t(1.0, -1.0, 10, 2.0, 1.0, 10)


def test_welch_t_nan_and_infinite_means():
    assert np.isnan(welch_t(np.nan, 1.0, 10, 2.0, 1.0, 10).p)
    assert welch_t(np.inf, 1.0, 10, 2.0, 1.0, 10).p == 0.0
    assert welch_t(2.0, 1.0, 10, np.inf, 1.0, 10).p == 0.0


def test_compare_cohorts_rows():
    schema = (FeatureSpec(name="hr", kind="continuous", unit="bpm"),
              FeatureSpec(name="rare", kind="continuous"))
    rng = np.random.default_rng(6)
    Xa = np.column_stack([rng.normal(80, 10, 50), np.full(50, np.nan)])
    Xa[0, 1] = 1.0
    Xb = np.column_stack([rng.normal(85, 10, 40), np.full(40, np.nan)])
    Xb[:2, 1] = [1.0, 2.0]
    a = CohortTable(schema, Xa, rng.integers(0, 2, 50))
    b = CohortTable(schema, Xb, rng.integers(0, 2, 40))
    rows = compare_cohorts(a, b)
    assert [r["feature"] for r in rows] == ["hr", "rare"]
    hr = rows[0]
    assert hr["unit"] == "bpm" and hr["n_a"] == 50 and hr["n_b"] == 40
    ref = welch_t(hr["mean_a"], hr["sd_a"], 50, hr["mean_b"], hr["sd_b"], 40)
    assert hr["p"] == pytest.approx(ref.p)
    assert rows[1]["note"]  # too few observations for a test
    assert rows[1]["p"] is None or np.isnan(rows[1]["p"])
