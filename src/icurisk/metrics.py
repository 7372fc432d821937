"""Evaluation battery: AUROC, bootstrap CIs, threshold tuning, confusion
metrics, and Welch t-tests for cohort comparison tables.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from math import nan, sqrt

import numpy as np

from ._rng import derive_rng
from .errors import ConfigError, DataError

__all__ = [
    "MetricReport",
    "WelchResult",
    "auroc",
    "roc_curve",
    "stratified_bootstrap",
    "paired_aurocs",
    "bootstrap_auroc_ci",
    "tune_threshold",
    "confusion_metrics",
    "welch_t",
    "compare_cohorts",
]


def _check_binary(labels) -> np.ndarray:
    labels = np.asarray(labels)
    if not np.isin(labels, (0, 1)).all():
        raise DataError("labels must be 0/1")
    return labels


def auroc(scores, labels) -> float:
    """Mann-Whitney AUROC: (concordant + half the ties) / (n1 * n0)."""
    labels = np.asarray(labels)
    if np.shape(scores) != labels.shape or labels.ndim != 1:
        raise DataError("AUROC needs one score per label")
    identity = np.arange(labels.size)[None, :]  # the one resample: every row
    return float(paired_aurocs([scores], labels, [identity], 1)[0, 0])


def roc_curve(scores, labels):
    """ROC points swept over descending score thresholds.

    Returns (fpr, tpr, thresholds); the first point is (0, 0) at threshold
    +inf, and a point is emitted after each distinct score value.
    """
    scores = np.asarray(scores, dtype=float)
    labels = _check_binary(labels)
    n1 = int((labels == 1).sum())
    n0 = labels.size - n1
    if n1 == 0 or n0 == 0:
        raise DataError("ROC undefined: both classes must be present")
    order = np.argsort(-scores, kind="mergesort")
    s = scores[order]
    y = labels[order]
    tps = np.cumsum(y)
    fps = np.cumsum(1 - y)
    last_of_block = np.r_[s[1:] != s[:-1], True]
    tpr = np.r_[0.0, tps[last_of_block] / n1]
    fpr = np.r_[0.0, fps[last_of_block] / n0]
    thresholds = np.r_[np.inf, s[last_of_block]]
    return fpr, tpr, thresholds


def stratified_bootstrap(labels, B: int, rng):
    """B bootstrap resamples of the rows, stratified within each class so
    every replicate keeps both classes, yielded lazily as (replicates, n)
    index blocks of at most _BLOCK_CELLS cells: each row holds the
    positives drawn from the positive rows, then the negatives.

    The labels and B are checked when this is called, before any block is
    drawn. The stream stays (all positive draws, then all negative draws):
    rng is moved past the positive draws here, and each block takes its
    positive rows again from a copy of rng made before them. Row chunks of
    rng.integers continue one draw's stream, so the blocks end to end hold
    exactly the indices of one (B, n) draw."""
    labels = _check_binary(labels)
    if B < 1:
        raise ConfigError("B must be >= 1")
    pos = np.flatnonzero(labels == 1)
    neg = np.flatnonzero(labels == 0)
    if pos.size == 0 or neg.size == 0:
        raise DataError("bootstrap undefined: both classes must be present")
    rows = _rows_per_block(labels.size)
    sizes = [min(rows, B - start) for start in range(0, B, rows)]
    pos_rng = copy.deepcopy(rng)
    for m in sizes:
        rng.integers(0, pos.size, size=(m, pos.size))

    def blocks():
        for m in sizes:
            take_pos = pos[pos_rng.integers(0, pos.size, size=(m, pos.size))]
            take_neg = neg[rng.integers(0, neg.size, size=(m, neg.size))]
            yield np.concatenate([take_pos, take_neg], axis=1)

    return blocks()


# Each (replicates, n) or (replicates, distinct scores) temporary of a block
# holds at most this many elements, about 94 KiB of int64. A bootstrap
# streamed from stratified_bootstrap holds one block at a time, so its
# peak memory stays flat at any number of replicates.
_BLOCK_CELLS = 12000


def _rows_per_block(width: int) -> int:
    return max(1, _BLOCK_CELLS // width)


def _code(scores):
    """Scores coded by their rank among the distinct values: (code, k,
    nan_code), where nan_code is the code of NaN or -1 if none is present."""
    uniq, code = np.unique(np.asarray(scores, dtype=float), return_inverse=True)
    k = uniq.size  # NaNs share the last code
    return code, k, (k - 1 if k and np.isnan(uniq[-1]) else -1)


def _block_aurocs(coded, labels, rows) -> np.ndarray:
    """AUROC of each resample in rows, by the count paired_aurocs describes."""
    code, k, nan_code = coded
    m, n = rows.shape
    pos = labels[rows] == 1
    n1 = pos.sum(axis=1)
    n0 = n - n1
    if not (n1.all() and n0.all()):
        raise DataError("AUROC undefined: both classes must be present")
    codes = code[rows]
    flat = codes + (k * np.arange(m))[:, None]
    neg_count = np.bincount(flat[~pos], minlength=m * k).reshape(m, k)
    below_twice_plus_tied = 2 * np.cumsum(neg_count, axis=1) - neg_count
    two_u = np.where(pos, below_twice_plus_tied.ravel()[flat], 0).sum(axis=1)
    auc = (two_u / 2.0) / (n1 * n0)
    if nan_code >= 0:
        auc[(codes == nan_code).any(axis=1)] = nan
    return auc


def paired_aurocs(score_sets, labels, blocks, B) -> np.ndarray:
    """(len(score_sets), B) AUROCs: row v holds those of score_sets[v] on
    each of the B resamples, taken block by block from blocks, each block a
    (replicates, n) array holding one row of indices per resample.

    Counts, per replicate, 2U = sum over positives of (2 * negatives scored
    below + negatives tied), twice the Mann-Whitney U (Hanley & McNeil 1982),
    as an exact integer: scores are coded once by their rank among the
    distinct values, negatives are counted per (replicate, code) and summed
    cumulatively over codes, and the positives gather from those sums. A
    replicate that draws a NaN score gives NaN; one missing a class raises.
    """
    labels = _check_binary(labels)
    coded = [_code(scores) for scores in score_sets]
    out = np.empty((len(coded), B))
    start = 0
    for rows in blocks:
        stop = start + rows.shape[0]
        if stop > B:
            raise ConfigError(f"blocks hold more than B={B} resamples")
        for dist, c in zip(out, coded):
            dist[start:stop] = _block_aurocs(c, labels, rows)
        start = stop
    if start != B:
        raise ConfigError(f"blocks hold {start} resamples, not B={B}")
    return out


def bootstrap_auroc_ci(scores, labels, B: int = 2000, seed: int = 0):
    """95% percentile CI for AUROC over B class-stratified bootstrap
    resamples, each block of resamples scored as soon as it is drawn."""
    blocks = stratified_bootstrap(labels, B, derive_rng(seed, "bootstrap"))
    reps = paired_aurocs([scores], labels, blocks, B)[0]
    low, high = np.percentile(reps, (2.5, 97.5))
    return float(low), float(high)


def _threshold_candidates(scores: np.ndarray) -> np.ndarray:
    """Midpoints between consecutive unique scores, plus an all-positive
    sentinel below the minimum. Predicted positive means score >= threshold."""
    uniq = np.unique(scores)
    mids = 0.5 * (uniq[:-1] + uniq[1:])
    return np.r_[uniq[0] - 1.0, mids]


def tune_threshold(oof_scores, oof_labels) -> float:
    """Pick a decision threshold from out-of-fold scores: the one that
    maximizes Youden's J = sensitivity + specificity - 1 (ties go to the
    lower threshold).
    """
    scores = np.asarray(oof_scores, dtype=float)
    labels = _check_binary(oof_labels)
    n1 = int((labels == 1).sum())
    n0 = labels.size - n1
    if n1 == 0 or n0 == 0:
        raise DataError("threshold tuning needs both classes")
    cands = _threshold_candidates(scores)
    pos_scores = scores[labels == 1]
    neg_scores = scores[labels == 0]
    sens = (pos_scores[None, :] >= cands[:, None]).mean(axis=1)
    spec = (neg_scores[None, :] < cands[:, None]).mean(axis=1)
    j = sens + spec - 1.0
    return float(cands[int(np.argmax(j))])  # argmax takes the first (lowest) maximizer


@dataclass(frozen=True)
class MetricReport:
    auroc: float
    auroc_ci_low: float
    auroc_ci_high: float
    threshold: float
    accuracy: float
    f1: float
    sensitivity: float
    specificity: float
    ppv: float
    npv: float
    tp: int
    fp: int
    tn: int
    fn: int

    def with_ci(self, low: float, high: float) -> "MetricReport":
        return replace(self, auroc_ci_low=low, auroc_ci_high=high)


def confusion_metrics(scores, labels, threshold: float) -> MetricReport:
    """Confusion counts and rates at a fixed threshold (positive = score >=
    threshold). Undefined rates (empty denominator) are reported as NaN.
    AUROC is filled in; its CI is left NaN for the caller to supply."""
    scores = np.asarray(scores, dtype=float)
    labels = _check_binary(labels)
    pred = scores >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    tn = int(np.sum(~pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    sens = tp / (tp + fn) if tp + fn else nan
    spec = tn / (tn + fp) if tn + fp else nan
    ppv = tp / (tp + fp) if tp + fp else nan
    npv = tn / (tn + fn) if tn + fn else nan
    acc = (tp + tn) / labels.size
    f1 = 2.0 * ppv * sens / (ppv + sens) if (ppv + sens) > 0 else nan
    try:
        auc = auroc(scores, labels)
    except DataError:
        auc = nan
    return MetricReport(
        auroc=auc, auroc_ci_low=nan, auroc_ci_high=nan, threshold=float(threshold),
        accuracy=acc, f1=f1, sensitivity=sens, specificity=spec, ppv=ppv, npv=npv,
        tp=tp, fp=fp, tn=tn, fn=fn,
    )


@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float
    p: float


def welch_t(m1, s1, n1, m2, s2, n2) -> WelchResult:
    """Two-sided Welch t-test from summary statistics (sample sds)."""
    from scipy.special import stdtr

    if n1 < 2 or n2 < 2:
        raise DataError("welch_t needs n >= 2 in both groups")
    if s1 < 0 or s2 < 0:
        raise DataError("welch_t needs nonnegative sds")
    v1 = s1 * s1 / n1
    v2 = s2 * s2 / n2
    se2 = v1 + v2
    if se2 == 0.0:
        # both groups constant: equal means carry no evidence of a difference
        return WelchResult(t=0.0, df=float(n1 + n2 - 2), p=1.0) if m1 == m2 else WelchResult(
            t=np.inf if m1 > m2 else -np.inf, df=float(n1 + n2 - 2), p=0.0
        )
    t = (m1 - m2) / sqrt(se2)
    df = se2 * se2 / (v1 * v1 / (n1 - 1) + v2 * v2 / (n2 - 1))
    p = np.minimum(1.0, 2.0 * stdtr(df, -abs(t)))  # NaN stays NaN; |t| = inf gives 0
    return WelchResult(t=float(t), df=float(df), p=float(p))


def compare_cohorts(table_a, table_b):
    """Per-feature Welch tests between two cohorts sharing a schema.

    Returns a list of dicts (feature, unit, group stats, t, df, p); features
    with fewer than 2 observed values in either cohort are reported with a
    note instead of a test.
    """
    if table_a.schema != table_b.schema:
        raise DataError("cohorts must share a schema")
    rows = []
    for j, spec in enumerate(table_a.schema):
        xa = table_a.X[:, j]
        xb = table_b.X[:, j]
        xa = xa[~np.isnan(xa)]
        xb = xb[~np.isnan(xb)]
        row = {
            "feature": spec.name,
            "unit": spec.unit,
            "n_a": int(xa.size),
            "n_b": int(xb.size),
            "mean_a": float(xa.mean()) if xa.size else nan,
            "sd_a": float(xa.std(ddof=1)) if xa.size >= 2 else nan,
            "mean_b": float(xb.mean()) if xb.size else nan,
            "sd_b": float(xb.std(ddof=1)) if xb.size >= 2 else nan,
        }
        if xa.size < 2 or xb.size < 2:
            row.update(t=nan, df=nan, p=nan, note="skipped: fewer than 2 observations")
        else:
            res = welch_t(row["mean_a"], row["sd_a"], xa.size, row["mean_b"], row["sd_b"], xb.size)
            row.update(t=res.t, df=res.df, p=res.p, note="")
        rows.append(row)
    return rows
