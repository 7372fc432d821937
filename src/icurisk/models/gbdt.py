"""Gradient boosted decision trees on the logistic loss, second-order style:
per-round gradients g = w(p - y) and hessians h = w p (1 - p), greedy splits
by weighted gain with L2 leaf regularization, leaf values -G/(H + l2).

ordered_mode replaces declared categorical columns with ordered target
statistics during training: a fresh seeded permutation each boosting round,
each row encoded from the label prefix strictly before it (alpha-smoothed
toward the training mean). Inference uses the full-training-data statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import derive_rng
from ..errors import ConfigError, DataError
from ..special import log1pexp, logit, sigmoid

_PROB_CLIP = 1e-7
_MIN_SPLIT_GAIN = 1e-12


@dataclass(frozen=True)
class GbdtParams:
    depth: int = 3
    n_trees: int = 100
    learning_rate: float = 0.1
    l2_leaf: float = 1.0
    min_child_weight: float = 1.0
    subsample: float = 1.0
    ordered_mode: bool = False
    categorical_idx: tuple = ()
    ordered_alpha: float = 10.0

    def __post_init__(self):
        if self.depth < 1 or self.n_trees < 1:
            raise ConfigError("depth and n_trees must be >= 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ConfigError("subsample must be in (0, 1]")
        if self.learning_rate <= 0 or self.l2_leaf < 0 or self.min_child_weight < 0:
            raise ConfigError("learning_rate > 0, l2_leaf >= 0, min_child_weight >= 0 required")
        object.__setattr__(self, "categorical_idx", tuple(int(i) for i in self.categorical_idx))


@dataclass(frozen=True)
class Tree:
    """Array-coded binary tree; feat < 0 marks a leaf. Rows with feature
    value < threshold go left."""

    feat: np.ndarray
    thr: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        idx = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        while True:
            f = self.feat[idx]
            at_leaf = f < 0
            if at_leaf.all():
                return self.value[idx]
            f_safe = np.where(at_leaf, 0, f)
            go_left = X[rows, f_safe] < self.thr[idx]
            nxt = np.where(go_left, self.left[idx], self.right[idx])
            idx = np.where(at_leaf, idx, nxt)


@dataclass(frozen=True)
class GbdtModel:
    params: GbdtParams
    base_score: float          # log-odds of the weighted training base rate
    trees: tuple
    feature_names_: tuple
    cat_stats: dict            # col -> (sorted category values, encoded values, prior)
    loss_curve: np.ndarray     # weighted logistic training loss, n_trees + 1 entries


def _weighted_logloss(margin, y, w):
    return float(np.sum(w * (log1pexp(margin) - y * margin)))


def _best_split(X, g, h, l2, min_child_weight):
    """Best (gain, feature, threshold) over all features; None if no valid
    split. Ties: first feature index, then lowest threshold."""
    G = g.sum()
    H = h.sum()
    parent = G * G / (H + l2) if H + l2 > 0 else 0.0
    best_gain = _MIN_SPLIT_GAIN
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        if xs[0] == xs[-1]:
            continue  # constant feature in this node
        gl = np.cumsum(g[order])[:-1]
        hl = np.cumsum(h[order])[:-1]
        gr = G - gl
        hr = H - hl
        ok = (xs[1:] > xs[:-1]) & (hl >= min_child_weight) & (hr >= min_child_weight)
        if not ok.any():
            continue
        gain = 0.5 * (gl * gl / (hl + l2) + gr * gr / (hr + l2) - parent)
        gain[~ok] = -np.inf
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = float(gain[i])
            best = (j, 0.5 * (xs[i] + xs[i + 1]))
    return best_gain, best


def _grow_tree(X, g, h, depth, l2, min_child_weight) -> Tree:
    feat, thr, left, right, value = [], [], [], [], []

    def leaf(gs, hs):
        feat.append(-1)
        thr.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(-gs.sum() / max(hs.sum() + l2, 1e-12))
        return len(feat) - 1

    def grow(rows, d):
        gs, hs = g[rows], h[rows]
        if d == 0 or rows.size < 2:
            return leaf(gs, hs)
        gain, split = _best_split(X[rows], gs, hs, l2, min_child_weight)
        if split is None:
            return leaf(gs, hs)
        j, t = split
        node = len(feat)
        feat.append(j)
        thr.append(t)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        mask = X[rows, j] < t
        left[node] = grow(rows[mask], d - 1)
        right[node] = grow(rows[~mask], d - 1)
        return node

    grow(np.arange(X.shape[0]), depth)
    return Tree(
        feat=np.array(feat, dtype=np.int64),
        thr=np.array(thr),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value),
    )


def _ordered_column(codes, y, perm, alpha, prior):
    """Ordered target statistic per row: smoothed mean of y over earlier
    occurrences (in perm order) of the row's category."""
    n = codes.shape[0]
    enc = np.empty(n)
    codes_p = codes[perm]
    y_p = y[perm].astype(float)
    for c in np.unique(codes_p):
        mask = codes_p == c
        cnt = np.cumsum(mask) - mask
        sm = np.cumsum(mask * y_p) - mask * y_p
        vals = (sm + alpha * prior) / (cnt + alpha)
        rows = np.flatnonzero(mask)
        enc[perm[rows]] = vals[rows]
    return enc


def _full_stats(codes, y, alpha, prior):
    cats, inverse = np.unique(codes, return_inverse=True)
    counts = np.bincount(inverse)
    sums = np.bincount(inverse, weights=y.astype(float))
    enc = (sums + alpha * prior) / (counts + alpha)
    return cats, enc


def _apply_cat_stats(X, cat_stats):
    if not cat_stats:
        return X
    X = X.copy()
    for j, (cats, enc, prior) in cat_stats.items():
        col = X[:, j]
        idx = np.clip(np.searchsorted(cats, col), 0, cats.size - 1)
        known = cats[idx] == col
        X[:, j] = np.where(known, enc[idx], prior)
    return X


def train_gbdt(train, params: GbdtParams = GbdtParams(), weights=None, seed: int = 0) -> GbdtModel:
    """Stagewise fit of the weighted logistic loss. train is a CohortTable
    with no missing values; weights is a ClassWeights (None = unweighted)."""
    X = np.asarray(train.X, dtype=float)
    y = np.asarray(train.y, dtype=float)
    if np.isnan(X).any():
        raise DataError("train_gbdt requires imputed (non-missing) inputs")
    w = weights.per_row(train.y) if weights is not None else np.ones(y.shape[0])
    if params.ordered_mode and not params.categorical_idx:
        raise ConfigError("ordered_mode needs categorical_idx")

    rng = derive_rng(seed, "gbdt")
    p_base = float(np.clip(np.sum(w * y) / np.sum(w), _PROB_CLIP, 1 - _PROB_CLIP))
    base = logit(p_base)
    prior = float(y.mean())

    cat_stats = {}
    if params.ordered_mode:
        for j in params.categorical_idx:
            cats, enc = _full_stats(X[:, j], y, params.ordered_alpha, prior)
            cat_stats[j] = (cats, enc, prior)

    n = X.shape[0]
    margin = np.full(n, base)
    trees = []
    losses = [_weighted_logloss(margin, y, w)]
    for _ in range(params.n_trees):
        if params.ordered_mode:
            Xt = X.copy()
            perm = rng.permutation(n)
            for j in params.categorical_idx:
                Xt[:, j] = _ordered_column(X[:, j], y, perm, params.ordered_alpha, prior)
        else:
            Xt = X
        p = sigmoid(margin)
        g = w * (p - y)
        h = w * p * (1.0 - p)
        if params.subsample < 1.0:
            rows = np.flatnonzero(rng.random(n) < params.subsample)
            if rows.size < 2:
                rows = np.arange(n)
        else:
            rows = np.arange(n)
        tree = _grow_tree(Xt[rows], g[rows], h[rows], params.depth,
                          params.l2_leaf, params.min_child_weight)
        trees.append(tree)
        margin = margin + params.learning_rate * tree.predict(Xt)
        losses.append(_weighted_logloss(margin, y, w))

    return GbdtModel(
        params=params,
        base_score=base,
        trees=tuple(trees),
        feature_names_=tuple(train.feature_names),
        cat_stats=cat_stats,
        loss_curve=np.array(losses),
    )


def gbdt_margin(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    """Raw log-odds: base + lr * sum of leaf scores."""
    X = np.asarray(X, dtype=float)
    X = _apply_cat_stats(X, model.cat_stats)
    out = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        out += model.params.learning_rate * tree.predict(X)
    return out


def gbdt_predict_proba(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    return np.clip(sigmoid(gbdt_margin(model, X)), _PROB_CLIP, 1 - _PROB_CLIP)

