"""Shapley attributions with interventional replacement semantics.

The coalition value of S for a row x against a background set Z is the mean
model output over Z of composites taking features in S from x and the rest
from each background row. shap_exhaustive enumerates all 2^d coalitions with
exact factorial weights; shap_tree computes the identical quantity for a
boosted-tree ensemble in polynomial time by walking each tree once per
(row, background-group) with the features constrained so far.

For a single (x, z) pair and a leaf of value v reached with k features
forced to x's side and m forced to z's side, the leaf contributes
v * (k-1)! m! / (k+m)! to each x-forced feature and -v * k! (m-1)! / (k+m)!
to each z-forced feature; features on which x and z take the same branch are
dummies for that pair. Tree attributions are on the margin (log-odds) scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from ..errors import ConfigError, DataError
from ..models import GbdtModel, model_margin
from ..models.gbdt import _apply_cat_stats


@dataclass(frozen=True)
class ShapMatrix:
    values: np.ndarray       # (n_rows, d)
    base_value: float        # mean margin over the background
    feature_names: tuple


def _as_matrix(obj) -> np.ndarray:
    if hasattr(obj, "X"):
        return np.asarray(obj.X, dtype=float)
    return np.atleast_2d(np.asarray(obj, dtype=float))


def shap_exhaustive(model, row, background) -> np.ndarray:
    """Exact Shapley values by 2^d coalition enumeration (d <= 15)."""
    Z = _as_matrix(background)
    x = np.asarray(row, dtype=float).ravel()
    d = x.size
    if d > 15:
        raise ConfigError(f"exhaustive enumeration refused for d={d} > 15")
    if Z.shape[0] == 0:
        raise DataError("background must be nonempty")
    n_coal = 1 << d
    masks = (np.arange(n_coal)[:, None] >> np.arange(d)) & 1  # (2^d, d)
    m = Z.shape[0]
    V = np.empty(n_coal)
    # evaluate coalition values in memory-bounded chunks
    chunk = max(1, int(2e6) // max(m, 1))
    for start in range(0, n_coal, chunk):
        block = masks[start : start + chunk].astype(bool)
        composites = np.where(block[:, None, :], x, Z[None, :, :])
        vals = model(composites.reshape(-1, d)).reshape(block.shape[0], m)
        V[start : start + chunk] = vals.mean(axis=1)
    sizes = masks.sum(axis=1)
    w = np.array([factorial(s) * factorial(d - s - 1) / factorial(d) for s in range(d)])
    phi = np.zeros(d)
    coal = np.arange(n_coal)
    for i in range(d):
        bit = 1 << i
        without = coal[(coal & bit) == 0]
        phi[i] = np.sum(w[sizes[without]] * (V[without | bit] - V[without]))
    return phi


def _pair_weights(max_depth: int):
    """w_in[k, m] and w_out[k, m] leaf weights for k x-forced and m z-forced
    features."""
    K = max_depth + 1
    w_in = np.zeros((K + 1, K + 1))
    w_out = np.zeros((K + 1, K + 1))
    for k in range(K + 1):
        for m in range(K + 1):
            if k + m == 0 or k + m > K:
                continue
            denom = factorial(k + m)
            if k > 0:
                w_in[k, m] = factorial(k - 1) * factorial(m) / denom
            if m > 0:
                w_out[k, m] = factorial(k) * factorial(m - 1) / denom
    return w_in, w_out


def _tree_row_shap(tree, x, Z, phi, w_in, w_out):
    """Accumulate (unnormalized) attributions of one tree for row x against
    all background rows Z into phi."""

    def walk(node, zidx, forced, k, m):
        f = tree.feat[node]
        if f < 0:
            if k + m == 0:
                return
            v = tree.value[node] * zidx.size
            if v == 0.0:
                return
            win = v * w_in[k, m]
            wout = v * w_out[k, m]
            for feat_id, side in forced.items():
                if side:
                    phi[feat_id] += win
                else:
                    phi[feat_id] -= wout
            return
        t = tree.thr[node]
        x_left = x[f] < t
        x_child = tree.left[node] if x_left else tree.right[node]
        o_child = tree.right[node] if x_left else tree.left[node]
        if f in forced:
            if forced[f]:  # forced to x's value: everyone follows x
                walk(x_child, zidx, forced, k, m)
            else:          # forced to z's value: split by each z's own branch
                zl = Z[zidx, f] < t
                if zl.any():
                    walk(tree.left[node], zidx[zl], forced, k, m)
                if not zl.all():
                    walk(tree.right[node], zidx[~zl], forced, k, m)
            return
        zl = Z[zidx, f] < t
        agree = zl == x_left
        if agree.any():
            walk(x_child, zidx[agree], forced, k, m)
        dis = zidx[~agree]
        if dis.size:
            walk(x_child, dis, {**forced, f: True}, k + 1, m)
            walk(o_child, dis, {**forced, f: False}, k, m + 1)

    walk(0, np.arange(Z.shape[0]), {}, 0, 0)


def shap_tree(model: GbdtModel, rows, background) -> ShapMatrix:
    """Interventional tree Shapley values for every row, equal to
    shap_exhaustive on the margin within floating-point error."""
    if not isinstance(model, GbdtModel):
        raise ConfigError("shap_tree supports boosted-tree models only")
    X = _as_matrix(rows)
    Z = _as_matrix(background)
    if Z.shape[0] == 0:
        raise DataError("background must be nonempty")
    names = getattr(rows, "feature_names", None) or tuple(model.feature_names_)
    Xe = _apply_cat_stats(X, model.cat_stats)
    Ze = _apply_cat_stats(Z, model.cat_stats)
    d = Xe.shape[1]
    depth = model.params.depth
    w_in, w_out = _pair_weights(depth)
    values = np.zeros((Xe.shape[0], d))
    lr = model.params.learning_rate
    for r in range(Xe.shape[0]):
        phi = np.zeros(d)
        for tree in model.trees:
            _tree_row_shap(tree, Xe[r], Ze, phi, w_in, w_out)
        values[r] = lr * phi / Z.shape[0]
    base = float(model_margin(model, Z).mean())
    return ShapMatrix(values=values, base_value=base, feature_names=tuple(names))
