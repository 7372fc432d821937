"""Shapley attributions with interventional replacement semantics.

The coalition value of S for a row x against a background set Z is the mean
model output over Z of composites taking features in S from x and the rest
from each background row. shap_exhaustive enumerates all 2^d coalitions with
exact factorial weights; shap_tree computes the identical quantity for a
boosted-tree ensemble from the leaf tables of its forest, the
leaf-wise form of interventional TreeSHAP (Lundberg et al. 2020; Laberge &
Pequignot 2023).

A leaf's path allows, per distinct feature it tests, an interval [lo, hi).
For one (x, z) pair, the composite for S reaches the leaf iff every slot is
satisfied by x (feature in S) or by z (feature not in S). So the leaf's
game depends only on which slots x satisfies and which z satisfies, two
codes of `depth` bits: it is dead if some slot fails both, and otherwise
the leaf of value v, with k slots satisfied only by x and m only by z,
contributes v * (k-1)! m! / (k+m)! to each x-only feature and
-v * k! (m-1)! / (k+m)! to each z-only feature; features both satisfy are
dummies. shap_tree therefore counts background rows per (leaf, code) once
per call, and each explained row's own code per leaf picks its weights, so
per-row work does not grow with the background. Tree attributions are on
the margin (log-odds) scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from ..errors import ConfigError, DataError, SchemaError
from ..models import GbdtModel, model_margin
from ..models import _as_matrix as _model_matrix
from ..models.gbdt import _apply_cat_stats

_CHUNK = 1 << 16          # elements per temporary array, about 0.5 MB


@dataclass(frozen=True)
class ShapMatrix:
    values: np.ndarray       # (n_rows, d)
    base_value: float        # mean margin over the background
    feature_names: tuple


def shap_exhaustive(model, row, background) -> np.ndarray:
    """Exact Shapley values by 2^d coalition enumeration (d <= 15)."""
    Z = np.atleast_2d(np.asarray(background, dtype=float))
    x = np.asarray(row, dtype=float).ravel()
    d = x.size
    if d > 15:
        raise ConfigError(f"exhaustive enumeration refused for d={d} > 15")
    if Z.ndim != 2 or Z.shape[1] != d:
        raise SchemaError(f"row has {d} features, background has shape {Z.shape}")
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


def _path_codes(forest, X) -> np.ndarray:
    """(leaves, rows) code of the path slots each row of X satisfies: bit s
    is set when slot s of the leaf allows the row's value."""
    cols = np.ascontiguousarray(X.T)
    n_leaves = forest.leaf_value.size
    codes = np.zeros((n_leaves, X.shape[0]),
                     dtype=np.min_scalar_type((1 << forest.depth) - 1))
    step = max(1, _CHUNK // n_leaves)
    for start in range(0, X.shape[0], step):
        part = slice(start, start + step)
        for s in range(forest.depth):
            v = cols[forest.slot_feat[s], part]
            ok = (v >= forest.slot_lo[s, :, None]) & (v < forest.slot_hi[s, :, None])
            codes[:, part] |= ok.astype(codes.dtype) << s
    return codes


def shap_tree(model: GbdtModel, rows, background) -> ShapMatrix:
    """Interventional tree Shapley values for every row, equal to
    shap_exhaustive on the margin within floating-point error. Rows and
    background must have the model's width (or feature names, for tables)
    and finite values."""
    if not isinstance(model, GbdtModel):
        raise ConfigError("shap_tree supports boosted-tree models only")
    X = _apply_cat_stats(_model_matrix(model, rows), model.cat_stats)
    Z_raw = _model_matrix(model, background)
    if Z_raw.shape[0] == 0:
        raise DataError("background must be nonempty")
    Z = _apply_cat_stats(Z_raw, model.cat_stats)
    if not (np.isfinite(X).all() and np.isfinite(Z).all()):
        raise DataError("shap_tree needs finite rows and background")
    forest = model.forest
    depth = forest.depth
    full = (1 << depth) - 1
    w_in, w_out = _pair_weights(depth)

    # background rows per (leaf, code), kept where nonzero; leaves go in
    # blocks so the dense count stays small at any depth
    zc = _path_codes(forest, Z)
    pairs = []
    step = max(1, _CHUNK >> depth)
    for start in range(0, zc.shape[0], step):
        part = zc[start:start + step]
        key = part + (np.arange(part.shape[0]) << depth)[:, None]
        count = np.bincount(key.ravel(), minlength=part.shape[0] << depth)
        at = np.flatnonzero(count)
        pairs.append(((at >> depth) + start, at & full, count[at]))
    leaf, b, count = (np.concatenate(p) for p in zip(*pairs))
    weight = count * forest.leaf_value[leaf]
    feat = forest.slot_feat[:, leaf]                    # (depth, pairs)
    shift = np.arange(depth)[:, None]

    n, d = X.shape
    phi = np.zeros((n, d))
    step = max(1, _CHUNK // (leaf.size * depth))
    for start in range(0, n, step):
        a = _path_codes(forest, X[start:start + step])[leaf].T[:, None, :]
        x_only = (a & ~b) >> shift & 1                  # (rows, depth, pairs)
        z_only = (b & ~a) >> shift & 1
        k = x_only.sum(axis=1)
        m = z_only.sum(axis=1)
        # a pair is dead when some slot fails both rows
        w = np.where((a[:, 0] | b) == full, weight, 0.0)
        contrib = (x_only * (w * w_in[k, m])[:, None]
                   - z_only * (w * w_out[k, m])[:, None])
        rows_in = a.shape[0]
        cell = np.arange(rows_in)[:, None, None] * d + feat
        phi[start:start + rows_in] = np.bincount(
            cell.ravel(), weights=contrib.ravel(),
            minlength=rows_in * d).reshape(rows_in, d)
    values = model.params.learning_rate * phi / Z.shape[0]
    base = float(model_margin(model, Z_raw).mean())
    return ShapMatrix(values=values, base_value=base,
                      feature_names=tuple(model.feature_names_))
