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
codes a and b of `depth` bits: it is dead if some slot fails both
(a | b is not every bit), and otherwise the leaf of value v, with k slots
satisfied only by x and m only by z, contributes v * (k-1)! m! / (k+m)! to
each x-only feature and -v * k! (m-1)! / (k+m)! to each z-only feature;
features both satisfy are dummies. Those signed weights depend on nothing
but (a, b), so one table per depth, of shape (depth, 4**depth), holds them
for every slot and every column (a << depth) | b, with 0 for dummy slots and
dead codes.

shap_tree folds the background into one table per (model, background):
its row (leaf << depth) | a holds, per slot, the leaf's value times the sum
over background codes b of the row count with code b times the (a, b)
column of the table above. The weights are summed as integers, scaled by
depth!, so the table is exact up to the one product with the leaf value.
An explained row then costs one pass for its codes, one gather of one
table row per leaf and one bincount of those into its features: per-row
work is leaves * depth whatever the background's size. The prepared
background is kept for the next call, keyed on the model and the bytes of
the background's matrix, until a call brings another model or background,
so a server explaining one patient per request against a fixed background
pays for it once. Tree attributions are on the margin (log-odds) scale.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from math import factorial

import numpy as np

from ..errors import ConfigError, DataError, SchemaError
from ..models import GbdtModel, model_margin
from ..models.cv import model_matrix
from ..models.gbdt import MAX_DEPTH, slots_hold
from ..preprocess import encode_columns

_CHUNK = 1 << 16          # elements per temporary array, about 0.5 MB
_SLOT_BITS = (1 << np.arange(MAX_DEPTH, dtype=np.uint8))[:, None]


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


_tables = {}  # depth -> signed weight table, see _signed_weights


def _signed_weights(depth: int) -> np.ndarray:
    """(depth, 4**depth) table: column (a << depth) | b holds, per slot, the
    weight of a leaf pair whose explained row satisfies the slots of code a
    and whose background row those of code b: w_in[k, m] for an x-only slot,
    -w_out[k, m] for a z-only slot, 0 for a dummy slot or a dead pair."""
    tab = _tables.get(depth)
    if tab is None:
        w_in, w_out = _pair_weights(depth)
        full = (1 << depth) - 1
        a, b = np.divmod(np.arange(1 << 2 * depth), 1 << depth)
        shift = np.arange(depth)[:, None]
        x_only = ((a & ~b) >> shift & 1).astype(bool)     # (depth, columns)
        z_only = ((b & ~a) >> shift & 1).astype(bool)
        k, m = x_only.sum(axis=0), z_only.sum(axis=0)
        live = (a | b) == full
        tab = np.where(x_only & live, w_in[k, m],
                       np.where(z_only & live, -w_out[k, m], 0.0))
        _tables[depth] = tab
    return tab


def _path_codes(forest, X) -> np.ndarray:
    """(leaves, rows) uint8 code of the path slots each row of X satisfies:
    bit s is set when slot s of the leaf allows the row's value; trees are
    at most MAX_DEPTH = 8 deep, so a code fits. The codes are laid out rows
    first, as the slot test gives them, and returned transposed."""
    n_leaves = forest.leaf_value.size
    bits = _SLOT_BITS[:forest.depth]
    codes = np.empty((X.shape[0], n_leaves), dtype=np.uint8)
    step = max(1, _CHUNK // (n_leaves * forest.depth))
    for start in range(0, X.shape[0], step):
        part = slice(start, start + step)
        ok = slots_hold(forest, X[part])           # (rows, depth, leaves)
        np.sum(ok * bits, axis=1, dtype=np.uint8, out=codes[part])
    return codes.T


@dataclass(frozen=True)
class _Background:
    """A background summarized for one model: row (leaf << depth) | a of
    table holds, per slot, what a row with code a at that leaf gets from
    the whole background, in units of 1 / depth!."""

    table: np.ndarray        # (leaves * 2**depth, depth)
    base_value: float        # mean margin over the background
    size: int                # background rows


def _prepare_background(model: GbdtModel, background) -> _Background:
    """Fold the background rows into the model's per-leaf contribution
    table; background is the model-width matrix before category encoding."""
    Z = encode_columns(model.lookup, background)
    if not np.isfinite(Z).all():
        raise DataError("shap_tree needs finite rows and background")
    forest = model.forest
    depth = forest.depth
    n_codes = 1 << depth
    # depth! times a signed weight is an integer, and so is every sum of
    # such integers times row counts: the matrix product below is exact in
    # any order of addition. w[b, a * depth + s] is slot s's weight for a
    # row code a against a background code b.
    w = np.rint(_signed_weights(depth) * factorial(depth))
    w = w.reshape(depth, n_codes, n_codes).transpose(2, 1, 0).reshape(n_codes, -1)
    zc = _path_codes(forest, Z)
    n_leaves = zc.shape[0]
    table = np.empty((n_leaves * n_codes, depth))
    # leaves go in blocks so the dense count and its product stay small
    step = max(1, _CHUNK // (n_codes * depth))
    for start in range(0, n_leaves, step):
        part = zc[start:start + step]
        key = part + (np.arange(part.shape[0]) << depth)[:, None]
        count = np.bincount(key.ravel(), minlength=part.shape[0] << depth)
        block = count.reshape(-1, n_codes).astype(float) @ w
        block *= forest.leaf_value[start:start + step, None]
        table[start * n_codes:(start + part.shape[0]) * n_codes] = (
            block.reshape(-1, depth))
    return _Background(table=table,
                       base_value=float(model_margin(model, background).mean()),
                       size=background.shape[0])


# the last prepared background: (weak reference to its model, (shape,
# bytes) of its float64 matrix, record). The reference is weak so that the
# memo never keeps a model alive; the tuple is read and replaced whole, so
# callers in two threads at worst prepare the same background twice.
_memo = (None, None, None)


def _prepared(model: GbdtModel, background) -> _Background:
    """The prepared background, reused while the model and the background's
    shape and bytes are those of the previous call. Equal bytes are equal
    values, and a background only ever gets a record after passing the
    finite check, so a reused record stands for that check."""
    global _memo
    key = (background.shape, background.tobytes())
    ref, seen, record = _memo
    if ref is None or ref() is not model or seen != key:
        record = _prepare_background(model, background)
        _memo = (weakref.ref(model), key, record)
    return record


def shap_tree(model: GbdtModel, rows, background) -> ShapMatrix:
    """Interventional tree Shapley values for every row, equal to
    shap_exhaustive on the margin within floating-point error. Rows and
    background must have the model's width (or feature names, for tables)
    and finite values."""
    if not isinstance(model, GbdtModel):
        raise ConfigError("shap_tree supports boosted-tree models only")
    forest = model.forest
    depth = forest.depth
    X = encode_columns(model.lookup, model_matrix(model, rows))
    Z = model_matrix(model, background)
    if Z.shape[0] == 0:
        raise DataError("background must be nonempty")
    if not np.isfinite(X).all():
        raise DataError("shap_tree needs finite rows and background")
    bg = _prepared(model, Z)
    n, d = X.shape
    n_leaves = forest.leaf_value.size
    first = np.arange(0, n_leaves << depth, 1 << depth)  # each leaf's table rows
    feat = forest.slot_feat.T                            # (leaves, depth)
    phi = np.empty((n, d))
    step = max(1, _CHUNK // (n_leaves * depth))
    for start in range(0, n, step):
        # (rows, leaves, depth) contributions of each row's codes
        a = _path_codes(forest, X[start:start + step]).T
        contrib = np.take(bg.table, first + a, axis=0)
        rows_in = a.shape[0]
        cell = (np.arange(rows_in) * d)[:, None, None] + feat
        phi[start:start + rows_in] = np.bincount(
            cell.ravel(), weights=contrib.ravel(),
            minlength=rows_in * d).reshape(rows_in, d)
    values = (model.params.learning_rate * phi
              / (bg.size * factorial(depth)))
    return ShapMatrix(values=values, base_value=bg.base_value,
                      feature_names=tuple(model.feature_names_))
