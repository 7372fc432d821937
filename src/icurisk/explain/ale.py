"""Accumulated local effects on the probability scale.

Bin edges are data quantiles; a row belongs to the bin whose half-open
interval (lower, upper] contains its value, with rows at the global minimum
assigned to the first bin. The local effect of a bin is the mean, over its
rows, of f evaluated at the upper edge minus f at the lower edge with all
other features held at observed values. Effects accumulate from the lowest
edge and the curve is centered so the data-weighted mean (each row weighted
at its bin's upper edge) is zero. Binary features get a single two-level
difference with rows centered at their own level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from ..schema import FeatureSpec


@dataclass(frozen=True)
class AleCurve:
    feature: str
    edges: np.ndarray        # (K+1,) bin edges, strictly increasing
    effects: np.ndarray      # (K+1,) accumulated effect at each edge, effects[0] = 0
    centered: np.ndarray     # (K+1,) effects minus the data-weighted mean
    counts: np.ndarray       # (K,) rows per bin
    edge_counts: np.ndarray  # (K+1,) rows assigned to each edge for centering


def _resolve_feature(table, feature):
    names = list(getattr(table, "feature_names", []))
    if isinstance(feature, str):
        if feature not in names:
            raise ConfigError(f"unknown feature {feature!r}")
        return names.index(feature), feature
    j = int(feature)
    name = names[j] if names else f"x{j}"
    return j, name


def _is_binary(table, j, levels):
    """A two-level column that is binary by schema or holds only 0 and 1; a
    binary column seen at one level is left to the constant-column path."""
    if levels.size != 2:
        return False
    schema = getattr(table, "schema", None)
    if schema is not None:
        spec: FeatureSpec = schema[j]
        if spec.kind == "binary":
            return True
    return set(levels) <= {0.0, 1.0}


def ale(model, table, feature, n_bins: int = 20) -> AleCurve:
    X = np.asarray(getattr(table, "X", table), dtype=float)
    j, name = _resolve_feature(table, feature)
    col = X[:, j]
    if np.isnan(col).any():
        raise DataError(f"feature {name!r} has missing values; impute first")
    n = X.shape[0]

    levels = np.unique(col)
    if _is_binary(table, j, levels):
        lo, hi = levels
        Xhi = X.copy(); Xhi[:, j] = hi
        Xlo = X.copy(); Xlo[:, j] = lo
        delta = float(np.mean(model(Xhi) - model(Xlo)))
        edges = np.array([lo, hi])
        effects = np.array([0.0, delta])
        edge_counts = np.array([np.sum(col == lo), np.sum(col == hi)], dtype=float)
        c = float(edge_counts @ effects / n)
        return AleCurve(name, edges, effects, effects - c,
                        counts=np.array([float(n)]), edge_counts=edge_counts)

    if n_bins < 1:
        raise ConfigError("n_bins must be >= 1")
    edges = np.unique(np.quantile(col, np.linspace(0.0, 1.0, n_bins + 1)))
    if edges.size < 2:
        # constant feature: flat curve
        e = np.array([edges[0], edges[0] + 1.0])
        z = np.zeros(2)
        return AleCurve(name, e, z, z.copy(), counts=np.array([float(n)]),
                        edge_counts=np.array([0.0, float(n)]))

    idx = np.searchsorted(edges, col, side="left") - 1
    idx = np.clip(idx, 0, edges.size - 2)
    counts = np.bincount(idx, minlength=edges.size - 1).astype(float)
    # interpolated quantiles can leave a bin empty; merge it into its left
    # neighbor by deleting the shared edge
    while counts.size > 1 and (counts == 0).any():
        k = int(np.argmin(counts))
        edges = np.delete(edges, max(k, 1))
        idx = np.clip(np.searchsorted(edges, col, side="left") - 1, 0, edges.size - 2)
        counts = np.bincount(idx, minlength=edges.size - 1).astype(float)

    K = edges.size - 1
    deltas = np.zeros(K)
    for k in range(K):
        rows = np.flatnonzero(idx == k)
        Xu = X[rows].copy(); Xu[:, j] = edges[k + 1]
        Xl = X[rows].copy(); Xl[:, j] = edges[k]
        deltas[k] = float(np.mean(model(Xu) - model(Xl)))
    effects = np.concatenate([[0.0], np.cumsum(deltas)])
    edge_counts = np.concatenate([[0.0], counts])
    c = float(edge_counts @ effects / n)
    return AleCurve(name, edges, effects, effects - c, counts=counts,
                    edge_counts=edge_counts)
