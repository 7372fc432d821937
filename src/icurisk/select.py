"""Two-stage feature selection: coverage/variance filtering, then
mutual-information ranking against the binary outcome.

MI is the plug-in estimate sum p(x,y) ln(p(x,y) / (p(x) p(y))) over nonzero
joint cells, in nats. Continuous features are discretized into decile bins
(computed on the data at hand) before MI; coverage counts come from the raw,
pre-imputation cohort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import CohortTable
from .errors import ConfigError, DataError

__all__ = [
    "MIRanking",
    "coverage_filter",
    "mutual_information",
    "decile_bin",
    "rank_features",
]


def coverage_filter(table: CohortTable, max_missing_fraction: float = 0.20,
                    min_documented_patients: int = 100):
    """Returns (kept feature names, report rows). Report rows carry the rule
    that fired: missingness, low documentation, or zero variance."""
    if not 0.0 <= max_missing_fraction <= 1.0:
        raise ConfigError("max_missing_fraction must be in [0, 1]")
    if min_documented_patients < 0:
        raise ConfigError("min_documented_patients must be nonnegative")
    kept, report = [], []
    for j, spec in enumerate(table.schema):
        col = table.X[:, j]
        obs = ~np.isnan(col)
        missing_frac = 1.0 - obs.mean()
        documented = int(obs.sum())
        variance = float(col[obs].var()) if documented else 0.0
        reason = ""
        if missing_frac > max_missing_fraction:
            reason = f"missingness {missing_frac:.3f} > {max_missing_fraction}"
        elif documented < min_documented_patients:
            reason = f"documented in {documented} < {min_documented_patients} patients"
        elif variance <= 0.0:
            reason = f"variance {variance:.3g} <= 0.0"
        if not reason:
            kept.append(spec.name)
        report.append({
            "feature": spec.name,
            "missing_frac": missing_frac,
            "documented": documented,
            "variance": variance,
            "kept": not reason,
            "reason": reason,
        })
    if not kept:
        raise DataError(
            "coverage filter dropped every feature: "
            f"max_missing_fraction={max_missing_fraction}, "
            f"min_documented_patients={min_documented_patients}, "
            f"{table.n} rows")
    return kept, report


def mutual_information(x, y) -> float:
    """Plug-in MI in nats between two discrete vectors."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise DataError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise DataError("mutual_information needs at least one sample")
    _, xi = np.unique(x, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    nx = xi.max() + 1
    ny = yi.max() + 1
    joint = np.bincount(xi * ny + yi, minlength=nx * ny).reshape(nx, ny) / x.size
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    ratio = joint[nz] / (px[:, None] * py[None, :])[nz]
    return float(np.sum(joint[nz] * np.log(ratio)))


def decile_bin(values: np.ndarray, n_bins: int = 10) -> np.ndarray:
    """Quantile-bin a vector into at most n_bins integer codes; duplicate
    quantile edges are merged. NaNs get their own code (treated as a level)."""
    codes = np.full(values.shape, -1, dtype=int)
    obs = ~np.isnan(values)
    if obs.any():
        edges = np.quantile(values[obs], np.linspace(0, 1, n_bins + 1)[1:-1])
        edges = np.unique(edges)
        codes[obs] = np.searchsorted(edges, values[obs], side="right")
    return codes


# MI in nats below which a feature counts as carrying no information
_MI_EPSILON = 1e-3
_MI_BINS = 10             # quantile bins of a continuous feature


@dataclass(frozen=True)
class MIRanking:
    features: tuple       # descending MI, ties alphabetical
    scores: dict          # feature -> MI in nats
    selected: tuple       # top_k features, minus near-zero-MI exclusions
    excluded_near_zero: tuple
    n_bins: int
    epsilon: float


def rank_features(table: CohortTable, top_k: int) -> MIRanking:
    """Rank features by MI with the label; continuous features are decile-
    binned first. Features scoring below _MI_EPSILON nats are flagged and
    left out of the selection. top_k beyond the available count clamps."""
    import warnings

    if top_k < 1:
        raise ConfigError("top_k must be >= 1")
    scores = {}
    for name in table.feature_names:
        j = table.index_of(name)
        col = table.X[:, j]
        if table.schema[j].kind == "continuous":
            x = decile_bin(col, _MI_BINS)
        else:
            x = np.where(np.isnan(col), -1.0, col)
        scores[name] = mutual_information(x, table.y)
    ranked = tuple(sorted(scores, key=lambda f: (-scores[f], f)))
    if top_k > len(ranked):
        warnings.warn(f"top_k={top_k} exceeds {len(ranked)} surviving features; clamped")
        top_k = len(ranked)
    head = ranked[:top_k]
    selected = tuple(f for f in head if scores[f] >= _MI_EPSILON)
    excluded = tuple(f for f in head if scores[f] < _MI_EPSILON)
    return MIRanking(
        features=ranked,
        scores=scores,
        selected=selected,
        excluded_near_zero=excluded,
        n_bins=_MI_BINS,
        epsilon=_MI_EPSILON,
    )
