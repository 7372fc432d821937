"""Preprocessing stages fitted on training data and replayed on held-out
data: KNN imputation, smoothed target encoding, z-scaling, class weights.

Every stage is a frozen parameter object plus a pure transform. Transformed
tables keep the original schema object; kinds and bounds always describe the
raw measurement space, while transformed values live in model space. Every
multi-level discrete feature is target-encoded; without_encoding gives
ordered boosting its raw codes, and the boosted trees score them with the
same encoders (encode_columns).

What a transform reads but does not depend on its input is fixed when the
stage is built, so that one served row costs little more than its own
arithmetic: the imputer keeps its reference matrix z-scored, with the
safe divisor and the observed mask; each encoder keeps one encoded value
per training category. They are derived in __post_init__, so every way of
building a stage (fit, replace, pickle) has them, and are left out of eq
and repr. A batch and a single row run the same float operations in the
same order, so a row transformed alone equals its row of the batch bit for
bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .cohort import CohortTable
from .errors import ConfigError, DataError, OrderingError, SchemaError
from .schema import MULTI_LEVEL

log = logging.getLogger(__name__)

TARGET_ALPHA = 10.0   # prior weight of the smoothed target mean


def _check_schema(stage, fitted_names, table: CohortTable) -> None:
    if tuple(table.feature_names) != tuple(fitted_names):
        raise SchemaError(f"{stage}: table schema does not match fitted schema")


# ---------------------------------------------------------------------------
# KNN imputation

@dataclass(frozen=True)
class KnnImputer:
    """Nearest-neighbor mean imputation.

    Distances are Euclidean over dimensions observed in both rows, on
    internally z-scored values (training mean/sd), divided by the number of
    shared dimensions. Neighbor ties break by lower training-row index.
    """

    k: int
    feature_names_: tuple
    reference: np.ndarray        # training matrix snapshot, NaN = missing
    loc: np.ndarray              # per-feature observed training mean
    scale: np.ndarray            # per-feature observed training sd (population)
    kinds: tuple
    grids: tuple                 # value grid per feature (None for continuous)
    # fixed at fit: the divisor (sd, 1 where it is 0), the reference in
    # z-units and where it is observed
    scale_safe: np.ndarray = field(init=False, compare=False, repr=False)
    z_reference: np.ndarray = field(init=False, compare=False, repr=False)
    observed: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        scale_safe = np.where(self.scale > 0, self.scale, 1.0)
        object.__setattr__(self, "scale_safe", scale_safe)
        object.__setattr__(self, "z_reference",
                           (self.reference - self.loc) / scale_safe)
        object.__setattr__(self, "observed", ~np.isnan(self.reference))

    @property
    def fallback(self) -> np.ndarray:
        """Alias of loc, which perfbench/tracer.py keys imputers on."""
        return self.loc


def fit_imputer(train: CohortTable, k: int = 5) -> KnnImputer:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    X = train.X
    obs = ~np.isnan(X)
    if not obs.any(axis=0).all():
        bad = [s.name for s, seen in zip(train.schema, obs.any(axis=0)) if not seen]
        raise DataError(f"features with no observed training values: {bad}")
    with np.errstate(invalid="ignore"):
        loc = np.nanmean(X, axis=0)
        scale = np.nanstd(X, axis=0)
    grids = tuple(s.grid() if s.kind != "continuous" else None for s in train.schema)
    return KnnImputer(
        k=int(k),
        feature_names_=train.feature_names,
        reference=X.copy(),
        loc=loc,
        scale=scale,
        kinds=tuple(s.kind for s in train.schema),
        grids=grids,
    )


def _snap_to_grid(value: float, grid: np.ndarray) -> float:
    return float(grid[np.argmin(np.abs(grid - value))])


def impute(imputer: KnnImputer, table: CohortTable) -> CohortTable:
    """Replace each missing entry with the mean of that feature over the k
    nearest training rows having it observed; training mean if none is
    eligible. Discrete features are then snapped to their value grid."""
    _check_schema("impute", imputer.feature_names_, table)
    X = table.X.copy()
    missing_rows = np.flatnonzero(np.isnan(X).any(axis=1))
    if missing_rows.size == 0:
        return table
    scale_safe, ZR = imputer.scale_safe, imputer.z_reference
    ref_obs = imputer.observed
    for i in missing_rows:
        row = X[i]
        obs_q = ~np.isnan(row)
        if obs_q.any():
            zq = (row[obs_q] - imputer.loc[obs_q]) / scale_safe[obs_q]
            diff2 = (ZR[:, obs_q] - zq) ** 2
            shared = ref_obs[:, obs_q].sum(axis=1)
            with np.errstate(invalid="ignore"):
                d2 = np.nansum(diff2, axis=1)
            d2 = np.where(shared > 0, d2 / np.maximum(shared, 1), np.inf)
        else:
            d2 = np.full(imputer.reference.shape[0], np.inf)
        finite = np.isfinite(d2)
        for j in np.flatnonzero(~obs_q):
            eligible = np.flatnonzero(ref_obs[:, j] & finite)
            if eligible.size == 0:
                val = imputer.loc[j]
            else:
                # keep the rows at or below the k-th smallest distance, then
                # sort only those, stably, so ties go to the lower row index
                dist = d2[eligible]
                if eligible.size > imputer.k:
                    kth = np.partition(dist, imputer.k - 1)[imputer.k - 1]
                    eligible, dist = eligible[dist <= kth], dist[dist <= kth]
                near = eligible[np.argsort(dist, kind="stable")[: imputer.k]]
                val = float(imputer.reference[near, j].mean())
            if imputer.grids[j] is not None:
                val = _snap_to_grid(val, imputer.grids[j])
            X[i, j] = val
    return table.with_matrix(X)


# ---------------------------------------------------------------------------
# Smoothed target encoding

@dataclass(frozen=True)
class TargetEncoder:
    """Category c maps to (n_c * ybar_c + alpha * ybar) / (n_c + alpha)."""

    feature: str
    column: int                   # the column of feature it replaces
    alpha: float
    global_mean: float
    category_values: np.ndarray   # sorted observed category values
    category_counts: np.ndarray
    category_means: np.ndarray
    # fixed at fit: the encoded value of each category
    table: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        counts = np.asarray(self.category_counts, dtype=np.float64)
        object.__setattr__(self, "table", (
            (counts * self.category_means + self.alpha * self.global_mean)
            / (counts + self.alpha)))


def fit_encoder(train: CohortTable, feature: str,
                alpha: float = TARGET_ALPHA) -> TargetEncoder:
    if alpha < 0:
        raise ConfigError(f"alpha must be >= 0, got {alpha}")
    j = train.index_of(feature)
    spec = train.schema[j]
    if spec.kind not in MULTI_LEVEL:
        raise ConfigError(f"{feature!r} is {spec.kind}; target encoding needs a discrete feature")
    col = train.X[:, j]
    obs = ~np.isnan(col)
    if not obs.any():
        raise DataError(f"{feature!r} has no observed training values to encode")
    values = col[obs]
    y = train.y[obs].astype(float)
    cats, inverse = np.unique(values, return_inverse=True)
    counts = np.bincount(inverse)
    sums = np.bincount(inverse, weights=y)
    return TargetEncoder(
        feature=feature,
        column=j,
        alpha=float(alpha),
        global_mean=float(train.y.mean()),
        category_values=cats,
        category_counts=counts,
        category_means=sums / counts,
    )


def _encode_column(encoder: TargetEncoder, X: np.ndarray, j: int) -> None:
    """Encode column j of X in place; missing cells stay missing."""
    col = X[:, j]
    obs = ~np.isnan(col)
    values = col[obs]
    idx = np.minimum(np.searchsorted(encoder.category_values, values),
                     encoder.category_values.size - 1)
    known = encoder.category_values[idx] == values
    if not known.all():
        unseen = sorted(set(values[~known].tolist()))
        log.info("encoder %r: %d unseen categories %s mapped to global mean",
                 encoder.feature, len(unseen), unseen[:5])
    col[obs] = np.where(known, encoder.table[idx], encoder.global_mean)


def encode_columns(encoders, X: np.ndarray) -> np.ndarray:
    """A copy of X with each encoder's column replaced by smoothed target
    means, or X itself if there are no encoders. Unseen categories map to
    the global mean (logged, not an error)."""
    if not encoders:
        return X
    X = X.copy()
    for enc in encoders:
        _encode_column(enc, X, enc.column)
    return X


# ---------------------------------------------------------------------------
# z-scaling

@dataclass(frozen=True)
class StandardScaler:
    feature_names_: tuple
    loc: np.ndarray
    scale: np.ndarray  # population sd; zero-sd features transform to 0


def fit_scaler(train: CohortTable) -> StandardScaler:
    if np.isnan(train.X).any():
        raise OrderingError("fit_scaler before imputation: missing values present")
    return StandardScaler(
        feature_names_=train.feature_names,
        loc=train.X.mean(axis=0),
        scale=train.X.std(axis=0),
    )


def _scale_matrix(scaler: StandardScaler, X: np.ndarray) -> np.ndarray:
    if np.isnan(X).any():
        raise OrderingError("scale before imputation: missing values present")
    denom = np.where(scaler.scale > 0, scaler.scale, 1.0)
    Z = (X - scaler.loc) / denom
    Z[:, scaler.scale == 0] = 0.0
    return Z


# ---------------------------------------------------------------------------
# Class weights

@dataclass(frozen=True)
class ClassWeights:
    """Inverse-frequency weights: w_y = 1 / f_y on the training fold.

    The integer counts are kept so that w_y * f_y = 1 can be verified as an
    exact rational identity; the float fields are n/count rounded once.
    (The rounded product w1 * (n1/n) misses 1.0 by an ulp for roughly a
    quarter of count pairs, so exactness lives at the count level.)
    """

    w0: float
    w1: float
    n: int
    n0: int
    n1: int

    def per_row(self, labels) -> np.ndarray:
        labels = np.asarray(labels)
        return np.where(labels == 1, self.w1, self.w0).astype(float)


def class_weights(labels) -> ClassWeights:
    labels = np.asarray(labels)
    if not np.isin(labels, (0, 1)).all():
        raise DataError("labels must be 0/1")
    n1 = int(labels.sum())
    n = int(labels.size)
    if n1 in (0, n):
        raise DataError("class weights need both classes present")
    return ClassWeights(w0=n / (n - n1), w1=n / n1, n=n, n0=n - n1, n1=n1)


# ---------------------------------------------------------------------------
# Pipeline

@dataclass(frozen=True)
class PipelineConfig:
    """Its defaults are the pipeline's constants (5 neighbours, alpha 10);
    it is kept for fit_pipeline's public signature."""

    k_neighbors: int = 5
    alpha: float = TARGET_ALPHA


@dataclass(frozen=True)
class FittedPipeline:
    schema: tuple
    imputer: KnnImputer
    encoders: tuple
    scaler: StandardScaler
    weights: ClassWeights
    # the training table after imputation, and after every stage; the
    # latter equals apply(self, train)
    imputed_table: CohortTable = field(default=None, compare=False, repr=False)
    fitted_table: CohortTable = field(default=None, compare=False, repr=False)


def fit_pipeline(train: CohortTable,
                 config: PipelineConfig = PipelineConfig()) -> FittedPipeline:
    """Fit impute -> encode -> scale on the training fold only, encoding the
    schema's multi-level features; the imputed and the transformed fold are
    kept as imputed_table and fitted_table."""
    imputer = fit_imputer(train, config.k_neighbors)
    imputed = impute(imputer, train)
    encoders = tuple(fit_encoder(imputed, s.name, config.alpha)
                     for s in imputed.schema if s.kind in MULTI_LEVEL)
    encoded = encode_columns(encoders, imputed.X)
    scaler = fit_scaler(imputed.with_matrix(encoded))
    return FittedPipeline(
        schema=imputed.schema,
        imputer=imputer,
        encoders=encoders,
        scaler=scaler,
        weights=class_weights(imputed.y),
        imputed_table=imputed,
        fitted_table=imputed.with_matrix(_scale_matrix(scaler, encoded)),
    )


def without_encoding(pipeline: FittedPipeline) -> FittedPipeline:
    """The pipeline that keeps raw category codes, for ordered boosting,
    which orders them itself: imputer, weights and imputed training table
    are shared, and only the scaler is fitted again."""
    imputed = pipeline.imputed_table
    scaler = fit_scaler(imputed)
    return replace(pipeline, encoders=(), scaler=scaler,
                   fitted_table=imputed.with_matrix(_scale_matrix(scaler, imputed.X)))


def transform_imputed(pipeline: FittedPipeline, table: CohortTable) -> CohortTable:
    """Replay encode and scale on a table already imputed by pipeline.imputer,
    on one matrix, into one table."""
    _check_schema("transform", pipeline.scaler.feature_names_, table)
    X = encode_columns(pipeline.encoders, table.X)
    return table.with_matrix(_scale_matrix(pipeline.scaler, X))


def apply(pipeline: FittedPipeline, table: CohortTable) -> CohortTable:
    """Replay the frozen stages; never reads labels of the transformed rows."""
    return transform_imputed(pipeline, impute(pipeline.imputer, table))
