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
arithmetic. An encoder is its table: fit stores one encoded value per
training category and nothing it was computed from. Three stages derive
fields in __post_init__: the imputer (its reference matrix z-scored, with
the safe divisor, the observed mask, both matrices column-major, and each
reference row's count of observed columns), the encoders' joined lookup
(every table laid over the sorted union of their categories, so one
searchsorted encodes every encoded column of a row) and the scaler (its
divisor and zero-sd columns). So every way of building them (fit,
replace, pickle) has them; they are left out of eq and repr. A batch and
a single row run the same float operations in the same order, so a row
transformed alone equals its row of the batch bit for bit.

The imputer works through a table's missing rows one missing pattern at a
time: the rows that miss the same columns share the gather of the observed
reference columns, and their distances are computed together in blocks of
at most _BLOCK_CELLS cells, so memory stays flat however large a group is.
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
    # z-units, where it is observed and how many columns each row observes
    scale_safe: np.ndarray = field(init=False, compare=False, repr=False)
    z_reference: np.ndarray = field(init=False, compare=False, repr=False)
    observed: np.ndarray = field(init=False, compare=False, repr=False)
    obs_count: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        scale_safe = np.where(self.scale > 0, self.scale, 1.0)
        object.__setattr__(self, "scale_safe", scale_safe)
        # column-major, so that the columns a missing pattern observes
        # gather as whole rows of their transposes
        object.__setattr__(self, "z_reference", np.asfortranarray(
            (self.reference - self.loc) / scale_safe))
        object.__setattr__(self, "observed",
                           np.asfortranarray(~np.isnan(self.reference)))
        object.__setattr__(self, "obs_count", self.observed.sum(axis=1))

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


# Each (observed columns, rows, reference rows) distance block of impute
# holds at most this many cells, 512 KiB of float64, so its peak memory
# stays flat however many rows share a missing pattern.
_BLOCK_CELLS = 1 << 16


def _pattern_groups(missing: np.ndarray) -> list:
    """The row positions of missing, a (rows, d) mask, grouped by equal
    rows. Keys are integers built from 32 columns' bits at a time, each
    word folded into the ranks of the words before it."""
    if missing.shape[0] == 1:
        return [np.zeros(1, dtype=np.intp)]
    bits = np.left_shift(1, np.arange(32, dtype=np.int64))
    key = np.zeros(missing.shape[0], dtype=np.int64)
    for start in range(0, missing.shape[1], 32):
        word = missing[:, start:start + 32]
        key = np.unique((key << 32) | (word @ bits[:word.shape[1]]),
                        return_inverse=True)[1]
    order = np.argsort(key, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(key[order])) + 1)


def impute(imputer: KnnImputer, table: CohortTable) -> CohortTable:
    """Replace each missing entry with the mean of that feature over the k
    nearest training rows having it observed; training mean if none is
    eligible. Discrete features are then snapped to their value grid.
    This is the one column check of the preprocessing path: a table whose
    features differ from the training table's is a SchemaError.

    Rows are imputed by missing pattern: the rows that miss the same
    columns share one gather of the reference's observed columns and one
    count of the dimensions each reference row shares with them, and their
    distances are computed in blocks of at most _BLOCK_CELLS cells. Each
    row's distances are the same float operations in the same order as a
    row imputed alone, so a row's values do not depend on the others."""
    if tuple(table.feature_names) != tuple(imputer.feature_names_):
        raise SchemaError("impute: table schema does not match fitted schema")
    nan = np.isnan(table.X)
    missing_rows = np.flatnonzero(nan.any(axis=1))
    if missing_rows.size == 0:
        return table
    X = table.X.copy()
    for group in _pattern_groups(nan[missing_rows]):
        _impute_group(imputer, X, missing_rows[group])
    return table.with_matrix(X)


def _impute_group(imputer: KnnImputer, X: np.ndarray, rows: np.ndarray) -> None:
    """Impute, in place, the rows of X that miss the same columns."""
    obs_q = ~np.isnan(X[rows[0]])
    unobserved = np.flatnonzero(~obs_q)
    # (observed columns, reference rows): whole rows of the column-major
    # reference arrays
    ZR = imputer.z_reference.T[obs_q]
    # a served row misses few columns: subtract those, in exact integers
    shared = imputer.obs_count - imputer.observed.T[~obs_q].sum(axis=0)
    divisor = np.maximum(shared, 1)
    # at most _BLOCK_CELLS differences and distances per block; with no
    # column observed, every distance is inf and every fill is loc
    step = max(1, _BLOCK_CELLS // max(ZR.size, ZR.shape[1]))
    # a finite cell near the float limit overflows its distances to inf,
    # which leaves the reference rows observed in its column ineligible
    # (one errstate per group: entering one costs about a microsecond)
    with np.errstate(over="ignore"):
        Zq = (X.take(rows, axis=0) - imputer.loc) / imputer.scale_safe
        Zq = Zq.compress(obs_q, axis=1)
        for start in range(0, rows.size, step):
            # (columns, rows, reference rows), summed over its first axis:
            # one column after another, in column order, as numpy sums a
            # single row's column-major (reference rows, columns) gather.
            # Squared and NaN-zeroed in place: np.nansum, without its copy.
            diff2 = ZR[:, None, :] - Zq[start:start + step].T[:, :, None]
            np.square(diff2, out=diff2)
            np.copyto(diff2, 0.0, where=np.isnan(diff2))
            d2 = np.where(shared > 0, diff2.sum(axis=0) / divisor, np.inf)
            for i, dist in zip(rows[start:start + step], d2):
                _fill_row(imputer, X[i], unobserved, dist)


def _fill_row(imputer: KnnImputer, row: np.ndarray, unobserved: np.ndarray,
              d2: np.ndarray) -> None:
    """Fill row's unobserved columns, in place, from its distances d2 to
    the reference rows."""
    finite = np.isfinite(d2)
    for j in unobserved:
        eligible = (imputer.observed[:, j] & finite).nonzero()[0]
        if eligible.size == 0:
            val = imputer.loc[j]
        else:
            # keep the rows at or below the k-th smallest distance, then
            # sort only those, stably, so ties go to the lower row index
            dist = d2[eligible]
            if eligible.size > imputer.k:
                kth = np.partition(dist, imputer.k - 1)[imputer.k - 1]
                close = dist <= kth
                eligible, dist = eligible[close], dist[close]
            near = eligible[np.argsort(dist, kind="stable")[: imputer.k]]
            # the mean as np.mean computes it: the sum over the count
            val = float(imputer.reference[near, j].sum() / near.size)
        if imputer.grids[j] is not None:
            val = _snap_to_grid(val, imputer.grids[j])
        row[j] = val


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
    table: np.ndarray             # the encoded value of each category


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
    means = np.bincount(inverse, weights=y) / counts
    alpha, prior = float(alpha), float(train.y.mean())
    return TargetEncoder(feature=feature, column=j, alpha=alpha,
                         global_mean=prior, category_values=cats,
                         table=(counts * means + alpha * prior) / (counts + alpha))


@dataclass(frozen=True)
class EncoderLookup:
    """The encoders' tables joined over values, the sorted union of their
    category values: table[i, p] is encoder i's value for values[p], or its
    global mean where seen[i, p] says it never saw values[p]. A lookup
    copies stored values and computes none."""

    encoders: tuple
    columns: np.ndarray = field(init=False, compare=False, repr=False)
    values: np.ndarray = field(init=False, compare=False, repr=False)
    table: np.ndarray = field(init=False, compare=False, repr=False)
    seen: np.ndarray = field(init=False, compare=False, repr=False)
    global_mean: np.ndarray = field(init=False, compare=False, repr=False)
    # the flat index of row i of table, column p, is p + offsets[i]
    offsets: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        cats = [enc.category_values for enc in self.encoders]
        values = np.unique(np.concatenate(cats)) if cats else np.empty(0)
        global_mean = np.array([enc.global_mean for enc in self.encoders])
        table = np.repeat(global_mean[:, None], values.size, axis=1)
        seen = np.zeros(table.shape, dtype=bool)
        for i, enc in enumerate(self.encoders):
            at = np.searchsorted(values, enc.category_values)
            table[i, at] = enc.table
            seen[i, at] = True
        derived = dict(
            columns=np.array([enc.column for enc in self.encoders], dtype=np.intp),
            values=values, table=table, seen=seen, global_mean=global_mean,
            offsets=values.size * np.arange(len(self.encoders)))
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def encode_columns(lookup: EncoderLookup, X: np.ndarray) -> np.ndarray:
    """A copy of X with each encoder's column replaced by smoothed target
    means, or X itself if there are no encoders. Missing cells stay
    missing; unseen categories map to the global mean (logged, not an
    error)."""
    if not lookup.encoders:
        return X
    X = X.copy()
    V = X[:, lookup.columns]
    values = lookup.values
    at = np.searchsorted(values, V)
    np.minimum(at, values.size - 1, out=at)
    known = values.take(at) == V
    at += lookup.offsets                    # from here, the index into table
    known &= lookup.seen.take(at)
    observed = ~np.isnan(V)
    unseen = observed & ~known
    if unseen.any():
        for i in np.flatnonzero(unseen.any(axis=0)):
            cats = sorted(set(V[unseen[:, i], i].tolist()))
            log.info("encoder %r: %d unseen categories %s mapped to global mean",
                     lookup.encoders[i].feature, len(cats), cats[:5])
    X[:, lookup.columns] = np.where(
        known, lookup.table.take(at),
        np.where(observed, lookup.global_mean, V))
    return X


# ---------------------------------------------------------------------------
# z-scaling

@dataclass(frozen=True)
class StandardScaler:
    loc: np.ndarray
    scale: np.ndarray  # population sd; zero-sd features transform to 0
    # fixed at fit: the divisor (sd, 1 where it is 0) and the zero-sd columns
    denom: np.ndarray = field(init=False, compare=False, repr=False)
    zero_sd: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "denom",
                           np.where(self.scale > 0, self.scale, 1.0))
        object.__setattr__(self, "zero_sd", np.flatnonzero(self.scale == 0))


def fit_scaler(train: CohortTable) -> StandardScaler:
    if np.isnan(train.X).any():
        raise OrderingError("fit_scaler before imputation: missing values present")
    return StandardScaler(
        loc=train.X.mean(axis=0),
        scale=train.X.std(axis=0),
    )


def _scale_matrix(scaler: StandardScaler, X: np.ndarray) -> np.ndarray:
    if np.isnan(X).any():
        raise OrderingError("scale before imputation: missing values present")
    Z = (X - scaler.loc) / scaler.denom
    Z[:, scaler.zero_sd] = 0.0
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


def fit_inputs(train: CohortTable, weights, who: str):
    """(X, y, w) of a model fit: the matrix, which must have no missing cell,
    the labels as float64, and weights.per_row of the labels (ones when
    weights is None)."""
    X = np.asarray(train.X, dtype=float)
    if np.isnan(X).any():
        raise DataError(f"{who} requires imputed (non-missing) inputs")
    y = np.asarray(train.y, dtype=float)
    w = weights.per_row(train.y) if weights is not None else np.ones(y.shape[0])
    return X, y, w


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
    imputer: KnnImputer
    lookup: EncoderLookup
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
    lookup = EncoderLookup(tuple(fit_encoder(imputed, s.name, config.alpha)
                                 for s in imputed.schema if s.kind in MULTI_LEVEL))
    encoded = encode_columns(lookup, imputed.X)
    scaler = fit_scaler(imputed.with_matrix(encoded))
    return FittedPipeline(
        imputer=imputer,
        lookup=lookup,
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
    return replace(pipeline, lookup=EncoderLookup(()), scaler=scaler,
                   fitted_table=imputed.with_matrix(_scale_matrix(scaler, imputed.X)))


def transform_imputed(pipeline: FittedPipeline, table: CohortTable) -> CohortTable:
    """Replay encode and scale on a table already imputed by pipeline.imputer,
    on one matrix, into one table. Its columns are not checked again: each
    caller passes the table that impute, with the same imputer, checked."""
    X = encode_columns(pipeline.lookup, table.X)
    return table.with_matrix(_scale_matrix(pipeline.scaler, X))


def apply(pipeline: FittedPipeline, table: CohortTable) -> CohortTable:
    """Replay the frozen stages; never reads labels of the transformed rows."""
    return transform_imputed(pipeline, impute(pipeline.imputer, table))
