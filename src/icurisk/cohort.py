"""Cohort data model: the labeled feature table, CSV ingestion/emission,
stratified splitting, and per-class moment summaries.

Missing values are NaN internally and empty cells in CSV. Tables are
immutable after construction; every operation returns a new table.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass

import numpy as np

from ._rng import derive_rng
from .errors import ConfigError, DataError, SchemaError
from .schema import feature_names, validate_schema


def _first_non_number(X, schema) -> str:
    """What is wrong with rows X that numpy cannot read as floats: the
    first cell that is no number, with its feature, when X is a table of
    the schema's width."""
    try:
        cells = np.atleast_2d(np.asarray(X, dtype=object))
    except ValueError:
        cells = None
    if cells is not None and cells.ndim == 2 and cells.shape[1] == len(schema):
        for (i, j), cell in np.ndenumerate(cells):
            try:    # unlike float(), complex() keeps an imaginary part
                if complex(cell).imag == 0:
                    continue
            except (TypeError, ValueError, OverflowError):
                pass
            return (f"row {i}: feature {schema[j].name!r} value {cell!r} "
                    "is not a finite number")
    return f"rows must be a table of {len(schema)} numbers per row"


def float_cells(X, schema) -> np.ndarray:
    """X as a new float64 array, one row or many; a cell that is no number
    is a DataError naming its row and feature. A complex cell is refused,
    whether a complex array, a list or an object array holds it, where
    numpy would keep only its real part, and so is a None cell, which numpy
    would read as NaN: NaN is the one missing marker. A float64 array is
    copied once."""
    try:
        cells = X if isinstance(X, np.ndarray) else np.asarray(X)
        kind = cells.dtype.kind
        if kind != "c" and (kind != "O" or not any(   # np.complex64 is not a complex
                c is None or isinstance(c, (complex, np.complexfloating))
                for c in cells.flat)):
            return np.array(cells, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DataError(_first_non_number(X, schema))


class CohortTable:
    """n x d feature matrix (float64, NaN = missing) with a {0,1} label vector.

    A cell that is no number or is infinite is a DataError naming its row
    and feature. feature_names is the schema's names, built once with the
    table and carried by with_matrix and passed to unlabeled."""

    __slots__ = ("schema", "X", "y", "feature_names")

    def __init__(self, schema, X, y):
        schema = validate_schema(schema)
        X = float_cells(X, schema)
        y = y if isinstance(y, np.ndarray) else np.asarray(y, dtype=object)
        _check_cells(X, schema, y.shape)
        _fill(self, schema, X, _labels(y), feature_names(schema))

    @classmethod
    def unlabeled(cls, schema, names, X) -> "CohortTable":
        """Rows X, one or many, of a schema validated before, whose feature
        names are names, each labelled 0. Only the cells are checked, as
        the constructor checks them: for rows served against a fixed
        schema."""
        X = np.atleast_2d(float_cells(X, schema))
        y = np.zeros(X.shape[0], dtype=np.int64)
        _check_cells(X, schema, y.shape)
        return _fill(object.__new__(cls), schema, X, y, names)

    def __setattr__(self, *_):
        raise AttributeError("CohortTable is immutable")

    def __reduce__(self):  # pickle and deepcopy rebuild through __init__
        return CohortTable, (self.schema, self.X, self.y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def index_of(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise SchemaError(f"no feature named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.index_of(name)]

    def subset(self, rows) -> "CohortTable":
        rows = np.asarray(rows)
        return CohortTable(self.schema, self.X[rows], self.y[rows])

    def drop_features(self, names) -> "CohortTable":
        drop = set(names)
        unknown = drop - set(self.feature_names)
        if unknown:
            raise SchemaError(f"cannot drop unknown features: {sorted(unknown)}")
        keep = [i for i, s in enumerate(self.schema) if s.name not in drop]
        if not keep:
            raise SchemaError("cannot drop every feature")
        return CohortTable([self.schema[i] for i in keep], self.X[:, keep], self.y)

    def with_matrix(self, X) -> "CohortTable":
        """The same schema and labels over another matrix of the same width
        and rows. Both were checked when this table was built, so only the
        matrix is; the labels are copied, not shared, so that a pickle of
        two such tables rebuilds as it was written."""
        X = np.array(X, dtype=np.float64)
        _check_shape(X, self.d, self.y.shape)
        return _fill(object.__new__(CohortTable), self.schema, X,
                     self.y.copy(), self.feature_names)

    def equals(self, other: "CohortTable") -> bool:
        return (
            self.schema == other.schema
            and np.array_equal(self.X, other.X, equal_nan=True)
            and np.array_equal(self.y, other.y)
        )

    def __repr__(self):
        miss = np.isnan(self.X).mean()
        return f"CohortTable(n={self.n}, d={self.d}, event_rate={self.y.mean():.3f}, missing={miss:.3f})"


def _fill(table: CohortTable, schema, X, y, names) -> CohortTable:
    """Set the checked parts of table, its matrix and labels read-only."""
    X.setflags(write=False)
    y.setflags(write=False)
    for slot, value in zip(CohortTable.__slots__, (schema, X, y, names)):
        object.__setattr__(table, slot, value)
    return table


def _labels(y: np.ndarray) -> np.ndarray:
    """The labels y, one per row (an object array holds each as the caller
    gave it), as a new int64 array; a label that is not exactly the number 0
    or 1 (0.5, NaN, 2, "1") is a DataError naming its row."""
    good = ((y == 0) | (y == 1) if y.dtype.kind in "biuf" else np.array(
        [isinstance(v, numbers.Real) and v in (0, 1) for v in y], dtype=bool))
    if not good.all():
        i = int(np.argmin(good))
        raise DataError(f"row {i}: label {y.tolist()[i]!r} is not 0 or 1")
    return np.array(y, dtype=np.int64)


def _check_cells(X: np.ndarray, schema, y_shape: tuple) -> None:
    """Refuse a float matrix that is not n x len(schema) for n labels, or
    has an infinite cell."""
    _check_shape(X, len(schema), y_shape)
    infinite = np.isinf(X)
    if infinite.any():
        i, j = np.argwhere(infinite)[0]
        raise DataError(f"row {i}: feature {schema[j].name!r} "
                        f"value {X[i, j]} is not a finite number")


def _check_shape(X: np.ndarray, d: int, y_shape: tuple) -> None:
    """Refuse a matrix that is not n x d, n >= 1, for n labels."""
    if X.ndim != 2:
        raise DataError(f"feature matrix must be 2-d, got shape {X.shape}")
    if X.shape[0] < 1:
        raise DataError("cohort must contain at least one row")
    if X.shape[1] != d:
        raise SchemaError(f"matrix has {X.shape[1]} columns for {d} features")
    if y_shape != (X.shape[0],):
        raise DataError("label vector length does not match row count")


def validate_values(table: CohortTable, where=None) -> None:
    """Check raw-cohort value constraints (binary in {0,1}, discrete on grid,
    values inside declared bounds). Transformed tables do not satisfy these.
    The error names the first offending row i as where(i), e.g. a CSV line."""
    for j, spec in enumerate(table.schema):
        col = table.X[:, j]
        rules = []
        if spec.lower is not None:
            rules.append((col < spec.lower - 1e-9, f"below lower bound {spec.lower}"))
        if spec.upper is not None:
            rules.append((col > spec.upper + 1e-9, f"above upper bound {spec.upper}"))
        if spec.kind != "continuous":
            rules.append((~np.isin(col, spec.grid()) & ~np.isnan(col),
                          "off the declared grid"))
        for bad, why in rules:
            if bad.any():
                i = int(np.argmax(bad))
                at = where(i) if where else f"row {i}"
                raise DataError(
                    f"{at}: column {spec.name!r} value {float(col[i])} {why}")


# ---------------------------------------------------------------------------
# CSV ingestion / emission

LABEL_COLUMN = "label"


def _format_cell(spec, v) -> str:
    if np.isnan(v):
        return ""
    if spec.kind == "categorical":
        code = int(round(v))
        if code != v or not 0 <= code < len(spec.levels):
            raise DataError(f"{spec.name!r}: {v} is not a valid category code")
        return spec.levels[code]
    return repr(float(v))


def save_cohort(table: CohortTable, path) -> None:
    """Write a cohort CSV: feature columns + final `label` column, empty cell
    = missing. Float cells use shortest round-trip notation, so save->load is
    bit-exact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(table.feature_names) + [LABEL_COLUMN])
        for i in range(table.n):
            row = [_format_cell(s, table.X[i, j]) for j, s in enumerate(table.schema)]
            row.append(str(int(table.y[i])))
            writer.writerow(row)


def _parse_cell(spec, text, where):
    if text == "":
        return np.nan
    if spec.kind == "categorical":
        try:
            return float(spec.levels.index(text))
        except ValueError:
            raise DataError(f"{where}: {text!r} is not a level of {spec.name!r}") from None
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):  # "nan" would otherwise pass for a missing cell
        raise DataError(f"{where}: column {spec.name!r} cell {text!r} "
                        "is not a finite number")
    return value


def load_cohort(path, schema) -> CohortTable:
    """Read a cohort CSV whose header must match the schema names plus `label`."""
    schema = validate_schema(schema)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read cohort {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0]
    expected = list(feature_names(schema)) + [LABEL_COLUMN]
    if header != expected:
        raise SchemaError(f"{path}: header {header!r} does not match schema {expected!r}")
    rows, labels = [], []
    for lineno, cells in enumerate(lines[1:], start=2):
        if len(cells) != len(expected):
            raise DataError(f"{path}:{lineno}: expected {len(expected)} cells, got {len(cells)}")
        rows.append(
            [_parse_cell(schema[j], cells[j], f"{path}:{lineno}") for j in range(len(schema))]
        )
        try:
            label = int(cells[-1])
        except ValueError:
            label = None
        if label not in (0, 1):
            raise DataError(f"{path}:{lineno}: label {cells[-1]!r} is not 0 or 1")
        labels.append(label)
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = CohortTable(schema, np.array(rows), np.array(labels))
    validate_values(table, where=lambda i: f"{path}:{i + 2}")
    return table


# ---------------------------------------------------------------------------
# Stratified splitting

@dataclass(frozen=True)
class SplitIndex:
    train_rows: np.ndarray
    test_rows: np.ndarray


def stratified_split(table: CohortTable, train_fraction: float, seed: int) -> SplitIndex:
    """Seeded per-class shuffle; each class contributes round(count x fraction)
    rows to the train part (round-half-up) and must keep rows on both sides."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
    y = table.y
    classes = np.unique(y)
    if classes.size < 2:
        raise DataError("stratified split needs both classes present")
    rng = derive_rng(seed, "split")
    train_parts, test_parts = [], []
    for c in classes:
        idx = np.flatnonzero(y == c)
        n_train = int(np.floor(idx.size * train_fraction + 0.5))
        if not 0 < n_train < idx.size:
            part = "train" if n_train == 0 else "test"
            raise DataError(f"train_fraction={train_fraction} leaves class {c} "
                            f"({idx.size} rows) with no {part} rows")
        perm = rng.permutation(idx.size)
        train_parts.append(idx[perm[:n_train]])
        test_parts.append(idx[perm[n_train:]])
    train_rows = np.sort(np.concatenate(train_parts))
    test_rows = np.sort(np.concatenate(test_parts))
    return SplitIndex(train_rows=train_rows, test_rows=test_rows)


# ---------------------------------------------------------------------------
# Summaries

@dataclass(frozen=True)
class CohortSummary:
    """Per-class feature moments over a schema: row c of mean and sd, each
    (2, len(schema)), holds class c. A moment is NaN where too few values are
    documented (none for a mean, fewer than 2 for the sample sd)."""

    schema: tuple
    mean: np.ndarray
    sd: np.ndarray

    def __post_init__(self):
        for name in ("mean", "sd"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if value.shape != (2, len(self.schema)):
                raise ConfigError(f"summary {name} has shape {value.shape}, "
                                  f"expected (2, {len(self.schema)})")
            object.__setattr__(self, name, value)


def summarize(table: CohortTable) -> CohortSummary:
    """Per-class mean and sample sd (ddof=1) of every feature."""
    mean = np.full((2, table.d), np.nan)
    sd = np.full((2, table.d), np.nan)
    for c in (0, 1):
        X = table.X[table.y == c]
        count = (~np.isnan(X)).sum(axis=0)
        with np.errstate(invalid="ignore"):
            mean[c] = np.where(count > 0, np.nanmean(X, axis=0), np.nan)
            enough = count >= 2
            if enough.any():
                sd[c] = np.where(enough, np.nanstd(X, axis=0, ddof=1), np.nan)
    return CohortSummary(schema=table.schema, mean=mean, sd=sd)
