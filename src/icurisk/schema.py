"""Feature schema: names, kinds, units, and physiologic bounds.

A schema is an ordered tuple of FeatureSpec. The bundled default schema
describes the 17-variable ICU cohort this package models; custom schemas can
be loaded from JSON with the same field layout.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from ._json import check_fields, from_mapping, read_json, write_json
from .errors import SchemaError

KINDS = ("continuous", "binary", "ordinal_score", "categorical")
MULTI_LEVEL = ("ordinal_score", "categorical")   # discrete, more than two levels


@dataclass(frozen=True)
class FeatureSpec:
    """One feature: its name, measurement kind, unit, and legal value range.

    lower/upper are physiologic truncation bounds (None = unbounded).
    ordinal_score features must declare a finite [lower, upper] and a grid
    step; categorical features declare their level order, and values are the
    integer codes 0..len(levels)-1. Binary and categorical bounds are pinned
    to their codes: a bound left out is set, any other value refused. A step
    is refused on any kind but ordinal_score, levels on any but categorical.
    """

    name: str
    kind: str
    unit: str = ""
    lower: float | None = None
    upper: float | None = None
    step: float | None = None
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        # a JSON row can hold any type, NaN included: refuse it up front
        check_fields(self, SchemaError, f"feature {self.name!r}: ")
        if not self.name:
            raise SchemaError("feature name must be non-empty")
        if self.kind not in KINDS:
            raise SchemaError(f"unknown feature kind {self.kind!r} for {self.name!r}")
        if self.levels is not None:  # a JSON list; a frozen record hashes
            object.__setattr__(self, "levels", tuple(self.levels))
        for field, kind in (("step", "ordinal_score"), ("levels", "categorical")):
            if getattr(self, field) is not None and self.kind != kind:
                raise SchemaError(f"feature {self.name!r}: {field} is only for "
                                  f"a {kind} feature, not a {self.kind} one")
        if self.kind == "binary":
            self._pin_bounds(1.0)
        elif self.kind == "ordinal_score":
            if self.lower is None or self.upper is None or self.lower >= self.upper:
                raise SchemaError(f"ordinal feature {self.name!r} has invalid range: "
                                  "it needs finite lower < upper")
            step = 1.0 if self.step is None else float(self.step)
            if step <= 0:
                raise SchemaError(f"ordinal feature {self.name!r} has non-positive step")
            n_steps = (self.upper - self.lower) / step
            if abs(n_steps - round(n_steps)) > 1e-9:
                raise SchemaError(f"ordinal feature {self.name!r}: range not a multiple of step")
            object.__setattr__(self, "step", step)
        elif self.kind == "categorical":
            if not self.levels:
                raise SchemaError(f"categorical feature {self.name!r} needs levels")
            if len(set(self.levels)) != len(self.levels):
                raise SchemaError(f"categorical feature {self.name!r} has duplicate levels")
            self._pin_bounds(float(len(self.levels) - 1))
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise SchemaError(f"feature {self.name!r}: lower > upper")

    def _pin_bounds(self, upper: float) -> None:
        """Bounds 0 and upper, the first and last codes of a binary or
        categorical feature; a declared bound must be that code."""
        for field, code in (("lower", 0.0), ("upper", upper)):
            given = getattr(self, field)
            if given is not None and given != code:
                raise SchemaError(f"feature {self.name!r}: {field} of a {self.kind} "
                                  f"feature is {code:g}, not {given!r}")
            object.__setattr__(self, field, code)

    def grid(self) -> np.ndarray:
        """Legal values for a discrete feature."""
        if self.kind == "binary":
            return np.array([0.0, 1.0])
        if self.kind == "ordinal_score":
            n = int(round((self.upper - self.lower) / self.step)) + 1
            return self.lower + self.step * np.arange(n)
        if self.kind == "categorical":
            return np.arange(len(self.levels), dtype=float)
        raise SchemaError(f"{self.name!r} is continuous; it has no value grid")


Schema = tuple  # tuple[FeatureSpec, ...]; plain tuple keeps construction cheap


def validate_schema(specs) -> tuple:
    specs = tuple(specs)
    if not specs:
        raise SchemaError("schema is empty")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise SchemaError(f"duplicate feature names: {dupes}")
    return specs


def feature_names(schema) -> tuple:
    return tuple(s.name for s in schema)


def multi_level_indices(schema) -> tuple:
    return tuple(i for i, s in enumerate(schema) if s.kind in MULTI_LEVEL)


def schema_to_jsonable(schema) -> list:
    """One object per feature, of the fields that are set."""
    return [{k: v for k, v in asdict(s).items() if v is not None}
            for s in schema]


def schema_from_jsonable(rows) -> tuple:
    """A list of JSON objects whose keys are FeatureSpec's fields."""
    if not isinstance(rows, list):
        raise SchemaError("schema must be a JSON list of feature objects")
    return validate_schema(
        from_mapping(FeatureSpec, row, f"schema row {i}", SchemaError)
        for i, row in enumerate(rows))


def save_schema(schema, path) -> None:
    write_json(path, schema_to_jsonable(schema))


def load_schema(path) -> tuple:
    rows = read_json(path, "schema", SchemaError)
    try:
        return schema_from_jsonable(rows)
    except SchemaError as exc:
        raise SchemaError(f"schema {path}: {exc}") from exc


def default_schema() -> tuple:
    """The bundled 17-feature ICU schema."""
    return load_schema(resources.files("icurisk.data") / "schema_table1.json")
