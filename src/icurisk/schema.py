"""Feature schema: names, kinds, units, and physiologic bounds.

A schema is an ordered tuple of FeatureSpec. The bundled default schema
describes the 17-variable ICU cohort this package models; custom schemas can
be loaded from JSON with the same field layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from math import isfinite

import numpy as np

from .errors import SchemaError

KINDS = ("continuous", "binary", "ordinal_score", "categorical")
MULTI_LEVEL = ("ordinal_score", "categorical")   # discrete, more than two levels


@dataclass(frozen=True)
class FeatureSpec:
    """One feature: its name, measurement kind, unit, and legal value range.

    lower/upper are physiologic truncation bounds (None = unbounded).
    ordinal_score features must declare a finite [lower, upper] and a grid
    step; categorical features declare their level order, and values are the
    integer codes 0..len(levels)-1.
    """

    name: str
    kind: str
    unit: str = ""
    lower: float | None = None
    upper: float | None = None
    step: float | None = None
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.name:
            raise SchemaError("feature name must be non-empty")
        if self.kind not in KINDS:
            raise SchemaError(f"unknown feature kind {self.kind!r} for {self.name!r}")
        if not isinstance(self.unit, str):
            # the report's cohort comparison carries every feature's unit
            raise SchemaError(f"feature {self.name!r}: unit must be a string, "
                              f"got {self.unit!r}")
        if self.kind == "binary":
            object.__setattr__(self, "lower", 0.0)
            object.__setattr__(self, "upper", 1.0)
        elif self.kind == "ordinal_score":
            if self.lower is None or self.upper is None:
                raise SchemaError(f"ordinal feature {self.name!r} needs finite lower/upper")
            if not (isfinite(self.lower) and isfinite(self.upper) and self.lower < self.upper):
                raise SchemaError(f"ordinal feature {self.name!r} has invalid range")
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
            object.__setattr__(self, "levels", tuple(self.levels))
            object.__setattr__(self, "lower", 0.0)
            object.__setattr__(self, "upper", float(len(self.levels) - 1))
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise SchemaError(f"feature {self.name!r}: lower > upper")

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
    out = []
    for s in schema:
        row = {"name": s.name, "kind": s.kind, "unit": s.unit}
        if s.kind == "continuous":
            if s.lower is not None:
                row["lower"] = s.lower
            if s.upper is not None:
                row["upper"] = s.upper
        elif s.kind == "ordinal_score":
            row.update(lower=s.lower, upper=s.upper, step=s.step)
        elif s.kind == "categorical":
            row["levels"] = list(s.levels)
        out.append(row)
    return out


def schema_from_jsonable(rows) -> tuple:
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise SchemaError("schema must be a JSON list of feature objects")
    specs = []
    for i, row in enumerate(rows):
        try:
            specs.append(
                FeatureSpec(
                    name=row["name"],
                    kind=row["kind"],
                    unit=row.get("unit", ""),
                    lower=row.get("lower"),
                    upper=row.get("upper"),
                    step=row.get("step"),
                    levels=tuple(row["levels"]) if "levels" in row else None,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:  # e.g. a string bound
            raise SchemaError(f"schema row {i}: missing or malformed field: {exc!r}") from exc
    return validate_schema(specs)


def save_schema(schema, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema_to_jsonable(schema), fh, indent=2)
        fh.write("\n")


def load_schema(path) -> tuple:
    try:
        with open(path, encoding="utf-8") as fh:
            return schema_from_jsonable(json.load(fh))
    except (OSError, ValueError, SchemaError) as exc:  # ValueError: bad UTF-8 or JSON
        raise SchemaError(f"cannot read schema {path}: {exc}") from exc


def default_schema() -> tuple:
    """The bundled 17-feature ICU schema."""
    text = resources.files("icurisk.data").joinpath("schema_table1.json").read_text("utf-8")
    return schema_from_jsonable(json.loads(text))
