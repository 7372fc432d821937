"""The one path for the package's JSON documents (run config, feature
schema, report.json, manifest.json): read one, write one canonically, and
decode an object into a frozen record that checks each field's type.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, fields


def read_json(path, what: str, error: type):
    """The document at path; error naming what and path if the file cannot
    be read or is not UTF-8 JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8 or JSON
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def write_json(path, document) -> bytes:
    """Sorted keys, indent 1 and no NaN, so equal documents give equal bytes
    (returned); a document that cannot be serialized leaves the file alone."""
    data = json.dumps(document, indent=1, sort_keys=True,
                      allow_nan=False).encode("utf-8") + b"\n"
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def is_number(value) -> bool:
    """An int or float, not a bool, that a float holds finitely: neither
    NaN nor an infinity nor an integer beyond the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# field annotation -> (accepts, description); "T | None" also accepts None
_FIELD_TYPES = {
    "int": (lambda v: is_number(v) and isinstance(v, int), "an integer"),
    "float": (is_number, "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[str, ...]": (lambda v: isinstance(v, (list, tuple)) and all(
        isinstance(s, str) for s in v), "a list of strings"),
}


def check_fields(record, error: type, where: str = "") -> None:
    """error naming the field unless each field of the dataclass record
    holds a value of its annotated type."""
    for f in fields(record):
        value = getattr(record, f.name)
        optional = f.type.endswith(" | None")
        ok, expected = _FIELD_TYPES[f.type.removesuffix(" | None")]
        if not (optional and value is None or ok(value)):
            raise error(f"{where}{f.name} must be {expected}"
                        f"{' or null' if optional else ''}, got "
                        f"{type(value).__name__} {value!r}")


def from_mapping(cls, payload, what: str, error: type):
    """cls(**payload) for a JSON object that names each field of the record
    cls without a default and nothing else; error naming what and the key
    otherwise."""
    if not isinstance(payload, dict):
        raise error(f"{what} must be a JSON object")
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise error(f"unknown {what} keys: {unknown}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in payload:
            raise error(f"{what} is missing the mandatory {f.name!r} key")
    return cls(**payload)
