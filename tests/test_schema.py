import numpy as np
import pytest

from icurisk.errors import SchemaError
from icurisk.schema import (FeatureSpec, default_schema, load_schema,
                            save_schema, schema_from_jsonable,
                            schema_to_jsonable, validate_schema)


def test_binary_bounds_are_pinned():
    s = FeatureSpec(name="flag", kind="binary", lower=-5.0, upper=99.0)
    assert (s.lower, s.upper) == (0.0, 1.0)
    assert np.array_equal(s.grid(), [0.0, 1.0])


def test_ordinal_requires_range_and_step():
    with pytest.raises(SchemaError):
        FeatureSpec(name="score", kind="ordinal_score")
    with pytest.raises(SchemaError):
        FeatureSpec(name="score", kind="ordinal_score", lower=0.0, upper=10.0, step=-1.0)
    with pytest.raises(SchemaError):
        # range must be a whole number of steps
        FeatureSpec(name="score", kind="ordinal_score", lower=0.0, upper=10.0, step=3.0)
    s = FeatureSpec(name="score", kind="ordinal_score", lower=3.0, upper=15.0)
    assert s.step == 1.0
    assert np.array_equal(s.grid(), np.arange(3.0, 16.0))


def test_categorical_levels():
    with pytest.raises(SchemaError):
        FeatureSpec(name="unit", kind="categorical")
    with pytest.raises(SchemaError):
        FeatureSpec(name="unit", kind="categorical", levels=("a", "a"))
    s = FeatureSpec(name="unit", kind="categorical", levels=("micu", "sicu", "csru"))
    assert (s.lower, s.upper) == (0.0, 2.0)
    assert np.array_equal(s.grid(), [0.0, 1.0, 2.0])


def test_unit_must_be_a_string():
    with pytest.raises(SchemaError, match="unit must be a string"):
        schema_from_jsonable([{"name": "age", "kind": "continuous",
                               "unit": None}])


def test_unknown_kind_and_empty_name():
    with pytest.raises(SchemaError):
        FeatureSpec(name="x", kind="nominal")
    with pytest.raises(SchemaError):
        FeatureSpec(name="", kind="continuous")


def test_continuous_has_no_grid():
    with pytest.raises(SchemaError):
        FeatureSpec(name="hr", kind="continuous").grid()


def test_duplicate_names_rejected():
    specs = [FeatureSpec(name="a", kind="continuous")] * 2
    with pytest.raises(SchemaError, match="duplicate"):
        validate_schema(specs)


def test_jsonable_round_trip(schema4):
    back = schema_from_jsonable(schema_to_jsonable(schema4))
    assert back == tuple(schema4)


def test_save_load_round_trip(tmp_path, schema4):
    path = tmp_path / "schema.json"
    save_schema(schema4, path)
    assert load_schema(path) == tuple(schema4)


def test_default_schema_shape():
    schema = default_schema()
    assert len(schema) == 17
    names = [s.name for s in schema]
    assert len(set(names)) == 17
    assert "BUN" in names and "Anion gap" in names and "Age" in names
    kinds = {s.kind for s in schema}
    assert kinds <= {"continuous", "binary", "ordinal_score", "categorical"}
    # discrete features must expose usable grids
    for s in schema:
        if s.kind != "continuous":
            assert s.grid().size >= 2
