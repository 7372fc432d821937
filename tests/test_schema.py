import numpy as np
import pytest

from icurisk.errors import SchemaError
from icurisk.schema import (FeatureSpec, default_schema, load_schema,
                            save_schema, schema_from_jsonable,
                            schema_to_jsonable, validate_schema)


def test_binary_bounds_are_pinned():
    s = FeatureSpec(name="flag", kind="binary")
    assert (s.lower, s.upper) == (0.0, 1.0)
    assert np.array_equal(s.grid(), [0.0, 1.0])
    assert FeatureSpec(name="flag", kind="binary", lower=0, upper=1.0) == s
    for bounds, field in (({"lower": -5.0, "upper": 99.0}, "lower"),
                          ({"upper": 99.0}, "upper")):
        with pytest.raises(SchemaError, match=f"feature 'flag': {field} of a "
                                              f"binary feature is"):
            FeatureSpec(name="flag", kind="binary", **bounds)


@pytest.mark.parametrize("fields,named", [
    ({"kind": "continuous", "step": 1.0}, "step"),
    ({"kind": "binary", "step": 1.0}, "step"),
    ({"kind": "categorical", "levels": ("a", "b"), "step": 1.0}, "step"),
    ({"kind": "continuous", "levels": ("a", "b")}, "levels"),
    ({"kind": "binary", "levels": ("no", "yes")}, "levels"),
    ({"kind": "ordinal_score", "lower": 0.0, "upper": 3.0, "levels": ("a",)},
     "levels"),
    ({"kind": "categorical", "levels": ("a", "b", "c"), "upper": 3.0}, "upper"),
    ({"kind": "categorical", "levels": ("a", "b"), "lower": 1.0}, "lower"),
])
def test_a_field_that_means_nothing_for_the_kind_is_refused(fields, named):
    with pytest.raises(SchemaError, match=f"^feature 'x': {named} "):
        FeatureSpec(name="x", **fields)


def test_categorical_bounds_at_their_codes_round_trip():
    s = FeatureSpec(name="unit", kind="categorical", levels=("a", "b", "c"),
                    lower=0, upper=2)
    assert (s.lower, s.upper) == (0.0, 2.0)
    assert schema_from_jsonable(schema_to_jsonable([s])) == (s,)


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


_INVALID = "ordinal feature 'score' has invalid range"


# a bound that is not finite is refused by the field check, which names it
@pytest.mark.parametrize("lower,upper,message", [
    pytest.param(5.0, 5.0, _INVALID, id="5.0-5.0"),
    pytest.param(10.0, 3.0, _INVALID, id="10.0-3.0"),
    pytest.param(0.0, float("inf"),
                 "feature 'score': upper must be a finite number", id="0.0-inf"),
    pytest.param(float("nan"), 10.0,
                 "feature 'score': lower must be a finite number", id="nan-10.0")])
def test_ordinal_range_must_be_finite_and_increasing(lower, upper, message):
    with pytest.raises(SchemaError, match=message):
        FeatureSpec(name="score", kind="ordinal_score", lower=lower, upper=upper)


def test_lower_above_upper_is_refused():
    with pytest.raises(SchemaError, match="feature 'hr': lower > upper"):
        FeatureSpec(name="hr", kind="continuous", lower=200.0, upper=30.0)


@pytest.mark.parametrize("specs", [[], ()])
def test_empty_schema_is_refused(specs):
    with pytest.raises(SchemaError, match="schema is empty"):
        validate_schema(specs)
    with pytest.raises(SchemaError, match="schema is empty"):
        schema_from_jsonable(list(specs))


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
