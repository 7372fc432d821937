"""Cohort table invariants, CSV round trips, stratified splitting, and
per-class summaries."""

import copy
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icurisk.cohort import (CohortSummary, CohortTable, float_cells,
                            load_cohort, save_cohort, stratified_split,
                            summarize, validate_values)
from icurisk.errors import ConfigError, DataError, SchemaError
from icurisk.schema import FeatureSpec

from conftest import make_table, small_schema


def test_table_is_immutable(table40):
    with pytest.raises(AttributeError):
        table40.X = np.zeros((1, 4))
    with pytest.raises(ValueError):
        table40.X[0, 0] = 1.0


def test_label_validation(schema4):
    X = np.zeros((3, 4))
    with pytest.raises(DataError):
        CohortTable(schema4, X, [0, 1, 2])
    with pytest.raises(DataError):
        CohortTable(schema4, X, [0, 1])
    with pytest.raises(SchemaError):
        CohortTable(schema4, np.zeros((3, 5)), [0, 1, 0])


def test_labels_that_are_not_exactly_0_or_1_are_data_errors(schema4):
    # a fractional label is not truncated to 0, and a missing one is a
    # typed error naming its row, as load_cohort names its line
    X = np.zeros((2, 4))
    for y, want in (([0.5, 1], "row 0: label 0.5"), ([1, np.nan], "row 1: label nan"),
                    ([0, "1"], "row 1: label '1'"), ([None, 1], "row 0: label None"),
                    ([1, 1 + 0j], r"row 1: label \(1\+0j\)"),
                    (np.array([0.0, -1.0]), "row 1: label -1.0")):
        with pytest.raises(DataError, match=want + " is not 0 or 1"):
            CohortTable(schema4, X, y)
    for y in ([1.0, 0.0], [True, False], np.array([1, 0], dtype=np.uint8)):
        table = CohortTable(schema4, X, y)
        assert table.y.dtype == np.int64 and table.y.tolist() == [1, 0]


def test_complex_scalars_in_lists_are_refused_as_complex_arrays_are(schema4):
    # numpy would keep the real part with only a ComplexWarning, which the
    # test suite raises as an error
    row = [50.0, 2.0, 1.0, 9.0]
    for scalar in (np.complex128, np.complex64):
        cells = [row, [50.0, scalar(2 + 3j), 1.0, 9.0]]
        for X in (cells, np.array(cells, dtype=object)):
            with pytest.raises(DataError, match=r"row 1: feature 'lactate' "
                                                r"value .*\(2\+3j\)"):
                CohortTable(schema4, X, [0, 1])
            with pytest.raises(DataError, match=r"row 1: feature 'lactate'"):
                CohortTable.unlabeled(schema4, tuple(s.name for s in schema4), X)
        with pytest.raises(DataError, match="a table of 4 numbers per row"):
            CohortTable(schema4, [row, [50.0, scalar(2), 1.0, 9.0]], [0, 1])


def test_a_none_cell_is_refused_and_nan_is_the_missing_marker(schema4):
    # numpy would read None as NaN, a missing cell that is then imputed
    names = tuple(s.name for s in schema4)
    row = [50.0, 2.0, 1.0, 9.0]
    cells = [row, [50.0, 2.0, 1.0, None]]
    for X in (cells, np.array(cells, dtype=object)):
        with pytest.raises(DataError, match=r"row 1: feature 'gcs' value None "
                                            "is not a finite number"):
            CohortTable(schema4, X, [0, 1])
        with pytest.raises(DataError, match=r"row 1: feature 'gcs' value None"):
            CohortTable.unlabeled(schema4, names, X)
    with pytest.raises(DataError, match=r"row 0: feature 'age' value None"):
        CohortTable.unlabeled(schema4, names, [None, 2.0, 1.0, 9.0])
    gap = CohortTable(schema4, [row, [50.0, 2.0, 1.0, np.nan]], [0, 1])
    assert np.isnan(gap.X[1, 3]) and not np.isnan(gap.X[0]).any()


def test_a_float64_matrix_is_copied_once(schema4):
    X = np.random.default_rng(0).normal(size=(20000, 4))
    tracemalloc.start()
    try:
        cells = float_cells(X, schema4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(cells, X) is False and cells.tobytes() == X.tobytes()
    assert peak < 1.5 * X.nbytes


def test_cells_that_are_no_finite_number_are_data_errors(schema4):
    # NaN marks a missing cell; a non-numeric or infinite cell is refused,
    # typed and naming its row and feature, as load_cohort refuses one
    row = [50.0, 2.0, 1.0, 9.0]
    for bad in ("abc", 1 + 2j, 10 ** 400, [1.0]):
        cells = [row, row[:1] + [bad] + row[2:]]
        with pytest.raises(DataError, match="row 1: feature 'lactate' value "
                                            ".* is not a finite number"):
            CohortTable(schema4, cells, [0, 1])
    for bad in (np.inf, -np.inf):
        X = np.array([row, row])
        X[1, 3] = bad
        with pytest.raises(DataError, match=rf"row 1: feature 'gcs' value "
                                            rf"{bad} is not a finite number"):
            CohortTable(schema4, X, [0, 1])
    with pytest.raises(DataError, match="a table of 4 numbers per row"):
        CohortTable(schema4, [row, row[:2]], [0, 1])
    # an array of complex cells is refused as the list of them is, naming
    # the cell with an imaginary part, not cast to its real parts
    with pytest.raises(DataError, match=r"row 0: feature 'lactate' value "
                                        r"\(2\+3j\) is not a finite number"):
        CohortTable(schema4, np.array([[50, 2 + 3j, 1, 9]]), [1])
    with pytest.raises(DataError, match="a table of 4 numbers per row"):
        CohortTable(schema4, np.array([[50, 2, 1, 9]], dtype=complex), [1])
    gap = np.array([row, row])
    gap[0, 1] = np.nan
    assert np.isnan(CohortTable(schema4, gap, [0, 1]).X[0, 1])


def test_feature_names_are_kept_with_the_table(table40):
    assert table40.feature_names == tuple(s.name for s in table40.schema)
    assert table40.with_matrix(table40.X).feature_names is table40.feature_names
    rows = CohortTable.unlabeled(table40.schema, table40.feature_names,
                                 table40.X[0])
    assert rows.feature_names is table40.feature_names
    assert table40.drop_features(["age"]).feature_names == tuple(
        n for n in table40.feature_names if n != "age")


def test_subset_and_drop(table40):
    sub = table40.subset([0, 5, 7])
    assert sub.n == 3
    assert np.array_equal(sub.X, table40.X[[0, 5, 7]], equal_nan=True)
    smaller = table40.drop_features(["vent"])
    assert smaller.d == 3
    assert "vent" not in smaller.feature_names
    with pytest.raises(SchemaError):
        table40.drop_features(["nope"])
    with pytest.raises(SchemaError):
        table40.drop_features(table40.feature_names)


def test_csv_round_trip_is_bit_exact(tmp_path):
    schema = small_schema() + (
        FeatureSpec(name="unit", kind="categorical", levels=("micu", "sicu")),
    )
    rng = np.random.default_rng(1)
    table = make_table(30, seed=1, missing=0.15, schema=schema)
    # overwrite the categorical column with valid codes
    X = table.X.copy()
    X[:, 4] = rng.integers(0, 2, 30).astype(float)
    X[3, 4] = np.nan
    table = table.with_matrix(X)
    path = tmp_path / "cohort.csv"
    save_cohort(table, path)
    back = load_cohort(path, schema)
    assert back.equals(table)


def test_load_rejects_header_mismatch(tmp_path, schema4):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SchemaError):
        load_cohort(path, schema4)


def test_load_rejects_bad_cells(tmp_path, schema4):
    header = ",".join([s.name for s in schema4] + ["label"])
    path = tmp_path / "bad.csv"
    path.write_text(f"{header}\n20,1.0,0,3,maybe\n")
    with pytest.raises(DataError):
        load_cohort(path, schema4)


def _csv_with_cell(tmp_path, column, text):
    """A clean schema4 cohort CSV whose second data row (line 3) holds text
    in column."""
    path = tmp_path / "cohort.csv"
    save_cohort(make_table(6, seed=8), path)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[lines[0].split(",").index(column)] = text
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_cells(tmp_path, schema4, text):
    # float() parses these, and "nan" would pass for a missing cell
    path = _csv_with_cell(tmp_path, "lactate", text)
    with pytest.raises(DataError, match=r"cohort\.csv:3: column 'lactate'"):
        load_cohort(path, schema4)


@pytest.mark.parametrize("column,text,why", [
    ("lactate", "-5", "below lower bound"),
    ("age", "120.0", "above upper bound"),
])
def test_load_rejects_values_outside_schema_bounds(tmp_path, schema4, column,
                                                   text, why):
    path = _csv_with_cell(tmp_path, column, text)
    with pytest.raises(DataError, match=rf"cohort\.csv:3: column '{column}'.*{why}"):
        load_cohort(path, schema4)


@pytest.mark.parametrize("column,text", [("gcs", "7.5"), ("vent", "0.5")])
def test_load_rejects_discrete_values_off_the_grid(tmp_path, schema4, column,
                                                    text):
    path = _csv_with_cell(tmp_path, column, text)
    with pytest.raises(DataError, match=rf"cohort\.csv:3: column '{column}'.*grid"):
        load_cohort(path, schema4)


@pytest.mark.parametrize("text", ["2", "-1"])
def test_load_rejects_labels_other_than_0_and_1(tmp_path, schema4, text):
    path = _csv_with_cell(tmp_path, "label", text)
    with pytest.raises(DataError, match=r"cohort\.csv:3: label"):
        load_cohort(path, schema4)


@pytest.mark.parametrize("text,message", [
    ("", r"cohort\.csv: empty file"),
    ("{header}\n", r"cohort\.csv: no data rows"),
    ("{header}\n20,1.0,0,3,1\n20,1.0,0,1\n",
     r"cohort\.csv:3: expected 5 cells, got 4"),
])
def test_load_rejects_files_without_complete_rows(tmp_path, schema4, text,
                                                  message):
    header = ",".join([s.name for s in schema4] + ["label"])
    path = tmp_path / "cohort.csv"
    path.write_text(text.format(header=header))
    with pytest.raises(DataError, match=message):
        load_cohort(path, schema4)


def test_load_rejects_an_unknown_categorical_level(tmp_path):
    schema = (FeatureSpec(name="age", kind="continuous"),
              FeatureSpec(name="unit", kind="categorical",
                          levels=("micu", "sicu")))
    path = tmp_path / "cohort.csv"
    path.write_text("age,unit,label\n60,micu,0\n70,ccu,1\n")
    with pytest.raises(DataError,
                       match=r"cohort\.csv:3: 'ccu' is not a level of 'unit'"):
        load_cohort(path, schema)


def test_load_accepts_large_values_under_an_open_bound(tmp_path, schema4):
    # lactate has no upper bound, so 1e308 is inside the schema
    path = _csv_with_cell(tmp_path, "lactate", "1e308")
    assert load_cohort(path, schema4).column("lactate")[1] == 1e308


def test_validate_values_catches_off_grid(schema4):
    table = make_table(20, seed=2)
    validate_values(table)  # clean by construction
    X = table.X.copy()
    X[0, 2] = 0.5  # binary feature off the grid
    with pytest.raises(DataError):
        validate_values(table.with_matrix(X))


def test_split_is_a_partition(table40):
    split = stratified_split(table40, 0.7, seed=4)
    both = np.concatenate([split.train_rows, split.test_rows])
    assert np.array_equal(np.sort(both), np.arange(table40.n))


def test_split_class_counts_round_half_up():
    table = make_table(100, seed=6)
    split = stratified_split(table, 0.75, seed=0)
    y = table.y
    for c in (0, 1):
        total = int((y == c).sum())
        in_train = int((y[split.train_rows] == c).sum())
        assert in_train == int(np.floor(total * 0.75 + 0.5))


def test_split_determinism(table40):
    a = stratified_split(table40, 0.7, seed=9)
    b = stratified_split(table40, 0.7, seed=9)
    assert np.array_equal(a.train_rows, b.train_rows)
    c = stratified_split(table40, 0.7, seed=10)
    assert not np.array_equal(a.train_rows, c.train_rows)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(10, 120), frac=st.floats(0.2, 0.8), seed=st.integers(0, 50))
def test_split_properties(n, frac, seed):
    table = make_table(n, seed=seed)
    counts = np.bincount(table.y, minlength=2)
    n_train = np.floor(counts * frac + 0.5)
    if ((n_train == 0) | (n_train == counts)).any():
        # rounding leaves a class on one side only: the split refuses
        with pytest.raises(DataError, match="train_fraction"):
            stratified_split(table, frac, seed)
        return
    split = stratified_split(table, frac, seed)
    assert np.intersect1d(split.train_rows, split.test_rows).size == 0
    assert split.train_rows.size + split.test_rows.size == n
    # both sides sorted
    assert np.array_equal(split.train_rows, np.sort(split.train_rows))


def test_split_rejects_degenerate(table40):
    with pytest.raises(ConfigError):
        stratified_split(table40, 1.0, 0)
    one_class = CohortTable(table40.schema, table40.X, np.zeros(table40.n, dtype=int))
    with pytest.raises(DataError):
        stratified_split(one_class, 0.7, 0)


def test_split_keeps_every_class_on_both_sides():
    y = np.r_[np.zeros(30, dtype=int), np.ones(12, dtype=int)]
    table = CohortTable(small_schema(), make_table(42, seed=1).X, y)
    # 12 x 0.97 rounds to 12 positives in train and none in test
    with pytest.raises(DataError, match="train_fraction=0.97 .* no test rows"):
        stratified_split(table, 0.97, 0)
    # 12 x 0.03 rounds to no positive in train
    with pytest.raises(DataError, match="train_fraction=0.03 .* no train rows"):
        stratified_split(table, 0.03, 0)


def test_summarize_matches_nan_moments(table40):
    summary = summarize(table40)
    assert summary.schema == table40.schema
    assert summary.mean.shape == summary.sd.shape == (2, table40.d)
    for c in (0, 1):
        Xc = table40.X[table40.y == c]
        assert np.allclose(summary.mean[c], np.nanmean(Xc, axis=0), equal_nan=True)
        assert np.allclose(summary.sd[c], np.nanstd(Xc, axis=0, ddof=1),
                           equal_nan=True)


def test_summary_of_the_wrong_shape_is_rejected(schema4):
    good = np.zeros((2, 4))
    with pytest.raises(ConfigError, match=r"mean has shape \(4,\)"):
        CohortSummary(schema4, np.zeros(4), good)
    with pytest.raises(ConfigError, match=r"sd has shape \(2, 3\)"):
        CohortSummary(schema4, good, np.zeros((2, 3)))
    with pytest.raises(ConfigError, match=r"expected \(2, 4\)"):
        CohortSummary(schema4, np.zeros((3, 4)), good)


def test_unlabeled_rows_check_their_cells_as_the_constructor_does(schema4):
    # the same refusals, with the same messages, labels all 0 and the
    # matrix a read-only copy of the caller's rows
    names = tuple(s.name for s in schema4)
    row = np.array([50.0, 2.0, 1.0, 9.0])
    bad_rows = ([row, row[:2]], [[row]], np.array([[1.0, np.inf, 1.0, 9.0]]),
                [[50, "abc", 1, 9]], np.array([[50, 2 + 3j, 1, 9]]),
                np.zeros((0, 4)), np.zeros((2, 5)))
    for X in bad_rows:
        with pytest.raises((DataError, SchemaError)) as want:
            CohortTable(schema4, X, np.zeros(len(X), dtype=int))
        with pytest.raises(type(want.value), match=re.escape(str(want.value))):
            CohortTable.unlabeled(schema4, names, X)
    table = CohortTable.unlabeled(schema4, names, row)
    assert table.equals(CohortTable(schema4, row[None], [0]))
    assert table.X is not row and not table.X.flags.writeable
    assert not table.y.flags.writeable
    assert pickle.loads(pickle.dumps(table)).equals(table)


def test_table_survives_pickle_and_deepcopy(table40):
    for copied in (pickle.loads(pickle.dumps(table40)), copy.deepcopy(table40)):
        assert copied.equals(table40) and copied is not table40
        assert copied.feature_names == table40.feature_names
        with pytest.raises(AttributeError):
            copied.y = None
        assert not copied.X.flags.writeable
