"""Preprocessing stages against small hand oracles: k-NN imputation,
smoothed target encoding, z-scaling, class weights, and the fitted pipeline.
"""

import copy
import logging
import pickle
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icurisk.cohort
from icurisk import preprocess
from icurisk.cohort import CohortTable, stratified_split
from icurisk.errors import ConfigError, DataError, OrderingError, SchemaError
from icurisk.models import GbdtParams, predict_proba, train_gbdt
from icurisk.pipeline import Predictor
from icurisk.preprocess import (EncoderLookup, TargetEncoder, _scale_matrix,
                                apply, class_weights, encode_columns,
                                fit_encoder, fit_imputer, fit_pipeline,
                                fit_scaler, impute, without_encoding)
from icurisk.selftest import _same_fit
from icurisk.schema import FeatureSpec
from icurisk.synth import synth_default_cohort

from conftest import make_table, pattern_group_table, small_schema


def _cont_schema(d):
    return tuple(FeatureSpec(name=f"x{j}", kind="continuous") for j in range(d))


# -- imputation --------------------------------------------------------------

def test_impute_hand_oracle():
    # two features, unit variance by construction; query is missing x1 and
    # sits exactly on train row 0 in x0, so rows 0 and 1 are its 2-NN
    schema = _cont_schema(2)
    X = np.array([[0.0, 10.0],
                  [1.0, 20.0],
                  [2.0, 30.0],
                  [9.0, 40.0]])
    train = CohortTable(schema, X, [0, 1, 0, 1])
    imp = fit_imputer(train, k=2)
    q = CohortTable(schema, [[0.2, np.nan]], [0])
    out = impute(imp, q)
    assert out.X[0, 1] == pytest.approx((10.0 + 20.0) / 2)


def test_impute_python_loop_oracle():
    """Brute-force re-implementation of the documented rule on random data."""
    rng = np.random.default_rng(7)
    schema = _cont_schema(3)
    R = rng.normal(size=(25, 3))
    R[rng.random(R.shape) < 0.2] = np.nan
    R[:2] = rng.normal(size=(2, 3))  # keep every feature observed
    train = CohortTable(schema, R, rng.integers(0, 2, 25))
    imp = fit_imputer(train, k=3)
    Q = rng.normal(size=(10, 3))
    Q[rng.random(Q.shape) < 0.4] = np.nan
    Q[np.isnan(Q).all(axis=1), 0] = 0.0
    query = CohortTable(schema, Q, np.zeros(10, dtype=int))
    got = impute(imp, query).X

    loc, sd = imp.loc, np.where(imp.scale > 0, imp.scale, 1.0)
    for i in range(10):
        row = Q[i]
        obs = ~np.isnan(row)
        dists = []
        for r in range(25):
            shared = obs & ~np.isnan(R[r])
            if not shared.any():
                dists.append(np.inf)
                continue
            zq = (row[shared] - loc[shared]) / sd[shared]
            zr = (R[r, shared] - loc[shared]) / sd[shared]
            dists.append(np.sum((zq - zr) ** 2) / shared.sum())
        order = np.argsort(dists, kind="stable")
        for j in np.flatnonzero(~obs):
            elig = [r for r in order if not np.isnan(R[r, j]) and np.isfinite(dists[r])]
            want = R[elig[:3], j].mean() if elig else loc[j]
            assert got[i, j] == pytest.approx(want, abs=1e-12)


def _impute_by_full_sort(imputer, table, distances=None):
    """Reference: each missing row on its own, one distance pass over its
    observed columns and one stable argsort of all training rows, then the
    first k eligible rows in that order, snapped to the grid if discrete.
    Each row's distances are appended to distances if it is a list."""
    X = table.X.copy()
    scale_safe = np.where(imputer.scale > 0, imputer.scale, 1.0)
    ZR = (imputer.reference - imputer.loc) / scale_safe
    ref_obs = ~np.isnan(imputer.reference)
    for i in np.flatnonzero(np.isnan(X).any(axis=1)):
        row = X[i]
        obs_q = ~np.isnan(row)
        if obs_q.any():
            zq = (row[obs_q] - imputer.loc[obs_q]) / scale_safe[obs_q]
            shared = ref_obs[:, obs_q].sum(axis=1)
            with np.errstate(invalid="ignore"):
                d2 = np.nansum((ZR[:, obs_q] - zq) ** 2, axis=1)
            d2 = np.where(shared > 0, d2 / np.maximum(shared, 1), np.inf)
        else:
            d2 = np.full(imputer.reference.shape[0], np.inf)
        if distances is not None:
            distances.append(d2)
        order = np.argsort(d2, kind="stable")
        for j in np.flatnonzero(~obs_q):
            eligible = order[ref_obs[order, j] & np.isfinite(d2[order])]
            X[i, j] = (imputer.loc[j] if eligible.size == 0 else
                       float(imputer.reference[eligible[: imputer.k], j].mean()))
            grid = imputer.grids[j]
            if grid is not None:
                X[i, j] = grid[np.argmin(np.abs(grid - X[i, j]))]
    return X


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_ref=st.integers(1, 40),
       d=st.integers(1, 4), k=st.integers(1, 7),
       missing=st.floats(0.0, 0.8), levels=st.integers(1, 4))
def test_impute_matches_the_full_sort_reference(seed, n_ref, d, k, missing, levels):
    # values on a grid of `levels` points tie distances; a high missing rate
    # leaves rows with no eligible neighbour and rows with nothing observed
    rng = np.random.default_rng(seed)
    schema = _cont_schema(d)
    R = rng.integers(0, levels, size=(n_ref, d)).astype(float)
    R[rng.random(R.shape) < missing] = np.nan
    R[0, np.isnan(R).all(axis=0)] = 0.0  # keep every feature observed
    Q = rng.integers(0, levels, size=(12, d)).astype(float)
    Q[rng.random(Q.shape) < missing] = np.nan
    Q[-1] = np.nan
    imp = fit_imputer(CohortTable(schema, R, rng.integers(0, 2, n_ref)), k=k)
    query = CohortTable(schema, Q, np.zeros(12, dtype=int))
    assert np.array_equal(impute(imp, query).X, _impute_by_full_sort(imp, query))


_IMPUTE_KINDS = {
    "continuous": FeatureSpec(name="c", kind="continuous"),
    "ordinal_score": FeatureSpec(name="o", kind="ordinal_score", lower=0.0,
                                 upper=3.0),
    "binary": FeatureSpec(name="b", kind="binary"),
}


@st.composite
def _grouped_impute_case(draw):
    """(imputer, query table): values on a few levels, so distances tie,
    and the reference rows optionally twice over; query rows that share a
    few missing patterns; a row missing everything, a row with one
    observed column, and optionally a 1e308 cell, whose row's distances
    are inf to every reference row observed in its column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # past 8 columns numpy would sum a contiguous row pairwise
    d = draw(st.integers(1, 10))
    schema = tuple(replace(_IMPUTE_KINDS[kind], name=f"x{j}") for j, kind in
                   enumerate(draw(st.lists(st.sampled_from(sorted(_IMPUTE_KINDS)),
                                           min_size=d, max_size=d))))
    levels, missing = draw(st.integers(1, 4)), draw(st.floats(0.0, 0.7))
    R = rng.integers(0, levels, size=(draw(st.integers(1, 25)), d)).astype(float)
    if draw(st.booleans()):
        R = np.vstack([R, R])
    R[rng.random(R.shape) < missing] = np.nan
    R[0, np.isnan(R).all(axis=0)] = 0.0  # keep every feature observed
    n = draw(st.integers(1, 40))
    Q = rng.integers(0, levels, size=(n, d)).astype(float)
    patterns = rng.random((draw(st.integers(1, 4)), d)) < missing
    Q[patterns[rng.integers(0, len(patterns), n)]] = np.nan
    Q[0] = np.nan
    if n > 1:
        Q[1, 1:] = np.nan
        Q[1, 0] = 1.0
    if draw(st.booleans()):
        Q[-1, -1] = 1e308
    imp = fit_imputer(CohortTable(schema, R, rng.integers(0, 2, len(R))),
                      k=draw(st.integers(1, 8)))
    return imp, CohortTable(schema, Q, np.zeros(n, dtype=int))


@settings(max_examples=80, deadline=None)
@given(_grouped_impute_case(), st.sampled_from([1, 5, 64, 1 << 16]))
def test_grouped_impute_equals_the_per_row_reference(case, block_cells):
    # a small block cap splits the pattern groups into many blocks; each
    # row alone is a one-row table. Squaring a 1e308 cell overflows to inf:
    # the reference lets numpy warn, impute must not. The imputed values
    # rarely depend on the last bit of a distance, so the distances each row
    # is filled from are compared too.
    imp, query = case
    want_d2, got_d2 = [], []

    def fill_row(imputer, row, unobserved, d2):
        got_d2.append(d2.tobytes())
        return fill(imputer, row, unobserved, d2)

    fill = preprocess._fill_row
    with np.errstate(over="ignore"):
        want = _impute_by_full_sort(imp, query, want_d2)
    with mock.patch.object(preprocess, "_BLOCK_CELLS", block_cells), \
            mock.patch.object(preprocess, "_fill_row", fill_row):
        assert impute(imp, query).X.tobytes() == want.tobytes()
    assert sorted(got_d2) == sorted(d2.tobytes() for d2 in want_d2)
    for i in range(query.n):
        assert impute(imp, query.subset([i])).X.tobytes() == want[i].tobytes()


@pytest.mark.parametrize("d", [1, 31, 32, 33, 70])
def test_pattern_groups_are_the_distinct_missing_masks(d):
    # past 32 columns a key takes more than one word
    rng = np.random.default_rng(d)
    patterns = rng.random((5, d)) < 0.5
    patterns[1, -1] = ~patterns[0, -1]
    patterns[1, :-1] = patterns[0, :-1]  # differs in the last column only
    missing = patterns[rng.integers(0, 5, 200)]
    groups = preprocess._pattern_groups(missing)
    assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(200))
    assert all(np.array_equal(g, np.sort(g)) for g in groups)
    assert all((missing[g] == missing[g[0]]).all() for g in groups)
    assert len(groups) == len(np.unique(missing, axis=0))


def test_a_pattern_group_of_many_blocks_equals_the_per_row_reference():
    # at the default cap, a block holds 3 of the 400 rows
    table = pattern_group_table()
    imp = fit_imputer(table)
    assert impute(imp, table).X.tobytes() == _impute_by_full_sort(imp, table).tobytes()


def test_impute_snaps_discrete_features():
    table = make_table(60, seed=11, missing=0.2)
    imp = fit_imputer(table, k=5)
    out = impute(imp, table)
    assert not np.isnan(out.X).any()
    gcs = out.X[:, 3]
    assert np.isin(gcs, table.schema[3].grid()).all()
    vent = out.X[:, 2]
    assert np.isin(vent, [0.0, 1.0]).all()


def test_impute_permutation_equivariance():
    # continuous random data: no exact distance ties, so reordering the
    # training rows must not change any imputed value
    rng = np.random.default_rng(13)
    schema = _cont_schema(3)
    R = rng.normal(size=(30, 3))
    R[rng.random(R.shape) < 0.15] = np.nan
    R[:1] = 0.5
    y = rng.integers(0, 2, 30)
    train = CohortTable(schema, R, y)
    perm = rng.permutation(30)
    train_p = CohortTable(schema, R[perm], y[perm])
    Q = rng.normal(size=(8, 3))
    Q[:, 1] = np.nan
    query = CohortTable(schema, Q, np.zeros(8, dtype=int))
    a = impute(fit_imputer(train, k=4), query).X
    b = impute(fit_imputer(train_p, k=4), query).X
    assert np.array_equal(a, b)


def test_imputer_rejects_unseen_feature_and_bad_k(table40):
    with pytest.raises(ConfigError):
        fit_imputer(table40, k=0)
    X = table40.X.copy()
    X[:, 1] = np.nan
    with pytest.raises(DataError, match="no observed"):
        fit_imputer(table40.with_matrix(X))


def test_imputer_fit_time_arrays_are_the_per_call_expressions():
    # a zero-sd feature exercises the safe divisor
    table = make_table(30, seed=2, missing=0.2)
    X = table.X.copy()
    X[:, 1] = np.where(np.isnan(X[:, 1]), np.nan, 4.0)
    imp = fit_imputer(table.with_matrix(X))
    assert imp.scale[1] == 0.0
    safe = np.where(imp.scale > 0, imp.scale, 1.0)
    assert imp.scale_safe.tobytes() == safe.tobytes()
    assert imp.z_reference.tobytes() == ((imp.reference - imp.loc) / safe).tobytes()
    assert np.array_equal(imp.observed, ~np.isnan(imp.reference))
    # every way of building an imputer derives them again
    for other in (replace(imp, k=2), pickle.loads(pickle.dumps(imp)),
                  copy.deepcopy(imp)):
        assert other.z_reference.tobytes() == imp.z_reference.tobytes()
        assert np.array_equal(other.observed, imp.observed)
    assert "z_reference" not in repr(imp)


def test_impute_schema_mismatch(table40):
    imp = fit_imputer(table40)
    other = make_table(10, seed=1, schema=_cont_schema(4))
    with pytest.raises(SchemaError):
        impute(imp, other)


def test_impute_returns_a_complete_table_itself():
    complete = make_table(30, seed=4)
    assert impute(fit_imputer(make_table(30, seed=5, missing=0.2)),
                  complete) is complete


# -- target encoding ---------------------------------------------------------

def test_encoder_matches_smoothing_formula():
    schema = (FeatureSpec(name="gcs", kind="ordinal_score", lower=3, upper=15),)
    col = np.array([3.0, 3.0, 7.0, 7.0, 7.0, 15.0])
    y = np.array([1, 0, 1, 1, 0, 0])
    train = CohortTable(schema, col[:, None], y)
    enc = fit_encoder(train, "gcs", alpha=10.0)
    ybar = y.mean()
    # 9 is an unseen category: it falls back to the global mean
    levels = np.array([[3.0], [7.0], [15.0], [9.0]])
    assert encode_columns(EncoderLookup((enc,)), levels)[:, 0] == pytest.approx(
        [(2 * 0.5 + 10 * ybar) / 12, (3 * (2 / 3) + 10 * ybar) / 13,
         (1 * 0.0 + 10 * ybar) / 11, ybar])


def test_encode_column_replacement_and_missing_passthrough():
    schema = (FeatureSpec(name="gcs", kind="ordinal_score", lower=3, upper=15),
              FeatureSpec(name="age", kind="continuous"))
    X = np.array([[3.0, 50.0], [7.0, 60.0], [np.nan, 70.0], [15.0, 80.0]])
    train = CohortTable(schema, X, [1, 0, 1, 0])
    enc = fit_encoder(train, "gcs", alpha=1.0)
    assert enc.column == 0
    out = encode_columns(EncoderLookup((enc,)), train.X)
    assert out is not train.X and np.isnan(out[2, 0])  # missing stays missing
    assert np.array_equal(out[:, 1], X[:, 1])  # other columns untouched
    # alpha = 1, global mean 1/2: each seen level has one row
    for i, y_c in ((0, 1.0), (1, 0.0), (3, 0.0)):
        assert out[i, 0] == pytest.approx((y_c + 0.5) / 2)
    assert encode_columns(EncoderLookup(()), train.X) is train.X


def test_encoder_table_is_the_smoothing_formula_of_each_row():
    # the fit-time table against the formula evaluated per row, in the
    # same float operations: every category, an unseen value and a NaN
    schema = (FeatureSpec(name="gcs", kind="ordinal_score", lower=3, upper=15),)
    rng = np.random.default_rng(4)
    col = rng.choice([3.0, 4.0, 8.0, 11.0, 15.0], 60)
    y = rng.integers(0, 2, 60)
    enc = fit_encoder(CohortTable(schema, col[:, None], y), "gcs", alpha=7.0)
    query = np.concatenate([enc.category_values, [9.0, np.nan]])
    out = encode_columns(EncoderLookup((enc,)), query[:, None])[:, 0]

    def per_row(v):
        if np.isnan(v):
            return np.nan
        if v not in enc.category_values:
            return enc.global_mean
        in_c = col == v
        n_c = float(in_c.sum())
        ybar_c = float(y[in_c].sum()) / n_c
        return ((n_c * ybar_c + enc.alpha * enc.global_mean)
                / max(n_c + enc.alpha, 1e-300))

    expect = np.array([per_row(v) for v in query])
    assert out.tobytes() == expect.tobytes()
    assert enc.table.tobytes() == expect[:enc.category_values.size].tobytes()
    assert out[-2] == y.mean()


def test_encoder_rejects_continuous_feature(table40):
    with pytest.raises(ConfigError):
        fit_encoder(table40, "age")
    with pytest.raises(ConfigError):
        fit_encoder(table40, "gcs", alpha=-1.0)


# -- the joined lookup -------------------------------------------------------

def _per_encoder_reference(encoders, X):
    """Each encoder's column encoded cell by cell from its own table: a
    category it saw gives its table value, any other observed value its
    global mean, and a missing cell stays as it was."""
    out = X.copy()
    for enc in encoders:
        for i, v in enumerate(X[:, enc.column]):
            if np.isnan(v):
                continue
            hit = np.flatnonzero(enc.category_values == v)
            out[i, enc.column] = enc.table[hit[0]] if hit.size else enc.global_mean
    return out


_CATEGORIES = (-7.5, -2.0, -0.25, 0.0, 0.5, 1.0, 2.0, 3.0, 3.5, 15.0)
# values no encoder sees, and -0.0, which equals the category 0.0
_OTHERS = (-100.0, -0.0, 0.75, 4.25, 1e9, np.nan)


@st.composite
def _encoders_and_rows(draw):
    """One to four encoders over distinct columns of a wider matrix, each
    with its own sorted category set (overlapping, disjoint, negative,
    fractional or of one category), and rows mixing seen categories,
    unseen values and missing cells."""
    n_enc = draw(st.integers(1, 4))
    d = n_enc + draw(st.integers(0, 2))
    columns = draw(st.permutations(range(d)))[:n_enc]
    encoders = []
    for j in columns:
        cats = sorted(draw(st.lists(st.sampled_from(_CATEGORIES), min_size=1,
                                    max_size=5, unique=True)))
        table = draw(st.lists(st.floats(0.0, 1.0), min_size=len(cats),
                              max_size=len(cats)))
        encoders.append(TargetEncoder(
            feature=f"x{j}", column=j, alpha=10.0,
            global_mean=draw(st.floats(0.0, 1.0)),
            category_values=np.array(cats), table=np.array(table)))
    cell = st.sampled_from(_CATEGORIES + _OTHERS)
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d),
                         min_size=1, max_size=8))
    return tuple(encoders), np.array(rows)


@settings(max_examples=80, deadline=None)
@given(_encoders_and_rows())
def test_joined_lookup_equals_each_encoder_alone(case):
    encoders, X = case
    lookup = EncoderLookup(encoders)
    out = encode_columns(lookup, X)
    assert out.tobytes() == _per_encoder_reference(encoders, X).tobytes()
    for i in range(X.shape[0]):
        assert encode_columns(lookup, X[i:i + 1]).tobytes() == out[i:i + 1].tobytes()


def test_joined_lookup_keeps_each_encoders_table(serving3):
    lookup = serving3[2].lookup
    assert len(lookup.encoders) > 1
    assert np.array_equal(lookup.columns, [e.column for e in lookup.encoders])
    for enc, row, seen in zip(lookup.encoders, lookup.table, lookup.seen):
        assert np.array_equal(lookup.values[seen], enc.category_values)
        assert row[seen].tobytes() == enc.table.tobytes()
        assert (row[~seen] == enc.global_mean).all()


def _fit_time_arrays(stage, names):
    return [getattr(stage, name).tobytes() for name in names]


def test_lookup_and_scaler_fit_time_arrays_survive_replace_and_pickle(serving3):
    lookup = serving3[2].lookup
    table = make_table(20, seed=8)
    X = table.X.copy()
    X[:, 2] = 7.0                               # a zero-sd column
    scaler = fit_scaler(table.with_matrix(X))
    assert scaler.denom.tobytes() == np.where(scaler.scale > 0, scaler.scale,
                                              1.0).tobytes()
    assert scaler.zero_sd.tolist() == [2]
    for stage, names, again in (
            (lookup, ("columns", "values", "table", "seen", "global_mean",
                      "offsets"), replace(lookup, encoders=lookup.encoders)),
            (scaler, ("denom", "zero_sd"), replace(scaler, loc=scaler.loc))):
        want = _fit_time_arrays(stage, names)
        for other in (again, pickle.loads(pickle.dumps(stage)),
                      copy.deepcopy(stage)):
            assert _fit_time_arrays(other, names) == want
        assert names[-1] not in repr(stage)


def test_unseen_categories_log_one_line_per_encoder(caplog):
    # 3.0 is a category of the joined lookup, but only the second encoder
    # saw it; 1.0 only the first
    first = TargetEncoder(feature="a", column=0, alpha=1.0, global_mean=0.5,
                          category_values=np.array([1.0, 2.0]),
                          table=np.array([0.25, 0.75]))
    second = replace(first, feature="b", column=1,
                     category_values=np.array([2.0, 3.0]))
    lookup = EncoderLookup((first, second))
    X = np.array([[3.0, 1.0], [5.0, 2.0], [1.0, np.nan], [3.0, 2.0]])
    with caplog.at_level(logging.INFO, logger="icurisk.preprocess"):
        out = encode_columns(lookup, X)
        assert [r.getMessage() for r in caplog.records] == [
            "encoder 'a': 2 unseen categories [3.0, 5.0] mapped to global mean",
            "encoder 'b': 1 unseen categories [1.0] mapped to global mean"]
        caplog.clear()
        encode_columns(lookup, X[2:3])
        assert caplog.records == []
    assert out[:, 0].tolist() == [0.5, 0.5, 0.25, 0.5]
    assert out[[0, 1, 3], 1].tolist() == [0.5, 0.25, 0.25] and np.isnan(out[2, 1])


# -- scaling -----------------------------------------------------------------

def test_scaler_zero_mean_unit_sd():
    table = make_table(50, seed=21)
    scaler = fit_scaler(table)
    out = _scale_matrix(scaler, table.X)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
    sds = out.std(axis=0)
    assert np.allclose(sds[sds > 0], 1.0)


def test_scaler_constant_feature_maps_to_zero(schema4):
    X = np.random.default_rng(0).normal(size=(20, 4))
    X[:, 2] = 7.0
    table = CohortTable(schema4, X, [0, 1] * 10)
    out = _scale_matrix(fit_scaler(table), table.X)
    assert np.array_equal(out[:, 2], np.zeros(20))


def test_scaler_requires_imputed_input(table40):
    with pytest.raises(OrderingError):
        fit_scaler(table40)  # table40 has missing cells


# -- class weights -----------------------------------------------------------

def test_class_weights_reference_rate():
    labels = np.r_[np.ones(196, dtype=int), np.zeros(804, dtype=int)]
    cw = class_weights(labels)
    assert cw.w1 == pytest.approx(1000 / 196)
    assert cw.w0 == pytest.approx(1000 / 804)
    per = cw.per_row(labels)
    assert per[0] == cw.w1 and per[-1] == cw.w0
    # weighted class masses balance exactly at the rational level
    assert Fraction(cw.n, cw.n1) * Fraction(cw.n1, cw.n) == 1


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 500), data=st.data())
def test_class_weights_identity(n, data):
    k = data.draw(st.integers(1, n - 1))
    labels = np.zeros(n, dtype=int)
    labels[:k] = 1
    cw = class_weights(labels)
    assert (cw.n, cw.n1, cw.n0) == (n, k, n - k)
    assert cw.w1 == n / k and cw.w0 == n / (n - k)
    assert Fraction(cw.n, cw.n1) * Fraction(cw.n1, cw.n) == 1
    assert Fraction(cw.n, cw.n0) * Fraction(cw.n0, cw.n) == 1


def test_class_weights_rejects_degenerate():
    with pytest.raises(DataError):
        class_weights(np.zeros(10, dtype=int))
    with pytest.raises(DataError):
        class_weights(np.array([0, 1, 2]))


# -- pipeline ----------------------------------------------------------------

def test_pipeline_fit_apply(table40):
    pipe = fit_pipeline(table40)
    out = apply(pipe, table40)
    assert not np.isnan(out.X).any()
    assert out.feature_names == table40.feature_names
    # gcs was target-encoded then scaled: no longer on its grid
    assert not np.isin(out.X[:, 3], table40.schema[3].grid()).all()


def test_fitted_table_is_the_transformed_training_table(table40):
    encoded = fit_pipeline(table40)
    for pipe in (encoded, without_encoding(encoded)):
        assert pipe.fitted_table.equals(apply(pipe, table40))
        assert "fitted_table" not in repr(pipe)


def test_pipeline_encode_selection(table40):
    # the multi-level kinds are encoded, the binary flag and the
    # continuous features are not
    encoded = fit_pipeline(table40)
    assert [e.feature for e in encoded.lookup.encoders] == ["gcs"]
    assert without_encoding(encoded).lookup.encoders == ()


def test_without_encoding_shares_the_imputation(table40):
    encoded = fit_pipeline(table40)
    raw = without_encoding(encoded)
    assert raw.imputer is encoded.imputer
    assert raw.imputed_table is encoded.imputed_table
    assert raw.weights is encoded.weights
    # only the scaler is fitted again, on the raw imputed codes
    fresh = fit_scaler(encoded.imputed_table)
    assert np.array_equal(raw.scaler.loc, fresh.loc)
    assert np.array_equal(raw.scaler.scale, fresh.scale)
    assert raw.fitted_table.equals(apply(raw, table40))


def test_pipeline_fit_deterministic(table40):
    pipe = fit_pipeline(table40)
    assert _same_fit(pipe, fit_pipeline(table40))
    assert pipe.imputer.reference.shape == (table40.n, table40.d)


def test_fitted_pipeline_survives_pickle_and_deepcopy(table40):
    pipe = fit_pipeline(table40)
    for copied in (pickle.loads(pickle.dumps(pipe)), copy.deepcopy(pipe)):
        assert _same_fit(copied, pipe)
        assert apply(copied, table40).equals(pipe.fitted_table)


def test_apply_refuses_other_columns_in_impute(table40):
    # the same width under other names, and one column fewer
    pipe = fit_pipeline(table40)
    for other in (make_table(10, seed=1, schema=_cont_schema(4)),
                  make_table(10, seed=1, schema=small_schema()[:3])):
        with pytest.raises(SchemaError, match="^impute: "):
            apply(pipe, other)


def test_apply_never_uses_query_labels(table40):
    pipe = fit_pipeline(table40)
    flipped = CohortTable(table40.schema, table40.X, 1 - table40.y)
    a = apply(pipe, table40)
    b = apply(pipe, flipped)
    assert np.array_equal(a.X, b.X)


@pytest.fixture(scope="module")
def serving3():
    """The serving benchmark's seed-3 cohort and split: the raw training
    and held-out tables and the pipeline fitted on the former."""
    cohort = synth_default_cohort(n=1301, seed=3)
    split = stratified_split(cohort, 0.7, 3)
    train = cohort.subset(split.train_rows)
    return train, cohort.subset(split.test_rows), fit_pipeline(train)


def test_one_row_apply_replays_the_batch_bit_for_bit(serving3):
    # each held-out patient transformed alone must match its row of the
    # batch transform exactly
    _, test, pipe = serving3
    assert pipe.lookup.encoders and np.isnan(test.X).any(axis=1).any()
    batch = apply(pipe, test).X
    for i in range(test.n):
        one = apply(pipe, test.subset([i])).X
        assert one.tobytes() == batch[i:i + 1].tobytes(), i


def test_a_served_row_builds_its_feature_names_at_most_once(serving3,
                                                            monkeypatch):
    # the fitted stages and every table a request makes carry the names
    train, test, pipe = serving3
    model = train_gbdt(pipe.fitted_table, GbdtParams(depth=2, n_trees=5),
                       class_weights(train.y), seed=3)
    predictor = Predictor(schema=train.schema, pipeline=pipe, model=model)
    built = []
    names = icurisk.cohort.feature_names
    monkeypatch.setattr(icurisk.cohort, "feature_names",
                        lambda schema: built.append(1) or names(schema))
    gaps = np.isnan(test.X).any(axis=1)
    for i in (int(np.argmin(gaps)), int(np.argmax(gaps))):   # complete, missing
        built.clear()
        predictor(test.X[i])
        assert len(built) <= 1, i


def test_a_predictor_reply_is_the_batch_probability_bit_for_bit(serving3):
    # the serving benchmark's model: one patient per call, as a server
    # answers, against predict_proba over the whole held-out table
    train, test, pipe = serving3
    model = train_gbdt(pipe.fitted_table, GbdtParams(depth=3, n_trees=100),
                       class_weights(train.y), seed=3)
    predictor = Predictor(schema=train.schema, pipeline=pipe, model=model)
    batch = predict_proba(model, apply(pipe, test))
    assert test.n == 390
    for i in range(test.n):
        assert predictor(test.X[i]).tobytes() == batch[i:i + 1].tobytes(), i


def test_a_served_row_near_the_float_limit_imputes_without_a_warning(serving3):
    # BUN is unbounded above; 1e308 overflows its squared distances to inf,
    # which only makes those reference rows ineligible. pytest turns any
    # warning into an error, so both calls below must stay silent.
    train, test, pipe = serving3
    model = train_gbdt(pipe.fitted_table, GbdtParams(depth=2, n_trees=5),
                       class_weights(train.y), seed=3)
    predictor = Predictor(schema=train.schema, pipeline=pipe, model=model)
    bun = train.feature_names.index("BUN")
    X = test.X.copy()
    gaps = np.isnan(X).any(axis=1) & ~np.isnan(X[:, bun])
    i = int(np.argmax(gaps))
    assert gaps[i]
    X[i, bun] = 1e308
    batch = predict_proba(model, apply(pipe, test.with_matrix(X)))
    assert predictor(X[i]).tobytes() == batch[i:i + 1].tobytes()


def test_a_served_row_that_is_not_finite_numbers_is_a_data_error(serving3):
    # NaN marks a missing cell; an infinite or non-numeric cell is refused,
    # typed and naming its feature, as load_cohort refuses one
    train, test, pipe = serving3
    model = train_gbdt(pipe.fitted_table, GbdtParams(depth=2, n_trees=5),
                       class_weights(train.y), seed=3)
    predictor = Predictor(schema=train.schema, pipeline=pipe, model=model)
    bun = train.feature_names.index("BUN")
    row = np.nan_to_num(test.X[0], nan=1.0)
    for bad in (np.inf, -np.inf):
        X = np.vstack([row, row])
        X[1, bun] = bad
        with pytest.raises(DataError, match=rf"row 1: feature 'BUN' value "
                                            rf"{bad} is not a finite number"):
            predictor(X)
    for bad in ("high", 1 + 2j, 10 ** 400, [1.0]):
        cells = list(row)
        cells[bun] = bad
        with pytest.raises(DataError, match="row 0: feature 'BUN' value .* "
                                            "is not a finite number"):
            predictor(cells)
    with pytest.raises(DataError, match="a table of 17 numbers per row"):
        predictor([list(row), list(row[:5])])
    gap = row.copy()
    gap[bun] = np.nan
    assert 0.0 < float(predictor(gap)[0]) < 1.0


@st.composite
def _train_and_query(draw):
    """A training table whose gcs values are a subset of the grid, and a
    query table with other gcs values (unseen categories), missing cells
    and one row with every cell missing."""
    seed = draw(st.integers(0, 2**32 - 1))
    seen = draw(st.lists(st.sampled_from(np.arange(3.0, 16.0).tolist()),
                         min_size=1, max_size=6, unique=True))
    train = make_table(draw(st.integers(4, 30)), seed=seed,
                       missing=draw(st.sampled_from([0.0, 0.15, 0.4])))
    X = train.X.copy()
    X[:, 3] = np.where(np.isnan(X[:, 3]), np.nan,
                       np.array(seen)[np.arange(train.n) % len(seen)])
    query = make_table(draw(st.integers(2, 12)), seed=seed + 1,
                       missing=draw(st.sampled_from([0.0, 0.3, 0.7])))
    Q = np.vstack([query.X, np.full((1, query.d), np.nan)])
    return (train.with_matrix(X),
            CohortTable(query.schema, Q, np.zeros(Q.shape[0], dtype=int)))


@settings(max_examples=40, deadline=None)
@given(_train_and_query())
def test_one_row_apply_equals_its_batch_row_on_random_tables(tables):
    train, query = tables
    for pipe in (fit_pipeline(train), without_encoding(fit_pipeline(train))):
        batch = apply(pipe, query).X
        for i in range(query.n):
            one = apply(pipe, query.subset([i])).X
            assert one.tobytes() == batch[i:i + 1].tobytes(), i
