"""Boosted-tree trainer: hand-computed split oracle, invariances, ordered
target statistics, the per-feature split search kept as a reference for
the presorted one, and a per-tree, per-row walk over the grown trees kept
as a reference for the joined forest's margins."""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icurisk.cohort import CohortTable
from icurisk.errors import ConfigError
from icurisk.models import gbdt, predict_proba
from icurisk.models.gbdt import GbdtParams, gbdt_margin, train_gbdt
from icurisk.preprocess import encode_columns, fit_encoder
from icurisk.schema import FeatureSpec
from icurisk.special import weighted_logloss

from conftest import make_table, small_schema


_A = 0.07142857142857142
_B = float(np.nextafter(_A, 1.0))


def _table_1d(x=(0.0, 1.0, 2.0, 3.0)):
    schema = (FeatureSpec(name="x", kind="continuous"),)
    return CohortTable(schema, np.array(x)[:, None], [0, 0, 1, 1])


def _check_stump(x, thr):
    """depth 1, one tree, lr 1, no regularization on four rows labelled
    0, 0, 1, 1: the tree cuts at thr and the margins are -2 and 2."""
    with mock.patch.object(gbdt, "_MIN_CHILD_WEIGHT", 0.0):
        model = train_gbdt(_table_1d(x), GbdtParams(
            depth=1, n_trees=1, learning_rate=1.0, l2_leaf=0.0))
    assert model.base_score == 0.0
    forest = model.forest       # its one tree starts at node 0
    assert forest.feat[0] == 0
    assert forest.thr[0] == thr
    ends = np.array([[x[0]], [x[-1]]])
    margins = gbdt_margin(model, ends)
    assert margins == pytest.approx([-2.0, 2.0])
    p = predict_proba(model, ends)
    assert p[0] == pytest.approx(1 / (1 + np.e ** 2))
    assert p[1] == pytest.approx(1 / (1 + np.e ** -2))


def test_single_stump_hand_oracle():
    """Every number is known. At the 0.5 base rate, g = +-1/2 and h = 1/4
    per row. The best split is x < 1.5 (gain 2.0 beats 2/3 at the outer
    cuts) and the Newton leaf values are -G/H = -+2.
    """
    _check_stump((0.0, 1.0, 2.0, 3.0), 1.5)


def test_stump_on_adjacent_floats_cuts_above_the_left_value():
    # the midpoint of _A and the next float rounds to _A, and x < _A would
    # send every row right
    _check_stump((_A, _A, _B, _B), _B)


def test_min_child_weight_blocks_thin_splits():
    with mock.patch.object(gbdt, "_MIN_CHILD_WEIGHT", 1.0):
        model = train_gbdt(_table_1d(), GbdtParams(
            depth=1, n_trees=1, learning_rate=1.0, l2_leaf=0.0))
    # each side only has h = 0.5 < 1.0, so the tree stays a single leaf
    assert model.forest.feat[0] == -1


def test_row_duplication_leaves_model_unchanged():
    # only true without absolute-scale regularizers: l2_leaf and
    # min_child_weight act on raw gradient sums, which duplication doubles
    table = make_table(60, seed=4, informative=True)
    params = GbdtParams(depth=3, n_trees=20, learning_rate=0.1, l2_leaf=0.0)
    doubled = table.subset(np.r_[np.arange(60), np.arange(60)])
    with mock.patch.object(gbdt, "_MIN_CHILD_WEIGHT", 0.0):
        base = train_gbdt(table, params, seed=1)
        dup = train_gbdt(doubled, params, seed=1)
    assert gbdt_margin(base, table.X) == pytest.approx(
        gbdt_margin(dup, table.X), abs=1e-9)


def test_loss_curve_decreases():
    table = make_table(120, seed=7, informative=True)
    model = train_gbdt(table, GbdtParams(depth=2, n_trees=50), seed=0)
    lc = model.loss_curve
    assert lc.size == 51
    assert lc[-1] < lc[0]
    assert np.all(np.diff(lc) <= 1e-9)


def test_determinism_and_subsample_seed():
    table = make_table(100, seed=9, informative=True)
    p = GbdtParams(depth=2, n_trees=15, subsample=0.7)
    a = train_gbdt(table, p, seed=5)
    b = train_gbdt(table, p, seed=5)
    assert np.array_equal(gbdt_margin(a, table.X), gbdt_margin(b, table.X))
    c = train_gbdt(table, p, seed=6)
    assert not np.array_equal(gbdt_margin(a, table.X), gbdt_margin(c, table.X))


def test_ordered_mode_encodes_categories():
    table = make_table(120, seed=11, informative=True)
    gcs_idx = table.index_of("gcs")
    params = GbdtParams(depth=2, n_trees=10, ordered_mode=True)
    model = train_gbdt(table, params, seed=2)
    (enc,) = model.lookup.encoders
    assert enc.column == gcs_idx
    assert enc.global_mean == pytest.approx(table.y.mean())
    assert np.all(np.diff(enc.category_values) > 0)
    # unseen category values score with the prior, so any two of them agree
    row = table.X[:1].copy()
    row[0, gcs_idx] = 999.0
    m1 = gbdt_margin(model, row)
    row[0, gcs_idx] = -999.0
    m2 = gbdt_margin(model, row)
    assert m1 == pytest.approx(m2)
    # the columns come from the schema; without a multi-level one there is
    # nothing to order
    flat = make_table(30, seed=1, schema=small_schema()[:3])
    with pytest.raises(ConfigError, match="multi-level"):
        train_gbdt(flat, params)


def test_plain_mode_has_no_encoders():
    table = make_table(50, seed=3)
    model = train_gbdt(table, GbdtParams(depth=2, n_trees=5), seed=0)
    assert model.lookup.encoders == ()


def test_ordered_mode_keeps_the_pipelines_target_encoders():
    # one encoder per multi-level column, in column order, each the one
    # fit_encoder gives for that column of the training table
    schema = small_schema() + (
        FeatureSpec(name="unit", kind="categorical", levels=("a", "b", "c")),)
    table = make_table(90, seed=17, schema=schema, informative=True)
    model = train_gbdt(table, GbdtParams(depth=2, n_trees=4,
                                         ordered_mode=True), seed=1)
    names = ("gcs", "unit")
    assert [e.feature for e in model.lookup.encoders] == list(names)
    assert [e.column for e in model.lookup.encoders] == [table.index_of(n) for n in names]
    want = tuple(fit_encoder(table, n) for n in names)
    assert pickle.dumps(model.lookup.encoders) == pickle.dumps(want)
    # a missing category stays missing; it is not scored as the prior
    gcs = table.index_of("gcs")
    row = table.X[:1].copy()
    row[0, gcs] = np.nan
    assert np.isnan(encode_columns(model.lookup, row)[0, gcs])


def test_param_validation():
    with pytest.raises(ConfigError):
        GbdtParams(depth=0)
    with pytest.raises(ConfigError):
        GbdtParams(subsample=0.0)
    with pytest.raises(ConfigError):
        GbdtParams(learning_rate=-0.1)


# ------------------------------------------- per-feature reference search

def _ref_threshold(lo, hi):
    t = 0.5 * (lo + hi)
    return t if lo < t <= hi else hi


def _ref_best_split(X, g, h, l2, min_child_weight):
    """One stable argsort and one scan per feature, in feature order."""
    G = g.sum()
    H = h.sum()
    parent = G * G / (H + l2) if H + l2 > 0 else 0.0
    best_gain = gbdt._MIN_SPLIT_GAIN
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        gl = np.cumsum(g[order])[:-1]
        hl = np.cumsum(h[order])[:-1]
        gr = G - gl
        hr = H - hl
        ok = (xs[1:] > xs[:-1]) & (hl >= min_child_weight) & (hr >= min_child_weight)
        if not ok.any():
            continue
        gain = 0.5 * (gl * gl / (hl + l2) + gr * gr / (hr + l2) - parent)
        gain[~ok] = -np.inf
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = float(gain[i])
            best = (j, _ref_threshold(xs[i], xs[i + 1]))
    return best


def _ref_grow_tree(X, g, h, depth, l2, min_child_weight):
    feat, thr, left, right, value = [], [], [], [], []

    def add(j, t, v):
        node = len(feat)        # a leaf is its own left and right child
        for arr, x in ((feat, j), (thr, t), (left, node), (right, node), (value, v)):
            arr.append(x)
        return node

    def grow(rows, d):
        gs, hs = g[rows], h[rows]
        split = None
        if d > 0 and rows.size >= 2:
            split = _ref_best_split(X[rows], gs, hs, l2, min_child_weight)
        if split is None:
            return add(-1, 0.0, -gs.sum() / max(hs.sum() + l2, 1e-12))
        j, t = split
        node = add(j, t, 0.0)
        mask = X[rows, j] < t
        left[node] = grow(rows[mask], d - 1)
        right[node] = grow(rows[~mask], d - 1)
        return node

    grow(np.arange(X.shape[0]), depth)
    return [np.array(a) for a in (feat, thr, left, right, value)]


def _ref_ordered_column(codes, y, perm, alpha, prior):
    """One cumulative pass per category."""
    enc = np.empty(codes.shape[0])
    codes_p = codes[perm]
    y_p = y[perm].astype(float)
    for c in np.unique(codes_p):
        mask = codes_p == c
        cnt = np.cumsum(mask) - mask
        sm = np.cumsum(mask * y_p) - mask * y_p
        rows = np.flatnonzero(mask)
        enc[perm[rows]] = ((sm + alpha * prior) / (cnt + alpha))[rows]
    return enc


# few distinct values, adjacent floats and signed zeros make heavy ties
_CELL = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, _A, _B])


@st.composite
def _tables(draw, cell=_CELL):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    cols = []
    for _ in range(d):
        if draw(st.booleans()) and draw(st.booleans()):
            cols.append([draw(cell)] * n)      # constant column
        else:
            cols.append(draw(st.lists(cell, min_size=n, max_size=n)))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    w = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
    # x0, ..., x{cats - 1} are the columns ordered mode orders; the other
    # modes ignore kinds
    cats = draw(st.integers(1, d))
    schema = tuple(FeatureSpec(name=f"x{j}", kind="categorical", levels=("a", "b"))
                   if j < cats else FeatureSpec(name=f"x{j}", kind="continuous")
                   for j in range(d))
    return CohortTable(schema, np.array(cols).T, y), _RowWeights(np.array(w))


class _RowWeights:
    """Arbitrary per-row weights, so gradients take many distinct values
    and their sums round."""

    def __init__(self, w):
        self.w = w

    def per_row(self, labels):
        return self.w


@settings(max_examples=60, deadline=None)
@given(table_weights=_tables(), depth=st.integers(1, 4),
       mode=st.sampled_from(["plain", "subsample", "ordered",
                             "ordered_subsample"]),
       l2=st.sampled_from([0.0, 1.0]), mcw=st.sampled_from([0.0, 0.1, 1.0]),
       weighted=st.booleans(), seed=st.integers(0, 3))
def test_presorted_search_matches_per_feature_reference(
        table_weights, depth, mode, l2, mcw, weighted, seed):
    """Every tree equals the one the per-feature search grows on the same
    round's table, gradients and rows, in every mode."""
    kw = dict(depth=depth, n_trees=3, l2_leaf=l2)
    if "subsample" in mode:
        kw["subsample"] = 0.7
    if "ordered" in mode:
        kw["ordered_mode"] = True
    table, weights = table_weights
    weights = weights if weighted else None
    grown = []
    real = gbdt._grow_tree

    def checked(X, g, h, rows, block, d, l2_):
        tree = real(X, g, h, rows, block, d, l2_)
        ref = _ref_grow_tree(X[rows], g[rows], h[rows], d, l2_, mcw)
        got = (tree.feat, tree.thr, tree.left, tree.right, tree.value)
        for name, a, b in zip(("feat", "thr", "left", "right", "value"), got, ref):
            assert np.array_equal(a, b), name
        grown.append(tree)
        return tree

    with mock.patch.object(gbdt, "_MIN_CHILD_WEIGHT", mcw), \
            mock.patch.object(gbdt, "_grow_tree", checked):
        train_gbdt(table, GbdtParams(**kw), weights, seed=seed)
    assert len(grown) == 3


class _PermutationSpy:
    """A generator that records the permutations it draws."""

    def __init__(self, rng, drawn):
        self.rng, self.drawn = rng, drawn

    def permutation(self, n):
        self.drawn.append(self.rng.permutation(n))
        return self.drawn[-1]

    def random(self, n):
        return self.rng.random(n)


@settings(max_examples=40, deadline=None)
@given(table_weights=_tables(), subsample=st.sampled_from([1.0, 0.7]),
       seed=st.integers(0, 3))
def test_each_ordered_round_encodes_the_per_category_loop(table_weights,
                                                          subsample, seed):
    """Every round's table holds, in each multi-level column, the per-column
    reference statistic over that round's permutation, and the training
    table's values in every other column."""
    table, weights = table_weights
    y = np.asarray(table.y, dtype=float)
    encoders = [fit_encoder(table, s.name) for s in table.schema
                if s.kind == "categorical"]
    drawn, rounds = [], []
    real_rng, real_grow = gbdt.derive_rng, gbdt._grow_tree

    def grow(X, *args):
        rounds.append(X.copy())
        return real_grow(X, *args)

    with mock.patch.object(gbdt, "derive_rng",
                           lambda *a: _PermutationSpy(real_rng(*a), drawn)), \
            mock.patch.object(gbdt, "_grow_tree", grow):
        train_gbdt(table, GbdtParams(depth=2, n_trees=3, subsample=subsample,
                                     ordered_mode=True), weights, seed=seed)
    assert len(rounds) == len(drawn) == 3
    for X, perm in zip(rounds, drawn):
        want = table.X.copy()
        for enc in encoders:
            want[:, enc.column] = _ref_ordered_column(
                table.X[:, enc.column], y, perm, enc.alpha, enc.global_mean)
        assert X.tobytes() == want.tobytes()


_CODE = st.sampled_from([0.0, -0.0, 1.0, 3.0, 15.0])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 50), k=st.integers(1, 4), data=st.data())
def test_ordered_column_matches_per_category_loop(n, k, data):
    """k columns at once; a column may hold a single category, and 0.0 and
    -0.0 are one."""
    codes = np.array([data.draw(st.lists(_CODE, min_size=n, max_size=n)
                                | _CODE.map(lambda c: [c] * n))
                      for _ in range(k)])
    alpha = np.array(data.draw(st.lists(st.sampled_from([0.5, 1.0, 10.0]),
                                        min_size=k, max_size=k)))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    perm = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
    prior = float(y.mean())
    want = np.array([_ref_ordered_column(c, y, perm, a, prior)
                     for c, a in zip(codes, alpha)])
    ordered = gbdt._OrderedColumns(codes, y, alpha[:, None], np.full((k, 1), prior))
    assert ordered.ranks.dtype == np.uint8
    assert np.array_equal(ordered(perm), want, equal_nan=True)


# ------------------------------------------------ per-tree reference margin

def _ref_margin(model, trees, X):
    """Walk every grown tree node by node from node 0 for each row; add the
    trees in order. The trees are the grower's own, so this also checks
    how the fit joins them into the model's forest."""
    X = encode_columns(model.lookup, np.asarray(X, dtype=float))
    out = np.full(X.shape[0], model.base_score)
    for tree in trees:
        leaf = np.empty(X.shape[0])
        for i, x in enumerate(X):
            node = 0
            while tree.feat[node] >= 0:
                go_left = x[tree.feat[node]] < tree.thr[node]
                node = tree.left[node] if go_left else tree.right[node]
            leaf[i] = tree.value[node]
        out += model.params.learning_rate * leaf
    return out


@settings(max_examples=60, deadline=None)
@given(table_weights=_tables(), depth=st.integers(1, 4),
       mode=st.sampled_from(["plain", "subsample", "ordered"]),
       chunk=st.sampled_from([1, 5, 1 << 16]), seed=st.integers(0, 3))
def test_margin_matches_per_tree_reference(table_weights, depth, mode, chunk,
                                           seed):
    """Bit for bit, for single rows and batches, rows on a threshold, and
    ordered mode's category statistics (unseen levels included)."""
    kw = dict(depth=depth, n_trees=12)
    if mode == "subsample":
        kw["subsample"] = 0.7
    if mode == "ordered":
        kw["ordered_mode"] = True
    table, weights = table_weights
    grown = []
    real = gbdt._grow_tree

    def kept(*args):
        grown.append(real(*args))
        return grown[-1]

    with mock.patch.object(gbdt, "_CHUNK", chunk), \
            mock.patch.object(gbdt, "_MIN_CHILD_WEIGHT", 0.0), \
            mock.patch.object(gbdt, "_grow_tree", kept):
        model = train_gbdt(table, GbdtParams(**kw), weights, seed=seed)
        rows = [table.X]
        for f, t in zip(model.forest.feat, model.forest.thr):
            if f >= 0:
                on = table.X[:1].copy()
                on[0, f] = t
                rows.append(on)
        unseen = table.X[:1].copy()
        unseen[0, 0] = 99.0
        X = np.vstack(rows + [unseen])
        want = _ref_margin(model, grown, X)
        assert len(grown) == 12
        assert np.array_equal(gbdt_margin(model, X), want)
        single = [gbdt_margin(model, X[i:i + 1])[0] for i in range(X.shape[0])]
        assert np.array_equal(np.array(single), want)
    if mode != "ordered":
        # the training loop's own update reached the same final margins
        y = np.asarray(table.y, dtype=float)
        w = weights.per_row(table.y)
        final = weighted_logloss(want[:table.n], y, w)
        assert model.loss_curve[-1] == final


# +-1 and +-2.5 split at 0.0, so +-0.0 cells meet a threshold of zero
_SIGNED_CELL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, _A, _B])


@settings(max_examples=60, deadline=None)
@given(table_weights=_tables(cell=_SIGNED_CELL), depth=st.integers(1, 5),
       mode=st.sampled_from(["plain", "subsample", "ordered"]),
       seed=st.integers(0, 3))
def test_one_row_through_the_leaf_boxes_is_its_batch_margin(table_weights,
                                                          depth, mode, seed):
    """A one-row matrix takes each tree's leaf by its path slots, a batch
    descends the trees: bit for bit the same margins, rows on a threshold
    and +-0.0 cells included."""
    kw = dict(depth=depth, n_trees=12)
    if mode == "subsample":
        kw["subsample"] = 0.7
    if mode == "ordered":
        kw["ordered_mode"] = True
    table, weights = table_weights
    with mock.patch.object(gbdt, "_MIN_CHILD_WEIGHT", 0.0):
        model = train_gbdt(table, GbdtParams(**kw), weights, seed=seed)
    rows = [table.X]
    for f, t in zip(model.forest.feat, model.forest.thr):
        if f >= 0:
            on = table.X[:1].copy()
            on[0, f] = t
            rows.append(on)
    for j in range(table.d):
        for zero in (0.0, -0.0):
            at = table.X[:1].copy()
            at[0, j] = zero
            rows.append(at)
    X = np.vstack(rows)
    batch = gbdt_margin(model, X)
    with mock.patch.object(gbdt, "slots_hold", wraps=gbdt.slots_hold) as boxes:
        single = np.concatenate([gbdt_margin(model, X[i:i + 1])
                                 for i in range(X.shape[0])])
    assert boxes.call_count == X.shape[0]
    assert single.tobytes() == batch.tobytes()


def test_a_one_row_matrix_with_a_cell_not_finite_descends_the_trees():
    # a NaN cell goes right at every test of its feature, as in a batch;
    # no leaf box holds it, so the row must not take the box path
    table = make_table(120, seed=4, informative=True)
    model = train_gbdt(table, GbdtParams(depth=3, n_trees=30), seed=4)
    rows = []
    for j in range(table.d):
        for bad in (np.nan, np.inf, -np.inf):
            row = table.X[j:j + 1].copy()
            row[0, j] = bad
            rows.append(row)
    X = np.vstack(rows)
    batch = gbdt_margin(model, X)
    with mock.patch.object(gbdt, "slots_hold", wraps=gbdt.slots_hold) as boxes:
        single = np.concatenate([gbdt_margin(model, row) for row in rows])
    assert boxes.call_count == 0
    assert single.tobytes() == batch.tobytes()
