"""Shapley attribution: exact axioms on the exhaustive game, agreement of
the leaf-table Tree SHAP with brute-force enumeration."""

import gc
from math import factorial

import numpy as np
import pytest

from icurisk.cohort import CohortTable
from icurisk.errors import ConfigError, DataError, SchemaError
from icurisk.explain import shapley
from icurisk.explain.shapley import ShapMatrix, shap_exhaustive, shap_tree
from icurisk.models import gbdt
from icurisk.models.cv import ModelSpec, train_model
from icurisk.models.gbdt import GbdtParams, gbdt_margin, train_gbdt
from icurisk.preprocess import encode_columns
from icurisk.schema import FeatureSpec

from conftest import make_table


def test_linear_game_has_closed_form():
    rng = np.random.default_rng(0)
    beta = np.array([2.0, -1.0, 0.5, 3.0])
    f = lambda X: X @ beta + 7.0
    Z = rng.normal(size=(20, 4))
    x = rng.normal(size=4)
    phi = shap_exhaustive(f, x, Z)
    assert phi == pytest.approx(beta * (x - Z.mean(axis=0)), abs=1e-12)


def test_dummy_feature_gets_exactly_zero():
    f = lambda X: np.sin(X[:, 0]) + X[:, 2] ** 2
    rng = np.random.default_rng(1)
    phi = shap_exhaustive(f, rng.normal(size=4), rng.normal(size=(10, 4)))
    assert phi[1] == 0.0 and phi[3] == 0.0


def test_symmetric_players_get_equal_credit():
    # x0 and x1 enter the model identically; with equal background means
    # and x0 == x1 the symmetry axiom forces equal attributions
    f = lambda X: np.exp(X[:, 0] + X[:, 1]) + X[:, 2]
    rng = np.random.default_rng(2)
    Z = rng.normal(size=(12, 3))
    Z[:, 1] = Z[:, 0]
    x = np.array([0.4, 0.4, -1.0])
    phi = shap_exhaustive(f, x, Z)
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)


def test_exhaustive_efficiency():
    rng = np.random.default_rng(3)
    beta = rng.normal(size=5)
    f = lambda X: np.tanh(X @ beta) * 3.0
    Z = rng.normal(size=(15, 5))
    x = rng.normal(size=5)
    phi = shap_exhaustive(f, x, Z)
    assert phi.sum() == pytest.approx(float(f(x[None, :])[0]) - f(Z).mean(),
                                      abs=1e-10)


def test_exhaustive_refuses_wide_inputs():
    f = lambda X: X.sum(axis=1)
    with pytest.raises(ConfigError):
        shap_exhaustive(f, np.zeros(16), np.zeros((3, 16)))
    with pytest.raises(DataError):
        shap_exhaustive(f, np.zeros(3), np.zeros((0, 3)))
    for row, background in ((np.zeros(3), np.zeros((5, 4))),
                            (np.zeros(4), np.zeros((5, 3))),
                            (np.zeros(4), np.zeros(3)),
                            (np.zeros(2), np.zeros((2, 3, 2)))):
        with pytest.raises(SchemaError, match=r"row has \d features"):
            shap_exhaustive(f, row, background)


def test_tree_walk_matches_enumeration():
    table = make_table(120, seed=17, informative=True)
    model = train_gbdt(table, GbdtParams(depth=3, n_trees=12), seed=1)
    Z = table.X[:25]
    rows = table.X[40:46]
    result = shap_tree(model, rows, Z)
    assert isinstance(result, ShapMatrix)
    assert result.values.shape == (6, 4)
    assert result.feature_names == tuple(table.feature_names)
    margin_fn = lambda X: gbdt_margin(model, X)
    for i in range(rows.shape[0]):
        brute = shap_exhaustive(margin_fn, rows[i], Z)
        assert np.max(np.abs(result.values[i] - brute)) < 1e-10


def test_tree_efficiency_per_row():
    table = make_table(200, seed=23, informative=True)
    model = train_gbdt(table, GbdtParams(depth=4, n_trees=30), seed=2)
    Z = table.X[:60]
    rows = table.X[60:90]
    result = shap_tree(model, rows, Z)
    assert result.base_value == pytest.approx(gbdt_margin(model, Z).mean())
    total = result.base_value + result.values.sum(axis=1)
    assert total == pytest.approx(gbdt_margin(model, rows), abs=1e-9)


def test_tree_accepts_tables():
    table = make_table(80, seed=29, informative=True)
    model = train_gbdt(table, GbdtParams(depth=2, n_trees=8), seed=0)
    via_table = shap_tree(model, table.subset(np.arange(5)),
                          table.subset(np.arange(20, 50)))
    via_array = shap_tree(model, table.X[:5], table.X[20:50])
    assert np.array_equal(via_table.values, via_array.values)


def test_tree_checks_input_width_and_values():
    table = make_table(80, seed=31, informative=True)
    model = train_gbdt(table, GbdtParams(depth=2, n_trees=5), seed=0)
    Z = table.X[:20]
    for narrow, wide in ((table.X[:3, :3], Z), (table.X[:3], Z[:, :3]),
                         (np.c_[table.X[:3], table.X[:3, :1]], Z),
                         (table.X[:3], np.c_[Z, Z[:, :1]])):
        with pytest.raises(SchemaError):
            shap_tree(model, narrow, wide)
    rows = table.X[:3].copy()
    rows[1, 0] = np.nan
    with pytest.raises(DataError):
        shap_tree(model, rows, Z)


@pytest.mark.parametrize("ordered", [False, True])
def test_tree_refuses_a_missing_category_in_rows_and_background(monkeypatch,
                                                                ordered):
    # encoding keeps a NaN category missing, so an ordered model refuses
    # it as a plain one does instead of explaining it as the base rate
    table = make_table(80, seed=37, informative=True)
    model = train_gbdt(table, GbdtParams(depth=2, n_trees=5,
                                         ordered_mode=ordered), seed=0)
    monkeypatch.setattr(shapley, "_memo", (None, None, None))
    gcs = table.index_of("gcs")
    rows, Z = table.X[:3].copy(), table.X[10:30].copy()
    rows[1, gcs] = np.nan
    with pytest.raises(DataError, match="finite"):
        shap_tree(model, rows, Z)
    Z[4, gcs] = np.nan
    with pytest.raises(DataError, match="finite"):
        shap_tree(model, table.X[:3], Z)
    assert shapley._memo == (None, None, None)


def _check_against_enumeration(model, rows, Z, tol=1e-10):
    result = shap_tree(model, rows, Z)
    margin_fn = lambda X: gbdt_margin(model, X)
    for i in range(rows.shape[0]):
        brute = shap_exhaustive(margin_fn, rows[i], Z)
        assert np.max(np.abs(result.values[i] - brute)) < tol
    return result


def test_tree_matches_enumeration_at_depth_one():
    table = make_table(100, seed=37, informative=True)
    model = train_gbdt(table, GbdtParams(depth=1, n_trees=15), seed=0)
    _check_against_enumeration(model, table.X[50:56], table.X[:30])


def test_tree_matches_enumeration_with_repeated_features_and_ties():
    """Depth-4 trees on a banded target split one feature more than once on
    a path; background and explained rows sitting exactly on thresholds
    must follow the strict x < t rule."""
    rng = np.random.default_rng(41)
    n = 300
    X = np.column_stack([rng.uniform(0, 10, n), rng.uniform(0, 1, n),
                         rng.integers(0, 3, n).astype(float)])
    y = ((X[:, 0] > 3) & (X[:, 0] < 7)).astype(int) ^ (rng.random(n) < 0.1)
    schema = tuple(FeatureSpec(name=f"x{j}", kind="continuous") for j in range(3))
    model = train_gbdt(CohortTable(schema, X, y),
                       GbdtParams(depth=4, n_trees=8), seed=0)
    forest = model.forest
    bounded = np.isfinite(forest.slot_lo) & np.isfinite(forest.slot_hi)
    assert bounded.any()                    # a feature tested twice on a path
    Z = X[:24].copy()
    rows = X[100:104].copy()
    for i, (f, t) in enumerate(zip(forest.feat[:4, 0], forest.thr[:4, 0])):
        Z[i, f] = t
        rows[i, f] = t
    before = _check_against_enumeration(model, rows, Z)
    with pytest.MonkeyPatch.context() as mp:    # many small blocks
        mp.setattr(shapley, "_CHUNK", 64)
        mp.setattr(shapley, "_memo", (None, None, None))
        assert np.array_equal(shap_tree(model, rows, Z).values, before.values)


def _counting_preparations(monkeypatch):
    prepared = []
    real = shapley._prepare_background

    def prepare(model, background):
        prepared.append(model)
        return real(model, background)

    monkeypatch.setattr(shapley, "_prepare_background", prepare)
    return prepared


def test_tree_prepares_a_background_once_per_model_and_contents(monkeypatch):
    table = make_table(120, seed=43, informative=True)
    params = GbdtParams(depth=3, n_trees=10)
    model = train_gbdt(table, params, seed=0)
    prepared = _counting_preparations(monkeypatch)
    Z = table.X[:30].copy()
    rows = table.X[60:66]
    first = shap_tree(model, rows, Z)
    record = shapley._memo[2]
    again = shap_tree(model, rows, Z.copy())        # equal contents
    assert len(prepared) == 1 and shapley._memo[2] is record
    monkeypatch.setattr(shapley, "_memo", (None, None, None))
    fresh = shap_tree(model, rows, Z)
    assert len(prepared) == 2
    for result in (first, again):
        assert result.values.tobytes() == fresh.values.tobytes()
        assert result.base_value == fresh.base_value
    Z[:15] = Z[15:]                                 # changed in place
    moved = shap_tree(model, rows, Z)
    assert len(prepared) == 3
    assert moved.base_value != fresh.base_value
    assert moved.base_value == pytest.approx(gbdt_margin(model, Z).mean())
    other = train_gbdt(table, params, seed=5)       # same background
    shap_tree(other, rows, Z)
    assert prepared[-1] is other and len(prepared) == 4


def test_tree_checks_inputs_on_a_reused_background(monkeypatch):
    table = make_table(80, seed=47, informative=True)
    model = train_gbdt(table, GbdtParams(depth=2, n_trees=6), seed=0)
    prepared = _counting_preparations(monkeypatch)
    background = table.subset(np.arange(20, 50))
    shap_tree(model, table.subset(np.arange(5)), background)
    renamed = tuple(FeatureSpec(name=f"other{j}", kind="continuous")
                    for j in range(table.d))
    with pytest.raises(SchemaError):
        shap_tree(model, CohortTable(renamed, table.X[:5], table.y[:5]),
                  background)
    with pytest.raises(SchemaError):
        shap_tree(model, table.X[:5],
                  CohortTable(renamed, background.X, background.y))
    rows = table.X[:3].copy()
    rows[1, 2] = np.nan
    with pytest.raises(DataError):
        shap_tree(model, rows, background)
    assert len(prepared) == 1


def test_tree_memo_does_not_keep_its_model_alive():
    table = make_table(60, seed=53, informative=True)
    model = train_gbdt(table, GbdtParams(depth=2, n_trees=4), seed=0)
    shap_tree(model, table.X[:2], table.X[10:30])
    assert shapley._memo[0]() is model
    del model
    gc.collect()
    assert shapley._memo[0]() is None


def _background_pairs(model, background):
    """Every (leaf, background code) pair some background row reaches, in
    leaf then code order, with its row count."""
    Z = encode_columns(model.lookup, np.asarray(background, dtype=float))
    codes = shapley._path_codes(model.forest, Z)
    leaf = np.repeat(np.arange(codes.shape[0]), codes.shape[1])
    pairs, count = np.unique(np.c_[leaf, codes.ravel()], axis=0,
                             return_counts=True)
    return pairs[:, 0], pairs[:, 1], count


def _integer_weights(depth):
    """(b, a, slot) signed pair weights times depth!, from the closed form
    in exact integers."""
    full = (1 << depth) - 1
    w = np.zeros((1 << depth, 1 << depth, depth), dtype=np.int64)
    for a in range(1 << depth):
        for b in range(1 << depth):
            if a | b != full:
                continue
            k, m = bin(a & ~b).count("1"), bin(b & ~a).count("1")
            for s in range(depth):
                if a >> s & 1 and not b >> s & 1:
                    w[b, a, s] = (factorial(depth) * factorial(k - 1)
                                  * factorial(m) // factorial(k + m))
                elif b >> s & 1 and not a >> s & 1:
                    w[b, a, s] = -(factorial(depth) * factorial(k)
                                   * factorial(m - 1) // factorial(k + m))
    return w


def _table_reference(model, rows, background):
    """Tree SHAP in the table's order, term by term: the table summed pair
    by pair in exact integers and scaled by each leaf's value, then per row
    one gather of its codes' table rows and one bincount over (leaf, slot)
    into features."""
    forest = model.forest
    depth = forest.depth
    w = _integer_weights(depth)
    exact = np.zeros((forest.leaf_value.size, 1 << depth, depth), dtype=np.int64)
    for leaf, b, count in zip(*_background_pairs(model, background)):
        exact[leaf] += count * w[b]
    table = (exact.astype(float) * forest.leaf_value[:, None, None]).reshape(-1, depth)
    X = encode_columns(model.lookup, np.asarray(rows, dtype=float))
    n, d = X.shape
    first = np.arange(forest.leaf_value.size) << depth
    phi = np.zeros((n, d))
    for i in range(n):
        a = shapley._path_codes(forest, X[i:i + 1])[:, 0]
        phi[i] = np.bincount(forest.slot_feat.T.ravel(),
                             weights=table[first + a].ravel(), minlength=d)
    size = np.asarray(background).shape[0]
    return model.params.learning_rate * phi / (size * factorial(depth))


def _per_pair_reference(model, rows, background):
    """Tree SHAP's arithmetic pair by pair: every (row, slot, pair) product,
    dead pairs and dummy slots included, with the pair weights recomputed
    on each call."""
    X = encode_columns(model.lookup, np.asarray(rows, dtype=float))
    forest = model.forest
    depth = forest.depth
    full = (1 << depth) - 1
    w_in, w_out = shapley._pair_weights(depth)
    leaf, b, count = _background_pairs(model, background)
    weight = count * forest.leaf_value[leaf]
    shift = np.arange(depth)[:, None]
    a = shapley._path_codes(forest, X)[leaf].T[:, None, :]
    x_only = (a & ~b) >> shift & 1                      # (rows, depth, pairs)
    z_only = (b & ~a) >> shift & 1
    k = x_only.sum(axis=1)
    m = z_only.sum(axis=1)
    w = np.where((a[:, 0] | b) == full, weight, 0.0)
    contrib = (x_only * (w * w_in[k, m])[:, None]
               - z_only * (w * w_out[k, m])[:, None])
    n, d = X.shape
    cell = np.arange(n)[:, None, None] * d + forest.slot_feat[:, leaf]
    phi = np.bincount(cell.ravel(), weights=contrib.ravel(),
                      minlength=n * d).reshape(n, d)
    return model.params.learning_rate * phi / np.asarray(background).shape[0]


@pytest.mark.parametrize("ordered", [False, True])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_tree_is_bit_identical_to_the_per_pair_arithmetic(monkeypatch, depth,
                                                          ordered):
    """Bit for bit the table built pair by pair, then gathered per row; and
    within 1e-12 of the largest value the per-row sum over every pair."""
    table = make_table(160, seed=59 + depth, informative=True)
    model = train_gbdt(table, GbdtParams(depth=depth, n_trees=6,
                                         ordered_mode=ordered), seed=depth)
    assert model.forest.depth == depth and bool(model.lookup.encoders) == ordered
    Z = table.X[:50]
    for chunk in (shapley._CHUNK, 64):
        monkeypatch.setattr(shapley, "_CHUNK", chunk)
        monkeypatch.setattr(shapley, "_memo", (None, None, None))
        for rows in (table.X[60:61], table.X[61:63], table.X[70:110]):
            got = shap_tree(model, rows, Z).values
            assert got.tobytes() == _table_reference(model, rows, Z).tobytes()
            pairwise = _per_pair_reference(model, rows, Z)
            assert (np.max(np.abs(got - pairwise))
                    <= 1e-12 * np.max(np.abs(pairwise)))
        batch = shap_tree(model, table.X[70:110], Z).values
        one = shap_tree(model, table.X[75:76], Z).values
        assert one[0].tobytes() == batch[5].tobytes()


def test_tree_table_shape_does_not_depend_on_the_background(monkeypatch):
    table = make_table(200, seed=67, informative=True)
    model = train_gbdt(table, GbdtParams(depth=3, n_trees=9), seed=0)
    leaves = model.forest.leaf_value.size
    for size in (1, 7, 150):
        monkeypatch.setattr(shapley, "_memo", (None, None, None))
        shap_tree(model, table.X[:2], table.X[:size])
        assert shapley._memo[2].table.shape == (leaves << 3, 3)
        assert shapley._memo[2].size == size


def test_tree_refuses_depth_over_eight_before_any_work(monkeypatch):
    """The boosting parameters refuse the depth, so no tree that deep is
    ever fitted or explained."""
    fits = []
    monkeypatch.setattr(gbdt, "_grow_tree", lambda *a: fits.append(a))
    with pytest.raises(ConfigError, match="depth 9"):
        GbdtParams(depth=9, n_trees=1)
    with pytest.raises(ConfigError, match="depth 9"):
        train_model(ModelSpec("gbdt", {"depth": 9}), make_table(40, seed=61), None)
    assert fits == [] and 9 not in shapley._tables
    assert GbdtParams(depth=8).depth == gbdt.MAX_DEPTH == shapley._SLOT_BITS.size


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_signed_weight_table_holds_the_closed_form_weights(depth):
    tab = shapley._signed_weights(depth)
    assert tab.shape == (depth, 4 ** depth)
    assert shapley._signed_weights(depth) is tab
    full = (1 << depth) - 1
    for a in range(1 << depth):
        for b in range(1 << depth):
            column = tab[:, (a << depth) | b]
            if a | b != full:
                assert not column.any()                 # dead pair
                continue
            x_only = [(a >> s & 1) and not (b >> s & 1) for s in range(depth)]
            z_only = [(b >> s & 1) and not (a >> s & 1) for s in range(depth)]
            k, m = sum(x_only), sum(z_only)
            for s in range(depth):
                if x_only[s]:
                    want = factorial(k - 1) * factorial(m) / factorial(k + m)
                elif z_only[s]:
                    want = -factorial(k) * factorial(m - 1) / factorial(k + m)
                else:
                    want = 0.0                          # dummy slot
                assert column[s] == want
