"""Gradient boosted decision trees on the logistic loss, second-order style:
per-round gradients g = w(p - y) and hessians h = w p (1 - p), greedy splits
by weighted gain with L2 leaf regularization, leaf values -G/(H + l2).

Split search is exact greedy over a column block (Chen & Guestrin 2016,
§4.1): each fit sorts every column of its table once, stably. A node carries
an (n_node, d) index block whose column j lists the node's rows in that
order, so one gather, one cumulative sum and one gain matrix score every
threshold of every feature. Children filter the parent's block with a stable
boolean partition; subsampled rounds filter the fit's presort by their row
mask, and ordered rounds re-sort only the re-encoded categorical columns.
The trees equal those of a per-node, per-feature stable argsort search.

The grower emits each tree in the Forest layout, as a forest of one tree,
and records every leaf's path slots for Tree SHAP as it recurses. The
training round descends that tree to update the margins, and the fit joins
its trees into the one Forest the model keeps. Margins add the per-tree
leaf values in tree order, the same additions as a loop over trees.

One row, as a server scores it, skips the descent when its cells are all
finite: in each tree it takes the one leaf whose path slots all allow it,
which is the leaf the descent reaches, in a few whole-forest array
operations instead of a few per level. A row with a NaN or infinite cell
descends, and so does every matrix of more rows: the box test's cost grows
with rows times leaves, and on the benchmark's serving forest it takes
1.6x the descent's time at 10 rows and 2.9x at 182.

ordered_mode replaces the multi-level discrete columns of the training
table's schema (ordinal_score and categorical kinds) with ordered target
statistics during training: a fresh seeded permutation each boosting round,
each row encoded from the label prefix strictly before it (alpha-smoothed
toward the training mean). Inference encodes those columns with the
pipeline's target encoders fitted on the whole training table, the
full-training-data statistics, joined into one lookup when the fit ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._rng import derive_rng
from ..errors import ConfigError
from ..preprocess import EncoderLookup, encode_columns, fit_encoder, fit_inputs
from ..schema import MULTI_LEVEL
from ..special import PROB_CLIP, logit, sigmoid, weighted_logloss

_MIN_SPLIT_GAIN = 1e-12
_MIN_CHILD_WEIGHT = 1.0   # least hessian sum on each side of a split
_CHUNK = 1 << 16          # (rows x trees) elements per margin chunk
_ROOT = np.zeros(1, dtype=np.int64)


@dataclass(frozen=True)
class GbdtParams:
    depth: int = 3
    n_trees: int = 100
    learning_rate: float = 0.1
    l2_leaf: float = 1.0
    subsample: float = 1.0
    ordered_mode: bool = False

    def __post_init__(self):
        if self.depth < 1 or self.n_trees < 1:
            raise ConfigError("depth and n_trees must be >= 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ConfigError("subsample must be in (0, 1]")
        if self.learning_rate <= 0 or self.l2_leaf < 0:
            raise ConfigError("learning_rate > 0 and l2_leaf >= 0 required")


@dataclass(frozen=True)
class Forest:
    """Boosted trees laid out for vectorized evaluation. The node arrays
    hold each tree in preorder, end to end, tree t starting at roots[t];
    feat < 0 marks a leaf, and every leaf is its own left and right child,
    so one descent of depth steps takes every row to its leaf in every tree
    at once. Rows with feature value < thr go left.

    The leaves are stacked in tree order, preorder within a tree:
    leaf_value, and column i of the (depth, leaves) slot arrays, which holds
    leaf i's path slots: each distinct feature tested on the way down and
    the interval [lo, hi) of it the path allows. Unused slots are
    (0, -inf, inf)."""

    roots: np.ndarray
    feat: np.ndarray
    thr: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int
    leaf_value: np.ndarray
    slot_feat: np.ndarray
    slot_lo: np.ndarray
    slot_hi: np.ndarray


def _join(trees) -> Forest:
    """One Forest of the one-tree forests trees, in order."""
    sizes = [t.feat.size for t in trees]
    roots = np.cumsum([0] + sizes[:-1])
    shift = np.repeat(roots, sizes)

    def joined(name, axis=0):
        return np.concatenate([getattr(t, name) for t in trees], axis=axis)

    return Forest(
        roots=roots, feat=joined("feat"), thr=joined("thr"),
        left=joined("left") + shift, right=joined("right") + shift,
        value=joined("value"), depth=trees[0].depth,
        leaf_value=joined("leaf_value"),
        slot_feat=joined("slot_feat", 1), slot_lo=joined("slot_lo", 1),
        slot_hi=joined("slot_hi", 1),
    )


def slots_hold(forest: Forest, X) -> np.ndarray:
    """Whether each path slot of each leaf allows X, one row (d,) or rows
    (n, d): (depth, leaves) for a row, (n, depth, leaves) for rows."""
    v = X.take(forest.slot_feat, axis=-1)
    return (v >= forest.slot_lo) & (v < forest.slot_hi)


def _leaf_values(forest: Forest, X) -> np.ndarray:
    """(rows, trees) value of the leaf each row of X reaches in each tree.
    Every row moves down one level per step, and after depth steps all rows
    sit on their leaves."""
    n, d = X.shape
    x = np.ascontiguousarray(X).ravel()
    row_start = d * np.arange(n)[:, None]
    idx = np.broadcast_to(forest.roots, (n, forest.roots.size))
    for _ in range(forest.depth):
        # at a leaf, feature -1 reads an arbitrary cell of x (index -1 for
        # row 0); both branches lead back to the leaf
        go_left = x.take(row_start + forest.feat.take(idx)) < forest.thr.take(idx)
        idx = np.where(go_left, forest.left.take(idx), forest.right.take(idx))
    return forest.value.take(idx)


@dataclass(frozen=True)
class GbdtModel:
    params: GbdtParams
    base_score: float          # log-odds of the weighted training base rate
    feature_names_: tuple
    lookup: EncoderLookup      # target encoders of the ordered columns, none if plain
    loss_curve: np.ndarray     # weighted logistic training loss, n_trees + 1 entries
    forest: Forest = field(compare=False, repr=False)   # the trees


def _best_split(x_flat, col_start, gh, block, G, H, l2):
    """Best (feature, threshold) over all features of one node; None if no
    split gains more than _MIN_SPLIT_GAIN.

    x_flat is the table in column order, column j starting at col_start[j];
    gh = g + 1j*h; block[:, j] lists the node's rows in stable order of
    column j; G and H are the node's gradient and hessian sums. Ties: first
    feature index, then lowest threshold; a gain must beat the running best
    strictly.
    """
    parent = G * G / (H + l2) if H + l2 > 0 else 0.0
    xs = x_flat[block + col_start]
    # one complex cumsum accumulates g (real) and h (imag) in sequence down
    # each column, the same additions as two real cumsums
    left_sums = np.cumsum(gh[block], axis=0)[:-1]
    gl, hl = left_sums.real, left_sums.imag
    gr = G - gl
    hr = H - hl
    ok = (xs[1:] > xs[:-1]) & (hl >= _MIN_CHILD_WEIGHT) & (hr >= _MIN_CHILD_WEIGHT)
    gain = 0.5 * (gl * gl / (hl + l2) + gr * gr / (hr + l2) - parent)
    gain[~ok] = -np.inf
    at = np.argmax(gain, axis=0)                        # lowest threshold per feature
    col_best = gain[at, np.arange(block.shape[1])]
    col_best[~(col_best > _MIN_SPLIT_GAIN)] = -np.inf   # also drops NaN columns
    j = int(np.argmax(col_best))                        # first feature among ties
    if col_best[j] == -np.inf:
        return None
    lo, hi = xs[at[j], j], xs[at[j] + 1, j]
    t = 0.5 * (lo + hi)
    # adjacent floats can round the midpoint down to lo (or it can overflow),
    # which would send the lo rows right; hi still splits lo from hi
    return j, t if lo < t <= hi else hi


def _partition(block, side, size):
    """The size rows of a Fortran-order block with side[row] set, each
    column kept in its stable order. size may be 0."""
    flat = block.ravel(order="F")
    kept = flat[np.flatnonzero(side[flat])]
    return kept.reshape(block.shape[1], size).T


def _grow_tree(X, g, h, rows, block, depth, l2) -> Forest:
    """Grow one tree in preorder over rows (ascending) of the Fortran-order
    table X, as a forest of that tree; block is their (rows.size, d) column
    block."""
    feat, thr, left, right, value = [], [], [], [], []
    leaves, slots = [], []
    x_flat = X.ravel(order="F")
    col_start = X.shape[0] * np.arange(X.shape[1])
    gh = g + 1j * h

    def add(j, t, v):
        node = len(feat)
        feat.append(j)
        thr.append(t)
        left.append(node)
        right.append(node)
        value.append(v)
        return node

    def grow(rows, block, d, path):
        G = g[rows].sum()
        H = h[rows].sum()
        split = None
        if d > 0 and rows.size >= 2:
            split = _best_split(x_flat, col_start, gh, block, G, H, l2)
        if split is None:
            leaves.append(add(-1, 0.0, -G / max(H + l2, 1e-12)))
            slots.append(path)
            return leaves[-1]
        j, t = split
        node = add(j, t, 0.0)
        go_left = X[:, j] < t
        to_left = go_left[rows]
        lrows, rrows = rows[to_left], rows[~to_left]
        lblock = rblock = None          # children at depth 0 are leaves
        if d > 1:
            lblock = _partition(block, go_left, lrows.size)
            rblock = _partition(block, ~go_left, rrows.size)
        lo, hi = path.get(j, (-np.inf, np.inf))
        left[node] = grow(lrows, lblock, d - 1, {**path, j: (lo, min(hi, t))})
        right[node] = grow(rrows, rblock, d - 1, {**path, j: (max(lo, t), hi)})
        return node

    grow(rows, block, depth, {})
    slot_feat = np.zeros((depth, len(leaves)), dtype=np.int64)
    slot_lo = np.full((depth, len(leaves)), -np.inf)
    slot_hi = np.full((depth, len(leaves)), np.inf)
    for i, path in enumerate(slots):
        for s, (j, (lo, hi)) in enumerate(path.items()):
            slot_feat[s, i], slot_lo[s, i], slot_hi[s, i] = j, lo, hi
    value = np.array(value)
    return Forest(
        roots=_ROOT,
        feat=np.array(feat, dtype=np.int64),
        thr=np.array(thr),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=value, depth=depth, leaf_value=value[leaves],
        slot_feat=slot_feat, slot_lo=slot_lo, slot_hi=slot_hi,
    )


def _category_ranks(codes):
    """Each row of codes (columns, rows) as the ranks of its distinct values,
    in the smallest unsigned integer type that holds them. Equal codes (0.0
    and -0.0 too) share a rank and ranks keep the codes' order, so a stable
    sort orders the rows as the codes would, and numpy radix-sorts them."""
    ranks = np.array([np.unique(c, return_inverse=True)[1] for c in codes])
    return ranks.astype(np.min_scalar_type(ranks.max(initial=0)))


class _OrderedColumns:
    """Ordered target statistics of one fit's multi-level columns, codes
    (columns, rows), with alpha and prior of shape (columns, 1). Called
    with a round's permutation perm, it gives each cell the smoothed mean
    of y over the earlier occurrences (in perm order) of its category in
    its column. One stable sort by category per column puts each
    category's rows together in perm order; counts and 0/1 label sums
    before each row are exact integers. Where each category's run lies in
    a sorted column does not depend on perm, so it is fixed here once."""

    def __init__(self, codes, y, alpha, prior):
        self.ranks = _category_ranks(codes)
        k, n = self.ranks.shape
        self.y = np.asarray(y, dtype=float)
        self.offset = n * np.arange(k)[:, None]   # row starts, flattened
        c = np.sort(self.ranks, axis=1)
        start = np.ones((k, n), dtype=bool)
        start[:, 1:] = c[:, 1:] != c[:, :-1]
        first = np.maximum.accumulate(np.where(start, np.arange(n), 0), axis=1)
        self.first = first + self.offset
        self.prior_term = alpha * prior
        self.count_term = (np.arange(n) - first) + alpha   # count before, + alpha

    def __call__(self, perm):
        order = perm[np.argsort(self.ranks[:, perm], axis=1, kind="stable")]
        y_s = self.y[order]
        csum = np.cumsum(y_s, axis=1) - y_s       # label sum before each row
        sm = csum - csum.take(self.first)
        enc = np.empty(order.shape)
        enc.put(order + self.offset, (sm + self.prior_term) / self.count_term)
        return enc


def train_gbdt(train, params: GbdtParams = GbdtParams(), weights=None, seed: int = 0) -> GbdtModel:
    """Stagewise fit of the weighted logistic loss. train is a CohortTable
    with no missing values, whose schema names the columns ordered mode
    orders; weights is a ClassWeights (None = unweighted)."""
    X, y, w = fit_inputs(train, weights, "train_gbdt")
    X = np.asfortranarray(X)
    encoders = ()
    if params.ordered_mode:
        encoders = tuple(fit_encoder(train, s.name)
                         for s in train.schema if s.kind in MULTI_LEVEL)
        if not encoders:
            raise ConfigError("ordered_mode needs a multi-level discrete feature "
                              "(ordinal_score or categorical) in the schema")

    rng = derive_rng(seed, "gbdt")
    p_base = float(np.clip(np.sum(w * y) / np.sum(w), PROB_CLIP, 1 - PROB_CLIP))
    base = logit(p_base)

    n = X.shape[0]
    # column block: presort[:, j] lists the rows in stable order of X[:, j];
    # Fortran order keeps each column contiguous for the per-node filters
    presort = np.asfortranarray(np.argsort(X, axis=0, kind="stable"))
    Xt, sorted_rows = X, presort
    if params.ordered_mode:
        # one working copy of the table and its presort; each round
        # overwrites only the ordered columns
        cols = [enc.column for enc in encoders]
        ordered = _OrderedColumns(X[:, cols].T, y,
                                  np.array([[enc.alpha] for enc in encoders]),
                                  np.array([[enc.global_mean] for enc in encoders]))
        Xt, sorted_rows = X.copy(order="F"), presort.copy(order="F")
    margin = np.full(n, base)
    trees = []
    losses = [weighted_logloss(margin, y, w)]
    for _ in range(params.n_trees):
        if params.ordered_mode:
            stats = ordered(rng.permutation(n))
            Xt[:, cols] = stats.T
            sorted_rows[:, cols] = np.argsort(stats, axis=1, kind="stable").T
        order = sorted_rows
        p = sigmoid(margin)
        g = w * (p - y)
        h = w * p * (1.0 - p)
        rows = np.arange(n)
        if params.subsample < 1.0:
            sampled = rng.random(n) < params.subsample
            if np.count_nonzero(sampled) >= 2:
                rows = np.flatnonzero(sampled)
                order = _partition(order, sampled, rows.size)
        tree = _grow_tree(Xt, g, h, rows, order, params.depth, params.l2_leaf)
        trees.append(tree)
        leaf = _leaf_values(tree, Xt)[:, 0]
        margin = margin + params.learning_rate * leaf
        losses.append(weighted_logloss(margin, y, w))

    return GbdtModel(
        params=params,
        base_score=base,
        feature_names_=tuple(train.feature_names),
        lookup=EncoderLookup(encoders),
        loss_curve=np.array(losses),
        forest=_join(trees),
    )


def gbdt_margin(model: GbdtModel, X: np.ndarray) -> np.ndarray:
    """Raw log-odds: base + lr * sum of leaf scores, added in tree order.
    Rows go through the forest in chunks that keep temporaries small; one
    row of finite cells takes, in each tree, the one leaf whose every path
    slot allows it."""
    X = encode_columns(model.lookup, np.asarray(X, dtype=float))
    forest = model.forest
    if X.shape[0] == 1 and np.isfinite(X).all():
        return _add_trees(model, forest.leaf_value[
            slots_hold(forest, X[0]).all(axis=0)][None])
    out = np.empty(X.shape[0])
    step = max(1, _CHUNK // forest.roots.size)
    for start in range(0, X.shape[0], step):
        out[start:start + step] = _add_trees(
            model, _leaf_values(forest, X[start:start + step]))
    return out


def _add_trees(model: GbdtModel, leaf) -> np.ndarray:
    """(rows,) margins of the (rows, trees) leaf values leaf."""
    terms = np.empty((leaf.shape[0], leaf.shape[1] + 1))
    terms[:, 0] = model.base_score
    terms[:, 1:] = model.params.learning_rate * leaf
    # a running sum adds the trees one at a time, as a loop over them would
    return np.cumsum(terms, axis=1)[:, -1]
