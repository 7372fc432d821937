"""Peak Python-level memory of the report's heaviest numeric steps, measured
with tracemalloc (numpy reports its array buffers to it)."""

import gc
import tracemalloc

import numpy as np

from icurisk.cohort import summarize
from icurisk.explain.ablation import ablation
from icurisk.explain import shapley
from icurisk.explain.dream import DreamConfig, split_rhat
from icurisk.explain.posterior import posterior_draws
from icurisk.metrics import bootstrap_auroc_ci
from icurisk.models.cv import ModelSpec, fit_and_score
from icurisk.models.gbdt import GbdtParams, train_gbdt
from icurisk.preprocess import fit_imputer, impute
from icurisk.synth import synth_default_cohort

from conftest import make_table, pattern_group_table

MB = 1e6


def _peak_bytes(fn):
    fn()  # warm-up: first-call allocations are not the step's own
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bootstrap_ci_streams_its_resamples():
    # the default run's size: 2000 replicates of 390 test rows, a (2000, 390)
    # index matrix alone being 6.2 MB of int64
    rng = np.random.default_rng(0)
    scores = rng.random(390)
    labels = (rng.random(390) < 0.5).astype(int)
    assert _peak_bytes(lambda: bootstrap_auroc_ci(scores, labels, B=2000)) <= 3 * MB


def test_split_rhat_does_not_copy_the_chains():
    # DREAM's kept draws at the default posterior settings; a half-chain
    # temporary alone would be chains.nbytes / 2
    chains = np.random.default_rng(1).normal(size=(30, 1500, 15))
    assert _peak_bytes(lambda: split_rhat(chains)) < chains.nbytes / 4


def test_ablation_resampling_is_bounded():
    table = make_table(540, seed=51, informative=True)
    idx = np.arange(table.n)
    train, test = table.subset(idx[:150]), table.subset(idx[150:])
    spec = ModelSpec(family="logreg", params={"C": 1.0})
    *_, base = fit_and_score(spec, train, test, 0)
    peak = _peak_bytes(lambda: ablation(spec, train, test, base, n_resamples=2000))
    assert peak <= 3 * MB


def test_impute_blocks_a_large_pattern_group():
    # 400 rows missing the same 2 of 17 columns against 1301 reference rows:
    # one (rows, reference rows, columns) block of the whole group would be
    # 62 MB of float64
    table = pattern_group_table()
    imputer = fit_imputer(table)
    assert _peak_bytes(lambda: impute(imputer, table)) <= 2 * MB


def test_posterior_draws_hold_no_chains():
    # the default run's sampler: 30 chains of 3000 generations, of which
    # 1500 are kept, thinned to 4000 draws
    summary = summarize(synth_default_cohort(n=400, seed=3))
    config = DreamConfig(n_chains=30, n_generations=3000, seed=1)
    tracemalloc.start()
    try:
        draws = posterior_draws(summary, config)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    kept_chains = 30 * 1500 * draws.draws.shape[1] * 8
    assert draws.draws.shape[0] == 4000 and draws.draws.base is None
    assert all(getattr(v, "ndim", 0) < 3 for v in vars(draws).values())
    assert held < kept_chains / 4


def test_prepared_shap_background_is_no_larger_than_its_pairs():
    # the serving benchmark's shape: depth 3, 100 trees, 128 background
    # rows. Summarized as its (leaf, code) pairs, the background held a
    # leaf index, a code byte, a weight and depth slot features per pair.
    table = synth_default_cohort(n=1301, seed=3, with_missing=False)
    model = train_gbdt(table, GbdtParams(depth=3, n_trees=100), seed=3)
    background = table.X[:128]
    record = shapley._prepare_background(model, background)
    codes = shapley._path_codes(model.forest, background)
    leaf = np.repeat(np.arange(codes.shape[0]), codes.shape[1])
    pairs = np.unique((leaf << 3) | codes.ravel()).size
    held = sum(v.nbytes for v in vars(record).values()
               if isinstance(v, np.ndarray))
    assert held <= pairs * (8 + 1 + 8 + 3 * 8)


def test_a_depth_eight_forest_holds_its_heaps_and_leaf_tables():
    # at the deepest depth GbdtParams allows, each tree's heaps hold 255
    # tests (a feature and a threshold) and 256 bottom values, 3 * 256
    # numbers, and each leaf its value and 8 path slots of 3 numbers; the
    # fit keeps nothing else but a few kB of model
    table = make_table(200, seed=71, informative=True)
    tracemalloc.start()
    try:
        model = train_gbdt(table, GbdtParams(depth=8, n_trees=100), seed=0)
        gc.collect()    # the grower's recursive closures are cycles
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    leaves = model.forest.leaf_value.size
    assert held <= (100 * 3 * 256 + leaves * (1 + 3 * 8)) * 8 + 64 * 1024
