"""Differential-evolution MCMC: acceptance rule edge cases, convergence
diagnostics, and sampling accuracy on known densities."""

from unittest import mock

import numpy as np
import pytest

from icurisk.errors import ConfigError, DataError
from icurisk.explain import dream
from icurisk.explain.dream import (DreamConfig, dream_sample,
                                   metropolis_accept, split_rhat)


def test_metropolis_rule():
    cur = np.array([0.0, 0.0, -np.inf, 0.0, -5.0])
    prop = np.array([1.0, -np.inf, 0.0, np.nan, -5.0])
    # log(u)=-inf accepts any uphill or equal move
    u = np.array([1e-300, 0.5, 0.5, 0.5, 1e-300])
    acc = metropolis_accept(cur, prop, u)
    assert acc[0]            # uphill
    assert not acc[1]        # proposal -inf always rejected
    assert acc[2]            # escape from a non-finite state
    assert not acc[3]        # NaN proposal rejected
    assert acc[4]            # equal density, tiny u
    downhill = metropolis_accept(np.array([0.0]), np.array([-2.0]),
                                 np.array([0.99]))
    assert not downhill[0]   # log(0.99) > -2


def test_split_rhat_near_one_for_identical_chains():
    rng = np.random.default_rng(0)
    draws = rng.normal(size=(1, 400, 2))
    chains = np.repeat(draws, 4, axis=0)
    r = split_rhat(chains)
    assert r.shape == (2,)
    assert np.all(r < 1.05)


def test_split_rhat_flags_disjoint_chains():
    rng = np.random.default_rng(1)
    a = rng.normal(0.0, 1.0, size=(2, 300, 1))
    b = rng.normal(40.0, 1.0, size=(2, 300, 1))
    r = split_rhat(np.concatenate([a, b], axis=0))
    assert r[0] > 2.0


def test_split_rhat_needs_enough_draws():
    with pytest.raises(DataError):
        split_rhat(np.zeros((4, 3, 1)))


def test_config_validation():
    with pytest.raises(ConfigError):
        DreamConfig(n_chains=2)
    with pytest.raises(ConfigError, match="n_generations must be >= 7"):
        DreamConfig(n_generations=6)
    # the fewest generations whose kept draws split-rhat accepts
    result = dream_sample(lambda X: -0.5 * np.sum(X * X, axis=1), 2,
                          DreamConfig(n_chains=4, n_generations=7))
    assert result.chains.shape == (4, 4, 2)


def _ref_pick_pairs(rng, n_chains):
    a = np.empty(n_chains, dtype=int)
    b = np.empty(n_chains, dtype=int)
    for i in range(n_chains):
        others = rng.permutation(n_chains - 1)[:2]
        a[i], b[i] = np.where(others >= i, others + 1, others)
    return a, b


@pytest.mark.parametrize("n_chains", [3, 4, 8, 31])
def test_pick_pairs_matches_per_chain_permutations(n_chains):
    """The one-call draw picks the pairs a per-chain loop of permutations
    picks and leaves the generator in the same state."""
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(10):
            a, b = dream._pick_pairs(rng, n_chains)
            ra, rb = _ref_pick_pairs(ref, n_chains)
            assert np.array_equal(a, ra) and np.array_equal(b, rb)
        assert rng.random() == ref.random()


def test_one_dim_gaussian_moments():
    logp = lambda x: -0.5 * ((x[..., 0] - 2.0) / 0.5) ** 2
    cfg = DreamConfig(n_chains=6, n_generations=3000, seed=3)
    res = dream_sample(logp, d=1, config=cfg)
    pooled = res.samples[:, 0]
    assert pooled.mean() == pytest.approx(2.0, abs=0.05)
    assert pooled.var() == pytest.approx(0.25, rel=0.15)
    assert np.all(res.split_rhat < 1.1)
    assert 0.05 < res.acceptance_rate < 0.95


def test_bimodal_mixing_via_full_jumps():
    # gamma = 1 proposals swap chains between modes at +-3, so both modes
    # are visited and the pooled mean stays near zero
    logp = lambda x: np.logaddexp(-0.5 * (x[..., 0] - 3.0) ** 2,
                                  -0.5 * (x[..., 0] + 3.0) ** 2)
    cfg = DreamConfig(n_chains=10, n_generations=4000, seed=5)
    with mock.patch.object(dream, "_P_GAMMA1", 0.2):
        res = dream_sample(logp, d=1, config=cfg)
    pooled = res.samples[:, 0]
    assert (pooled > 1.0).mean() > 0.2
    assert (pooled < -1.0).mean() > 0.2
    assert abs(pooled.mean()) < 0.6


def test_determinism_and_seed_sensitivity():
    logp = lambda x: -0.5 * (x ** 2).sum(axis=-1)
    cfg = DreamConfig(n_chains=5, n_generations=300, seed=11)
    a = dream_sample(logp, d=2, config=cfg)
    b = dream_sample(logp, d=2, config=cfg)
    assert np.array_equal(a.chains, b.chains)
    c = dream_sample(logp, d=2, config=DreamConfig(
        n_chains=5, n_generations=300, seed=12))
    assert not np.array_equal(a.chains, c.chains)


def test_init_validation():
    logp = lambda x: -0.5 * (x ** 2).sum(axis=-1)
    cfg = DreamConfig(n_chains=4, n_generations=50)
    with pytest.raises(ConfigError):
        dream_sample(logp, d=2, config=cfg, init=np.zeros((3, 2)))
    bad = np.zeros((4, 2))
    bad[0, 0] = np.inf
    with pytest.raises(DataError):
        dream_sample(logp, d=2, config=cfg, init=bad)


def test_few_chains_for_dimension_warns():
    logp = lambda x: -0.5 * (x ** 2).sum(axis=-1)
    cfg = DreamConfig(n_chains=3, n_generations=200, seed=0)
    with pytest.warns(UserWarning, match="chains"):
        res = dream_sample(logp, d=4, config=cfg)
    assert res.warnings_
