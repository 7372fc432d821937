"""Differential-evolution MCMC with per-dimension crossover.

Each chain proposes x' = x + gamma * (x_a - x_b) + eps on a random subset of
dimensions chosen by a crossover probability drawn from a small ladder, where
a and b are two other randomly chosen chains, gamma = 2.38 / sqrt(2 * d_sel)
with d_sel the number of selected dimensions, a 10% fraction of proposals use
gamma = 1 to enable mode jumps, and eps is tiny Gaussian noise. Acceptance is
standard Metropolis. Convergence is monitored with the split-half potential
scale reduction factor.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .._rng import derive_rng
from ..errors import ConfigError, DataError

_CROSSOVER_PROBS = np.array([1.0 / 3.0, 2.0 / 3.0, 1.0])
_P_GAMMA1 = 0.1           # share of proposals with gamma = 1 (mode jumps)
_NOISE_SD = 1e-6
_BURN_IN = 0.5            # leading share of each chain's draws discarded
_MIN_CHAINS = 3           # a proposal needs two chains other than its own
# split-rhat halves the kept draws and needs 2 per half; after the burn-in,
# 7 generations keep ceil(7 / 2) = 4
_MIN_GENERATIONS = 7


@dataclass(frozen=True)
class DreamConfig:
    n_chains: int = 8
    n_generations: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.n_chains < _MIN_CHAINS:
            raise ConfigError(f"need at least {_MIN_CHAINS} chains for "
                              f"differential proposals")
        if self.n_generations < _MIN_GENERATIONS:
            raise ConfigError(f"n_generations must be >= {_MIN_GENERATIONS}")


@dataclass(frozen=True)
class DreamResult:
    chains: np.ndarray        # (n_chains, n_kept, d) post burn-in draws
    acceptance_rate: float
    split_rhat: np.ndarray    # (d,)
    config: DreamConfig
    warnings_: tuple = field(default=())

    @property
    def samples(self) -> np.ndarray:
        """All retained draws pooled across chains, shape (n_chains * n_kept, d)."""
        return self.chains.reshape(-1, self.chains.shape[2])


def metropolis_accept(logp_current, logp_proposal, u) -> np.ndarray:
    """Vectorized Metropolis rule: accept where log(u) < logp' - logp.

    Proposals with non-finite density are always rejected; a non-finite
    current state accepts any finite proposal.
    """
    cur = np.asarray(logp_current, dtype=float)
    prop = np.asarray(logp_proposal, dtype=float)
    lu = np.log(np.asarray(u, dtype=float))
    ok = np.isfinite(prop)
    delta = np.where(ok, prop - np.where(np.isfinite(cur), cur, -np.inf), -np.inf)
    return lu < delta


def split_rhat(chains: np.ndarray) -> np.ndarray:
    """Split-half potential scale reduction factor per dimension.

    chains: (n_chains, n_draws, d). Each chain is halved, giving 2*n_chains
    sequences whose within- and between-sequence variances form the ratio.
    """
    chains = np.asarray(chains, dtype=float)
    C, n, d = chains.shape
    half = n // 2
    if half < 2:
        raise DataError("need at least 4 draws per chain for split-rhat")
    parts = np.concatenate([chains[:, :half], chains[:, half : 2 * half]], axis=0)
    means = parts.mean(axis=1)                      # (2C, d)
    W = parts.var(axis=1, ddof=1).mean(axis=0)      # within
    B = half * means.var(axis=0, ddof=1)            # between
    var_plus = (half - 1) / half * W + B / half
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(var_plus / W)
    return np.where(W > 0, r, 1.0)


def _pick_pairs(rng, n_chains):
    """For each chain i, two distinct other chains a != b != i.

    Row i of the permuted tile draws the same stream as a per-chain
    rng.permutation(n_chains - 1); shifting codes >= i skips chain i."""
    others = rng.permuted(np.tile(np.arange(n_chains - 1), (n_chains, 1)), axis=1)[:, :2]
    others = others + (others >= np.arange(n_chains)[:, None])
    return others[:, 0], others[:, 1]


def dream_sample(log_density, d: int, config: DreamConfig = DreamConfig(),
                 init=None) -> DreamResult:
    """Sample from an unnormalized vectorized log density on R^d.

    log_density must accept an (m, d) array and return (m,) log densities
    (-inf outside support). init, if given, is an (n_chains, d) array of
    starting states with finite density; otherwise standard normal draws
    are used.
    """
    C = config.n_chains
    rng = derive_rng(config.seed, "dream")
    notes = []
    if C < 2 * d:
        msg = f"{C} chains for {d} dimensions; at least {2 * d} recommended"
        warnings.warn(msg)
        notes.append(msg)
    if init is None:
        X = rng.normal(0.0, 1.0, size=(C, d))
    else:
        X = np.array(init, dtype=float)
        if X.shape != (C, d):
            raise ConfigError(f"init must have shape {(C, d)}, got {X.shape}")
    logp = np.asarray(log_density(X), dtype=float)
    if not np.all(np.isfinite(logp)):
        raise DataError("log density not finite at initial states")

    G = config.n_generations
    keep_from = int(np.floor(_BURN_IN * G))
    kept = np.empty((C, G - keep_from, d))
    n_accept = 0
    window_accept = 0
    window = 100
    stall_warned = 0

    for gen in range(G):
        a, b = _pick_pairs(rng, C)
        cr = _CROSSOVER_PROBS[rng.integers(0, _CROSSOVER_PROBS.size, size=C)]
        mask = rng.random((C, d)) < cr[:, None]
        none_on = ~mask.any(axis=1)
        if none_on.any():
            picks = rng.integers(0, d, size=int(none_on.sum()))
            mask[np.flatnonzero(none_on), picks] = True
        d_sel = mask.sum(axis=1)
        gamma = 2.38 / np.sqrt(2.0 * d_sel)
        gamma = np.where(rng.random(C) < _P_GAMMA1, 1.0, gamma)
        eps = rng.normal(0.0, _NOISE_SD, size=(C, d))
        step = gamma[:, None] * (X[a] - X[b]) + eps
        prop = X + np.where(mask, step, 0.0)
        logp_prop = np.asarray(log_density(prop), dtype=float)
        acc = metropolis_accept(logp, logp_prop, rng.random(C))
        X[acc] = prop[acc]
        logp[acc] = logp_prop[acc]
        n_accept += int(acc.sum())
        window_accept += int(acc.sum())
        if (gen + 1) % window == 0:
            if window_accept == 0 and stall_warned < 3:
                msg = (f"no accepted proposal in generations "
                       f"{gen + 1 - window}..{gen}; mean logp {logp.mean():.3g}")
                warnings.warn(msg)
                notes.append(msg)
                stall_warned += 1
            window_accept = 0
        if gen >= keep_from:
            kept[:, gen - keep_from] = X

    rate = n_accept / (C * G)
    rhat = split_rhat(kept)
    return DreamResult(chains=kept, acceptance_rate=rate, split_rhat=rhat,
                       config=config, warnings_=tuple(notes))
