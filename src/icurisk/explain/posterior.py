"""Posterior risk distribution via MCMC.

posterior_risk_inputs samples plausible non-survivor feature vectors from
independent truncated Gaussians calibrated to class-conditional moments and
pushes them through a trained predictor; binary flags are integrated out by
enumerating their combinations weighted by class prevalence. Ordinal features
are sampled on their continuous relaxation and snapped to the measurement
grid before prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ..cohort import CohortSummary
from ..errors import ConfigError
from ..schema import MULTI_LEVEL, FeatureSpec
from ..synth import recalibrated_loc
from .dream import DreamConfig, dream_sample

# Values reported for the same non-survivor construction on the original
# restricted-access cohort. Comparison only; never a pass/fail target.
REFERENCE_INPUTS_POSTERIOR = {"mean": 0.486, "ci_low": 0.248, "ci_high": 0.690}

_EVAL_DRAW_CAP = 4000             # retained draws pushed through the model
_CI_PERCENTILES = (2.5, 97.5)


@dataclass(frozen=True)
class PosteriorRisk:
    samples: np.ndarray      # risk draws in [0, 1]
    mean: float
    ci_low: float
    ci_high: float
    acceptance_rate: float
    max_split_rhat: float
    reliable: bool           # all split-rhat <= 1.2


def _thin_indices(n: int, cap: int) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    return np.unique(np.linspace(0, n - 1, cap).round().astype(int))


def _summarize(risks: np.ndarray, acceptance_rate: float,
               max_rhat: float) -> PosteriorRisk:
    lo, hi = np.percentile(risks, _CI_PERCENTILES)
    return PosteriorRisk(
        samples=risks,
        mean=float(risks.mean()),
        ci_low=float(lo),
        ci_high=float(hi),
        acceptance_rate=acceptance_rate,
        max_split_rhat=max_rhat,
        reliable=bool(max_rhat <= 1.2),
    )


def _snap_ordinal(values: np.ndarray, spec: FeatureSpec) -> np.ndarray:
    step = 1.0 if spec.step is None else spec.step
    snapped = spec.lower + np.rint((values - spec.lower) / step) * step
    return np.clip(snapped, spec.lower, spec.upper)


def posterior_risk_inputs(model, nonsurvivor_summary: CohortSummary, schema,
                          dream: DreamConfig = DreamConfig()) -> PosteriorRisk:
    """Risk distribution over feature vectors drawn from non-survivor priors.

    model: callable mapping raw-space feature rows (m, d) to probabilities,
    such as a pipeline Predictor. schema lists the summary's features in
    order. The summary must carry a "class1" group with finite moments for
    every feature.
    """
    stats = nonsurvivor_summary.groups.get("class1")
    if stats is None:
        raise ConfigError("summary must provide class1 group statistics")
    names = [s.name for s in schema]
    if list(nonsurvivor_summary.features) != names:
        raise ConfigError("summary features and schema are ordered differently")

    means = np.asarray(stats.mean, dtype=float)
    sds = np.asarray(stats.sd, dtype=float)
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(sds))):
        bad = [n for n, m, s in zip(names, means, sds)
               if not (np.isfinite(m) and np.isfinite(s))]
        raise ConfigError(f"missing class moments for features: {bad}")

    d = len(schema)
    binary = [j for j in range(d) if schema[j].kind == "binary"]
    sampled = [j for j in range(d) if schema[j].kind != "binary" and sds[j] > 0]
    pinned = [j for j in range(d) if schema[j].kind != "binary" and sds[j] <= 0]

    lower = np.array([schema[j].lower if schema[j].lower is not None else -np.inf
                      for j in sampled])
    upper = np.array([schema[j].upper if schema[j].upper is not None else np.inf
                      for j in sampled])
    sd = sds[sampled]
    loc = np.array([recalibrated_loc(means[j], sds[j],
                                     schema[j].lower, schema[j].upper)
                    for j in sampled])
    alpha = np.where(np.isfinite(lower), (lower - loc) / sd, -np.inf)
    beta = np.where(np.isfinite(upper), (upper - loc) / sd, np.inf)
    log_z = np.log(ndtr(beta) - ndtr(alpha))
    const = -np.log(sd) - 0.5 * np.log(2.0 * np.pi) - log_z

    def log_density(X):
        X = np.atleast_2d(X)
        inside = np.all((X >= lower) & (X <= upper), axis=1)
        z = (X - loc) / sd
        lp = np.sum(-0.5 * z * z + const, axis=1)
        return np.where(inside, lp, -np.inf)

    if not sampled:
        # degenerate prior: single deterministic feature vector
        risks = _enumerate_flags(model, schema, means, binary, pinned, sampled,
                                 np.empty((1, 0)))
        return _summarize(risks, acceptance_rate=1.0, max_rhat=1.0)

    rng = np.random.default_rng(dream.seed)
    init = loc + 0.1 * sd * rng.standard_normal((dream.n_chains, len(sampled)))
    init = np.clip(init, lower, upper)
    result = dream_sample(log_density, len(sampled), dream, init=init)
    pooled = result.samples
    keep = _thin_indices(pooled.shape[0], _EVAL_DRAW_CAP)
    draws = pooled[keep]

    risks = _enumerate_flags(model, schema, means, binary, pinned, sampled, draws)
    return _summarize(risks, result.acceptance_rate,
                      float(np.max(result.split_rhat)))


def _enumerate_flags(f, schema, means, binary, pinned, sampled, draws):
    """Map sampled feature draws through the predictor, averaging binary
    flag combinations by their class prevalence weights."""
    d = len(schema)
    S = draws.shape[0]
    X = np.empty((S, d))
    for j in pinned:
        X[:, j] = means[j]
    for pos, j in enumerate(sampled):
        col = draws[:, pos]
        if schema[j].kind in MULTI_LEVEL:
            col = _snap_ordinal(col, schema[j])
        X[:, j] = col
    if not binary:
        return f(X)
    prev = np.clip(means[binary], 0.0, 1.0)
    risks = np.zeros(S)
    for combo in range(1 << len(binary)):
        w = 1.0
        for pos, j in enumerate(binary):
            on = (combo >> pos) & 1
            X[:, j] = float(on)
            w *= prev[pos] if on else 1.0 - prev[pos]
        if w == 0.0:
            continue
        risks += w * f(X)
    return risks

