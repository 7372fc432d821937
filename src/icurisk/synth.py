"""Synthetic cohort generator calibrated to per-class feature moments: a
CohortSummary, whose schema the generated cohort takes.

Features are drawn independently per class from Gaussians truncated to the
schema's physiologic bounds. Plain truncation shifts the mean, badly so for
skewed measurements sitting near a bound, so the generator recalibrates the
location parameter (bisection on the analytic truncated-normal mean) until
the post-truncation mean equals the requested class mean. The scale stays at
the requested sd; where truncation bites, the realized sd is smaller than
requested, but class means survive a generate->summarize round trip.

Ordinal scores are stochastically rounded to their grid (floor/ceil with
probability given by the fractional part), which is unbiased for the mean.
Binary flags are Bernoulli draws from the class prevalence. Missingness is
injected completely at random per feature.
"""

from __future__ import annotations

from functools import lru_cache
from math import copysign, exp, log, log1p, pi, sqrt

import numpy as np

from ._rng import derive_rng
from .cohort import CohortSummary, CohortTable
from .errors import ConfigError
from .schema import MULTI_LEVEL, default_schema

# Per-class reference moments for the bundled 17-feature schema:
# feature -> ((class 0 mean, sd), (class 1 mean, sd)); class 1 = died.
REFERENCE_MOMENTS = {
    "Richmond-RAS Scale": ((-0.90, 1.13), (-2.50, 1.68)),
    "BUN": ((20.71, 13.50), (40.40, 32.81)),
    "PTT": ((34.87, 13.43), (47.19, 24.01)),
    "pO2": ((159.96, 68.61), (99.30, 43.49)),
    "Braden Nutrition": ((2.44, 0.43), (2.01, 0.40)),
    "Total Bilirubin": ((1.21, 1.09), (2.78, 5.82)),
    "Activity/Mobility (JH-HLM)": ((2.39, 0.51), (2.00, 0.30)),
    "Phosphorous": ((3.39, 0.88), (4.12, 1.57)),
    "Anion gap": ((12.67, 3.07), (15.33, 4.42)),
    "Respiratory Rate (Set)": ((17.90, 2.98), (20.49, 4.95)),
    "Peak Inspiratory Pressure": ((19.09, 3.74), (21.70, 5.98)),
    "Braden Moisture": ((3.59, 0.38), (3.25, 0.42)),
    "Age": ((69.64, 9.21), (70.54, 10.11)),
    "Differential-Lymphs": ((14.34, 6.83), (9.66, 6.33)),
    "Charlson Comorbidity Index": ((4.24, 1.70), (4.59, 1.44)),
    "CefePIME": ((0.24, 0.42), (0.63, 0.48)),
    "Invasive Ventilation": ((0.47, 0.50), (0.55, 0.50)),
}

REFERENCE_EVENT_RATE = 0.196

# Plausible-but-arbitrary defaults: labs and device measurements go missing,
# demographics, scores, and flags do not.
DEFAULT_MISSING_RATES = {
    "BUN": 0.05,
    "PTT": 0.05,
    "pO2": 0.05,
    "Total Bilirubin": 0.05,
    "Phosphorous": 0.05,
    "Anion gap": 0.05,
    "Differential-Lymphs": 0.05,
    "Respiratory Rate (Set)": 0.05,
    "Peak Inspiratory Pressure": 0.05,
}


def reference_summary() -> CohortSummary:
    """CohortSummary carrying the bundled per-class reference moments."""
    schema = default_schema()
    moments = np.array([REFERENCE_MOMENTS[s.name] for s in schema])  # (d, 2, 2)
    return CohortSummary(schema=schema, mean=moments[:, :, 0].T,
                         sd=moments[:, :, 1].T)


_SQRT_2PI = sqrt(2.0 * pi)
_LOG_SQRT_2PI = 0.5 * log(2.0 * pi)


def _std_truncnorm_mean(a, b):
    """Mean of a standard normal truncated to [a, b], a < b (either may be
    infinite): (phi(a) - phi(b)) / (Phi(b) - Phi(a))."""
    from scipy.special import log_ndtr, ndtr

    if a > 0.0:  # upper tail: Phi(b) - Phi(a) would cancel, so reflect
        return -_std_truncnorm_mean(-b, -a)
    if b < 0.0:  # lower tail: in logs, so masses far out do not underflow
        log_a, log_b = log_ndtr(a), log_ndtr(b)
        log_z = log_b + log1p(-exp(log_a - log_b))
        return (exp(-0.5 * a * a - _LOG_SQRT_2PI - log_z)
                - exp(-0.5 * b * b - _LOG_SQRT_2PI - log_z))
    pdf_a = exp(-0.5 * a * a) / _SQRT_2PI
    pdf_b = exp(-0.5 * b * b) / _SQRT_2PI
    return (pdf_a - pdf_b) / (ndtr(b) - ndtr(a))


def recalibrated_loc(target_mean, sd, lower, upper):
    """Location mu such that a Normal(mu, sd) truncated to [lower, upper] has
    mean exactly target_mean. Solved by bisection; the truncated mean is
    strictly increasing in mu. Solved once per argument set: -0.0 and 0.0
    compare equal, so the signs go into the key too."""
    args = tuple(None if v is None else float(v)
                 for v in (target_mean, sd, lower, upper))
    signs = tuple(None if v is None else copysign(1.0, v) for v in args)
    return _solved_loc(*args, signs)


@lru_cache(maxsize=1024)
def _solved_loc(target_mean, sd, lower, upper, _signs):
    lo = -np.inf if lower is None else float(lower)
    hi = np.inf if upper is None else float(upper)
    if sd == 0.0:
        return float(np.clip(target_mean, lo, hi))
    if not lo < target_mean < hi:
        # target pinned to a bound is only reachable degenerately
        raise ConfigError(f"target mean {target_mean} not interior to [{lo}, {hi}]")
    if np.isinf(lo) and np.isinf(hi):
        return float(target_mean)

    def trunc_mean(loc):
        return loc + sd * _std_truncnorm_mean((lo - loc) / sd, (hi - loc) / sd)

    # bracket the root, expanding in sd-sized doubling steps
    a = b = float(target_mean)
    step = sd
    while trunc_mean(a) > target_mean:
        a -= step
        step *= 2.0
    step = sd
    while trunc_mean(b) < target_mean:
        b += step
        step *= 2.0
    for _ in range(200):
        mid = 0.5 * (a + b)
        if trunc_mean(mid) < target_mean:
            a = mid
        else:
            b = mid
        if b - a <= 1e-13 * max(1.0, abs(mid)) :
            break
    return 0.5 * (a + b)


def _sample_truncnorm(rng, loc, sd, lower, upper, size):
    """Inverse-CDF draws from Normal(loc, sd) truncated to [lower, upper].
    loc/sd may be arrays broadcast against size."""
    from scipy.special import ndtr, ndtri

    lo = -np.inf if lower is None else lower
    hi = np.inf if upper is None else upper
    alpha, beta = (lo - loc) / sd, (hi - loc) / sd
    # With the lower bound far above loc, ndtr(alpha) rounds to 1 and every
    # draw would land on the bound; there, draw -z on [-beta, -alpha] instead.
    flip = alpha > 5.0
    a = ndtr(np.where(flip, -beta, alpha))
    b = ndtr(np.where(flip, -alpha, beta))
    r = rng.random(size)
    z = np.where(flip, -ndtri(np.clip(b - (b - a) * r, 1e-300, 1.0 - 1e-16)),
                 ndtri(np.clip(a + (b - a) * r, 1e-300, 1.0 - 1e-16)))
    x = loc + sd * z
    return np.clip(x, lo, hi)


def _stochastic_round(rng, x, spec):
    """Round to the ordinal grid, up with probability = fractional position."""
    step = 1.0 if spec.step is None else spec.step  # categorical codes step by 1
    base = spec.lower + np.floor((x - spec.lower) / step) * step
    frac = (x - base) / step
    up = rng.random(x.shape) < frac
    return np.clip(base + step * up, spec.lower, spec.upper)


def synth_cohort(summary, n, event_rate, missing_rates=None, seed=0) -> CohortTable:
    """Generate an n-row cohort over summary.schema whose class-conditional
    marginals match the summary's per-class moments.

    missing_rates: mapping feature name -> MCAR missing probability (absent =
    0).
    """
    if n < 10:
        raise ConfigError(f"n must be at least 10, got {n}")
    if not 0.0 < event_rate < 1.0:
        raise ConfigError(f"event_rate must be in (0, 1), got {event_rate}")
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    missing_rates = dict(missing_rates or {})
    for name, rate in missing_rates.items():
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"missing rate for {name!r} must be in [0, 1), got {rate}")
    schema = summary.schema
    for j, spec in enumerate(schema):
        if np.isnan(summary.mean[:, j]).any() or np.isnan(summary.sd[:, j]).any():
            raise ConfigError(f"summary lacks moments for feature {spec.name!r}")

    rng = derive_rng(seed, "synth")
    y = (rng.random(n) < event_rate).astype(np.int64)
    X = np.empty((n, len(schema)))

    for j, spec in enumerate(schema):
        m = summary.mean[y, j]
        s = summary.sd[y, j]
        if spec.kind == "binary":
            X[:, j] = (rng.random(n) < np.clip(m, 0.0, 1.0)).astype(float)
        else:
            loc = np.array([recalibrated_loc(summary.mean[c, j], summary.sd[c, j],
                                             spec.lower, spec.upper)
                            for c in (0, 1)])[y]
            sd_safe = np.where(s > 0, s, 1.0)
            x = _sample_truncnorm(rng, loc, sd_safe, spec.lower, spec.upper, n)
            x = np.where(s > 0, x, loc)
            if spec.kind in MULTI_LEVEL:
                x = _stochastic_round(rng, x, spec)
            X[:, j] = x

    for j, spec in enumerate(schema):
        rate = missing_rates.get(spec.name, 0.0)
        if rate > 0.0:
            X[rng.random(n) < rate, j] = np.nan

    return CohortTable(schema, X, y)


def synth_default_cohort(n=1301, event_rate=REFERENCE_EVENT_RATE, seed=0, with_missing=True):
    """Convenience: a cohort from the bundled reference moments."""
    rates = DEFAULT_MISSING_RATES if with_missing else {}
    return synth_cohort(reference_summary(), n, event_rate, rates, seed)
