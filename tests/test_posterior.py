"""Posterior risk distribution by feature-input sampling with flag
enumeration and ordinal snapping."""

import numpy as np
import pytest

from icurisk.cohort import CohortSummary, summarize
from icurisk.errors import ConfigError
from icurisk.explain.dream import DreamConfig
from icurisk.explain import posterior
from icurisk.explain.posterior import posterior_draws, posterior_risk_inputs

from conftest import make_table, small_schema

_FAST = DreamConfig(n_chains=8, n_generations=600, seed=0)


def _risk(model, summary, dream=_FAST):
    return posterior_risk_inputs(model, posterior_draws(summary, dream))


def _summary(schema, means, sds):
    """A summary whose class-1 row holds the given moments; class 0 is unused."""
    return CohortSummary(schema, np.vstack([np.zeros(len(schema)), means]),
                         np.vstack([np.ones(len(schema)), sds]))


def test_constant_predictor_collapses_to_a_point():
    schema = small_schema()
    summary = _summary(schema, [60.0, 2.0, 0.3, 10.0], [10.0, 1.0, 0.46, 2.0])
    risk = _risk(lambda X: np.full(X.shape[0], 0.3), summary)
    assert risk.samples == pytest.approx(0.3, abs=1e-12)
    assert risk.mean == pytest.approx(0.3, abs=1e-12)
    assert risk.ci_low == pytest.approx(0.3, abs=1e-12)
    assert risk.ci_high == pytest.approx(0.3, abs=1e-12)


def test_ordinal_draws_are_snapped_to_the_grid():
    # the predictor flags any gcs value off the integer grid; seeing only
    # 0.5 proves every sampled vector was snapped before evaluation
    schema = small_schema()
    gcs = 3

    def detector(X):
        off = np.abs(X[:, gcs] - np.rint(X[:, gcs])) > 1e-12
        return np.where(off, 1.0, 0.5)

    summary = _summary(schema, [60.0, 2.0, 0.3, 10.0], [10.0, 1.0, 0.46, 2.5])
    risk = _risk(detector, summary)
    assert np.all(risk.samples == 0.5)


def test_binary_flags_average_by_prevalence():
    # with only the flag informative, every draw's risk is the prevalence-
    # weighted average p*1 + (1-p)*0 = p
    schema = small_schema()
    vent = 2
    prevalence = 0.35
    summary = _summary(schema, [60.0, 2.0, prevalence, 10.0],
                       [10.0, 1.0, 0.48, 2.0])
    risk = _risk(lambda X: X[:, vent], summary)
    assert risk.samples == pytest.approx(prevalence, abs=1e-12)


def test_all_pinned_degenerate_prior():
    schema = small_schema()
    summary = _summary(schema, [60.0, 2.0, 0.0, 10.0], [0.0, 0.0, 0.0, 0.0])
    calls = []

    def f(X):
        calls.append(X.copy())
        return np.full(X.shape[0], 0.7)

    risk = _risk(f, summary)
    assert risk.reliable and risk.acceptance_rate == 1.0
    assert risk.max_split_rhat == 1.0
    assert risk.mean == pytest.approx(0.7)
    # the single evaluated vector carries the pinned class means
    assert calls[0][0, 0] == 60.0 and calls[0][0, 3] == 10.0


def test_sampled_means_respect_truncation_target():
    # lactate has lower bound 0; the prior is recalibrated so the truncated
    # mean hits the published class mean, and logistic-free draws confirm it
    schema = small_schema()
    summary = _summary(schema, [60.0, 1.2, 0.0, 10.0], [8.0, 2.0, 0.0, 0.0])
    seen = []

    def f(X):
        seen.append(X.copy())
        return np.full(X.shape[0], 0.5)

    _risk(f, summary, DreamConfig(n_chains=10, n_generations=4000, seed=2))
    draws = np.concatenate(seen, axis=0)
    assert np.all(draws[:, 1] >= 0.0)
    assert draws[:, 1].mean() == pytest.approx(1.2, abs=0.12)
    assert draws[:, 0].mean() == pytest.approx(60.0, abs=1.0)


def test_inputs_mode_error_paths():
    schema = small_schema()
    with pytest.raises(ConfigError, match="lactate"):
        nan = _summary(schema, [60.0, np.nan, 0.3, 10.0], [10.0, 1.0, 0.46, 2.0])
        posterior_draws(nan, _FAST)


def test_inputs_mode_from_real_cohort_summary():
    table = make_table(300, seed=31, informative=True)
    summary = summarize(table)
    risk = _risk(lambda X: 1 / (1 + np.exp(-(X[:, 0] - 55) / 10)), summary)
    assert 0.0 < risk.mean < 1.0
    assert risk.ci_low <= risk.mean <= risk.ci_high
    assert risk.samples.size <= posterior._EVAL_DRAW_CAP

