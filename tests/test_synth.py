"""Synthetic cohort generator: moment recovery, bounds, missingness,
determinism."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import truncnorm

from icurisk.cohort import validate_values
from icurisk.errors import ConfigError
from icurisk.synth import (_sample_truncnorm, _std_truncnorm_mean,
                           recalibrated_loc, reference_summary, synth_cohort,
                           synth_default_cohort)


def test_recalibrated_loc_hits_target_mean():
    for target, sd, lo, hi in [(2.0, 3.0, 0.0, None), (12.5, 3.2, 0.0, 30.0),
                               (0.4, 1.0, 0.0, 1.0)]:
        loc = recalibrated_loc(target, sd, lo, hi)
        a = (lo - loc) / sd if lo is not None else -np.inf
        b = (hi - loc) / sd if hi is not None else np.inf
        got = truncnorm.mean(a, b, loc=loc, scale=sd)
        assert abs(got - target) < 1e-9


def test_recalibrated_loc_edge_cases():
    assert recalibrated_loc(5.0, 2.0, None, None) == 5.0
    assert recalibrated_loc(7.0, 0.0, 0.0, 10.0) == 7.0
    with pytest.raises(ConfigError):
        recalibrated_loc(-1.0, 1.0, 0.0, 10.0)  # target outside the bounds


def test_recalibrated_loc_far_below_a_lower_bound():
    # a mean close to the bound with a wide sd puts loc ~970 sd below it,
    # where truncnorm.mean warned "invalid value encountered in power"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loc = recalibrated_loc(0.4813, 465.94, 0.0, None)
        mean = loc + 465.94 * _std_truncnorm_mean(-loc / 465.94, np.inf)
    assert np.isfinite(loc) and loc < -900 * 465.94
    # the log-density terms are ~4.7e5 there, so doubles carry about 1e-4
    assert mean == pytest.approx(0.4813, rel=1e-3)


def test_draws_far_below_a_lower_bound_keep_the_mean():
    # loc lies ~20 sd below the bound, where ndtr(alpha) rounds to 1: the
    # direct inverse-CDF draw put every value on the bound itself
    loc = recalibrated_loc(0.5, 10.0, 0.0, None)
    x = _sample_truncnorm(np.random.default_rng(0), loc, 10.0, 0.0, None, 10**5)
    assert loc < -190 and (x >= 0.0).all()
    assert x.mean() == pytest.approx(0.5, rel=0.01)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(-35.0, 35.0), width=st.floats(0.1, 70.0),
       sides=st.sampled_from(["both", "lower", "upper"]))
def test_truncated_mean_matches_truncnorm(x, width, sides):
    """Standardized bounds out to 35 on either side, intervals at least a
    tenth of an sd wide; truncnorm.mean(loc=, scale=) is loc + scale * this."""
    if sides == "both":
        a = min(x, 34.9)
        b = min(a + width, 35.0)
    else:
        a, b = (x, np.inf) if sides == "lower" else (-np.inf, x)
    ref = truncnorm.mean(a, b)
    assert abs(_std_truncnorm_mean(a, b) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_default_cohort_shape_and_values():
    table = synth_default_cohort(n=500, seed=1)
    assert table.n == 500 and table.d == 17
    validate_values(table)  # bounds and grids respected even with missing
    assert 0.0 < table.y.mean() < 1.0
    assert np.isnan(table.X).any()
    clean = synth_default_cohort(n=200, seed=1, with_missing=False)
    assert not np.isnan(clean.X).any()


def test_class_conditional_means_recovered():
    # large n so sampling error is small; continuous features only
    table = synth_default_cohort(n=20000, seed=3, with_missing=False)
    ref = reference_summary()
    names = table.feature_names
    for c in (0, 1):
        Xc = table.X[table.y == c]
        g = ref.groups[f"class{c}"]
        for j, name in enumerate(names):
            if table.schema[j].kind != "continuous":
                continue
            tol = 5.0 * g.sd[j] / np.sqrt(Xc.shape[0])
            assert abs(Xc[:, j].mean() - g.mean[j]) < max(tol, 0.05), name


def test_binary_prevalence_recovered():
    table = synth_default_cohort(n=20000, seed=4, with_missing=False)
    ref = reference_summary()
    for j, spec in enumerate(table.schema):
        if spec.kind != "binary":
            continue
        for c in (0, 1):
            got = table.X[table.y == c, j].mean()
            want = ref.groups[f"class{c}"].mean[j]
            assert abs(got - want) < 0.03


def test_missing_rates_applied():
    rates = {"BUN": 0.3}
    table = synth_cohort(reference_summary(), 5000, 0.2, rates, seed=5)
    j = table.index_of("BUN")
    frac = np.isnan(table.X[:, j]).mean()
    assert abs(frac - 0.3) < 0.03
    other = table.index_of("Age")
    assert not np.isnan(table.X[:, other]).any()


def test_determinism_and_seed_sensitivity():
    a = synth_default_cohort(n=300, seed=8)
    b = synth_default_cohort(n=300, seed=8)
    c = synth_default_cohort(n=300, seed=9)
    assert a.equals(b)
    assert not a.equals(c)


def test_config_validation():
    with pytest.raises(ConfigError):
        synth_cohort(reference_summary(), 5, 0.2)
    with pytest.raises(ConfigError):
        synth_cohort(reference_summary(), 100, 0.0)
    with pytest.raises(ConfigError):
        synth_cohort(reference_summary(), 100, 0.2, {"BUN": 1.5})
