"""Native special functions against numpy references."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from icurisk.special import log1pexp, logit, sigmoid


def test_sigmoid_stable_at_extremes():
    z = np.array([-1000.0, -30.0, 0.0, 30.0, 1000.0])
    with np.errstate(over="raise"):
        p = sigmoid(z)
    assert p[0] == 0.0 and p[-1] == 1.0
    assert p[2] == 0.5
    assert np.all((p >= 0) & (p <= 1))


def test_log1pexp_stable_and_accurate():
    with np.errstate(over="raise"):
        big = log1pexp(np.array([800.0]))
    assert big[0] == pytest.approx(800.0)
    assert log1pexp(np.array([-800.0]))[0] == pytest.approx(0.0, abs=1e-300)
    z = np.linspace(-30, 30, 201)
    assert np.allclose(log1pexp(z), np.logaddexp(0.0, z), atol=1e-13)


def test_logit_inverts_sigmoid():
    for p in (0.01, 0.196, 0.5, 0.83, 0.999):
        assert sigmoid(np.array([logit(p)]))[0] == pytest.approx(p, abs=1e-12)


def _two_halves_sigmoid(z):
    """The logistic function as the package computed it before: each sign
    of z through its own boolean-indexed half."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


_EDGES = (0.0, -0.0, np.inf, -np.inf, np.nan, 745.5, -745.5, 800.0, -800.0,
          1e308, -1e308, 5e-324, -5e-324)


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=2, max_side=40),
              elements=st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                                 st.sampled_from(_EDGES))))
def test_sigmoid_matches_the_two_halves_bit_for_bit(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(z)
    want = _two_halves_sigmoid(z)
    assert type(got) is type(want) and _same_bits(got, want)


def test_sigmoid_edges_bit_for_bit():
    z = np.array(_EDGES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(z)
        scalars = [sigmoid(v) for v in _EDGES]
    assert _same_bits(got, _two_halves_sigmoid(z))
    assert all(isinstance(v, float) for v in scalars)
    assert _same_bits(scalars, [_two_halves_sigmoid(np.float64(v)) for v in _EDGES])
    assert got[2] == 1.0 and got[3] == 0.0 and np.isnan(got[4])
