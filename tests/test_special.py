"""Native special functions against numpy references."""

import numpy as np
import pytest

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
