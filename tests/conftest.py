import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from icurisk import _fanout
from icurisk.cohort import CohortTable
from icurisk.schema import FeatureSpec
from icurisk.synth import synth_default_cohort


def small_schema():
    return (
        FeatureSpec(name="age", kind="continuous", unit="years", lower=18.0, upper=95.0),
        FeatureSpec(name="lactate", kind="continuous", unit="mmol/L", lower=0.0),
        FeatureSpec(name="vent", kind="binary"),
        FeatureSpec(name="gcs", kind="ordinal_score", lower=3.0, upper=15.0, step=1.0),
    )


def make_table(n=40, seed=0, missing=0.0, schema=None, informative=False):
    """Random cohort on small_schema. informative=True couples the label to
    the first feature so models have signal to find."""
    rng = np.random.default_rng(seed)
    schema = schema or small_schema()
    cols = []
    for s in schema:
        if s.kind == "continuous":
            lo = s.lower if s.lower is not None else 0.0
            hi = s.upper if s.upper is not None else lo + 10.0
            cols.append(rng.uniform(lo, hi, n))
        elif s.kind == "binary":
            cols.append(rng.integers(0, 2, n).astype(float))
        else:
            cols.append(rng.choice(s.grid(), n))
    X = np.column_stack(cols)
    if informative:
        mid = np.median(X[:, 0])
        p = np.where(X[:, 0] > mid, 0.85, 0.15)
        y = (rng.random(n) < p).astype(int)
    else:
        y = rng.integers(0, 2, n)
    y[0], y[1] = 0, 1  # both classes always present
    if missing > 0:
        mask = rng.random(X.shape) < missing
        mask[:2] = False  # keep every feature observed somewhere
        X = np.where(mask, np.nan, X)
    return CohortTable(schema, X, y)


def pattern_group_table():
    """The default cohort's 1301 rows, the first 400 of them completed and
    then missing the same two columns: one missing pattern of 400 rows
    beside the cohort's own patterns."""
    table = synth_default_cohort(seed=3)
    X = table.X.copy()
    X[:400] = np.where(np.isnan(X[:400]), np.nanmean(X, axis=0), X[:400])
    X[:400, [1, 4]] = np.nan
    return table.with_matrix(X)


def wrap_everywhere(monkeypatch, original, wrapper):
    """Replace original with wrapper at every icurisk import site."""
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "icurisk":
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, name, wrapper)


def fail_fanout_os(monkeypatch, name, err, works=0):
    """Make icurisk._fanout's calls to os.<name> raise OSError(err) after the
    first `works` calls, which go through; no other module's os is touched.
    Returns the list of what the calls that went through returned."""
    real = getattr(os, name)
    passed = []

    def call(*args):
        if len(passed) >= works:
            raise OSError(err, os.strerror(err))
        passed.append(real(*args))
        return passed[-1]

    monkeypatch.setattr(_fanout, "os", SimpleNamespace(**{**vars(os), name: call}))
    return passed


@pytest.fixture
def schema4():
    return small_schema()


@pytest.fixture
def table40():
    return make_table(40, seed=3, missing=0.1)


@pytest.fixture
def table200():
    return make_table(200, seed=5, informative=True)
