"""The release gate: every published number and algorithmic contract the
package commits to, one test per criterion.

Each criterion function returns a detail string on success and raises with a
diagnostic on failure, so `pytest -v` shows one pass/fail line per criterion
and `icurisk selftest` prints the same battery outside the test harness.
"""

import os
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import icurisk
from icurisk.preprocess import EncoderLookup, fit_pipeline
from icurisk.selftest import CRITERIA, _same_fit

from conftest import make_table


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.cid for c in CRITERIA])
def test_acceptance(criterion):
    detail = criterion.fn()
    print(f"PASS {criterion.cid} {criterion.title}: {detail}")


def test_a_failing_criterion_fails_under_optimize():
    # python -O strips assert statements; a broken criterion must still
    # print FAIL and fail the battery
    script = textwrap.dedent("""
        import sys
        assert False, "asserts are live"
        from icurisk import selftest
        selftest._CONFUSION_RATES["accuracy"] = 0.5
        selftest.CRITERIA = tuple(c for c in selftest.CRITERIA if c.cid == "C02")
        sys.exit(0 if selftest.run_selftest() else 4)
    """)
    src = os.path.dirname(os.path.dirname(icurisk.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout.startswith("FAIL C02 published confusion-matrix rates: accuracy")


def test_the_fast_battery_passes_with_warnings_as_errors():
    # a warning a criterion's code path emits would turn into an exception
    # and a FAIL line under -W error
    src = os.path.dirname(os.path.dirname(icurisk.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "icurisk.cli",
                           "selftest", "--fast"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    ran = [c.cid for c in CRITERIA if c.cid != "C10"]
    assert [line.split()[:2] for line in lines if not line.startswith("SKIP")] \
        == [["PASS", cid] for cid in ran], proc.stdout


def test_selftest_runs_clean_up_their_directories(monkeypatch, tmp_path):
    # the end-to-end runs are stubbed out: only the directory handling runs
    from icurisk import selftest

    def fake_write(result, out_dir=None):
        out = out_dir or result.out_dir
        with open(os.path.join(out, "report.json"), "w") as fh:
            fh.write("{}")
        return SimpleNamespace(artifacts=(("report.json", "digest", 2),))

    exit_hooks = []
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(selftest, "run", lambda config: config)
    monkeypatch.setattr(selftest, "write_artifacts", fake_write)
    monkeypatch.setattr(selftest.atexit, "register",
                        lambda fn, *args, **kw: exit_hooks.append((fn, args, kw)))

    assert selftest._determinism_probe.__wrapped__() == [{"report.json": "digest"}] * 2
    assert list(tmp_path.iterdir()) == []

    _, _, out = selftest.full_run.__wrapped__()
    assert os.path.exists(os.path.join(out, "report.json"))
    for fn, args, kw in exit_hooks:
        fn(*args, **kw)
    assert list(tmp_path.iterdir()) == []


def test_leakage_probe_sees_a_one_bit_difference():
    # C11 compares fitted pipelines with _same_fit; one bit of one encoded
    # value, or of one cell of either kept training table, must show
    pipe = fit_pipeline(make_table(40, seed=3, missing=0.1))
    [enc] = pipe.lookup.encoders

    def nudged(a):
        a = a.copy()
        a.flat[0] = np.nextafter(a.flat[0], np.inf)
        return a

    assert _same_fit(pipe, replace(
        pipe, lookup=EncoderLookup((replace(enc, table=enc.table.copy()),))))
    assert not _same_fit(pipe, replace(
        pipe, lookup=EncoderLookup((replace(enc, table=nudged(enc.table)),))))
    for name in ("imputed_table", "fitted_table"):
        table = getattr(pipe, name)
        changed = replace(pipe, **{name: table.with_matrix(nudged(table.X))})
        assert changed == pipe      # the kept tables are outside ==
        assert not _same_fit(pipe, changed)
