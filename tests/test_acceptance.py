"""The release gate: every published number and algorithmic contract the
package commits to, one test per criterion.

Each criterion function returns a detail string on success and raises with a
diagnostic on failure, so `pytest -v` shows one pass/fail line per criterion
and `icurisk selftest` prints the same battery outside the test harness.
"""

import os
import subprocess
import sys
import textwrap

import pytest

import icurisk
from icurisk.selftest import CRITERIA


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
