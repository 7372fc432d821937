"""The demos run to the end in-process and leave no temporary files."""

import contextlib
import pathlib
import runpy
import tempfile

import pytest

_DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
# the scaled-down demo runs sample fewer DREAM chains than recommended
_FEW_CHAINS = r"chains for \d+ dimensions"


@pytest.mark.parametrize("name,warns", [
    ("explain_one_patient.py", False),
    ("quickstart.py", True),
    ("report_artifacts.py", True),
])
def test_demo_runs_and_cleans_up(name, warns, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)   # re-read TMPDIR
    expected = (pytest.warns(UserWarning, match=_FEW_CHAINS) if warns
                else contextlib.nullcontext())
    with expected:
        runpy.run_path(str(_DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
