"""Report serialization: the JSON document is the single numeric source,
projections derive from it byte-reproducibly, and the manifest checksums
every emitted file."""

import csv
import hashlib
import json
import os
import shutil
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from icurisk.cli import main
from icurisk.errors import DataError
from icurisk.pipeline import RunConfig
from icurisk.report import (config_hash, emit_report, load_manifest,
                            load_report_schema, validate_report,
                            write_failed_manifest)
from icurisk.selftest import full_run


@pytest.fixture(scope="module")
def run_out():
    result, manifest, out = full_run()
    return result, manifest, out


def _read_report(out):
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_report_validates_against_bundled_schema(run_out):
    _, _, out = run_out
    report = _read_report(out)
    validate_report(report, load_report_schema())  # must not raise
    assert report["format_version"] == 1
    for key in ("config", "cohort", "selection", "cohort_comparison",
                "benchmark", "winner", "shap_model", "roc_test", "ablation",
                "shap", "ale", "posterior"):
        assert key in report


def test_validation_rejects_type_drift(run_out):
    _, _, out = run_out
    report = _read_report(out)
    report["winner"] = 5
    with pytest.raises(DataError, match=r"\$\.winner"):
        validate_report(report, load_report_schema())


def test_manifest_checksums_recompute(run_out):
    _, manifest, out = run_out
    stored = load_manifest(out)
    assert stored["status"] == "complete"
    assert stored["failed_stage"] is None
    assert stored["config_hash"] == manifest.config_hash
    for entry in stored["artifacts"]:
        with open(os.path.join(out, entry["path"]), "rb") as fh:
            data = fh.read()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]
    names = {e["path"] for e in stored["artifacts"]}
    assert {"report.json", "cohort_ttest.csv", "metrics_train.csv",
            "metrics_test.csv", "selection.csv"} <= names
    assert any(n.startswith("roc") and n.endswith(".svg") for n in names)
    assert "manifest.json" not in names  # the manifest cannot checksum itself


def test_metrics_csv_mirrors_report(run_out):
    _, _, out = run_out
    report = _read_report(out)
    with open(os.path.join(out, "metrics_test.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["model"] for r in rows] == [b["label"] for b in report["benchmark"]]
    for row, bench in zip(rows, report["benchmark"]):
        assert float(row["auroc"]) == bench["test"]["auroc"]
        assert float(row["sensitivity"]) == bench["test"]["sensitivity"]
        assert int(row["tp"]) == bench["test"]["tp"]
        assert float(row["cv_mean_auroc"]) == bench["cv_mean_auroc"]


def test_svgs_are_well_formed_xml(run_out):
    _, manifest, out = run_out
    svgs = [name for name, _, _ in manifest.artifacts if name.endswith(".svg")]
    assert len(svgs) >= 4
    for name in svgs:
        root = ET.parse(os.path.join(out, name)).getroot()
        assert root.tag.endswith("svg")


def test_config_hash_ignores_environment_fields():
    cfg = RunConfig(seed=3)
    moved = replace(cfg, out_dir="/somewhere/else")
    assert config_hash(cfg) == config_hash(moved)
    assert config_hash(cfg) != config_hash(replace(cfg, seed=4))
    report_echo_free = config_hash(replace(cfg, top_k=5))
    assert report_echo_free != config_hash(cfg)


def test_reemission_is_byte_identical(run_out, tmp_path):
    _, manifest, out = run_out
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    refreshed = emit_report(str(clone))
    before = {name: digest for name, digest, _ in manifest.artifacts}
    after = {name: digest for name, digest, _ in refreshed.artifacts}
    assert before == after
    assert refreshed.config_hash == manifest.config_hash


def test_failed_manifest(tmp_path):
    (tmp_path / "partial.csv").write_text("a,b\n1,2\n")
    cfg = RunConfig(seed=9)
    manifest = write_failed_manifest(str(tmp_path), cfg, "models")
    stored = load_manifest(str(tmp_path))
    assert stored["status"] == "failed"
    assert stored["failed_stage"] == "models"
    assert manifest.checksum_of("partial.csv")
    assert stored["config_hash"] == config_hash(cfg)


def test_emit_report_requires_existing_report(tmp_path):
    with pytest.raises(DataError, match="no report"):
        emit_report(str(tmp_path))
    (tmp_path / "report.json").write_text("{broken")
    with pytest.raises(DataError, match="not valid JSON"):
        emit_report(str(tmp_path))


def _pop(*path):
    """An edit that deletes the key at path and returns its name."""
    def edit(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        return path[-1]
    return edit


def _drop_first_distribution(report):
    name = report["ablation"]["features"][0]
    del report["ablation"]["distributions"][name]
    return name


def _name_an_unknown_winner(report):
    report["winner"] = "no_such_row"
    return "no_such_row"


# each edit returns the key or label the error message must name
_INCOMPLETE = {
    "mi_excluded": _pop("selection", "mi", "excluded_near_zero"),
    "train_metric": _pop("benchmark", 0, "train", "ppv"),
    "ttest_row_key": _pop("cohort_comparison", "survivor_vs_nonsurvivor", 0,
                          "mean_a"),
    "shap_row_values": _pop("shap", "row_values"),
    "ablation_distribution": _drop_first_distribution,
    "unknown_winner": _name_an_unknown_winner,
}


@pytest.mark.parametrize("case", sorted(_INCOMPLETE))
def test_report_verb_refuses_an_incomplete_report(run_out, tmp_path, capsys,
                                                  case):
    # exit 3 naming what is missing, with every file on disk left as it was
    _, _, out = run_out
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    report = _read_report(clone)
    named = _INCOMPLETE[case](report)
    (clone / "report.json").write_text(json.dumps(report), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in clone.iterdir()}
    capsys.readouterr()
    assert main(["report", "--out", str(clone)]) == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in clone.iterdir()} == before
