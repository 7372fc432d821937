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

from icurisk import report as report_module
from icurisk.cli import main
from icurisk.errors import DataError
from icurisk.pipeline import RunConfig
from icurisk.report import (artifact_dir, build_report, config_echo,
                            config_hash, emit_report, load_manifest,
                            load_report_schema, validate_report,
                            write_artifacts)
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
    error = DataError("[stage:models] no rows")
    error.stage = "models"
    with pytest.raises(DataError) as raised:
        with artifact_dir(str(tmp_path), config_echo(cfg)):
            raise error
    assert raised.value is error  # re-raised as it is
    stored = load_manifest(str(tmp_path))
    assert stored["status"] == "failed"
    assert stored["failed_stage"] == "models"
    # a file the run did not write stays on disk, unlisted
    assert (tmp_path / "partial.csv").read_text() == "a,b\n1,2\n"
    assert stored["artifacts"] == []
    assert stored["config_hash"] == config_hash(cfg)


def test_no_manifest_stands_while_a_run_writes(run_out, tmp_path):
    result, _, out = run_out
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    with artifact_dir(str(clone), config_echo(result.config)):
        assert not (clone / "manifest.json").exists()


def test_a_run_stopped_after_its_report_leaves_no_manifest(
        run_out, tmp_path, monkeypatch):
    # the complete manifest of the run before must not vouch for the new
    # report.json
    result, _, out = run_out
    clone = tmp_path / "clone"
    shutil.copytree(out, clone)
    (clone / "report.json").unlink()

    def interrupted(report):
        raise KeyboardInterrupt

    monkeypatch.setattr(report_module, "_projections", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_artifacts(result, str(clone))
    assert (clone / "report.json").is_file()
    assert not (clone / "manifest.json").exists()


def _previous_run(out, listed):
    """A directory as a run left it: a manifest over the names listed, a
    file for each plain name, and the user's own notes.txt."""
    out.mkdir()
    for name in ("old.csv", "kept.csv", "notes.txt"):
        (out / name).write_text(name)
    (out / "manifest.json").write_text(json.dumps(
        {"status": "complete", "artifacts": [{"path": p} for p in listed]}))


def test_a_completed_body_removes_the_files_the_manifest_listed(tmp_path):
    out = tmp_path / "arts"
    _previous_run(out, ["old.csv", "kept.csv"])
    with artifact_dir(str(out), config_echo(RunConfig(seed=9))) as written:
        report_module._write_texts(str(out), [("kept.csv", "new")], written)
    assert sorted(p.name for p in out.iterdir()) == ["kept.csv", "notes.txt"]
    assert (out / "kept.csv").read_text() == "new"
    assert (out / "notes.txt").read_text() == "notes.txt"


def test_a_failed_body_removes_no_file_the_manifest_listed(tmp_path):
    out = tmp_path / "arts"
    _previous_run(out, ["old.csv", "kept.csv"])
    with pytest.raises(DataError):
        with artifact_dir(str(out), config_echo(RunConfig(seed=9))):
            raise DataError("no rows")
    assert sorted(p.name for p in out.iterdir()) == [
        "kept.csv", "manifest.json", "notes.txt", "old.csv"]
    assert load_manifest(str(out))["artifacts"] == []


def test_a_manifest_is_outside_input(tmp_path):
    # only plain names of regular files directly in out_dir are removed
    out = tmp_path / "arts"
    outside = tmp_path / "x.csv"
    outside.write_text("x")
    absolute = tmp_path / "abs.csv"
    absolute.write_text("abs")
    listed = ["../x.csv", str(absolute), str(out / "old.csv"), "sub/../old.csv",
              ".", "..", "", "sub", "link.csv", "manifest.json", 5, None]
    _previous_run(out, listed)
    (out / "sub").mkdir()
    (out / "link.csv").symlink_to(outside)
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    manifest["artifacts"] += ["old.csv", {"name": "old.csv"}]
    (out / "manifest.json").write_text(json.dumps(manifest))
    before = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    with artifact_dir(str(out), config_echo(RunConfig(seed=9))):
        pass
    assert sorted(p.name for p in out.iterdir()) == before
    assert outside.read_text() == "x" and absolute.read_text() == "abs"


def test_a_missing_or_corrupt_manifest_lists_nothing_to_remove(tmp_path):
    for manifest in (None, "{truncated", "[]", '{"artifacts": 5}',
                     '{"artifacts": {"path": "old.csv"}}'):
        out = tmp_path / f"arts{len(list(tmp_path.iterdir()))}"
        _previous_run(out, [])
        if manifest is None:
            (out / "manifest.json").unlink()
        else:
            (out / "manifest.json").write_text(manifest)
        with artifact_dir(str(out), config_echo(RunConfig(seed=9))):
            pass
        assert sorted(p.name for p in out.iterdir()) == [
            "kept.csv", "notes.txt", "old.csv"]


def test_emit_report_requires_existing_report(tmp_path):
    with pytest.raises(DataError, match="cannot read report"):
        emit_report(str(tmp_path))
    (tmp_path / "report.json").write_text("{broken")
    with pytest.raises(DataError, match="not valid JSON"):
        emit_report(str(tmp_path))


def test_a_nan_anywhere_in_a_result_is_refused_typed(run_out, tmp_path):
    # the whole report is sanitized once, so a NaN in a field that is
    # copied as it is reaches the schema check as null and is refused there
    result, _, _ = run_out
    row = replace(result.benchmark[0], cv_mean_auroc=float("nan"))
    bad = replace(result, benchmark=(row, *result.benchmark[1:]))
    report = build_report(bad)
    assert report["benchmark"][0]["cv_mean_auroc"] is None
    with pytest.raises(DataError, match=r"\$\.benchmark\[0\]\.cv_mean_auroc"):
        validate_report(report, load_report_schema())
    # and write_artifacts leaves a failed manifest, not a complete one
    out = tmp_path / "arts"
    out.mkdir()
    (out / "manifest.json").write_text('{"status": "complete"}')
    with pytest.raises(DataError, match="cv_mean_auroc"):
        write_artifacts(bad, str(out))
    stored = load_manifest(str(out))
    assert (stored["status"], stored["failed_stage"]) == ("failed", "report")
    assert stored["config_hash"] == config_hash(result.config)


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


def _drop_last_shap_row(report):
    report["shap"]["values"].pop()
    return "shap.values"


def _shorten_a_shap_row(report):
    report["shap"]["values"][0].pop()
    return "shap.values"


def _ragged_row_values(report):
    report["shap"]["row_values"][-1].append(0.0)
    return "shap.row_values"


def _empty_ale_curve(report):
    report["ale"][0]["centered"] = []
    return "ale[0].centered"


def _no_shap_rows(report):
    for key in ("row_ids", "values", "row_values"):
        report["shap"][key] = []
    return "shap.row_ids"


def _no_shap_features(report):
    report["shap"]["feature_names"] = []
    for key in ("values", "row_values"):
        report["shap"][key] = [[] for _ in report["shap"][key]]
    return "shap.feature_names"


def _short_roc_tpr(report):
    report["roc_test"]["tpr"].pop()
    return "roc_test.tpr"


def _short_mi_scores(report):
    report["selection"]["mi"]["scores"].pop()
    return "selection.mi.scores"


def _no_posterior_samples(report):
    report["posterior"]["samples"] = []
    return "posterior.samples"


def _no_ale_curves(report):
    report["ale"] = []
    return "ale"


def _nan_posterior_mean(report):
    report["posterior"]["mean"] = float("nan")  # json.dumps writes NaN
    return "$.posterior.mean"


def _no_ablation_features(report):
    report["ablation"]["features"] = []
    return "ablation.features"


def _drop_first_mean_drop(report):
    name = report["ablation"]["features"][0]
    del report["ablation"]["mean_drop"][name]
    return f"ablation.mean_drop has no entry for {name!r}"


def _null_first_mean_drop(report):
    name = report["ablation"]["features"][0]
    report["ablation"]["mean_drop"][name] = None  # as a NaN is written
    return f"ablation.mean_drop has no entry for {name!r}"


def _null_in_an_ablation_distribution(report):
    name = report["ablation"]["features"][0]
    report["ablation"]["distributions"][name][0] = None  # as a NaN is written
    return f"$.ablation.distributions.{name}[0]"


def _string_dropped_auroc(report):
    name = report["ablation"]["features"][0]
    report["ablation"]["dropped_auroc"][name] = "high"
    return f"$.ablation.dropped_auroc.{name}"


def _empty_ablation_distribution(report):
    name = report["ablation"]["features"][-1]
    report["ablation"]["distributions"][name] = []
    return f"ablation.distributions.{name}"


# each edit returns the key or label the error message must name
_INCOMPLETE = {
    "mi_excluded": _pop("selection", "mi", "excluded_near_zero"),
    "train_metric": _pop("benchmark", 0, "train", "ppv"),
    "ttest_row_key": _pop("cohort_comparison", "survivor_vs_nonsurvivor", 0,
                          "mean_a"),
    "shap_row_values": _pop("shap", "row_values"),
    "ablation_distribution": _drop_first_distribution,
    "unknown_winner": _name_an_unknown_winner,
    "shap_values_fewer_rows": _drop_last_shap_row,
    "shap_values_short_row": _shorten_a_shap_row,
    "shap_row_values_ragged": _ragged_row_values,
    "ale_centered_empty": _empty_ale_curve,
    "shap_no_rows": _no_shap_rows,
    "shap_no_features": _no_shap_features,
    "roc_tpr_short": _short_roc_tpr,
    "mi_scores_short": _short_mi_scores,
    "ablation_distribution_empty": _empty_ablation_distribution,
    "ablation_distribution_null": _null_in_an_ablation_distribution,
    "ablation_dropped_auroc_string": _string_dropped_auroc,
    "posterior_no_samples": _no_posterior_samples,
    "ale_no_curves": _no_ale_curves,
    "ablation_no_features": _no_ablation_features,
    "ablation_mean_drop": _drop_first_mean_drop,
    "ablation_mean_drop_null": _null_first_mean_drop,
    "posterior_mean_nan": _nan_posterior_mean,
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
