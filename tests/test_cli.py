"""Command-line interface: verbs, flag plumbing, and exit codes."""

import hashlib
import json
import os

import pytest

from icurisk import _fanout
from icurisk.cli import main
from icurisk.cohort import load_cohort, save_cohort
from icurisk.errors import DataError
from icurisk.models import cv
from icurisk.report import load_manifest, load_report_schema, validate_report
from icurisk.schema import default_schema
from icurisk.synth import synth_default_cohort

_SMALL = dict(seed=11, synth_n=400, top_k=6, cv_folds=3, n_bootstrap=100,
              ablation_resamples=10, shap_background=24, shap_rows=6,
              ale_top=1, posterior_chains=12, posterior_generations=300)


def _write_config(tmp_path, **over):
    payload = {**_SMALL, **over}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_synth_writes_loadable_cohort(tmp_path, capsys):
    out = str(tmp_path / "cohort.csv")
    code = main(["synth", "--seed", "4", "--n", "200", "--out", out])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    table = load_cohort(out, default_schema())
    assert table.n == 200 and table.d == 17


def test_run_verb_produces_artifacts(tmp_path, capsys):
    out = str(tmp_path / "arts")
    code = main(["run", "--config", _write_config(tmp_path), "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "winner:" in printed and "artifacts:" in printed
    manifest = load_manifest(out)
    assert manifest["status"] == "complete"
    names = {e["path"] for e in manifest["artifacts"]}
    assert "report.json" in names and "metrics_test.csv" in names


def test_single_feature_run_writes_a_complete_report(tmp_path, capsys):
    # with one selected feature there is nothing to drop: the ablation
    # list is empty and its plot shows the baseline alone
    out = tmp_path / "arts"
    code = main(["run", "--config", _write_config(tmp_path, top_k=1),
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    manifest = load_manifest(str(out))
    assert manifest["status"] == "complete"
    for entry in manifest["artifacts"]:
        blob = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
    assert "ablation.svg" in {e["path"] for e in manifest["artifacts"]}
    report = json.loads((out / "report.json").read_text())
    validate_report(report, load_report_schema())
    assert report["ablation"]["features"] == []


def test_posterior_settings_fail_before_fitting(tmp_path, capsys):
    # 6 generations keep 3 draws per chain, too few for split-rhat
    for key, value in (("posterior_chains", 2), ("posterior_generations", 6)):
        cfg = _write_config(tmp_path, **{key: value})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be >=" in err and "[stage:" not in err


def test_hopeless_coverage_settings_are_exit_2_before_any_stage(
        tmp_path, capsys):
    out = tmp_path / "x"
    for over, named in (({"max_missing_fraction": 1.5}, "max_missing_fraction"),
                        ({"min_documented_patients": -1},
                         "min_documented_patients"),
                        ({"synth_n": 60}, "synth_n=60")):
        cfg = _write_config(tmp_path, **over)
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert named in err and "[stage:" not in err
    assert not out.exists()


def test_out_naming_a_file_is_exit_2_before_fitting(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["run", "--config", _write_config(tmp_path),
                 "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert "out_dir" in err and str(taken) in err and "[stage:" not in err


def test_unknown_verb_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["explain", "--seed", "1"])
    assert exc.value.code == 2
    assert "invalid choice: 'explain'" in capsys.readouterr().err


def test_report_verb_reemits(tmp_path, capsys):
    out = str(tmp_path / "arts")
    assert main(["run", "--config", _write_config(tmp_path),
                 "--out", out]) == 0
    capsys.readouterr()
    assert main(["report", "--out", out]) == 0
    assert "re-emitted" in capsys.readouterr().out
    # a corrupt manifest is replaced, as a missing one is
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        fh.write("{truncated")
    with pytest.raises(DataError, match="manifest.json"):
        load_manifest(out)
    assert main(["report", "--out", out]) == 0
    assert load_manifest(out)["status"] == "complete"
    # so is a manifest of the wrong shape
    for bad in ([], {"stage_seconds": 5}, {"stage_seconds": [1, 2]}):
        with open(os.path.join(out, "manifest.json"), "w") as fh:
            json.dump(bad, fh)
        with pytest.raises(DataError, match="manifest.json"):
            load_manifest(out)
        assert main(["report", "--out", out]) == 0
        assert load_manifest(out)["status"] == "complete"
    # a report.json that is not UTF-8 is a data error
    with open(os.path.join(out, "report.json"), "wb") as fh:
        fh.write(b"\xff\xfe{}")
    capsys.readouterr()
    assert main(["report", "--out", out]) == 3
    assert "report.json" in capsys.readouterr().err


def test_seed_flag_overrides_config(tmp_path):
    out = str(tmp_path / "arts")
    cfg = _write_config(tmp_path)
    assert main(["run", "--config", cfg, "--seed", "77", "--out", out]) == 0
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["config"]["seed"] == 77


def test_missing_seed_and_config_is_exit_2(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "x")]) == 2
    assert "config error" in capsys.readouterr().err


def test_unreadable_config_is_exit_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"seed": 1, "out_dir": "caf\xe9"}')
    assert main(["run", "--config", str(latin1)]) == 2
    assert str(latin1) in capsys.readouterr().err


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    # configs written before those RunConfig fields were removed
    bad = tmp_path / "bad.json"
    for key, value in (("learning_rate", 0.1), ("threshold_policy", "youden"),
                       ("synth_missing", False), ("k_neighbors", 5),
                       ("alpha", 10.0), ("mi_bins", 10),
                       ("grid_preset", "compact"), ("ale_bins", 20),
                       ("posterior_burn_in", 0.5)):
        bad.write_text(json.dumps({"seed": 1, key: value}))
        assert main(["run", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "unknown config keys" in err and key in err


def test_malformed_data_is_exit_3_with_failed_manifest(tmp_path, capsys):
    csv_path = tmp_path / "broken.csv"
    header = ",".join(s.name for s in default_schema()) + ",label"
    csv_path.write_text(header + "\n" + "oops," * 17 + "0\n")
    out = str(tmp_path / "arts")
    cfg = _write_config(tmp_path, input_path=str(csv_path))
    assert main(["run", "--config", cfg, "--out", out]) == 3
    assert "data error" in capsys.readouterr().err
    manifest = load_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "dataset"


@pytest.mark.parametrize("source", ["synthetic", "csv"])
def test_one_class_cohort_is_exit_3_naming_its_source(source, tmp_path, capsys):
    if source == "synthetic":
        cfg = _write_config(tmp_path, synth_n=10, synth_event_rate=0.01,
                            min_documented_patients=1)
        named = ("synth_n=10", "synth_event_rate=0.01")
    else:
        csv_path = tmp_path / "cohort.csv"
        assert main(["synth", "--seed", "4", "--n", "50", "--out",
                     str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(
            [lines[0]] + [line.rsplit(",", 1)[0] + ",0" for line in lines[1:]]) + "\n")
        cfg = _write_config(tmp_path, input_path=str(csv_path))
        named = (f"input_path {csv_path}",)
    out = str(tmp_path / "arts")
    assert main(["run", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "[stage:dataset]" in err and "both classes" in err
    assert all(key in err for key in named), err
    manifest = load_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "dataset"


def test_out_of_schema_cell_is_exit_3_with_failed_manifest(tmp_path, capsys):
    # a negative BUN loads as a number but lies below the schema's bound
    csv_path = tmp_path / "cohort.csv"
    assert main(["synth", "--seed", "4", "--n", "200", "--out",
                 str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    col = lines[0].split(",").index("BUN")
    cells = lines[5].split(",")
    cells[col] = "-5"
    lines[5] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "arts")
    cfg = _write_config(tmp_path, input_path=str(csv_path))
    assert main(["run", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "cohort.csv:6: column 'BUN'" in err and "[stage:dataset]" in err
    manifest = load_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "dataset"


def test_more_folds_than_positives_is_exit_3_at_the_models_stage(
        tmp_path, capsys):
    out = str(tmp_path / "arts")
    cfg = _write_config(tmp_path, cv_folds=100)
    assert main(["run", "--config", cfg, "--out", out]) == 3
    err = capsys.readouterr().err
    assert "class 1 has" in err and "cv_folds=100" in err
    assert "[stage:models]" in err
    manifest = load_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "models"


def test_a_dead_worker_is_exit_4_with_failed_manifest(
        tmp_path, capsys, monkeypatch):
    # every model fit in a forked worker ends its process, as the kernel's
    # out-of-memory killer would, before the worker sends its results
    train_model = cv.train_model

    def dying(*args, **kwargs):
        if _fanout._IN_CHILD:
            os._exit(9)
        return train_model(*args, **kwargs)

    monkeypatch.setattr(_fanout, "_cpu_count", lambda: 2)
    monkeypatch.setattr(cv, "train_model", dying)
    out = str(tmp_path / "arts")
    assert main(["run", "--config", _write_config(tmp_path), "--out", out]) == 4
    err = capsys.readouterr().err
    assert "worker failure" in err and "[stage:models]" in err
    assert "exited with code 9" in err
    manifest = load_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "models"


@pytest.mark.parametrize("key,content,code", [
    ("schema_path", b"[{not json", 2),
    ("schema_path", b'{"name": "age", "kind": "continuous"}', 2),
    ("schema_path", b'[{"name": "age", "kind": "continuous", '
                    b'"lower": "low", "upper": 90}]', 2),
    ("input_path", None, 3),                        # a directory
    ("input_path", b"age,label\n\xff\xfe,0\n", 3),  # not UTF-8
])
def test_unreadable_input_file_is_typed_with_failed_manifest(
        tmp_path, capsys, key, content, code):
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    over = {key: str(path)}
    if key == "schema_path":  # a schema describes an input CSV
        csv_path = tmp_path / "cohort.csv"
        save_cohort(synth_default_cohort(n=60, seed=2), csv_path)
        over["input_path"] = str(csv_path)
    out = str(tmp_path / "arts")
    cfg = _write_config(tmp_path, **over)
    assert main(["run", "--config", cfg, "--out", out]) == code
    err = capsys.readouterr().err
    assert str(path) in err and "[stage:dataset]" in err
    manifest = load_manifest(out)
    assert manifest["status"] == "failed"
    assert manifest["failed_stage"] == "dataset"


def test_schema_path_without_input_path_is_exit_2_before_any_stage(
        tmp_path, capsys):
    schema_path = tmp_path / "schema.json"
    schema_path.write_text('[{"name": "age", "kind": "continuous"}]')
    out = tmp_path / "arts"
    cfg = _write_config(tmp_path, schema_path=str(schema_path))
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "schema_path" in err and "input_path" in err
    assert "[stage:" not in err and not out.exists()


def test_synth_to_a_missing_directory_is_exit_2(tmp_path, capsys):
    out = str(tmp_path / "absent" / "x.csv")
    assert main(["synth", "--n", "50", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and out in err
