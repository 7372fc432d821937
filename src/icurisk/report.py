"""Artifact emission: report.json as the single source of numbers, with CSV
and SVG files re-derived from it, plus a checksummed run manifest.

report.json is serialized canonically (sorted keys, NaN mapped to null), so
identical runs produce byte-identical artifacts. The manifest records the
config hash and the checksum of every emitted file; wall-clock timings live
only in the manifest so the report itself stays deterministic.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__ as _pkg_version
from .errors import DataError
from .explain import REFERENCE_INPUTS_POSTERIOR
from .pipeline import RunConfig, RunResult
from .svgplot import ale_svg, dot_rows_svg, histogram_svg, roc_svg

_REPORT_NAME = "report.json"
_MANIFEST_NAME = "manifest.json"


def _sanitize(obj):
    """JSON-safe copy: numpy scalars/arrays to python, NaN/inf to None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# out_dir describes the machine, not the analysis: two runs that differ
# only in it must produce byte-identical reports
_ENV_FIELDS = ("out_dir",)


def _config_echo(config: RunConfig) -> dict:
    return {k: v for k, v in asdict(config).items() if k not in _ENV_FIELDS}


def build_report(result: RunResult) -> dict:
    """Collect every reported number into one JSON-ready dictionary."""
    cfg = result.config
    ranking = result.ranking
    fpr, tpr, thr = result.roc
    abl = result.ablation_report
    dists = {name: abl.dropped_dist[name] for name in abl.features}
    shap_rows_raw = result.test.X[result.shap_row_ids]
    report = {
        "format_version": 1,
        "config": _sanitize(_config_echo(cfg)),
        "cohort": {
            "n": result.cohort.n,
            "event_rate": float(result.cohort.y.mean()),
            "n_train": result.train.n,
            "n_test": result.test.n,
            "event_rate_train": float(result.train.y.mean()),
            "event_rate_test": float(result.test.y.mean()),
            "features": list(result.train.feature_names),
        },
        "selection": {
            "filter": _sanitize(result.filter_report),
            "mi": {
                "features": list(ranking.features),
                "scores": _sanitize([ranking.scores[n] for n in ranking.features]),
                "selected": list(ranking.selected),
                "excluded_near_zero": list(ranking.excluded_near_zero),
                "n_bins": ranking.n_bins,
                "epsilon": ranking.epsilon,
            },
        },
        "cohort_comparison": {
            "train_vs_test": _sanitize(result.ttest_split),
            "survivor_vs_nonsurvivor": _sanitize(result.ttest_outcome),
        },
        "benchmark": [
            {
                "label": row.label,
                "family": row.spec.family,
                "params": _sanitize(row.spec.params),
                "grid_size": row.grid_size,
                "cv_mean_auroc": row.cv_mean_auroc,
                "cv_sd_auroc": _sanitize(row.cv_sd_auroc),
                "threshold": row.threshold,
                "train": _sanitize(asdict(row.metrics_train)),
                "test": _sanitize(asdict(row.metrics_test)),
                "notes": list(row.notes),
            }
            for row in result.benchmark
        ],
        "winner": result.winner,
        "shap_model": result.shap_model_label,
        "roc_test": {
            "fpr": _sanitize(fpr),
            "tpr": _sanitize(tpr),
            "thresholds": _sanitize(thr),
        },
        "ablation": {
            "model": result.winner,
            "n_resamples": abl.n_resamples,
            "baseline_auroc": abl.baseline_auroc,
            "baseline_dist": _sanitize(abl.baseline_dist),
            "features": list(abl.features),
            "dropped_auroc": _sanitize(abl.dropped_auroc),
            "distributions": _sanitize(dists),
            "mean_drop": {n: abl.mean_drop(n) for n in abl.features},
        },
        "shap": {
            **_sanitize(asdict(result.shap)),
            "model": result.shap_model_label,
            "row_ids": _sanitize(result.shap_row_ids),
            "row_values": _sanitize(shap_rows_raw),
        },
        "ale": [_sanitize(asdict(c)) for c in result.ale_curves],
        "posterior": {
            **_sanitize(asdict(result.posterior)),
            "mode": "inputs",
            "reference": _sanitize(REFERENCE_INPUTS_POSTERIOR),
        },
    }
    return report


def report_json_bytes(report: dict) -> bytes:
    return json.dumps(report, indent=1, sort_keys=True,
                      allow_nan=False).encode("utf-8") + b"\n"


# ---------------------------------------------------------------------------
# report schema (subset of JSON Schema: type/properties/required/items/enum,
# and $ref to a definition under the root's $defs)

def load_report_schema() -> dict:
    from importlib import resources

    with resources.files("icurisk.data").joinpath("report_schema.json").open(
            encoding="utf-8") as fh:
        return json.load(fh)


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, expected: str) -> bool:
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[expected])


def validate_report(report, schema, path="$", root=None) -> None:
    """Check a document against the shipped schema subset; raises DataError
    with the offending path."""
    root = schema if root is None else root
    if "$ref" in schema:
        schema = root["$defs"][schema["$ref"].removeprefix("#/$defs/")]
    expected = schema.get("type")
    if expected is not None:
        allowed = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(report, t) for t in allowed):
            raise DataError(f"{path}: expected {allowed}, got {type(report).__name__}")
    if "enum" in schema and report not in schema["enum"]:
        raise DataError(f"{path}: {report!r} not in {schema['enum']}")
    if isinstance(report, dict):
        for key in schema.get("required", []):
            if key not in report:
                raise DataError(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in report:
                validate_report(report[key], sub, f"{path}.{key}", root)
    if isinstance(report, list) and "items" in schema:
        for i, item in enumerate(report):
            validate_report(item, schema["items"], f"{path}[{i}]", root)


# ---------------------------------------------------------------------------
# CSV / SVG projections (read only from the report dict)

def _slug(name: str) -> str:
    s = re.sub(r"[^A-Za-z0-9]+", "_", name).strip("_").lower()
    return s or "feature"


def _cell(v):
    return "" if v is None else v


def _csv_text(header, rows) -> str:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([_cell(v) for v in row])
    return buf.getvalue()


_METRIC_COLS = ("auroc", "accuracy", "f1", "sensitivity", "specificity",
                "ppv", "npv", "threshold", "tp", "fp", "tn", "fn")


def emit_projections(report: dict, out_dir: str) -> list:
    """Write every CSV/SVG artifact from the report dict; returns filenames.
    Every projection is built before any is written, so a report they
    cannot be built from leaves the directory as it was."""
    texts = [item for emitter in (
        _emit_ttest, _emit_metrics, _emit_selection, _emit_roc,
        _emit_ablation, _emit_shap, _emit_ale, _emit_posterior)
        for item in emitter(report)]
    for name, text in texts:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
    return [name for name, _ in texts]


_TTEST_ORDER = ("train_vs_test", "survivor_vs_nonsurvivor")


def _emit_ttest(report):
    rows = []
    # fixed order: dict order differs between a fresh report and one parsed
    # back from the key-sorted JSON on disk
    for comparison in _TTEST_ORDER:
        for r in report["cohort_comparison"][comparison]:
            rows.append([comparison, r["feature"], r["unit"], r["n_a"], r["n_b"],
                         r["mean_a"], r["sd_a"], r["mean_b"], r["sd_b"],
                         r["t"], r["df"], r["p"], r["note"]])
    yield "cohort_ttest.csv", _csv_text(
        ["comparison", "feature", "unit", "n_a", "n_b", "mean_a", "sd_a",
         "mean_b", "sd_b", "t", "df", "p", "note"], rows)


def _emit_metrics(report):
    # one row per model, benchmark (paper table) order
    for split in ("train", "test"):
        header = ["model"] + list(_METRIC_COLS)
        if split == "test":
            header += ["auroc_ci_low", "auroc_ci_high", "cv_mean_auroc", "cv_sd_auroc"]
        rows = []
        for b in report["benchmark"]:
            m = b[split]
            row = [b["label"]] + [m[c] for c in _METRIC_COLS]
            if split == "test":
                row += [m["auroc_ci_low"], m["auroc_ci_high"],
                        b["cv_mean_auroc"], b["cv_sd_auroc"]]
            rows.append(row)
        yield f"metrics_{split}.csv", _csv_text(header, rows)


def _emit_selection(report):
    mi = report["selection"]["mi"]
    filt = {r["feature"]: r for r in report["selection"]["filter"]}
    sel_rows = []
    for name, score in zip(mi["features"], mi["scores"]):
        f = filt.get(name, {})
        sel_rows.append([name, score, name in mi["selected"],
                         name in mi["excluded_near_zero"],
                         f.get("missing_frac"), f.get("documented"),
                         f.get("variance"), f.get("kept"), f.get("reason")])
    yield "selection.csv", _csv_text(
        ["feature", "mi_score", "selected", "near_zero", "missing_frac",
         "documented", "variance", "passed_filter", "filter_reason"], sel_rows)


def _emit_roc(report):
    roc = report["roc_test"]
    yield "roc_test.csv", _csv_text(
        ["fpr", "tpr", "threshold"],
        zip(roc["fpr"], roc["tpr"], roc["thresholds"]))
    win = next((b for b in report["benchmark"]
                if b["label"] == report["winner"]), None)
    if win is None:
        raise DataError(f"winner {report['winner']!r} names no benchmark row")
    yield "roc_test.svg", roc_svg(roc["fpr"], roc["tpr"], win["test"]["auroc"],
                                  label=report["winner"])


def _emit_ablation(report):
    ab = report["ablation"]
    rows = [["<none>", i, v] for i, v in enumerate(ab["baseline_dist"])]
    for name in ab["features"]:
        if name not in ab["distributions"] or name not in ab["mean_drop"]:
            raise DataError(f"ablation feature {name!r} has no entry in "
                            f"distributions or mean_drop")
        rows += [[name, i, v] for i, v in enumerate(ab["distributions"][name])]
    yield "ablation.csv", _csv_text(["dropped_feature", "resample", "auroc"], rows)
    order = sorted(ab["features"], key=lambda n: ab["mean_drop"][n], reverse=True)
    yield "ablation.svg", dot_rows_svg(
        order, [ab["distributions"][n] for n in order],
        title=f"Test AUROC after dropping one feature ({ab['model']})",
        xlabel="bootstrap AUROC", baseline=ab["baseline_auroc"])


def _emit_shap(report):
    sh = report["shap"]
    rows = []
    values = np.asarray(sh["values"], dtype=float)
    for r, row_id in enumerate(sh["row_ids"]):
        for j, feat in enumerate(sh["feature_names"]):
            rows.append([row_id, feat, values[r, j]])
    yield "shap_summary.csv", _csv_text(["row", "feature", "phi"], rows)
    mean_abs = np.abs(values).mean(axis=0)
    order = np.argsort(-mean_abs)
    row_vals = np.asarray([[0.0 if v is None else v for v in r]
                           for r in sh["row_values"]], dtype=float)
    yield "shap_summary.svg", dot_rows_svg(
        [sh["feature_names"][j] for j in order],
        [values[:, j] for j in order],
        title=f"Attribution summary ({sh['model']}, log-odds)",
        xlabel="Shapley value",
        marker_values=[row_vals[:, j] for j in order])


def _emit_ale(report):
    for curve in report["ale"]:
        slug = _slug(curve["feature"])
        yield f"ale_{slug}.csv", _csv_text(
            ["edge", "effect", "count"],
            zip(curve["edges"], curve["centered"], curve["edge_counts"]))
        yield f"ale_{slug}.svg", ale_svg(curve["edges"], curve["centered"],
                                         curve["edge_counts"], curve["feature"])


def _emit_posterior(report):
    post = report["posterior"]
    yield "posterior.csv", _csv_text(["sample", "risk"],
                                     enumerate(post["samples"]))
    vlines = [(post["mean"], "#c23b22", "6 3"),
              (post["ci_low"], "#777", "3 3"), (post["ci_high"], "#777", "3 3")]
    yield "posterior.svg", histogram_svg(
        post["samples"], title="Posterior risk distribution (non-survivor priors)",
        xlabel="predicted event probability", vlines=vlines)


# ---------------------------------------------------------------------------
# manifest

@dataclass(frozen=True)
class RunManifest:
    config_hash: str
    status: str                 # "complete" or "failed"
    failed_stage: str | None
    artifacts: tuple            # (name, sha256, bytes) triples
    versions: dict
    stage_seconds: dict

    def checksum_of(self, name: str) -> str:
        for art, digest, _ in self.artifacts:
            if art == name:
                return digest
        raise KeyError(name)


def _sha256(path) -> tuple:
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), len(data)


def _echo_hash(echo: dict) -> str:
    """sha256 of a config echo (the report's "config" section)."""
    blob = json.dumps(echo, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def config_hash(config: RunConfig) -> str:
    return _echo_hash(_config_echo(config))


def _versions() -> dict:
    import scipy

    return {
        "package": _pkg_version,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _write_manifest(out_dir: str, echo: dict, files, stage_seconds: dict,
                    failed_stage: str = None) -> RunManifest:
    """Checksum files (names inside out_dir) and write manifest.json."""
    m = RunManifest(
        config_hash=_echo_hash(echo),
        status="failed" if failed_stage else "complete",
        failed_stage=failed_stage,
        artifacts=tuple((name, *_sha256(os.path.join(out_dir, name)))
                        for name in files),
        versions=_versions(), stage_seconds=stage_seconds)
    payload = {**asdict(m), "format_version": 1,
               "artifacts": [{"path": p, "sha256": s, "bytes": b}
                             for p, s, b in m.artifacts]}
    with open(os.path.join(out_dir, _MANIFEST_NAME), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return m


def load_manifest(out_dir: str) -> dict:
    """The manifest as a dict; DataError unless it is a JSON object whose
    stage_seconds, when present, is an object of numbers."""
    path = os.path.join(out_dir, _MANIFEST_NAME)
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8 or JSON
        raise DataError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"manifest {path} is not a JSON object")
    seconds = manifest.get("stage_seconds", {})
    if not (isinstance(seconds, dict) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in seconds.values())):
        raise DataError(f"manifest {path}: stage_seconds is not an object of numbers")
    return manifest


def write_artifacts(result: RunResult, out_dir: str = None) -> RunManifest:
    """Emit report.json, every projection, and the manifest (written last)."""
    out = out_dir or result.config.out_dir
    os.makedirs(out, exist_ok=True)
    t0 = time.perf_counter()
    report = build_report(result)
    validate_report(report, load_report_schema())
    with open(os.path.join(out, _REPORT_NAME), "wb") as fh:
        fh.write(report_json_bytes(report))
    files = [_REPORT_NAME] + emit_projections(report, out)
    seconds = dict(result.stage_seconds)
    seconds["report"] = time.perf_counter() - t0
    return _write_manifest(out, _config_echo(result.config), files, seconds)


def write_failed_manifest(out_dir: str, config: RunConfig,
                          stage: str) -> RunManifest:
    """Record a failed run: whatever artifacts exist are flagged partial."""
    os.makedirs(out_dir, exist_ok=True)
    present = sorted(n for n in os.listdir(out_dir)
                     if n.endswith((".csv", ".svg")) or n == _REPORT_NAME)
    return _write_manifest(out_dir, _config_echo(config), present,
                           {"error": 0.0}, failed_stage=stage)


def emit_report(out_dir: str) -> RunManifest:
    """Re-derive every CSV/SVG projection from an existing report.json.

    Demonstrates the single-source property: projections carry no numbers of
    their own. The manifest is refreshed with new checksums.
    """
    path = os.path.join(out_dir, _REPORT_NAME)
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as exc:
        raise DataError(f"no report at {path}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8 or JSON
        raise DataError(f"report {path} is not valid JSON: {exc}") from exc
    validate_report(report, load_report_schema())
    t0 = time.perf_counter()
    files = [_REPORT_NAME] + emit_projections(report, out_dir)
    try:
        prior = load_manifest(out_dir)
        stage_seconds = dict(prior.get("stage_seconds", {}))
    except DataError:
        stage_seconds = {}
    stage_seconds["report"] = time.perf_counter() - t0
    return _write_manifest(out_dir, report["config"], files, stage_seconds)
