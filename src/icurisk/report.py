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
import stat
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from . import __version__ as _pkg_version
from ._json import is_number, read_json, write_json
from .errors import ConfigError, DataError, IcuRiskError
from .explain import REFERENCE_INPUTS_POSTERIOR
from .pipeline import RunConfig, RunResult
from .svgplot import ale_svg, dot_rows_svg, histogram_svg, roc_svg

_REPORT_NAME = "report.json"
_MANIFEST_NAME = "manifest.json"


def _sanitize(obj):
    """JSON-safe copy: numpy scalars/arrays to python, NaN/inf to None."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


# out_dir describes the machine, not the analysis: two runs that differ
# only in it must produce byte-identical reports
_ENV_FIELDS = ("out_dir",)


def config_echo(config: RunConfig) -> dict:
    """The config as the report and manifest echo it: all but _ENV_FIELDS."""
    return {k: v for k, v in asdict(config).items() if k not in _ENV_FIELDS}


def build_report(result: RunResult) -> dict:
    """Collect every reported number into one JSON-ready dictionary."""
    ranking = result.ranking
    abl = result.ablation_report
    # sanitized once, whole: a NaN anywhere reaches the schema check as null
    return _sanitize({
        "format_version": 1,
        "config": config_echo(result.config),
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
            "filter": result.filter_report,
            "mi": {
                "features": list(ranking.features),
                "scores": [ranking.scores[n] for n in ranking.features],
                "selected": list(ranking.selected),
                "excluded_near_zero": list(ranking.excluded_near_zero),
                "n_bins": ranking.n_bins,
                "epsilon": ranking.epsilon,
            },
        },
        "cohort_comparison": {
            "train_vs_test": result.ttest_split,
            "survivor_vs_nonsurvivor": result.ttest_outcome,
        },
        "benchmark": [
            {
                "label": row.label,
                "family": row.spec.family,
                "params": row.spec.params,
                "grid_size": row.grid_size,
                "cv_mean_auroc": row.cv_mean_auroc,
                "cv_sd_auroc": row.cv_sd_auroc,
                "threshold": row.threshold,
                "train": asdict(row.metrics_train),
                "test": asdict(row.metrics_test),
                "notes": list(row.notes),
            }
            for row in result.benchmark
        ],
        "winner": result.winner,
        "shap_model": result.shap_model_label,
        "roc_test": dict(zip(("fpr", "tpr", "thresholds"), result.roc)),
        "ablation": {
            "model": result.winner,
            "n_resamples": abl.n_resamples,
            "baseline_auroc": abl.baseline_auroc,
            "baseline_dist": abl.baseline_dist,
            "features": list(abl.features),
            "dropped_auroc": abl.dropped_auroc,
            "distributions": {n: abl.dropped_dist[n] for n in abl.features},
            "mean_drop": {n: abl.mean_drop(n) for n in abl.features},
        },
        "shap": {
            **asdict(result.shap),
            "model": result.shap_model_label,
            "row_ids": result.shap_row_ids,
            "row_values": result.test.X[result.shap_row_ids],
        },
        "ale": [asdict(c) for c in result.ale_curves],
        "posterior": {
            **asdict(result.posterior),
            "mode": "inputs",
            "reference": REFERENCE_INPUTS_POSTERIOR,
        },
    })


# ---------------------------------------------------------------------------
# report schema (subset of JSON Schema: type/properties/required/items/enum,
# additionalProperties, and $ref to a definition under the root's $defs)

def load_report_schema() -> dict:
    return read_json(resources.files("icurisk.data") / "report_schema.json",
                     "report schema", DataError)


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, expected: str) -> bool:
    if expected == "number":
        return is_number(value)
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
        named = schema.get("properties", {})
        for key, value in report.items():
            sub = named.get(key, schema.get("additionalProperties"))
            if sub is not None:
                validate_report(value, sub, f"{path}.{key}", root)
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


def _projections(report: dict) -> list:
    """(file name, text) of every CSV/SVG artifact of the report dict."""
    return [item for emitter in (
        _emit_ttest, _emit_metrics, _emit_selection, _emit_roc,
        _emit_ablation, _emit_shap, _emit_ale, _emit_posterior)
        for item in emitter(report)]


def _record(written: list, name: str, data: bytes) -> None:
    """List a file of the run as (name, sha256, bytes) from the bytes in hand."""
    written.append((name, hashlib.sha256(data).hexdigest(), len(data)))


def _write_texts(out_dir: str, texts, written: list) -> None:
    """Write each (name, text) as UTF-8, no newline translation, and list it."""
    for name, text in texts:
        data = text.encode("utf-8")
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
        _record(written, name, data)


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


def _check_lengths(lists):
    """DataError naming the key at fault unless the lists, keyed by where
    they sit in the report, are nonempty and of one length, so that zipping
    them drops nothing."""
    (first, head), *_ = lists.items()
    for key, values in lists.items():
        if not values or len(values) != len(head):
            raise DataError(f"{key} must hold one value per entry of a "
                            f"nonempty {first}")


def _emit_selection(report):
    mi = report["selection"]["mi"]
    _check_lengths({"selection.mi.features": mi["features"],
                    "selection.mi.scores": mi["scores"]})
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
    _check_lengths({f"roc_test.{k}": roc[k] for k in ("fpr", "tpr", "thresholds")})
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
    # only a run on a single feature has none to drop
    if not ab["features"] and len(report["selection"]["mi"]["selected"]) > 1:
        raise DataError("ablation.features must name the features of a "
                        "run that selected more than one")
    _check_lengths({"ablation.baseline_dist": ab["baseline_dist"],
                    **{f"ablation.distributions.{n}": ab["distributions"].get(n)
                       for n in ab["features"]}})
    rows = [["<none>", i, v] for i, v in enumerate(ab["baseline_dist"])]
    for name in ab["features"]:
        if not is_number(ab["mean_drop"].get(name)):  # the plot sorts by it
            raise DataError(f"ablation.mean_drop has no entry for {name!r} that is a number")
        rows += [[name, i, v] for i, v in enumerate(ab["distributions"][name])]
    yield "ablation.csv", _csv_text(["dropped_feature", "resample", "auroc"], rows)
    order = sorted(ab["features"], key=lambda n: ab["mean_drop"][n], reverse=True)
    yield "ablation.svg", dot_rows_svg(
        order, [ab["distributions"][n] for n in order],
        title=f"Test AUROC after dropping one feature ({ab['model']})",
        xlabel="bootstrap AUROC", baseline=ab["baseline_auroc"])


def _emit_shap(report):
    sh = report["shap"]
    _check_lengths({f"shap.{k}": sh[k] for k in ("row_ids", "values", "row_values")})
    width = len(sh["feature_names"])
    if not width:
        raise DataError("shap.feature_names must name at least one feature")
    for key in ("values", "row_values"):
        if any(len(r) != width for r in sh[key]):
            raise DataError(f"shap.{key} rows must hold {width} values, "
                            f"one per feature name")
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
    if not report["ale"]:
        raise DataError("ale must hold at least one curve")
    for i, curve in enumerate(report["ale"]):
        _check_lengths({f"ale[{i}].{k}": curve[k]
                        for k in ("edges", "centered", "edge_counts")})
        slug = _slug(curve["feature"])
        yield f"ale_{slug}.csv", _csv_text(
            ["edge", "effect", "count"],
            zip(curve["edges"], curve["centered"], curve["edge_counts"]))
        yield f"ale_{slug}.svg", ale_svg(curve["edges"], curve["centered"],
                                         curve["edge_counts"], curve["feature"])


def _emit_posterior(report):
    post = report["posterior"]
    if not post["samples"]:
        raise DataError("posterior.samples must hold at least one draw")
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


def _echo_hash(echo: dict) -> str:
    """sha256 of a config echo (the report's "config" section)."""
    blob = json.dumps(echo, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def config_hash(config: RunConfig) -> str:
    return _echo_hash(config_echo(config))


def _versions() -> dict:
    import scipy

    return {
        "package": _pkg_version,
        "python": ".".join(map(str, sys.version_info[:3])),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _write_manifest(out_dir: str, echo: dict, written, stage_seconds: dict,
                    failed_stage: str = None) -> RunManifest:
    """Write manifest.json over the (name, sha256, bytes) files the run wrote."""
    m = RunManifest(
        config_hash=_echo_hash(echo),
        status="failed" if failed_stage else "complete",
        failed_stage=failed_stage, artifacts=tuple(written),
        versions=_versions(), stage_seconds=stage_seconds)
    payload = {**asdict(m), "format_version": 1,
               "artifacts": [{"path": p, "sha256": s, "bytes": b}
                             for p, s, b in m.artifacts]}
    write_json(os.path.join(out_dir, _MANIFEST_NAME), payload)
    return m


def _is_plain_name(name) -> bool:
    """A file name with no directory part: not absolute, "." or ".."."""
    return (isinstance(name, str) and name not in ("", ".", "..")
            and os.path.basename(name) == name and "/" not in name
            and "\0" not in name and not os.path.isabs(name))


def _listed_names(out_dir: str) -> list:
    """The plain file names the manifest in out_dir lists, none if it is
    missing or does not parse. The manifest is outside input, so any other
    path it lists is ignored, and so is the manifest's own name."""
    try:
        manifest = read_json(os.path.join(out_dir, _MANIFEST_NAME), "manifest",
                             DataError)
    except DataError:
        return []
    entries = manifest.get("artifacts") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        return []
    names = (e.get("path") for e in entries if isinstance(e, dict))
    return [n for n in names if _is_plain_name(n) and n != _MANIFEST_NAME]


def _unlink_regular_file(path: str) -> None:
    """Remove path if it is a regular file, not a link or a directory."""
    with suppress(FileNotFoundError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)


@contextmanager
def artifact_dir(out_dir: str, echo: dict):
    """Create out_dir, remove its manifest (a directory without one is
    incomplete) and run the body, yielding the list it records each file it
    writes in (_record). When the body completes, every regular file the
    removed manifest listed that the body did not write is removed too, so
    the directory holds one run's files (and any of the user's own). An
    IcuRiskError from the body leaves a failed manifest at its stage
    ("report" if it has none) over that list and is re-raised; an OSError
    from the body, or from that manifest's write, is a ConfigError naming
    out_dir. echo is the config report.json echoes."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out_dir {out_dir}: {exc}") from exc
    written = []
    try:
        try:
            listed = _listed_names(out_dir)
            # none yet, or a directory that the manifest's own write refuses
            with suppress(FileNotFoundError, IsADirectoryError):
                os.unlink(os.path.join(out_dir, _MANIFEST_NAME))
            yield written
            ours = {name for name, _, _ in written}
            for name in listed:
                if name not in ours:
                    _unlink_regular_file(os.path.join(out_dir, name))
        except IcuRiskError:  # first: a WorkerError is an OSError too
            raise
        except OSError as exc:
            raise ConfigError(f"cannot write artifacts to out_dir {out_dir}: "
                              f"{exc}") from exc
    except IcuRiskError as exc:
        try:
            _write_manifest(out_dir, echo, written, {"error": 0.0},
                            failed_stage=getattr(exc, "stage", "report"))
        except OSError as err:
            raise ConfigError(f"cannot write a failed manifest to out_dir "
                              f"{out_dir}: {err}; it followed: {exc}") from err
        raise


def load_manifest(out_dir: str) -> dict:
    """The manifest as a dict; DataError unless it is a JSON object whose
    stage_seconds, when present, is an object of finite numbers."""
    path = os.path.join(out_dir, _MANIFEST_NAME)
    manifest = read_json(path, "manifest", DataError)
    if not isinstance(manifest, dict):
        raise DataError(f"manifest {path} is not a JSON object")
    seconds = manifest.get("stage_seconds", {})
    if not (isinstance(seconds, dict) and all(map(is_number, seconds.values()))):
        raise DataError(f"manifest {path}: stage_seconds is not an object of numbers")
    return manifest


def write_artifacts(result: RunResult, out_dir: str = None) -> RunManifest:
    """Emit report.json, every projection, and the manifest (written last)."""
    out = out_dir or result.config.out_dir
    echo = config_echo(result.config)
    t0 = time.perf_counter()
    with artifact_dir(out, echo) as written:
        report = build_report(result)
        validate_report(report, load_report_schema())
        _record(written, _REPORT_NAME,
                write_json(os.path.join(out, _REPORT_NAME), report))
        _write_texts(out, _projections(report), written)
        seconds = {**result.stage_seconds, "report": time.perf_counter() - t0}
        return _write_manifest(out, echo, written, seconds)


def emit_report(out_dir: str) -> RunManifest:
    """Re-derive every CSV/SVG projection from an existing report.json.

    Demonstrates the single-source property: projections carry no numbers of
    their own. The manifest is refreshed with new checksums; report.json is
    listed as it is on disk, never rewritten.
    """
    report = read_json(os.path.join(out_dir, _REPORT_NAME), "report", DataError)
    validate_report(report, load_report_schema())
    t0 = time.perf_counter()
    texts = _projections(report)  # before the guard: a failure writes nothing
    try:
        stage_seconds = dict(load_manifest(out_dir).get("stage_seconds", {}))
    except DataError:
        stage_seconds = {}
    with artifact_dir(out_dir, report["config"]) as written:
        with open(os.path.join(out_dir, _REPORT_NAME), "rb") as fh:
            _record(written, _REPORT_NAME, fh.read())
        _write_texts(out_dir, texts, written)
        stage_seconds["report"] = time.perf_counter() - t0
        return _write_manifest(out_dir, report["config"], written, stage_seconds)
