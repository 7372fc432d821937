"""Artifact bundle tour: run the pipeline, then show that every CSV and SVG
is a pure projection of report.json.

Each file's checksum is recorded in manifest.json. Re-emitting the
projections from the JSON alone reproduces every byte, which is the property
that makes the bundle safe to archive: the JSON is the single source, the
rest is derived presentation.
"""

import json
import os
import tempfile

from icurisk import RunConfig, run
from icurisk.report import emit_report, load_manifest, write_artifacts

with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "artifacts")

    config = RunConfig(seed=3, synth_n=500, top_k=8, cv_folds=3,
                       n_bootstrap=150, ablation_resamples=15,
                       shap_background=32, shap_rows=8, ale_top=2,
                       posterior_chains=12, posterior_generations=400,
                       out_dir=out)

    result = run(config)
    manifest = write_artifacts(result)

    print(f"wrote {len(manifest.artifacts)} artifacts to {out}\n")
    for name, digest, size in manifest.artifacts:
        print(f"  {name:26s} {size:7d} bytes  sha256 {digest[:12]}...")

    # wipe the projections, keep only report.json, and regenerate
    for name, _, _ in manifest.artifacts:
        if name != "report.json":
            os.remove(os.path.join(out, name))

    refreshed = emit_report(out)

    stale = {n: d for n, d, _ in manifest.artifacts}
    fresh = {n: d for n, d, _ in refreshed.artifacts}
    regenerated = sum(1 for n in stale if stale[n] == fresh[n])
    print(f"\nregenerated {regenerated}/{len(stale)} files byte-identically "
          "from report.json alone")
    assert stale == fresh

    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    win = next(b for b in report["benchmark"] if b["label"] == report["winner"])
    print(f"winning row from the JSON: {win['label']} "
          f"test auroc {win['test']['auroc']:.3f}")
    print("manifest status:", load_manifest(out)["status"])
