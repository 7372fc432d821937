"""icurisk benchmark: time to a validated report, per-patient latency, and
per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload default_run --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. The lines before it record the environment and the report
digest. Workloads, metrics and the layer map are described in README.md
beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1          # the pipeline is single-threaded; one BLAS thread
SETUPS = 3                # set-ups in an untraced run; setup_s is their median
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
LEDGER = os.path.join(OUT, "ledger.json")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("default_run", "score_patients"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _digests_agree(key, digests) -> bool:
    """Check each input's report digest against the ledger. A list, not a
    generator: every input is recorded even after a mismatch."""
    return all([_ledger_agrees(key, f"report_sha256.{j}", d)
                for j, d in sorted(digests.items())])


def _per_report_s(outcome) -> float:
    """Mean over the inputs of each input's median report time."""
    by_input = {}
    for j, s in zip(outcome.extra["inputs"], outcome.seconds):
        by_input.setdefault(j, []).append(s)
    return statistics.mean(statistics.median(v) for v in by_input.values())


def _source_digest(src) -> str:
    """Digest of the package sources, so ledger entries of other code never match."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "icurisk")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def _ledger_agrees(key, field, value) -> bool:
    """Record `value` for a seed; False if an earlier run of the same code
    and seed recorded a different one."""
    try:
        with open(LEDGER, encoding="utf-8") as fh:
            ledger = json.load(fh)
    except FileNotFoundError:
        ledger = {}
    entry = ledger.setdefault(key, {})
    if field in entry:
        return entry[field] == value
    entry[field] = value
    tmp = f"{LEDGER}.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, LEDGER)
    return True


def _measure(args, wl, workload, inputs, server, expected, scratch, key, setup,
             clock):
    """Untraced run: the end-to-end metrics, times at reference speed."""
    import numpy

    seconds = args.seconds
    primary = workload.primary == "report"
    report = wl.report_phase(workload, args.seed, inputs, scratch,
                             seconds if primary else 0, clock=clock,
                             min_reports=1 if primary else len(inputs.csv_paths))
    serve = wl.serve_phase(workload, server, inputs, expected,
                           0 if primary else seconds,
                           wl.MIN_REQUESTS, clock=clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    failures = report.failures + serve.failures
    digests = report.extra["digests"]
    if not _digests_agree(key, digests):
        failures.append("report.json digest differs from an earlier run of this seed")
    lat_ms = [s * 1e3 for s in serve.seconds]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "time_to_report_s": (_per_report_s(report), "s"),
        "patient_latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "patient_latency_p99_ms": (float(numpy.percentile(lat_ms, 99)), "ms"),
        "patients_per_s": (len(lat_ms) / serve.extra["serve_s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "winner_test_auroc": (statistics.median(report.extra["winner_test_auroc"] or [0.0]),
                              "ratio"),
    }
    wall_ms = [s * 1e3 for s in serve.extra["latency_wall_s"]]
    summary = {"report_sha256": digests, "reports": report.attempted,
               "requests": serve.attempted, "setup_samples_s": setup,
               "wall": {"time_to_report_s": statistics.mean(report.extra["wall_s"]),
                        "patient_latency_p50_ms": statistics.median(wall_ms),
                        "patient_latency_p99_ms": float(numpy.percentile(wall_ms, 99)),
                        "patients_per_s": len(wall_ms) / serve.extra["wall_s"]},
               "ref_kernel_ms": clock.kernel_ms(), "ref_samples": len(clock.t),
               "held_out_patients": serve.extra["patients"],
               "share_with_missing_cells": serve.extra["missing_share"],
               "phase_wall_s": {"report": sum(report.seconds),
                                "serve": serve.extra["wall_s"]}}
    return metrics, report.attempted + serve.attempted, failures, summary


def _trace(args, wl, workload, inputs, server, expected, scratch, key, _setup,
           _clock):
    """One pass of requests untraced, then the report and the requests
    traced: per-layer metrics. The report runs once, so a traced run takes
    about as long as an untraced one; its digest is checked through the
    ledger against untraced runs of the same seed."""
    from tracer import OVERHEAD, Tracer, per_layer_names

    passes = inputs.test.n
    plain = wl.serve_phase(workload, server, inputs, expected, 0, passes)
    tracer = Tracer()
    sites = tracer.install()
    traced = (wl.report_phase(workload, args.seed, inputs, scratch, 0, op=tracer.op),
              wl.serve_phase(workload, server, inputs, expected, 0,
                             wl.MIN_REQUESTS, op=tracer.op))
    values = tracer.metrics()
    values[OVERHEAD] = sum(traced[1].seconds[:passes]) - sum(plain.seconds)

    failures = [f for outcome in (plain, *traced) for f in outcome.failures]
    unpatched = sorted(n for n, k in sites.items() if k == 0)
    if unpatched:
        failures.append(f"tracer found no import site for {unpatched}")
    idle = [n for n in wl.exercised(workload) if not values[n]]
    if idle:
        failures.append(f"per-layer metrics read zero: {idle}")
    digests = traced[0].extra["digests"]
    if not _digests_agree(key, digests):
        failures.append("report.json digest differs from an earlier run of this seed")
    counts = {n: v for n, v in values.items()
              if n.endswith("_calls") or not n.endswith("_s")}
    counts_digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
    if not _ledger_agrees(key, "trace_counts_sha256", counts_digest):
        failures.append("traced counts differ from an earlier traced run of this seed")

    trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    tracer.write(trace_path)
    metrics = {name: (values[name], unit) for name, unit in per_layer_names()}
    summary = {"report_sha256": digests, "trace_counts_sha256": counts_digest,
               "import_sites": sites, "spans": len(tracer.spans),
               "trace_file": os.path.relpath(trace_path),
               "time_to_report_s": traced[0].seconds[0]}
    attempted = sum(outcome.attempted for outcome in (plain, *traced))
    return metrics, attempted, failures, summary


def main(argv=None) -> int:
    args = _args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "icurisk", "__init__.py")):
        print("perfbench: no icurisk package under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, src)

    import refclock

    clock = refclock.RefClock()
    with clock.measure() as imported:
        import icurisk
    if not os.path.abspath(icurisk.__file__).startswith(src + os.sep):
        print(f"perfbench: imported icurisk from {icurisk.__file__}, not ./src",
              file=sys.stderr)
        return 2
    import numpy
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    key = f"{_source_digest(src)}/{args.workload}/{args.seed}"
    # a fixed relative path: the CSV path is part of the report's config echo
    scratch = os.path.relpath(os.path.join(OUT, f"{args.workload}-{args.seed}"))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        inputs = wl.make_inputs(workload, args.seed, scratch)
        # icurisk is imported once; the fit is repeated, each from the raw table
        setup = []
        for _ in range(1 if args.trace else SETUPS):
            with clock.measure() as fitted:
                server = wl.fit_server(inputs.train, args.seed)
            setup.append(imported.seconds + fitted.seconds)
        expected = wl.expected_replies(server, inputs.test)
        run = _trace if args.trace else _measure
        metrics, attempted, failures, summary = run(
            args, wl, workload, inputs, server, expected, scratch, key, setup, clock)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    import scipy
    env = {"nproc": len(os.sched_getaffinity(0)),
           "threads": {v: os.environ[v] for v in THREAD_VARS},
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "machine": platform.machine()}
    print(json.dumps({"env": env}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **summary}))
    for msg in failures[:20]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        # each failed check fails one operation; a report can fail several
        "failed": min(len(failures), attempted),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
