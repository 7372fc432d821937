"""Acceptance battery.

Each criterion prints one PASS/FAIL line and can be run standalone through
`icurisk selftest` or via the test suite. The battery mixes anchored checks
against published summary statistics, oracle equivalences for the natively
implemented algorithms, sampler convergence on known targets, one end-to-end
synthetic run, and a train/test leakage probe.
"""

from __future__ import annotations

import atexit
import pickle
import shutil
import sys
import tempfile
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import log

import numpy as np

from ._rng import derive_rng
from .cohort import stratified_split
from .explain import DreamConfig, ale, dream_sample, shap_exhaustive, shap_tree
from .metrics import auroc, confusion_metrics, welch_t
from .models import predict_proba
from .models.gbdt import GbdtParams, gbdt_margin, train_gbdt
from .models.mlp import loss_and_grad
from .pipeline import RunConfig, run
from .preprocess import class_weights, fit_pipeline
from .report import write_artifacts
from .select import mutual_information
from .synth import synth_default_cohort

# Published train/test comparison for the original cohort (n=911 vs n=390):
# mean, sd per split and the reported two-sided p-value with its check
# tolerance. BUN is reported only as p < 0.001.
_SPLIT_REFERENCE = {
    "Age": (69.74, 9.31, 69.52, 8.88, 0.687, 0.01),
    "PTT": (36.24, 15.45, 36.44, 14.60, 0.827, 0.01),
    "Anion gap": (12.97, 3.35, 12.52, 3.21, 0.023, 0.005),
}
_N_TRAIN, _N_TEST = 911, 390


def _check(ok, message: str) -> None:
    if not ok:  # unlike an assert statement, this also fails under python -O
        raise AssertionError(message)

# Published held-out confusion matrix of the winning model (n=390, 43
# positives) and the six derived rates it must reproduce to 3 decimals.
_CONFUSION = dict(tp=36, fn=7, tn=288, fp=59)
_CONFUSION_RATES = dict(accuracy=0.831, f1=0.522, sensitivity=0.837,
                        specificity=0.830, ppv=0.379, npv=0.976)


def _c01_welch_reference() -> str:
    ps = {}
    for name, (m1, s1, m2, s2, ref, tol) in _SPLIT_REFERENCE.items():
        res = welch_t(m1, s1, _N_TRAIN, m2, s2, _N_TEST)
        _check(abs(res.p - ref) <= tol, f"{name}: p={res.p:.4f}, published {ref}")
        ps[name] = res.p
    bun = welch_t(22.90, 17.85, _N_TRAIN, 20.03, 11.82, _N_TEST)
    _check(bun.p < 0.001, f"BUN: p={bun.p:.5f}, published < 0.001")
    ps["BUN"] = bun.p
    return ", ".join(f"{k} p={v:.3g}" for k, v in ps.items())


def _c02_confusion_consistency() -> str:
    c = _CONFUSION
    labels = np.concatenate([np.ones(c["tp"] + c["fn"], dtype=int),
                             np.zeros(c["fp"] + c["tn"], dtype=int)])
    scores = np.concatenate([np.full(c["tp"], 0.9), np.full(c["fn"], 0.1),
                             np.full(c["fp"], 0.9), np.full(c["tn"], 0.1)])
    rep = confusion_metrics(scores, labels, threshold=0.5)
    _check((rep.tp, rep.fn, rep.tn, rep.fp) == (c["tp"], c["fn"], c["tn"], c["fp"]),
           "confusion counts do not round-trip")
    for key, want in _CONFUSION_RATES.items():
        got = round(getattr(rep, key), 3)
        _check(got == want, f"{key}: {got} != {want}")
    return ", ".join(f"{k}={v}" for k, v in _CONFUSION_RATES.items())


def _c03_class_weights() -> str:
    labels = np.zeros(1000, dtype=int)
    labels[:196] = 1
    cw = class_weights(labels)
    _check(abs(cw.w1 - 5.102) <= 0.001, f"w1={cw.w1:.4f}")
    rng = derive_rng(3, "split")
    for _ in range(20):
        n = int(rng.integers(10, 400))
        k = int(rng.integers(1, n))
        lab = np.zeros(n, dtype=int)
        lab[rng.permutation(n)[:k]] = 1
        w = class_weights(lab)
        # exact inverse-frequency identity, checked at the rational level
        _check(Fraction(w.n, w.n1) * Fraction(w.n1, w.n) == 1, f"n={n}: w1 * f1 != 1")
        _check(Fraction(w.n, w.n0) * Fraction(w.n0, w.n) == 1, f"n={n}: w0 * f0 != 1")
        _check(w.w1 == w.n / w.n1 and w.w0 == w.n / w.n0, f"n={n}: w != n / count")
    return f"w1={cw.w1:.4f} for event rate 0.196; identity exact on 20 vectors"


def _shap_fixture(n, d, n_trees, seed):
    rng = derive_rng(seed, "shap")
    X = rng.normal(size=(n, d))
    beta = rng.normal(size=d)
    p = 1.0 / (1.0 + np.exp(-(X @ beta)))
    y = (rng.random(n) < p).astype(int)
    from .cohort import CohortTable
    from .schema import FeatureSpec
    schema = [FeatureSpec(name=f"x{j}", kind="continuous") for j in range(d)]
    table = CohortTable(schema, X, y)
    model = train_gbdt(table, GbdtParams(depth=3, n_trees=n_trees), seed=seed)
    return X, model


def _c04_shap_oracle() -> str:
    X, model = _shap_fixture(n=200, d=8, n_trees=30, seed=4)
    background = X[:16]
    result = shap_tree(model, X[:5], background)
    worst = 0.0
    for r in range(5):
        exact = shap_exhaustive(lambda R: gbdt_margin(model, R), X[r], background)
        worst = max(worst, float(np.max(np.abs(result.values[r] - exact))))
    _check(worst < 1e-9, f"tree vs exhaustive gap {worst:.3e}")

    rng = derive_rng(44, "shap")
    rows = rng.normal(size=(1000, 8))
    bg = X[:64]
    res = shap_tree(model, rows, bg)
    recon = res.values.sum(axis=1) + res.base_value
    eff = float(np.max(np.abs(recon - gbdt_margin(model, rows))))
    _check(eff < 1e-6, f"efficiency gap {eff:.3e}")
    return f"max oracle gap {worst:.2e}; efficiency gap {eff:.2e} on 1000 rows"


def _ale_quadrature(f, X, j, n_bins, micro=25):
    """Independent fine-grid accumulation of the same local-effects integral."""
    col = X[:, j]
    edges = np.unique(np.quantile(col, np.linspace(0, 1, n_bins + 1)))
    idx = np.clip(np.searchsorted(edges, col, side="left") - 1, 0, edges.size - 2)
    acc = [0.0]
    for k in range(edges.size - 1):
        rows = np.flatnonzero(idx == k)
        grid = np.linspace(edges[k], edges[k + 1], micro + 1)
        total = 0.0
        for m in range(micro):
            Xu = X[rows].copy(); Xu[:, j] = grid[m + 1]
            Xl = X[rows].copy(); Xl[:, j] = grid[m]
            total += float(np.mean(f(Xu) - f(Xl)))
        acc.append(acc[-1] + total)
    acc = np.asarray(acc)
    counts = np.bincount(idx, minlength=edges.size - 1)
    weights = np.concatenate([[0], counts])
    return edges, acc - float(weights @ acc / col.size)


def _c05_ale_oracle() -> str:
    X, model = _shap_fixture(n=200, d=3, n_trees=40, seed=5)
    f = lambda rows: predict_proba(model, rows)
    curve = ale(f, X, 0, n_bins=8)
    edges, oracle = _ale_quadrature(f, X, 0, n_bins=8)
    _check(np.array_equal(curve.edges, edges), "edge grids differ")
    gap = float(np.max(np.abs(curve.centered - oracle)))
    _check(gap < 1e-6, f"quadrature gap {gap:.3e}")

    rng = derive_rng(55, "shap")
    Z = rng.normal(size=(300, 2))
    lin = lambda rows: 2.0 * rows[:, 0] + rows[:, 1]
    c = ale(lin, Z, 0, n_bins=10)
    slopes = np.diff(c.centered) / np.diff(c.edges)
    err = float(np.max(np.abs(slopes - 2.0)))
    _check(err < 1e-9, f"linear slope error {err:.3e}")
    return f"quadrature gap {gap:.2e}; linear slope error {err:.2e}"


def _c06_mi_oracle() -> str:
    rng = derive_rng(6, "cv")
    worst = 0.0
    for rows in (2, 3, 4):
        for cols in (2, 3, 4):
            counts = rng.integers(1, 20, size=(rows, cols))
            x = np.repeat(np.arange(rows * cols) // cols, counts.ravel())
            y = np.repeat(np.arange(rows * cols) % cols, counts.ravel())
            got = mutual_information(x, y)
            n = counts.sum()
            direct = 0.0
            for i in range(rows):
                for j in range(cols):
                    pij = counts[i, j] / n
                    pi = counts[i].sum() / n
                    pj = counts[:, j].sum() / n
                    direct += pij * log(pij / (pi * pj))
            worst = max(worst, abs(got - direct))
    _check(worst < 1e-12, f"joint-histogram gap {worst:.3e}")
    x = np.tile([0, 1], 500)
    self_mi = mutual_information(x, x)
    _check(abs(self_mi - log(2.0)) < 1e-12, f"MI(x;x)={self_mi}")
    return f"max contingency gap {worst:.2e}; MI(x;x)=ln2 within 1e-12"


def _c07_auroc_oracle() -> str:
    rng = derive_rng(7, "bootstrap")
    for trial in range(100):
        n = int(rng.integers(4, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        got = auroc(scores, labels)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        diff = pos[:, None] - neg[None, :]
        pairwise = (np.sum(diff > 0) + 0.5 * np.sum(diff == 0)) / diff.size
        _check(got == pairwise, f"trial {trial}: {got!r} != {pairwise!r}")
    return "midrank AUROC equals pairwise concordance on 100 fixtures"


def _c08_mlp_gradcheck() -> str:
    rng = derive_rng(8, "mlp")
    n, d, h = 12, 4, 5
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n).astype(float)
    w = rng.uniform(0.5, 2.0, size=n)
    params = (rng.normal(size=(d, h)) * 0.5, rng.normal(size=h) * 0.1,
              rng.normal(size=h) * 0.5, float(rng.normal() * 0.1))
    _, grads = loss_and_grad(params, X, y, w)
    eps = 1e-6

    def loss_with(pi, flat_vals):
        trial = list(params)
        shape = np.shape(params[pi])
        trial[pi] = flat_vals.reshape(shape) if shape else float(flat_vals[0])
        return loss_and_grad(tuple(trial), X, y, w)[0]

    worst = 0.0
    for pi in range(4):
        g = np.asarray(grads[pi], dtype=float).ravel()
        base = np.asarray(params[pi], dtype=float).ravel()
        for idx in range(base.size):
            hi = base.copy(); hi[idx] += eps
            lo = base.copy(); lo[idx] -= eps
            fd = (loss_with(pi, hi) - loss_with(pi, lo)) / (2 * eps)
            rel = abs(fd - g[idx]) / max(1.0, abs(fd), abs(g[idx]))
            worst = max(worst, rel)
    _check(worst < 1e-4, f"max relative gradient error {worst:.3e}")
    return f"max relative gradient error {worst:.2e}"


def _c09_dream_gaussian() -> str:
    target = lambda X: -0.5 * np.sum(np.atleast_2d(X) ** 2, axis=1)
    cfg = DreamConfig(n_chains=8, n_generations=20000, seed=9)
    res = dream_sample(target, 2, cfg)
    draws = res.samples
    mean_err = float(np.max(np.abs(draws.mean(axis=0))))
    var = draws.var(axis=0)
    var_err = float(np.max(np.abs(var - 1.0)))
    rhat = float(np.max(res.split_rhat))
    _check(mean_err < 0.05, f"mean error {mean_err:.4f}")
    _check(var_err < 0.10, f"variance error {var_err:.4f}")
    _check(rhat < 1.05, f"split-rhat {rhat:.4f}")
    return (f"mean err {mean_err:.3f}, var err {var_err:.3f}, "
            f"split-rhat {rhat:.3f}, acceptance {res.acceptance_rate:.2f}")


@lru_cache(maxsize=1)
def full_run():
    """One full-size end-to-end run, shared across criteria and tests. Its
    artifact directory lives until the interpreter exits."""
    out = tempfile.mkdtemp(prefix="icurisk_run_")
    atexit.register(shutil.rmtree, out, ignore_errors=True)
    config = RunConfig(seed=7, out_dir=out)
    result = run(config)
    manifest = write_artifacts(result)
    return result, manifest, out


# Small config rerun by the determinism probe; tests pin its report digest.
PROBE_CONFIG = RunConfig(seed=11, synth_n=400, top_k=8, cv_folds=3,
                         n_bootstrap=150, ablation_resamples=20,
                         shap_background=32, shap_rows=8, ale_top=2,
                         posterior_chains=16, posterior_generations=400,
                         out_dir="unused")


@lru_cache(maxsize=1)
def _determinism_probe():
    sums = []
    for _ in range(2):
        with tempfile.TemporaryDirectory(prefix="icurisk_det_") as out:
            manifest = write_artifacts(run(replace(PROBE_CONFIG, out_dir=out)),
                                       out_dir=out)
        sums.append({name: digest for name, digest, _ in manifest.artifacts})
    return sums


def _c10_end_to_end() -> str:
    result, _, _ = full_run()
    tree_rows = [r for r in result.benchmark if r.spec.family == "gbdt"]
    tree_row = max(tree_rows, key=lambda r: r.cv_mean_auroc)
    _check(tree_row.metrics_test.auroc >= 0.85,
           f"boosted-tree test AUROC {tree_row.metrics_test.auroc:.3f} < 0.85")
    _check(result.posterior.mean > 0.196,
           f"posterior mean {result.posterior.mean:.3f} not above base rate")
    _check(tree_row.metrics_test.sensitivity >= 0.75,
           f"sensitivity {tree_row.metrics_test.sensitivity:.3f} < 0.75")
    a, b = _determinism_probe()
    _check(a == b, "rerun with identical config produced different checksums")
    return (f"tree AUROC {tree_row.metrics_test.auroc:.3f}, "
            f"sens {tree_row.metrics_test.sensitivity:.3f}, "
            f"posterior mean {result.posterior.mean:.3f}, "
            f"{len(a)} artifact checksums reproduced")


def _same_fit(a, b) -> bool:
    """Whether two fitted objects agree bit for bit in every field, kept
    training tables included."""
    return pickle.dumps(a) == pickle.dumps(b)


def _c11_leakage_probe() -> str:
    for seed in range(20):
        cohort = synth_default_cohort(n=240, event_rate=0.3, seed=seed)
        split = stratified_split(cohort, 0.7, seed)
        before = fit_pipeline(cohort.subset(split.train_rows))
        X = cohort.X.copy()
        rng = derive_rng(seed, "split", 1)
        X[split.test_rows] = rng.normal(50.0, 80.0, size=X[split.test_rows].shape)
        mutated = cohort.with_matrix(X)
        after = fit_pipeline(mutated.subset(split.train_rows))
        _check(_same_fit(before, after), f"seed {seed}: fitted pipeline changed")
    return "fitted pipelines bit-identical across 20 seeds"


@dataclass(frozen=True)
class Criterion:
    cid: str
    title: str
    fn: object


CRITERIA = (
    Criterion("C01", "published split-comparison p-values", _c01_welch_reference),
    Criterion("C02", "published confusion-matrix rates", _c02_confusion_consistency),
    Criterion("C03", "inverse-frequency class weights", _c03_class_weights),
    Criterion("C04", "tree attribution vs exhaustive oracle", _c04_shap_oracle),
    Criterion("C05", "local-effects curve vs quadrature oracle", _c05_ale_oracle),
    Criterion("C06", "mutual information vs joint histogram", _c06_mi_oracle),
    Criterion("C07", "rank AUROC vs pairwise concordance", _c07_auroc_oracle),
    Criterion("C08", "network gradients vs finite differences", _c08_mlp_gradcheck),
    Criterion("C09", "sampler recovers a known Gaussian", _c09_dream_gaussian),
    Criterion("C10", "end-to-end synthetic run", _c10_end_to_end),
    Criterion("C11", "train/test leakage probe", _c11_leakage_probe),
)


def run_selftest(fast: bool = False, stream=None) -> bool:
    out = stream or sys.stdout
    all_ok = True
    for c in CRITERIA:
        if fast and c.cid == "C10":
            print(f"SKIP {c.cid} {c.title} (--fast)", file=out)
            continue
        try:
            detail = c.fn()
            print(f"PASS {c.cid} {c.title}: {detail}", file=out)
        except Exception as exc:  # keep going; report every criterion
            all_ok = False
            print(f"FAIL {c.cid} {c.title}: {exc}", file=out)
    return all_ok
