"""Per-layer spans and counters for a traced benchmark run.

The tracer wraps the public functions of each icurisk layer from outside the
package: every module attribute under ``icurisk`` that is the original
function object is replaced by the wrapper. Patching the defining module
alone is not enough, because ``from .x import f`` binds a second name at
each import site, and ``icurisk.explain.ablation`` names the re-exported
function rather than the module; so the sites are found by scanning
``sys.modules`` for the original object.

Spans are kept in memory as ``[op, parent, name, start, end]`` and summed
into total time, self time (total minus the time covered by child spans)
and call counts when the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

# (span name, defining module, attribute). Stage spans are the pipeline's
# private stage functions; the eval stage runs inline in run(), so its span
# is the interval between the models stage returning and the explain stage
# starting.
LAYERS = (
    ("synth.synth_default_cohort", "icurisk.synth", "synth_default_cohort"),
    ("cohort.load_cohort", "icurisk.cohort", "load_cohort"),
    ("select.coverage_filter", "icurisk.select", "coverage_filter"),
    ("select.rank_features", "icurisk.select", "rank_features"),
    ("preprocess.impute", "icurisk.preprocess", "impute"),
    ("preprocess.fit_pipeline", "icurisk.preprocess", "fit_pipeline"),
    ("preprocess.apply", "icurisk.preprocess", "apply"),
    ("models.cross_validate", "icurisk.models.cv", "cross_validate"),
    ("models.train_gbdt", "icurisk.models.gbdt", "train_gbdt"),
    ("models.train_logreg", "icurisk.models.linear", "train_logreg"),
    ("models.train_gnb", "icurisk.models.naive_bayes", "train_gnb"),
    ("models.train_mlp", "icurisk.models.mlp", "train_mlp"),
    ("models.predict_proba", "icurisk.models", "predict_proba"),
    ("metrics.auroc", "icurisk.metrics", "auroc"),
    ("metrics.bootstrap_auroc_ci", "icurisk.metrics", "bootstrap_auroc_ci"),
    ("explain.ablation", "icurisk.explain.ablation", "ablation"),
    ("explain.shap_tree", "icurisk.explain.shapley", "shap_tree"),
    ("explain.ale", "icurisk.explain.ale", "ale"),
    ("explain.dream_sample", "icurisk.explain.dream", "dream_sample"),
    ("explain.posterior_risk_inputs", "icurisk.explain.posterior",
     "posterior_risk_inputs"),
    ("report.write_artifacts", "icurisk.report", "write_artifacts"),
    ("report.validate_report", "icurisk.report", "validate_report"),
    ("pipeline.stage.dataset", "icurisk.pipeline", "_load_stage"),
    ("pipeline.stage.select", "icurisk.pipeline", "_select_stage"),
    ("pipeline.stage.models", "icurisk.pipeline", "_model_stage"),
    ("pipeline.stage.explain", "icurisk.pipeline", "_explain_stage"),
)
EVAL_STAGE = "pipeline.stage.eval"
SPAN_NAMES = tuple(name for name, _, _ in LAYERS) + (EVAL_STAGE,)

# Counters beyond the per-span calls; each is deterministic for a seed.
COUNTERS = (
    ("preprocess.impute_rows", "count"),
    ("preprocess.impute_repeat_ratio", "ratio"),
    ("explain.shap_tree_rows", "count"),
    ("explain.dream_generations", "count"),
    ("explain.dream_accept_ratio", "ratio"),
)
OVERHEAD = "trace.overhead_s"


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for span in SPAN_NAMES:
        out += [(f"{span}_s", "s"), (f"{span}_self_s", "s"),
                (f"{span}_calls", "count")]
    return out + list(COUNTERS) + [(OVERHEAD, "s")]


def _sites(original):
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] != "icurisk":
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                yield mod, key


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = 0
        self._eval_span = None
        self.impute_rows = 0
        self.impute_repeats = 0
        self._imputer_keys = {}    # id -> (imputer, content digest); holds a
        self._seen_rows = set()    # reference so the id is never reused
        self.shap_rows = 0
        self.dream_generations = 0
        self.dream_accepted = 0
        self.dream_proposed = 0

    # -- spans -----------------------------------------------------------
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._op, parent, name, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][4] = now
            if top == idx:
                break

    @contextmanager
    def op(self, name):
        """Root span of one benchmark operation; its spans share its id."""
        self._op += 1
        idx = self._open(name)
        try:
            yield
        finally:
            self._eval_span = None
            self._close(idx)

    # -- patching --------------------------------------------------------
    def install(self):
        """Replace every import site of every layer function; returns the
        number of sites patched per span name."""
        hooks = {
            "preprocess.impute": (self._before_impute, None),
            "explain.shap_tree": (None, self._after_shap),
            "explain.dream_sample": (None, self._after_dream),
            "pipeline.stage.models": (None, self._open_eval),
            "pipeline.stage.explain": (self._close_eval, None),
        }
        patched = {}
        for name, module, attr in LAYERS:
            original = getattr(sys.modules[module], attr)
            before, after = hooks.get(name, (None, None))
            wrapped = self._wrap(name, original, before, after)
            patched[name] = 0
            for mod, key in list(_sites(original)):
                setattr(mod, key, wrapped)
                patched[name] += 1
        return patched

    def _wrap(self, name, fn, before, after):
        active = False   # recursive calls (validate_report) stay in one span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = self._open(name)
            active = True
            try:
                out = fn(*args, **kwargs)
            finally:
                active = False
                self._close(idx)
            if after is not None:
                after(out)
            return out
        return traced

    # -- hooks -----------------------------------------------------------
    def _imputer_key(self, imputer) -> bytes:
        held = self._imputer_keys.get(id(imputer))
        if held is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(repr((imputer.k, imputer.kinds, imputer.feature_names_,
                           imputer.reference.shape)).encode())
            for arr in (imputer.reference, imputer.loc, imputer.scale,
                        imputer.fallback):
                h.update(np.ascontiguousarray(arr).tobytes())
            held = (imputer, h.digest())
            self._imputer_keys[id(imputer)] = held
        return held[1]

    def _before_impute(self, args, kwargs):
        imputer = args[0] if args else kwargs["imputer"]
        table = args[1] if len(args) > 1 else kwargs["table"]
        X = table.X
        rows = np.ascontiguousarray(X[np.isnan(X).any(axis=1)])
        if rows.shape[0] == 0:
            return
        prefix = self._imputer_key(imputer)
        keys = [prefix + r for r in rows.view(f"V{rows.shape[1] * 8}").ravel().tolist()]
        self.impute_rows += len(keys)
        for key in keys:
            if key in self._seen_rows:
                self.impute_repeats += 1
            else:
                self._seen_rows.add(key)

    def _after_shap(self, out):
        self.shap_rows += int(out.values.shape[0])

    def _after_dream(self, out):
        proposed = out.config.n_chains * out.config.n_generations
        self.dream_generations += out.config.n_generations
        self.dream_proposed += proposed
        self.dream_accepted += int(round(out.acceptance_rate * proposed))

    def _open_eval(self, _out):
        self._eval_span = self._open(EVAL_STAGE)

    def _close_eval(self, _args, _kwargs):
        if self._eval_span is not None:
            self._close(self._eval_span)
            self._eval_span = None

    # -- results ---------------------------------------------------------
    def metrics(self) -> dict:
        """Per-layer values keyed as in per_layer_names(), overhead excluded."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        own = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for i, (_, _, name, start, end) in enumerate(self.spans):
            if name in total:
                total[name] += end - start
                own[name] += end - start - child[i]
                calls[name] += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}_s"] = total[name]
            out[f"{name}_self_s"] = own[name]
            out[f"{name}_calls"] = calls[name]
        out["preprocess.impute_rows"] = self.impute_rows
        out["preprocess.impute_repeat_ratio"] = (
            self.impute_repeats / self.impute_rows if self.impute_rows else 0.0)
        out["explain.shap_tree_rows"] = self.shap_rows
        out["explain.dream_generations"] = self.dream_generations
        out["explain.dream_accept_ratio"] = (
            self.dream_accepted / self.dream_proposed if self.dream_proposed else 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)
