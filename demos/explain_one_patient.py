"""Per-patient attribution walkthrough.

Trains a boosted-tree model directly (no pipeline), then breaks one
high-risk patient's margin into per-feature contributions and checks the
efficiency identity by hand.
"""

import numpy as np

from icurisk import (GbdtParams, apply, fit_pipeline, model_margin,
                     shap_tree, stratified_split, synth_default_cohort,
                     train_gbdt)

cohort = synth_default_cohort(n=800, seed=7)
split = stratified_split(cohort, train_fraction=0.7, seed=7)
train = cohort.subset(split.train_rows)
test = cohort.subset(split.test_rows)

pipe = fit_pipeline(train)
train_t, test_t = apply(pipe, train), apply(pipe, test)

model = train_gbdt(train_t, GbdtParams(depth=3, n_trees=150), seed=1)

margins = model_margin(model, test_t.X)
patient = int(np.argmax(margins))
print(f"highest-risk test patient: row {patient}, "
      f"margin {margins[patient]:+.3f}, outcome y={test.y[patient]}")

background = test_t.X[:128]
shap = shap_tree(model, test_t.X[patient : patient + 1], background)

print(f"\nbase margin (background mean): {shap.base_value:+.3f}")
order = np.argsort(-np.abs(shap.values[0]))
for j in order[:8]:
    print(f"  {shap.feature_names[j]:28s} {shap.values[0, j]:+.4f}")

total = shap.base_value + shap.values[0].sum()
print(f"\nbase + contributions = {total:+.6f}")
print(f"model margin         = {margins[patient]:+.6f}")
assert abs(total - margins[patient]) < 1e-9, "efficiency identity broken"
print("efficiency identity holds to 1e-9")
