"""Distribution weights in one dimension: what v-values look like.

Builds a small bimodal sample and prints its per-sample weights under
three (kernel, measure) pairings:

  * step kernel against a fitted gaussian measure  -> mass at or above x
  * gaussian kernel against the uniform unit box   -> centrality
  * gaussian kernel against the empirical measure  -> local density

Run:  python demos/01_distribution_weights.py
"""

import numpy as np

from cdfsvm import (GKernelSpec, MeasureSpec, gen_robustness_1d, v_vector,
                    weights_to_csv)
from cdfsvm.datagen import Robustness1DSpec

data = gen_robustness_1d(Robustness1DSpec(n=16, seed=3))
x = data.features[:, 0]
order = np.argsort(x)

gauss_mu = MeasureSpec.gaussian(data.features.mean(axis=0),
                                data.features.std(axis=0))
variants = {
    "step G, gaussian mu": v_vector(data.features, GKernelSpec.step(), gauss_mu),
    "gauss G, unit box": v_vector(data.features, GKernelSpec.gaussian(0.25),
                                  MeasureSpec.unit_box(1)),
    "gauss G, empirical": v_vector(data.features, GKernelSpec.gaussian(0.0625),
                                   MeasureSpec.empirical(data.features)),
}

print(f"{'x':>8}  " + "  ".join(f"{name:>22}" for name in variants))
for i in order:
    row = "  ".join(f"{variants[name].values[i]:>22.4f}" for name in variants)
    print(f"{x[i]:>8.4f}  {row}")

print()
print("step/gaussian weights fall monotonically with x (mass at or above x);")
print("box weights peak at the center; empirical weights track the two modes.")

weights_to_csv(variants["gauss G, empirical"], "demo-weights.csv")
print("wrote demo-weights.csv")
