"""Recovering a known optimal boundary from small samples.

Draws repeated small samples from the 2-D two-Gaussian generator whose
optimal linear boundary is x2 = 2*x1, tunes each classifier by
cross-validation, and reports how close the fitted lines land, using the
deviation-times-dispersion distance (0 is perfect).

A desk-scale run (20 repetitions, reduced grids); it takes a few seconds
(about 7 s on one core of a 2-core x86-64 box).

Run:  python demos/02_bayes_boundary.py
"""

from cdfsvm.bench import bayes_table_text, run_bayes_benchmark
from cdfsvm.modelsel import GridSpec, WeightConfig

grid = GridSpec(gammas=tuple(2.0**k for k in range(-4, 5)),
                deltas=(1.0,), epsilons=(0.25,), sigmas=(0.5,),
                folds=4, indicator="acc", seed=0)
wcfg = WeightConfig(g_kind="gaussian", mu_kind="uniform")

columns = run_bayes_benchmark(
    n=100, repetitions=20,
    methods=("bayes", "csvm", "lssvm", "eps-l1svm", "eps-l1vsvm"),
    grid=grid, wcfg=wcfg, indicators=("acc",), seed=42)

print("optimal boundary: x2 = 2*x1 + 0")
print()
print(bayes_table_text(columns))
print()
print("the bayes row is exact by design; with only 20 repetitions the")
print("distance column is a rough estimate -- the acceptance suite runs the")
print("full 100-repetition version of this experiment at n=200.")
