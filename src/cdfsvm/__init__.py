"""Kernel classification weighted by cumulative-distribution information.

Distribution weights (v-vectors and V-matrices) encode where each sample
sits in the input distribution; they cap the dual variables of an
epsilon-insensitive L1 kernel machine, weight a closed-form least-squares
variant, and define the Vac evaluation indicator. Classical baselines
(C-SVM, LSSVM, density-weighted LSSVM) share the same fitting and
evaluation plumbing.
"""

from .core import (Dataset, GKernelSpec, KernelSpec, Scaler, decide, normalize,
                   subset, to_internal_labels)
from .datagen import (GaussianSpec2D, Robustness1DSpec, bayes_boundary_2d,
                      bayes_posterior, gen_gaussian_2d, gen_robustness_1d,
                      load_csv, save_csv)
from .distribution import (MeasureSpec, VMatrix, VWeights, v_matrix, v_vector,
                           weights_to_csv)
from .evaluation import (BoundaryLine, EvalReport, accuracy,
                         boundary_from_linear, confusion_counts,
                         dist_to_bayes, evaluate, gmean, vac)
from .kernels import GramMatrix, cross_gram, gram
from .modelsel import (GridSpec, METHODS, WeightConfig, cv_table, fit_full,
                       grid_search, kfold_split, select_best)
from .solvers import (KernelModel, SingularSystemError, SolverConfig,
                      SolverError, dual_objective, fit_csvm, fit_eps_l1_svm,
                      fit_eps_l1_vsvm, fit_idlssvm, fit_lssvm, fit_vsvm,
                      load_model, predict, save_model)

__version__ = "0.1.0"
