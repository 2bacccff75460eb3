"""Classifier fitting: the weighted epsilon-insensitive dual QP and baselines.

Six families share two mechanisms. The dual-QP models (eps-l1vsvm,
eps-l1svm, csvm) are solved by one pairwise working-set engine that
maximizes

    W(b) = p.b - sum_i eps_i |b_i| - 0.5 b'Kb
    s.t.  sum_i b_i = 0,  lo_i <= b_i <= hi_i,

updating one index pair per step and solving the two-variable restriction
exactly (piecewise quadratic), so the objective strictly increases. The
pair comes from second-order working-set selection (Fan, Chen & Lin,
"Working set selection using second order information for training SVM",
JMLR 6, 2005): i is the index whose increase has the largest directional
derivative up_i, and j maximizes the predicted gain (up_i + dn_j)^2 /
eta_ij over the j whose decrease dn_j still violates KKT together with i
(up_i + dn_j > 0), where eta_ij = K_ii + K_jj - 2 K_ij is floored at
tau = 1e-12 so that duplicate rows (eta_ij = 0) stay selectable. The
engine stops when the maximal violation max up + max dn falls below the
tolerance, 1e-4 by default. At 1e-3 the fit stopped at near-optimal
points that depended on the selection rule, far enough apart to change
which gamma cross-validation picks; at 1e-4 the maximal-violating-pair
rule and this one recover boundaries whose distances agree to within
6e-4 in each of the ten boundary-recovery meta-runs.

A step costs a dozen numpy calls on m-vectors plus the scalar pair step.
The selection's curvature row eta_i. for the chosen i comes from a per-call
cache, built the first time i is selected with the loop's own order of
operations, so every result is bit-identical to rebuilding the row on each
step. The cache holds one m-vector per distinct row visited, at most m^2
floats (200 KB at m = 160), and costs nothing up front.

At large gamma the rbf Gram is numerically singular and pair steps
zig-zag for 10^4-10^5 steps, so a fit has two phases. The pair loop runs
from b = 0 for a budget of pair steps (``_switch_budget``), about twice
what an interior-point solve costs. A fit that has not converged or
stalled by then is solved by the primal-dual interior point of the
``interior`` module, whose dozen or so Newton steps, two m x m LU solves
each (d x d ones on a linear kernel with few features, below), reach the
neighbourhood of the optimum whatever the conditioning.
Its result is snapped onto 0 and the bounds, and the same pair loop
finishes it to the tolerance and decides status, violation and bias.
``max_iter`` counts pair steps over both phases. A fit that ends within
the budget is the pair loop alone, bit for bit.

A fit told to start on the interior point (``SolverConfig.interior_first``)
skips the budget: it runs the same cold interior point, snap and polish,
so where the budget would have run out its beta, bias and status are the
switched fit's, bit for bit, with ``_switch_budget(m)`` fewer pair steps.
Where no fit switches (max_iter <= budget) the flag changes nothing.
``modelsel.cv_table`` sets it from two kinds of evidence, the previous
gamma's fit of the same fold and the previous fold's fit of the same
cell; the engine keeps no state between calls.

The weighted epsilon-insensitive dual uses symmetric per-sample boxes
|b_i| <= gamma*v_i; the hinge-loss dual uses one-sided boxes and eps = 0.
The closed-form models (vsvm, lssvm, idlssvm) share one system and one
solve: the offset comes from two right-hand sides as in Suykens &
Vandewalle (1999), and a third, probe column gives a one-solve condition
estimate in the spirit of Higham's (ACM TOMS 14, 1988), one guard for all.

A linear Gram from ``kernels.gram`` keeps its factor, the samples X with
K = XX'. Where that takes fewer flops (``_low_rank_factor``) both solvers
work through X by the Sherman-Morrison-Woodbury identity, as Fine &
Scheinberg (JMLR 2, 2001) do for low-rank kernels: the interior point's
Newton systems and the closed-form systems become d x d ones, while
residuals, stopping rules and guards keep K and M.

Every fit returns one ``KernelModel`` with scores f(x) = scale * (sum_i
a_i K(x_i, x) + b) + shift, so a single 0.5-threshold decision rule
applies everywhere; the dual fits also keep their box caps and epsilon.
The dual fits also record their pair steps and interior-point iterations.
``save_model`` writes a model as a version-3 JSON document.
"""

from __future__ import annotations

import json
import sys
import weakref
from dataclasses import dataclass, fields

import numpy as np

from .core import Dataset, KernelSpec, Scaler, _block_rows
from .distribution import VMatrix, VWeights
from .kernels import GramMatrix, _low_rank_solver, cross_gram

__all__ = [
    "KernelModel",
    "SingularSystemError",
    "SolverConfig",
    "SolverError",
    "dual_objective",
    "fit_csvm",
    "fit_eps_l1_svm",
    "fit_eps_l1_vsvm",
    "fit_idlssvm",
    "fit_lssvm",
    "fit_vsvm",
    "load_model",
    "predict",
    "save_model",
]

MODEL_FORMAT = "cdfsvm-model"
MODEL_VERSION = 3


class SolverError(RuntimeError):
    """A fit could not be completed."""


class SingularSystemError(SolverError):
    """A closed-form linear system is numerically singular."""

    def __init__(self, message: str, cond: float | None = None):
        if cond is not None:
            message = f"{message} (condition estimate {cond:.3e})"
        super().__init__(message)
        self.cond = cond


@dataclass(frozen=True)
class SolverConfig:
    """Dual-solver settings: tradeoff gamma, tube epsilon, stopping rule.

    The engine stops once the maximal KKT violation is below ``tolerance``
    or after ``max_iter`` pair updates, counted over both of its phases: a
    fit still unconverged after 12 m pair steps (m^3 / 2560 from m = 176
    on) switches to an interior point, and the pair loop spends the steps
    left on finishing its result. The default 1e-4 is tight enough
    that the stopping point, and through it cross-validation's choice of
    gamma, no longer depends on which pair-selection rule the engine uses;
    at 1e-3 it did.

    ``interior_first`` skips the pair-step budget and starts on the interior
    point, which the pair loop then finishes with up to ``max_iter`` steps.
    On a fit whose budget would have run out the result is the same, bit for
    bit, at ``_switch_budget(m)`` fewer pair steps; on one the pair loop
    would have solved it costs an interior solve and may end at another
    point within the tolerance. Where the budget is not below ``max_iter``
    (from m = 635 on at the default) it is ignored, and the pair loop runs
    alone. ``modelsel.cv_table`` sets it when the previous gamma's fit of
    the same fold was hard or the previous fold's fit of the same cell ran
    the interior point.
    """

    gamma: float
    epsilon: float = 0.0
    tolerance: float = 1e-4
    max_iter: int = 100_000
    interior_first: bool = False

    def __post_init__(self):
        if not isinstance(self.interior_first, bool):
            raise TypeError(f"interior_first must be a bool, got {self.interior_first!r}")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


# ---------------------------------------------------------------------------
# pairwise working-set engine

@dataclass
class PairwiseResult:
    """The engine's record of one fit.

    ``status`` is "converged" (KKT violation below the tolerance),
    "max_iter" (the pair steps ran out) or "stalled" (a pair step could no
    longer raise the dual, at a kink). ``iterations`` counts pair steps over
    both phases and ``interior_iterations`` the interior-point iterations,
    0 when the fit did not switch.
    """

    beta: np.ndarray
    bias: float
    status: str
    iterations: int
    violation: float
    interior_iterations: int = 0

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _pair_argmax(t0, s, t_lo, t_hi, ei, ej, g0, eta):
    """Exact maximizer of the two-variable restriction.

    phi(t) = g0*(t - t0) - ei*(|t| - |t0|) - ej*(|s - t| - |s - t0|)
             - 0.5*eta*(t - t0)**2   over t in [t_lo, t_hi].

    phi is concave and quadratic between its kinks at 0 and s. Scanning the
    pieces from the left, the maximizer is the first piece's stationary
    point that falls short of the piece's right end, else t_hi.
    """
    # the interior kinks in increasing order, then the right end
    if t_lo < 0.0 < t_hi:
        if t_lo < s < t_hi:
            knots = (s, 0.0, t_hi) if s < 0.0 else (0.0, s, t_hi)
        else:
            knots = (0.0, t_hi)
    elif t_lo < s < t_hi:
        knots = (s, t_hi)
    else:
        knots = (t_hi,)
    u = t_lo
    for w in knots:
        mid = 0.5 * (u + w)
        slope0 = g0 - (ei if mid >= 0.0 else -ei) + (ej if s - mid >= 0.0 else -ej)
        if eta > 0.0:
            t_star = min(max(t0 + slope0 / eta, u), w)
        else:
            t_star = w if slope0 > 0.0 else u
        if t_star < w:
            break
        u = w
    step = t_star - t0
    gain = (g0 * step - ei * (abs(t_star) - abs(t0))
            - ej * (abs(s - t_star) - abs(s - t0)) - 0.5 * eta * step * step)
    return t_star, gain


def _recover_bias(beta, out, target, eps, lo, hi, edge):
    """Average the exact bias over free vectors; else take the midpoint of
    the KKT-feasible interval."""
    r = target - out
    free_pos = (beta > edge) & (beta < hi - edge)
    free_neg = (beta < -edge) & (beta > lo + edge)
    exact = np.concatenate([(r - eps)[free_pos], (r + eps)[free_neg]])
    if exact.size:
        return float(exact.mean())
    up = np.where(beta >= 0.0, r - eps, r + eps)
    dn = np.where(beta > 0.0, eps - r, -eps - r)
    up_ok = beta < hi - edge
    dn_ok = beta > lo + edge
    b_lo = float(np.max(up[up_ok])) if up_ok.any() else -np.inf
    b_hi = float(-np.max(dn[dn_ok])) if dn_ok.any() else np.inf
    if np.isfinite(b_lo) and np.isfinite(b_hi):
        return 0.5 * (b_lo + b_hi)
    if np.isfinite(b_lo):
        return b_lo
    if np.isfinite(b_hi):
        return b_hi
    return 0.0


_MASK = 1e100  # additive penalty hiding bound-pinned directions from argmax
_TAU = 1e-12  # curvature floor for the selection when rows coincide (eta_ij = 0)


def _pair_loop(K, target, eps, lo, hi, beta, tolerance=SolverConfig.tolerance,
               max_iter=SolverConfig.max_iter) -> PairwiseResult:
    """Pair steps from the feasible ``beta`` until the KKT violation is below
    ``tolerance``, a step stalls, or ``max_iter`` steps have run."""
    m = target.size
    r = target - K @ beta  # kept incrementally; exactly target at beta = 0
    edge = 1e-12 * np.maximum(hi - lo, 1.0)
    hi_edge = hi - edge
    lo_edge = lo + edge
    half_diag = 0.5 * np.diagonal(K)

    # Directional derivatives are up = r + up_off and dn = dn_off - r, where
    # the offsets carry the |beta| subgradient sign and a large negative
    # penalty for directions pinned at their bound. Only the two moved
    # entries change per step, so the offsets are patched in O(1). The loop
    # reads its per-pair scalars from Python lists and the rows of K from a
    # list of row views, which is cheaper than indexing numpy arrays element
    # by element or making a new view of K on every step.
    up_off = np.where(beta >= 0.0, -eps, eps) - _MASK * (beta >= hi_edge)
    dn_off = np.where(beta > 0.0, eps, -eps) - _MASK * (beta <= lo_edge)
    beta = beta.tolist()
    eps_l, lo_l, hi_l = eps.tolist(), lo.tolist(), hi.tolist()
    lo_edge_l, hi_edge_l, half_diag_l = lo_edge.tolist(), hi_edge.tolist(), half_diag.tolist()
    rows = list(K)
    eta_rows = [None] * m  # the selection's curvature rows, built on first use

    up_m = np.empty(m)
    dn_m = np.empty(m)
    tmp = np.empty(m)
    # constant operands as arrays and the ufuncs as locals: both cut the
    # per-call overhead that dominates a step at these sizes
    zero = np.zeros(m)
    half_tau = np.full(m, 0.5 * _TAU)
    add, subtract, multiply, divide, maximum = (
        np.add, np.subtract, np.multiply, np.divide, np.maximum)

    status = "max_iter"
    violation = np.inf
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        add(r, up_off, out=up_m)
        subtract(dn_off, r, out=dn_m)
        i = up_m.argmax()
        up_i = up_m.item(i)
        violation = up_i + dn_m.item(dn_m.argmax())
        if violation < tolerance:
            status = "converged"
            break

        # second-order choice of j: the largest predicted gain
        # (up_i + dn_j)^2 / eta_ij among the j that violate KKT with i;
        # row i of eta holds eta_ij / 2 = max((K_jj/2 - K_ij) + K_ii/2, tau/2),
        # which has the same argmax. It is built when i is first selected
        # (see the module docstring), in this order of operations, which
        # the parity tests in tests/test_solvers.py hold bit for bit.
        Ki = rows[i]
        half_Kii = half_diag_l[i]
        eta = eta_rows[i]
        if eta is None:
            eta = subtract(half_diag, Ki)
            add(eta, half_Kii, out=eta)
            maximum(eta, half_tau, out=eta)
            eta_rows[i] = eta
        add(dn_m, up_i, out=tmp)
        maximum(tmp, zero, out=tmp)
        multiply(tmp, tmp, out=tmp)
        divide(tmp, eta, out=tmp)
        j = tmp.argmax()

        t0 = beta[i]
        s = t0 + beta[j]
        t_lo = max(lo_l[i], s - hi_l[j])
        t_hi = min(hi_l[i], s - lo_l[j])
        eta_ij = max(2.0 * (half_Kii + half_diag_l[j] - Ki.item(j)), 0.0)
        g0 = r.item(i) - r.item(j)
        t_new, gain = _pair_argmax(t0, s, t_lo, t_hi, eps_l[i], eps_l[j], g0, eta_ij)
        if gain <= 0.0 or t_new == t0:
            status = "stalled"  # at a kink; the KKT gap stays as recorded
            break
        d = t_new - t0
        beta[i] = t_new
        beta[j] = s - t_new
        subtract(Ki, rows[j], out=tmp)
        multiply(tmp, d, out=tmp)
        subtract(r, tmp, out=r)
        for idx in (i, j):
            b = beta[idx]
            e = eps_l[idx]
            up_off[idx] = (-e if b >= 0.0 else e) - (_MASK if b >= hi_edge_l[idx] else 0.0)
            dn_off[idx] = (e if b > 0.0 else -e) - (_MASK if b <= lo_edge_l[idx] else 0.0)

    beta = np.array(beta)
    bias = _recover_bias(beta, target - r, target, eps, lo, hi, edge)
    return PairwiseResult(beta=beta, bias=bias, status=status,
                          iterations=iterations, violation=float(violation))


def _switch_budget(m: int) -> int:
    """Pair steps before a fit switches to the interior point: 12 m, and
    m^3 / 2560 from m = 176 on.

    It depends on m alone, so results do not depend on the machine. A fit
    switches once the pair loop has spent about twice what an interior-point
    solve costs. Timed against the pair steps of the same fits, one solve
    costs 6.6 m pair steps on cv-tube's switched fits (m = 160, median of 26)
    and 5.6 m on bayes's (m = 150, 5 fits); with an inverse per Newton step
    it cost 12.3 m and 9.8 m. On gamma = 256 tube cells of gauss2d (rbf
    delta = 0.25, eps = 2^-4; 3,000 pair steps from beta = 0; the best of
    repeated timings on two samples per m; one BLAS thread on a shared
    2-core x86-64 box), twice a solve comes to

        m                       25     50   150    160    200    400    1,000
        two solves, in m steps  10-13  7-8  13     12-14  15     41-44  137-155
        budget, in m steps      12     12   12     12     15.6   62.5   391

    The solve's LU factorizations grow as m^3, and so does the budget from
    m = 176 on. Pair steps get dearer with m (10 us at m = 160, 15 us at
    1,000), so at m = 400-1,000 the budget is 1.4-2.9 times the rule's: a
    large fit does not trade its steps for seconds of solves that save
    less. From m = 635 on the budget exceeds the default max_iter, so no
    such fit switches.
    """
    return max(12 * m, m**3 // 2560)


def _solve_pairwise(K, target, eps, lo, hi, tolerance=SolverConfig.tolerance,
                    max_iter=SolverConfig.max_iter, interior_first=False,
                    factor=None) -> PairwiseResult:
    """Maximize the dual to within ``tolerance`` of KKT optimality.

    The pair loop runs from beta = 0 for ``_switch_budget(m)`` steps, none
    when ``interior_first`` is set. A fit still unconverged then is solved by
    the interior point, snapped, and handed back to the pair loop for the
    steps left of ``max_iter``; that loop decides status, violation and
    bias. A fit that converges or stalls within the budget, or any call with
    max_iter <= budget, ``interior_first`` or not, is the pair loop alone,
    bit for bit. ``factor``, an m x d G with K = GG', is handed to the
    interior point, which then solves d x d systems.
    """
    m = target.size
    budget = _switch_budget(m)
    switch = budget < max_iter  # otherwise the pair loop runs alone
    first = 0
    if not (interior_first and switch):
        res = _pair_loop(K, target, eps, lo, hi, np.zeros(m), tolerance,
                         min(budget, max_iter))
        first = res.iterations
        switch = switch and res.status == "max_iter"
    if switch:
        # loaded on the first switch, so importing cdfsvm compiles none of it
        from .interior import interior_point, snap
        beta, interior = interior_point(K, target, eps, lo, hi, factor)
        res = _pair_loop(K, target, eps, lo, hi, snap(beta, lo, hi),
                         tolerance, max_iter - first)
        res.iterations += first
        res.interior_iterations = interior
    # only an application that imported logging can have enabled its output
    logging = sys.modules.get("logging")
    if logging is not None:
        logger = logging.getLogger(__name__)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "pairwise engine: m=%d, %d pair steps before the switch, %d "
                "interior-point iterations, %d polish steps, %s, violation %.3g",
                m, first, res.interior_iterations, res.iterations - first,
                res.status, res.violation)
    return res


def dual_objective(beta, target, epsilon, K) -> float:
    """Value of the dual objective at coefficients beta = alpha* - alpha."""
    beta = np.asarray(beta, dtype=float)
    target = np.asarray(target, dtype=float)
    return float(target @ beta - epsilon * np.abs(beta).sum()
                 - 0.5 * beta @ (K @ beta))


# ---------------------------------------------------------------------------
# the fitted model

@dataclass(frozen=True)
class KernelModel:
    """Kernel expansion f(x) = scale * (sum_i a_i K(x_i, x) + intercept) + shift.

    Every fit returns one. The dual-QP fits also keep their box caps and tube
    epsilon, and construction then checks feasibility (|a_i| <= cap_i) and
    the zero-sum constraint; closed-form fits leave both None. The dual fits
    record ``iterations``, their pair steps over both engine phases, and
    ``interior_iterations``, 0 unless the fit ran the interior point;
    closed-form fits leave both at 0. Coefficients and the numeric scalars
    must be finite, ``converged`` a bool, ``method`` a str and the two counts
    non-negative ints; a wrongly typed field raises TypeError.

    The fields keep every training row, zero coefficients included, so the
    dual objective, cross-validation scoring and the saved JSON see the
    whole expansion. Construction also keeps read-only copies of the rows
    with a nonzero coefficient in private attributes, and ``predict`` scores
    only those: the epsilon-insensitive loss leaves most tube-model
    coefficients at zero.
    """

    coefficients: np.ndarray
    intercept: float
    support: np.ndarray
    kernel: KernelSpec
    scaler: Scaler
    method: str
    converged: bool = True
    score_scale: float = 1.0
    score_shift: float = 0.0
    v_provenance: dict | None = None
    caps: np.ndarray | None = None
    epsilon: float | None = None
    iterations: int = 0
    interior_iterations: int = 0

    def __post_init__(self):
        arrays = dict(coefficients=np.array(self.coefficients, dtype=float),
                      support=np.array(self.support, dtype=float))
        coef, support = arrays["coefficients"], arrays["support"]
        if coef.ndim != 1 or support.ndim != 2 or coef.size != support.shape[0]:
            raise ValueError("coefficient/support shape mismatch")
        if not np.all(np.isfinite(coef)):
            raise ValueError("non-finite coefficients")
        if not isinstance(self.method, str):
            raise TypeError(f"method must be a str, got {self.method!r}")
        if not isinstance(self.converged, bool):
            raise TypeError(f"converged must be a bool, got {self.converged!r}")
        for name in ("iterations", "interior_iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"negative {name}")
            object.__setattr__(self, name, int(value))
        for name in ("intercept", "score_scale", "score_shift", "epsilon"):
            value = getattr(self, name)
            if name == "epsilon" and value is None:  # closed-form fits have none
                continue
            if isinstance(value, str):  # float() would parse it
                raise TypeError(f"{name} must be a number, got {value!r}")
            value = float(value)
            if not np.isfinite(value):
                raise ValueError(f"non-finite {name}")
            object.__setattr__(self, name, value)
        if self.caps is not None:
            caps = arrays["caps"] = np.array(self.caps, dtype=float)
            if caps.shape != coef.shape:
                raise ValueError("caps must match coefficients")
            if np.any(np.abs(coef) > caps + 1e-9):
                raise ValueError("box feasibility violated: |a_i| > gamma*v_i")
            if abs(float(coef.sum())) > 1e-8:
                raise ValueError("equality constraint violated: sum a_i != 0")
        keep = coef != 0.0
        arrays.update(_kept_support=support[keep], _kept_coefficients=coef[keep])
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def predict(model: KernelModel, X) -> np.ndarray:
    """Scores f(x) = scale * (sum_i a_i K(x_i, x) + intercept) + shift.

    Only the rows with a_i != 0 enter the sum. The result differs from the
    full expansion over every stored row only by summation order (about
    1e-13 on a tube model with 90% zero coefficients); when every
    coefficient is nonzero it is the same sum, bit for bit.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.support.shape[1]:
        raise ValueError(
            f"expected (t, {model.support.shape[1]}) inputs, got {X.shape}"
        )
    cross = cross_gram(model.kernel, model._kept_support, X)
    return _scores(model, model._kept_coefficients @ cross)


def _score_with_cross(model: KernelModel, cross: np.ndarray) -> np.ndarray:
    # cross must be the (m_train, t) kernel matrix for model.support
    return _scores(model, model.coefficients @ cross)


def _scores(model: KernelModel, expansion: np.ndarray) -> np.ndarray:
    return model.score_scale * (expansion + model.intercept) + model.score_shift


# ---------------------------------------------------------------------------
# dual fits

def _check_fit_inputs(data: Dataset, K: GramMatrix, require_both_classes=True):
    if require_both_classes and not data.has_both_classes:
        raise ValueError("fit requires both classes present")
    if K.values.shape != (data.m, data.m):
        raise ValueError("Gram matrix does not match the dataset")


def _low_rank_factor(K: GramMatrix, lus: int, v_product=False) -> np.ndarray | None:
    """K's factor G (m x d, K = GG') when solving through it takes fewer
    flops than the ``lus`` m x m LU factorizations it replaces, else None.

    Through G a solve costs 2md^2 for G'TU, 2m^2 d more for U = VG when
    ``v_product``, and ``lus`` d x d factorizations, each (2/3)d^3 against
    (2/3)m^3. The rule breaks even at d = 0.68m for the interior point
    (lus = 2), 0.53m for lssvm and idlssvm and 0.26m for vsvm. Timed at
    m = 50-600 with one BLAS thread on a shared 2-core x86-64 box, the
    factor's solves stayed faster up to about 0.8m, 0.6m and 0.42m.
    """
    G = K._factor
    if G is None:
        return None
    m, d = G.shape
    cost = 2 * m * d * d + (2 * m * m * d if v_product else 0) + lus * 2 * d**3 / 3
    return G if cost < lus * 2 * m**3 / 3 else None


def _fit_dual(data: Dataset, K: GramMatrix, cfg: SolverConfig, target, eps, lo, hi,
              **model_fields) -> KernelModel:
    """Check the inputs, solve the pairwise dual over [lo, hi], wrap beta and bias."""
    _check_fit_inputs(data, K)
    res = _solve_pairwise(K.values, target, eps, lo, hi, tolerance=cfg.tolerance,
                          max_iter=cfg.max_iter, interior_first=cfg.interior_first,
                          factor=_low_rank_factor(K, lus=2))
    return KernelModel(coefficients=res.beta, intercept=res.bias, support=data.features,
                       kernel=K.spec, scaler=data.scaler, converged=res.converged,
                       iterations=res.iterations,
                       interior_iterations=res.interior_iterations, **model_fields)


def _fit_weighted_tube(data: Dataset, K: GramMatrix, v: VWeights, cfg: SolverConfig,
                       method: str, provenance: dict | None) -> KernelModel:
    vals = np.asarray(v.values, dtype=float)
    if vals.shape != (data.m,):
        raise ValueError("weight vector does not match the dataset")
    if np.any(vals <= 0.0):
        raise ValueError("non-positive distribution weight")
    caps = cfg.gamma * vals
    return _fit_dual(data, K, cfg, data.labels.astype(float),
                     np.full(data.m, cfg.epsilon), -caps, caps, method=method,
                     v_provenance=provenance, caps=caps, epsilon=cfg.epsilon)


def fit_eps_l1_vsvm(data: Dataset, K: GramMatrix, v: VWeights,
                    cfg: SolverConfig) -> KernelModel:
    """Fit the distribution-weighted epsilon-insensitive model.

    Maximizes (a*-a)'Y - eps (a*+a)'1 - 0.5 (a*-a)'K(a*-a) subject to
    (a*-a)'1 = 0 and 0 <= a, a* <= gamma*v, to within cfg.tolerance of KKT
    optimality. The bias is recovered from free support vectors (average),
    falling back to the midpoint of the KKT-feasible interval.
    """
    return _fit_weighted_tube(data, K, v, cfg, "eps-l1vsvm", v.provenance())


def fit_eps_l1_svm(data: Dataset, K: GramMatrix, cfg: SolverConfig) -> KernelModel:
    """Unweighted epsilon-insensitive fit: the all-ones weight vector."""
    return _fit_weighted_tube(data, K, VWeights.ones(data.m), cfg,
                              "eps-l1svm", None)


def fit_csvm(data: Dataset, K: GramMatrix, cfg: SolverConfig) -> KernelModel:
    """Classical hinge-loss SVM via the same pairwise engine.

    Labels are mapped to +/-1 internally; in b_i = lambda_i z_i coordinates
    the dual becomes max z.b - 0.5 b'Kb over one-sided boxes (b_i in [0,
    gamma] for positives, [-gamma, 0] for negatives) with sum b_i = 0. The
    sign score is affinely mapped onto the 0.5-threshold convention.
    """
    z = 2.0 * data.labels.astype(float) - 1.0
    hi = np.where(z > 0.0, cfg.gamma, 0.0)
    lo = np.where(z < 0.0, -cfg.gamma, 0.0)
    return _fit_dual(data, K, cfg, z, np.zeros(data.m), lo, hi, method="csvm",
                     score_scale=0.5, score_shift=0.5,
                     caps=np.full(data.m, cfg.gamma), epsilon=0.0)


# ---------------------------------------------------------------------------
# closed-form fits

# Work that does not depend on gamma is done once per input object and
# reused along a gamma grid: V K per (V, K) pair and the density weights per
# (training set, k). The memos are keyed by identity (VMatrix and Dataset
# compare by identity and hold read-only arrays), and an entry dies with the
# VMatrix or Dataset it was built from; the V K entry holds only a weak
# reference to its GramMatrix.
_VK_MEMO = weakref.WeakKeyDictionary()
_RHO_MEMO = weakref.WeakKeyDictionary()


def _vk_product(V: VMatrix, K: GramMatrix) -> np.ndarray:
    """Read-only V K, computed once per (V, K) pair."""
    entry = _VK_MEMO.get(V)
    if entry is None or entry[0]() is not K:
        VK = V.values @ K.values
        VK.setflags(write=False)
        entry = _VK_MEMO[V] = (weakref.ref(K), VK)
    return entry[1]


def _fit_closed_form(data: Dataset, K: GramMatrix, gamma: float, method: str,
                     V: VMatrix | None = None, rho: np.ndarray | None = None
                     ) -> KernelModel:
    """Solve M A = b_y - c b_1 with 1'A = 0: with V, M = VK + gamma I and
    [b_y, b_1] = V[Y, 1]; else M = K + diag(1/(gamma rho)) and [b_y, b_1] = [Y, 1].

    One solve gives M [A_y, A_1, z] = [b_y, b_1, p]; then c = 1'A_y / 1'A_1
    and A = A_y - c A_1. SingularSystemError is raised when the solve fails;
    when ||M|| max_k ||x_k|| / ||b_k||, a lower bound on the infinity-norm
    condition number of M, exceeds 1e10; when 1'A_1 vanishes against
    sum |A_1|; or when the residual of A exceeds 1e-8 of its right side.
    The probe p_i = (-1)^i (1 + i/(m-1)) has a component along every
    near-null vector e_i - e_j of duplicate rows, which the infinity norm
    keeps at full weight where a 1-norm would dilute it by about m/2.

    When K has a factor G, K = GG', that is cheaper to solve through
    (``_low_rank_factor``), M = T + UG' with T = diag(1/(gamma rho)) and
    U = G, or T = gamma I and U = VG. The solve then goes through a d x d
    system by the Sherman-Morrison-Woodbury identity, T^-1 B - T^-1 U
    (I + G'T^-1 U)^-1 G'T^-1 B. M is still formed for the guard and the
    residual, and a LinAlgError from the d x d solve raises as one from
    M's would.
    """
    # single-class data is fine for vsvm: the constant fit f = c is exact then
    _check_fit_inputs(data, K, require_both_classes=V is None)
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    m = data.m
    G = _low_rank_factor(K, lus=1, v_product=V is not None)
    rhs = np.column_stack([data.labels.astype(float), np.ones(m)])
    if V is None:
        M = K.values.copy()
        M.flat[::m + 1] += 1.0 / (gamma * rho)
    else:
        if V.values.shape != (m, m):
            raise ValueError("V-matrix does not match the dataset")
        M = _vk_product(V, K).copy()
        M.flat[::m + 1] += gamma
        # one product, so constant labels give bit-identical columns and A = 0
        rhs = V.values @ rhs
    i = np.arange(m)
    B = np.column_stack([rhs, np.where(i % 2, -1.0, 1.0) * (1.0 + i / max(m - 1, 1))])
    try:
        if G is None:
            X = np.linalg.solve(M, B)
        elif V is None:  # M = diag(1/(gamma rho)) + GG'
            X = _low_rank_solver(gamma * rho, G, G)(B)
        else:  # M = gamma I + (VG)G'
            X = _low_rank_solver(np.full(m, 1.0 / gamma), V.values @ G, G)(B)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"singular closed-form system: {exc}") from exc
    b_max = np.abs(B).max(axis=0)
    used = b_max > 0.0
    cond = float(np.abs(M).sum(axis=1).max()
                 * np.max(np.abs(X[:, used]).max(axis=0) / b_max[used]))
    if not cond <= 1e10:
        raise SingularSystemError("closed-form system is numerically singular", cond)
    A_y, A_1 = X[:, 0], X[:, 1]
    den = float(A_1.sum())
    if not abs(den) > 1e-12 * float(np.abs(A_1).sum()):
        raise SingularSystemError("offset denominator vanishes", cond)
    c = float(A_y.sum()) / den
    A = A_y - c * A_1
    resid = np.abs(M @ A - (rhs[:, 0] - c * rhs[:, 1])).sum()
    if not resid <= 1e-8 * (np.abs(rhs[:, 0]).sum() + abs(c) * np.abs(rhs[:, 1]).sum()):
        raise SingularSystemError("closed-form residual too large", cond)
    return KernelModel(
        coefficients=A, intercept=c, support=data.features, kernel=K.spec,
        scaler=data.scaler, method=method,
        v_provenance=None if V is None else {"g": V.g_spec.to_dict(), "mu": V.mu.describe()},
    )


def fit_vsvm(data: Dataset, K: GramMatrix, V: VMatrix, gamma: float) -> KernelModel:
    """Closed-form fit of the V-matrix-weighted least-squares objective.

        R(A, c) = (KA + c1 - Y)' V (KA + c1 - Y) + gamma A'KA

    Stationarity gives (VK + gamma I) A = V(Y - c1) and 1'A = 0, so
    A = A_y - c A_1 with A_y = (VK + gamma I)^-1 V Y, A_1 = (VK + gamma I)^-1 V 1
    and c = 1'A_y / 1'A_1.
    """
    return _fit_closed_form(data, K, gamma, "vsvm", V=V)


def fit_lssvm(data: Dataset, K: GramMatrix, gamma: float) -> KernelModel:
    """Least-squares fit from the saddle system (K + I/gamma) a + b1 = Y, 1'a = 0."""
    return _fit_closed_form(data, K, gamma, "lssvm", rho=np.ones(data.m))


def _density_weights(X: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-sample density rho_i = exp(-mean squared distance to the k nearest
    same-class neighbors, divided by the feature count)."""
    m, d = X.shape
    rho = np.empty(m)
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        if idx.size <= k:
            raise ValueError(f"class {cls} has {idx.size} members; needs more than k={k}")
        pts = X[idx]
        rows = _block_rows(pts.size)  # a (rows, c, d) difference block stays in cache
        sq = np.empty((idx.size, idx.size))
        for lo in range(0, idx.size, rows):
            sq[lo:lo + rows] = np.sum((pts[lo:lo + rows, None] - pts) ** 2, axis=2)
        np.fill_diagonal(sq, np.inf)
        sq.sort(axis=1)
        # a copy of the k nearest, so that no c x c array of this class is
        # alive while the next class is built
        nearest = sq[:, :k].copy()
        del sq
        rho[idx] = np.exp(-nearest.mean(axis=1) / d)
    return rho


def fit_idlssvm(data: Dataset, K: GramMatrix, gamma: float, k: int = 5) -> KernelModel:
    """Density-weighted least-squares fit: (K + diag(1/(gamma*rho))) a + b1 = Y."""
    by_k = _RHO_MEMO.setdefault(data, {})
    rho = by_k.get(k)
    if rho is None:
        rho = _density_weights(data.features, data.labels, k)
        rho.setflags(write=False)
        by_k[k] = rho
    return _fit_closed_form(data, K, gamma, "idlssvm", rho=rho)


# ---------------------------------------------------------------------------
# serialization

# A model document holds every KernelModel field; these two are nested dicts.
_SPECS = {"kernel": KernelSpec, "scaler": Scaler}


def save_model(model: KernelModel, path) -> None:
    """Write a fitted model as a versioned JSON document."""
    payload = {"format": MODEL_FORMAT, "version": MODEL_VERSION}
    for f in fields(KernelModel):
        value = getattr(model, f.name)
        if f.name in _SPECS:
            value = value.to_dict()
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        payload[f.name] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_model(path) -> KernelModel:
    """Reload a model written by save_model; ValueError if it is malformed."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} document")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {payload.get('version')}")
    names = [f.name for f in fields(KernelModel)]
    missing = [name for name in names if name not in payload]
    if missing:
        raise ValueError(f"model document lacks {', '.join(missing)}")
    values = {name: payload[name] for name in names}
    try:
        for name, spec in _SPECS.items():
            values[name] = spec.from_dict(values[name])
        return KernelModel(**values)
    except (KeyError, TypeError) as exc:  # a field of the wrong shape or type
        raise ValueError(f"malformed model document: {exc!r}") from exc
