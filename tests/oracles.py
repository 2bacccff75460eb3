"""Independent reference computations and decision rules for the test suite.

The QP reference solves the epsilon-insensitive dual in the stacked
(alpha, alpha*) parameterization by accelerated projected gradient with an
exact bisection projection onto the box-and-hyperplane feasible set; it
shares no code path with the pairwise decomposition solver under test.
"""

import math
from dataclasses import dataclass

import numpy as np


def project_box_hyperplane(point, caps, caps_neg=None):
    """Project a stacked (alpha, alpha*) point onto

        0 <= alpha <= caps_neg,  0 <= alpha* <= caps,
        sum(alpha* - alpha) = 0.

    The projection is (clip(w_a + lam, 0, caps_neg), clip(w_s - lam, 0,
    caps)) for the multiplier lam zeroing the balance sum(alpha*) -
    sum(alpha), which is piecewise linear and nonincreasing in lam; the
    exact root is found by scanning its breakpoints.
    """
    m = caps.size
    if caps_neg is None:
        caps_neg = caps
    w_a, w_s = point[:m], point[m:]

    bps = np.sort(np.concatenate([-w_a, caps_neg - w_a, w_s - caps, w_s]))
    balance = (np.clip(w_s[None, :] - bps[:, None], 0.0, caps).sum(axis=1)
               - np.clip(w_a[None, :] + bps[:, None], 0.0, caps_neg).sum(axis=1))
    if balance[0] <= 0.0:
        lam = bps[0]
    elif balance[-1] > 0.0:
        lam = bps[-1]
    else:
        k = int(np.argmax(balance <= 0.0))
        gap = balance[k - 1] - balance[k]
        t = balance[k - 1] / gap if gap > 0.0 else 0.0
        lam = bps[k - 1] + t * (bps[k] - bps[k - 1])
    return np.concatenate([np.clip(w_a + lam, 0.0, caps_neg),
                           np.clip(w_s - lam, 0.0, caps)])


def qp_reference(K, y, epsilon, caps, caps_neg=None, max_iter=40_000, stall=1_200):
    """Maximize (a*-a)'y - eps (a*+a)'1 - 0.5 (a*-a)'K(a*-a) over the
    feasible set above; returns (objective, alpha, alpha_star).

    Accelerated projected gradient with restart on non-monotone steps. With
    ``caps_neg`` the alpha block gets its own caps (zero caps pin variables),
    which also covers the hinge-loss dual at epsilon = 0.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    caps = np.asarray(caps, dtype=float)
    m = y.size
    eigs = np.linalg.eigvalsh(K)
    # floored so that a zero K (an LP) does not take steps of 5e11, whose
    # rounding in the projection leaves the feasible set
    lip = 2.0 * max(float(eigs[-1]), 1e-6)
    step = 1.0 / lip

    def objective(z):
        u = z[m:] - z[:m]
        return float(u @ y - epsilon * z.sum() - 0.5 * u @ (K @ u))

    def gradient(z):
        u = z[m:] - z[:m]
        ku = K @ u
        g_alpha = -(y - ku) - epsilon
        g_alpha_star = (y - ku) - epsilon
        return np.concatenate([g_alpha, g_alpha_star])

    z = np.zeros(2 * m)
    momentum = z.copy()
    t_acc = 1.0
    best_obj = objective(z)
    best_z = z.copy()
    since_improved = 0
    for _ in range(max_iter):
        z_next = project_box_hyperplane(momentum + step * gradient(momentum),
                                        caps, caps_neg)
        obj = objective(z_next)
        if obj < objective(z):
            # restart acceleration from the plain step
            z_next = project_box_hyperplane(z + step * gradient(z), caps, caps_neg)
            obj = objective(z_next)
            t_acc = 1.0
            momentum = z_next.copy()
        else:
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
            momentum = z_next + ((t_acc - 1.0) / t_next) * (z_next - z)
            t_acc = t_next
        z = z_next
        if obj > best_obj + 1e-14 * (1.0 + abs(best_obj)):
            best_obj, best_z = obj, z.copy()
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= stall:
                break
    return best_obj, best_z[:m], best_z[m:]


def complementarity_gaps(coef, caps, residual, epsilon):
    """Worst breaches of the tube dual's complementarity conditions.

    With residuals r = y - f(x), a free coefficient (0 < |a_i| < cap_i)
    puts its sample on the tube's edge, r_i = sign(a_i) * eps, and a
    coefficient at its cap puts it on or beyond the edge, sign(a_i) * r_i
    >= eps. Returns the largest |r_i - sign(a_i) eps| over free
    coefficients and the largest eps - sign(a_i) r_i over capped ones, each
    0.0 when its set is empty. A coefficient within 1e-9 * max(cap_i, 1) of
    its cap counts as capped.
    """
    coef = np.asarray(coef, dtype=float)
    at_cap = np.abs(coef) >= caps - 1e-9 * np.maximum(caps, 1.0)
    free = (coef != 0.0) & ~at_cap
    sign = np.sign(coef)
    free_gap = np.abs(residual - sign * epsilon)[free]
    shortfall = (epsilon - sign * residual)[at_cap]
    return float(free_gap.max(initial=0.0)), float(shortfall.max(initial=0.0))


def midpoint_quadrature(fn, lo, hi, n=100_000):
    """Midpoint-rule average of fn over [lo, hi] (the uniform-measure integral)."""
    grid = lo + (hi - lo) * (np.arange(n) + 0.5) / n
    return float(np.mean(fn(grid)))


def random_instance(rng, m_max=8, d_max=3):
    """Small random fit instance with both classes present."""
    m = int(rng.integers(3, m_max + 1))
    d = int(rng.integers(1, d_max + 1))
    X = rng.random((m, d))
    labels = rng.integers(0, 2, size=m)
    labels[0], labels[1] = 0, 1
    v = rng.uniform(0.15, 1.0, size=m)
    v /= v.max()
    gamma = float(2.0 ** rng.uniform(-3.0, 4.0))
    epsilon = float(rng.choice([0.0625, 0.125, 0.25]))
    return X, labels.astype(np.int64), v, gamma, epsilon


@dataclass(frozen=True)
class PairedSignTest:
    differing: int
    vac_closer: int
    p: float
    passed: bool


def paired_line_sign_test(acc_lines, vac_lines, k0, q0, level=0.05):
    """Is the Vac-selected line farther from the optimal line k0*x + q0 than
    the Acc-selected one significantly more often than not?

    ``acc_lines`` and ``vac_lines`` are (ks, qs) pairs indexed by repetition.
    Repetitions whose two lines coincide carry no information and are
    dropped; on the rest each line is scored by its squared deviation
    (k - k0)^2 + (q - q0)^2 and Vac counts when it is at least as close.
    Under "equally good" that count is Binomial(differing, 1/2), so ``p`` is
    the exact lower tail P(X <= vac_closer) and the test fails when
    ``p < level``. With no differing repetition p = 1.
    """
    k_acc, q_acc = (np.asarray(a, dtype=float) for a in acc_lines)
    k_vac, q_vac = (np.asarray(a, dtype=float) for a in vac_lines)
    if not k_acc.shape == q_acc.shape == k_vac.shape == q_vac.shape:
        raise ValueError("the two ensembles must pair repetition by repetition")
    differ = (k_acc != k_vac) | (q_acc != q_vac)
    dev_acc = (k_acc - k0) ** 2 + (q_acc - q0) ** 2
    dev_vac = (k_vac - k0) ** 2 + (q_vac - q0) ** 2
    n = int(differ.sum())
    closer = int((dev_vac[differ] <= dev_acc[differ]).sum())
    p = sum(math.comb(n, i) for i in range(closer + 1)) / 2**n
    return PairedSignTest(differing=n, vac_closer=closer, p=p, passed=p >= level)
