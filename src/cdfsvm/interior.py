"""The interior-point phase of the pairwise dual engine.

``solvers._solve_pairwise`` switches here when its pair loop has not
converged within its step budget, and imports this module on the first
switch only: ``import cdfsvm`` compiles none of it.

``interior_point`` maximizes the engine's dual

    W(b) = p.b - sum_i eps_i |b_i| - 0.5 b'Kb
    s.t.  sum_i b_i = 0,  lo_i <= b_i <= hi_i

by a primal-dual interior point with Mehrotra's predictor-corrector
(Mehrotra, SIAM J. Optim. 2(4), 1992), as in the interior-point SVM solver
of Fine & Scheinberg (JMLR 2, 2001). ``snap`` moves its result onto the
kinks and bounds the pair loop works with.
"""

from __future__ import annotations

import numpy as np

__all__ = ["interior_point", "snap"]

_MAX_ITER = 50  # a safety cap; the stopping rule ends fits after 9-14


def interior_point(K, target, eps, lo, hi):
    """Approximate maximizer of the engine's dual by a primal-dual interior
    point with Mehrotra's predictor-corrector; returns (beta, iterations).

    beta = p - q splits into x = (p, q) with 0 <= p <= max(hi, 0) and
    0 <= q <= max(-lo, 0); a side whose bound is 0 is left out, which
    covers one-sided boxes. Every box must have positive width. The bound
    slacks s = u - x are carried as variables, with multipliers z for
    x >= 0 and w for s >= 0, and y for sum(beta) = 0. Eliminating x, s, z
    and w leaves one SPD system (K + diag(1/E)) dbeta = c/E + dy 1 per
    Newton step, with E_i the sum of 1/(z/x + w/s) over the sides of i; its
    inverse serves the predictor, the corrector and the all-ones right-hand
    side of the equality constraint. Primal and dual share one step length,
    0.99 of the way to the boundary.

    On a numerically singular K the residual bottoms out and then grows,
    so the iteration stops at the first iterate that does not improve
    max(scaled residual, mu), keeping the best one, or once both are below
    1e-7.
    """
    m = target.size
    pos, neg = np.flatnonzero(hi > 0.0), np.flatnonzero(lo < 0.0)
    idx = np.concatenate([pos, neg])
    sign = np.concatenate([np.ones(pos.size), -np.ones(neg.size)])
    u = np.concatenate([hi[pos], -lo[neg]])
    eps_x = eps[idx]
    scale = 1.0 + float(np.abs(target).max())
    x, s = 0.5 * u, u - 0.5 * u
    z, w = np.ones(idx.size), np.ones(idx.size)
    y = 0.0
    ones = np.ones(m)

    def scatter(v):  # sum over the sides of each coordinate
        return np.bincount(idx, weights=v, minlength=m)

    def step_to_boundary(*pairs):  # the largest step keeping every v + t dv >= 0
        ratios = [-v[d < 0.0] / d[d < 0.0] for v, d in pairs]
        return min((float(r.min()) for r in ratios if r.size), default=np.inf)

    best, best_x, iterations = np.inf, x, 0
    while iterations < _MAX_ITER:
        beta = scatter(sign * x)
        r_d = sign * (K @ beta - target - y)[idx] + eps_x - z + w
        r_e = float(beta.sum())
        mu = float(x @ z + s @ w) / (2 * idx.size)
        merit = max(float(np.abs(r_d).max()) / scale, abs(r_e) / scale, mu)
        if not merit < best:  # also ends on NaN
            break
        best, best_x = merit, x
        if merit < 1e-7:
            break
        iterations += 1
        D = z / x + w / s
        E = scatter(1.0 / D)
        # numpy's inverse rather than a scipy Cholesky: importing scipy.linalg
        # would double a bare interpreter's memory (27 to 55 MB)
        try:
            M_inv = np.linalg.inv(K + np.diag(1.0 / E))
        except np.linalg.LinAlgError:
            break
        M_one = M_inv @ ones

        def newton(c_z, c_w):
            # (dx, dz, ds, dw, dy) for complementarity right-hand sides
            # x dz + z dx = c_z and s dw + w ds = c_w, with ds = -dx
            a = -r_d + c_z / x - c_w / s
            c = scatter(sign * a / D) / E
            d_beta = M_inv @ c
            dy = (-r_e - d_beta.sum()) / M_one.sum()
            d_beta += dy * M_one
            dx = (a - sign * (K @ d_beta - dy)[idx]) / D
            return dx, (c_z - z * dx) / x, -dx, (c_w + w * dx) / s, dy

        dx, dz, ds, dw, _ = newton(-x * z, -s * w)  # affine predictor
        alpha = min(1.0, step_to_boundary((x, dx), (s, ds), (z, dz), (w, dw)))
        mu_aff = float((x + alpha * dx) @ (z + alpha * dz)
                       + (s + alpha * ds) @ (w + alpha * dw)) / (2 * idx.size)
        sigma_mu = (mu_aff / mu) ** 3 * mu
        dx, dz, ds, dw, dy = newton(sigma_mu - x * z - dx * dz,
                                    sigma_mu - s * w - ds * dw)
        alpha = min(1.0, 0.99 * step_to_boundary((x, dx), (s, ds), (z, dz), (w, dw)))
        x, s, z, w = x + alpha * dx, s + alpha * ds, z + alpha * dz, w + alpha * dw
        y += alpha * dy
    return scatter(sign * best_x), iterations


def snap(beta, lo, hi):
    """Move entries within 1e-9 max(width, 1) of 0 or of a bound onto it,
    clip into [lo, hi], then restore sum(beta) = 0 on the coordinates with
    the most room."""
    near = 1e-9 * np.maximum(hi - lo, 1.0)
    beta = np.where(np.abs(beta) <= near, 0.0, beta)
    beta = np.where(beta >= hi - near, hi, beta)
    beta = np.where(beta <= lo + near, lo, beta)
    beta = np.clip(beta, lo, hi)
    excess = float(beta.sum())
    room = beta - lo if excess > 0.0 else hi - beta
    for i in np.argsort(room)[::-1]:
        if excess == 0.0:
            break
        move = min(float(room[i]), abs(excess))
        move = move if excess > 0.0 else -move
        beta[i] -= move
        excess -= move
    return beta
