"""Entrywise thresholding, positive-definite variants, and threshold CV.

Hard and soft thresholding act entrywise on a covariance estimate, diagonal
included. The positive-definite soft threshold solves

    min_{S > 0}  |S - Shat|_F^2 + 2 tau |S|_1 - lam log det S

by over-relaxed ADMM with two closed-form proximal maps: entrywise soft
thresholding and an eigenvalue map for the quadratic-plus-log-barrier
block. The solver starts from a closed-form point, exact when the
thresholded matrix is diagonal, or from a given start when that has the
lower objective. The ADMM penalty adapts by residual balancing, so
``PdSoftConfig.rho_admm`` is only the starting penalty: it changes the
iteration count, not the solution, and the solver converges on the whole
default CV grid ``DEFAULT_TAU_GRID``.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectral import CovEstimate, _as_data, spectral_estimate

__all__ = [
    "PdSoftConfig",
    "CvConfig",
    "hard_threshold",
    "soft_threshold",
    "pd_soft_threshold",
    "sample_covariance",
    "cross_validate_tau",
    "ConvergenceError",
    "DEFAULT_TAU_GRID",
]

# the tau grid of CV when none is given
DEFAULT_TAU_GRID = tuple(np.geomspace(1e-3, 2.0, 40).tolist())

# Residual balancing (Boyd et al. 2011, ADMM, section 3.4.1): every
# _BALANCE_EVERY iterations, when one scaled residual exceeds the other by
# more than _BALANCE_RATIO, rho moves by _BALANCE_FACTOR toward the larger
# one. Balancing every iteration by a factor of 2 took more iterations in
# total on CV grids.
_BALANCE_EVERY = 10
_BALANCE_RATIO = 10.0
_BALANCE_FACTOR = 10.0
# Over-relaxation (Boyd et al. 2011, ADMM, section 3.4.3): the Z- and dual
# updates see _RELAX * X + (1 - _RELAX) * Z_old in place of X.
_RELAX = 1.5


class ConvergenceError(RuntimeError):
    def __init__(self, msg, primal=None, dual=None, iterations=None, rho=None):
        super().__init__(msg)
        self.primal = primal
        self.dual = dual
        self.iterations = iterations
        self.rho = rho


@dataclass(frozen=True)
class PdSoftConfig:
    tau: float
    lambda_barrier: float = 1e-4
    max_iter: int = 10_000
    tol: float = 1e-7
    rho_admm: float = 1.0

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.lambda_barrier <= 0:
            raise ValueError("lambda_barrier must be positive")
        if self.max_iter < 1 or self.tol <= 0 or self.rho_admm <= 0:
            raise ValueError("invalid solver controls")


@dataclass(frozen=True)
class CvConfig:
    num_splits: int
    tau_grid: Sequence[float]
    seed: int = 0

    def __post_init__(self):
        grid = np.asarray(self.tau_grid, dtype=float)
        if grid.size == 0 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("tau_grid must be nonempty, positive, strictly ascending")
        object.__setattr__(self, "tau_grid", grid)
        if self.num_splits < 1:
            raise ValueError("num_splits must be >= 1")


def _matrix(est) -> np.ndarray:
    if isinstance(est, CovEstimate):
        return est.matrix
    return np.asarray(est, dtype=float)


def _kind(est, default="explicit") -> str:
    return est.estimator_kind if isinstance(est, CovEstimate) else default


def _soft(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def hard_threshold(est, tau: float) -> CovEstimate:
    """Zero out entries with |value| <= tau (strict survival rule)."""
    m = _matrix(est)
    out = np.where(np.abs(m) > tau, m, 0.0)
    return CovEstimate(out, "hard", {"tau": tau, "base": _kind(est)})


def soft_threshold(est, tau: float) -> CovEstimate:
    """Shrink every entry toward zero by tau: sign(x) * (|x| - tau)_+."""
    out = _soft(_matrix(est), tau)
    return CovEstimate(out, "soft", {"tau": tau, "base": _kind(est)})


def _pos_root(t, c):
    """The positive root of x^2 - t x - c = 0 (c > 0), elementwise.

    With m = |t| + sqrt(t^2 + 4c) the root is m/2 for t >= 0 and, since the
    roots multiply to -c, 2c/m for t < 0. No branch subtracts, so the root
    keeps its relative accuracy where the textbook form
    (t + sqrt(t^2 + 4c))/2 cancels to 0 (t << -sqrt(c)), and m >= 2 sqrt(c)
    is never 0.
    """
    m = np.abs(t) + np.sqrt(t * t + 4.0 * c)
    return np.where(t >= 0, 0.5 * m, 2.0 * c / m)


def _barrier_prox(V, target, rho, lam):
    """argmin_X |X - target|^2 + (rho/2)|X - V|^2 - lam log det X.

    Stationarity gives (2 + rho) X - lam X^{-1} = 2 target + rho V, solved
    per eigenvalue d of the right-hand side (eigh reads its lower triangle):
    x is the positive root of x^2 - d x - lam/(2 + rho) = 0.
    """
    d, Q = np.linalg.eigh((2.0 * target + rho * V) / (2.0 + rho))
    return (Q * _pos_root(d, lam / (2.0 + rho))) @ Q.T


def _objective(S, w, shat, tau, lam):
    """The PD-soft objective at S, whose eigenvalues are w (all > 0)."""
    return (np.sum((S - shat) ** 2) + 2.0 * tau * np.sum(np.abs(S))
            - lam * np.sum(np.log(w)))


def pd_soft_threshold(est, cfg: PdSoftConfig, start=None) -> CovEstimate:
    """Soft thresholding with a log-det barrier; output strictly PD.

    ADMM on the splitting f(X) = |X - Shat|^2 - lam log det X,
    g(Z) = 2 tau |Z|_1, over-relaxed by ``_RELAX``, starting at penalty
    ``cfg.rho_admm`` and balancing the residuals as it goes. Stops when
    max(primal, dual residual) < tol.

    The start point Z0 minimizes |S - T|^2 - lam log det S, where T is the
    soft threshold of Shat off the diagonal and Shat_ii - tau on it: the
    objective with the l1 subgradient fixed at its value there (+1 on the
    diagonal, as a PD solution has a positive one). With
    T = Q diag(t) Q^T, Z0 = Q diag(x) Q^T where x is the positive root of
    x^2 - t x - lam/2 = 0. When T is diagonal, Z0 is the solution, and the
    solver stops after one iteration. ``start``, a positive definite
    estimate such as the solution at a nearby tau, replaces Z0 when its
    objective is lower. The scaled dual starts at the value that makes the
    start point stationary for f. The tuning of the result records the
    iteration count, the final residuals and the final rho.
    """
    shat = _matrix(est)
    rho = cfg.rho_admm
    lam = cfg.lambda_barrier
    T = _soft(shat, cfg.tau)
    np.fill_diagonal(T, np.diag(shat) - cfg.tau)
    t, Q = np.linalg.eigh(T)
    w = _pos_root(t, 0.5 * lam)
    Z = (Q * w) @ Q.T
    if start is not None:
        S = _matrix(start)
        ws, Qs = np.linalg.eigh(S)
        if ws.min() <= 0:
            raise ValueError("start must be positive definite")
        if (_objective(S, ws, shat, cfg.tau, lam)
                < _objective(Z, w, shat, cfg.tau, lam)):
            Z, w, Q = S, ws, Qs
    # the first X-update then returns Z itself
    Dual = (2.0 * (shat - Z) + lam * (Q / w) @ Q.T) / rho
    primal = dual = math.inf
    for it in range(1, cfg.max_iter + 1):
        X = _barrier_prox(Z - Dual, shat, rho, lam)
        Z_old = Z
        X_relaxed = _RELAX * X + (1.0 - _RELAX) * Z_old
        Z = _soft(X_relaxed + Dual, 2.0 * cfg.tau / rho)
        Dual = Dual + X_relaxed - Z
        # residuals scaled by iterate magnitudes, floored at 1 so that
        # small-scale problems keep an absolute criterion
        primal_scale = max(1.0, np.linalg.norm(X), np.linalg.norm(Z))
        dual_scale = max(1.0, rho * np.linalg.norm(Dual))
        primal = np.linalg.norm(X - Z) / primal_scale
        dual = rho * np.linalg.norm(Z - Z_old) / dual_scale
        if max(primal, dual) < cfg.tol:
            break
        if it % _BALANCE_EVERY == 0:
            # the scaled dual is the unscaled one over rho
            if primal > _BALANCE_RATIO * dual:
                rho *= _BALANCE_FACTOR
                Dual = Dual / _BALANCE_FACTOR
            elif dual > _BALANCE_RATIO * primal:
                rho /= _BALANCE_FACTOR
                Dual = Dual * _BALANCE_FACTOR
    else:
        raise ConvergenceError(
            f"ADMM did not converge in {cfg.max_iter} iterations "
            f"(primal={primal:.3e}, dual={dual:.3e}, rho={rho:.3g})",
            primal=primal,
            dual=dual,
            iterations=cfg.max_iter,
            rho=rho,
        )
    out = 0.5 * (X + X.T)
    base = _kind(est)
    kind = {"spectral": "sps", "sample": "pds"}.get(base, "pdsoft")
    return CovEstimate(
        out,
        kind,
        {"tau": cfg.tau, "lambda": lam, "base": base, "iterations": it,
         "primal": float(primal), "dual": float(dual), "rho": rho},
    )


def sample_covariance(Y) -> CovEstimate:
    """Uncentered sample covariance (1/n) sum_k Y_k Y_k^T."""
    data = _as_data(Y)
    n = data.shape[0]
    m = data.T @ data / n
    m = np.triu(m) + np.triu(m, k=1).T
    return CovEstimate(m, "sample", {})


def cross_validate_tau(Y, U, cfg: CvConfig, fit):
    """Split-based selection of the threshold tau.

    The data is split num_splits times into a training part of size
    n1 = n - n2 and a validation part of size n2 = floor(n / log n).
    ``fit(train, taus)`` returns the rule estimate on the training part for
    each tau of the ascending grid, in grid order; each is compared
    (squared Frobenius) to the plain spectral estimate at radius U on the
    validation part. The returned tau minimizes the summed score, ties
    broken toward the smaller tau.

    Returns (tau_hat, Q) with Q the score for each grid point.
    """
    data = _as_data(Y)
    n = data.shape[0]
    if n < 4:
        raise ValueError("need n >= 4 for a nondegenerate split")
    n2 = int(n / math.log(n))
    n1 = n - n2
    if n1 < 1 or n2 < 1:
        raise ValueError(f"degenerate split sizes n1={n1}, n2={n2}")
    grid = np.asarray(cfg.tau_grid, dtype=float)
    Q = np.zeros(len(grid))
    for m in range(cfg.num_splits):
        rng = np.random.default_rng([cfg.seed, m])
        perm = rng.permutation(n)
        train, val = data[perm[:n1]], data[perm[n1:]]
        val_est = spectral_estimate(val, U).matrix
        ests = fit(train, grid.tolist())
        if len(ests) != len(grid):
            raise ValueError(f"fit returned {len(ests)} estimates for "
                             f"{len(grid)} grid points")
        Q += [float(np.sum((est.matrix - val_est) ** 2)) for est in ests]
    # argmin returns the first (= smallest) tau on ties; grid is ascending
    return float(grid[int(np.argmin(Q))]), Q
